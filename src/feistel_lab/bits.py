"""Fixed-width bit strings and the split of a state into equal-width blocks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

__all__ = ["BitString", "split_blocks", "join_blocks"]

_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


@dataclass(frozen=True, slots=True)
class BitString:
    """Immutable sequence of bits with an explicit width.

    Bit 0 is the leftmost bit and the most significant bit of ``value``:
    ``BitString(6, 0b101101)`` is the string 101101 and formats as ``6:2D``.
    Width 0 (the empty string) is allowed as the neutral element of
    concatenation.
    """

    width: int
    value: int

    def __post_init__(self) -> None:
        if self.width < 0:
            raise ValueError("width must be >= 0")
        if not 0 <= self.value < (1 << self.width):
            raise ValueError(f"value {self.value} does not fit in {self.width} bits")

    @classmethod
    def from_bits(cls, bits: Sequence[int]) -> "BitString":
        value = 0
        for b in bits:
            if b not in (0, 1):
                raise ValueError("bits must be 0 or 1")
            value = (value << 1) | b
        return cls(len(bits), value)

    @classmethod
    def parse(cls, text: str) -> "BitString":
        """Parse the ``width:hexdigits`` form, e.g. ``6:2D`` for 101101.

        The width is ASCII decimal digits and the value ASCII hex digits of
        either case: no sign, space, underscore or ``0x`` prefix.
        """
        left, sep, digits = text.partition(":")
        if not (sep and left.isascii() and left.isdigit() and _HEX_DIGITS.issuperset(digits)):
            raise ValueError(f"expected 'width:hex' in ASCII digits, got {text!r}")
        width = int(left)
        if len(digits) != (width + 3) // 4:
            raise ValueError(f"expected {(width + 3) // 4} hex digits for width {width}")
        value = int(digits, 16) if digits else 0
        return cls(width, value)

    def text(self) -> str:
        if self.width == 0:
            return "0:"
        return f"{self.width}:{self.value:0{(self.width + 3) // 4}X}"

    def __str__(self) -> str:
        return self.text()

    def __len__(self) -> int:
        return self.width

    def bit(self, i: int) -> int:
        """Bit at position i, counted from the left starting at 0."""
        if not 0 <= i < self.width:
            raise IndexError(f"bit index {i} out of range for width {self.width}")
        return (self.value >> (self.width - 1 - i)) & 1

    def bits(self) -> tuple[int, ...]:
        return tuple((self.value >> (self.width - 1 - i)) & 1 for i in range(self.width))

    def xor(self, other: "BitString") -> "BitString":
        if self.width != other.width:
            raise ValueError(f"width mismatch: {self.width} vs {other.width}")
        return BitString(self.width, self.value ^ other.value)

    __xor__ = xor

    def concat(self, other: "BitString") -> "BitString":
        return BitString(self.width + other.width, (self.value << other.width) | other.value)

    def split(self, left_width: int) -> tuple["BitString", "BitString"]:
        """Split into (leftmost left_width bits, remainder)."""
        if not 0 <= left_width <= self.width:
            raise ValueError(f"cannot split width {self.width} at {left_width}")
        right_width = self.width - left_width
        return (
            BitString(left_width, self.value >> right_width),
            BitString(right_width, self.value & ((1 << right_width) - 1)),
        )

    def complement(self) -> "BitString":
        return BitString(self.width, self.value ^ ((1 << self.width) - 1))


def split_blocks(value, n: int, count: int) -> tuple:
    """Cut a (count*n)-bit value into ``count`` n-bit blocks, block 0 the most
    significant. ``value`` may be an int or a numpy unsigned integer array."""
    mask = (1 << n) - 1
    return tuple((value >> ((count - 1 - i) * n)) & mask for i in range(count))


def join_blocks(blocks, n: int):
    """Inverse of ``split_blocks``: concatenate n-bit blocks, block 0 leftmost."""
    value = 0
    for b in blocks:
        value = (value << n) | b
    return value
