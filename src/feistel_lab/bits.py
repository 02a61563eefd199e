"""Fixed-width bit strings, 64-bit lanes in one int, the split of a state into blocks,
and the trial chunks that run in forked processes."""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from typing import Iterable, Iterator

__all__ = ["BitString", "Lanes", "LANE_BATCH", "lane_batches", "usable_cpus", "run_chunks",
           "check_lane_width", "split_blocks"]

_M64 = (1 << 64) - 1

_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


@dataclass(frozen=True, slots=True)
class BitString:
    """Immutable sequence of bits with an explicit width.

    Bit 0 is the leftmost bit and the most significant bit of ``value``:
    ``BitString(6, 0b101101)`` is the string 101101 and formats as ``6:2D``.
    Width 0 (the empty string) is allowed.
    """

    width: int
    value: int

    def __post_init__(self) -> None:
        if self.width < 0:
            raise ValueError("width must be >= 0")
        if not 0 <= self.value < (1 << self.width):
            raise ValueError(f"value does not fit in {self.width} bits")

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

    def split(self, left_width: int) -> tuple["BitString", "BitString"]:
        """Split into (leftmost left_width bits, remainder)."""
        if not 0 <= left_width <= self.width:
            raise ValueError(f"cannot split width {self.width} at {left_width}")
        right_width = self.width - left_width
        return (
            BitString(left_width, self.value >> right_width),
            BitString(right_width, self.value & ((1 << right_width) - 1)),
        )


@dataclass(slots=True)
class Lanes:
    """``count`` unsigned 64-bit values in one int, lane t in bits [128t, 128t+64).

    ``^ | & << >> + *`` act on every lane at once and wrap it mod 2^64, as on numpy
    ``uint64`` arrays: the 64 spare bits above a lane take its carries and products
    and are cleared after each step. An int operand c fills every lane with c mod 2^64:
    that spread is made on first use in a batch and kept in the ``spreads`` dict that
    ``of`` starts and all results of the batch share, so it goes when the batch does.
    """

    value: int
    count: int
    spreads: dict[int, int] = field(compare=False, repr=False)  # from 1 and -1, the lane mask

    @classmethod
    def of(cls, values: Iterable[int]) -> "Lanes":
        values = list(values)
        packed = struct.pack("<" + "Q8x" * len(values), *values)
        ones = int.from_bytes((b"\x01" + bytes(15)) * len(values), "little")
        return cls(int.from_bytes(packed, "little"), len(values), {1: ones, -1: ones * _M64})

    def tolist(self) -> list[int]:
        data = self.value.to_bytes(16 * self.count, "little")
        return list(struct.unpack(f"<{2 * self.count}Q", data)[::2])

    def zeros(self) -> int:
        """Lanes that hold 0: adding 2^64 - 1 carries out of every other lane."""
        return self.count - ((self.value + self.spreads[-1]) >> 64 & self.spreads[1]).bit_count()

    def _spread(self, c: int) -> int:
        if c not in self.spreads:
            self.spreads[c] = (c & _M64) * self.spreads[1]
        return self.spreads[c]

    def __xor__(self, other) -> "Lanes":
        other = other.value if other.__class__ is Lanes else self._spread(other)
        return Lanes(self.value ^ other, self.count, self.spreads)

    def __or__(self, other) -> "Lanes":
        other = other.value if other.__class__ is Lanes else self._spread(other)
        return Lanes(self.value | other, self.count, self.spreads)

    def __and__(self, other) -> "Lanes":
        other = other.value if other.__class__ is Lanes else self._spread(other)
        return Lanes(self.value & other, self.count, self.spreads)

    def __add__(self, other) -> "Lanes":
        other = other.value if other.__class__ is Lanes else self._spread(other)
        return Lanes(self.value + other & self.spreads[-1], self.count, self.spreads)

    def __mul__(self, factor: int) -> "Lanes":
        return Lanes(self.value * (factor & _M64) & self.spreads[-1], self.count, self.spreads)

    __rxor__, __ror__, __rand__, __radd__, __rmul__ = __xor__, __or__, __and__, __add__, __mul__

    def __lshift__(self, shift: int) -> "Lanes":
        value = self.value << shift & self.spreads[-1] if shift < 64 else 0
        return Lanes(value, self.count, self.spreads)

    def __rshift__(self, shift: int) -> "Lanes":
        # Below 64, a neighbour's bits only reach the spare bits, which the mask clears.
        value = self.value >> shift & self.spreads[-1] if shift < 64 else 0
        return Lanes(value, self.count, self.spreads)


# Trials per batch of the lane engines. A step's Python cost is per batch: over the games
# points 512 lanes (8-KB ints) ran 1.19x faster than 256, every point faster. 1,024 ran 1.25x
# but left 12-bit points no faster, as one lane's repeat then sent its whole batch through a
# dict per lane in IdealPermutationOracle.distinct (which now redraws that lane alone; 1,024
# is not re-measured since), and a uniform badprob batch holds twice as much.
LANE_BATCH = 512


def lane_batches(start: int, count: int) -> Iterator[Lanes]:
    """Trials [start, start+count) in ``Lanes`` of at most ``LANE_BATCH``, t+1 in lane t."""
    for lo in range(start, start + count, LANE_BATCH):
        yield Lanes.of(range(lo + 1, min(lo + LANE_BATCH, start + count) + 1))


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where ``os`` has one, else all."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_chunks(worker, args: tuple, trials: int, jobs: int) -> list:
    """``worker(*args, start, count)`` over trials [0, trials) in at most ``jobs``
    chunks: the chunk results, in chunk order.

    Seeds come from absolute trial indices, so the chunking cannot change results.
    ``jobs`` is capped at ``usable_cpus()`` (more would only add start-up cost), and at
    1 where ``os`` cannot fork. The caller runs chunk 0 and forks one child per further
    chunk; the children inherit ``args``. A chunk's error is raised once every child is
    reaped, and no child outlives the call.
    """
    jobs = max(1, min(jobs, trials, usable_cpus(), jobs if hasattr(os, "fork") else 1))
    if jobs == 1:
        return [worker(*args, 0, trials)]
    import signal  # only a forking run needs it

    # An empty range raises configuration errors before any child starts.
    worker(*args, 0, 0)
    bounds = [trials * i // jobs for i in range(jobs + 1)]
    children = []  # (pid, read end) of each child not yet reaped
    try:
        for start, end in zip(bounds[1:-1], bounds[2:]):
            children.append(_fork_chunk(worker, args, start, end - start))
        results = [(True, worker(*args, 0, bounds[1]))]
        while children:
            pid, pipe = children[0]
            data = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            pipe.close()
            del children[0]
            results.append(_chunk_result(data, status))
    finally:
        for pid, pipe in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()
    for ok, value in results:
        if not ok:
            raise value
    return [value for _, value in results]


def _fork_chunk(worker, args: tuple, start: int, count: int):
    """Fork a child that pickles ``(ok, result or exception)`` into a pipe: (pid, read end)."""
    import pickle  # in the parent, so that no child loads it again

    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        # The child never returns into the caller's stack and never flushes its stdio.
        code = 1
        try:
            os.close(read_fd)
            try:
                result = (True, worker(*args, start, count))
            except BaseException as exc:
                result = (False, exc)
            with os.fdopen(write_fd, "wb") as pipe:
                pickle.dump(result, pipe)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, os.fdopen(read_fd, "rb")


def _chunk_result(data: bytes, status: int) -> tuple[bool, object]:
    """A reaped child's ``(ok, value)``; an error if it sent none that loads."""
    import pickle

    if not status and data:
        try:
            return pickle.loads(data)
        except Exception:  # loading a raised exception calls its class, which may fail
            pass
    return False, RuntimeError(f"a --jobs worker ended without a result (exit status {status})")


def check_lane_width(width: int) -> None:
    """Refuse a state too wide for one 64-bit lane."""
    if width > 64:
        raise ValueError(f"state of {width} bits does not fit a 64-bit lane (max 64)")


def split_blocks(value, n: int, count: int) -> tuple:
    """Cut a (count*n)-bit value into ``count`` n-bit blocks, block 0 the most
    significant. ``value`` may be an int, a ``Lanes`` or a numpy unsigned array."""
    mask = (1 << n) - 1
    return tuple((value >> ((count - 1 - i) * n)) & mask for i in range(count))

