"""Seeded bit generators: number-theoretic streams and a fast utility stream.

Every generator here is replayable: the same parameters, seed, and request
sequence produce identical bits. Experiments derive all of their randomness
from caller-supplied master seeds so that any run can be reproduced exactly.
"""

from __future__ import annotations

import functools
import hashlib
import math
import random
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from .bits import BitString

__all__ = [
    "derive_seed",
    "state_stream",
    "is_probable_prime",
    "is_generator",
    "BitGenerator",
    "FastBitGenerator",
    "BmParams",
    "BmGenerator",
    "bm_generate",
    "BbsParams",
    "BbsGenerator",
    "bbs_generate",
    "generate_bbs_params",
]

MILLER_RABIN_ROUNDS = 64

# The first twelve primes, and psi_12: the least composite that is a strong
# pseudoprime to all of them as bases.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
PSI_12 = 318665857834031151167461

# is_generator factors p - 1 by trial division, so larger moduli are refused.
BM_MAX_MODULUS = 1 << 20


# Labels that could be read as another part's text: empty, an int, a
# bit string, a tuple, or anything holding the part separator.
_RESERVED_LABEL = re.compile(r"|-?[0-9]+|b[0-9]+\.[0-9a-f]+|\(.*\)|.*\x1f.*", re.DOTALL)


@functools.lru_cache(maxsize=256)
def _label(text: str) -> str:
    """``text`` if it can serve as a seed label. Cached: a few fixed labels
    go into most seeds, and the pattern costs several times the lookup."""
    if _RESERVED_LABEL.fullmatch(text):
        raise ValueError(f"seed label {text!r} is empty, contains the separator, "
                         "or reads as an int, a bit string or a tuple")
    return text


def _canonical(part: object) -> str:
    if isinstance(part, BitString):
        return f"b{part.width}.{part.value:x}"
    kind = type(part)
    if kind is int:
        return str(part)
    if kind is str:
        return _label(part)
    if kind is tuple:  # its repr, but with each bit string in the form above
        items = [repr(item) if type(item) is str else _canonical(item) for item in part]
        return f"({items[0]},)" if len(items) == 1 else f"({', '.join(items)})"
    raise TypeError(f"seed parts are ints, strs, bit strings and tuples, not {kind.__name__}")


def derive_seed(*parts: object) -> int:
    """Stable 64-bit sub-seed from labels, integers, bit strings, or tuples
    of these.

    Used to give every trial, round, and oracle its own independent stream
    while keeping whole experiments reproducible from one master seed.
    Distinct part sequences give distinct hash inputs: an int is its decimal
    text, a bit string ``b<width>.<value in lowercase hex>``, written in time
    linear in the width and for any width, a tuple its repr with each bit string
    in that form, and a label (str) is itself, so labels that could be read as one
    of the others, or that contain the separator, are refused.
    """
    text = "\x1f".join([_canonical(p) for p in parts])
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _state_head(width: int, salt: int) -> bytes:
    """``<salt>\x1fb<width>.``, the text ``derive_seed(salt, BitString(width, value))``
    hashes up to ``value``. The separator and the dot end the digits, so no head begins another."""
    if type(salt) is not int:
        raise TypeError(f"a stream salt is an int, not {type(salt).__name__}")
    return f"{salt}\x1fb{width}.".encode()


def state_stream(width: int, out_bits: int, salt: int) -> Callable[[int], int]:
    """``value ->`` the int of the leading ``out_bits`` bits (big-endian) of SHAKE-256
    (NIST FIPS 202) over the text ``derive_seed(salt, BitString(width, value))``
    hashes up to ``value``, absorbed once, followed by ``value`` as
    ``ceil(width / 8)`` big-endian bytes, which cost time linear in ``width``: one
    digest per step, no state between steps. The head fixes the salt, the width and so
    the byte count, so distinct salts, widths and values give distinct messages."""
    head = hashlib.shake_256(_state_head(width, salt))
    value_bytes = -(-width // 8)
    size = -(-out_bits // 8)
    spare = 8 * size - out_bits

    def stream(value: int) -> int:
        h = head.copy()
        h.update(value.to_bytes(value_bytes, "big"))
        return int.from_bytes(h.digest(size), "big") >> spare

    return stream


def _strong_probable_prime(num: int, bases: Iterable[int]) -> bool:
    """True iff odd ``num`` is a strong probable prime to each of ``bases``.

    Every base must lie in [2, num - 2].
    """
    d = num - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, num)
        if x == 1 or x == num - 1:
            continue
        for _ in range(s - 1):
            x = x * x % num
            if x == num - 1:
                break
        else:
            return False
    return True


def _random_bases(num: int, rounds: int) -> Iterator[int]:
    """``rounds`` Miller-Rabin bases in [2, num - 2], seeded by ``num`` alone."""
    rng = random.Random(derive_seed("miller-rabin", num))
    return (rng.randrange(2, num - 1) for _ in range(rounds))


def is_probable_prime(num: int) -> bool:
    """Primality by trial division and strong-probable-prime tests.

    Below ``PSI_12`` the verdict is exact: every composite there fails a
    strong test to one of the twelve prime bases 2..37 (Sorenson and
    Webster, *Strong pseudoprimes to twelve prime bases*, Math. Comp. 86,
    2017). At or above it, ``MILLER_RABIN_ROUNDS`` bases are drawn from a stream
    seeded by ``num``, so the verdict is still a fixed function of ``num``.
    """
    if num < 2:
        return False
    for small in _SMALL_PRIMES:
        if num % small == 0:
            return num == small
    if num < PSI_12:
        return _strong_probable_prime(num, _SMALL_PRIMES)
    return _strong_probable_prime(num, _random_bases(num, MILLER_RABIN_ROUNDS))


def _prime_factors(num: int) -> set[int]:
    """The prime factors of ``num`` >= 1, by trial division up to its square root."""
    factors: set[int] = set()
    f = 2
    while f * f <= num:
        while num % f == 0:
            factors.add(f)
            num //= f
        f += 1
    if num > 1:
        factors.add(num)
    return factors


def is_generator(g: int, p: int) -> bool:
    """True iff g generates the full multiplicative group mod prime p."""
    if not 1 <= g < p:
        return False
    order = p - 1
    return all(pow(g, order // q, p) != 1 for q in _prime_factors(order))


class BitGenerator:
    """Replayable bit stream: ``next_bits`` is deterministic given the seed."""

    def next_bits(self, count: int) -> BitString:
        raise NotImplementedError


class FastBitGenerator(BitGenerator):
    """Deterministic utility stream, seeded by an int; it draws the Blum primes of
    ``generate_bbs_params``. Backed by the stdlib Mersenne Twister; passes basic
    frequency checks but is NOT claimed cryptographically pseudo-random.
    """

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)

    def next_bits(self, count: int) -> BitString:
        if count < 0:
            raise ValueError("count must be >= 0")
        return BitString(count, self._rng.getrandbits(count))

    def next_int(self, bits: int) -> int:
        return self._rng.getrandbits(bits)


@dataclass(frozen=True)
class BmParams:
    """Discrete-log stream parameters: prime p, group generator g, start x0.

    p is at most ``BM_MAX_MODULUS`` (2^20): ``is_generator`` factors p - 1 by
    trial division.
    """

    p: int
    g: int
    x0: int

    def __post_init__(self) -> None:
        if self.p > BM_MAX_MODULUS:
            raise ValueError(
                f"modulus {self.p} exceeds {BM_MAX_MODULUS}: is_generator factors "
                "p - 1 by trial division"
            )
        if not is_probable_prime(self.p):
            raise ValueError(f"p={self.p} is not prime")
        if not is_generator(self.g, self.p):
            raise ValueError(f"g={self.g} does not generate the group mod {self.p}")
        if not 0 <= self.x0 < self.p:
            raise ValueError(f"x0={self.x0} out of range [0, {self.p})")


class BmGenerator(BitGenerator):
    """Discrete-log hard-core bit stream (Blum and Micali), desk-scale moduli only.

    State update x <- g^x mod p; the emitted bit is 1 iff log_g(g^x mod p) <=
    (p-1)/2. That log is x mod (p-1), so each bit is read off the state before
    its step, and no log table is built.
    """

    def __init__(self, params: BmParams) -> None:
        self.params = params
        self._x = params.x0

    def next_bits(self, count: int) -> BitString:
        if count < 0:
            raise ValueError("count must be >= 0")
        p, g = self.params.p, self.params.g
        order = p - 1
        half = order // 2
        value = 0
        x = self._x
        for _ in range(count):
            value = (value << 1) | (x % order <= half)
            x = pow(g, x, p)
        self._x = x
        return BitString(count, value)


def bm_generate(params: BmParams, count: int) -> BitString:
    """First ``count`` bits of the discrete-log stream for ``params``."""
    return BmGenerator(params).next_bits(count)


@dataclass(frozen=True)
class BbsParams:
    """Quadratic-residue stream parameters: Blum primes p, q and seed s. n = p*q and
    x0 = s^2 mod n follow from them, set once here: the stream reads n at every step."""

    p: int
    q: int
    s: int
    n: int = field(init=False)
    x0: int = field(init=False)

    def __post_init__(self) -> None:
        for prime in (self.p, self.q):
            if prime % 4 != 3 or not is_probable_prime(prime):
                raise ValueError(f"{prime} is not a prime congruent to 3 mod 4")
        if self.p == self.q:
            raise ValueError(f"p and q are both {self.p}: n = p^2 is not a Blum integer")
        object.__setattr__(self, "n", self.p * self.q)
        if not 1 <= self.s < self.n or math.gcd(self.s, self.n) != 1:
            raise ValueError("s must lie in [1, n) and be coprime to n")
        object.__setattr__(self, "x0", self.s * self.s % self.n)


class BbsGenerator(BitGenerator):
    """Quadratic-residue bit stream: x <- x^2 mod n, emit the LSB of x."""

    def __init__(self, params: BbsParams) -> None:
        self.params = params
        self._x = params.x0

    def next_bits(self, count: int) -> BitString:
        if count < 0:
            raise ValueError("count must be >= 0")
        n = self.params.n
        x = self._x
        value = 0
        for _ in range(count):
            x = x * x % n
            value = (value << 1) | (x & 1)
        self._x = x
        return BitString(count, value)

    def reseed(self, seed: int) -> None:
        """Restart at x = s^2 mod n, s = seed mod (n - 1) + 1 stepped up (from n - 1
        back to 1) to the first value coprime to n."""
        n = self.params.n
        s = seed % (n - 1) + 1
        while math.gcd(s, n) != 1:
            s = s + 1 if s < n - 1 else 1
        self._x = s * s % n


def bbs_generate(params: BbsParams, count: int) -> BitString:
    """First ``count`` bits of the quadratic-residue stream for ``params``."""
    return BbsGenerator(params).next_bits(count)


def generate_bbs_params(bit_length: int, entropy: object) -> BbsParams:
    """Draw two distinct Blum primes of ``bit_length`` bits and a coprime seed.

    Deterministic given ``entropy``. Raises ``ValueError`` when 64 redraws
    find no second prime, as at bit lengths 3 and 4, which each admit only
    one prime congruent to 3 mod 4 (7 and 11).
    """
    if bit_length < 3:
        raise ValueError("bit_length must be >= 3")
    rng = FastBitGenerator(derive_seed("bbs-params", entropy))

    def draw_prime() -> int:
        while True:
            c = rng.next_int(bit_length) | (1 << (bit_length - 1)) | 3
            if is_probable_prime(c):
                return c

    p = draw_prime()
    q = draw_prime()
    for _ in range(64):
        if q != p:
            break
        q = draw_prime()
    if q == p:
        raise ValueError(f"no two distinct Blum primes of {bit_length} bits")
    n = p * q
    while True:
        s = rng.next_int(2 * bit_length) % (n - 1) + 1
        if math.gcd(s, n) == 1:
            break
    return BbsParams(p, q, s)
