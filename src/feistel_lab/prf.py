"""Round-function oracles behind one interface.

Three realizations of a deterministic function I_in -> I_out:

* an ideal random function: its value at x is the keyed SHAKE-256 stream at x,
  a pure function of key and x that keeps no table;
* a counter-keyed function, the top bits of SplitMix64 of key and input,
  for a whole batch of independently keyed instances at once; and
* a keyed tree walk: a length-doubling generator is applied once per input
  bit, taking the left or right half of its output, and a finalizer stretches
  the final state to the output width.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

from .bits import BitString
from .prbg import (
    BbsGenerator,
    BbsParams,
    derive_seed,
    generate_bbs_params,
    state_stream,
)

__all__ = [
    "FunctionOracle",
    "IdealFunctionOracle",
    "splitmix",
    "splitmix_stream",
    "SplitMixRound",
    "GgmKey",
    "ggm_eval",
    "split_master_key",
    "GgmFunctionOracle",
]


class FunctionOracle:
    """Deterministic black-box function on fixed-width bit strings."""

    def __init__(self, in_bits: int, out_bits: int) -> None:
        if in_bits < 1 or out_bits < 1:
            raise ValueError("oracle widths must be >= 1")
        self.in_bits = in_bits
        self.out_bits = out_bits

    def eval_int(self, x: int) -> int:
        raise NotImplementedError


class IdealFunctionOracle(FunctionOracle):
    """Ideal random function: the value at x is ``prbg.state_stream(in_bits, out_bits,
    key)`` at x, so it depends on ``key`` and x alone, never on the order of queries.
    The stream writes x as bytes, so any input width is taken. It keeps no state
    between queries; ``bench`` caches it to measure a memo table.
    """

    def __init__(self, in_bits: int, out_bits: int, key: int) -> None:
        super().__init__(in_bits, out_bits)
        self._draw = state_stream(in_bits, out_bits, key)

    def eval_int(self, x: int) -> int:
        if not 0 <= x < 1 << self.in_bits:
            raise ValueError(f"round input does not fit in {self.in_bits} bits")
        return self._draw(x)


# SplitMix64 (Steele, Lea and Flood, OOPSLA 2014): the golden-gamma counter
# increment and the two multipliers of its finalizer.
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix(z, shift=0):  # the SplitMix64 finalizer, then >> shift
    z = (z ^ (z >> 30)) * _MIX1
    z = (z ^ (z >> 27)) * _MIX2
    if shift < 33:  # z < 2^64, so from 33 on the last xorshift's z >> 31 is shifted out
        z = z ^ (z >> 31)
    return z >> shift if shift else z


def splitmix(s, j, shift=0):
    """z(s, j) >> shift, z(s, j) = mix((s + j * gamma) mod 2^64) elementwise, mix the SplitMix64
    finalizer, so z(s, j + 1) = z(s + gamma, j). ``j`` is a numpy ``uint64`` array or a
    ``bits.Lanes``, whose products wrap mod 2^64, or an int against a ``Lanes`` s."""
    return _mix(s + j * _GAMMA, shift)


def splitmix_stream(s, shift=0):
    """z(s, 1) >> shift, z(s, 2) >> shift, ...: the state s advances by gamma per output."""
    while True:
        s = s + _GAMMA
        yield _mix(s, shift)


class SplitMixRound(FunctionOracle):
    """Round x -> top ``out_bits`` bits of z(key, x + 1) = z(key + gamma, x); it keeps
    key + gamma, one round key per instance of a batch (uint64 array or ``Lanes``)."""

    def __init__(self, in_bits: int, out_bits: int, key) -> None:
        super().__init__(in_bits, out_bits)
        self._base = key + _GAMMA
        self._shift = 64 - out_bits

    def eval_int(self, x):
        return splitmix(self._base, x, self._shift)


@dataclass(frozen=True)
class GgmKey:
    """Key with its doubling expander G and output finalizer G'.

    The walk states are ints of ``key.width`` bits. ``expander`` maps a state to
    an int below 2^(2 * key.width); its high half is the 0-branch and its low half
    the 1-branch. ``finalizer`` maps the final state to the result. Both must be
    deterministic.
    """

    key: BitString
    expander: Callable[[int], int]
    finalizer: Callable[[int], int]


def ggm_eval(key: GgmKey, x: BitString) -> int:
    """Walk the tree along the bits of ``x`` (left to right) from the key's value,
    and return the finalizer of the last state. An empty ``x`` performs no expander
    steps: the result is the finalized key itself. An expander output of 2w bits or
    more, for a w-bit key, raises ``ValueError``."""
    width = key.key.width
    doubled_width, mask = 2 * width, (1 << width) - 1
    expander, path, state = key.expander, x.value, key.key.value
    for shift in range(x.width - 1, -1, -1):
        doubled = expander(state)
        if doubled >> doubled_width:
            raise ValueError(f"expander output does not fit in {doubled_width} bits")
        state = doubled & mask if path >> shift & 1 else doubled >> width
    return key.finalizer(state)


def split_master_key(master: BitString, rounds: int) -> list[BitString]:
    """Cut a master key into ``rounds`` contiguous equal slices, leftmost first."""
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if master.width % rounds != 0:
        raise ValueError(f"master width {master.width} is not divisible by {rounds}")
    per = master.width // rounds
    keys = []
    rest = master
    for _ in range(rounds):
        head, rest = rest.split(per)
        keys.append(head)
    return keys


@functools.lru_cache(maxsize=256)
def _blum_params(salt: int) -> BbsParams:
    """The Blum moduli of one stream, of 32-bit primes. They hang on the salt alone,
    which the round index fixes, so they are public and built once per process."""
    return generate_bbs_params(32, derive_seed(salt, "modulus"))


def _bbs_stream(width: int, out_bits: int, salt: int) -> Callable[[int], int]:
    """``width``-bit state -> the first ``out_bits`` bits of one quadratic-residue
    generator reseeded with ``state_stream(width, 128, salt)`` at the state: 128 bits
    against the 64-bit modulus leave the reduction mod n - 1 a negligible bias."""
    gen = BbsGenerator(_blum_params(salt))
    seed_of = state_stream(width, 128, salt)

    def stream(state: int) -> int:
        gen.reseed(seed_of(state))
        return gen.next_bits(out_bits).value

    return stream


# The stream of one expander or finalizer, by mode, from the state width, its output
# width and its salt: ``state -> int`` of ``out_bits`` bits. A ``fast`` step is one
# SHAKE-256 digest of the salt and state; a ``bbs`` step reseeds the stream's one
# generator from such a digest.
_STREAM_GENERATORS = {"fast": state_stream, "bbs": _bbs_stream}


class GgmFunctionOracle(FunctionOracle):
    """Keyed tree-walk function with an instrumented generated-bit counter.

    ``mode`` selects the underlying stream for the expander and finalizer:
    ``fast`` (SHAKE-256 of the salt and walk state, default for bulk
    experiments) or ``bbs`` (quadratic-residue stream reseeded from a 128-bit
    SHAKE-256 digest of the salt and walk state, desk scale); either takes a key
    of any width. Evaluation mutates the bit counter, and under ``bbs``
    the generator of each stream, which every step reseeds; give each worker
    its own instance.
    """

    def __init__(
        self,
        in_bits: int,
        out_bits: int,
        key: BitString,
        mode: str = "fast",
        salt: object = 0,
    ) -> None:
        super().__init__(in_bits, out_bits)
        if key.width < 1:
            raise ValueError("key must be at least one bit wide")
        if mode not in _STREAM_GENERATORS:
            raise ValueError(f"unknown mode {mode!r}; expected one of {sorted(_STREAM_GENERATORS)}")
        new_stream = _STREAM_GENERATORS[mode]
        doubled_width = 2 * key.width
        expand_raw = new_stream(key.width, doubled_width, derive_seed("ggm-expand", salt))
        final_raw = new_stream(key.width, out_bits, derive_seed("ggm-final", salt))
        self.bits_generated = 0

        def expander(state: int) -> int:
            self.bits_generated += doubled_width
            return expand_raw(state)

        def finalizer(state: int) -> int:
            self.bits_generated += out_bits
            return final_raw(state)

        self.key = GgmKey(key, expander, finalizer)

    def eval_int(self, x: int) -> int:
        return ggm_eval(self.key, BitString(self.in_bits, x))
