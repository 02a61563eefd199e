"""Permutation structures built from round-function oracles.

Every structure is r rounds of one map on the joined w = (k+1)n-bit state
x = L || R, where R is the low p1 bits of x and feeds the round function f:

    x -> R || (L xor E(f(R)))

(Schneier and Kelsey's unbalanced Feistel round). E spreads f's output over
the w - p1 bits of L:

    kind            p1    f           E
    balanced        n     n -> n      identity (the k = 1 case)
    source-heavy    kn    kn -> n     identity
    target-heavy    n     n -> kn     identity
    ufn2            n     n -> n      times the repunit sum_{i<k} 2^(in)

ufn2 XORs the one n-bit output into each of the k left blocks; it is the
shape that widens an n-bit block cipher to (k+1)n bits. Every round is a
bijection, so any composition encrypts and decrypts.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial
from types import SimpleNamespace
from typing import Callable, Sequence

from .bits import BitString, split_blocks
from .prbg import derive_seed
from .prf import (FunctionOracle, GgmFunctionOracle, IdealFunctionOracle, SplitMixRound,
                  split_master_key, splitmix, splitmix_stream)

__all__ = [
    "UfnKind",
    "UfnParams",
    "secure_rounds",
    "UfnPermutation",
    "splitmix_round_oracles",
    "last_input_memo",
    "ggm_round_oracles",
    "ideal_ufn",
    "ggm_ufn",
    "extend_block_cipher",
]


class UfnKind(str, Enum):
    BALANCED = "balanced"
    SOURCE_HEAVY = "source-heavy"
    TARGET_HEAVY = "target-heavy"
    UFN2 = "ufn2"


@dataclass(frozen=True, slots=True)
class UfnParams:
    """One permutation family: structure kind, sub-block width n, ratio k, rounds r.

    The state is (k+1) sub-blocks of n bits. ``balanced`` is the k=1 case and
    rejects other ratios; at k=1 all four kinds coincide block for block.
    Slots keep the fields of an instance that a ``--jobs`` worker unpickles as
    fast to read as those of a built one; every round reads them.
    """

    kind: UfnKind
    n: int
    k: int
    r: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.k < 1 or self.r < 1:
            raise ValueError("n, k, and r must all be >= 1")
        if self.kind is UfnKind.BALANCED and self.k != 1:
            raise ValueError("balanced structure requires k == 1")

    @property
    def state_bits(self) -> int:
        return (self.k + 1) * self.n

    @property
    def round_in_bits(self) -> int:
        return self.k * self.n if self.kind is UfnKind.SOURCE_HEAVY else self.n

    @property
    def round_out_bits(self) -> int:
        return self.k * self.n if self.kind is UfnKind.TARGET_HEAVY else self.n


def secure_rounds(kind: UfnKind, k: int) -> int:
    """Minimal round count at which each structure stops being attackable."""
    return 2 * k + 1 if kind is UfnKind.UFN2 else k + 2


def _image(params: UfnParams, f: FunctionOracle, right):
    """E(f(R)): the identity, except for ufn2, whose E copies the n-bit output into
    each of the k left blocks as a multiply by the repunit sum_{i<k} 2^(in)."""
    image = f.eval_int(right)
    if params.kind is UfnKind.UFN2:
        return image * (((1 << params.k * params.n) - 1) // ((1 << params.n) - 1))
    return image


def _forward(params: UfnParams, f: FunctionOracle, x):
    """One round on the joined state x = L || R, R its low p1 = ``round_in_bits`` bits:
    x -> R || (L xor E(f(R))). ``x`` may be an int, a ``bits.Lanes`` or a numpy
    ``uint64`` array."""
    p1 = params.round_in_bits
    right = x & ((1 << p1) - 1)
    return (right << (params.state_bits - p1)) | ((x >> p1) ^ _image(params, f, right))


def _inverse(params: UfnParams, f: FunctionOracle, y):
    """The inverse round: R || L' -> (L' xor E(f(R))) || R."""
    p1 = params.round_in_bits
    q = params.state_bits - p1
    right = y >> q
    return (((y & ((1 << q) - 1)) ^ _image(params, f, right)) << p1) | right


class UfnPermutation:
    """An r-round permutation on (k+1)n bits with one oracle per round.

    Round oracles are validated against the structure at build time. Passing
    the same oracle object for several rounds shares one round function
    across them; the distinguishing games here always use independent rounds.
    """

    def __init__(self, params: UfnParams, rounds: Sequence[FunctionOracle]) -> None:
        if len(rounds) != params.r:
            raise ValueError(f"expected {params.r} round oracles, got {len(rounds)}")
        in_bits, out_bits = params.round_in_bits, params.round_out_bits
        for f in rounds:
            if f.in_bits != in_bits or f.out_bits != out_bits:
                raise ValueError(
                    f"{params.kind.value} with n={params.n}, k={params.k} needs a "
                    f"{in_bits}->{out_bits} round function, got {f.in_bits}->{f.out_bits}"
                )
        self.params = params
        self.rounds = tuple(rounds)
        self.width = params.state_bits
        self.query_count = 0

    def _state(self, x: int) -> int:
        if not 0 <= x < 1 << self.width:
            raise ValueError(f"state does not fit in {self.width} bits")
        return x

    def _through(self, step, rounds, x: int):
        """The round loop of ``encrypt``, ``decrypt`` and ``query``. ``step`` is
        ``_forward`` or ``_inverse``, read from the module at each call so
        that a rebound step is the one used."""
        x = self._state(x)
        params = self.params
        for f in rounds:
            x = step(params, f, x)
        return x

    def _value(self, x: BitString) -> int:
        if x.width != self.width:
            raise ValueError(f"expected {self.width}-bit input, got {x.width}")
        return x.value

    def encrypt(self, x: BitString) -> BitString:
        return BitString(self.width, self._through(_forward, self.rounds, self._value(x)))

    def decrypt(self, y: BitString) -> BitString:
        x = self._through(_inverse, reversed(self.rounds), self._value(y))
        return BitString(self.width, x)

    def query(self, x: int) -> int:
        """Permutation-oracle interface: forward queries on int states. A
        state outside [0, 2^width) raises ValueError and is not counted."""
        y = self._through(_forward, self.rounds, x)
        self.query_count += 1
        return y

    def trace_states(self, x: int) -> list[tuple[int, ...]]:
        """Block tuples of the int state ``x`` before round 1 and after each
        round (r+1 entries)."""
        states = [self._state(x)]
        for f in self.rounds:
            states.append(_forward(self.params, f, states[-1]))
        return [split_blocks(state, self.params.n, self.params.k + 1) for state in states]


def splitmix_round_oracles(params: UfnParams, master: int, trials) -> list[SplitMixRound]:
    """The r counter-keyed round functions of a batch; ``trials`` (a ``bits.Lanes`` or
    a numpy ``uint64`` array) holds t+1 for trial t. Trial t's key is T_t = z(master,
    t+1), round i's is K_i = z(T_t, i+1), and f_i(x) = z(K_i, x+1) >> (64 - out_bits),
    with z = ``prf.splitmix``: any split of the trials keys the same instances."""
    keys = splitmix_stream(splitmix(master, trials))
    in_bits, out_bits = params.round_in_bits, params.round_out_bits
    return [SplitMixRound(in_bits, out_bits, next(keys)) for _ in range(params.r)]


def _memo_eval(evaluate, last: list, x):
    """``evaluate(x)``, or ``last[1]`` if ``x`` has the class and value of ``last[0]``."""
    if x.__class__ is not last[0].__class__ or x != last[0]:
        last[:] = x, evaluate(x)
    return last[1]


def last_input_memo(rounds: Sequence[FunctionOracle]) -> list[SimpleNamespace]:
    """The rounds of a batch, each behind a one-entry memo of its last input (an int or a
    ``bits.Lanes``): a round whose queries share an input evaluates it once. The memo
    wraps the round and is not set on it, which would form a reference cycle that only
    the cyclic garbage collector frees."""
    return [SimpleNamespace(in_bits=f.in_bits, out_bits=f.out_bits,
                            eval_int=partial(_memo_eval, f.eval_int, [None, None]))
            for f in rounds]


def ggm_round_oracles(
    params: UfnParams, master: BitString, mode: str = "fast"
) -> list[GgmFunctionOracle]:
    """Tree-walk round functions keyed by equal slices of a master key."""
    keys = split_master_key(master, params.r)
    return [
        GgmFunctionOracle(
            params.round_in_bits,
            params.round_out_bits,
            key,
            mode,
            salt=derive_seed("ggm-round", i),
        )
        for i, key in enumerate(keys)
    ]


def ideal_ufn(params: UfnParams, seed: object) -> UfnPermutation:
    """Lazily sampled rounds, round i keyed by ``derive_seed("ideal-ufn", seed, i)``: its
    values depend on ``seed``, i and the round input, not on the order of queries."""
    in_bits, out_bits = params.round_in_bits, params.round_out_bits
    return UfnPermutation(params, [
        IdealFunctionOracle(in_bits, out_bits, derive_seed("ideal-ufn", seed, i))
        for i in range(params.r)
    ])


def ggm_ufn(params: UfnParams, master: BitString, mode: str = "fast") -> UfnPermutation:
    return UfnPermutation(params, ggm_round_oracles(params, master, mode))


def extend_block_cipher(
    round_cipher: Callable[[int], FunctionOracle], n: int, k: int
) -> UfnPermutation:
    """Widen an n-bit block cipher to a (k+1)n-bit permutation of 2k+1 rounds.

    ``round_cipher(i)`` must return an independently keyed n -> n instance for
    round i. Even ratios are rejected: with k even, the XOR of all state
    blocks is preserved by every round, so a single query distinguishes the
    result from a random permutation regardless of the round count. Build the
    ``UfnParams`` directly to study that failure.
    """
    if k % 2 == 0:
        raise ValueError(
            f"k={k} is even: the XOR of all blocks would be invariant, giving a "
            "single-query distinguisher; use odd k"
        )
    params = UfnParams(UfnKind.UFN2, n, k, secure_rounds(UfnKind.UFN2, k))
    return UfnPermutation(params, [round_cipher(i) for i in range(params.r)])
