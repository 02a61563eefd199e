"""Permutation structures built from round-function oracles.

Four round shapes over a state of equal-width sub-blocks:

* ``balanced``: two blocks, round function n -> n.
* ``source-heavy``: k+1 blocks, the k rightmost feed a kn -> n round
  function whose output is XORed into the single left block.
* ``target-heavy``: k+1 blocks, the rightmost feeds an n -> kn round
  function whose output is cut into k slices, one per left block.
* ``ufn2``: like target-heavy but with an n -> n round function whose single
  output is XORed into every left block; this is the shape that widens an
  n-bit block cipher to (k+1)n bits.

Every round is a bijection, so any composition encrypts and decrypts.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

from .bits import BitString, join_blocks, split_blocks
from .prbg import FastBitGenerator, derive_seed
from .prf import FunctionOracle, GgmFunctionOracle, IdealFunctionOracle, split_master_key

__all__ = [
    "UfnKind",
    "UfnParams",
    "UfnPermutation",
    "ideal_round_oracles",
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
    def block_count(self) -> int:
        return self.k + 1

    @property
    def round_in_bits(self) -> int:
        return self.k * self.n if self.kind is UfnKind.SOURCE_HEAVY else self.n

    @property
    def round_out_bits(self) -> int:
        return self.k * self.n if self.kind is UfnKind.TARGET_HEAVY else self.n


def _forward(params: UfnParams, f: FunctionOracle, blocks: tuple[int, ...]) -> tuple[int, ...]:
    """One round on the block values, leftmost block first.

    * balanced: (L, R) -> (R, L xor f(R));
    * source-heavy: (L, R_1..R_k) -> (R_1..R_k, L xor f(R_1 || ... || R_k));
    * target-heavy: (L_1..L_k, R) -> (R, L_1 xor C_1, ..., L_k xor C_k), where
      C_i is the i-th n-bit slice of f(R), leftmost first;
    * ufn2: (L_1..L_k, R) -> (R, L_1 xor f(R), ..., L_k xor f(R)).
    """
    n, k = params.n, params.k
    kind = params.kind
    if kind is UfnKind.SOURCE_HEAVY:
        acc = 0
        for b in blocks[1:]:
            acc = (acc << n) | b
        return blocks[1:] + (blocks[0] ^ f.eval_int(acc),)
    if kind is UfnKind.TARGET_HEAVY:
        image = f.eval_int(blocks[-1])
        mask = (1 << n) - 1
        out = [blocks[-1]]
        for i in range(k):
            out.append(blocks[i] ^ ((image >> ((k - 1 - i) * n)) & mask))
        return tuple(out)
    if kind is UfnKind.UFN2:
        image = f.eval_int(blocks[-1])
        return (blocks[-1],) + tuple(b ^ image for b in blocks[:-1])
    left, right = blocks
    return (right, left ^ f.eval_int(right))


def _inverse(params: UfnParams, f: FunctionOracle, blocks: tuple[int, ...]) -> tuple[int, ...]:
    n, k = params.n, params.k
    kind = params.kind
    if kind is UfnKind.SOURCE_HEAVY:
        acc = 0
        for b in blocks[:-1]:
            acc = (acc << n) | b
        return (blocks[-1] ^ f.eval_int(acc),) + blocks[:-1]
    if kind is UfnKind.TARGET_HEAVY:
        image = f.eval_int(blocks[0])
        mask = (1 << n) - 1
        out = []
        for i in range(k):
            out.append(blocks[i + 1] ^ ((image >> ((k - 1 - i) * n)) & mask))
        out.append(blocks[0])
        return tuple(out)
    if kind is UfnKind.UFN2:
        image = f.eval_int(blocks[0])
        return tuple(b ^ image for b in blocks[1:]) + (blocks[0],)
    left, right = blocks
    return (right ^ f.eval_int(left), left)


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
        self.query_count = 0

    @property
    def width(self) -> int:
        return self.params.state_bits

    def encrypt(self, x: BitString) -> BitString:
        if x.width != self.width:
            raise ValueError(f"expected {self.width}-bit input, got {x.width}")
        blocks = split_blocks(x.value, self.params.n, self.params.block_count)
        for f in self.rounds:
            blocks = _forward(self.params, f, blocks)
        return BitString(self.width, join_blocks(blocks, self.params.n))

    def decrypt(self, y: BitString) -> BitString:
        if y.width != self.width:
            raise ValueError(f"expected {self.width}-bit input, got {y.width}")
        blocks = split_blocks(y.value, self.params.n, self.params.block_count)
        for f in reversed(self.rounds):
            blocks = _inverse(self.params, f, blocks)
        return BitString(self.width, join_blocks(blocks, self.params.n))

    def query(self, x: BitString) -> BitString:
        """Permutation-oracle interface: forward queries only."""
        self.query_count += 1
        return self.encrypt(x)

    def trace_states(self, x: BitString) -> list[tuple[int, ...]]:
        """Block tuples before round 1 and after each round (r+1 entries)."""
        if x.width != self.width:
            raise ValueError(f"expected {self.width}-bit input, got {x.width}")
        blocks = split_blocks(x.value, self.params.n, self.params.block_count)
        states = [blocks]
        for f in self.rounds:
            blocks = _forward(self.params, f, blocks)
            states.append(blocks)
        return states


def ideal_round_oracles(params: UfnParams, seed: object) -> list[IdealFunctionOracle]:
    """Independent lazily-sampled round functions, one per round.

    All rounds of one instance draw their misses from a single stream seeded
    once from ``seed``, under a label of its own so that ``ideal_oracle`` with
    the same seed draws another stream; each round keeps its own memo table.
    Every miss is a fresh uniform draw, so the rounds are still independent
    random functions. The stream position a miss reads depends on the order
    of misses across rounds, which a fixed query sequence fixes, so instances
    replay exactly. Share an instance's oracles with no other instance or
    worker.
    """
    entropy = FastBitGenerator(derive_seed("ideal-ufn", seed))
    in_bits = params.round_in_bits
    out_bits = params.round_out_bits
    return [IdealFunctionOracle(in_bits, out_bits, entropy) for _ in range(params.r)]


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
    return UfnPermutation(params, ideal_round_oracles(params, seed))


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
    params = UfnParams(UfnKind.UFN2, n, k, 2 * k + 1)
    return UfnPermutation(params, [round_cipher(i) for i in range(params.r)])
