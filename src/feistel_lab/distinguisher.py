"""Black-box distinguishing games against permutation oracles.

A machine gets query access to a permutation, asks at most its declared
budget of questions, and outputs one bit. ``estimate_advantage`` plays a
machine against two oracle families (fresh instance per trial) and reports
the acceptance rates, their gap, and Wilson 95% intervals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Protocol

from .bits import join_blocks
from .feistel import UfnKind, UfnParams, ideal_ufn
from .prbg import BitGenerator, FastBitGenerator, derive_seed
from .stats import wilson_halfwidth

__all__ = [
    "PermutationOracle",
    "IdealPermutationOracle",
    "ideal_permutation",
    "OracleMachine",
    "attack_leading_block",
    "attack_ufn2_even_k",
    "attack_ufn2_2k",
    "calibrate_w_index",
    "GameReport",
    "estimate_advantage",
    "advantage_counts",
]


class PermutationOracle(Protocol):
    """Queryable bijection on the int states [0, 2^width) that counts its queries."""

    width: int
    query_count: int

    def query(self, x: int) -> int: ...


class IdealPermutationOracle:
    """Lazily sampled uniform permutation.

    Fresh answers are drawn uniformly from the values not used so far
    (sampling without replacement); repeating a query replays its answer.
    The forward and inverse maps are kept mutually consistent.
    """

    def __init__(self, width: int, entropy: BitGenerator) -> None:
        if width < 1:
            raise ValueError("width must be >= 1")
        self.width = width
        self._entropy = entropy
        self._fwd: dict[int, int] = {}
        self._inv: dict[int, int] = {}
        self.query_count = 0

    def _fresh_value(self) -> int:
        # Rejection sampling: with u of the 2^w values unused, a draw takes
        # 2^w/u tries on average, so filling the whole domain takes about
        # 0.7·w·2^w draws. It is only called for an unmapped in-range query,
        # so at least one value is unused and the loop ends.
        used = self._inv
        while True:
            v = self._entropy.next_int(self.width)
            if v not in used:
                return v

    def query(self, x: int) -> int:
        if not 0 <= x < 1 << self.width:
            raise ValueError(f"query {x} does not fit in {self.width} bits")
        self.query_count += 1
        hit = self._fwd.get(x)
        if hit is None:
            hit = self._fresh_value()
            self._fwd[x] = hit
            self._inv[hit] = x
        return hit


def ideal_permutation(width: int, seed: object) -> IdealPermutationOracle:
    """Fresh uniform permutation oracle, replayable from ``seed``."""
    return IdealPermutationOracle(width, FastBitGenerator(derive_seed("ideal-perm", seed)))


class OracleMachine:
    """One-bit verdict machine with a declared query budget."""

    query_budget: int = 0

    def run(self, oracle: PermutationOracle) -> int:
        raise NotImplementedError


def _query_pair(n: int, k: int, seed: object | None) -> tuple[int, int]:
    """Two (k+1)n-bit int queries that differ exactly in the leftmost block."""
    if seed is None:
        shared = [0] * k
        left_p, left_q = 0, (1 << n) - 1
    else:
        gen = FastBitGenerator(derive_seed("query-pair", seed))
        shared = [gen.next_int(n) for _ in range(k)]
        left_p = gen.next_int(n)
        delta = gen.next_int(n) or 1
        left_q = left_p ^ delta
    return join_blocks([left_p, *shared], n), join_blocks([left_q, *shared], n)


class _PairMachine(OracleMachine):
    """Two queries differing only in the leftmost block; a subclass states
    the relation between the two replies that it accepts."""

    query_budget = 2

    def __init__(self, n: int, k: int, seed: object | None = None) -> None:
        self.n = n
        self.k = k
        self.x_p, self.x_q = _query_pair(n, k, seed)

    def run(self, oracle: PermutationOracle) -> int:
        if oracle.width != (self.k + 1) * self.n:
            raise ValueError(f"oracle width {oracle.width} does not match machine")
        y_p = oracle.query(self.x_p)
        y_q = oracle.query(self.x_q)
        return 1 if self._accepts(y_p, y_q) else 0

    def _accepts(self, y_p: int, y_q: int) -> bool:
        raise NotImplementedError


class _LeadingBlockXorMachine(_PairMachine):
    """Accepts when the leftmost output blocks XOR to the input difference.

    That relation is an identity for both under-rounded unbalanced shapes:
    after k+1 rounds the leftmost block is the original leftmost block XORed
    with round-function outputs that both queries share.
    """

    def _accepts(self, y_p: int, y_q: int) -> bool:
        return (self.x_p ^ self.x_q ^ y_p ^ y_q) >> (self.k * self.n) == 0


def attack_leading_block(n: int, k: int, seed: object | None = None) -> OracleMachine:
    """Distinguisher for the source-heavy and target-heavy shapes at up to k+1 rounds."""
    return _LeadingBlockXorMachine(n, k, seed)


class _XorSumMachine(OracleMachine):
    """Single query; accepts when the XOR over all output blocks equals the
    XOR over all input blocks. With an even ratio the repeated round-function
    output cancels out of that sum, so the relation holds at every round
    count."""

    query_budget = 1

    def __init__(self, n: int, k: int, seed: object | None = None) -> None:
        if k % 2 != 0:
            raise ValueError(f"k={k} is odd: the XOR-sum relation needs even k")
        self.n = n
        self.k = k
        if seed is None:
            self.x = 0
        else:
            gen = FastBitGenerator(derive_seed("xor-sum-query", seed))
            self.x = gen.next_int((k + 1) * n)

    def run(self, oracle: PermutationOracle) -> int:
        if oracle.width != (self.k + 1) * self.n:
            raise ValueError(f"oracle width {oracle.width} does not match machine")
        y = oracle.query(self.x)
        return 1 if _block_xor_sum(self.x ^ y, self.n, self.k + 1) == 0 else 0


def _block_xor_sum(v: int, n: int, count: int) -> int:
    """XOR of the ``count`` lowest n-bit blocks of ``v``."""
    acc = 0
    mask = (1 << n) - 1
    for _ in range(count):
        acc ^= v & mask
        v >>= n
    return acc


def attack_ufn2_even_k(n: int, k: int, seed: object | None = None) -> OracleMachine:
    """Single-query XOR-sum distinguisher; valid only for even k."""
    return _XorSumMachine(n, k, seed)


def calibrate_w_index(n: int, k: int, probes: int = 64, seed: object = "w-cal") -> int:
    """Find empirically which input block closes the 2k-round relation.

    The relation compares the XOR of the first k output blocks of two queries
    (differing only in the leftmost block) against the input difference plus
    one carried input block W. Each candidate position is tested against
    freshly built 2k-round constructions with random round functions over
    ``probes`` query pairs, and the smallest always-satisfied position wins.
    The answer is block 1, which both queries share, so the attack machine
    fixes W's difference at zero; this search remains as the empirical check
    of that choice.
    """
    if k % 2 == 0:
        raise ValueError(f"k={k} is even: the 2k-round relation needs odd k")
    params = UfnParams(UfnKind.UFN2, n, k, 2 * k)
    candidates = set(range(k + 1))
    for j in range(probes):
        perm = ideal_ufn(params, derive_seed(seed, n, k, "perm", j))
        x_p, x_q = _query_pair(n, k, derive_seed(seed, n, k, "pair", j))
        base = _relation_residual(perm.query(x_p), perm.query(x_q), x_p, x_q, n, k)
        keep = set()
        for idx in candidates:
            shift = (k - idx) * n
            w_delta = ((x_p ^ x_q) >> shift) & ((1 << n) - 1)
            if base ^ w_delta == 0:
                keep.add(idx)
        candidates = keep
        if not candidates:
            raise RuntimeError("no carried-block position satisfies the 2k-round relation")
    return min(candidates)


def _relation_residual(y_p: int, y_q: int, x_p: int, x_q: int, n: int, k: int) -> int:
    """XOR of the first k output blocks of both replies plus the input delta."""
    return _block_xor_sum((y_p ^ y_q) >> n, n, k) ^ ((x_p ^ x_q) >> (k * n))


class _CarriedBlockMachine(_PairMachine):
    """Accepts when the XOR of the first k output blocks of both replies
    equals the input difference. The carried block is block 1, which both
    queries share, so it adds nothing to the relation. Exact at 2k rounds
    for odd k."""

    def _accepts(self, y_p: int, y_q: int) -> bool:
        return _relation_residual(y_p, y_q, self.x_p, self.x_q, self.n, self.k) == 0


def attack_ufn2_2k(n: int, k: int, seed: object | None = None) -> OracleMachine:
    """Two-query distinguisher for the 2k-round widened shape; odd k only."""
    if k % 2 == 0:
        raise ValueError(
            f"k={k} is even: the 2k-round relation needs odd k; "
            "use the single-query XOR-sum machine instead"
        )
    return _CarriedBlockMachine(n, k, seed)


@dataclass(frozen=True)
class GameReport:
    """Empirical result of one distinguishing game: accept counts on both sides.

    ``ci_halfwidth`` bounds the advantage error conservatively as the sum of
    the two per-rate Wilson half-widths.
    """

    ones_a: int
    ones_b: int
    trials: int
    seed: int

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")

    @cached_property
    def accept_a(self) -> float:
        return self.ones_a / self.trials

    @cached_property
    def accept_b(self) -> float:
        return self.ones_b / self.trials

    @cached_property
    def advantage(self) -> float:
        return abs(self.accept_a - self.accept_b)

    @cached_property
    def ci_a(self) -> float:
        return wilson_halfwidth(self.ones_a, self.trials)

    @cached_property
    def ci_b(self) -> float:
        return wilson_halfwidth(self.ones_b, self.trials)

    @cached_property
    def ci_halfwidth(self) -> float:
        return self.ci_a + self.ci_b

    def to_json_dict(self) -> dict:
        return {
            "accept_a": self.accept_a,
            "accept_b": self.accept_b,
            "advantage": self.advantage,
            "ci": self.ci_halfwidth,
            "ci_a": self.ci_a,
            "ci_b": self.ci_b,
            "trials": self.trials,
            "seed": self.seed,
        }


OracleFactory = Callable[[int], PermutationOracle]


def advantage_counts(
    machine: OracleMachine,
    builder_a: OracleFactory,
    builder_b: OracleFactory,
    seed: int,
    start: int,
    count: int,
) -> tuple[int, int]:
    """Accept counts over trials [start, start+count), both sides.

    Each trial derives one sub-seed from its absolute index and hands it to
    both factories, so results do not depend on how trials are chunked and
    identical factories receive identical seeds. A machine that queries
    either oracle more often than its declared budget raises RuntimeError.
    """
    budget = machine.query_budget
    ones_a = 0
    ones_b = 0
    for t in range(start, start + count):
        trial_seed = derive_seed(seed, "trial", t)
        oracle_a = builder_a(trial_seed)
        ones_a += machine.run(oracle_a)
        oracle_b = builder_b(trial_seed)
        ones_b += machine.run(oracle_b)
        if oracle_a.query_count > budget or oracle_b.query_count > budget:
            raise RuntimeError(
                f"{type(machine).__name__} exceeded its query budget of {budget} in trial {t}"
            )
    return ones_a, ones_b


def estimate_advantage(
    machine: OracleMachine,
    builder_a: OracleFactory,
    builder_b: OracleFactory,
    trials: int,
    seed: int,
) -> GameReport:
    """Monte-Carlo acceptance gap of ``machine`` between two oracle families."""
    ones_a, ones_b = advantage_counts(machine, builder_a, builder_b, seed, 0, trials)
    return GameReport(ones_a, ones_b, trials, seed)
