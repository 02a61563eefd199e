"""Black-box distinguishing games against permutation oracles.

A machine gets query access to a permutation, asks at most its declared
budget of questions, and counts the instances on which its relation holds.
``estimate_advantage`` plays it against a counter-keyed build of a structure and
a uniform permutation, and reports the acceptance rates, their gap, and Wilson
95% intervals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Protocol

from .bits import Lanes, check_lane_width, join_blocks, lane_batches, run_chunks
from .feistel import UfnKind, UfnParams, UfnPermutation, ideal_ufn, splitmix_round_oracles
from .prbg import FastBitGenerator, derive_seed
from .prf import splitmix, splitmix_stream
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
    """Queryable bijection on the int states [0, 2^width) that counts its queries;
    a lane oracle asks each query of every lane and replies with one ``Lanes``."""

    width: int
    query_count: int

    def query(self, x: int): ...


class IdealPermutationOracle:
    """Lazily sampled uniform permutations, one per lane of ``trials`` (t+1 for trial t).

    Lane t's i-th fresh query gets its i-th distinct candidate c_j = z(z(key, t+1), j+1)
    >> (64 - width), sampling without replacement; a repeated query replays its answer.
    A lane pass draws c_j for every lane and every lane keeps it, so a lane's answers do
    not depend on its batch. Answer j is pass j until some c_j ^ ((t+1) << 56) mod 2^64 repeats.
    """

    def __init__(self, width: int, key: int, trials: Lanes) -> None:
        if width < 1:
            raise ValueError("width must be >= 1")
        check_lane_width(width)
        self.width = width
        self._stream = splitmix_stream(splitmix(key, trials))
        self._tags = trials << 56  # t+1 mod 256 in the top byte: distinct in a batch
        self._tagged: set[int] = set()  # c_j ^ tag; a lane's repeat repeats it too
        self._passes: list[Lanes] = []
        self._replies: dict[int, Lanes] = {}
        self.query_count = 0

    def distinct(self, m: int) -> list[Lanes]:
        """The answers to m fresh queries: each lane's first m distinct candidates."""
        while len(self._passes) < m and len(self._tagged) == len(self._passes) * self._tags.count:
            self._passes.append(next(self._stream) >> (64 - self.width))
            self._tagged.update((self._passes[-1] ^ self._tags).tolist())
        if len(self._tagged) == len(self._passes) * self._tags.count:  # no lane repeated
            return self._passes[:m]
        seen = [dict.fromkeys(lane) for lane in zip(*(p.tolist() for p in self._passes))]
        while min(map(len, seen)) < m:
            self._passes.append(next(self._stream) >> (64 - self.width))
            for values, c in zip(seen, self._passes[-1].tolist()):
                values[c] = None
        return [Lanes.of(column) for column in islice(zip(*seen), m)]

    def query(self, x: int) -> Lanes:
        if not 0 <= x < 1 << self.width:
            raise ValueError(f"query {x} does not fit in {self.width} bits")
        self.query_count += 1
        if x not in self._replies:
            self._replies[x] = self.distinct(len(self._replies) + 1)[-1]
        return self._replies[x]


def ideal_permutation(width: int, seed: object, trials: Lanes) -> IdealPermutationOracle:
    """Uniform permutations of a batch of trials, replayable from ``seed``."""
    return IdealPermutationOracle(width, derive_seed("ideal-perm", seed), trials)


class OracleMachine:
    """Verdict machine with a declared query budget. It asks the same queries of every
    instance and states its relation as a residual that is 0 exactly on accept; ``run``
    counts the accepting instances (0 or 1 on a scalar oracle, zero lanes on a lane one)."""

    query_budget: int = 0

    def run(self, oracle: PermutationOracle) -> int:
        raise NotImplementedError


def _accepting(residual) -> int:
    return residual.tolist().count(0) if isinstance(residual, Lanes) else int(residual == 0)


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
    """Two queries differing only in the leftmost block; a subclass defines the
    ``_residual`` of the two replies."""

    query_budget = 2

    def __init__(self, n: int, k: int, seed: object | None = None) -> None:
        self.n = n
        self.k = k
        self.x_p, self.x_q = _query_pair(n, k, seed)

    def run(self, oracle: PermutationOracle) -> int:
        if oracle.width != (self.k + 1) * self.n:
            raise ValueError(f"oracle width {oracle.width} does not match machine")
        return _accepting(self._residual(oracle.query(self.x_p), oracle.query(self.x_q)))


class _LeadingBlockXorMachine(_PairMachine):
    """Accepts when the leftmost output blocks XOR to the input difference.

    That relation is an identity for both under-rounded unbalanced shapes:
    after k+1 rounds the leftmost block is the original leftmost block XORed
    with round-function outputs that both queries share.
    """

    def _residual(self, y_p, y_q):
        return (self.x_p ^ self.x_q ^ y_p ^ y_q) >> (self.k * self.n)


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
        return _accepting(_block_xor_sum(self.x ^ oracle.query(self.x), self.n, self.k + 1))


def _block_xor_sum(v, n: int, count: int):
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


def _relation_residual(y_p, y_q, x_p: int, x_q: int, n: int, k: int):
    """XOR of the first k output blocks of both replies plus the input delta."""
    return _block_xor_sum((y_p ^ y_q) >> n, n, k) ^ ((x_p ^ x_q) >> (k * n))


class _CarriedBlockMachine(_PairMachine):
    """Accepts when the XOR of the first k output blocks of both replies
    equals the input difference. The carried block is block 1, which both
    queries share, so it adds nothing to the relation. Exact at 2k rounds
    for odd k."""

    def _residual(self, y_p, y_q):
        return _relation_residual(y_p, y_q, self.x_p, self.x_q, self.n, self.k)


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


def advantage_counts(
    machine: OracleMachine, params: UfnParams, seed: object, start: int, count: int
) -> tuple[int, int]:
    """Accept counts over trials [start, start+count) against the structure ``params``
    (side a) and a uniform permutation of its state (side b), a ``bits.lane_batches``
    batch at a time. Side a runs ``feistel.splitmix_round_oracles`` from
    S = ``derive_seed("game-keys", seed)``, side b is ``ideal_permutation``: both are
    keyed from the absolute trial index, so chunking does not change results. A state
    wider than 64 bits raises ValueError, and a machine that queries either side more
    often than its budget in a batch raises RuntimeError."""
    check_lane_width(params.state_bits)
    master = derive_seed("game-keys", seed)
    budget = machine.query_budget
    ones_a = 0
    ones_b = 0
    for trials in lane_batches(start, count):
        oracle_a = UfnPermutation(params, splitmix_round_oracles(params, master, trials))
        ones_a += machine.run(oracle_a)
        oracle_b = ideal_permutation(params.state_bits, seed, trials)
        ones_b += machine.run(oracle_b)
        if oracle_a.query_count > budget or oracle_b.query_count > budget:
            raise RuntimeError(
                f"{type(machine).__name__} exceeded its query budget of {budget}"
            )
    return ones_a, ones_b


def estimate_advantage(
    machine: OracleMachine, params: UfnParams, trials: int, seed: object, jobs: int = 1
) -> GameReport:
    """Monte-Carlo acceptance gap of ``machine`` between the structure ``params``
    and a uniform permutation, over trials [0, trials) in up to ``jobs`` processes
    (``bits.run_chunks``). A state wider than 64 bits raises ValueError before any trial."""
    check_lane_width(params.state_bits)
    parts = run_chunks(advantage_counts, (machine, params, seed), trials, jobs)
    ones_a, ones_b = (sum(column) for column in zip(*parts))
    return GameReport(ones_a, ones_b, trials, seed)
