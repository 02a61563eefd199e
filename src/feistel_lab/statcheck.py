"""Empirical checks behind the minimal-round results.

Three families of checks:

* collision ("BAD") events: how often designated intermediate blocks collide
  across adversarially shaped query pairs, compared against closed-form
  bounds;
* the bit-matrix rank argument that decides which ratios make the widened
  structure mix fully (nonsingular exactly for odd k);
* chi-square uniformity of outputs over freshly keyed instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .bits import Lanes, check_lane_width, lane_batches, run_chunks
from .distinguisher import IdealPermutationOracle
from .feistel import (UfnKind, UfnParams, _forward, last_input_memo, secure_rounds,
                      splitmix_round_oracles)
from .prbg import derive_seed
from .stats import chi_square_critical, chi_square_statistic, wilson_halfwidth

__all__ = [
    "secure_rounds",
    "watched_rounds",
    "BadEventSpec",
    "bad_event_bound",
    "BadProbReport",
    "bad_event_counts",
    "estimate_bad_prob",
    "Gf2Matrix",
    "build_ufn2_matrix",
    "gf2_nonsingular",
    "UniformityReport",
    "uniformity_counts",
    "conditional_uniformity_check",
]

_MAX_UNIFORMITY_STATE_BITS = 12
# Trials per array pass of uniformity_counts: bounds its memory at any trial count.
_UNIFORMITY_BATCH = 1 << 16


def watched_rounds(kind: UfnKind, k: int) -> tuple[int, ...]:
    """Rounds whose intermediate collisions constitute the BAD event."""
    if kind is UfnKind.SOURCE_HEAVY:
        return tuple(range(1, k + 2))
    if kind is UfnKind.TARGET_HEAVY:
        return (k, k + 1)
    if kind is UfnKind.UFN2:
        return tuple(range(k, 2 * k + 1))
    raise ValueError(f"no collision-event definition for kind {kind.value!r}")


@dataclass(frozen=True)
class BadEventSpec:
    """One collision-event experiment: structure kind, sub-block width n,
    ratio k, m queries per trial and their shaping.

    Everything is checked on construction, so a spec that exists runs. The
    structure (at its secure round count), the watched rounds and the bound
    are derived from these five fields.
    """

    kind: UfnKind
    n: int
    k: int
    m: int
    shaping: str = "adversarial"

    def __post_init__(self) -> None:
        self.rounds_watched  # raises for a kind without a collision event
        if self.m < 1:
            raise ValueError("query count m must be >= 1")
        width = self.params.state_bits  # raises for n or k below 1
        check_lane_width(width)
        if self.shaping == "adversarial":
            if self.m > (1 << self.n):
                raise ValueError(
                    f"m={self.m} exceeds the 2^{self.n} distinct values of the varied block"
                )
        elif self.shaping == "uniform":
            if self.m > (1 << width):
                raise ValueError(f"m={self.m} exceeds the 2^{width} distinct states")
        else:
            raise ValueError(
                f"unknown shaping {self.shaping!r}; expected 'adversarial' or 'uniform'"
            )

    @cached_property
    def rounds_watched(self) -> tuple[int, ...]:
        return watched_rounds(self.kind, self.k)

    @cached_property
    def params(self) -> UfnParams:
        return UfnParams(self.kind, self.n, self.k, secure_rounds(self.kind, self.k))

    @cached_property
    def bound(self) -> float:
        return bad_event_bound(self.kind, self.n, self.k, self.m)


def bad_event_bound(kind: UfnKind, n: int, k: int, m: int) -> float:
    """Closed-form upper bound on the collision-event probability."""
    if kind in (UfnKind.SOURCE_HEAVY, UfnKind.UFN2):
        return (k + 1) * m * m / (1 << (n + 1))
    if kind is UfnKind.TARGET_HEAVY:
        return m * m / (1 << n)
    raise ValueError(f"no collision-event bound for kind {kind.value!r}")


def _adversarial_queries(spec: BadEventSpec) -> list[int]:
    # Worst case from the bound derivations: all queries share their
    # trailing blocks and differ in one leading block, so collisions hinge
    # entirely on fresh round-function outputs.
    varied = 1 if spec.kind is UfnKind.SOURCE_HEAVY else 0
    shift = (spec.k - varied) * spec.n
    return [v << shift for v in range(spec.m)]


def _uniform_queries(spec: BadEventSpec, seed: int, trials: Lanes) -> list[Lanes]:
    """Query j < m of every trial as one ``Lanes`` per j; ``trials`` holds t+1 for trial
    t. The queries are m distinct uniform states: a uniform permutation's answers to m
    fresh queries, keyed by ``derive_seed("bad-event-queries", seed)``."""
    key = derive_seed("bad-event-queries", seed)
    return IdealPermutationOracle(spec.params.state_bits, key, trials).distinct(spec.m)


def bad_event_counts(spec: BadEventSpec, seed: int, start: int, count: int) -> int:
    """Trials in [start, start+count) whose watched rounds saw a collision.

    Each batch of ``bits.lane_batches`` goes through ``feistel._forward`` a round at a
    time up to the last watched round, its rounds keyed by ``feistel.splitmix_round_oracles``
    from S = ``derive_seed("bad-event-keys", seed)`` behind ``feistel.last_input_memo``, so
    a round input that consecutive queries share is evaluated once per batch. A trial hits
    when two of its m queries agree at a watched round on the watched value x & (2^p1 - 1):
    the low p1 = ``round_in_bits`` bits of the state, the next round's function input.
    """
    params = spec.params
    mask = (1 << params.round_in_bits) - 1
    fixed = _adversarial_queries(spec) if spec.shaping == "adversarial" else None
    master = derive_seed("bad-event-keys", seed)
    hits = 0
    for trials in lane_batches(start, count):
        lanes = trials.count
        seen = {rd: bytearray() for rd in spec.rounds_watched}
        rounds = last_input_memo(splitmix_round_oracles(params, master, trials)[: max(seen)])
        reused = None
        for x in fixed or _uniform_queries(spec, seed, trials):
            for rd, f in enumerate(rounds, 1):
                x = _forward(params, f, x)
                if rd in seen:
                    packed = memoryview((x & mask).value.to_bytes(16 * lanes, "little")).cast("Q")
                    seen[rd] += packed[::2].tobytes()  # each lane's 8 value bytes
            # The first query spreads every constant the rounds reuse; an int query
            # after it only adds its own one-use spreads (x·γ, varied block): drop them.
            reused = reused or len(trials.spreads)
            while len(trials.spreads) > reused:
                trials.spreads.popitem()
        # Query j of trial t is word j * lanes + t; any byte order keeps equality.
        words = [memoryview(values).cast("Q") for values in seen.values()]
        hits += sum(any(len(set(w[t::lanes])) < spec.m for w in words) for t in range(lanes))
    return hits


@dataclass(frozen=True)
class BadProbReport:
    """Collision-event frequency with a Wilson 95% half-width, against its bound.

    The check fails when the empirical rate exceeds the closed-form bound by
    more than three half-widths.
    """

    spec: BadEventSpec
    hits: int
    trials: int
    seed: int

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")

    @property
    def bound(self) -> float:
        return self.spec.bound

    @cached_property
    def empirical(self) -> float:
        return self.hits / self.trials

    @cached_property
    def ci_halfwidth(self) -> float:
        return wilson_halfwidth(self.hits, self.trials)

    @cached_property
    def passed(self) -> bool:
        return self.empirical <= self.bound + 3 * self.ci_halfwidth

    def failure_message(self) -> str:
        return (
            f"empirical collision rate {self.empirical:.6f} exceeds bound {self.bound:.6f} "
            f"plus 3 half-widths ({3 * self.ci_halfwidth:.6f})"
        )

    def to_json_dict(self) -> dict:
        spec = self.spec
        return {
            "kind": spec.kind.value,
            "n": spec.n,
            "k": spec.k,
            "m": spec.m,
            "trials": self.trials,
            "seed": self.seed,
            "shaping": spec.shaping,
            "watched_rounds": list(spec.rounds_watched),
            "bound": self.bound,
            "empirical": self.empirical,
            "ci": self.ci_halfwidth,
        }


def estimate_bad_prob(spec: BadEventSpec, trials: int, seed: int, jobs: int = 1) -> BadProbReport:
    """Collision-event frequency over trials [0, trials) against its bound, in up to
    ``jobs`` processes (``bits.run_chunks``)."""
    hits = sum(run_chunks(bad_event_counts, (spec, seed), trials, jobs))
    return BadProbReport(spec, hits, trials, seed)


@dataclass(frozen=True)
class Gf2Matrix:
    """Square bit matrix; each row is an integer, leftmost column = MSB."""

    size: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("size must be >= 1")
        if len(self.rows) != self.size:
            raise ValueError(f"expected {self.size} rows, got {len(self.rows)}")
        if any(not 0 <= row < (1 << self.size) for row in self.rows):
            raise ValueError("row does not fit the matrix size")


def build_ufn2_matrix(k: int) -> Gf2Matrix:
    """(k+1) x (k+1) all-ones matrix with zeros on the anti-diagonal.

    This is the matrix carrying the last k+1 fresh round-function values to
    the output blocks of the widened structure; row i is zero exactly in
    column k-i.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    size = k + 1
    full = (1 << size) - 1
    return Gf2Matrix(size, tuple(full ^ (1 << i) for i in range(size)))


def gf2_nonsingular(matrix: Gf2Matrix) -> bool:
    """Full-rank test by elimination with row XOR and interchange only."""
    rows = list(matrix.rows)
    size = matrix.size
    rank = 0
    for col_bit in reversed(range(size)):
        pivot = None
        for r in range(rank, size):
            if (rows[r] >> col_bit) & 1:
                pivot = r
                break
        if pivot is None:
            return False
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(size):
            if r != rank and ((rows[r] >> col_bit) & 1):
                rows[r] ^= rows[rank]
        rank += 1
    return True


def uniformity_counts(params: UfnParams, seed: object, start: int, count: int) -> list[int]:
    """Histogram of outputs at the all-zero input over trials [start, start+count).

    Trial t keys its own ``params.r``-round instance from counters alone, by
    ``feistel.splitmix_round_oracles`` from S = ``derive_seed("uniformity-keys", seed)``.
    A key depends only on the absolute trial index, so any split of the trials
    gives the same summed histogram. All trials of a batch go through
    ``feistel._forward`` together as numpy ``uint64`` arrays, at most
    ``_UNIFORMITY_BATCH`` at a time; states wider than
    ``_MAX_UNIFORMITY_STATE_BITS`` are refused before any trial.
    """
    import numpy as np

    if params.state_bits > _MAX_UNIFORMITY_STATE_BITS:
        raise ValueError(
            f"state space of {params.state_bits} bits is too large to bin "
            f"(max {_MAX_UNIFORMITY_STATE_BITS})"
        )
    master = derive_seed("uniformity-keys", seed)
    bins = np.zeros(1 << params.state_bits, dtype=np.int64)
    end = start + count
    for lo in range(start, end, _UNIFORMITY_BATCH):
        hi = min(lo + _UNIFORMITY_BATCH, end)
        trials = np.arange(lo + 1, hi + 1, dtype=np.uint64)
        x = np.zeros(hi - lo, dtype=np.uint64)
        for f in splitmix_round_oracles(params, master, trials):
            x = _forward(params, f, x)
        bins += np.bincount(x.astype(np.intp), minlength=bins.size)
    return bins.tolist()


@dataclass(frozen=True)
class UniformityReport:
    """Chi-square goodness-of-fit of an output histogram against uniform.

    The check passes when the statistic stays below the critical value.
    """

    params: UfnParams
    bins: list[int]
    seed: int
    significance: float = 0.01

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")

    @cached_property
    def trials(self) -> int:
        return sum(self.bins)

    @cached_property
    def dof(self) -> int:
        return len(self.bins) - 1

    @cached_property
    def statistic(self) -> float:
        return chi_square_statistic(self.bins)

    @cached_property
    def critical_value(self) -> float:
        return chi_square_critical(self.dof, self.significance)

    @cached_property
    def passed(self) -> bool:
        return self.statistic < self.critical_value

    def failure_message(self) -> str:
        return (
            f"chi-square statistic {self.statistic:.2f} exceeds the {self.significance} "
            f"critical value {self.critical_value:.2f} at {self.dof} dof"
        )

    def to_json_dict(self) -> dict:
        params = self.params
        return {
            "kind": params.kind.value,
            "n": params.n,
            "k": params.k,
            "rounds": params.r,
            "trials": self.trials,
            "seed": self.seed,
            "dof": self.dof,
            "statistic": self.statistic,
            "critical": self.critical_value,
            "significance": self.significance,
            "passed": self.passed,
        }


def conditional_uniformity_check(
    params: UfnParams, trials: int, seed: int, significance: float = 0.01, jobs: int = 1
) -> UniformityReport:
    """Chi-square uniformity of outputs over trials [0, trials), in up to ``jobs``
    processes (``bits.run_chunks``).

    Each trial keys a fresh instance and contributes one output. A lone query
    admits no cross-query collision, so the conditioning event is vacuous and
    no trial is discarded. A significance outside (0, 1) raises ValueError
    before any trial runs.
    """
    if not 0.0 < significance < 1.0:
        raise ValueError(f"significance must lie in (0, 1), got {significance}")
    parts = run_chunks(uniformity_counts, (params, seed), trials, jobs)
    bins = [sum(column) for column in zip(*parts)]
    return UniformityReport(params, bins, seed, significance)
