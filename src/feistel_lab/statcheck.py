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

from .bits import BitString, join_blocks
from .feistel import UfnKind, UfnParams, _forward, ideal_ufn
from .prbg import FastBitGenerator, derive_seed
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


def secure_rounds(kind: UfnKind, k: int) -> int:
    """Minimal round count at which each structure stops being attackable."""
    if kind is UfnKind.BALANCED:
        return 3
    if kind in (UfnKind.SOURCE_HEAVY, UfnKind.TARGET_HEAVY):
        return k + 2
    return 2 * k + 1


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


def _shaped_queries(spec: BadEventSpec, seed: int) -> list[BitString]:
    width = spec.params.state_bits
    if spec.shaping == "adversarial":
        # Worst case from the bound derivations: all queries share their
        # trailing blocks and differ in one leading block, so collisions
        # hinge entirely on fresh round-function outputs.
        varied = 1 if spec.kind is UfnKind.SOURCE_HEAVY else 0
        shift = (spec.k - varied) * spec.n
        return [BitString(width, v << shift) for v in range(spec.m)]
    gen = FastBitGenerator(seed)
    seen: set[int] = set()
    queries = []
    while len(queries) < spec.m:
        v = gen.next_int(width)
        if v not in seen:
            seen.add(v)
            queries.append(BitString(width, v))
    return queries


def bad_event_counts(spec: BadEventSpec, seed: int, start: int, count: int) -> int:
    """Trials in [start, start+count) whose watched rounds saw a collision."""
    source_heavy = spec.kind is UfnKind.SOURCE_HEAVY
    hits = 0
    for t in range(start, start + count):
        perm = ideal_ufn(spec.params, derive_seed(seed, "trial", t))
        queries = _shaped_queries(spec, derive_seed(seed, "queries", t))
        seen: list[set] = [set() for _ in spec.rounds_watched]
        hit = False
        for q in queries:
            states = perm.trace_states(q)
            for j, rd in enumerate(spec.rounds_watched):
                value = states[rd][1:] if source_heavy else states[rd][-1]
                if value in seen[j]:
                    hit = True
                seen[j].add(value)
            if hit:
                break
        if hit:
            hits += 1
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


def estimate_bad_prob(spec: BadEventSpec, trials: int, seed: int) -> BadProbReport:
    """Collision-event frequency over trials [0, trials) against its bound."""
    return BadProbReport(spec, bad_event_counts(spec, seed, 0, trials), trials, seed)


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

    @classmethod
    def from_lists(cls, rows: list[list[int]]) -> "Gf2Matrix":
        size = len(rows)
        packed = []
        for row in rows:
            if len(row) != size:
                raise ValueError("matrix must be square")
            value = 0
            for bit in row:
                if bit not in (0, 1):
                    raise ValueError("entries must be 0 or 1")
                value = (value << 1) | bit
            packed.append(value)
        return cls(size, tuple(packed))

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> (self.size - 1 - j)) & 1

    def to_lists(self) -> list[list[int]]:
        return [[self.entry(i, j) for j in range(self.size)] for i in range(self.size)]


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


# SplitMix64 (Steele, Lea and Flood, OOPSLA 2014): the golden-gamma counter
# increment and the two multipliers of its finalizer.
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1
# Trials per array pass of uniformity_counts: bounds its memory at any trial count.
_UNIFORMITY_BATCH = 1 << 16


def _splitmix(s, j):
    """z(s, j) = SplitMix64 finalizer of (s + j * gamma) mod 2^64, elementwise.

    At least one of ``s`` and ``j`` is a numpy ``uint64`` array; a Python int
    multiple of gamma is reduced mod 2^64 before it meets the array, so every
    wrap happens inside array arithmetic, which wraps silently.
    """
    z = s + ((j * _GAMMA) & _MASK64)
    z = (z ^ (z >> 30)) * _MIX1
    z = (z ^ (z >> 27)) * _MIX2
    return z ^ (z >> 31)


class _SplitMixRound:
    """Round function x -> top ``out_bits`` bits of z(key, x + 1), on uint64 arrays.

    ``key`` holds one round key per trial, so ``feistel._forward`` runs a
    whole batch of independently keyed instances through one round at once.
    """

    def __init__(self, key, out_bits: int) -> None:
        self._key = key
        self._shift = 64 - out_bits

    def eval_int(self, x):
        return _splitmix(self._key, x + 1) >> self._shift


def uniformity_counts(params: UfnParams, seed: object, start: int, count: int) -> list[int]:
    """Histogram of outputs at the all-zero input over trials [start, start+count).

    Trial t keys its own ``params.r``-round instance from counters alone: with
    S = ``derive_seed("uniformity-keys", seed)``, its key is T_t = z(S, t+1),
    round i's key is K_i = z(T_t, i+1) and round i computes
    f_i(x) = z(K_i, x+1) >> (64 - out_bits), where z is ``_splitmix``. A key
    depends only on the absolute trial index, so any split of the trials
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
        trial_keys = _splitmix(master, np.arange(lo + 1, hi + 1, dtype=np.uint64))
        blocks = (np.zeros(hi - lo, dtype=np.uint64),) * params.block_count
        for i in range(params.r):
            f = _SplitMixRound(_splitmix(trial_keys, i + 1), params.round_out_bits)
            blocks = _forward(params, f, blocks)
        outputs = join_blocks(blocks, params.n).astype(np.intp)
        bins += np.bincount(outputs, minlength=bins.size)
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
    params: UfnParams, trials: int, seed: int, significance: float = 0.01
) -> UniformityReport:
    """Chi-square uniformity of outputs over trials [0, trials).

    Each trial keys a fresh instance and contributes one output. A lone query
    admits no cross-query collision, so the conditioning event is vacuous and
    no trial is discarded. A significance outside (0, 1) raises ValueError
    before any trial runs.
    """
    if not 0.0 < significance < 1.0:
        raise ValueError(f"significance must lie in (0, 1), got {significance}")
    bins = uniformity_counts(params, seed, 0, trials)
    return UniformityReport(params, bins, seed, significance)
