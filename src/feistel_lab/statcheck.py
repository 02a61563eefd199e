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
    """Which structure, which rounds to watch, and how many queries."""

    kind: UfnKind
    rounds_watched: tuple[int, ...]
    m: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("query count m must be >= 1")

    @classmethod
    def for_structure(cls, kind: UfnKind, k: int, m: int) -> "BadEventSpec":
        return cls(kind=kind, rounds_watched=watched_rounds(kind, k), m=m)


def bad_event_bound(kind: UfnKind, n: int, k: int, m: int) -> float:
    """Closed-form upper bound on the collision-event probability."""
    if kind in (UfnKind.SOURCE_HEAVY, UfnKind.UFN2):
        return (k + 1) * m * m / (1 << (n + 1))
    if kind is UfnKind.TARGET_HEAVY:
        return m * m / (1 << n)
    raise ValueError(f"no collision-event bound for kind {kind.value!r}")


def _shaped_queries(
    kind: UfnKind, n: int, k: int, m: int, shaping: str, seed: int
) -> list[BitString]:
    width = (k + 1) * n
    if shaping == "adversarial":
        # Worst case from the bound derivations: all queries share their
        # trailing blocks and differ in one leading block, so collisions
        # hinge entirely on fresh round-function outputs.
        if m > (1 << n):
            raise ValueError(f"m={m} exceeds the 2^{n} distinct values of the varied block")
        varied = 1 if kind is UfnKind.SOURCE_HEAVY else 0
        shift = (k - varied) * n
        return [BitString(width, v << shift) for v in range(m)]
    if shaping == "uniform":
        if m > (1 << width):
            raise ValueError(f"m={m} exceeds the 2^{width} distinct states")
        gen = FastBitGenerator(seed)
        seen: set[int] = set()
        queries = []
        while len(queries) < m:
            v = gen.next_int(width)
            if v not in seen:
                seen.add(v)
                queries.append(BitString(width, v))
        return queries
    raise ValueError(f"unknown shaping {shaping!r}; expected 'adversarial' or 'uniform'")


def bad_event_counts(
    spec: BadEventSpec,
    n: int,
    k: int,
    seed: int,
    start: int,
    count: int,
    shaping: str = "adversarial",
) -> int:
    """Trials in [start, start+count) whose watched rounds saw a collision."""
    params = UfnParams(spec.kind, n, k, secure_rounds(spec.kind, k))
    source_heavy = spec.kind is UfnKind.SOURCE_HEAVY
    hits = 0
    for t in range(start, start + count):
        perm = ideal_ufn(params, derive_seed(seed, "trial", t))
        queries = _shaped_queries(spec.kind, n, k, spec.m, shaping, derive_seed(seed, "queries", t))
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
    n: int
    k: int
    trials: int
    hits: int
    empirical: float
    ci_halfwidth: float
    bound: float
    shaping: str
    seed: int

    @classmethod
    def from_counts(
        cls, spec: BadEventSpec, n: int, k: int, hits: int, trials: int, seed: int,
        shaping: str = "adversarial",
    ) -> "BadProbReport":
        if trials < 1:
            raise ValueError("trials must be >= 1")
        return cls(
            spec=spec,
            n=n,
            k=k,
            trials=trials,
            hits=hits,
            empirical=hits / trials,
            ci_halfwidth=wilson_halfwidth(hits, trials),
            bound=bad_event_bound(spec.kind, n, k, spec.m),
            shaping=shaping,
            seed=seed,
        )

    @property
    def passed(self) -> bool:
        return self.empirical <= self.bound + 3 * self.ci_halfwidth

    def failure_message(self) -> str:
        return (
            f"empirical collision rate {self.empirical:.6f} exceeds bound {self.bound:.6f} "
            f"plus 3 half-widths ({3 * self.ci_halfwidth:.6f})"
        )

    def to_json_dict(self) -> dict:
        return {
            "kind": self.spec.kind.value,
            "n": self.n,
            "k": self.k,
            "m": self.spec.m,
            "trials": self.trials,
            "seed": self.seed,
            "shaping": self.shaping,
            "watched_rounds": list(self.spec.rounds_watched),
            "bound": self.bound,
            "empirical": self.empirical,
            "ci": self.ci_halfwidth,
        }


def estimate_bad_prob(
    spec: BadEventSpec,
    n: int,
    k: int,
    trials: int,
    seed: int,
    shaping: str = "adversarial",
) -> BadProbReport:
    """Collision-event frequency over trials [0, trials) against its bound."""
    hits = bad_event_counts(spec, n, k, seed, 0, trials, shaping)
    return BadProbReport.from_counts(spec, n, k, hits, trials, seed, shaping)


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


def uniformity_counts(
    kind: UfnKind, n: int, k: int, r: int, seed: object, start: int, count: int
) -> list[int]:
    """Histogram of outputs at the all-zero input over trials [start, start+count).

    Trial t keys its own r-round instance from counters alone: with
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

    params = UfnParams(kind, n, k, r)
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
        for i in range(r):
            f = _SplitMixRound(_splitmix(trial_keys, i + 1), params.round_out_bits)
            blocks = _forward(params, f, blocks)
        outputs = join_blocks(blocks, n).astype(np.intp)
        bins += np.bincount(outputs, minlength=bins.size)
    return bins.tolist()


@dataclass(frozen=True)
class UniformityReport:
    """Chi-square goodness-of-fit of an output histogram against uniform.

    The check passes when the statistic stays below the critical value.
    """

    kind: UfnKind
    n: int
    k: int
    r: int
    trials: int
    seed: int
    dof: int
    statistic: float
    critical_value: float
    significance: float

    @classmethod
    def from_counts(
        cls, kind: UfnKind, n: int, k: int, r: int, bins: list[int], seed: int,
        significance: float = 0.01,
    ) -> "UniformityReport":
        dof = len(bins) - 1
        return cls(
            kind=kind,
            n=n,
            k=k,
            r=r,
            trials=sum(bins),
            seed=seed,
            dof=dof,
            statistic=chi_square_statistic(bins),
            critical_value=chi_square_critical(dof, significance),
            significance=significance,
        )

    @property
    def passed(self) -> bool:
        return self.statistic < self.critical_value

    def failure_message(self) -> str:
        return (
            f"chi-square statistic {self.statistic:.2f} exceeds the {self.significance} "
            f"critical value {self.critical_value:.2f} at {self.dof} dof"
        )

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "n": self.n,
            "k": self.k,
            "rounds": self.r,
            "trials": self.trials,
            "seed": self.seed,
            "dof": self.dof,
            "statistic": self.statistic,
            "critical": self.critical_value,
            "significance": self.significance,
            "passed": self.passed,
        }


def conditional_uniformity_check(
    kind: UfnKind,
    n: int,
    k: int,
    r: int,
    trials: int,
    seed: int,
    significance: float = 0.01,
) -> UniformityReport:
    """Chi-square uniformity of outputs over trials [0, trials).

    Each trial keys a fresh instance and contributes one output. A lone query
    admits no cross-query collision, so the conditioning event is vacuous and
    no trial is discarded. A significance outside (0, 1) raises ValueError
    before any trial runs.
    """
    if not 0.0 < significance < 1.0:
        raise ValueError(f"significance must lie in (0, 1), got {significance}")
    bins = uniformity_counts(kind, n, k, r, seed, 0, trials)
    return UniformityReport.from_counts(kind, n, k, r, bins, seed, significance)
