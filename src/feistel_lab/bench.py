"""Memory and throughput comparison of the permutation structures.

Two round-function realizations are profiled across the four structures at
their minimal secure round counts:

* ``memoized``: lazily sampled tables; memory is the stored payload, worst
  case r * 2^P1 * P2 bits once every round function has seen its whole
  domain.
* ``ggm``: keyed tree walks; memory is constant and the cost driver is the
  number of generator bits consumed, exactly (2*P1*l/r + P2)*r per
  encryption for an l-bit master key split across r rounds.

All structures in one comparison share the same total key budget l, as the
cost model assumes; per-round keys get l/r bits. Bit counts are
machine-independent; wall-clock numbers are reported for orientation only.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .bits import BitString
from .feistel import UfnKind, UfnParams, UfnPermutation, ggm_ufn, ideal_ufn
from .prbg import FastBitGenerator, derive_seed
from .prf import DEFAULT_TABLE_CAP, GgmFunctionOracle, IdealFunctionOracle
from .statcheck import secure_rounds

__all__ = [
    "structure_profile",
    "BenchConfig",
    "StructureReport",
    "BenchReport",
    "run_bench",
    "report_csv",
]

ALL_KINDS = (UfnKind.BALANCED, UfnKind.SOURCE_HEAVY, UfnKind.TARGET_HEAVY, UfnKind.UFN2)

# Exhausting the state domain is cheap up to this many state bits.
_AUTO_EXHAUST_STATE_BITS = 14


def structure_profile(kind: UfnKind, n: int, k: int) -> UfnParams:
    """Structure ``kind`` on the shared (k+1)n-bit state at its secure round count.

    The balanced structure splits that state into two halves, so (k+1)n must
    be even for it.
    """
    if kind is UfnKind.BALANCED:
        state = (k + 1) * n
        if state % 2 != 0:
            raise ValueError(f"balanced structure needs an even state width, got {state}")
        return UfnParams(UfnKind.BALANCED, state // 2, 1, 3)
    return UfnParams(kind, n, k, secure_rounds(kind, k))


def coarse_memory_bits(kind: UfnKind, n: int, k: int) -> int:
    """Order-of-magnitude memory figure that folds the round count into the
    block terms; kept alongside the exact per-round accounting for
    cross-checking."""
    if kind is UfnKind.BALANCED:
        return (1 << ((k + 1) * n // 2)) * k * n
    if kind is UfnKind.SOURCE_HEAVY:
        return (1 << (k * n)) * k * n
    if kind is UfnKind.TARGET_HEAVY:
        return (1 << n) * k * k * n
    return (1 << n) * k * n


def coarse_ggm_bits(kind: UfnKind, n: int, k: int, ell: int) -> int:
    """Dominant generator-bit figure for the tree-walk realization."""
    if kind is UfnKind.BALANCED:
        return k * n * ell
    if kind is UfnKind.SOURCE_HEAVY:
        return 2 * k * n * ell
    return 2 * n * ell


@dataclass(frozen=True)
class BenchConfig:
    """One benchmark run over every structure kind at shared (n, k).

    ``ell`` is the total key budget in bits, shared by every structure and
    split evenly across each structure's rounds; it defaults to 64 times the
    lcm of the round counts so every split is exact. ``exhaust`` controls
    whether memoized tables are filled over the whole domain (None = decide
    by state size).
    """

    n: int
    k: int
    prf_mode: str
    workload: int
    seed: int
    ell: int | None = None
    exhaust: bool | None = None
    table_cap: int = DEFAULT_TABLE_CAP

    def __post_init__(self) -> None:
        if self.prf_mode not in ("memoized", "ggm"):
            raise ValueError("prf_mode must be 'memoized' or 'ggm'")
        if self.workload < 0:
            raise ValueError("workload must be >= 0")

    def resolved_ell(self) -> int:
        rounds = [structure_profile(kind, self.n, self.k).r for kind in ALL_KINDS]
        if self.ell is None:
            return 64 * math.lcm(*rounds)
        for r in rounds:
            if self.ell % r != 0:
                raise ValueError(f"ell={self.ell} is not divisible by round count {r}")
        return self.ell


@dataclass(frozen=True)
class StructureReport:
    kind: UfnKind
    rounds: int
    p1: int
    p2: int
    state_bits: int
    # timing (informational; excluded from deterministic serializations)
    seconds_per_encryption: float
    # memoized mode
    analytic_table_bits: int | None = None
    coarse_table_bits: int | None = None
    coarse_matches_exact: bool | None = None
    measured_table_bits: int | None = None
    workload_table_bits: int | None = None
    exhausted: bool = False
    # ggm mode
    analytic_prbg_bits: int | None = None
    measured_prbg_bits: int | None = None
    coarse_prbg_bits: int | None = None
    # ratios on the analytic cost metric of the mode
    memory_ratio: float | None = None
    coarse_memory_ratio: float | None = None
    time_units: int | None = None
    time_ratio: float | None = None


@dataclass(frozen=True)
class BenchReport:
    mode: str
    n: int
    k: int
    ell: int
    workload: int
    seed: int
    structures: tuple[StructureReport, ...]

    def to_json_dict(self) -> dict:
        """Deterministic view: wall-clock timings are deliberately omitted."""
        rows = []
        for s in self.structures:
            rows.append(
                {
                    "kind": s.kind.value,
                    "rounds": s.rounds,
                    "p1": s.p1,
                    "p2": s.p2,
                    "state_bits": s.state_bits,
                    "analytic_table_bits": s.analytic_table_bits,
                    "coarse_table_bits": s.coarse_table_bits,
                    "coarse_matches_exact": s.coarse_matches_exact,
                    "measured_table_bits": s.measured_table_bits,
                    "workload_table_bits": s.workload_table_bits,
                    "exhausted": s.exhausted,
                    "analytic_prbg_bits": s.analytic_prbg_bits,
                    "measured_prbg_bits": s.measured_prbg_bits,
                    "coarse_prbg_bits": s.coarse_prbg_bits,
                    "memory_ratio": s.memory_ratio,
                    "coarse_memory_ratio": s.coarse_memory_ratio,
                    "time_units": s.time_units,
                    "time_ratio": s.time_ratio,
                }
            )
        return {
            "mode": self.mode,
            "n": self.n,
            "k": self.k,
            "ell": self.ell,
            "workload": self.workload,
            "seed": self.seed,
            "structures": rows,
        }


def _table_payload_bits(perm: UfnPermutation) -> int:
    return sum(
        f.payload_bits for f in perm.rounds if isinstance(f, IdealFunctionOracle)
    )


def _ggm_bits(perm: UfnPermutation) -> int:
    return sum(f.bits_generated for f in perm.rounds if isinstance(f, GgmFunctionOracle))


def _workload_inputs(params: UfnParams, workload: int) -> list[BitString]:
    domain = 1 << params.state_bits
    return [BitString(params.state_bits, t % domain) for t in range(workload)]


def _bench_memoized(
    params: UfnParams, cfg: BenchConfig
) -> tuple[int | None, int, bool, float]:
    """Returns (exhausted payload bits or None, workload payload bits,
    exhausted flag, seconds per encryption)."""
    perm = ideal_ufn(params, derive_seed(cfg.seed, "bench", params.kind.value),
                     max_entries=cfg.table_cap)
    inputs = _workload_inputs(params, cfg.workload)
    started = time.perf_counter()
    for x in inputs:
        perm.encrypt(x)
    elapsed = time.perf_counter() - started
    per_encryption = elapsed / cfg.workload if cfg.workload else 0.0
    workload_bits = _table_payload_bits(perm)

    exhaust = cfg.exhaust
    if exhaust is None:
        exhaust = params.state_bits <= _AUTO_EXHAUST_STATE_BITS
    if not exhaust:
        return None, workload_bits, False, per_encryption
    if (1 << params.round_in_bits) > cfg.table_cap:
        raise RuntimeError(
            f"exhausting a 2^{params.round_in_bits}-entry table exceeds the cap of "
            f"{cfg.table_cap}; rerun with exhaust=False (--analytic) to report "
            "the closed-form figure instead"
        )
    full = ideal_ufn(params, derive_seed(cfg.seed, "exhaust", params.kind.value),
                     max_entries=cfg.table_cap)
    for v in range(1 << params.state_bits):
        full.encrypt(BitString(params.state_bits, v))
    return _table_payload_bits(full), workload_bits, True, per_encryption


def _bench_ggm(
    params: UfnParams, cfg: BenchConfig, ell: int
) -> tuple[int | None, float]:
    """Returns (measured bits per encryption or None, seconds per encryption)."""
    master = FastBitGenerator(derive_seed(cfg.seed, "master", params.kind.value)).next_bits(ell)
    perm = ggm_ufn(params, master, mode="fast")
    inputs = _workload_inputs(params, cfg.workload)
    measured = None
    started = time.perf_counter()
    for x in inputs:
        before = _ggm_bits(perm)
        perm.encrypt(x)
        used = _ggm_bits(perm) - before
        measured = used if measured is None else max(measured, used)
    elapsed = time.perf_counter() - started
    per_encryption = elapsed / cfg.workload if cfg.workload else 0.0
    return measured, per_encryption


def run_bench(cfg: BenchConfig) -> BenchReport:
    """Profile every structure kind and attach row-relative ratios."""
    ell = cfg.resolved_ell()
    rows: list[StructureReport] = []
    for kind in ALL_KINDS:
        params = structure_profile(kind, cfg.n, cfg.k)
        r, p1, p2 = params.r, params.round_in_bits, params.round_out_bits
        shape = dict(kind=kind, rounds=r, p1=p1, p2=p2, state_bits=params.state_bits)
        if cfg.prf_mode == "memoized":
            analytic_table = r * (1 << p1) * p2
            coarse_table = coarse_memory_bits(kind, cfg.n, cfg.k)
            measured, workload_bits, exhausted, per_enc = _bench_memoized(params, cfg)
            rows.append(
                StructureReport(
                    **shape,
                    analytic_table_bits=analytic_table,
                    coarse_table_bits=coarse_table,
                    coarse_matches_exact=(coarse_table == analytic_table),
                    measured_table_bits=measured,
                    workload_table_bits=workload_bits,
                    exhausted=exhausted,
                    seconds_per_encryption=per_enc,
                    time_units=r * p2,
                )
            )
        else:
            analytic_prbg = (2 * p1 * (ell // r) + p2) * r
            measured, per_enc = _bench_ggm(params, cfg, ell)
            rows.append(
                StructureReport(
                    **shape,
                    analytic_prbg_bits=analytic_prbg,
                    measured_prbg_bits=measured,
                    coarse_prbg_bits=coarse_ggm_bits(kind, cfg.n, cfg.k, ell),
                    seconds_per_encryption=per_enc,
                    time_units=analytic_prbg,
                )
            )
    rows = _attach_ratios(rows, cfg.prf_mode)
    return BenchReport(
        mode=cfg.prf_mode,
        n=cfg.n,
        k=cfg.k,
        ell=ell,
        workload=cfg.workload,
        seed=cfg.seed,
        structures=tuple(rows),
    )


def _attach_ratios(rows: list[StructureReport], mode: str) -> list[StructureReport]:
    from dataclasses import replace

    out = list(rows)
    if mode == "memoized":
        base = min(r.analytic_table_bits for r in out)
        coarse_base = min(r.coarse_table_bits for r in out)
        out = [
            replace(
                r,
                memory_ratio=r.analytic_table_bits / base,
                coarse_memory_ratio=r.coarse_table_bits / coarse_base,
            )
            for r in out
        ]
    time_base = min(r.time_units for r in out)
    out = [replace(r, time_ratio=r.time_units / time_base) for r in out]
    return out


_CSV_HEADER = (
    "structure,rounds,p1,p2,memory_bits,memory_ratio,coarse_memory_bits,"
    "prbg_bits,time_units,time_ratio,seconds_per_encryption"
)


def report_csv(report: BenchReport) -> str:
    """CSV mirror of the comparison: one row per structure."""
    lines = [_CSV_HEADER]
    for s in report.structures:
        lines.append(
            ",".join(
                [
                    s.kind.value,
                    str(s.rounds),
                    str(s.p1),
                    str(s.p2),
                    "" if s.analytic_table_bits is None else str(s.analytic_table_bits),
                    "" if s.memory_ratio is None else f"{s.memory_ratio:g}",
                    "" if s.coarse_table_bits is None else str(s.coarse_table_bits),
                    "" if s.analytic_prbg_bits is None else str(s.analytic_prbg_bits),
                    "" if s.time_units is None else str(s.time_units),
                    "" if s.time_ratio is None else f"{s.time_ratio:g}",
                    f"{s.seconds_per_encryption:.9f}",
                ]
            )
        )
    return "\n".join(lines) + "\n"
