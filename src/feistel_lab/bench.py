"""Memory and throughput comparison of the permutation structures.

Two round-function realizations are profiled across the four structures at
their minimal secure round counts:

* ``memoized``: ideal rounds, each behind a memo table that this module keeps
  (``functools.cache`` on the round's ``eval_int``); memory is the stored
  payload, one P2-bit value per distinct round input, worst case
  r * 2^P1 * P2 bits once every round function has seen its whole domain.
* ``ggm``: keyed tree walks; memory is constant and the cost driver is the
  number of generator bits consumed, exactly (2*P1*l/r + P2)*r per
  encryption for an l-bit master key split across r rounds.

All structures in one comparison share the same total key budget l, as the
cost model assumes; per-round keys get l/r bits. Bit counts are
machine-independent; wall-clock numbers are reported for orientation only.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from dataclasses import dataclass

from .bits import BitString
from .feistel import UfnKind, UfnParams, UfnPermutation, ggm_ufn, ideal_ufn, secure_rounds
from .prbg import derive_seed, state_stream

__all__ = [
    "structure_profile",
    "BenchConfig",
    "StructureReport",
    "BenchReport",
    "run_bench",
    "report_csv",
]

ALL_KINDS = (UfnKind.BALANCED, UfnKind.SOURCE_HEAVY, UfnKind.TARGET_HEAVY, UfnKind.UFN2)

# Exhausting the state domain is cheap up to this many state bits, and no
# round's table then passes 2^14 entries.
_EXHAUST_STATE_BITS = 14


def structure_profile(kind: UfnKind, n: int, k: int) -> UfnParams:
    """Structure ``kind`` on the shared (k+1)n-bit state at its secure round count.

    The balanced structure splits that state into two halves, so (k+1)n must
    be even for it.
    """
    if kind is UfnKind.BALANCED:
        state = (k + 1) * n
        if state % 2 != 0:
            raise ValueError(f"balanced structure needs an even state width, got {state}")
        n, k = state // 2, 1
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
    lcm of the round counts so every split is exact. A memoized run that is
    not ``analytic`` goes on to encrypt the whole state domain on the same
    permutation when the state has at most 14 bits, and reports the size of
    the full tables.
    """

    n: int
    k: int
    prf_mode: str
    workload: int
    seed: int
    ell: int | None = None
    analytic: bool = False

    def __post_init__(self) -> None:
        if self.prf_mode not in ("memoized", "ggm"):
            raise ValueError("prf_mode must be 'memoized' or 'ggm'")
        if self.workload < 0:
            raise ValueError("workload must be >= 0")
        if self.ell is not None and self.ell < 1:
            raise ValueError("ell must be >= 1")

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
        """Every field, except the wall-clock timings, which would make seeded
        output differ from run to run."""
        rows = []
        for s in self.structures:
            row = dict(vars(s), kind=s.kind.value)
            del row["seconds_per_encryption"]
            rows.append(row)
        return dict(vars(self), structures=rows)


def _memoized_ufn(params: UfnParams, seed: int) -> UfnPermutation:
    """``ideal_ufn`` with each round's ``eval_int`` behind a memo table."""
    perm = ideal_ufn(params, seed)
    for f in perm.rounds:
        f.eval_int = functools.cache(f.eval_int)
    return perm


def _table_payload_bits(perm: UfnPermutation) -> int:
    """Stored payload of the memo tables: one out_bits value per distinct round input."""
    return sum(f.eval_int.cache_info().currsize * f.out_bits for f in perm.rounds)


def _ggm_bits(perm: UfnPermutation) -> int:
    return sum(f.bits_generated for f in perm.rounds)


def _workload_inputs(params: UfnParams, workload: int) -> list[BitString]:
    domain = 1 << params.state_bits
    return [BitString(params.state_bits, t % domain) for t in range(workload)]


def _bench_memoized(params: UfnParams, cfg: BenchConfig) -> tuple[int | None, int, float]:
    """Returns (exhausted payload bits or None, workload payload bits,
    seconds per encryption)."""
    perm = _memoized_ufn(params, derive_seed(cfg.seed, "bench", params.kind.value))
    inputs = _workload_inputs(params, cfg.workload)
    started = time.perf_counter()
    for x in inputs:
        perm.encrypt(x)
    elapsed = time.perf_counter() - started
    per_encryption = elapsed / cfg.workload if cfg.workload else 0.0
    workload_bits = _table_payload_bits(perm)

    if cfg.analytic or params.state_bits > _EXHAUST_STATE_BITS:
        return None, workload_bits, per_encryption
    for v in range(1 << params.state_bits):  # every round input now reaches every table
        perm.encrypt(BitString(params.state_bits, v))
    return _table_payload_bits(perm), workload_bits, per_encryption


def _bench_ggm(
    params: UfnParams, cfg: BenchConfig, ell: int
) -> tuple[int | None, float]:
    """Returns (measured bits per encryption or None, seconds per encryption)."""
    salt = derive_seed(cfg.seed, "master", params.kind.value)
    master = BitString(ell, state_stream(0, ell, salt)(0))
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


def _ratios(name: str, costs: list[int]) -> list[float]:
    """Each cost over the least; a ratio past the float range is refused."""
    try:
        return [cost / min(costs) for cost in costs]
    except OverflowError:
        raise ValueError(f"{name} reaches 2^{(max(costs) // min(costs)).bit_length() - 1}, "
                         "which does not fit a float") from None


def _check_printable(cfg: BenchConfig, rows: list[StructureReport]) -> None:
    """Refuse a figure whose decimal text passes Python's int-to-str digit limit
    (``sys.get_int_max_str_digits()``, 0 for none): neither JSON nor CSV could write it."""
    digits = sys.get_int_max_str_digits()
    for row in rows:
        for name, value in vars(row).items():
            # 0 digits sets no limit; below 2^(3 digits) < 10^digits a value is short enough.
            if (digits and type(value) is int and value.bit_length() > 3 * digits
                    and value >= 10 ** digits):
                raise ValueError(f"{name} of {row.kind.value} at --n {cfg.n} --k {cfg.k} has "
                                 f"more than {digits} decimal digits, past the int-to-str limit")


def run_bench(cfg: BenchConfig) -> BenchReport:
    """Profile every structure kind, with ratios to the cheapest kind."""
    ell = cfg.resolved_ell()
    profiles = [structure_profile(kind, cfg.n, cfg.k) for kind in ALL_KINDS]
    memoized = cfg.prf_mode == "memoized"
    if memoized:
        tables = [p.r * (1 << p.round_in_bits) * p.round_out_bits for p in profiles]
        coarse = [coarse_memory_bits(p.kind, cfg.n, cfg.k) for p in profiles]
        units = [p.r * p.round_out_bits for p in profiles]
        memory_ratios = _ratios("memory_ratio", tables)
        coarse_ratios = _ratios("coarse_memory_ratio", coarse)
    else:
        units = [(2 * p.round_in_bits * (ell // p.r) + p.round_out_bits) * p.r
                 for p in profiles]
    time_ratios = _ratios("time_ratio", units)
    rows: list[StructureReport] = []
    for i, params in enumerate(profiles):
        shape = dict(kind=params.kind, rounds=params.r, p1=params.round_in_bits,
                     p2=params.round_out_bits, state_bits=params.state_bits,
                     time_units=units[i], time_ratio=time_ratios[i])
        if memoized:
            measured, workload_bits, per_enc = _bench_memoized(params, cfg)
            rows.append(
                StructureReport(
                    **shape,
                    analytic_table_bits=tables[i],
                    coarse_table_bits=coarse[i],
                    measured_table_bits=measured,
                    workload_table_bits=workload_bits,
                    exhausted=measured is not None,
                    seconds_per_encryption=per_enc,
                    memory_ratio=memory_ratios[i],
                    coarse_memory_ratio=coarse_ratios[i],
                )
            )
        else:
            measured, per_enc = _bench_ggm(params, cfg, ell)
            rows.append(
                StructureReport(
                    **shape,
                    analytic_prbg_bits=units[i],
                    measured_prbg_bits=measured,
                    coarse_prbg_bits=coarse_ggm_bits(params.kind, cfg.n, cfg.k, ell),
                    seconds_per_encryption=per_enc,
                )
            )
    _check_printable(cfg, rows)
    return BenchReport(
        mode=cfg.prf_mode,
        n=cfg.n,
        k=cfg.k,
        ell=ell,
        workload=cfg.workload,
        seed=cfg.seed,
        structures=tuple(rows),
    )


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
