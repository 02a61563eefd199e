import math

import pytest

from feistel_lab.bench import (
    ALL_KINDS,
    BenchConfig,
    coarse_memory_bits,
    report_csv,
    run_bench,
    structure_profile,
)
from feistel_lab.feistel import UfnKind


def by_kind(report):
    return {s.kind: s for s in report.structures}


def test_profiles_at_n4_k2():
    rows = {
        UfnKind.BALANCED: (3, 6, 6),
        UfnKind.SOURCE_HEAVY: (4, 8, 4),
        UfnKind.TARGET_HEAVY: (4, 4, 8),
        UfnKind.UFN2: (5, 4, 4),
    }
    for kind, (rounds, p1, p2) in rows.items():
        profile = structure_profile(kind, 4, 2)
        assert (profile.r, profile.round_in_bits, profile.round_out_bits) == (rounds, p1, p2)
        assert profile.state_bits == 12


def test_balanced_profile_needs_even_state():
    with pytest.raises(ValueError):
        structure_profile(UfnKind.BALANCED, 3, 2)


def test_default_ell_divides_every_round_count():
    cfg = BenchConfig(n=4, k=2, prf_mode="ggm", workload=0, seed=1)
    ell = cfg.resolved_ell()
    assert ell == 64 * math.lcm(3, 4, 4, 5)
    for kind in ALL_KINDS:
        assert ell % structure_profile(kind, 4, 2).r == 0


def test_explicit_ell_must_divide():
    cfg = BenchConfig(n=4, k=2, prf_mode="ggm", workload=0, seed=1, ell=64)
    with pytest.raises(ValueError):
        cfg.resolved_ell()


def test_memoized_exhaustion_matches_formula():
    report = run_bench(BenchConfig(n=4, k=2, prf_mode="memoized", workload=8, seed=2))
    for s in report.structures:
        assert s.exhausted
        assert s.measured_table_bits == s.rounds * (1 << s.p1) * s.p2
        assert s.analytic_table_bits == s.measured_table_bits


def test_memoized_zero_workload():
    report = run_bench(BenchConfig(n=4, k=2, prf_mode="memoized", workload=0, seed=3,
                                   analytic=True))
    for s in report.structures:
        assert s.workload_table_bits == 0
        assert s.seconds_per_encryption == 0.0
        assert s.measured_table_bits is None


def test_memoized_ordering_and_ratios():
    report = run_bench(BenchConfig(n=4, k=2, prf_mode="memoized", workload=0, seed=4,
                                   analytic=True))
    rows = by_kind(report)
    bits = {kind: rows[kind].analytic_table_bits for kind in rows}
    assert max(bits, key=bits.get) is UfnKind.SOURCE_HEAVY
    assert min(bits, key=bits.get) is UfnKind.UFN2
    ratios = [s.memory_ratio for s in report.structures]
    assert min(ratios) == 1.0
    assert all(r >= 1.0 for r in ratios)


def test_coarse_memory_ratio_example():
    # n=4, k=3: the coarse source-heavy / widened ratio collapses to
    # 2^((k-1)n) = 256.
    src = coarse_memory_bits(UfnKind.SOURCE_HEAVY, 4, 3)
    ufn2 = coarse_memory_bits(UfnKind.UFN2, 4, 3)
    assert src // ufn2 == 2 ** ((3 - 1) * 4) == 256


def test_ggm_counter_matches_formula_exactly():
    report = run_bench(BenchConfig(n=4, k=2, prf_mode="ggm", workload=8, seed=5))
    for s in report.structures:
        per_round_key = report.ell // s.rounds
        expected = (2 * s.p1 * per_round_key + s.p2) * s.rounds
        assert s.analytic_prbg_bits == expected
        assert s.measured_prbg_bits == expected


def test_ggm_ordering():
    report = run_bench(BenchConfig(n=4, k=2, prf_mode="ggm", workload=4, seed=6))
    rows = by_kind(report)
    bits = {kind: rows[kind].analytic_prbg_bits for kind in rows}
    assert max(bits, key=bits.get) is UfnKind.SOURCE_HEAVY
    fastest_two = sorted(bits, key=bits.get)[:2]
    assert set(fastest_two) == {UfnKind.TARGET_HEAVY, UfnKind.UFN2}


def test_ggm_source_to_ufn2_ratio_is_about_k():
    for k in (2, 3):
        report = run_bench(BenchConfig(n=4, k=k, prf_mode="ggm", workload=0, seed=7))
        rows = by_kind(report)
        ratio = rows[UfnKind.SOURCE_HEAVY].analytic_prbg_bits / rows[UfnKind.UFN2].analytic_prbg_bits
        assert abs(ratio - k) / k < 0.05


def test_ggm_zero_workload_reports_analytic_only():
    report = run_bench(BenchConfig(n=4, k=2, prf_mode="ggm", workload=0, seed=8))
    for s in report.structures:
        assert s.measured_prbg_bits is None
        assert s.analytic_prbg_bits is not None


def test_csv_mirror():
    report = run_bench(BenchConfig(n=4, k=2, prf_mode="memoized", workload=4, seed=10))
    text = report_csv(report)
    lines = text.strip().splitlines()
    assert lines[0].startswith("structure,rounds,")
    assert len(lines) == 5
    assert any(line.startswith("ufn2,5,") for line in lines)


def test_json_dict_excludes_wall_clock():
    report = run_bench(BenchConfig(n=4, k=2, prf_mode="memoized", workload=4, seed=11))
    payload = report.to_json_dict()
    assert "structures" in payload
    for row in payload["structures"]:
        assert "seconds_per_encryption" not in row


def test_config_validation():
    with pytest.raises(ValueError):
        BenchConfig(n=4, k=2, prf_mode="mystery", workload=1, seed=1)
    with pytest.raises(ValueError):
        BenchConfig(n=4, k=2, prf_mode="ggm", workload=-1, seed=1)
    for ell in (0, -60):
        with pytest.raises(ValueError, match="ell"):
            BenchConfig(n=4, k=2, prf_mode="ggm", workload=1, seed=1, ell=ell)
