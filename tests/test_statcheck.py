import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from feistel_lab import statcheck
from feistel_lab.bits import BitString
from feistel_lab.feistel import UfnKind, UfnParams, UfnPermutation
from feistel_lab.prbg import derive_seed
from feistel_lab.prf import CallableOracle
from feistel_lab.statcheck import (
    BadEventSpec,
    BadProbReport,
    Gf2Matrix,
    UniformityReport,
    bad_event_bound,
    build_ufn2_matrix,
    conditional_uniformity_check,
    estimate_bad_prob,
    gf2_nonsingular,
    secure_rounds,
    uniformity_counts,
    watched_rounds,
)
from feistel_lab.stats import chi_square_critical


def det_cofactor(rows):
    """Independent determinant oracle over GF(2): cofactor expansion
    (signs vanish mod 2)."""
    size = len(rows)
    if size == 1:
        return rows[0][0]
    total = 0
    for j in range(size):
        if rows[0][j]:
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            total ^= det_cofactor(minor)
    return total


def test_matrix_k1_is_identity():
    assert build_ufn2_matrix(1).to_lists() == [[1, 0], [0, 1]]
    assert gf2_nonsingular(build_ufn2_matrix(1))


def test_matrix_k2_explicit_and_singular():
    m = build_ufn2_matrix(2)
    assert m.to_lists() == [[1, 1, 0], [1, 0, 1], [0, 1, 1]]
    # row0 ^ row1 == row2 pins the dependency directly.
    assert m.rows[0] ^ m.rows[1] == m.rows[2]
    assert not gf2_nonsingular(m)


def test_matrix_k3_nonsingular_by_oracle():
    m = build_ufn2_matrix(3)
    assert det_cofactor(m.to_lists()) == 1
    assert gf2_nonsingular(m)


def test_matrix_row_sums():
    for k in range(1, 9):
        m = build_ufn2_matrix(k)
        for i in range(k + 1):
            assert sum(m.to_lists()[i]) == k


def test_nonsingular_iff_odd_k():
    for k in range(1, 17):
        assert gf2_nonsingular(build_ufn2_matrix(k)) == (k % 2 == 1), k


def test_elimination_agrees_with_cofactor_oracle():
    rng = random.Random(99)
    for _ in range(500):
        m = Gf2Matrix(5, tuple(rng.getrandbits(5) for _ in range(5)))
        assert gf2_nonsingular(m) == (det_cofactor(m.to_lists()) == 1)


def test_gf2_matrix_validation():
    with pytest.raises(ValueError):
        Gf2Matrix(2, (1,))
    with pytest.raises(ValueError):
        Gf2Matrix(2, (4, 1))
    with pytest.raises(ValueError):
        Gf2Matrix.from_lists([[1, 0], [1]])
    with pytest.raises(ValueError):
        build_ufn2_matrix(0)


def test_gf2_matrix_round_trip():
    m = Gf2Matrix.from_lists([[1, 0, 1], [0, 1, 1], [1, 1, 0]])
    assert m.to_lists() == [[1, 0, 1], [0, 1, 1], [1, 1, 0]]
    assert m.entry(0, 0) == 1 and m.entry(0, 1) == 0


def test_watched_rounds_per_structure():
    assert watched_rounds(UfnKind.SOURCE_HEAVY, 2) == (1, 2, 3)
    assert watched_rounds(UfnKind.TARGET_HEAVY, 2) == (2, 3)
    assert watched_rounds(UfnKind.UFN2, 3) == (3, 4, 5, 6)
    with pytest.raises(ValueError):
        watched_rounds(UfnKind.BALANCED, 1)


def test_secure_rounds_per_structure():
    assert secure_rounds(UfnKind.BALANCED, 1) == 3
    assert secure_rounds(UfnKind.SOURCE_HEAVY, 2) == 4
    assert secure_rounds(UfnKind.TARGET_HEAVY, 3) == 5
    assert secure_rounds(UfnKind.UFN2, 3) == 7


def test_bound_values_by_substitution():
    assert bad_event_bound(UfnKind.SOURCE_HEAVY, 8, 2, 4) == 3 * 16 / 512 == 0.09375
    assert bad_event_bound(UfnKind.TARGET_HEAVY, 8, 2, 4) == 16 / 256 == 0.0625
    assert bad_event_bound(UfnKind.UFN2, 8, 3, 4) == 4 * 16 / 512
    with pytest.raises(ValueError):
        bad_event_bound(UfnKind.BALANCED, 8, 2, 4)


def test_bad_event_spec_derives_rounds_structure_and_bound():
    spec = BadEventSpec(UfnKind.UFN2, 4, 3, 4)
    assert spec.rounds_watched == (3, 4, 5, 6)
    assert spec.params == UfnParams(UfnKind.UFN2, 4, 3, 7)
    assert spec.bound == bad_event_bound(UfnKind.UFN2, 4, 3, 4)
    assert spec.shaping == "adversarial"


@pytest.mark.parametrize("args", [
    (UfnKind.BALANCED, 4, 1, 2),
    (UfnKind.UFN2, 0, 3, 2),
    (UfnKind.UFN2, 4, 0, 2),
    (UfnKind.TARGET_HEAVY, 2, 2, 65, "uniform"),
], ids=["balanced", "n0", "k0", "m-over-2^state"])
def test_bad_event_spec_is_checked_on_construction(args):
    with pytest.raises(ValueError):
        BadEventSpec(*args)


def test_single_query_never_collides():
    spec = BadEventSpec(UfnKind.SOURCE_HEAVY, 4, 2, 1)
    report = estimate_bad_prob(spec, trials=200, seed=1)
    assert report.empirical == 0.0


def test_bad_prob_below_bound_small_run():
    spec = BadEventSpec(UfnKind.SOURCE_HEAVY, 8, 2, 4)
    report = estimate_bad_prob(spec, trials=2000, seed=5)
    assert report.bound == 0.09375
    assert report.empirical <= report.bound + 3 * report.ci_halfwidth
    assert report.hits > 0  # the shaping actually provokes collisions


def test_bad_prob_uniform_shaping_also_below_bound():
    spec = BadEventSpec(UfnKind.TARGET_HEAVY, 4, 2, 4, shaping="uniform")
    report = estimate_bad_prob(spec, trials=1000, seed=6)
    assert report.spec.shaping == "uniform"
    assert report.empirical <= report.bound + 3 * report.ci_halfwidth


def test_bad_prob_rejects_oversized_m():
    with pytest.raises(ValueError):
        BadEventSpec(UfnKind.TARGET_HEAVY, 4, 2, 17)


def test_bad_prob_rejects_bad_args():
    with pytest.raises(ValueError):
        BadEventSpec(UfnKind.SOURCE_HEAVY, 4, 2, 0)
    spec = BadEventSpec(UfnKind.SOURCE_HEAVY, 4, 2, 2)
    with pytest.raises(ValueError):
        estimate_bad_prob(spec, trials=0, seed=1)
    with pytest.raises(ValueError):
        BadEventSpec(UfnKind.SOURCE_HEAVY, 4, 2, 2, shaping="weird")


def test_bad_prob_reproducible():
    spec = BadEventSpec(UfnKind.UFN2, 4, 3, 4)
    a = estimate_bad_prob(spec, trials=500, seed=7)
    b = estimate_bad_prob(spec, trials=500, seed=7)
    assert a == b


def test_uniformity_passes_at_secure_rounds():
    report = conditional_uniformity_check(UfnParams(UfnKind.SOURCE_HEAVY, 2, 2, 4), trials=20000,
                                          seed=11)
    assert report.passed
    assert report.dof == 63


def test_uniformity_fails_decisively_for_even_k():
    # The conserved XOR-sum confines outputs to a sixteenth of the space.
    report = conditional_uniformity_check(UfnParams(UfnKind.UFN2, 2, 2, 5), trials=5000, seed=12)
    assert not report.passed
    assert report.statistic > 10 * report.critical_value


def test_uniformity_rejects_large_state():
    with pytest.raises(ValueError):
        conditional_uniformity_check(UfnParams(UfnKind.SOURCE_HEAVY, 4, 3, 5), trials=10, seed=1)


def test_uniformity_rejects_bad_trials():
    with pytest.raises(ValueError):
        conditional_uniformity_check(UfnParams(UfnKind.SOURCE_HEAVY, 2, 2, 4), trials=0, seed=1)


def test_bad_prob_report_verdict_and_json():
    spec = BadEventSpec(UfnKind.SOURCE_HEAVY, 8, 2, 4)
    within = BadProbReport(spec, hits=90, trials=1000, seed=1)
    assert within.bound == 0.09375 and within.passed
    above = BadProbReport(spec, hits=300, trials=1000, seed=1)
    assert above.empirical > above.bound + 3 * above.ci_halfwidth
    assert not above.passed and "exceeds bound" in above.failure_message()
    payload = within.to_json_dict()
    assert set(payload) == {"kind", "n", "k", "m", "trials", "seed", "shaping",
                            "watched_rounds", "bound", "empirical", "ci"}
    assert payload["watched_rounds"] == [1, 2, 3] and payload["ci"] == within.ci_halfwidth
    with pytest.raises(ValueError):
        BadProbReport(spec, hits=0, trials=0, seed=1)


def test_uniformity_report_verdict_and_json():
    flat = UniformityReport(UfnParams(UfnKind.UFN2, 1, 1, 3), [25, 25, 25, 25], seed=2)
    assert (flat.trials, flat.dof, flat.statistic) == (100, 3, 0.0) and flat.passed
    skewed = UniformityReport(UfnParams(UfnKind.UFN2, 1, 1, 3), [100, 0, 0, 0], seed=2)
    assert skewed.statistic > skewed.critical_value and not skewed.passed
    assert "critical value" in skewed.failure_message()
    payload = skewed.to_json_dict()
    assert set(payload) == {"kind", "n", "k", "rounds", "trials", "seed", "dof",
                            "statistic", "critical", "significance", "passed"}
    assert payload["passed"] is False and payload["critical"] == skewed.critical_value


def test_uniformity_report_computes_each_value_once(monkeypatch):
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    for name in ("chi_square_statistic", "chi_square_critical"):
        monkeypatch.setattr(statcheck, name, counted(name, getattr(statcheck, name)))
    report = UniformityReport(UfnParams(UfnKind.UFN2, 1, 1, 3), [100, 0, 0, 0], seed=2)
    report.to_json_dict()
    assert not report.passed and report.failure_message()
    assert sorted(calls) == ["chi_square_critical", "chi_square_statistic"]


@pytest.mark.parametrize("significance", [0.0, 1.0, -0.5, 2.0, float("nan")])
def test_chi_square_critical_needs_significance_in_unit_interval(significance):
    with pytest.raises(ValueError):
        chi_square_critical(3, significance)


@pytest.mark.parametrize("significance", [0.0, 1.0, 2.0, float("nan")])
def test_uniformity_check_rejects_significance_before_any_trial(monkeypatch, significance):
    def no_trials(*_args):
        raise AssertionError("a trial loop started")

    monkeypatch.setattr(statcheck, "uniformity_counts", no_trials)
    with pytest.raises(ValueError, match="significance"):
        conditional_uniformity_check(UfnParams(UfnKind.SOURCE_HEAVY, 2, 2, 4), trials=20000,
                                     seed=1, significance=significance)


def test_chi_square_critical_matches_the_distribution_quantile():
    from scipy.stats import chi2

    dofs = np.concatenate([np.arange(1, 300), np.arange(511, 4096)])
    for significance in (1e-6, 1e-4, 0.001, 0.01, 0.05, 0.1, 0.5):
        expected = chi2.ppf(1.0 - significance, dofs)
        got = np.array([chi_square_critical(int(d), significance) for d in dofs])
        assert np.max(np.abs(got - expected) / expected) < 1e-10, significance


_M64 = (1 << 64) - 1


def _splitmix_scalar(s, j):
    """Reference SplitMix64 on Python ints: the finalizer of s + j * gamma."""
    z = (s + j * 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def _scalar_trial_output(params, seed, t):
    """Trial t of the uniformity check, one int at a time through UfnPermutation."""
    trial_key = _splitmix_scalar(derive_seed("uniformity-keys", seed), t + 1)
    shift = 64 - params.round_out_bits
    rounds = [
        CallableOracle(params.round_in_bits, params.round_out_bits,
                       lambda x, key=_splitmix_scalar(trial_key, i + 1):
                       _splitmix_scalar(key, x + 1) >> shift)
        for i in range(params.r)
    ]
    perm = UfnPermutation(params, rounds)
    return perm.encrypt(BitString(params.state_bits, 0)).value


def test_scalar_splitmix_reproduces_the_reference_stream():
    # SplitMix64 seeded with 0 starts 0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4.
    assert [_splitmix_scalar(0, j) for j in (1, 2)] == [0xE220A8397B1DCDAF,
                                                        0x6E789E6AA1B965F4]


@pytest.mark.parametrize("kind,n,k,r", [
    (UfnKind.BALANCED, 3, 1, 3),
    (UfnKind.BALANCED, 5, 1, 4),
    (UfnKind.SOURCE_HEAVY, 2, 3, 5),
    (UfnKind.SOURCE_HEAVY, 4, 2, 4),
    (UfnKind.TARGET_HEAVY, 2, 3, 5),
    (UfnKind.TARGET_HEAVY, 3, 3, 5),
    (UfnKind.UFN2, 2, 3, 7),
    (UfnKind.UFN2, 3, 2, 5),
])
def test_uniformity_counts_match_the_scalar_twin_bit_for_bit(kind, n, k, r):
    params = UfnParams(kind, n, k, r)
    seed = (31, kind.value)
    total = [0] * (1 << params.state_bits)
    for t in range(300):
        expected = [0] * (1 << params.state_bits)
        expected[_scalar_trial_output(params, seed, t)] = 1
        assert uniformity_counts(params, seed, t, 1) == expected, t
        total = [a + b for a, b in zip(total, expected)]
    assert uniformity_counts(params, seed, 0, 300) == total


def test_uniformity_counts_golden_histogram():
    assert uniformity_counts(UfnParams(UfnKind.BALANCED, 2, 1, 3), 5, 0, 100) == [
        6, 5, 6, 7, 7, 5, 4, 6, 7, 3, 8, 14, 7, 5, 6, 4]


@settings(max_examples=40, deadline=None)
@given(
    kind=hs.sampled_from(list(UfnKind)),
    trials=hs.integers(1, 300),
    cuts=hs.lists(hs.integers(0, 300), max_size=6),
    batch=hs.integers(1, 40),
)
def test_uniformity_counts_add_up_over_any_split(kind, trials, cuts, batch):
    params = UfnParams(kind, 2, 1 if kind is UfnKind.BALANCED else 2, 3)
    whole = uniformity_counts(params, 23, 0, trials)
    bounds = sorted({0, trials, *(c % (trials + 1) for c in cuts)})
    with pytest.MonkeyPatch.context() as mp:
        # Small batches put batch boundaries inside and across the parts.
        mp.setattr(statcheck, "_UNIFORMITY_BATCH", batch)
        parts = [uniformity_counts(params, 23, lo, hi - lo)
                 for lo, hi in zip(bounds, bounds[1:])]
    assert [sum(column) for column in zip(*parts)] == whole
    assert sum(whole) == trials
