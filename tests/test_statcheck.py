import collections
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from feistel_lab import bits, statcheck, stats
from feistel_lab.bits import BitString, Lanes
from feistel_lab.feistel import UfnKind, UfnParams, ideal_ufn
from feistel_lab.prbg import FastBitGenerator, derive_seed
from feistel_lab.prf import SplitMixRound
from feistel_lab.statcheck import (
    BadEventSpec,
    BadProbReport,
    Gf2Matrix,
    UniformityReport,
    bad_event_bound,
    bad_event_counts,
    build_ufn2_matrix,
    conditional_uniformity_check,
    estimate_bad_prob,
    gf2_nonsingular,
    secure_rounds,
    uniformity_counts,
    watched_rounds,
)
from feistel_lab.stats import chi_square_critical
from scalar_twins import gf2_entry, gf2_from_lists, gf2_to_lists, scalar_perm, splitmix_scalar


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
    assert gf2_to_lists(build_ufn2_matrix(1)) == [[1, 0], [0, 1]]
    assert gf2_nonsingular(build_ufn2_matrix(1))


def test_matrix_k2_explicit_and_singular():
    m = build_ufn2_matrix(2)
    assert gf2_to_lists(m) == [[1, 1, 0], [1, 0, 1], [0, 1, 1]]
    # row0 ^ row1 == row2 pins the dependency directly.
    assert m.rows[0] ^ m.rows[1] == m.rows[2]
    assert not gf2_nonsingular(m)


def test_matrix_k3_nonsingular_by_oracle():
    m = build_ufn2_matrix(3)
    assert det_cofactor(gf2_to_lists(m)) == 1
    assert gf2_nonsingular(m)


def test_matrix_row_sums():
    for k in range(1, 9):
        m = build_ufn2_matrix(k)
        for i in range(k + 1):
            assert sum(gf2_to_lists(m)[i]) == k


def test_nonsingular_iff_odd_k():
    for k in range(1, 17):
        assert gf2_nonsingular(build_ufn2_matrix(k)) == (k % 2 == 1), k


def test_elimination_agrees_with_cofactor_oracle():
    rng = random.Random(99)
    for _ in range(500):
        m = Gf2Matrix(5, tuple(rng.getrandbits(5) for _ in range(5)))
        assert gf2_nonsingular(m) == (det_cofactor(gf2_to_lists(m)) == 1)


def test_gf2_matrix_validation():
    with pytest.raises(ValueError, match="size must be >= 1"):
        Gf2Matrix(0, ())
    with pytest.raises(ValueError):
        Gf2Matrix(2, (1,))
    with pytest.raises(ValueError):
        Gf2Matrix(2, (4, 1))
    with pytest.raises(ValueError):
        gf2_from_lists([[1, 0], [1]])
    with pytest.raises(ValueError):
        build_ufn2_matrix(0)


def test_gf2_matrix_round_trip():
    m = gf2_from_lists([[1, 0, 1], [0, 1, 1], [1, 1, 0]])
    assert gf2_to_lists(m) == [[1, 0, 1], [0, 1, 1], [1, 1, 0]]
    assert gf2_entry(m, 0, 0) == 1 and gf2_entry(m, 0, 1) == 0


@pytest.mark.parametrize("successes,trials,message", [
    (0, 0, "trials must be >= 1"),
    (-1, 5, r"successes must lie in \[0, trials\]"),
    (6, 5, r"successes must lie in \[0, trials\]"),
])
def test_wilson_interval_refuses_impossible_counts(successes, trials, message):
    with pytest.raises(ValueError, match=message):
        stats.wilson_interval(successes, trials)


def test_chi_square_statistic_needs_an_observation():
    with pytest.raises(ValueError, match="need at least one observation"):
        stats.chi_square_statistic([0, 0, 0])


def test_watched_rounds_per_structure():
    assert watched_rounds(UfnKind.SOURCE_HEAVY, 2) == (1, 2, 3)
    assert watched_rounds(UfnKind.TARGET_HEAVY, 2) == (2, 3)
    assert watched_rounds(UfnKind.UFN2, 3) == (3, 4, 5, 6)
    with pytest.raises(ValueError):
        watched_rounds(UfnKind.BALANCED, 1)


@pytest.mark.parametrize("k", range(1, 9))
@pytest.mark.parametrize("kind", [UfnKind.SOURCE_HEAVY, UfnKind.TARGET_HEAVY, UfnKind.UFN2],
                         ids=lambda kind: kind.value)
def test_the_last_watched_round_is_the_one_before_the_last(kind, k):
    # So the collision check never reads the final round's output and need not run it.
    assert max(watched_rounds(kind, k)) == secure_rounds(kind, k) - 1


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
    (UfnKind.UFN2, 17, 3, 2),
], ids=["balanced", "n0", "k0", "m-over-2^state", "state-over-64-bits"])
def test_bad_event_spec_is_checked_on_construction(args):
    with pytest.raises(ValueError, match="64-bit lane" if args[1] == 17 else None):
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


@pytest.mark.parametrize(("dof", "significance"), [
    *(pytest.param(3, s, id=str(s)) for s in (0.0, 1.0, -0.5, 2.0, float("nan"))),
    *(pytest.param(dof, 0.05, id=f"dof{dof}") for dof in (0, -1)),
])
def test_chi_square_critical_needs_significance_in_unit_interval(dof, significance):
    with pytest.raises(ValueError):
        chi_square_critical(dof, significance)


@pytest.mark.parametrize("significance", [0.0, 1.0, 2.0, float("nan")])
def test_uniformity_check_rejects_significance_before_any_trial(monkeypatch, significance):
    def no_trials(*_args):
        raise AssertionError("a trial loop started")

    monkeypatch.setattr(statcheck, "uniformity_counts", no_trials)
    with pytest.raises(ValueError, match="significance"):
        conditional_uniformity_check(UfnParams(UfnKind.SOURCE_HEAVY, 2, 2, 4), trials=20000,
                                     seed=1, significance=significance)


def test_chi_square_critical_matches_the_distribution_quantile(monkeypatch):
    from scipy.stats import chi2

    steps = []
    tails = stats._log_gamma_tails
    monkeypatch.setattr(stats, "_log_gamma_tails", lambda a, y: steps.append(1) or tails(a, y))

    def check(dofs, significance, expected):
        got = []
        for d in dofs:
            steps.clear()
            got.append(chi_square_critical.__wrapped__(int(d), significance))
            # Ended by its own rule, before the Newton step cap.
            assert len(steps) < stats._NEWTON_STEPS, (d, significance)
        assert np.max(np.abs(np.array(got) - expected) / expected) < 1e-10, significance

    dofs = np.concatenate([np.arange(1, 300), np.arange(511, 4096)])
    for significance in (1e-6, 1e-4, 0.001, 0.01, 0.05, 0.1, 0.5):
        check(dofs, significance, chi2.ppf(1.0 - significance, dofs))
    # Extreme levels of both tails on a coarser grid. chi2.ppf would read 1 - 1e-300 as 1,
    # so the reference is the upper quantile itself.
    dofs = np.concatenate([np.arange(1, 64), np.arange(64, 4096, 64)])
    for significance in (1e-300, 1e-12, 0.9, 0.999999, 1 - 1e-12):
        check(dofs, significance, chi2.isf(significance, dofs))


def _scalar_trial_output(params, seed, t):
    """Trial t of the uniformity check."""
    trial_key = splitmix_scalar(derive_seed("uniformity-keys", seed), t + 1)
    return scalar_perm(params, trial_key).encrypt(BitString(params.state_bits, 0)).value


def test_scalar_splitmix_reproduces_the_reference_stream():
    # SplitMix64 seeded with 0 starts 0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4.
    assert [splitmix_scalar(0, j) for j in (1, 2)] == [0xE220A8397B1DCDAF,
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


def _scalar_bad_event_hit(spec, seed, t):
    """Trial t of the collision-event check, one int at a time: the keying of
    ``bad_event_counts`` on masked ints, hits by ``UfnPermutation.trace_states``."""
    params = spec.params
    perm = scalar_perm(params, splitmix_scalar(derive_seed("bad-event-keys", seed), t + 1))
    if spec.shaping == "adversarial":
        queries = statcheck._adversarial_queries(spec)
    else:
        query_key = splitmix_scalar(derive_seed("bad-event-queries", seed), t + 1)
        picked = {}
        j = 0
        while len(picked) < spec.m:
            picked[splitmix_scalar(query_key, j + 1) >> (64 - params.state_bits)] = None
            j += 1
        queries = list(picked)
    seen = [set() for _ in spec.rounds_watched]
    for q in queries:
        states = perm.trace_states(q)
        for j, rd in enumerate(spec.rounds_watched):
            value = states[rd][1:] if spec.kind is UfnKind.SOURCE_HEAVY else states[rd][-1]
            if value in seen[j]:
                return 1
            seen[j].add(value)
    return 0


_BAD_EVENT_KINDS = (UfnKind.SOURCE_HEAVY, UfnKind.TARGET_HEAVY, UfnKind.UFN2)


# m = 16 = 2^n adversarial queries take every value of the varied block.
@pytest.mark.parametrize("m,shaping", [(2, "adversarial"), (2, "uniform"), (8, "adversarial"),
                                       (8, "uniform"), (16, "adversarial")])
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("kind", _BAD_EVENT_KINDS, ids=lambda kind: kind.value)
def test_bad_event_counts_match_the_scalar_twin_bit_for_bit(kind, k, m, shaping):
    spec = BadEventSpec(kind, 4, k, m, shaping)
    seed = (41, kind.value, k, m, shaping)
    expected = [_scalar_bad_event_hit(spec, seed, t) for t in range(300)]
    assert [bad_event_counts(spec, seed, t, 1) for t in range(300)] == expected
    assert bad_event_counts(spec, seed, 0, 300) == sum(expected)


def _memo_table_bad_event_counts(spec, seed, start, count):
    """The collision-event loop on memoized ideal round functions, kept as the
    statistical reference: one ``ideal_ufn`` per trial, uniform queries from a
    Mersenne Twister stream."""
    source_heavy = spec.kind is UfnKind.SOURCE_HEAVY
    width = spec.params.state_bits
    hits = 0
    for t in range(start, start + count):
        perm = ideal_ufn(spec.params, derive_seed(seed, "trial", t))
        if spec.shaping == "adversarial":
            queries = statcheck._adversarial_queries(spec)
        else:
            gen = FastBitGenerator(derive_seed(seed, "queries", t))
            picked = {}
            while len(picked) < spec.m:
                picked[gen.next_int(width)] = None
            queries = list(picked)
        seen = [set() for _ in spec.rounds_watched]
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
        hits += hit
    return hits


@pytest.mark.parametrize("shaping", ["adversarial", "uniform"])
@pytest.mark.parametrize("kind", _BAD_EVENT_KINDS, ids=lambda kind: kind.value)
def test_bad_event_rates_agree_with_the_memo_table_engine(kind, shaping):
    spec = BadEventSpec(kind, 4, 2, 4, shaping)
    trials = 4000
    seed = (1100, kind.value, shaping)  # fixed before the first run
    lanes = bad_event_counts(spec, seed, 0, trials)
    reference = _memo_table_bad_event_counts(spec, seed, 0, trials)
    tolerance = 3 * (stats.wilson_halfwidth(lanes, trials)
                     + stats.wilson_halfwidth(reference, trials))
    assert abs(lanes - reference) / trials <= tolerance, (lanes, reference)


@settings(max_examples=40, deadline=None)
@given(
    kind=hs.sampled_from(_BAD_EVENT_KINDS),
    shaping=hs.sampled_from(["adversarial", "uniform"]),
    trials=hs.integers(1, 120),
    cuts=hs.lists(hs.integers(0, 120), max_size=5),
    batch=hs.sampled_from([1, 7, bits.LANE_BATCH]),
)
def test_bad_event_counts_add_up_over_any_split(kind, shaping, trials, cuts, batch):
    # n=2, k=2, m=6: uniform queries often repeat among the first six candidates.
    spec = BadEventSpec(kind, 2, 2, 4 if shaping == "adversarial" else 6, shaping)
    whole = bad_event_counts(spec, 29, 0, trials)
    bounds = sorted({0, trials, *(c % (trials + 1) for c in cuts)})
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bits, "LANE_BATCH", batch)
        parts = [bad_event_counts(spec, 29, lo, hi - lo) for lo, hi in zip(bounds, bounds[1:])]
    assert sum(parts) == whole
    assert bad_event_counts(spec, 29, trials, 0) == 0


def test_uniform_queries_fill_the_whole_state_space():
    spec = BadEventSpec(UfnKind.TARGET_HEAVY, 2, 2, 64, "uniform")
    queries = statcheck._uniform_queries(spec, 3, Lanes.of(range(1, 41)))
    assert len(queries) == 64
    for row in zip(*(q.tolist() for q in queries)):
        assert sorted(row) == list(range(64))
    # Every state is queried, so the 2-bit watched block repeats in every trial.
    assert bad_event_counts(spec, 3, 0, 40) == 40


@pytest.mark.parametrize("kind", _BAD_EVENT_KINDS, ids=lambda kind: kind.value)
def test_adversarial_batches_keep_no_one_use_spread(monkeypatch, kind):
    # Each fixed query spreads its own x·γ or varied block in round 1; a batch that
    # kept those would hold one spread per query (m = 64 here) until it ends.
    real = statcheck.lane_batches
    sizes = []

    def spied(start, count):
        for batch in real(start, count):
            yield batch
            sizes.append(len(batch.spreads))

    monkeypatch.setattr(statcheck, "lane_batches", spied)
    bad_event_counts(BadEventSpec(kind, 16, 3, 64), 5, 0, 200)
    assert len(sizes) == 1 and sizes[0] < 10


# Round-function evaluations per round of one batch at n=16, m=64. Adversarial queries
# differ only in the leading block, which on target-heavy and ufn2 reaches a round input
# first at round k+1; rounds 1..k see one input in all m queries. The final round runs
# only after the last watched round, so it is never evaluated.
@pytest.mark.parametrize("kind,k,shaping,per_round", [
    (UfnKind.TARGET_HEAVY, 2, "adversarial", [1, 1, 64, 0]),
    (UfnKind.TARGET_HEAVY, 3, "adversarial", [1, 1, 1, 64, 0]),
    (UfnKind.UFN2, 2, "adversarial", [1, 1, 64, 64, 0]),
    (UfnKind.UFN2, 3, "adversarial", [1, 1, 1, 64, 64, 64, 0]),
    (UfnKind.SOURCE_HEAVY, 2, "adversarial", [64, 64, 64, 0]),
    (UfnKind.SOURCE_HEAVY, 3, "adversarial", [64, 64, 64, 64, 0]),
    *[(kind, k, "uniform", [64] * (secure_rounds(kind, k) - 1) + [0])
      for kind in _BAD_EVENT_KINDS for k in (2, 3)],
], ids=lambda v: v.value if isinstance(v, UfnKind) else
   "_".join(map(str, v)) if isinstance(v, list) else None)
def test_bad_event_counts_evaluate_each_round_input_once_per_batch(monkeypatch, kind, k,
                                                                   shaping, per_round):
    real_rounds, real_eval = statcheck.splitmix_round_oracles, SplitMixRound.eval_int
    batches, calls = [], collections.Counter()

    def rounds(*args):
        batches.append(real_rounds(*args))
        return batches[-1]

    def counted(self, x):
        calls[id(self)] += 1
        return real_eval(self, x)

    monkeypatch.setattr(statcheck, "splitmix_round_oracles", rounds)
    monkeypatch.setattr(SplitMixRound, "eval_int", counted)
    bad_event_counts(BadEventSpec(kind, 16, k, 64, shaping), 7, 0, 200)
    assert len(batches) == 1 and len(batches[0]) == secure_rounds(kind, k)
    assert [calls[id(f)] for f in batches[0]] == per_round
