from functools import partial

import pytest

from feistel_lab.bits import BitString, split_blocks
from feistel_lab.distinguisher import (
    GameReport,
    OracleMachine,
    advantage_counts,
    attack_leading_block,
    attack_ufn2_2k,
    attack_ufn2_even_k,
    calibrate_w_index,
    estimate_advantage,
    ideal_permutation,
)
from feistel_lab.feistel import UfnKind, UfnParams, ideal_ufn


class CountingOracle:
    def __init__(self, inner):
        self.inner = inner
        self.width = inner.width
        self.calls = 0

    def query(self, x):
        self.calls += 1
        return self.inner.query(x)


def test_ideal_permutation_injective_and_deterministic():
    perm = ideal_permutation(8, seed=1)
    a = perm.query(BitString(8, 3))
    b = perm.query(BitString(8, 200))
    assert a != b
    assert perm.query(BitString(8, 3)) == a


def test_ideal_permutation_exhaustion_is_a_permutation():
    perm = ideal_permutation(2, seed=2)
    outs = {perm.query(BitString(2, v)).value for v in range(4)}
    assert outs == {0, 1, 2, 3}


def test_ideal_permutation_many_widths():
    for width in (1, 3, 6):
        perm = ideal_permutation(width, seed=width)
        outs = {perm.query(BitString(width, v)).value for v in range(1 << width)}
        assert outs == set(range(1 << width))


def test_ideal_permutation_width_check():
    perm = ideal_permutation(4, seed=3)
    with pytest.raises(ValueError):
        perm.query(BitString(5, 0))
    with pytest.raises(ValueError):
        ideal_permutation(0, seed=1)


def test_machines_respect_query_budget(leftmost_first_probe):
    # The shared probe pins the block layout the machines rely on.
    _, state, expected = leftmost_first_probe
    assert state == expected

    n, k = 4, 2
    machines = [
        (attack_leading_block(n, k), UfnParams(UfnKind.SOURCE_HEAVY, n, k, 3)),
        (attack_leading_block(n, k), UfnParams(UfnKind.TARGET_HEAVY, n, k, 3)),
        (attack_ufn2_even_k(n, k), UfnParams(UfnKind.UFN2, n, k, 3)),
        (attack_ufn2_2k(n, 3), UfnParams(UfnKind.UFN2, n, 3, 6)),
    ]
    for machine, params in machines:
        oracle = CountingOracle(ideal_ufn(params, seed=5))
        machine.run(oracle)
        assert oracle.calls <= machine.query_budget


def test_source_heavy_attack_always_accepts_vulnerable_build():
    n, k = 4, 2
    machine = attack_leading_block(n, k)
    params = UfnParams(UfnKind.SOURCE_HEAVY, n, k, k + 1)
    assert all(machine.run(ideal_ufn(params, seed=t)) == 1 for t in range(300))


def test_source_heavy_attack_relation_instance():
    # n=2, k=2: queries (00,01,10) and (11,01,10); accept iff the first
    # output blocks XOR to 11.
    machine = attack_leading_block(2, 2)
    xp = split_blocks(machine.x_p.value, 2, 3)
    xq = split_blocks(machine.x_q.value, 2, 3)
    assert xp[1:] == xq[1:]
    assert (xp[0] ^ xq[0]) == 0b11


def test_target_heavy_attack_always_accepts_vulnerable_build():
    n, k = 4, 2
    machine = attack_leading_block(n, k)
    params = UfnParams(UfnKind.TARGET_HEAVY, n, k, k + 1)
    assert all(machine.run(ideal_ufn(params, seed=t)) == 1 for t in range(300))


def test_randomized_queries_also_always_accept():
    n, k = 4, 2
    params = UfnParams(UfnKind.SOURCE_HEAVY, n, k, k + 1)
    for t in range(100):
        machine = attack_leading_block(n, k, seed=t)
        assert machine.run(ideal_ufn(params, seed=1000 + t)) == 1


def test_even_k_attack_accepts_at_every_round_count():
    n, k = 4, 2
    machine = attack_ufn2_even_k(n, k)
    for r in range(1, 11):
        params = UfnParams(UfnKind.UFN2, n, k, r)
        assert all(machine.run(ideal_ufn(params, seed=(r, t))) == 1 for t in range(50))


def test_even_k_attack_rejects_odd_k():
    with pytest.raises(ValueError):
        attack_ufn2_even_k(4, 3)


def test_2k_attack_rejects_even_k():
    with pytest.raises(ValueError):
        attack_ufn2_2k(4, 2)
    with pytest.raises(ValueError):
        calibrate_w_index(4, 2)


def test_calibration_finds_a_shared_block():
    # The empirical search lands on block 1, which both queries share, so the
    # 2k-round machine can fix the carried-block difference at zero.
    for n in (3, 4):
        for k in (1, 3, 5):
            assert calibrate_w_index(n, k) == 1, (n, k)


def test_2k_attack_always_accepts_vulnerable_build():
    n, k = 4, 3
    machine = attack_ufn2_2k(n, k)
    params = UfnParams(UfnKind.UFN2, n, k, 2 * k)
    assert all(machine.run(ideal_ufn(params, seed=t)) == 1 for t in range(300))


def test_machine_width_mismatch():
    machine = attack_leading_block(4, 2)
    with pytest.raises(ValueError):
        machine.run(ideal_permutation(8, seed=1))


def test_acceptance_rate_against_ideal_is_one_in_2n():
    n, k = 4, 2
    machine = attack_leading_block(n, k)
    report = estimate_advantage(
        machine,
        partial(ideal_permutation, (k + 1) * n),
        partial(ideal_permutation, (k + 1) * n),
        trials=3000,
        seed=9,
    )
    lo = report.accept_a - report.ci_a
    hi = report.accept_a + report.ci_a
    assert lo <= 1 / 16 <= hi


def test_same_factory_means_zero_advantage():
    n, k = 4, 2
    machine = attack_leading_block(n, k)
    factory = partial(ideal_permutation, (k + 1) * n)
    report = estimate_advantage(machine, factory, factory, trials=500, seed=4)
    assert report.advantage == 0.0
    assert report.accept_a == report.accept_b


def test_reports_are_reproducible():
    n, k = 4, 2
    machine = attack_leading_block(n, k)
    params = UfnParams(UfnKind.TARGET_HEAVY, n, k, k + 1)
    args = (machine, partial(ideal_ufn, params),
            partial(ideal_permutation, params.state_bits))
    assert estimate_advantage(*args, trials=400, seed=8) == estimate_advantage(
        *args, trials=400, seed=8
    )


def test_secure_rounds_have_no_advantage():
    n, k = 4, 2
    machine = attack_leading_block(n, k)
    params = UfnParams(UfnKind.SOURCE_HEAVY, n, k, k + 2)
    report = estimate_advantage(
        machine,
        partial(ideal_ufn, params),
        partial(ideal_permutation, params.state_bits),
        trials=3000,
        seed=21,
    )
    assert report.advantage <= 3 * report.ci_halfwidth


def test_report_fields_consistent():
    report = GameReport(900, 60, 1000, seed=5)
    assert report.accept_a == 0.9
    assert report.accept_b == 0.06
    assert report.advantage == pytest.approx(0.84)
    assert report.ci_halfwidth == pytest.approx(report.ci_a + report.ci_b)
    json_dict = report.to_json_dict()
    assert set(json_dict) == {"accept_a", "accept_b", "advantage", "ci", "ci_a", "ci_b",
                              "trials", "seed"}


def test_estimate_advantage_needs_trials():
    machine = attack_leading_block(4, 2)
    factory = partial(ideal_permutation, 12)
    with pytest.raises(ValueError):
        estimate_advantage(machine, factory, factory, trials=0, seed=1)


class _OverBudgetMachine(OracleMachine):
    query_budget = 1

    def run(self, oracle):
        x = BitString(oracle.width, 0)
        oracle.query(x)
        oracle.query(x)
        return 1


def test_advantage_counts_enforce_the_query_budget():
    params = UfnParams(UfnKind.SOURCE_HEAVY, 4, 2, 4)
    with pytest.raises(RuntimeError, match="exceeded its query budget of 1"):
        advantage_counts(_OverBudgetMachine(), partial(ideal_ufn, params),
                         partial(ideal_permutation, params.state_bits), seed=1, start=0,
                         count=3)
