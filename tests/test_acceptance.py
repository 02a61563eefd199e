"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one ``criterion N: PASS/FAIL`` line (visible with
``pytest -s``). Stated runtime caps are asserted alongside the numeric
tolerances.
"""

import json
import random
import time
from functools import partial

from feistel_lab.bits import BitString
from feistel_lab.cli import main as cli_main
from feistel_lab.distinguisher import (
    attack_leading_block,
    attack_ufn2_2k,
    attack_ufn2_even_k,
    estimate_advantage,
    ideal_permutation,
)
from feistel_lab.feistel import UfnKind, UfnParams, ideal_ufn
from feistel_lab.prbg import BbsParams, BmParams, bbs_generate, bm_generate
from feistel_lab.statcheck import (
    BadEventSpec,
    Gf2Matrix,
    bad_event_bound,
    build_ufn2_matrix,
    conditional_uniformity_check,
    estimate_bad_prob,
    gf2_nonsingular,
)
from feistel_lab.bench import BenchConfig, run_bench
from feistel_lab.stats import wilson_interval


class _Criterion:
    def __init__(self, num, desc):
        self.num = num
        self.desc = desc

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "FAIL" if exc_type else "PASS"
        print(f"criterion {self.num:2d}: {status} - {self.desc}")
        return False


def _ideal_interval_contains(report, target):
    ones_b = round(report.accept_b * report.trials)
    lo, hi = wilson_interval(ones_b, report.trials)
    return lo <= target <= hi


def test_criterion_1_bijectivity_grid():
    with _Criterion(1, "bijectivity and inversion, all kinds, n=2, r=1..8"):
        started = time.perf_counter()
        grid = [(UfnKind.BALANCED, (1,))] + [
            (kind, (1, 2, 3))
            for kind in (UfnKind.SOURCE_HEAVY, UfnKind.TARGET_HEAVY, UfnKind.UFN2)
        ]
        for kind, ks in grid:
            for k in ks:
                for r in range(1, 9):
                    params = UfnParams(kind, 2, k, r)
                    perm = ideal_ufn(params, seed=(kind.value, k, r))
                    seen = set()
                    for v in range(1 << params.state_bits):
                        x = BitString(params.state_bits, v)
                        y = perm.encrypt(x)
                        assert y.value not in seen, (kind, k, r)
                        seen.add(y.value)
                        assert perm.decrypt(y) == x, (kind, k, r)
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def _two_query_criterion(kind, machine, vulnerable_rounds, num, desc):
    with _Criterion(num, desc):
        started = time.perf_counter()
        n, k = 4, 2
        params = UfnParams(kind, n, k, vulnerable_rounds)
        report = estimate_advantage(
            machine,
            partial(ideal_ufn, params),
            partial(ideal_permutation, params.state_bits),
            trials=10_000,
            seed=2000 + num,
        )
        assert report.accept_a == 1.0
        assert _ideal_interval_contains(report, 1 / 16), report.accept_b
        assert abs(report.advantage - 0.9375) <= report.ci_halfwidth
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_2_source_heavy_attack():
    _two_query_criterion(
        UfnKind.SOURCE_HEAVY,
        attack_leading_block(4, 2),
        3,
        2,
        "source-heavy k+1 rounds: accept 1.0, ideal ~1/16, advantage ~0.9375",
    )


def test_criterion_3_target_heavy_attack():
    _two_query_criterion(
        UfnKind.TARGET_HEAVY,
        attack_leading_block(4, 2),
        3,
        3,
        "target-heavy k+1 rounds: accept 1.0, ideal ~1/16, advantage ~0.9375",
    )


def test_criterion_4_even_k_attack_every_round_count():
    with _Criterion(4, "even-k widened structure: accept 1.0 at r=1..10, ideal ~1/16"):
        n, k = 4, 2
        machine = attack_ufn2_even_k(n, k)
        for r in range(1, 11):
            params = UfnParams(UfnKind.UFN2, n, k, r)
            report = estimate_advantage(
                machine,
                partial(ideal_ufn, params),
                partial(ideal_permutation, params.state_bits),
                trials=1000,
                seed=(400 + r),
            )
            assert report.accept_a == 1.0, r
        params = UfnParams(UfnKind.UFN2, n, k, 2 * k + 1)
        report = estimate_advantage(
            machine,
            partial(ideal_ufn, params),
            partial(ideal_permutation, params.state_bits),
            trials=10_000,
            seed=444,
        )
        assert report.accept_a == 1.0
        assert _ideal_interval_contains(report, 1 / 16), report.accept_b


def test_criterion_5_2k_round_attack():
    with _Criterion(5, "widened structure at 2k rounds, k=3: accept 1.0, ideal ~1/16"):
        n, k = 4, 3
        machine = attack_ufn2_2k(n, k)
        params = UfnParams(UfnKind.UFN2, n, k, 2 * k)
        report = estimate_advantage(
            machine,
            partial(ideal_ufn, params),
            partial(ideal_permutation, params.state_bits),
            trials=10_000,
            seed=555,
        )
        assert report.accept_a == 1.0
        assert _ideal_interval_contains(report, 1 / 16), report.accept_b


def test_criterion_6_secure_rounds_and_uniformity():
    with _Criterion(6, "minimal secure rounds: no advantage, chi-square uniform"):
        started = time.perf_counter()
        games = [
            (UfnKind.SOURCE_HEAVY, 2, 4, attack_leading_block(4, 2)),
            (UfnKind.TARGET_HEAVY, 2, 4, attack_leading_block(4, 2)),
            (UfnKind.UFN2, 3, 7, attack_ufn2_2k(4, 3)),
        ]
        for kind, k, r, machine in games:
            params = UfnParams(kind, 4, k, r)
            report = estimate_advantage(
                machine,
                partial(ideal_ufn, params),
                partial(ideal_permutation, params.state_bits),
                trials=10_000,
                seed=(600, kind.value),
            )
            assert report.advantage <= 3 * report.ci_halfwidth, (kind, report)

        uniform_grid = [
            (UfnKind.SOURCE_HEAVY, 2, 2, 4),
            (UfnKind.TARGET_HEAVY, 2, 2, 4),
            (UfnKind.UFN2, 2, 3, 7),
        ]
        for kind, n, k, r in uniform_grid:
            report = conditional_uniformity_check(UfnParams(kind, n, k, r), trials=100_000,
                                                  seed=(660, kind.value))
            assert report.passed, (kind, report.statistic, report.critical_value)
        elapsed = time.perf_counter() - started
        assert elapsed < 300.0, f"took {elapsed:.1f}s"


def test_criterion_7_matrix_rank():
    with _Criterion(7, "mixing matrix nonsingular iff k odd; elimination vs cofactor"):
        for k in range(1, 17):
            assert gf2_nonsingular(build_ufn2_matrix(k)) == (k % 2 == 1), k

        def det_cofactor(rows):
            size = len(rows)
            if size == 1:
                return rows[0][0]
            total = 0
            for j in range(size):
                if rows[0][j]:
                    minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
                    total ^= det_cofactor(minor)
            return total

        rng = random.Random(777)
        for _ in range(10_000):
            m = Gf2Matrix(5, tuple(rng.getrandbits(5) for _ in range(5)))
            assert gf2_nonsingular(m) == (det_cofactor(m.to_lists()) == 1)


def test_criterion_8_collision_bounds_grid():
    with _Criterion(8, "collision-event frequency under its bound on the desk grid"):
        assert bad_event_bound(UfnKind.SOURCE_HEAVY, 8, 2, 4) == 0.09375
        for kind in (UfnKind.SOURCE_HEAVY, UfnKind.TARGET_HEAVY, UfnKind.UFN2):
            for n in (4, 8):
                for k in (2, 3):
                    for m in (2, 4, 8):
                        report = estimate_bad_prob(
                            BadEventSpec(kind, n, k, m), trials=10_000,
                            seed=(800, kind.value, n, k, m),
                        )
                        assert report.empirical <= report.bound + 3 * report.ci_halfwidth, (
                            kind, n, k, m, report.empirical, report.bound,
                        )


def test_criterion_9_generator_conformance():
    with _Criterion(9, "quadratic-residue and discrete-log streams match oracles"):
        # Independent modular-squaring oracle, 1000 steps.
        params = BbsParams.create(7, 11, 2)
        x = params.x0
        expected = []
        for _ in range(1000):
            x = x * x % 77
            expected.append(x & 1)
        assert bbs_generate(params, 1000) == BitString.from_bits(expected)

        # Brute-forced discrete-log predicate over a full state period.
        p, g, x0 = 23, 5, 3
        table = {}
        acc = 1
        for e in range(p - 1):
            table[acc] = e
            acc = acc * g % p
        half = (p - 1) // 2

        seen = {}
        xs = []
        x = x0
        while True:
            x = pow(g, x, p)
            if x in seen:
                cycle_len = len(xs) - seen[x]
                break
            seen[x] = len(xs)
            xs.append(x)
        total = len(xs) + cycle_len  # prefix plus one full period
        x = x0
        expected_bits = []
        for _ in range(total):
            x = pow(g, x, p)
            expected_bits.append(1 if table[x] <= half else 0)
        assert bm_generate(BmParams(p, g, x0), total) == BitString.from_bits(expected_bits)


def test_criterion_10_cost_model():
    with _Criterion(10, "memo payload and generator-bit counter match the cost model"):
        mem = run_bench(BenchConfig(n=4, k=2, prf_mode="memoized", workload=16, seed=1010))
        table_bits = {}
        for s in mem.structures:
            assert s.exhausted
            assert s.measured_table_bits == s.rounds * (1 << s.p1) * s.p2, s.kind
            table_bits[s.kind] = s.measured_table_bits
        assert max(table_bits, key=table_bits.get) is UfnKind.SOURCE_HEAVY
        assert min(table_bits, key=table_bits.get) is UfnKind.UFN2

        ggm = run_bench(BenchConfig(n=4, k=2, prf_mode="ggm", workload=16, seed=1011))
        prbg_bits = {}
        for s in ggm.structures:
            budget = (2 * s.p1 * (ggm.ell // s.rounds) + s.p2) * s.rounds
            assert s.measured_prbg_bits is not None
            assert s.measured_prbg_bits <= budget
            assert s.measured_prbg_bits == budget  # equality observed
            prbg_bits[s.kind] = s.measured_prbg_bits
        assert max(prbg_bits, key=prbg_bits.get) is UfnKind.SOURCE_HEAVY
        fastest_two = sorted(prbg_bits, key=prbg_bits.get)[:2]
        assert set(fastest_two) == {UfnKind.TARGET_HEAVY, UfnKind.UFN2}


def test_criterion_11_cli_reproducibility(capsys, monkeypatch):
    with _Criterion(11, "seeded CLI runs emit byte-identical JSON"):
        monkeypatch.delenv("FEISTEL_LAB_SEED", raising=False)
        commands = [
            ["matrix", "--k", "3"],
            ["attack", "--name", "src-k1", "--n", "4", "--k", "2",
             "--trials", "500", "--seed", "41"],
            ["attack", "--name", "ufn2-2k", "--n", "4", "--k", "3",
             "--trials", "200", "--seed", "42"],
            ["advantage", "--name", "tgt-k1", "--n", "4", "--k", "2",
             "--rounds", "4", "--trials", "200", "--seed", "43"],
            ["badprob", "--kind", "target-heavy", "--n", "8", "--k", "2",
             "--m", "4", "--trials", "500", "--seed", "44"],
            ["uniformity", "--kind", "source-heavy", "--n", "2", "--k", "2",
             "--trials", "5000", "--seed", "45"],
            ["bench", "--mode", "mem", "--n", "4", "--k", "2",
             "--workload", "8", "--seed", "46"],
            ["bench", "--mode", "ggm", "--n", "4", "--k", "2",
             "--workload", "4", "--seed", "47"],
        ]
        for argv in commands:
            code = cli_main(list(argv))
            first = capsys.readouterr().out
            assert code == 0, argv
            assert cli_main(list(argv)) == code
            second = capsys.readouterr().out
            assert first == second, argv
            json.loads(first)  # stdout is one valid JSON document
