import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from feistel_lab import bits
from feistel_lab.bits import BitString, Lanes, split_blocks
from feistel_lab.distinguisher import (
    GameReport,
    IdealPermutationOracle,
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
from feistel_lab.prbg import FastBitGenerator, derive_seed
from feistel_lab.statcheck import BadEventSpec, bad_event_counts
from feistel_lab.stats import wilson_halfwidth
from scalar_twins import ScalarIdealPermutation, scalar_perm, seeded_machine, splitmix_scalar


class CountingOracle:
    def __init__(self, inner):
        self.inner = inner
        self.width = inner.width
        self.calls = 0

    def query(self, x):
        self.calls += 1
        return self.inner.query(x)


class _MtIdealPermutation:
    """The memo-table reference for the ideal permutation: fresh answers drawn
    by rejection from a Mersenne Twister stream, repeated queries replayed."""

    def __init__(self, width, seed):
        self.width = width
        self._entropy = FastBitGenerator(derive_seed("ideal-perm", seed))
        self._fwd = {}
        self._inv = {}
        self.query_count = 0

    def query(self, x):
        if not 0 <= x < 1 << self.width:
            raise ValueError(f"query {x} does not fit in {self.width} bits")
        self.query_count += 1
        hit = self._fwd.get(x)
        if hit is None:
            while True:
                hit = self._entropy.next_int(self.width)
                if hit not in self._inv:
                    break
            self._fwd[x] = hit
            self._inv[hit] = x
        return hit


def _memo_table_advantage_counts(machine, params, seed, start, count):
    """The game loop on memoized ideal round functions and the rejection-sampled
    permutation, one fresh pair of instances per trial, kept as the statistical
    reference of ``advantage_counts``."""
    ones_a = ones_b = 0
    for t in range(start, start + count):
        trial_seed = derive_seed(seed, "trial", t)
        ones_a += machine.run(ideal_ufn(params, trial_seed))
        ones_b += machine.run(_MtIdealPermutation(params.state_bits, trial_seed))
    return ones_a, ones_b


def test_ideal_permutation_injective_and_deterministic():
    trials = Lanes.of(range(1, 65))
    perm = ideal_permutation(8, 1, trials)
    a = perm.query(3)
    b = perm.query(200)
    assert all(u != v for u, v in zip(a.tolist(), b.tolist()))
    assert perm.query(3) == a
    assert ideal_permutation(8, 1, trials).query(3) == a
    assert perm.query_count == 3


def test_ideal_permutation_refuses_a_query_outside_its_width():
    # The refusal names the width alone: a query past Python's int-to-str digit
    # limit has no decimal text to write.
    perm = ideal_permutation(8, 1, Lanes.of(range(1, 9)))
    for x in (1 << 8, -1, 1 << 20000, -(1 << 20000)):
        with pytest.raises(ValueError, match="query does not fit in 8 bits"):
            perm.query(x)
    assert perm.query_count == 0


def _exhausted(width, seed, trials):
    perm = ideal_permutation(width, seed, trials)
    replies = [perm.query(v).tolist() for v in range(1 << width)]
    return [sorted(lane) for lane in zip(*replies)]


def test_ideal_permutation_exhaustion_is_a_permutation():
    assert _exhausted(2, 2, Lanes.of(range(1, 41))) == [[0, 1, 2, 3]] * 40


def test_ideal_permutation_many_widths():
    for width in (1, 3, 6):
        lanes = _exhausted(width, width, Lanes.of(range(1, 9)))
        assert lanes == [list(range(1 << width))] * 8


def test_ideal_permutation_lanes_match_the_scalar_twin():
    # Every lane answers as its trial would alone, also when other lanes of the batch
    # needed more candidate passes for their earlier answers.
    width, seed, trials = 3, 17, Lanes.of(range(1, 41))
    perm = ideal_permutation(width, seed, trials)
    lanes = list(zip(*(perm.query(x).tolist() for x in range(1 << width))))
    key = derive_seed("ideal-perm", seed)
    for t, lane in enumerate(lanes):
        twin = ScalarIdealPermutation(width, splitmix_scalar(key, t + 1))
        assert lane == tuple(twin.query(x) for x in range(1 << width)), t


@pytest.mark.parametrize("width, lanes, fresh", [
    (1, 40, 2), (2, 40, 4), (3, 40, 8), (64, 256, 6),
    (3, 512, 1),  # lanes 256 apart draw equal candidates: an 8-bit tag would read a repeat
])
def test_distinct_returns_the_passes_until_a_lane_repeats(width, lanes, fresh):
    # While a lane has drawn no candidate twice, its answer j is its pass j; from its
    # first repeat on, its answers lag its passes. Each answer column is drawn once:
    # asking again hands back the same Lanes, and the answers equal the scalar twin.
    key = derive_seed("ideal-perm", width)
    trials = Lanes.of(range(1, lanes + 1))
    trial_keys = [splitmix_scalar(key, t + 1) for t in range(lanes)]
    draws = [[splitmix_scalar(k, j) >> (64 - width) for j in range(1, fresh + 1)]
             for k in trial_keys]
    twins = [ScalarIdealPermutation(width, k) for k in trial_keys]
    expected = list(zip(*([twin.query(x) for x in range(fresh)] for twin in twins)))
    perm = IdealPermutationOracle(width, key, trials)
    passes_returned, earlier = [], []
    for m in range(1, fresh + 1):
        answers = perm.distinct(m)
        assert [tuple(a.tolist()) for a in answers] == expected[:m]
        assert all(a is b for a, b in zip(answers, earlier)) and len(answers) == m
        assert perm.distinct(m)[-1] is answers[-1]
        earlier = answers
        on_pass = [a == lane[m - 1] for a, lane in zip(answers[-1].tolist(), draws)]
        assert on_pass == [len(set(lane[:m])) == m for lane in draws]
        passes_returned.append(all(on_pass))
    if width < 64 and fresh > 1:  # a lane's one fresh query cannot repeat
        assert not passes_returned[-1] and any(len(set(lane)) == fresh for lane in draws)
    else:
        assert all(passes_returned)
    # Replays through query, in another order, against fresh twins.
    perm = IdealPermutationOracle(width, key, trials)
    twins = [ScalarIdealPermutation(width, k) for k in trial_keys]
    for x in [fresh - 1, 0, fresh - 1, *range(fresh), 0]:
        assert perm.query(x).tolist() == [twin.query(x) for twin in twins]


_TRIALS = hs.one_of(
    hs.tuples(hs.integers(0, 1 << 40), hs.integers(1, bits.LANE_BATCH)).map(
        lambda start_count: list(range(start_count[0] + 1, sum(start_count) + 1))),
    # Any trial counters: lanes that share a tag, or repeat another lane outright.
    hs.lists(hs.integers(1, (1 << 64) - 1) | hs.integers(1, 8), min_size=1, max_size=64),
)


@settings(max_examples=25, deadline=None)
@given(hs.integers(4, 16).flatmap(lambda w: hs.tuples(
           hs.just(w), hs.integers(1, min(1 << w, 300)), hs.randoms(use_true_random=False))),
       _TRIALS, hs.integers(0, (1 << 64) - 1))
@example((12, 256, random.Random(0)), list(range(1, 513)), 7)  # a saturated set's shape
@example((4, 16, random.Random(1)), list(range(1, 513)), 3)  # every lane's whole codebook
@example((8, 40, random.Random(2)), [5, 5 + (1 << 56), 6, 5], 9)  # lanes that share a tag
def test_distinct_and_query_answer_as_the_scalar_twin(width_m_random, trials, key):
    width, m, rng = width_m_random
    twins = [ScalarIdealPermutation(width, splitmix_scalar(key, t)) for t in trials]
    expected = list(zip(*([twin.query(x) for x in range(m)] for twin in twins)))
    perm = IdealPermutationOracle(width, key, Lanes.of(trials))
    assert [tuple(a.tolist()) for a in perm.distinct(m)] == expected
    # Fresh queries in another order, with replays, against fresh twins.
    order = rng.sample(range(1 << width), m)
    order += rng.choices(order, k=min(m, 8))
    twins = [ScalarIdealPermutation(width, splitmix_scalar(key, t)) for t in trials]
    perm = IdealPermutationOracle(width, key, Lanes.of(trials))
    for x in order:
        assert perm.query(x).tolist() == [twin.query(x) for twin in twins]


def test_ideal_permutation_width_check():
    trials = Lanes.of([1, 2])
    perm = ideal_permutation(4, 3, trials)
    for x in (1 << 4, 1 << 5, -1):
        with pytest.raises(ValueError):
            perm.query(x)
    assert perm.query_count == 0
    for width in (0, 65):
        with pytest.raises(ValueError):
            ideal_permutation(width, 1, trials)


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
    xp, xq = (split_blocks(x, 2, 3) for x in machine.queries)
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
        machine = seeded_machine(attack_leading_block, n, k, t)
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


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("k", [1, 3, 5])
def test_2k_attack_accepts_every_lane_at_2k_rounds(n, k):
    # calibrate_w_index's claim on the lane engine: with the carried block fixed at
    # block 1, the relation holds on every counter-keyed 2k-round instance.
    params = UfnParams(UfnKind.UFN2, n, k, 2 * k)
    ones_a, _ = advantage_counts(attack_ufn2_2k(n, k), params, (2500, n, k), 0, 512)
    assert ones_a == 512


def test_2k_attack_always_accepts_vulnerable_build():
    n, k = 4, 3
    machine = attack_ufn2_2k(n, k)
    params = UfnParams(UfnKind.UFN2, n, k, 2 * k)
    assert all(machine.run(ideal_ufn(params, seed=t)) == 1 for t in range(300))


def test_machine_width_mismatch():
    machine = attack_leading_block(4, 2)
    with pytest.raises(ValueError):
        machine.run(ideal_permutation(8, 1, Lanes.of([1])))


def test_acceptance_rate_against_ideal_is_one_in_2n():
    n, k = 4, 2
    machine = attack_leading_block(n, k)
    params = UfnParams(UfnKind.SOURCE_HEAVY, n, k, k + 2)
    report = estimate_advantage(machine, params, trials=3000, seed=9)
    lo = report.accept_b - report.ci_b
    hi = report.accept_b + report.ci_b
    assert lo <= 1 / 16 <= hi


def test_reports_are_reproducible():
    n, k = 4, 2
    machine = attack_leading_block(n, k)
    params = UfnParams(UfnKind.TARGET_HEAVY, n, k, k + 1)
    assert estimate_advantage(machine, params, trials=400, seed=8) == estimate_advantage(
        machine, params, trials=400, seed=8
    )


def test_secure_rounds_have_no_advantage():
    n, k = 4, 2
    machine = attack_leading_block(n, k)
    params = UfnParams(UfnKind.SOURCE_HEAVY, n, k, k + 2)
    report = estimate_advantage(machine, params, trials=3000, seed=21)
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
    with pytest.raises(ValueError):
        estimate_advantage(machine, UfnParams(UfnKind.SOURCE_HEAVY, 4, 2, 4), trials=0, seed=1)


class _OverBudgetMachine(OracleMachine):
    query_budget = 1

    def run(self, oracle):
        oracle.query(0)
        oracle.query(0)
        return 1


def test_advantage_counts_enforce_the_query_budget():
    params = UfnParams(UfnKind.SOURCE_HEAVY, 4, 2, 4)
    with pytest.raises(RuntimeError, match="exceeded its query budget of 1"):
        advantage_counts(_OverBudgetMachine(), params, seed=1, start=0, count=3)


# Reference twin: the machine relations as they were first stated, block by
# block on BitStrings. The machines state them as int expressions.
def _twin_leading_block(xs, ys, n, k):
    shift = k * n
    in_delta = (xs[0].value >> shift) ^ (xs[1].value >> shift)
    out_delta = (ys[0].value >> shift) ^ (ys[1].value >> shift)
    return in_delta == out_delta


def _twin_block_xor_sum(x, n):
    acc = 0
    v = x.value
    mask = (1 << n) - 1
    for _ in range(x.width // n):
        acc ^= v & mask
        v >>= n
    return acc


def _twin_xor_sum(xs, ys, n, k):
    return _twin_block_xor_sum(xs[0], n) == _twin_block_xor_sum(ys[0], n)


def _twin_carried_block(xs, ys, n, k):
    mask = (1 << n) - 1
    acc = 0
    for i in range(k):
        shift = (k - i) * n
        acc ^= (ys[0].value >> shift) & mask
        acc ^= (ys[1].value >> shift) & mask
    shift = k * n
    acc ^= ((xs[0].value >> shift) ^ (xs[1].value >> shift)) & mask
    return acc == 0


# Attack -> (machine factory, its twin, vulnerable structure, attackable rounds at k).
_TWINS = {
    "src-k1": (attack_leading_block, _twin_leading_block, UfnKind.SOURCE_HEAVY,
               lambda k: k + 1),
    "tgt-k1": (attack_leading_block, _twin_leading_block, UfnKind.TARGET_HEAVY,
               lambda k: k + 1),
    "ufn2-even": (attack_ufn2_even_k, _twin_xor_sum, UfnKind.UFN2, lambda k: 2 * k + 1),
    "ufn2-2k": (attack_ufn2_2k, _twin_carried_block, UfnKind.UFN2, lambda k: 2 * k),
}


class _RecordingOracle:
    """Passes queries to ``inner``, XORs ``flip`` into the first reply, and
    records every query and reply."""

    def __init__(self, inner, flip):
        self.inner = inner
        self.width = inner.width
        self.query_count = 0
        self.flip = flip
        self.queries = []
        self.replies = []

    def query(self, x):
        self.query_count += 1
        y = self.inner.query(x)
        if not self.replies:
            y ^= self.flip
        self.queries.append(x)
        self.replies.append(y)
        return y


@settings(max_examples=300, deadline=None)
@given(
    name=hs.sampled_from(sorted(_TWINS)),
    n=hs.integers(1, 16),
    k=hs.integers(1, 6),
    vulnerable=hs.booleans(),
    query_seed=hs.one_of(hs.none(), hs.integers(0, 1 << 32)),
    seed=hs.integers(0, 1 << 32),
    flip_bit=hs.one_of(hs.none(), hs.integers(0, 6 * 16)),
)
def test_int_relations_agree_with_the_bitstring_twin(name, n, k, vulnerable, query_seed,
                                                     seed, flip_bit):
    factory, twin, kind, rounds = _TWINS[name]
    if name == "ufn2-even":
        k += k % 2
    elif name == "ufn2-2k":
        k -= 1 - k % 2
    machine = seeded_machine(factory, n, k, query_seed)
    width = (k + 1) * n
    if vulnerable:
        inner = ideal_ufn(UfnParams(kind, n, k, rounds(k)), seed)
    else:
        inner = _MtIdealPermutation(width, seed)
    flip = 0 if flip_bit is None else 1 << (flip_bit % width)
    oracle = _RecordingOracle(inner, flip)
    verdict = machine.run(oracle)
    xs = [BitString(width, x) for x in oracle.queries]
    ys = [BitString(width, y) for y in oracle.replies]
    assert verdict == int(twin(xs, ys, n, k))
    if vulnerable and not flip:
        assert verdict == 1


def test_trial_loops_build_no_bitstring(monkeypatch):
    built = []
    post_init = BitString.__post_init__

    def counted(bits):
        built.append(bits)
        post_init(bits)

    monkeypatch.setattr(BitString, "__post_init__", counted)
    n = 4
    for name, (factory, _, kind, rounds) in _TWINS.items():
        k = 2 if name != "ufn2-2k" else 3
        params = UfnParams(kind, n, k, rounds(k))
        advantage_counts(seeded_machine(factory, n, k, 1), params, seed=2, start=0, count=10)
    for shaping in ("adversarial", "uniform"):
        bad_event_counts(BadEventSpec(UfnKind.UFN2, n, 3, 8, shaping), seed=3, start=0,
                         count=10)
    assert built == []


def _game(name, n, k, r, query_seed=None):
    factory, _, kind, _ = _TWINS[name]
    return seeded_machine(factory, n, k, query_seed), UfnParams(kind, n, k, r)


def _scalar_trial(machine, params, seed, t):
    """Trial t of ``advantage_counts`` one int at a time: side a keyed from
    ``derive_seed("game-keys", seed)``, side b from ``derive_seed("ideal-perm", seed)``."""
    side_a = scalar_perm(params, splitmix_scalar(derive_seed("game-keys", seed), t + 1))
    side_b = ScalarIdealPermutation(
        params.state_bits, splitmix_scalar(derive_seed("ideal-perm", seed), t + 1))
    return machine.run(side_a), machine.run(side_b)


# (attack, n, k, rounds): each machine at its vulnerable and at its secure round count;
# the XOR-sum relation holds at every count, so it gets two counts below and at 2k+1.
_GAME_POINTS = [
    ("src-k1", 4, 2, 3), ("src-k1", 4, 2, 4),
    ("tgt-k1", 4, 2, 3), ("tgt-k1", 4, 2, 4),
    ("ufn2-even", 4, 2, 3), ("ufn2-even", 4, 2, 5),
    ("ufn2-2k", 4, 3, 6), ("ufn2-2k", 4, 3, 7),
]


@pytest.mark.parametrize("query_seed", [None, 5])
@pytest.mark.parametrize("name,n,k,r", _GAME_POINTS)
def test_advantage_counts_match_the_scalar_twin_bit_for_bit(name, n, k, r, query_seed):
    machine, params = _game(name, n, k, r, query_seed)
    seed = (51, name, r)
    expected = [_scalar_trial(machine, params, seed, t) for t in range(300)]
    assert [advantage_counts(machine, params, seed, t, 1) for t in range(300)] == expected
    assert advantage_counts(machine, params, seed, 0, 300) == tuple(map(sum, zip(*expected)))


@settings(max_examples=40, deadline=None)
@given(
    point=hs.sampled_from([("src-k1", 2, 2, 4), ("tgt-k1", 2, 2, 4), ("ufn2-even", 2, 2, 3),
                           ("ufn2-2k", 2, 1, 3)]),
    trials=hs.integers(1, 120),
    cuts=hs.lists(hs.integers(0, 120), max_size=5),
    batch=hs.sampled_from([1, 7, bits.LANE_BATCH]),
)
def test_advantage_counts_add_up_over_any_split(point, trials, cuts, batch):
    # n=2: on 4- to 6-bit states the ideal side often redraws a repeated candidate.
    machine, params = _game(*point)
    whole = advantage_counts(machine, params, 29, 0, trials)
    bounds = sorted({0, trials, *(c % (trials + 1) for c in cuts)})
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bits, "LANE_BATCH", batch)
        parts = [advantage_counts(machine, params, 29, lo, hi - lo)
                 for lo, hi in zip(bounds, bounds[1:])]
    assert tuple(map(sum, zip(*parts))) == whole
    assert advantage_counts(machine, params, 29, trials, 0) == (0, 0)


# (attack, n, k, rounds). Two distinct queries to a uniform permutation differ by a
# uniform nonzero state, so a pair machine accepts with probability 2^(kn)/(2^w - 1);
# one query makes the XOR of all blocks of x ^ y uniform, so the XOR-sum machine
# accepts with probability 2^-n. The 2- and 3-bit states tell sampling without
# replacement (2/3) from sampling with it (1/2).
@pytest.mark.parametrize("name,n,k,r,exact", [
    ("src-k1", 4, 2, 4, 256 / 4095),
    ("tgt-k1", 4, 2, 4, 256 / 4095),
    ("ufn2-even", 4, 2, 5, 1 / 16),
    ("ufn2-2k", 4, 3, 7, 4096 / 65535),
    ("src-k1", 1, 1, 3, 2 / 3),
    ("ufn2-2k", 1, 1, 3, 2 / 3),
    ("ufn2-even", 1, 2, 5, 1 / 2),
])
def test_ideal_side_accept_rates_are_exact(name, n, k, r, exact):
    machine, params = _game(name, n, k, r)
    trials = 20_000
    _, ones_b = advantage_counts(machine, params, (1200, name, n), 0, trials)
    assert abs(ones_b / trials - exact) <= 3 * wilson_halfwidth(ones_b, trials), ones_b


@pytest.mark.parametrize("name,n,k,r", [
    ("src-k1", 4, 2, 4), ("tgt-k1", 4, 2, 4), ("ufn2-even", 4, 2, 5), ("ufn2-2k", 4, 3, 7),
    ("src-k1", 2, 2, 3),
])
def test_accept_rates_agree_with_the_memo_table_engine(name, n, k, r):
    machine, params = _game(name, n, k, r)
    trials = 4000
    seed = (1300, name, r)  # fixed before the first run
    lanes = advantage_counts(machine, params, seed, 0, trials)
    reference = _memo_table_advantage_counts(machine, params, seed, 0, trials)
    for got, want in zip(lanes, reference):
        tolerance = 3 * (wilson_halfwidth(got, trials) + wilson_halfwidth(want, trials))
        assert abs(got - want) / trials <= tolerance, (lanes, reference)


def test_a_batch_of_each_lane_engine_leaves_nothing_for_the_cyclic_collector():
    # The round memo and the sampler form no reference cycle: with the collector off
    # during one game batch and one uniform collision batch at 12 and at 64 bits, it
    # finds nothing to free afterwards.
    import gc

    machine, params = attack_leading_block(4, 2), UfnParams(UfnKind.SOURCE_HEAVY, 4, 2, 4)
    specs = [BadEventSpec(UfnKind.TARGET_HEAVY, 4, 2, 64, "uniform"),
             BadEventSpec(UfnKind.UFN2, 16, 3, 64, "uniform")]
    gc.collect()
    gc.disable()
    try:
        advantage_counts(machine, params, 3, 0, bits.LANE_BATCH)
        for spec in specs:
            bad_event_counts(spec, 3, 0, bits.LANE_BATCH)
        assert gc.collect() == 0
    finally:
        gc.enable()
