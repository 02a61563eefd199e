import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from feistel_lab import bits
from feistel_lab.bits import BitString, Lanes, lane_batches, run_chunks, split_blocks
from feistel_lab.distinguisher import attack_leading_block, estimate_advantage
from feistel_lab.feistel import UfnKind, UfnParams
from feistel_lab.statcheck import BadEventSpec, conditional_uniformity_check, estimate_bad_prob
from scalar_twins import join_blocks


def test_concat_split_round_trip():
    rng = random.Random(1)
    for _ in range(200):
        wa, wb = rng.randint(1, 12), rng.randint(1, 12)
        a = BitString(wa, rng.getrandbits(wa))
        b = BitString(wb, rng.getrandbits(wb))
        left, right = BitString(wa + wb, a.value << wb | b.value).split(a.width)
        assert (left, right) == (a, b)


@pytest.mark.parametrize("at", [-1, 7])
def test_split_refuses_a_point_outside_the_width(at):
    with pytest.raises(ValueError, match=f"cannot split width 6 at {at}"):
        BitString(6, 0b101101).split(at)


def test_partition_definition():
    assert split_blocks(0b110110, 2, 3) == (0b11, 0b01, 0b10)
    assert join_blocks((0b11, 0b01, 0b10), 2) == 0b110110


def test_partition_degenerate_single_block():
    assert split_blocks(0b1111, 4, 1) == (0b1111,)
    assert join_blocks((0b1111,), 4) == 0b1111


@hs.composite
def _block_states(draw):
    n = draw(hs.integers(1, 24))
    count = draw(hs.integers(1, 6))
    values = draw(hs.lists(hs.integers(0, (1 << n * count) - 1), min_size=1, max_size=8))
    return n, count, values


@given(_block_states())
@example((16, 4, [0, (1 << 64) - 1]))
@example((24, 6, [(1 << 144) - 1]))
def test_partition_flatten_mutually_inverse(state):
    """join_blocks inverts split_blocks on ints; on uint64 arrays and on Lanes,
    wherever the state fits 64 bits, both agree with the int results element by
    element."""
    n, count, values = state
    per_value = [split_blocks(v, n, count) for v in values]
    for v, blocks in zip(values, per_value):
        assert len(blocks) == count and all(b >> n == 0 for b in blocks)
        assert join_blocks(blocks, n) == v
    if n * count <= 64:
        arrays = split_blocks(np.array(values, dtype=np.uint64), n, count)
        assert [a.tolist() for a in arrays] == [list(col) for col in zip(*per_value)]
        assert join_blocks(arrays, n).tolist() == values
        lanes = split_blocks(Lanes.of(values), n, count)
        assert [b.tolist() for b in lanes] == [list(col) for col in zip(*per_value)]
        assert join_blocks(lanes, n).tolist() == values


def test_text_form_example():
    x = BitString.parse("6:2D")
    assert x == BitString(6, 0b101101)
    assert x.text() == "6:2D"
    assert str(x) == "6:2D"
    assert BitString.parse("12:a3F") == BitString(12, 0xA3F)


def test_text_form_round_trip():
    rng = random.Random(3)
    for w in range(0, 10):
        for _ in range(20):
            x = BitString(w, rng.getrandbits(w) if w else 0)
            assert BitString.parse(x.text()) == x


@hs.composite
def _bit_strings(draw):
    width = draw(hs.integers(0, 200))
    return BitString(width, draw(hs.integers(0, (1 << width) - 1)))


@given(_bit_strings())
@example(BitString(0, 0))
@example(BitString(200, (1 << 200) - 1))
@example(BitString(5, 0b10000))
def test_text_form_round_trip_property(x):
    assert BitString.parse(x.text()) == x


def test_parse_rejects_bad_forms():
    for bad in ("2D", "6:2D4", "6:", "-1:0", "4:2Z", "8:+F", "8: F", "+8:0F", " 8:0F",
                "8:0_F", "8:0x", "16:0x1F", "٨:0F", "8:０F", ":"):
        with pytest.raises(ValueError):
            BitString.parse(bad)


def test_value_range_enforced():
    # The refusal names the width, not the value, so a value past Python's int-to-str
    # digit limit keeps the message.
    for value in (8, -1, 1 << 20000, -(1 << 20000)):
        with pytest.raises(ValueError, match="^value does not fit in 3 bits$"):
            BitString(3, value)
    with pytest.raises(ValueError):
        BitString(-1, 0)


def test_equality_needs_width_and_value():
    assert BitString(4, 3) != BitString(5, 3)
    assert BitString(4, 3) == BitString(4, 3)


_M64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_WORDS = hs.integers(0, _M64)


@given(xs=hs.lists(_WORDS, min_size=1, max_size=9), ys=hs.lists(_WORDS, min_size=9, max_size=9),
       c=hs.integers(0, 1 << 70), shift=hs.integers(0, 70))
@example(xs=[_M64] * 3, ys=[_M64] * 9, c=(1 << 70) - 1, shift=70)
def test_lanes_act_on_each_lane_mod_2_64(xs, ys, c, shift):
    a, b = Lanes.of(xs), Lanes.of(ys[:len(xs)])
    assert a.tolist() == xs and a.count == len(xs)
    cases = [
        (a ^ b, [x ^ y for x, y in zip(xs, ys)]),
        (a | b, [x | y for x, y in zip(xs, ys)]),
        (c & a, [x & c for x in xs]),
        (a + b, [(x + y) & _M64 for x, y in zip(xs, ys)]),
        (c + a, [(x + c) & _M64 for x in xs]),
        (c * a, [(x * c) & _M64 for x in xs]),
        ((c ^ a) * _GAMMA, [((x ^ c) * _GAMMA) & _M64 for x in xs]),
        (a << shift, [(x << shift) & _M64 for x in xs]),
        (a >> shift, [x >> shift for x in xs]),
    ]
    for got, expected in cases:
        assert got.tolist() == expected and got.count == len(xs)


# Each Lanes operator with an int operand c, next to its per-lane scalar form.
_INT_OPERATORS = [
    (lambda a, c: a ^ c, lambda x, c: x ^ c),
    (lambda a, c: c | a, lambda x, c: x | c),
    (lambda a, c: a & c, lambda x, c: x & c),
    (lambda a, c: c & a, lambda x, c: x & c),
    (lambda a, c: a + c, lambda x, c: x + c),
    (lambda a, c: c + a, lambda x, c: x + c),
    (lambda a, c: a * c, lambda x, c: x * c),
]


def _check_int_operators(a, values, c):
    for lane_op, scalar_op in _INT_OPERATORS:
        got = lane_op(a, c)
        assert got.tolist() == [scalar_op(x, c) & _M64 for x in values] and got.count == a.count


@given(xs=hs.lists(_WORDS, min_size=1, max_size=9), ys=hs.lists(_WORDS, min_size=10, max_size=17),
       c=hs.integers(-(1 << 70), 1 << 70))
@example(xs=[_M64] * 9, ys=[0] * 10, c=-1)
@example(xs=[3], ys=[_M64] * 17, c=(1 << 64) + 5)
def test_int_operands_match_each_lane_across_batches_and_widths(xs, ys, c):
    # One constant meets batches of two widths in turn, twice in each batch: a spread is
    # made on its first use in a batch and read back after that, never across batches.
    for values in (xs, ys, xs, ys):
        batch = Lanes.of(values)
        for _ in range(2):
            _check_int_operators(batch, values, c)
            _check_int_operators(batch ^ 1, [x ^ 1 for x in values], c)


@settings(deadline=None)
@given(xs=hs.lists(hs.sampled_from([0, 1, _M64]) | _WORDS, min_size=1, max_size=600),
       c=hs.sampled_from([0, 1, _M64]) | _WORDS)
@example(xs=[0, _M64] * 256, c=_M64)
def test_zeros_counts_the_lanes_that_hold_0(xs, c):
    # Adding 2^64 - 1 carries out of a lane of 2^64 - 1 but not out of a 0 lane beside it.
    a = Lanes.of(xs)
    for got in (a, a ^ c, c + a, a & c, a * c, a >> 63, a ^ Lanes.of(xs[::-1])):
        assert got.zeros() == got.tolist().count(0)


def test_int_operands_fit_the_short_last_batch():
    # 2,000 trials end in a short batch (464 lanes at 512 a batch); a spread kept from a
    # full batch, or the other way round, would put the constant in too many or too few lanes.
    batches = list(lane_batches(0, 2000))
    full, last = divmod(2000, bits.LANE_BATCH)
    assert last and [b.count for b in batches] == [bits.LANE_BATCH] * full + [last]
    for c in (0x9E3779B97F4A7C15, -3, (1 << 64) + 7, 15):
        for batch in batches + batches[::-1]:
            _check_int_operators(batch, batch.tolist(), c)


def _chunk(start, count):
    return start, count


@pytest.mark.parametrize("cpus, trials, expected", [
    (1, 10, [(0, 10)]),
    (2, 10, [(0, 5), (5, 5)]),
    (3, 10, [(0, 3), (3, 3), (6, 4)]),
    (3, 2, [(0, 1), (1, 1)]),
])
def test_run_chunks_returns_the_chunks_in_order(monkeypatch, cpus, trials, expected):
    # jobs=4 is capped at the usable CPUs and at the trial count.
    monkeypatch.setattr(bits, "usable_cpus", lambda: cpus)
    assert run_chunks(_chunk, (), trials, 4) == expected


# Each trial estimator at (trials, seed, jobs); small structures, every kind of check.
_ESTIMATORS = {
    "advantage": lambda trials, seed, jobs: estimate_advantage(
        attack_leading_block(4, 2), UfnParams(UfnKind.SOURCE_HEAVY, 4, 2, 3), trials, seed,
        jobs),
    "bad-prob-adversarial": lambda trials, seed, jobs: estimate_bad_prob(
        BadEventSpec(UfnKind.SOURCE_HEAVY, 4, 2, 6), trials, seed, jobs),
    "bad-prob-uniform": lambda trials, seed, jobs: estimate_bad_prob(
        BadEventSpec(UfnKind.UFN2, 2, 2, 8, "uniform"), trials, seed, jobs),
    "uniformity": lambda trials, seed, jobs: conditional_uniformity_check(
        UfnParams(UfnKind.TARGET_HEAVY, 2, 3, 5), trials, seed, jobs=jobs),
}


@pytest.mark.parametrize("estimator", list(_ESTIMATORS))
@settings(max_examples=6, deadline=None)
@given(trials=hs.integers(1, 400), seed=hs.integers(0, 2**64 - 1))
def test_estimators_do_not_depend_on_jobs(estimator, trials, seed):
    with pytest.MonkeyPatch.context() as mp:
        # Up to three chunks on any machine: jobs is capped at the usable CPU count.
        mp.setattr(bits, "usable_cpus", lambda: 3)
        reports = [_ESTIMATORS[estimator](trials, seed, jobs) for jobs in (1, 2, 3)]
    assert reports[0] == reports[1] == reports[2]
    assert reports[0].trials == trials


@pytest.mark.parametrize("jobs", [1, 2, 3])
@pytest.mark.parametrize("estimator", list(_ESTIMATORS))
def test_estimators_need_trials_at_every_jobs(monkeypatch, estimator, jobs):
    monkeypatch.setattr(bits, "usable_cpus", lambda: 3)
    with pytest.raises(ValueError, match="^trials must be >= 1$"):
        _ESTIMATORS[estimator](0, 1, jobs)
