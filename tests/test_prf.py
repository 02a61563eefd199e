import math
from itertools import islice

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from feistel_lab import prbg, prf
from feistel_lab.bits import BitString, Lanes
from feistel_lab.feistel import UfnKind, UfnParams, ggm_ufn
from feistel_lab.bench import _memoized_ufn, _table_payload_bits
from feistel_lab.prf import (
    GgmFunctionOracle,
    GgmKey,
    IdealFunctionOracle,
    SplitMixRound,
    ggm_eval,
    split_master_key,
    splitmix_stream,
)
from scalar_twins import BitStringGgmOracle, CallableOracle, splitmix_scalar, zero_oracle


def test_ideal_oracle_memoizes():
    f = IdealFunctionOracle(6, 4, 1)
    assert f.eval_int(0b101010) == f.eval_int(0b101010)


def test_ideal_oracle_table_grows_with_distinct_queries():
    # bench's memo table on one 8 -> 4 ideal round.
    perm = _memoized_ufn(UfnParams(UfnKind.SOURCE_HEAVY, 4, 2, 1), 2)
    f = perm.rounds[0]
    assert (f.in_bits, f.out_bits) == (8, 4)
    for v in [3, 9, 3, 77, 9, 100]:
        f.eval_int(v)
    assert f.eval_int.cache_info().currsize == 4
    assert _table_payload_bits(perm) == 4 * 4


@pytest.mark.parametrize("x", [1 << 14, 1 << 16, -1])
def test_ideal_oracle_refuses_inputs_outside_its_width(x):
    f = IdealFunctionOracle(14, 8, 6)
    with pytest.raises(ValueError, match="round input does not fit in 14 bits"):
        f.eval_int(x)


def test_ideal_oracle_output_width():
    f = IdealFunctionOracle(5, 9, 3)
    for v in range(32):
        assert 0 <= f.eval_int(v) < 1 << 9


def test_ideal_oracle_entry_is_the_state_stream_of_its_key_at_the_input():
    # A pure function of key and input: the query order does not change a value.
    f = IdealFunctionOracle(12, 20, 77)
    forward = [f.eval_int(v) for v in range(0, 4096, 37)]
    g = IdealFunctionOracle(12, 20, 77)
    backward = [g.eval_int(v) for v in reversed(range(0, 4096, 37))]
    assert forward == backward[::-1]
    stream = prbg.state_stream(12, 20, 77)
    assert forward == [stream(v) for v in range(0, 4096, 37)]


def test_ideal_oracle_seed_separation():
    a = IdealFunctionOracle(8, 8, 10)
    b = IdealFunctionOracle(8, 8, 11)
    assert any(a.eval_int(v) != b.eval_int(v) for v in range(100))


def test_ideal_oracle_per_bit_frequency():
    # Exhaust a 10-bit domain with 10-bit outputs: 10240 sample bits.
    f = IdealFunctionOracle(10, 10, 5)
    ones = sum(bin(f.eval_int(v)).count("1") for v in range(1 << 10))
    freq = ones / (10 * (1 << 10))
    assert 0.45 <= freq <= 0.55


def _complement_expander(width):
    mask = (1 << width) - 1
    return lambda s: s << width | s ^ mask


def _stub_key(key_bits):
    # G(x) = x || complement(x), G' = identity.
    return GgmKey(key=key_bits, expander=_complement_expander(key_bits.width),
                  finalizer=lambda s: s)


def test_ggm_stub_hand_trace():
    # key=01, x=10: 1-branch of G(01)=01||10 gives 10, then 0-branch of
    # G(10)=10||01 gives 10; identity finalizer keeps 10.
    key = _stub_key(BitString(2, 0b01))
    assert ggm_eval(key, BitString(2, 0b10)) == 0b10


def test_ggm_empty_input_finalizes_key():
    key = _stub_key(BitString(2, 0b01))
    assert ggm_eval(key, BitString(0, 0)) == 0b01


def test_ggm_deterministic():
    f = GgmFunctionOracle(6, 4, BitString(8, 0xA5), mode="fast")
    assert f.eval_int(0b110101) == f.eval_int(0b110101)


def test_ggm_prefix_property():
    # Inputs sharing a j-bit prefix walk through identical first j+1 states: with an
    # identity finalizer, the walk over each prefix of x ends in the state after it.
    key = _stub_key(BitString(8, 0x3C))

    def states(x):
        return [ggm_eval(key, BitString(j, x.value >> x.width - j)) for j in range(x.width + 1)]

    sx = states(BitString(6, 0b101100))
    sy = states(BitString(6, 0b101011))  # shares the 3-bit prefix 101
    assert sx[:4] == sy[:4]
    assert sx[4] != sy[4]


def test_ggm_expander_must_double():
    # A 4-bit key takes expander outputs in [0, 2^8); 2^8 and -1 are refused.
    for doubled in (1 << 8, -1):
        bad = GgmKey(key=BitString(4, 0b0011), expander=lambda s, d=doubled: d,
                     finalizer=lambda s: s)
        with pytest.raises(ValueError, match="expander output does not fit in 8 bits"):
            ggm_eval(bad, BitString(2, 0b01))
        assert ggm_eval(bad, BitString(0, 0)) == 0b0011


def test_ggm_modes_differ_but_replay():
    fast = GgmFunctionOracle(4, 4, BitString(8, 0x5A), mode="fast", salt=1)
    bbs = GgmFunctionOracle(4, 4, BitString(8, 0x5A), mode="bbs", salt=1)
    fast2 = GgmFunctionOracle(4, 4, BitString(8, 0x5A), mode="fast", salt=1)
    outs_fast = [fast.eval_int(v) for v in range(16)]
    outs_bbs = [bbs.eval_int(v) for v in range(16)]
    assert outs_fast == [fast2.eval_int(v) for v in range(16)]
    assert outs_fast != outs_bbs


def test_ggm_bit_counter():
    key_bits = 8
    f = GgmFunctionOracle(6, 4, BitString(key_bits, 0x11), mode="fast")
    f.eval_int(0b101010)
    assert f.bits_generated == 6 * 2 * key_bits + 4
    f.eval_int(0b000001)
    assert f.bits_generated == 2 * (6 * 2 * key_bits + 4)


_TWIN_SALTS = (0, 1, prbg.derive_seed("ggm-round", 3), "twin", (2, "x"))


@settings(max_examples=60, deadline=None)
@given(mode=hs.sampled_from(["fast", "bbs"]),
       in_bits=hs.integers(1, 24), out_bits=hs.integers(1, 24),
       key=hs.integers(1, 32).flatmap(
           lambda w: hs.integers(0, (1 << w) - 1).map(lambda v: BitString(w, v))),
       salt=hs.sampled_from(_TWIN_SALTS), data=hs.data())
@example(mode="fast", in_bits=24, out_bits=24, key=BitString(32, 0xDEADBEEF), salt=1, data=None)
@example(mode="bbs", in_bits=24, out_bits=24, key=BitString(32, 0xDEADBEEF), salt=1, data=None)
@example(mode="fast", in_bits=1, out_bits=1, key=BitString(1, 1), salt=0, data=None)
@example(mode="bbs", in_bits=1, out_bits=1, key=BitString(1, 0), salt=0, data=None)
# The balanced round key of bench --mode ggm --n 4 --k 2 (3,840 bits over 3 rounds), and
# round keys one bit past what decimal text can write at Python's default digit limit.
@example(mode="fast", in_bits=6, out_bits=6, key=BitString(1280, (1 << 1280) // 3), salt=2,
         data=None)
@example(mode="fast", in_bits=3, out_bits=8, key=BitString(14285, (1 << 14285) - 1), salt=1,
         data=None)
@example(mode="bbs", in_bits=2, out_bits=8, key=BitString(14285, (1 << 14285) // 3), salt=1,
         data=None)
def test_ggm_oracle_matches_the_bitstring_twin_bit_for_bit(mode, in_bits, out_bits, key, salt,
                                                           data):
    top = (1 << in_bits) - 1
    xs = [0, top, 0x5A5A5A & top]
    if data is not None:
        xs += data.draw(hs.lists(hs.integers(0, top), max_size=4))
    oracle = GgmFunctionOracle(in_bits, out_bits, key, mode=mode, salt=salt)
    twin = BitStringGgmOracle(in_bits, out_bits, key, mode=mode, salt=salt)
    for x in xs:
        assert oracle.eval_int(x) == twin.eval_int(x), x
        assert oracle.bits_generated == twin.bits_generated


def test_fast_stream_bits_are_balanced_over_every_state():
    # Salt fixed before the first run. Over all 2^12 states each output bit
    # position must be 1 within 4.5 binomial sigma of half the time: a shift
    # that drops or pads bits pins a position to 0, and a twin that copied the
    # helper would repeat it. The 20-bit finalizer drops 4 spare digest bits.
    width, final_bits = 12, 20
    oracle = GgmFunctionOracle(4, final_bits, BitString(width, 0), mode="fast",
                               salt="balance")
    states = range(1 << width)
    slack = 4.5 * math.sqrt(len(states) / 4)
    for stream, bits in ((oracle.key.expander, 2 * width), (oracle.key.finalizer, final_bits)):
        values = [stream(s) for s in states]
        for pos in range(bits):
            ones = sum(v >> pos & 1 for v in values)
            assert abs(ones - len(states) / 2) <= slack, (bits, pos, ones)


def test_bbs_moduli_are_built_once_per_round(monkeypatch):
    calls = []
    real = prf.generate_bbs_params

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(prf, "generate_bbs_params", counted)
    prf._blum_params.cache_clear()
    params = UfnParams(UfnKind.SOURCE_HEAVY, 4, 2, 4)
    a = ggm_ufn(params, BitString(16, 0x1234), mode="bbs")
    b = ggm_ufn(params, BitString(16, 0xBEEF), mode="bbs")
    assert len(calls) == 2 * params.r
    assert a.encrypt(BitString(12, 0xABC)) != b.encrypt(BitString(12, 0xABC))
    salt = prbg.derive_seed("ggm-expand", prbg.derive_seed("ggm-round", 0))
    assert prf._blum_params(salt) == real(32, prbg.derive_seed(salt, "modulus"))


# The Blum moduli (p, q, s) of the expander and finalizer streams of rounds 0..4, the
# rounds of the bbs golden in test_cli.py, as the code before the bbs stream seeded
# from state_stream drew them: the golden's prime-search verdicts stay pinned.
_GOLDEN_BLUM_PARAMS = (
    ((3667108259, 3366563191, 3146680844699926173), (2476389583, 3439619147, 868256970159732649)),
    ((2989951879, 3384563531, 34314046127535298), (3413024059, 4111313363, 1898624536105376498)),
    ((4038419491, 4157540071, 6255085714305928512), (4054895687, 2729875871, 924857028511699700)),
    ((3658839007, 2846088731, 6739049820579095653), (2386539691, 2292391331, 426064065218074853)),
    ((2699719427, 3422828719, 2201169771723094906), (3769066943, 3924373127, 4920043135316746441)),
)


def test_blum_params_of_the_golden_rounds_are_pinned():
    for i, pinned in enumerate(_GOLDEN_BLUM_PARAMS):
        salt = prbg.derive_seed("ggm-round", i)
        for label, pqs in zip(("ggm-expand", "ggm-final"), pinned):
            assert prf._blum_params(prbg.derive_seed(label, salt)) == prbg.BbsParams(*pqs)


def test_ggm_rejects_unknown_mode():
    with pytest.raises(ValueError):
        GgmFunctionOracle(4, 4, BitString(4, 1), mode="slow")


def test_split_master_key_slices():
    master = BitString(8, 0b10_01_11_00)
    keys = split_master_key(master, 4)
    assert keys == [BitString(2, 0b10), BitString(2, 0b01), BitString(2, 0b11), BitString(2, 0b00)]


def test_split_master_key_degenerate_and_errors():
    master = BitString(8, 0xAB)
    assert split_master_key(master, 1) == [master]
    with pytest.raises(ValueError):
        split_master_key(master, 3)
    with pytest.raises(ValueError):
        split_master_key(master, 0)


def test_callable_oracle_range_checked():
    f = CallableOracle(2, 2, lambda x: x + 3)
    with pytest.raises(ValueError):
        f.eval_int(2)


def test_zero_oracle():
    f = zero_oracle(4, 4)
    assert all(f.eval_int(v) == 0 for v in range(16))


def test_oracle_widths_validated():
    with pytest.raises(ValueError):
        zero_oracle(0, 4)
    with pytest.raises(ValueError):
        GgmFunctionOracle(4, 4, BitString(0, 0))


_GAMMA = 0x9E3779B97F4A7C15
# Round keys; key + gamma wraps past 2^64 for all but the first and the fourth.
_ROUND_KEYS = [0, (1 << 64) - _GAMMA, (1 << 64) - 1, 0x0123456789ABCDEF, _GAMMA]


def _round_inputs(in_bits):
    top = (1 << in_bits) - 1
    if in_bits <= 8:
        return list(range(top + 1))
    return [0, 1, 2, top // 3, top - 1, top]


@pytest.mark.parametrize("in_bits", [1, 3, 8, 32, 63, 64])
@pytest.mark.parametrize("out_bits", [1, 16, 31, 32, 33, 64])
def test_splitmix_round_matches_the_scalar_twin(in_bits, out_bits):
    # The round keeps key + gamma and adds x * gamma: z(key, x + 1) = z(key + gamma, x).
    # From out_bits 31 down it skips the finalizer's last xorshift; at 32 bit 63 still counts.
    def twin(key, x):
        return splitmix_scalar(key, x + 1) >> (64 - out_bits)

    xs = _round_inputs(in_bits)
    keys = [_ROUND_KEYS[i % len(_ROUND_KEYS)] for i in range(len(xs))]
    expected = [twin(key, x) for key, x in zip(keys, xs)]
    lanes = SplitMixRound(in_bits, out_bits, Lanes.of(keys))
    assert lanes.eval_int(Lanes.of(xs)).tolist() == expected
    arrays = SplitMixRound(in_bits, out_bits, np.array(keys, dtype=np.uint64))
    assert arrays.eval_int(np.array(xs, dtype=np.uint64)).tolist() == expected
    # A first round meets int blocks: one int x against every lane's key.
    lanes = SplitMixRound(in_bits, out_bits, Lanes.of(_ROUND_KEYS))
    for x in xs:
        assert lanes.eval_int(x).tolist() == [twin(key, x) for key in _ROUND_KEYS]


def test_splitmix_stream_matches_the_scalar_twin():
    expected = [[splitmix_scalar(key, j) for key in _ROUND_KEYS] for j in range(1, 5)]
    for start in (Lanes.of(_ROUND_KEYS), np.array(_ROUND_KEYS, dtype=np.uint64)):
        assert [z.tolist() for z in islice(splitmix_stream(start), 4)] == expected
