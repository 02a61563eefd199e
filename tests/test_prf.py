import pytest

from feistel_lab import prf
from feistel_lab.bits import BitString
from feistel_lab.prf import (
    CallableOracle,
    GgmFunctionOracle,
    GgmKey,
    ggm_eval,
    ggm_walk_states,
    ideal_oracle,
    split_master_key,
    zero_oracle,
)


def test_ideal_oracle_memoizes():
    f = ideal_oracle(6, 4, seed=1)
    assert f.eval_int(0b101010) == f.eval_int(0b101010)


def test_ideal_oracle_table_grows_with_distinct_queries():
    f = ideal_oracle(8, 4, seed=2)
    for q, v in enumerate([3, 9, 3, 77, 9, 100]):
        f.eval_int(v)
    assert f.table_size == 4
    assert f.payload_bits == 4 * 4


def test_ideal_oracle_output_width():
    f = ideal_oracle(5, 9, seed=3)
    for v in range(32):
        assert 0 <= f.eval_int(v) < 1 << 9


def test_ideal_oracle_seed_separation():
    a = ideal_oracle(8, 8, seed=10)
    b = ideal_oracle(8, 8, seed=11)
    assert any(a.eval_int(v) != b.eval_int(v) for v in range(100))


def test_ideal_oracle_table_cap(monkeypatch):
    monkeypatch.setattr(prf, "DEFAULT_TABLE_CAP", 4)
    f = ideal_oracle(8, 4, seed=4)
    for v in range(4):
        f.eval_int(v)
    f.eval_int(0)  # replay is fine
    with pytest.raises(RuntimeError):
        f.eval_int(200)


def test_ideal_oracle_per_bit_frequency():
    # Exhaust a 10-bit domain with 10-bit outputs: 10240 sample bits.
    f = ideal_oracle(10, 10, seed=5)
    ones = sum(bin(f.eval_int(v)).count("1") for v in range(1 << 10))
    freq = ones / (10 * (1 << 10))
    assert 0.45 <= freq <= 0.55


def _stub_key(key_bits):
    # G(x) = x || complement(x), G' = identity.
    return GgmKey(
        key=key_bits,
        expander=lambda s: s.concat(s.complement()),
        finalizer=lambda s: s,
    )


def test_ggm_stub_hand_trace():
    # key=01, x=10: 1-branch of G(01)=01||10 gives 10, then 0-branch of
    # G(10)=10||01 gives 10; identity finalizer keeps 10.
    key = _stub_key(BitString(2, 0b01))
    assert ggm_eval(key, BitString(2, 0b10)) == BitString(2, 0b10)


def test_ggm_empty_input_finalizes_key():
    key = _stub_key(BitString(2, 0b01))
    assert ggm_eval(key, BitString(0, 0)) == BitString(2, 0b01)


def test_ggm_deterministic():
    f = GgmFunctionOracle(6, 4, BitString(8, 0xA5), mode="fast")
    assert f.eval_int(0b110101) == f.eval_int(0b110101)


def test_ggm_prefix_property():
    # Inputs sharing a j-bit prefix walk through identical first j+1 states.
    key = GgmKey(
        key=BitString(8, 0x3C),
        expander=lambda s: s.concat(s.complement()),
        finalizer=lambda s: s,
    )
    x = BitString(6, 0b101100)
    y = BitString(6, 0b101011)  # shares the 3-bit prefix 101
    sx = ggm_walk_states(key, x)
    sy = ggm_walk_states(key, y)
    assert sx[:4] == sy[:4]
    assert sx[4] != sy[4]


def test_ggm_expander_must_double():
    bad = GgmKey(
        key=BitString(4, 0b0011),
        expander=lambda s: s,
        finalizer=lambda s: s,
    )
    with pytest.raises(ValueError):
        ggm_eval(bad, BitString(2, 0b01))


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
