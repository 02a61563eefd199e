import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as hs

from feistel_lab.bits import BitString, BlockState, concat, partition, xor


def test_xor_definition():
    assert xor(BitString(4, 0b1010), BitString(4, 0b0110)) == BitString(4, 0b1100)


def test_xor_self_inverse_and_identity():
    for v in range(16):
        x = BitString(4, v)
        assert xor(x, x) == BitString(4, 0)
        assert xor(x, BitString(4, 0)) == x


def test_xor_width_mismatch():
    with pytest.raises(ValueError):
        xor(BitString(4, 1), BitString(5, 1))


def test_xor_commutative_exhaustive_width8():
    for a in range(0, 256, 7):
        for b in range(256):
            x, y = BitString(8, a), BitString(8, b)
            assert xor(x, y) == xor(y, x)


def test_xor_associative_exhaustive_width4():
    vals = [BitString(4, v) for v in range(16)]
    for a in vals:
        for b in vals:
            for c in vals:
                assert xor(xor(a, b), c) == xor(a, xor(b, c))


def test_concat_definition():
    out = concat(BitString(2, 0b10), BitString(3, 0b011))
    assert out == BitString(5, 0b10011)
    assert out.width == 5


def test_concat_split_round_trip():
    rng = random.Random(1)
    for _ in range(200):
        wa, wb = rng.randint(1, 12), rng.randint(1, 12)
        a = BitString(wa, rng.getrandbits(wa))
        b = BitString(wb, rng.getrandbits(wb))
        left, right = concat(a, b).split(a.width)
        assert (left, right) == (a, b)


def test_concat_many_blocks_width():
    n, k = 3, 4
    acc = BitString(n, 0)
    for _ in range(k):
        acc = concat(acc, BitString(n, 5))
    assert acc.width == (k + 1) * n


def test_concat_empty_is_identity():
    x = BitString(6, 0b101101)
    empty = BitString(0, 0)
    assert concat(x, empty) == x
    assert concat(empty, x) == x


def test_partition_definition():
    state = partition(BitString(6, 0b110110), 2)
    assert state.blocks == (BitString(2, 0b11), BitString(2, 0b01), BitString(2, 0b10))
    assert state.n == 2 and state.count == 3


def test_partition_degenerate_single_block():
    state = partition(BitString(4, 0b1111), 4)
    assert state.blocks == (BitString(4, 0b1111),)


def test_partition_non_divisible_errors():
    with pytest.raises(ValueError):
        partition(BitString(6, 0b101101), 4)


def test_partition_flatten_mutually_inverse():
    rng = random.Random(2)
    for n in range(1, 5):
        for count in range(1, 5):
            w = n * count
            x = BitString(w, rng.getrandbits(w))
            assert partition(x, n).flatten() == x


def test_text_form_example():
    x = BitString.parse("6:2D")
    assert x == BitString(6, 0b101101)
    assert x.text() == "6:2D"
    assert str(x) == "6:2D"


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
    for bad in ("2D", "6:2D4", "6:", "-1:0", "4:2Z"):
        with pytest.raises(ValueError):
            BitString.parse(bad)


def test_value_range_enforced():
    with pytest.raises(ValueError):
        BitString(3, 8)
    with pytest.raises(ValueError):
        BitString(-1, 0)


def test_equality_needs_width_and_value():
    assert BitString(4, 3) != BitString(5, 3)
    assert BitString(4, 3) == BitString(4, 3)


def test_bit_indexing_is_leftmost_first():
    x = BitString(6, 0b101101)
    assert [x.bit(i) for i in range(6)] == [1, 0, 1, 1, 0, 1]
    assert x.bits() == (1, 0, 1, 1, 0, 1)
    with pytest.raises(IndexError):
        x.bit(6)


def test_from_bits_and_complement():
    x = BitString.from_bits([1, 0, 1, 1, 0, 1])
    assert x == BitString(6, 0b101101)
    assert x.complement() == BitString(6, 0b010010)
    with pytest.raises(ValueError):
        BitString.from_bits([0, 2])


def test_block_state_rejects_mixed_widths():
    with pytest.raises(ValueError):
        BlockState.of(BitString(2, 1), BitString(3, 1))
    with pytest.raises(ValueError):
        BlockState(())
