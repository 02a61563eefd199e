import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from feistel_lab import feistel
from feistel_lab.bits import BitString, Lanes, split_blocks
from feistel_lab.feistel import (
    UfnKind,
    UfnParams,
    UfnPermutation,
    extend_block_cipher,
    ggm_ufn,
    ideal_ufn,
)
from feistel_lab.bench import _memoized_ufn
from feistel_lab.prf import IdealFunctionOracle, SplitMixRound
from scalar_twins import (CallableOracle, forward_blocks, inverse_blocks, join_blocks,
                          splitmix_scalar, zero_oracle)

B = BitString


def one_round(kind, f, state):
    """Encrypt the 2-bit blocks ``state`` through a one-round permutation with
    round function ``f``, check that decryption restores them, and return the
    output blocks."""
    count = len(state)
    perm = UfnPermutation(UfnParams(kind, 2, count - 1, 1), [f])
    x = B(2 * count, join_blocks(state, 2))
    y = perm.encrypt(x)
    assert perm.decrypt(y) == x
    return split_blocks(y.value, 2, count)


def test_partition_convention_shared_probe(leftmost_first_probe):
    flat, state, expected = leftmost_first_probe
    assert state == expected
    assert join_blocks(state, 2) == flat


def test_round_balanced_zero_function_swaps():
    out = one_round(UfnKind.BALANCED, zero_oracle(2, 2), (0b10, 0b01))
    assert out == (0b01, 0b10)


def test_round_balanced_identity_function():
    f = CallableOracle(2, 2, lambda x: x)
    out = one_round(UfnKind.BALANCED, f, (0b11, 0b01))
    assert out == (0b01, 0b10)


def test_round_balanced_inverse_composition():
    perm = ideal_ufn(UfnParams(UfnKind.BALANCED, 4, 1, 1), seed=5)
    for v in range(0, 256, 3):
        x = B(8, v)
        assert perm.decrypt(perm.encrypt(x)) == x


def test_round_source_heavy_zero_function_rotates():
    st = (0b11, 0b01, 0b10)
    out = one_round(UfnKind.SOURCE_HEAVY, zero_oracle(4, 2), st)
    assert out == (0b01, 0b10, 0b11)


def test_round_source_heavy_hand_trace():
    f = CallableOracle(4, 2, lambda x: (x >> 2) ^ (x & 3))
    st = (0b11, 0b01, 0b10)
    out = one_round(UfnKind.SOURCE_HEAVY, f, st)
    assert out == (0b01, 0b10, 0b00)


def test_round_source_heavy_inverse_exhaustive():
    perm = ideal_ufn(UfnParams(UfnKind.SOURCE_HEAVY, 2, 2, 1), seed=6)
    for v in range(64):
        x = B(6, v)
        assert perm.decrypt(perm.encrypt(x)) == x


def test_round_target_heavy_hand_trace():
    f = CallableOracle(2, 4, lambda x: (x << 2) | x)
    out = one_round(UfnKind.TARGET_HEAVY, f, (0b00, 0b01, 0b11))
    assert out == (0b11, 0b11, 0b10)


def test_round_target_heavy_zero_function():
    st = (0b10, 0b01, 0b11)
    out = one_round(UfnKind.TARGET_HEAVY, zero_oracle(2, 4), st)
    assert out == (0b11, 0b10, 0b01)


def test_round_target_heavy_inverse_exhaustive():
    perm = ideal_ufn(UfnParams(UfnKind.TARGET_HEAVY, 2, 2, 1), seed=7)
    for v in range(64):
        x = B(6, v)
        assert perm.decrypt(perm.encrypt(x)) == x


def test_round_ufn2_hand_trace():
    f = CallableOracle(2, 2, lambda x: x ^ 3)
    out = one_round(UfnKind.UFN2, f, (0b00, 0b01, 0b11))
    assert out == (0b11, 0b00, 0b01)


def test_round_ufn2_zero_function_rotates():
    st = (0b00, 0b01, 0b11)
    out = one_round(UfnKind.UFN2, zero_oracle(2, 2), st)
    assert out == (0b11, 0b00, 0b01)


def test_round_ufn2_even_k_preserves_xor_sum():
    # k=2: sum in = 00^01^11 = 10; any round function keeps it.
    f = CallableOracle(2, 2, lambda x: x ^ 3)
    st = (0b00, 0b01, 0b11)
    out = one_round(UfnKind.UFN2, f, st)
    sum_in = st[0] ^ st[1] ^ st[2]
    sum_out = out[0] ^ out[1] ^ out[2]
    assert sum_in == sum_out == 0b10


def test_ufn2_even_k_conservation_exhaustive():
    for r in range(1, 7):
        perm = ideal_ufn(UfnParams(UfnKind.UFN2, 2, 2, r), seed=r)
        for v in range(64):
            x = B(6, v)
            y = perm.encrypt(x)
            sx = (v >> 4) ^ ((v >> 2) & 3) ^ (v & 3)
            sy = (y.value >> 4) ^ ((y.value >> 2) & 3) ^ (y.value & 3)
            assert sx == sy


_M64 = (1 << 64) - 1


@hs.composite
def _round_cases(draw):
    """A kind with n and k such that (k+1)n <= 64, an operand type, and per operand
    element a state and a round key."""
    kind = draw(hs.sampled_from(list(UfnKind)))
    k = 1 if kind is UfnKind.BALANCED else draw(hs.integers(1, 63))
    n = draw(hs.integers(1, 64 // (k + 1)))
    operand = draw(hs.sampled_from(["int", "lanes", "numpy"]))
    count = 1 if operand == "int" else draw(hs.integers(1, 256))
    params = UfnParams(kind, n, k, 1)
    states = hs.integers(0, (1 << params.state_bits) - 1)
    xs = draw(hs.lists(states, min_size=count, max_size=count))
    keys = draw(hs.lists(hs.integers(0, _M64), min_size=count, max_size=count))
    return params, operand, xs, keys


def _round_operands(params, operand, xs, keys):
    """The states ``xs`` as one operand, a round function keyed elementwise by
    ``keys``, and the operand's values as a list."""
    in_bits, out_bits = params.round_in_bits, params.round_out_bits
    if operand == "int":
        f = CallableOracle(in_bits, out_bits,
                           lambda x: splitmix_scalar(keys[0], x + 1) >> (64 - out_bits))
        return xs[0], f, lambda v: [v]
    pack = Lanes.of if operand == "lanes" else (lambda v: np.array(v, dtype=np.uint64))
    return pack(xs), SplitMixRound(in_bits, out_bits, pack(keys)), lambda v: v.tolist()


@settings(max_examples=100, deadline=None)
@given(case=_round_cases())
@example(case=(UfnParams(UfnKind.SOURCE_HEAVY, 1, 63, 1), "lanes", [_M64] * 256, [_M64] * 256))
@example(case=(UfnParams(UfnKind.TARGET_HEAVY, 32, 1, 1), "numpy", [_M64, 0], [0, _M64]))
@example(case=(UfnParams(UfnKind.UFN2, 16, 3, 1), "int", [_M64 - 5], [7]))
@example(case=(UfnParams(UfnKind.UFN2, 2, 31, 1), "lanes", [1, 2, 3], [4, 5, 6]))
def test_round_map_matches_the_block_twin(case):
    """One map on the joined state equals the per-kind block rounds of
    ``scalar_twins``, forwards and back, on ints, ``Lanes`` and uint64 arrays."""
    params, operand, xs, keys = case
    n, count = params.n, params.k + 1
    x, f, values = _round_operands(params, operand, xs, keys)
    y = feistel._forward(params, f, x)
    back = feistel._inverse(params, f, y)
    assert values(y) == values(join_blocks(forward_blocks(params, f, split_blocks(x, n, count)), n))
    assert values(back) == xs
    twin_back = inverse_blocks(params, f, split_blocks(y, n, count))
    assert values(back) == values(join_blocks(twin_back, n))


def test_zero_function_rotation_composes():
    # Three zero-function rounds rotate the three blocks all the way around.
    params = UfnParams(UfnKind.SOURCE_HEAVY, 2, 2, 3)
    perm = UfnPermutation(params, [zero_oracle(4, 2)] * 3)
    x = B(6, 0b110110)
    assert perm.encrypt(x) == x


def test_encrypt_decrypt_random_rounds():
    for kind in UfnKind:
        k = 1 if kind is UfnKind.BALANCED else 2
        params = UfnParams(kind, 2, k, 5)
        perm = ideal_ufn(params, seed=13)
        for v in range(1 << params.state_bits):
            x = B(params.state_bits, v)
            assert perm.decrypt(perm.encrypt(x)) == x


@settings(max_examples=150, deadline=None)
@given(
    kind=hs.sampled_from(list(UfnKind)),
    n=hs.integers(1, 24),
    k=hs.integers(1, 5),
    r=hs.integers(1, 8),
    x=hs.integers(0, (1 << 144) - 1),
    seed=hs.integers(0, 1 << 32),
)
@example(kind=UfnKind.SOURCE_HEAVY, n=24, k=5, r=7, x=(1 << 144) - 1, seed=0)
@example(kind=UfnKind.TARGET_HEAVY, n=20, k=4, r=6, x=(1 << 99) + 12345, seed=1)
@example(kind=UfnKind.UFN2, n=16, k=5, r=11, x=(1 << 95) - 3, seed=2)
@example(kind=UfnKind.BALANCED, n=40, k=1, r=3, x=(1 << 79) + 1, seed=3)
def test_decrypt_inverts_encrypt(kind, n, k, r, x, seed):
    # States reach 144 bits, well past one machine word.
    if kind is UfnKind.BALANCED:
        k = 1
    params = UfnParams(kind, n, k, r)
    perm = ideal_ufn(params, seed=seed)
    x = B(params.state_bits, x % (1 << params.state_bits))
    y = perm.encrypt(x)
    assert perm.decrypt(y) == x
    assert perm.query(x.value) == y.value
    assert join_blocks(perm.trace_states(x.value)[-1], n) == y.value


def test_bijectivity_small_grid():
    for kind in (UfnKind.SOURCE_HEAVY, UfnKind.TARGET_HEAVY, UfnKind.UFN2):
        for k in (1, 2, 3):
            for r in (1, 2, 3, 4):
                params = UfnParams(kind, 2, k, r)
                perm = ideal_ufn(params, seed=17)
                outs = {perm.encrypt(B(params.state_bits, v)).value
                        for v in range(1 << params.state_bits)}
                assert len(outs) == 1 << params.state_bits


def test_all_kinds_coincide_at_k1():
    # With the same n->n round functions the four definitions agree block
    # for block when k == 1.
    rng_oracles = [CallableOracle(2, 2, (lambda c: (lambda x: (x * 3 + c) & 3))(c)) for c in range(3)]
    perms = [
        UfnPermutation(UfnParams(kind, 2, 1, 3), rng_oracles)
        for kind in (UfnKind.BALANCED, UfnKind.SOURCE_HEAVY, UfnKind.TARGET_HEAVY, UfnKind.UFN2)
    ]
    for v in range(16):
        x = B(4, v)
        outs = {perm.encrypt(x) for perm in perms}
        assert len(outs) == 1


def test_trace_states_consistent_with_encrypt():
    params = UfnParams(UfnKind.UFN2, 2, 3, 5)
    perm = ideal_ufn(params, seed=23)
    x = 0b10110100
    states = perm.trace_states(x)
    assert len(states) == 6
    assert states[0] == (0b10, 0b11, 0b01, 0b00)
    assert join_blocks(states[-1], 2) == perm.encrypt(B(8, x)).value


def test_constructor_validates_oracle_signature():
    params = UfnParams(UfnKind.SOURCE_HEAVY, 2, 2, 2)
    with pytest.raises(ValueError):
        UfnPermutation(params, [zero_oracle(2, 2), zero_oracle(2, 2)])
    with pytest.raises(ValueError):
        UfnPermutation(params, [zero_oracle(4, 2)])


def test_params_validation():
    with pytest.raises(ValueError):
        UfnParams(UfnKind.BALANCED, 2, 2, 1)
    with pytest.raises(ValueError):
        UfnParams(UfnKind.UFN2, 0, 2, 1)
    with pytest.raises(ValueError):
        UfnParams(UfnKind.UFN2, 2, 2, 0)


def test_width_mismatch_errors():
    perm = ideal_ufn(UfnParams(UfnKind.UFN2, 2, 2, 2), seed=3)
    with pytest.raises(ValueError):
        perm.encrypt(B(4, 0))
    with pytest.raises(ValueError):
        perm.decrypt(B(7, 0))
    for x in (1 << 6, -1):
        for method in (perm.query, perm.trace_states):
            with pytest.raises(ValueError, match="state does not fit in 6 bits"):
                method(x)
    assert perm.query_count == 0
    # The refusal names the width alone: a state past Python's int-to-str digit
    # limit has no decimal text to write.
    balanced = ideal_ufn(UfnParams(UfnKind.BALANCED, 4, 1, 3), seed=3)
    for x in (1 << 20000, -(1 << 20000)):
        for method in (balanced.query, balanced.trace_states):
            with pytest.raises(ValueError, match="state does not fit in 8 bits"):
                method(x)
    assert balanced.query_count == 0


def test_ggm_ufn_is_deterministic():
    params = UfnParams(UfnKind.TARGET_HEAVY, 2, 2, 4)
    master = B(32, 0xDEADBEEF)
    a = ggm_ufn(params, master)
    b = ggm_ufn(params, master)
    for v in range(0, 64, 5):
        x = B(6, v)
        assert a.encrypt(x) == b.encrypt(x)
        assert a.decrypt(a.encrypt(x)) == x


def test_extend_block_cipher_shape():
    wide = extend_block_cipher(lambda i: IdealFunctionOracle(8, 8, i), n=8, k=3)
    assert wide.width == 32
    assert wide.params.r == 7
    assert wide.params.kind is UfnKind.UFN2


def test_extend_block_cipher_rejects_even_k():
    with pytest.raises(ValueError, match="single-query"):
        extend_block_cipher(lambda i: IdealFunctionOracle(8, 8, i), n=8, k=2)
    # The invariant behind the rejection: with k even, every round keeps the
    # XOR of all blocks.
    wide = UfnPermutation(UfnParams(UfnKind.UFN2, 8, 2, 5),
                          [IdealFunctionOracle(8, 8, i) for i in range(5)])
    for v in (0, 1, 0x123456, 0xA5A5A5, 0xFFFFFF):
        x = B(24, v)
        xor_in = xor_out = 0
        for a, b in zip(split_blocks(x.value, 8, 3), split_blocks(wide.encrypt(x).value, 8, 3)):
            xor_in ^= a
            xor_out ^= b
        assert xor_in == xor_out, v


def test_extend_block_cipher_bijective():
    wide = extend_block_cipher(lambda i: IdealFunctionOracle(2, 2, 100 + i), n=2, k=3)
    outs = {wide.encrypt(B(8, v)).value for v in range(256)}
    assert len(outs) == 256
    for v in range(256):
        x = B(8, v)
        assert wide.decrypt(wide.encrypt(x)) == x


def test_ideal_round_oracles_are_independent():
    params = UfnParams(UfnKind.UFN2, 4, 3, 4)
    oracles = ideal_ufn(params, seed=9).rounds
    assert len({o.eval_int(5) for o in oracles} | {o.eval_int(9) for o in oracles}) > 1


def _table_sizes(perm):
    """Entries of each round's memo table under ``bench._memoized_ufn``."""
    return [f.eval_int.cache_info().currsize for f in perm.rounds]


@settings(max_examples=60, deadline=None)
@given(
    kind=hs.sampled_from(list(UfnKind)),
    r=hs.integers(1, 7),
    seed=hs.integers(0, 1 << 32),
    data=hs.data(),
)
def test_ideal_ufn_values_do_not_depend_on_the_query_order(kind, r, seed, data):
    params = UfnParams(kind, 3, 1 if kind is UfnKind.BALANCED else 2, r)
    states = data.draw(hs.lists(hs.integers(0, (1 << params.state_bits) - 1), min_size=1,
                                max_size=40, unique=True))
    shuffled = data.draw(hs.permutations(states))
    a, b = ideal_ufn(params, seed), ideal_ufn(params, seed)
    assert {x: b.query(x) for x in shuffled} == {x: a.query(x) for x in states}
    # Under bench's memo tables, both orders leave the same tables.
    a, b = _memoized_ufn(params, seed), _memoized_ufn(params, seed)
    assert {x: b.query(x) for x in shuffled} == {x: a.query(x) for x in states}
    assert _table_sizes(a) == _table_sizes(b)
    # A table per round: a round trip of one block shows each round one input.
    one = _memoized_ufn(params, seed)
    x = B(params.state_bits, states[0])
    assert one.decrypt(one.encrypt(x)) == x
    assert _table_sizes(one) == [1] * r


def test_a_fresh_ideal_ufn_decrypts_blocks_in_shuffled_order():
    # As encrypt and decrypt --prf ideal do: each builds its own instance and
    # visits the rounds in the opposite order.
    rng = random.Random(41)
    for kind in UfnKind:
        params = UfnParams(kind, 2, 1 if kind is UfnKind.BALANCED else 3, 5)
        width = params.state_bits
        encryptor = ideal_ufn(params, seed=B(16, 0xBEEF))
        pairs = [(x, encryptor.encrypt(B(width, x))) for x in range(1 << width)]
        rng.shuffle(pairs)
        decryptor = ideal_ufn(params, seed=B(16, 0xBEEF))
        assert [decryptor.decrypt(y).value for _, y in pairs] == [x for x, _ in pairs]


def test_ideal_ufn_replays_from_its_seed():
    params = UfnParams(UfnKind.SOURCE_HEAVY, 3, 2, 5)
    a = ideal_ufn(params, seed=21)
    b = ideal_ufn(params, seed=21)
    for v in (0, 511, 7, 300, 7, 128):
        x = B(9, v)
        assert a.encrypt(x) == b.encrypt(x)
        assert a.decrypt(x) == b.decrypt(x)
    other = ideal_ufn(params, seed=22)
    assert any(other.encrypt(B(9, v)) != a.encrypt(B(9, v)) for v in range(512))


def test_last_input_memo_returns_the_round_values():
    # Seedless: behind the memo a round returns what it computes, on ints and on Lanes,
    # for repeated and alternating inputs, and it evaluates an input again only when it
    # differs in class or value from the one before.
    keys = Lanes.of(range(1, 9))
    plain = [SplitMixRound(4, 8, keys), SplitMixRound(8, 4, keys ^ 5)]
    calls = [0, 0]

    def counted(i, f):
        def eval_int(x):
            calls[i] += 1
            return f.eval_int(x)
        return SimpleNamespace(in_bits=f.in_bits, out_bits=f.out_bits, eval_int=eval_int)

    memo = feistel.last_input_memo([counted(i, f) for i, f in enumerate(plain)])
    a, b = Lanes.of(range(8)), Lanes.of([3] * 8)
    inputs = [0, 0, 3, 0, 3, 3, a, Lanes.of(range(8)), b, a, b, b, 0, a]
    for i, f in enumerate(plain):
        assert (memo[i].in_bits, memo[i].out_bits) == (f.in_bits, f.out_bits)
        for x in inputs:
            assert memo[i].eval_int(x) == f.eval_int(x)
    changes = sum(x.__class__ is not y.__class__ or x != y for x, y in zip(inputs, inputs[1:]))
    assert calls == [changes + 1] * 2
