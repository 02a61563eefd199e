import hashlib
import math
import sys
import time
from itertools import permutations

import pytest
from hypothesis import example, given
from hypothesis import strategies as hs

from feistel_lab import prbg
from feistel_lab.bits import BitString
from feistel_lab.prbg import (
    BbsGenerator,
    BbsParams,
    BmGenerator,
    BmParams,
    FastBitGenerator,
    bbs_generate,
    bm_generate,
    derive_seed,
    generate_bbs_params,
    is_generator,
    is_probable_prime,
    state_stream,
)
from feistel_lab.prbg import _random_bases, _strong_probable_prime
from scalar_twins import shake_leading_bits, state_bytes


def _sieve_primes(limit):
    flags = [True] * limit
    flags[0] = flags[1] = False
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            for j in range(i * i, limit, i):
                flags[j] = False
    return flags


def test_probable_prime_matches_sieve():
    flags = _sieve_primes(100_001)
    for num in range(100_001):
        assert is_probable_prime(num) == flags[num], num


# The least strong pseudoprimes to the first twelve and thirteen prime bases
# (Sorenson and Webster 2017). Written out here, not imported: a fixed-base
# path bounded by PSI_13 instead of PSI_12 would accept PSI_12.
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


@pytest.mark.parametrize("num", [
    561, 1105, 1729,  # Carmichael numbers
    3215031751,  # strong pseudoprime to the bases 2, 3, 5, 7
    3825123056546413051,  # strong pseudoprime to the bases 2..23
    PSI_12,
    PSI_13,
])
def test_probable_prime_rejects_pseudoprimes(num):
    assert not is_probable_prime(num)


@pytest.mark.parametrize("num", [
    (1 << 61) - 1,
    (1 << 64) - 59,
    PSI_12 - 20,  # the largest prime below PSI_12, found with random bases
])
def test_probable_prime_accepts_primes(num):
    assert is_probable_prime(num)


def test_largest_prime_below_psi_12_by_random_bases():
    below = PSI_12 - 20
    assert _strong_probable_prime(below, _random_bases(below, 64))
    for num in range(below + 2, PSI_12, 2):
        assert not _strong_probable_prime(num, _random_bases(num, 64)), num


def test_fixed_bases_agree_with_random_bases():
    # Odd integers of 16 to 80 bits: both sides of 2^64, and the 79- and
    # 80-bit ones lie above PSI_12 (about 2^78.1), on the random-base path.
    rng = FastBitGenerator(derive_seed("primality-gate"))
    primes = 0
    for _ in range(12_000):
        bits = 16 + rng.next_int(16) % 65
        num = rng.next_int(bits) | (1 << (bits - 1)) | 1
        expected = _strong_probable_prime(num, _random_bases(num, 64))
        assert is_probable_prime(num) == expected, num
        primes += expected
    assert primes > 100


def test_is_generator_matches_order_oracle():
    p = 23

    def order(g):
        x, e = g % p, 1
        while x != 1:
            x = x * g % p
            e += 1
        return e

    for g in range(1, p):
        assert is_generator(g, p) == (order(g) == p - 1), g
    assert not is_generator(0, p) and not is_generator(p, p)


def _dlog_oracle(p, g):
    table = {}
    x = 1
    for e in range(p - 1):
        table[x] = e
        x = x * g % p
    return table


def test_bm_first_bit_against_dlog_oracle():
    # x1 = 5^3 mod 23 = 10; the oracle decides the emitted bit.
    p, g, x0 = 23, 5, 3
    table = _dlog_oracle(p, g)
    x1 = pow(g, x0, p)
    assert x1 == 10
    expected = 1 if table[x1] <= (p - 1) // 2 else 0
    assert bm_generate(BmParams(p, g, x0), 1) == BitString(1, expected)


def test_bm_stream_against_dlog_oracle():
    p, g, x0 = 23, 5, 3
    table = _dlog_oracle(p, g)
    half = (p - 1) // 2
    x = x0
    expected_bits = []
    for _ in range(50):
        x = pow(g, x, p)
        expected_bits.append(1 if table[x] <= half else 0)
    expected = BitString(50, int("".join(map(str, expected_bits)), 2))
    assert bm_generate(BmParams(p, g, x0), 50) == expected


def _table_twin_bits(p, g, x0, count):
    """The discrete-log stream read off a brute-force log table: step x <- g^x mod p,
    then emit 1 iff the table's log of x is at most (p-1)/2."""
    table = _dlog_oracle(p, g)
    x, value = x0, 0
    for _ in range(count):
        x = pow(g, x, p)
        value = value << 1 | (table[x] <= (p - 1) // 2)
    return BitString(count, value)


def test_bm_bits_from_the_state_match_the_log_table_on_every_small_instance():
    # Every prime p < 64, every generator g and every start x0, 2(p-1) bits each;
    # and the Fermat prime 65537 at a few starts, both ends of [0, p) included.
    flags = _sieve_primes(64)
    cases = [(p, g, x0, 2 * (p - 1)) for p in range(64) if flags[p]
             for g in range(1, p) if is_generator(g, p) for x0 in range(p)]
    cases += [(65537, 3, x0, 4096) for x0 in (0, 1, 2, 32768, 65535, 65536)]
    started = time.perf_counter()
    for p, g, x0, count in cases:
        assert bm_generate(BmParams(p, g, x0), count) == _table_twin_bits(p, g, x0, count), (
            p, g, x0)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"took {elapsed:.1f}s"  # 0.6 s on a 2-core desk machine


def test_bm_generator_builds_no_table():
    # At the largest prime under the cap, a log table would hold about 2^20 entries.
    started = time.perf_counter()
    gen = BmGenerator(BmParams(1048573, 2, 5))
    assert time.perf_counter() - started < 0.05
    assert set(vars(gen)) == {"params", "_x"}


def test_bm_empty_and_deterministic():
    params = BmParams(23, 5, 3)
    assert bm_generate(params, 0) == BitString(0, 0)
    assert bm_generate(params, 40) == bm_generate(params, 40)


def test_bm_states_stay_in_group_and_cycle():
    # Exhaustive at p=23: from every start the state sequence lives in
    # {1..22} and revisits a state within p steps.
    p, g = 23, 5
    for x0 in range(p):
        seen = set()
        x = x0
        for _ in range(p + 1):
            x = pow(g, x, p)
            assert 1 <= x <= p - 1
            if x in seen:
                break
            seen.add(x)
        else:
            pytest.fail(f"no cycle found from x0={x0}")


def test_bm_rejects_large_modulus():
    # Find the first prime above the table limit and some generator for it.
    p = (1 << 20) + 1
    while not is_probable_prime(p):
        p += 2
    g = 2
    while not is_generator(g, p):
        g += 1
    with pytest.raises(ValueError, match=f"modulus {p} exceeds {1 << 20}"):
        BmParams(p, g, 1)


def test_bm_refuses_a_negative_bit_count():
    with pytest.raises(ValueError, match="count must be >= 0"):
        BmGenerator(BmParams(23, 5, 3)).next_bits(-1)


def test_bm_params_validation():
    with pytest.raises(ValueError):
        BmParams(24, 5, 1)  # composite
    with pytest.raises(ValueError):
        BmParams(23, 4, 1)  # order(4) = 11 < 22
    with pytest.raises(ValueError):
        BmParams(23, 5, 23)  # start out of range


def test_bbs_sequence_against_squaring_oracle():
    params = BbsParams(7, 11, 2)
    assert params.n == 77 and params.x0 == 4

    x = 4
    expected = []
    for _ in range(1000):
        x = x * x % 77
        expected.append(x & 1)
    assert expected[:3] == [0, 1, 1]
    assert bbs_generate(params, 1000) == BitString(1000, int("".join(map(str, expected)), 2))


def test_bbs_states_are_quadratic_residues():
    residues = {v * v % 77 for v in range(77)}
    x = 4
    for _ in range(1000):
        x = x * x % 77
        assert x in residues


def test_bbs_params_derive_n_and_x0():
    # n = 77 and x0 = 2^2 are stored fields, not properties: the stream reads n every step.
    assert vars(BbsParams(7, 11, 2)) == {"p": 7, "q": 11, "s": 2, "n": 77, "x0": 4}


def test_bbs_empty_and_deterministic():
    params = BbsParams(7, 11, 2)
    assert bbs_generate(params, 0) == BitString(0, 0)
    assert bbs_generate(params, 64) == bbs_generate(params, 64)


def test_bbs_params_validation():
    with pytest.raises(ValueError):
        BbsParams(5, 11, 2)  # 5 % 4 == 1
    with pytest.raises(ValueError):
        BbsParams(7, 9, 2)  # 9 composite
    with pytest.raises(ValueError):
        BbsParams(7, 11, 7)  # gcd(7, 77) != 1
    # n and x0 follow from p, q and s, so neither can be passed.
    for derived in ({"n": 77}, {"x0": 4}):
        with pytest.raises(TypeError):
            BbsParams(p=7, q=11, s=2, **derived)
    with pytest.raises(ValueError, match="Blum integer"):
        BbsParams(7, 7, 2)  # n = p^2


def test_bbs_reseed_is_deterministic():
    params = BbsParams(7, 11, 2)
    a = BbsGenerator(params)
    b = BbsGenerator(params)
    a.reseed(1234)
    b.reseed(1234)
    assert a.next_bits(128) == b.next_bits(128)


def test_generate_bbs_params_smallest_space():
    # 5 bits is the shortest length with two Blum primes (19, 23 and 31).
    for entropy in range(20):
        params = generate_bbs_params(5, entropy)
        assert params.p % 4 == 3 and params.q % 4 == 3
        assert params.p != params.q
        assert {params.p, params.q} <= {19, 23, 31}
        assert params.n == params.p * params.q
        assert math.gcd(params.s, params.n) == 1


@pytest.mark.parametrize("bit_length", [3, 4])
def test_generate_bbs_params_rejects_one_prime_lengths(bit_length):
    # 7 and 11 are the only Blum primes of 3 and 4 bits: n = p^2 is no Blum integer.
    with pytest.raises(ValueError, match=f"{bit_length} bits"):
        generate_bbs_params(bit_length, 1)


# Values computed by the code before fixed-base primality: the same verdicts
# must give the same moduli, streams and ciphertexts bit for bit.
@pytest.mark.parametrize("entropy, p, q, s", [
    (1, 2565333139, 2319199783, 1951394096747801242),
    ("golden", 3559119023, 4017295027, 364200965516369426),
])
def test_generate_bbs_params_golden(entropy, p, q, s):
    assert generate_bbs_params(32, entropy) == BbsParams(p, q, s)


def test_generate_bbs_params_deterministic():
    assert generate_bbs_params(16, 42) == generate_bbs_params(16, 42)
    assert generate_bbs_params(16, 42) != generate_bbs_params(16, 43)


def test_generate_bbs_params_rejects_tiny():
    with pytest.raises(ValueError):
        generate_bbs_params(2, 1)


def test_fast_generator_replayable():
    a = FastBitGenerator(7).next_bits(1_000_000)
    b = FastBitGenerator(7).next_bits(1_000_000)
    assert a == b


def test_fast_generator_seed_separation():
    for i in range(100):
        a = FastBitGenerator(derive_seed("pair", i, 0)).next_bits(128)
        b = FastBitGenerator(derive_seed("pair", i, 1)).next_bits(128)
        assert a != b, i


def test_fast_generator_ones_frequency():
    bits = FastBitGenerator(123).next_bits(1_000_000)
    ones = bin(bits.value).count("1")
    assert 0.49 <= ones / 1_000_000 <= 0.51


def test_bit_string_seeds_hash_hex_text_past_the_digit_limit():
    """A bit string is hashed as its width and its value in lowercase hex, so
    ``sys.get_int_max_str_digits()`` limits no width; ``state_stream`` writes the value
    as bytes."""
    limit = sys.get_int_max_str_digits()
    try:
        for digits, widest in ((4300, 14284), (640, 2126)):
            sys.set_int_max_str_digits(digits)
            for value in (0, 1, (1 << widest) - 1, (1 << widest + 1) - 1):
                hex_digits = state_bytes(widest + 1, value).hex().lstrip("0") or "0"
                text = f"b{widest + 1}.{hex_digits}"
                assert derive_seed(BitString(widest + 1, value)) == int.from_bytes(
                    hashlib.sha256(text.encode()).digest()[:8], "big")
                head = f"7\x1fb{widest + 1}.".encode()
                assert state_stream(widest + 1, 8, 7)(value) == shake_leading_bits(
                    head + state_bytes(widest + 1, value), 8)
    finally:
        sys.set_int_max_str_digits(limit)


def test_derive_seed_stable_and_separating():
    assert derive_seed("a", 1) == derive_seed("a", 1)
    assert derive_seed("a", 1) != derive_seed("a", 2)
    assert derive_seed("a", 1) != derive_seed("b", 1)
    assert derive_seed(BitString(4, 3)) == derive_seed(BitString(4, 3))
    assert derive_seed(BitString(4, 3)) != derive_seed(BitString(5, 3))


@pytest.mark.parametrize("label", ["", "1", "-3", "0", "b4.5", "b4.a", "(1, 2)", "()", "a\x1fb"])
def test_derive_seed_refuses_labels_that_read_as_other_parts(label):
    with pytest.raises(ValueError):
        derive_seed("ok", label)


@pytest.mark.parametrize("part", [1.5, None, True, b"ab", (1, 2.0), (("x", None),)])
def test_derive_seed_refuses_other_part_types(part):
    with pytest.raises(TypeError):
        derive_seed("ok", part)


_INTS = hs.integers(-3, 3) | hs.integers()
# Widths to 8 bits: from value 10 on, a bit string's hex text is not its decimal text.
_BITSTRINGS = hs.integers(0, 8).flatmap(
    lambda w: hs.integers(0, (1 << w) - 1).map(lambda v: BitString(w, v)))
_TUPLES = hs.lists(
    hs.recursive(_INTS | _BITSTRINGS | hs.text(max_size=2),
                 lambda inner: hs.lists(inner, max_size=2).map(tuple), max_leaves=4),
    max_size=3,
).map(tuple)
# Labels that mimic the text of the other parts, so that a collision turns up
# if one is possible.
_LABELS = (hs.text(max_size=4) | _INTS.map(str)
           | _BITSTRINGS.map(lambda b: f"b{b.width}.{b.value:x}") | _TUPLES.map(str)
           | _TUPLES.map(prbg._canonical)
           | hs.lists(hs.text(max_size=2), min_size=2, max_size=3).map("\x1f".join))
_PARTS = _INTS | _BITSTRINGS | _TUPLES | _LABELS


@hs.composite
def _part_sequences(draw):
    """Part sequences, then labels that copy the text of a part or a whole sequence
    drawn before them: a label accepted with such a text is a collision."""
    sequences = draw(hs.lists(hs.lists(_PARTS, max_size=3).map(tuple), max_size=16))
    texts = []
    for parts in sequences:
        try:
            words = [prbg._canonical(p) for p in parts]
        except (TypeError, ValueError):
            continue
        texts += [*words, "\x1f".join(words)]
    if texts:
        sequences += [(text,) for text in draw(hs.lists(hs.sampled_from(texts), max_size=8))]
    return sequences


@given(_part_sequences())
@example([(1,), ("1",)])
@example([(BitString(4, 5),), ("b4.5",)])
@example([(BitString(4, 10),), ("b4.a",)])
@example([((1, 2),), ("(1, 2)",)])
@example([((BitString(4, 10),),), ("(b4.a,)",)])
@example([("a\x1fb",), ("a", "b")])
@example([(), ("",)])
def test_derive_seed_text_is_injective_on_accepted_parts(candidates):
    owner = {}
    for parts in candidates:
        try:
            text = "\x1f".join(prbg._canonical(p) for p in parts)
        except (TypeError, ValueError):
            continue
        assert owner.setdefault(text, parts) == parts


# A tuple without a bit string is written as its repr, so these seeds keep the values
# they had when every tuple was: derive_seed(*parts) is the first 8 bytes of the SHA-256.
@pytest.mark.parametrize("parts, sha256", [
    (((),), "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d"),
    ((("a", 1),), "391d545b6971354e834fd411e6fbe505e95fecd5e47e32c196b7766ea4deda4c"),
    (((1,),), "28cb03b06c288e88c6a880eeba293bf9c9bb9fa586128586459a486a511f832f"),
    (((-7, ("x", (2, "y")), "z\x1f"), "lbl", 3),
     "d51886baaddea64b5ee173d6dd035ec154a079a550435095c30602561e4a81bc"),
    (((("",),),), "419567e3180a1529f0cd185e501bd3367d138f76e552b0854517bed6dd6d9d1e"),
])
def test_tuple_seeds_without_bit_strings_hash_their_repr(parts, sha256):
    assert all(prbg._canonical(p) == repr(p) for p in parts if type(p) is tuple)
    assert derive_seed(*parts) == int.from_bytes(bytes.fromhex(sha256)[:8], "big")


def test_a_bit_string_in_a_tuple_hashes_its_hex_form_at_any_width():
    # Its dataclass repr would write the value in decimal, past Python's digit limit here.
    wide = BitString(14285, (1 << 14285) - 1)
    text = f"('x', (b14285.{wide.value:x}, 3))"
    digest = hashlib.sha256(text.encode()).digest()
    assert derive_seed(("x", (wide, 3))) == int.from_bytes(digest[:8], "big")
    assert derive_seed(("x", BitString(4, 10))) != derive_seed(("x", BitString(5, 10)))


_WIDTH_VALUES = hs.integers(0, 64).flatmap(
    lambda w: hs.tuples(hs.just(w), hs.integers(0, (1 << w) - 1)))


@given(_INTS, _WIDTH_VALUES, hs.integers(1, 600))
@example(0, (0, 0), 1)
@example(7, (64, (1 << 64) - 1), 600)
@example(-3, (12, 0xABC), 257)
@example(-3, (1, 1), 599)
@example(derive_seed("ggm-expand", 0), (32, 0xDEADBEEF), 64)
@example(5, (7, 0x55), 14)
@example(5, (8, 0x80), 16)
@example(5, (9, 0x1FE), 18)
@example(derive_seed("ggm-expand", 0), (14284, (1 << 14284) // 3), 2 * 14284)
@example(derive_seed("ggm-expand", 0), (14285, (1 << 14285) - 1), 2 * 14285)
def test_state_stream_is_the_leading_shake_bits_of_the_state_bytes(salt, width_value, out_bits):
    # The head is the text derive_seed writes up to the value; the value follows
    # as the ceil(width / 8) bytes that hold it, most significant first.
    width, value = width_value
    head = f"{salt}\x1fb{width}.".encode()
    got = state_stream(width, out_bits, salt)(value)
    assert got == shake_leading_bits(head + state_bytes(width, value), out_bits)


@given(hs.lists(hs.tuples(_INTS, hs.integers(0, 14284)), min_size=2, max_size=8,
                unique=True))
@example([(1, 0), (10, 0)])
@example([(1, 1), (1, 10)])
def test_stream_heads_begin_no_other_head(salts_and_widths):
    # So no message of one (salt, width) is a message of another: the value bytes
    # that follow a head have the count its width fixes.
    heads = [prbg._state_head(width, salt) for salt, width in salts_and_widths]
    for head, other in permutations(heads, 2):
        assert not other.startswith(head)


@pytest.mark.parametrize("salt", ["x", BitString(64, 10), (1,), True, 1.0, None])
def test_state_streams_take_one_int_salt(salt):
    # Under part lists, state_stream(64, 64, "x") at the bytes b"10\x1fb9.\x00\x05" and
    # state_stream(9, 64, "x", BitString(64, 10)) at 5 hashed one message.
    with pytest.raises(TypeError):
        state_stream(64, 64, salt)
    with pytest.raises(TypeError):
        state_stream(9, 64, "x", BitString(64, 10))


class _ReseededBmGenerator(BmGenerator):
    """``BmGenerator`` plus a restart of its state from a seed, which only these
    tests use."""

    def reseed(self, seed):
        self._x = derive_seed("bm-reseed", seed) % self.params.p


def test_bm_generator_reseed_changes_stream():
    params = BmParams(23, 5, 3)
    gen = _ReseededBmGenerator(params)
    first = gen.next_bits(30)
    gen.reseed(3)
    second = gen.next_bits(30)
    gen.reseed(3)
    assert gen.next_bits(30) == second
    assert isinstance(first, BitString)


_TEXT_FIELDS = {BmParams: ("p", "g", "x0"), BbsParams: ("p", "q", "s")}


def _params_to_text(params):
    """Key-value form with decimal integers, one field per line."""
    return "".join(f"{f}={getattr(params, f)}\n" for f in _TEXT_FIELDS[type(params)])


def _params_from_text(cls, text):
    values = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        key, sep, raw = line.partition("=")
        if not sep:
            raise ValueError(f"expected key=value, got {line!r}")
        values[key.strip()] = int(raw)
    missing = [f for f in _TEXT_FIELDS[cls] if f not in values]
    if missing:
        raise ValueError(f"missing fields: {', '.join(missing)}")
    return cls(**{f: values[f] for f in _TEXT_FIELDS[cls]})


def test_params_text_round_trip():
    bm = BmParams(23, 5, 3)
    assert _params_from_text(BmParams, _params_to_text(bm)) == bm
    bbs = BbsParams(7, 11, 2)
    assert _params_from_text(BbsParams, _params_to_text(bbs)) == bbs


def test_params_text_rejects_malformed():
    with pytest.raises(ValueError):
        _params_from_text(BmParams, "p=23\ng=5\n")  # missing x0
    with pytest.raises(ValueError):
        _params_from_text(BbsParams, "nonsense")


def test_negative_counts_rejected():
    params = BbsParams(7, 11, 2)
    with pytest.raises(ValueError):
        BbsGenerator(params).next_bits(-1)
    with pytest.raises(ValueError):
        FastBitGenerator(1).next_bits(-1)
