"""Reference twins of the fast paths: the rounds per kind on block tuples, the lane
engines with the same counter keying, one int at a time, the tree walk on ``BitString``
states with each step's stream built from scratch, ``statcheck.Gf2Matrix`` as
nested lists, and the attack machines on the seeded queries they once drew;
``join_blocks``, the inverse of ``bits.split_blocks``; and ``CallableOracle``, a round
function from a plain int -> int function."""

import hashlib
import math

from feistel_lab.bits import BitString
from feistel_lab.distinguisher import _BlockXorMachine
from feistel_lab.feistel import UfnKind, UfnPermutation
from feistel_lab.prbg import (BbsParams, FastBitGenerator, bbs_generate, derive_seed,
                              generate_bbs_params)
from feistel_lab.prf import FunctionOracle
from feistel_lab.statcheck import Gf2Matrix

_M64 = (1 << 64) - 1


def join_blocks(blocks, n):
    """Inverse of ``bits.split_blocks``: concatenate n-bit blocks, block 0 leftmost."""
    value = 0
    for b in blocks:
        value = (value << n) | b
    return value


class CallableOracle(FunctionOracle):
    """Wrap a plain int -> int function; handy for stubs and known functions."""

    def __init__(self, in_bits, out_bits, fn):
        super().__init__(in_bits, out_bits)
        self._fn = fn

    def eval_int(self, x):
        y = self._fn(x)
        if not 0 <= y < (1 << self.out_bits):
            raise ValueError(f"function value {y} does not fit in {self.out_bits} bits")
        return y


def forward_blocks(params, f, blocks):
    """One round on the block values, leftmost block first, one rule per kind:

    * balanced: (L, R) -> (R, L xor f(R));
    * source-heavy: (L, R_1..R_k) -> (R_1..R_k, L xor f(R_1 || ... || R_k));
    * target-heavy: (L_1..L_k, R) -> (R, L_1 xor C_1, ..., L_k xor C_k), where
      C_i is the i-th n-bit slice of f(R), leftmost first;
    * ufn2: (L_1..L_k, R) -> (R, L_1 xor f(R), ..., L_k xor f(R)).
    """
    n, k = params.n, params.k
    kind = params.kind
    if kind is UfnKind.SOURCE_HEAVY:
        acc = 0
        for b in blocks[1:]:
            acc = (acc << n) | b
        return blocks[1:] + (blocks[0] ^ f.eval_int(acc),)
    if kind is UfnKind.TARGET_HEAVY:
        image = f.eval_int(blocks[-1])
        mask = (1 << n) - 1
        out = [blocks[-1]]
        for i in range(k):
            out.append(blocks[i] ^ ((image >> ((k - 1 - i) * n)) & mask))
        return tuple(out)
    if kind is UfnKind.UFN2:
        image = f.eval_int(blocks[-1])
        return (blocks[-1],) + tuple(b ^ image for b in blocks[:-1])
    left, right = blocks
    return (right, left ^ f.eval_int(right))


def inverse_blocks(params, f, blocks):
    """The inverse of ``forward_blocks``."""
    n, k = params.n, params.k
    kind = params.kind
    if kind is UfnKind.SOURCE_HEAVY:
        acc = 0
        for b in blocks[:-1]:
            acc = (acc << n) | b
        return (blocks[-1] ^ f.eval_int(acc),) + blocks[:-1]
    if kind is UfnKind.TARGET_HEAVY:
        image = f.eval_int(blocks[0])
        mask = (1 << n) - 1
        out = []
        for i in range(k):
            out.append(blocks[i + 1] ^ ((image >> ((k - 1 - i) * n)) & mask))
        out.append(blocks[0])
        return tuple(out)
    if kind is UfnKind.UFN2:
        image = f.eval_int(blocks[0])
        return tuple(b ^ image for b in blocks[1:]) + (blocks[0],)
    left, right = blocks
    return (right ^ f.eval_int(left), left)


def splitmix_scalar(s, j):
    """Reference SplitMix64 on Python ints: the finalizer of s + j * gamma."""
    z = (s + j * 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def scalar_perm(params, trial_key):
    """The instance keyed by ``trial_key``, one int at a time through UfnPermutation:
    round i computes z(z(trial_key, i+1), x+1) >> (64 - out_bits)."""
    shift = 64 - params.round_out_bits
    rounds = [
        CallableOracle(params.round_in_bits, params.round_out_bits,
                       lambda x, key=splitmix_scalar(trial_key, i + 1):
                       splitmix_scalar(key, x + 1) >> shift)
        for i in range(params.r)
    ]
    return UfnPermutation(params, rounds)


class ScalarIdealPermutation:
    """One trial of the lane ideal permutation: keyed by ``key`` = z(P, t+1), its
    i-th fresh query gets the i-th distinct candidate z(key, j+1) >> (64 - width),
    and a repeated query replays its answer."""

    def __init__(self, width, key):
        self.width = width
        self.query_count = 0
        self._key = key
        self._j = 0
        self._replies = {}
        self._used = set()

    def query(self, x):
        if not 0 <= x < 1 << self.width:
            raise ValueError(f"query {x} does not fit in {self.width} bits")
        self.query_count += 1
        if x not in self._replies:
            while True:
                self._j += 1
                c = splitmix_scalar(self._key, self._j) >> (64 - self.width)
                if c not in self._used:
                    break
            self._replies[x] = c
            self._used.add(c)
        return self._replies[x]


def seeded_machine(factory, n, k, seed):
    """``factory(n, k)``'s relation asked on queries drawn from ``seed``, exactly as
    the attack factories drew them when they took a seed: a query pair from the
    Mersenne Twister of ``derive_seed("query-pair", seed)`` (k shared blocks, the
    leftmost block, then a nonzero difference in it), or the one XOR-sum query from
    that of ``derive_seed("xor-sum-query", seed)``. ``seed`` None keeps the fixed
    queries."""
    machine = factory(n, k)
    if seed is None:
        return machine
    if machine.query_budget == 1:
        gen = FastBitGenerator(derive_seed("xor-sum-query", seed))
        queries = (gen.next_int((k + 1) * n),)
    else:
        gen = FastBitGenerator(derive_seed("query-pair", seed))
        shared = [gen.next_int(n) for _ in range(k)]
        left_p = gen.next_int(n)
        left_q = left_p ^ (gen.next_int(n) or 1)
        queries = (join_blocks([left_p, *shared], n), join_blocks([left_q, *shared], n))
    return _BlockXorMachine(n, k, queries, machine.low, machine.count)


def zero_oracle(in_bits, out_bits):
    return CallableOracle(in_bits, out_bits, lambda _x: 0)


def shake_leading_bits(message, out_bits):
    """The first ``out_bits`` bits of SHAKE-256 of the bytes ``message``, read off the
    digest's binary digits, most significant bit of the first byte first."""
    digest = hashlib.shake_256(message).digest((out_bits + 7) // 8)
    digits = "".join(f"{byte:08b}" for byte in digest)[:out_bits]
    return int(digits, 2) if digits else 0


def state_bytes(width, value):
    """``value`` as the whole bytes that hold ``width`` bits, most significant byte
    first, read off its zero-padded hex digits."""
    size = (width + 7) // 8
    return bytes.fromhex(f"{value:0{2 * size}x}") if size else b""


def _fresh_fast_stream(out_bits, salt):
    return lambda state: BitString(out_bits, shake_leading_bits(
        f"{salt}\x1fb{state.width}.".encode() + state_bytes(state.width, state.value),
        out_bits))


def _fresh_bbs_stream(out_bits, salt):
    params = generate_bbs_params(32, derive_seed(salt, "modulus"))
    n = params.n

    def stream(state):
        digest = hashlib.shake_256(
            f"{salt}\x1fb{state.width}.".encode() + state_bytes(state.width, state.value))
        s = int.from_bytes(digest.digest(16), "big") % (n - 1) + 1
        while math.gcd(s, n) != 1:
            s = s + 1 if s < n - 1 else 1
        return bbs_generate(BbsParams(params.p, params.q, s), out_bits)

    return stream


class BitStringGgmOracle:
    """Reference ``prf.GgmFunctionOracle``: the walk holds ``BitString`` states,
    each step hashes its full message from scratch (``fast``) or starts a fresh
    generator at s = d mod (n - 1) + 1, raised to the first value coprime to n, d the
    first 128 bits of that hash (``bbs``), and splits the output, and every oracle
    draws its own Blum moduli."""

    def __init__(self, in_bits, out_bits, key, mode="fast", salt=0):
        make_stream = {"fast": _fresh_fast_stream, "bbs": _fresh_bbs_stream}[mode]
        self.in_bits, self.out_bits, self.key = in_bits, out_bits, key
        self.bits_generated = 0
        self._expand = make_stream(2 * key.width, derive_seed("ggm-expand", salt))
        self._final = make_stream(out_bits, derive_seed("ggm-final", salt))

    def eval_int(self, x):
        bits = BitString(self.in_bits, x)
        state = self.key
        for i in range(bits.width):
            self.bits_generated += 2 * self.key.width
            left, right = self._expand(state).split(self.key.width)
            state = right if bits.value >> (bits.width - 1 - i) & 1 else left
        self.bits_generated += self.out_bits
        return self._final(state).value


def gf2_from_lists(rows):
    """The ``Gf2Matrix`` of a square list of 0/1 rows, leftmost column the MSB."""
    size = len(rows)
    packed = []
    for row in rows:
        if len(row) != size:
            raise ValueError("matrix must be square")
        value = 0
        for bit in row:
            if bit not in (0, 1):
                raise ValueError("entries must be 0 or 1")
            value = (value << 1) | bit
        packed.append(value)
    return Gf2Matrix(size, tuple(packed))


def gf2_entry(matrix, i, j):
    return (matrix.rows[i] >> (matrix.size - 1 - j)) & 1


def gf2_to_lists(matrix):
    return [[gf2_entry(matrix, i, j) for j in range(matrix.size)] for i in range(matrix.size)]
