"""Black-box distinguishing games against permutation oracles.

A machine gets query access to a permutation, asks at most its declared
budget of questions, and counts the instances on which its relation holds.
Every attack here is one relation: with s the XOR over its fixed queries x of
x ^ y (y the reply to x), a range of n-bit blocks of s XORs to 0.
``estimate_advantage`` plays it against a counter-keyed build of a structure and
a uniform permutation, and reports the acceptance rates, their gap, and Wilson
95% intervals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import compress
from operator import xor
from typing import Protocol

from .bits import Lanes, check_lane_width, lane_batches, run_chunks
from .feistel import (UfnKind, UfnParams, UfnPermutation, ideal_ufn, last_input_memo,
                      splitmix_round_oracles)
from .prbg import derive_seed, state_stream
from .prf import _GAMMA, _mix, splitmix
from .stats import wilson_halfwidth

_M64 = (1 << 64) - 1

__all__ = [
    "PermutationOracle",
    "IdealPermutationOracle",
    "ideal_permutation",
    "OracleMachine",
    "attack_leading_block",
    "attack_ufn2_even_k",
    "attack_ufn2_2k",
    "calibrate_w_index",
    "GameReport",
    "estimate_advantage",
    "advantage_counts",
]


class PermutationOracle(Protocol):
    """Queryable bijection on the int states [0, 2^width) that counts its queries;
    a lane oracle asks each query of every lane and replies with one ``Lanes``."""

    width: int
    query_count: int

    def query(self, x: int): ...


class IdealPermutationOracle:
    """Lazily sampled uniform permutations, one per lane of ``trials`` (t+1 for trial t).

    Lane t's i-th fresh query gets its i-th distinct candidate c_j = z(z(key, t+1), j+1)
    >> (64 - width), sampling without replacement; a repeated query replays its answer.
    Answer i of every lane is one packed ``Lanes`` column, drawn once and kept: every
    lane draws its next candidate in one pass, and the lanes whose candidate repeats one
    of their answers are redrawn alone and patched into the column. Answer 1 finds its
    repeats by one XOR with answer 0. From answer 2 on, a set holds c ^ ((t+1) << width)
    mod 2^64 for every answer; it takes each column in one pass until a lane repeats,
    and from then on tests each column before taking it. The tag tells apart the lanes
    of a batch unless two share t+1 mod 2^(64 - width), which 512 = ``bits.LANE_BATCH``
    consecutive trials cannot below 56 bits; where two do, a set hit is checked against
    the lane's own answers. So a lane's answers do not depend on its batch.
    """

    def __init__(self, width: int, key: int, trials: Lanes) -> None:
        if width < 1:
            raise ValueError("width must be >= 1")
        check_lane_width(width)
        self.width = width
        self._shift = 64 - width
        self._state = splitmix(key, trials)  # lane t: z(key, t+1) + j * gamma, j drawn
        # Right above the candidate, the tag spreads the set's hash slots (the low bits)
        # at small widths, where 2^width candidates alone would crowd 2^width slots.
        self._tags = trials << width
        self._tagged: set[int] | None = None  # c ^ tag of every answer, from answer 2 on
        self._met_twice = False  # the set has met a value twice: test before adding
        self._tags_exact = False  # each lane has its own tag: a set hit is a repeat
        self._answers: list[Lanes] = []
        self._replies: dict[int, Lanes] = {}
        self.query_count = 0

    def distinct(self, m: int) -> list[Lanes]:
        """The answers to m fresh queries: each lane's first m distinct candidates."""
        answers = self._answers
        while len(answers) < m:
            self._state = self._state + _GAMMA
            column = _mix(self._state, self._shift)
            if len(answers) == 1:  # a pair: one XOR finds the lanes that drew answer 0 again
                if (column ^ answers[0]).zeros():
                    pairs = enumerate(zip(answers[0].tolist(), column.tolist()))
                    column = self._redraw([t for t, (a, c) in pairs if a == c], column)
            elif answers:
                values = (column ^ self._tags).tolist()
                tagged = self._tagged
                if tagged is None:
                    tagged = self._tagged = self._tag_set()
                if not self._met_twice:  # one pass: the set grows by every value but a repeat
                    size = len(tagged)
                    tagged.update(values)
                    if len(tagged) - size == len(values):
                        answers.append(column)
                        continue
                    self._met_twice = True
                    tagged = self._tagged = self._tag_set()  # again, without this column
                    self._tag_list = tags = self._tags.tolist()
                    self._tags_exact = len(set(tags)) == len(tags)
                hits = tagged.intersection(values)
                tagged.update(values)
                if hits:
                    lanes = compress(range(len(values)), map(hits.__contains__, values))
                    column = self._redraw(list(lanes), column)
            answers.append(column)
        return answers[:m]

    def _tag_set(self) -> set[int]:
        """The set of c ^ tag over every lane and answer so far."""
        tagged = set()
        for answer in self._answers:
            tagged.update((answer ^ self._tags).tolist())
        return tagged

    def _is_answer(self, t: int, c: int) -> bool:
        """Whether ``c`` is one of lane t's answers so far."""
        if self._tags_exact:
            return c ^ self._tag_list[t] in self._tagged
        return any(c == a.value >> 128 * t & _M64 for a in self._answers)

    def _redraw(self, lanes: list[int], column: Lanes) -> Lanes:
        """``column`` with the candidate of each of ``lanes`` that is one of its lane's answers
        replaced by the lane's next candidate that is none. Those lanes draw together, alone
        of their batch, and each one's state advances past every candidate it draws."""
        here = self._state
        start = {t: here.value >> 128 * t & _M64 for t in lanes}
        old = {t: column.value >> 128 * t & _M64 for t in lanes}
        state, drawn = dict(start), dict(old)
        todo = [t for t in lanes if self._is_answer(t, old[t])]
        while todo:
            for t in todo:
                state[t] = state[t] + _GAMMA & _M64
            fresh = _mix(Lanes.of([state[t] for t in todo]), self._shift).tolist()
            drawn.update(zip(todo, fresh))
            todo = [t for t in todo if self._is_answer(t, drawn[t])]
        moved = patch = 0
        for t in lanes:
            moved |= (start[t] ^ state[t]) << 128 * t
            patch |= (old[t] ^ drawn[t]) << 128 * t
            if self._tagged is not None:
                self._tagged.add(drawn[t] ^ self._tag_list[t])
        self._state = Lanes(here.value ^ moved, here.count, here.spreads)
        return Lanes(column.value ^ patch, column.count, column.spreads)

    def query(self, x: int) -> Lanes:
        if not 0 <= x < 1 << self.width:
            raise ValueError(f"query does not fit in {self.width} bits")
        self.query_count += 1
        if x not in self._replies:
            self._replies[x] = self.distinct(len(self._replies) + 1)[-1]
        return self._replies[x]


def ideal_permutation(width: int, seed: object, trials: Lanes) -> IdealPermutationOracle:
    """Uniform permutations of a batch of trials, replayable from ``seed``."""
    return IdealPermutationOracle(width, derive_seed("ideal-perm", seed), trials)


class OracleMachine:
    """Verdict machine with a declared query budget. It asks the same queries of every
    instance and states its relation as a residual that is 0 exactly on accept; ``run``
    counts the accepting instances (0 or 1 on a scalar oracle, zero lanes on a lane one)."""

    query_budget: int = 0

    def run(self, oracle: PermutationOracle) -> int:
        raise NotImplementedError


class _BlockXorMachine(OracleMachine):
    """Asks ``queries`` of a (k+1)n-bit permutation and accepts when the n-bit blocks
    ``low`` .. ``low+count-1`` (block 0 is the rightmost) of s = XOR over the queries
    of (x ^ y) XOR to 0, y being the reply to x."""

    def __init__(self, n: int, k: int, queries: tuple[int, ...], low: int, count: int) -> None:
        self.n = n
        self.k = k
        self.queries = queries
        self.low = low
        self.count = count
        self.query_budget = len(queries)
        self._query_xor = reduce(xor, queries)

    def run(self, oracle: PermutationOracle) -> int:
        if oracle.width != (self.k + 1) * self.n:
            raise ValueError(f"oracle width {oracle.width} does not match machine")
        s = self._query_xor
        for x in self.queries:
            s = oracle.query(x) ^ s
        residual = _block_xor_sum(s, self.n, self.low, self.count)
        return residual.zeros() if isinstance(residual, Lanes) else int(residual == 0)


def _block_xor_sum(v, n: int, low: int, count: int):
    """XOR of the n-bit blocks low .. low+count-1 of ``v``, block 0 the rightmost."""
    mask = (1 << n) - 1
    acc = v >> low * n & mask
    for i in range(low + 1, low + count):
        acc ^= v >> i * n & mask
    return acc


def _query_pair(n: int, k: int) -> tuple[int, int]:
    """0 and the all-ones leftmost block: (k+1)n-bit queries that differ only there."""
    return 0, ((1 << n) - 1) << k * n


def attack_leading_block(n: int, k: int) -> OracleMachine:
    """Distinguisher for the source-heavy and target-heavy shapes at up to k+1 rounds:
    two queries differing only in the leftmost block, whose leftmost output blocks XOR
    to that input difference, as both queries share the round outputs XORed into it."""
    return _BlockXorMachine(n, k, _query_pair(n, k), k, 1)


def attack_ufn2_even_k(n: int, k: int) -> OracleMachine:
    """Single-query XOR-sum distinguisher; valid only for even k. The output blocks XOR
    to what the input blocks XOR to: with an even ratio the repeated round-function
    output cancels out of that sum at every round count."""
    if k % 2 != 0:
        raise ValueError(f"k={k} is odd: the XOR-sum relation needs even k")
    return _BlockXorMachine(n, k, (0,), 0, k + 1)


def calibrate_w_index(n: int, k: int, probes: int = 64, seed: object = "w-cal") -> int:
    """Find empirically which input block closes the 2k-round relation.

    The relation compares the XOR of the first k output blocks of two queries
    (differing only in the leftmost block) against the input difference plus
    one carried input block W. Each candidate position is tested against
    freshly built 2k-round constructions with random round functions over
    ``probes`` query pairs, pair j read off one ``prbg.state_stream`` at j, and the
    smallest always-satisfied position wins. The answer is block 1, which both
    queries share, so the attack machine fixes W's difference at zero; this search
    remains as the empirical check of that choice.
    """
    if k % 2 == 0:
        raise ValueError(f"k={k} is even: the 2k-round relation needs odd k")
    params = UfnParams(UfnKind.UFN2, n, k, 2 * k)
    pairs = state_stream(64, (k + 2) * n, derive_seed(seed, n, k, "pairs"))
    candidates = set(range(k + 1))
    for j in range(probes):
        perm = ideal_ufn(params, derive_seed(seed, n, k, "perm", j))
        v = pairs(j)
        x_p, delta = v >> n, v & (1 << n) - 1
        x_q = x_p ^ (delta or 1) << k * n
        # The pair differs only in block k, so blocks 1..k of x_p ^ x_q XOR to that delta.
        base = _block_xor_sum(x_p ^ x_q ^ perm.query(x_p) ^ perm.query(x_q), n, 1, k)
        candidates = {idx for idx in candidates
                      if base == _block_xor_sum(x_p ^ x_q, n, k - idx, 1)}
        if not candidates:
            raise RuntimeError("no carried-block position satisfies the 2k-round relation")
    return min(candidates)


def attack_ufn2_2k(n: int, k: int) -> OracleMachine:
    """Two-query distinguisher for the 2k-round widened shape; odd k only. The first k
    output blocks of both replies XOR to the input difference, exactly at 2k rounds: the
    carried block is block 1 (``calibrate_w_index``), which both queries share."""
    if k % 2 == 0:
        raise ValueError(
            f"k={k} is even: the 2k-round relation needs odd k; "
            "use the single-query XOR-sum machine instead"
        )
    return _BlockXorMachine(n, k, _query_pair(n, k), 1, k)


@dataclass(frozen=True)
class GameReport:
    """Empirical result of one distinguishing game: accept counts on both sides.

    ``ci_halfwidth`` bounds the advantage error conservatively as the sum of
    the two per-rate Wilson half-widths.
    """

    ones_a: int
    ones_b: int
    trials: int
    seed: int

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")

    @cached_property
    def accept_a(self) -> float:
        return self.ones_a / self.trials

    @cached_property
    def accept_b(self) -> float:
        return self.ones_b / self.trials

    @cached_property
    def advantage(self) -> float:
        return abs(self.accept_a - self.accept_b)

    @cached_property
    def ci_a(self) -> float:
        return wilson_halfwidth(self.ones_a, self.trials)

    @cached_property
    def ci_b(self) -> float:
        return wilson_halfwidth(self.ones_b, self.trials)

    @cached_property
    def ci_halfwidth(self) -> float:
        return self.ci_a + self.ci_b

    def to_json_dict(self) -> dict:
        return {
            "accept_a": self.accept_a,
            "accept_b": self.accept_b,
            "advantage": self.advantage,
            "ci": self.ci_halfwidth,
            "ci_a": self.ci_a,
            "ci_b": self.ci_b,
            "trials": self.trials,
            "seed": self.seed,
        }


def advantage_counts(
    machine: OracleMachine, params: UfnParams, seed: object, start: int, count: int
) -> tuple[int, int]:
    """Accept counts over trials [start, start+count) against the structure ``params``
    (side a) and a uniform permutation of its state (side b), a ``bits.lane_batches``
    batch at a time. Side a runs ``feistel.splitmix_round_oracles`` from
    S = ``derive_seed("game-keys", seed)`` behind ``feistel.last_input_memo``, so a round
    input that the queries share is evaluated once; side b is ``ideal_permutation``: both are
    keyed from the absolute trial index, so chunking does not change results. A state
    wider than 64 bits raises ValueError, and a machine that queries either side more
    often than its budget in a batch raises RuntimeError."""
    check_lane_width(params.state_bits)
    master = derive_seed("game-keys", seed)
    budget = machine.query_budget
    ones_a = 0
    ones_b = 0
    for trials in lane_batches(start, count):
        rounds = last_input_memo(splitmix_round_oracles(params, master, trials))
        oracle_a = UfnPermutation(params, rounds)
        ones_a += machine.run(oracle_a)
        oracle_b = ideal_permutation(params.state_bits, seed, trials)
        ones_b += machine.run(oracle_b)
        if oracle_a.query_count > budget or oracle_b.query_count > budget:
            raise RuntimeError(
                f"{type(machine).__name__} exceeded its query budget of {budget}"
            )
    return ones_a, ones_b


def estimate_advantage(
    machine: OracleMachine, params: UfnParams, trials: int, seed: object, jobs: int = 1
) -> GameReport:
    """Monte-Carlo acceptance gap of ``machine`` between the structure ``params``
    and a uniform permutation, over trials [0, trials) in up to ``jobs`` processes
    (``bits.run_chunks``). A state wider than 64 bits raises ValueError before any trial."""
    check_lane_width(params.state_bits)
    parts = run_chunks(advantage_counts, (machine, params, seed), trials, jobs)
    ones_a, ones_b = (sum(column) for column in zip(*parts))
    return GameReport(ones_a, ones_b, trials, seed)
