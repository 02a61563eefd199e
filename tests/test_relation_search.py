"""The round counts checked from both sides by the affine-relation search of
``relation_search``: above the secure count no affine relation on (P(0), P(δ)) holds on
every instance, and below it the CLI's attacks are the relations that do."""

import time

from relation_search import affine_rank, deltas, instances, pair_ranks, relation_values

from feistel_lab import cli, distinguisher
from feistel_lab.feistel import UfnKind, UfnParams, secure_rounds

# (kind, n, k): n in {2, 3} and w = (k+1)n <= 9. n = 1 is left out: there the
# target-heavy and ufn2 rounds read one input bit, so every such round is affine.
GRID = [(kind, n, k) for kind in UfnKind for n in (2, 3) for k in range(1, 4)
        if (k + 1) * n <= 9 and (kind is not UfnKind.BALANCED or k == 1)]
ODD = [(kind, n, k) for kind, n, k in GRID if kind is not UfnKind.UFN2 or k % 2]
EVEN_UFN2 = [(kind, n, k) for kind, n, k in GRID if kind is UfnKind.UFN2 and k % 2 == 0]


def _capped(started, cap):
    elapsed = time.perf_counter() - started
    assert elapsed < cap, f"took {elapsed:.1f}s"


def test_affine_rank():
    assert affine_rank([5]) == 0
    assert affine_rank([5, 5, 5]) == 0
    assert affine_rank([0, 1, 2, 3]) == 2  # 3 = 1 ^ 2
    assert affine_rank([1, 2, 4]) == 2  # a line through 1: 1 ^ 2 and 1 ^ 4
    assert affine_rank([7, 6, 5, 3]) == 3


def test_span_is_full_at_and_above_the_secure_count():
    # Full spans prove that no affine relation holds, whatever the seeds. One count
    # below, exactly the 2^n - 1 second queries that differ in the leading block alone
    # leave the span deficient.
    started = time.perf_counter()
    for kind, n, k in ODD:
        secure, w = secure_rounds(kind, k), (k + 1) * n
        second = deltas(n, k)
        for r in (secure, secure + 1):
            ranks = pair_ranks(instances(UfnParams(kind, n, k, r)), second)
            assert [d for d in second if ranks[d] < 2 * w] == [], (kind, n, k, r)
        ranks = pair_ranks(instances(UfnParams(kind, n, k, secure - 1)), second)
        leading = [a << k * n for a in range(1, 1 << n)]
        assert [d for d in second if ranks[d] < 2 * w] == leading, (kind, n, k)
    _capped(started, 6.0)  # 0.8 s on a 2-core desk machine


def test_cli_attacks_hold_below_the_secure_count():
    # Each attack's relation, with its queries and block range from the machine the CLI
    # builds, is constant, and 0, on the span one round below the secure count and at
    # the CLI's default count.
    started = time.perf_counter()
    for name, (kind, factory, below) in cli._ATTACKS.items():
        for n, k in [(n, k) for grid_kind, n, k in GRID if grid_kind is kind]:
            try:
                machine = getattr(distinguisher, factory)(n, k)
            except ValueError:  # the ufn2 attacks take one parity of k each
                continue
            secure = secure_rounds(kind, k)
            for r in {secure - 1, secure - below}:
                values = relation_values(instances(UfnParams(kind, n, k, r)), machine)
                assert values == {0}, (name, n, k, r)
    _capped(started, 3.0)  # 0.05 s on a 2-core desk machine


def test_even_ufn2_span_is_deficient_at_every_count():
    # The XOR of all blocks is kept by every round at even k.
    started = time.perf_counter()
    for kind, n, k in EVEN_UFN2:
        second = deltas(n, k)
        for r in range(1, secure_rounds(kind, k) + 2):
            ranks = pair_ranks(instances(UfnParams(kind, n, k, r)), second)
            assert max(ranks.values()) < 2 * (k + 1) * n, (n, k, r)
    _capped(started, 3.0)  # 0.2 s on a 2-core desk machine
