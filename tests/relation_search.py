"""Search for affine relations that hold with probability 1 on a Feistel structure.

Fix the queries, take N = 2w + 24 instances of a w-bit structure with independent ideal
rounds (``feistel.ideal_ufn``), and take the GF(2) affine span of their transcripts: the
replies to the queries, joined into one bit vector. An affine relation that holds on
every instance holds on their whole span. So a full span proves that no such relation
exists, whatever the seeds; a deficient span leaves each missing direction as a
candidate relation. Instance j is keyed by seed j, fixed, and every query shape reads
the same N instances.
"""

from feistel_lab.bench import _memoized_ufn
from feistel_lab.distinguisher import _block_xor_sum
from feistel_lab.feistel import UfnParams, UfnPermutation


def instances(params: UfnParams) -> list[UfnPermutation]:
    """The N = 2w + 24 instances of ``params``, instance j keyed by seed j. Each round
    memoizes its values: the queries of every δ meet the same few round inputs."""
    return [_memoized_ufn(params, j) for j in range(2 * params.state_bits + 24)]


def deltas(n: int, k: int) -> list[int]:
    """The second queries searched: every nonzero state up to 8 bits, and from 9 bits on
    the states with one nonzero n-bit block."""
    if (k + 1) * n <= 8:
        return list(range(1, 1 << (k + 1) * n))
    return [a << i * n for i in range(k + 1) for a in range(1, 1 << n)]


def affine_rank(vectors: list[int]) -> int:
    """Dimension of the GF(2) affine span of ``vectors`` (ints as bit vectors)."""
    first, *rest = vectors
    basis: dict[int, int] = {}  # leading bit -> basis vector
    for v in rest:
        v ^= first
        while v and v.bit_length() in basis:
            v ^= basis[v.bit_length()]
        if v:
            basis[v.bit_length()] = v
    return len(basis)


def pair_ranks(perms: list[UfnPermutation], second: list[int]) -> dict[int, int]:
    """δ -> rank of the span of the transcripts (P(0), P(δ)) over ``perms``, each δ in
    ``second``; P(0) is asked once per instance."""
    replies = [{x: perm.query(x) for x in (0, *second)} for perm in perms]
    width = perms[0].width
    return {d: affine_rank([r[0] << width | r[d] for r in replies]) for d in second}


def relation_values(perms: list[UfnPermutation], machine) -> set[int]:
    """The residual of an attack machine's relation (blocks ``low`` .. ``low+count-1`` of
    s = XOR over its queries x of x ^ P(x)) on each instance. The residual is affine in
    the transcript, so it is constant on their span iff it is constant on them."""
    values = set()
    for perm in perms:
        s = 0
        for x in machine.queries:
            s ^= x ^ perm.query(x)
        values.add(_block_xor_sum(s, machine.n, machine.low, machine.count))
    return values
