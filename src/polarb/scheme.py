"""The empirical association scheme of a generator catalog.

Relations are stored as one n x n int8 codimension matrix C: C[x, y] = i
when generators x and y meet in codimension i, so R_i = {C == i} and the
relations partition the pairs by construction.  Codimension i is distance i
in the distance-regular dual polar graph A_1.  One certificate of its
three-term identity proves the scheme axioms: a single integer pass over
packed neighbour histograms, no float and no BLAS.  An exact recurrence
checks the closed-form eigenmatrix, and the idempotent projections run in
integers on C.  The common point counts that C is read from are popcounts
of packed 64-bit point masks, integers from the first operation on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .geom import GeneratorCatalog, row_blocks
from .qcount import EigenData, nbracket

# Every integer of absolute value below 2^63 is an int64.
_INT64_EXACT = 1 << 63


class SchemeError(ValueError):
    """An association-scheme axiom or spectral identity failed."""


@dataclass(eq=False)
class RelationData:
    """The codimension matrix of one catalog plus the valencies of its relations."""

    cat: GeneratorCatalog
    codim: np.ndarray  # n x n int8, codim[x, y] = i when (x, y) is in R_i
    valencies: tuple[int, ...]

    @property
    def n(self) -> int:
        return self.cat.n

    @property
    def d(self) -> int:
        return self.cat.space.d


def common_point_counts(cat: GeneratorCatalog):
    """Row blocks of the upper triangle of the common point counts, as int32
    arrays in row order: the block of rows r..r+m-1 holds columns r..n-1.

    Entry [x, y] is the number of points generators x and y share, the
    popcount of pm[x] & pm[y], which is symmetric, so each pair is counted
    from its lower index only (the block's leading m x m square holds both
    orders).  The point masks are packed once into a words x n uint64 array,
    one row per 64 points; each block sums the popcounts word by word, so
    every partial sum is an integer at most npts.
    """
    n, nwords = cat.n, (len(cat.points) + 63) // 64
    raw = b"".join(m.to_bytes(8 * nwords, "little") for m in cat.point_masks)
    words = np.frombuffer(raw, dtype="<u8").reshape(n, nwords).T.copy()
    for s in row_blocks(n, 13 * n):  # a uint64 AND, a uint8 popcount and an int32 sum per count
        acc = np.zeros((s.stop - s.start, n - s.start), dtype=np.int32)
        for w in words:
            acc += np.bitwise_count(w[s, None] & w[s.start :])
        yield acc


def build_relations(cat: GeneratorCatalog) -> RelationData:
    """The codimension matrix C, block by block from the common point counts.

    Two generators meeting in dimension j share [j]_q points, so a count
    [j]_q decodes to codimension d - j.  This is the only place where a
    count is decoded; every other reader of intersection dimensions reads C.
    Each block of rows r..r+m-1 fills C[r:r+m, r:] and its transpose beyond
    the block's leading square, C[r+m:, r:r+m]; the degrees are then read
    from C in row blocks.  A count that is no [j]_q, a relation that is not
    regular or an A_0 that is not the identity raises SchemeError.
    """
    n = cat.n
    d, q = cat.space.d, cat.space.q
    codim_of = np.full(len(cat.points) + 1, -1, dtype=np.int8)
    for j in range(d + 1):
        codim_of[nbracket(j, q)] = d - j
    C = np.empty((n, n), dtype=np.int8)
    r = 0
    for counts in common_point_counts(cat):
        m = len(counts)
        block = codim_of[counts]  # take() would copy counts to intp first
        if (block < 0).any():
            raise SchemeError("two generators share a number of points that is no [j]_q")
        C[r : r + m, r:] = block
        C[r + m :, r : r + m] = block[:, m:].T
        r += m
    degrees = np.empty((d + 1, n), dtype=np.int64)  # degrees[i, x] = |R_i(x)|
    for s in row_blocks(n, n):  # one bool per entry
        for i in range(d + 1):
            degrees[i, s] = (C[s] == i).sum(axis=1)
    for i in range(d + 1):
        if (degrees[i] != degrees[i, 0]).any():
            raise SchemeError(f"relation {i} is not regular")
    if degrees[0, 0] != 1 or np.diagonal(C).any():
        raise SchemeError("A_0 is not the identity relation")
    C.flags.writeable = False  # shared by every reader of a memoized graph
    return RelationData(cat=cat, codim=C, valencies=tuple(degrees[:, 0].tolist()))


def _witnesses(rel: RelationData) -> list[int]:
    """For each relation i, the first y with C[0, y] = i."""
    row = rel.codim[0]
    firsts = [np.flatnonzero(row == i) for i in range(rel.d + 1)]
    if not all(f.size for f in firsts):
        raise SchemeError("a relation is empty")
    return [int(f[0]) for f in firsts]


def _intersection_array(rel: RelationData) -> list[tuple[int, int, int]]:
    """Certify that R_0..R_d are the distance classes of the graph A_1.

    Returns [(b_(i-1), a_i, c_(i+1)) for i = 0..d], with b_(-1) := 0 and
    c_(d+1) := 1, after checking that A_1 is symmetric and regular, that
    c_1..c_d > 0 and that on every entry

        A_1 A_i = b_(i-1) A_(i-1) + a_i A_i + c_(i+1) A_(i+1)    (i = 0..d).

    Why this is a proof: the A_i = (C == i) are 0/1 matrices with disjoint
    supports summing to J, as C's entries are the codimensions 0..d, and
    build_relations checks that A_0 = I.  Induction on the identity gives
    A_i = v_i(A_1) with deg v_i = i, and A_1 A_d lies in span(A_0..A_d).
    That span is therefore the algebra generated by the symmetric A_1:
    commutative and closed under products, so every A_i A_j is
    sum_k p^k_ij A_k with constant p^k_ij: the relations form a symmetric
    association scheme, and any one pair of R_k shows every p^k_ij.

    All d+1 identities are checked in one integer pass.  With N the n x k_1
    neighbour table of A_1, bits = k_1.bit_length() and P[z, y] =
    2^(bits C[z, y]), the packed histogram H[x, y] = sum over z in N(x) of
    P[z, y] has digit i (base 2^bits) equal to (A_1 A_i)[x, y], the number
    of neighbours z of x with C[z, y] = i.  That count is at most
    k_1 < 2^bits, so no digit carries into the next and every partial sum
    of H stays below 2^((d+1) bits): int32 holds it when (d+1) bits <= 31
    and int64 when it is <= 63; past that the certificate is refused.  H == EXP[C] with EXP[j] = H[0, w_j]
    for a witness pair (0, w_j) of R_j states A_1 A_i = sum_j
    digit_i(EXP[j]) A_j for every i at once, and the digits must then be
    tridiagonal in (i, j).
    """
    d, n = rel.d, rel.n
    if d == 0:
        return [(0, 0, 1)]
    C = rel.codim
    if C.min() < 0 or C.max() > d:
        raise SchemeError(f"a codimension lies outside 0..{d}")
    A1 = C == 1
    degree = np.count_nonzero(A1, axis=1)
    if (degree != degree[0]).any():
        raise SchemeError("relation 1 is not regular")
    k = int(degree[0])
    N = np.nonzero(A1)[1].reshape(n, k)  # row-major, so row x holds the neighbours of x
    del A1  # n^2 bytes, freed before P is built
    if (C[N, np.arange(n)[:, None]] != 1).any():
        raise SchemeError("A_1 is not symmetric")
    bits = k.bit_length()
    if (d + 1) * bits > 63:
        raise ValueError(f"{d + 1} digits of {bits} bits do not fit in int64")
    dtype = np.int32 if (d + 1) * bits <= 31 else np.int64
    P = (1 << (bits * np.arange(d + 1))).astype(dtype)[C]  # take() would copy C to intp first
    witness = _witnesses(rel)
    EXP = P[N[0]].sum(axis=0, dtype=dtype)[witness]
    for s in row_blocks(n, P.itemsize * k * n):  # a row's k_1 gathered rows of P
        H = P[N[s]].sum(axis=1, dtype=dtype)
        if (H != EXP[C[s]]).any():
            raise SchemeError(
                "some A_1 A_i is not constant on a relation: the relations are not an association scheme"
            )
    mask = (1 << bits) - 1
    digit = [[int(e) >> (bits * i) & mask for e in EXP] for i in range(d + 1)]  # digit[i][j] = p^j_1i
    array = []
    for i in range(d + 1):
        if any(digit[i][j] for j in range(d + 1) if abs(i - j) > 1):
            raise SchemeError(
                f"A_1 A_{i} is not a combination of A_{i - 1}, A_{i}, A_{i + 1}: "
                "the relations are not the distance classes of A_1"
            )
        if i < d and digit[i][i + 1] == 0:
            raise SchemeError(f"c_{i + 1} = 0: relation {i + 1} is not at distance {i + 1}")
        array.append((digit[i][i - 1] if i else 0, digit[i][i], digit[i][i + 1] if i < d else 1))
    return array


def check_intersection_numbers(rel: RelationData):
    """The intersection numbers p[i][j][k] of the certified scheme.

    Once _intersection_array has certified homogeneity, p^k_ij is read off
    one pair (0, y) of R_k as the number of z with C[0, z] = i and
    C[y, z] = j.  Raises SchemeError when the certificate fails.
    """
    _intersection_array(rel)
    C, m = rel.codim, rel.d + 1
    row = C[0].astype(np.intp) * m
    p = [np.bincount(row + C[y], minlength=m * m).reshape(m, m) for y in _witnesses(rel)]
    return np.stack(p, axis=2).tolist()


def verify_spectrum(rel: RelationData, eig: EigenData) -> bool:
    """Certify the scheme and check that eig.P is its eigenmatrix, exactly.

    With the intersection array and the recurrence

        x v_i = b_(i-1) v_(i-1) + a_i v_i + c_(i+1) v_(i+1),   v_0 = 1,

    requires the d+1 values theta_r = P[r][1] to be distinct, v_(d+1)(theta_r)
    = 0 and v_i(theta_r) = P[r][i] for every i.  v_(d+1)(A_1) = 0 while
    I, A_1, .., A_1^d are independent, so the roots of v_(d+1) are exactly
    the d+1 eigenvalues of A_1; A_i = v_i(A_1) acts on the theta_r-eigenspace
    as P[r][i].  That pins down the full spectrum of every A_i.
    """
    d = rel.d
    if eig.n != rel.n or eig.d != d:
        raise ValueError("eigen data does not match the relation data")
    array = _intersection_array(rel)
    thetas = [eig.P[r][1] if d else 0 for r in range(d + 1)]
    if len(set(thetas)) != d + 1:
        raise SchemeError(f"P column 1 {thetas} repeats an eigenvalue")
    for r, theta in enumerate(thetas):
        prev, cur = Fraction(0), Fraction(1)
        for i, (b, a, c) in enumerate(array):
            if cur != eig.P[r][i]:
                raise SchemeError(f"P[{r}][{i}] = {eig.P[r][i]}, but the intersection array gives {cur}")
            prev, cur = cur, ((theta - a) * cur - b * prev) / c
        if cur:
            raise SchemeError(f"theta_{r} = {theta} is not a root of v_{d + 1}")
    return True


def eigenspace_support(v, rel: RelationData, eig: EigenData) -> frozenset[int]:
    """Indices j with E_j v != 0, via the exact expansion E_j = (1/n) sum_i Q[i][j] A_i.

    Integers only.  With den and D the least common denominators of v and Q,
    w = den v and D Q are integer, and S = (D Q)^T [A_i w]_i has rows
    S[j] = D den n E_j v: the support is the set of nonzero rows of S.  Also
    checks sum_j S[j] = D n w (sum_j E_j v = v), which must hold identically.
    D and D Q come from eig.scaled_Q, computed once per EigenData.  The
    images A_i w are read off rel.codim in row_blocks.

    Entrywise sum_i |A_i w| <= n max|w|, so every entry and partial sum is at
    most max|w| n (d+1) max(D, max|D Q|) in absolute value; below 2^63 the
    arithmetic runs in int64, at or above it on Python ints (object dtype).
    """
    n, d = rel.n, rel.d
    if len(v) != n:
        raise ValueError(f"vector length {len(v)} != {n}")
    v = [x if type(x) in (int, Fraction) else Fraction(x) for x in v]
    # Lists, not generators: CPython parks each resized argument tuple on its free list.
    den = lcm(*[x.denominator for x in v])
    w = [x.numerator * (den // x.denominator) for x in v]
    D, DQ = eig.scaled_Q
    top = max(D, *[abs(x) for row in DQ for x in row])
    dtype = np.int64 if max(1, *map(abs, w)) * n * (d + 1) * top < _INT64_EXACT else object
    W = np.array(w, dtype=dtype)
    C = rel.codim
    ids = np.arange(d + 1, dtype=np.int8)[:, None, None]
    images = np.empty((d + 1, n), dtype=dtype)
    for s in row_blocks(n, 9 * (d + 1) * n):  # a bool and an 8-byte term per entry of each A_i
        images[:, s] = np.where(C[None, s] == ids, W, 0).sum(axis=2)
    S = np.array(DQ, dtype=dtype).T @ images
    if (S.sum(axis=0) != W * (D * n)).any():
        raise SchemeError("sum of idempotent projections does not reproduce the vector")
    return frozenset(np.flatnonzero((S != 0).any(axis=1)).tolist())
