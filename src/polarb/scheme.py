"""The empirical association scheme of a generator catalog.

Relations are stored as one n x n int8 codimension matrix C: C[x, y] = i
when generators x and y meet in codimension i, so R_i = {C == i} and the
relations partition the pairs by construction.  Codimension i is distance i
in the distance-regular dual polar graph A_1.  One certificate of its
three-term identity proves the scheme axioms; an exact recurrence checks the
closed-form eigenmatrix, and the idempotent projections run in integers on C.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .geom import BLOCK_ENTRIES, GeneratorCatalog, masks_to_bits
from .qcount import EigenData

# Every integer of absolute value below 2^24 (2^53) is exact in float32 (float64).
_FLOAT32_EXACT = 1 << 24
_FLOAT64_EXACT = 1 << 53
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
    """Row blocks of the incidence product M M^T, as int32 arrays in row order.

    M is the n x npts generator/point incidence matrix, so (M M^T)[x, y] is
    the number of common points of generators x and y, an integer at most
    npts.  float32 represents every such integer and partial sum exactly
    below 2^24; at or above that the product is refused.
    """
    n, npts = cat.n, len(cat.points)
    if npts >= _FLOAT32_EXACT:
        raise ValueError(f"{npts} points is not below 2^24; float32 products would not be exact")
    M = masks_to_bits(cat.point_masks, npts).astype(np.float32)
    step = max(1, BLOCK_ENTRIES // max(1, n))
    for r in range(0, n, step):
        yield (M[r : r + step] @ M.T).astype(np.int32)


def build_relations(cat: GeneratorCatalog) -> RelationData:
    """The codimension matrix C, block by block from the common point counts.

    A count that is no [j]_q, a relation that is not regular or an A_0 that
    is not the identity raises SchemeError.
    """
    n = cat.n
    d = cat.space.d
    npts = len(cat.points)
    codim_of = np.full(npts + 1, -1, dtype=np.int8)
    for count, j in cat._dim_of_count.items():
        codim_of[count] = d - j
    C = np.empty((n, n), dtype=np.int8)
    degrees = np.empty((d + 1, n), dtype=np.int64)  # degrees[i, x] = |R_i(x)|
    r = 0
    for counts in common_point_counts(cat):
        block = C[r : r + len(counts)]
        np.take(codim_of, counts, out=block)
        if (block < 0).any():
            raise SchemeError("two generators share a number of points that is no [j]_q")
        for i in range(d + 1):
            degrees[i, r : r + len(block)] = (block == i).sum(axis=1)
        r += len(block)
    for i in range(d + 1):
        if (degrees[i] != degrees[i, 0]).any():
            raise SchemeError(f"relation {i} is not regular")
    if degrees[0, 0] != 1 or np.diagonal(C).any():
        raise SchemeError("A_0 is not the identity relation")
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
    c_(d+1) := 1, after checking that A_1 is symmetric, that c_1..c_d > 0 and
    that on every entry

        A_1 A_i = b_(i-1) A_(i-1) + a_i A_i + c_(i+1) A_(i+1)    (i = 0..d).

    The coefficients are read off one pair of each relation.

    Why this is a proof: the A_i = (C == i) are 0/1 matrices with disjoint
    supports summing to J by construction of C, whose entries are the
    codimensions 0..d, and build_relations checks that A_0 = I.  Induction on the
    identity gives A_i = v_i(A_1) with deg v_i = i, and A_1 A_d lies in
    span(A_0..A_d).  That span is therefore the algebra generated by the
    symmetric A_1: commutative and closed under products, so every A_i A_j is
    sum_k p^k_ij A_k with constant p^k_ij: the relations form a symmetric
    association scheme, and any one pair of R_k shows every p^k_ij.

    The products run in float64 BLAS.  Every entry and partial sum of A_1 A_i
    counts common neighbours, an integer at most n; below 2^53 float64
    represents all of them, so the arithmetic is exact.
    """
    d, n = rel.d, rel.n
    if d == 0:
        return [(0, 0, 1)]
    if n >= _FLOAT64_EXACT:
        raise ValueError(f"n = {n} is not below 2^53; float64 products would not be exact")
    witness = _witnesses(rel)
    C = rel.codim
    A1 = (C == 1).astype(np.float64)
    if not np.array_equal(A1, A1.T):
        raise SchemeError("A_1 is not symmetric")
    window = {0: np.eye(n), 1: A1}  # A_(i-1), A_i, A_(i+1)
    array = []
    for i in range(d + 1):
        window.pop(i - 2, None)
        if i < d and i + 1 not in window:
            window[i + 1] = (C == i + 1).astype(np.float64)
        M = A1 @ window[i]
        coef = {j: int(M[0, witness[j]]) for j in (i - 1, i, i + 1) if j in window}
        for j, x in coef.items():
            M -= x * window[j]
        if M.any():
            raise SchemeError(
                f"A_1 A_{i} is not a combination of A_{i - 1}, A_{i}, A_{i + 1}: "
                "the relations are not the distance classes of A_1"
            )
        if coef.get(i + 1) == 0:
            raise SchemeError(f"c_{i + 1} = 0: relation {i + 1} is not at distance {i + 1}")
        array.append((coef.get(i - 1, 0), coef[i], coef.get(i + 1, 1)))
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
    The images A_i w are read off rel.codim in row blocks of BLOCK_ENTRIES.

    Entrywise sum_i |A_i w| <= n max|w|, so every entry and partial sum is at
    most max|w| n (d+1) max(D, max|D Q|) in absolute value; below 2^63 the
    arithmetic runs in int64, at or above it on Python ints (object dtype).
    """
    n, d = rel.n, rel.d
    if len(v) != n:
        raise ValueError(f"vector length {len(v)} != {n}")
    v = [Fraction(x) for x in v]
    # Lists, not generators: CPython parks each resized argument tuple on its free list.
    den = lcm(*[x.denominator for x in v])
    w = [x.numerator * (den // x.denominator) for x in v]
    D = lcm(*[Fraction(x).denominator for row in eig.Q for x in row])
    DQ = [[int(x * D) for x in row] for row in eig.Q]
    top = max(D, *(abs(x) for row in DQ for x in row))
    dtype = np.int64 if max(1, *map(abs, w)) * n * (d + 1) * top < _INT64_EXACT else object
    W = np.array(w, dtype=dtype)
    C = rel.codim
    ids = np.arange(d + 1, dtype=np.int8)[:, None, None]
    images = np.empty((d + 1, n), dtype=dtype)
    step = max(1, BLOCK_ENTRIES // (n * (d + 1)))
    for r in range(0, n, step):
        images[:, r : r + step] = np.where(C[None, r : r + step] == ids, W, 0).sum(axis=2)
    S = np.array(DQ, dtype=dtype).T @ images
    if (S.sum(axis=0) != W * (D * n)).any():
        raise SchemeError("sum of idempotent projections does not reproduce the vector")
    return frozenset(np.flatnonzero((S != 0).any(axis=1)).tolist())


def idempotent(rel: RelationData, eig: EigenData, j: int):
    """E_j[x][y] = Q[C[x, y]][j] / n as a dense matrix of Fractions (desk scale only)."""
    col = [Fraction(eig.Q[i][j], rel.n) for i in range(rel.d + 1)]
    return [[col[i] for i in row] for row in rel.codim.tolist()]
