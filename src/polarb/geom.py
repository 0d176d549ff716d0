"""Finite classical polar spaces over small fields.

Builds the six families in their standard coordinate forms, decides
singularity / total isotropy, computes perps and quotient geometries, and
enumerates complete generator catalogs and the subspaces of a span.

Vectors are tuples of field codes.  Subspaces are canonical reduced
row-echelon bases (pivot-normalized, reduced above and below, rows ordered by
pivot), so equal subspaces compare equal and catalogs are reproducible
byte-for-byte.  All dimensions are vector space dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .families import HERMITIAN, ORTHOGONAL, TAU, ambient_dim, space_label
from .ff import FieldSpec, field_of_order
from .qcount import nbracket, num_generators, num_points

Vector = tuple[int, ...]

ENUM_LIMIT_DEFAULT = 200_000


class SchemeError(ValueError):
    """An internal invariant failed: an enumeration count, a scheme axiom, a
    spectral identity or a certificate.  Commands report it as a failed
    verification, exit 1."""


# ---------------------------------------------------------------------------
# Linear algebra over a FieldSpec
# ---------------------------------------------------------------------------


def rref(fld: FieldSpec, rows) -> tuple[Vector, ...]:
    """Canonical reduced row-echelon basis of the row space."""
    work = [list(r) for r in rows]
    if not work:
        return ()
    ncols = len(work[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = fld.inv(work[r][c])
        if inv != 1:
            work[r] = [fld.mul(inv, x) for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                coef = work[i][c]
                work[i] = [fld.sub(x, fld.mul(coef, y)) for x, y in zip(work[i], work[r])]
        r += 1
        if r == len(work):
            break
    return tuple(map(tuple, work[:r]))


def rref_insert(fld: FieldSpec, basis: tuple[Vector, ...], v: Vector):
    """Extend a canonical basis by one vector; None if v is already in the span."""
    out = rref(fld, [*basis, v])
    return out if len(out) > len(basis) else None


def _pivot(row: Vector) -> int:
    """The position of the first nonzero entry of a nonzero row."""
    return next(c for c, x in enumerate(row) if x)


def nullspace(fld: FieldSpec, rows, ncols: int) -> tuple[Vector, ...]:
    """Canonical basis of {v : sum_t row[t]*v[t] = 0 for every row}.

    The rows are reduced once with their columns reversed.  Read back in the
    original order, the kernel vector of a free column f is 1 at f, 0 at the
    other free columns and nonzero only at pivot columns after f, so these
    vectors by increasing f are already the canonical basis.
    """
    R = rref(fld, [tuple(r)[::-1] for r in rows])
    pivots = {_pivot(row): row for row in R}
    basis = []
    for f in reversed(range(ncols)):  # f indexes the reversed rows: original column ncols-1-f
        if f not in pivots:
            v = [0] * ncols
            v[f] = 1
            for c, row in pivots.items():
                v[c] = fld.sub(0, row[f])
            basis.append(tuple(v[::-1]))
    return tuple(basis)


def intersect_bases(fld: FieldSpec, A: tuple[Vector, ...], B: tuple[Vector, ...]) -> tuple[Vector, ...]:
    """Zassenhaus intersection of two row spaces."""
    if not A or not B:
        return ()
    n = len(A[0])
    rows = [tuple(v) + tuple(v) for v in A] + [tuple(v) + (0,) * n for v in B]
    red = rref(fld, rows)
    out = [r[n:] for r in red if not any(r[:n])]
    return rref(fld, out)


@dataclass(frozen=True)
class Subspace:
    """A subspace held as its canonical reduced row-echelon basis."""

    basis: tuple[Vector, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    @staticmethod
    def from_vectors(fld: FieldSpec, vectors) -> "Subspace":
        return Subspace(rref(fld, vectors))


# ---------------------------------------------------------------------------
# Polar spaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PolarSpace:
    """One classical polar space with its standard (or quotient-induced) form.

    ``gram`` is the matrix of the reflexive sesquilinear form used for perps;
    for orthogonal families it is the polarization of ``quad`` and singularity
    is decided by ``quad`` (the correct treatment in characteristic 2).
    """

    family: str
    d: int
    field: FieldSpec
    nv: int
    gram: tuple[Vector, ...]
    quad: tuple[Vector, ...] | None

    @property
    def q(self) -> int:
        return self.field.order

    @property
    def is_hermitian(self) -> bool:
        return self.family in HERMITIAN

    @property
    def is_orthogonal(self) -> bool:
        return self.family in ORTHOGONAL

    @property
    def label(self) -> str:
        return space_label(self.family, self.d, self.q)


def bilinear(ps: PolarSpace, u: Vector, v: Vector) -> int:
    """B(u, v) = u . G . sigma(v), sigma = conjugation for Hermitian families."""
    if len(u) != ps.nv or len(v) != ps.nv:
        raise ValueError("vector length does not match the ambient dimension")
    fld = ps.field
    if ps.is_hermitian:
        v = tuple(fld.conjugate(x) for x in v)
    total = 0
    for i, ui in enumerate(u):
        if not ui:
            continue
        row = ps.gram[i]
        acc = 0
        for j, vj in enumerate(v):
            if vj and row[j]:
                acc = fld.add(acc, fld.mul(row[j], vj))
        total = fld.add(total, fld.mul(ui, acc))
    return total


def quad_value(ps: PolarSpace, v: Vector) -> int:
    if ps.quad is None:
        raise ValueError(f"{ps.family} has no quadratic form")
    fld = ps.field
    total = 0
    for i in range(ps.nv):
        if not v[i]:
            continue
        for j in range(i, ps.nv):
            c = ps.quad[i][j]
            if c and v[j]:
                total = fld.add(total, fld.mul(c, fld.mul(v[i], v[j])))
    return total


def is_singular(v: Vector, ps: PolarSpace) -> bool:
    """True iff the quadratic (orthogonal) or sesquilinear form vanishes on v."""
    if len(v) != ps.nv:
        raise ValueError("vector length does not match the ambient dimension")
    if ps.is_orthogonal:
        return quad_value(ps, v) == 0
    return bilinear(ps, v, v) == 0


def is_totally_isotropic(S: Subspace, ps: PolarSpace) -> bool:
    rows = S.basis
    for i, u in enumerate(rows):
        if not is_singular(u, ps):
            return False
        for v in rows[i + 1 :]:
            if bilinear(ps, u, v) != 0:
                return False
    return True


def perp(S: Subspace, ps: PolarSpace) -> Subspace:
    """{v : B(v, s) = 0 for all s in S}: B(v, s) = sum_t v_t B(e_t, s)."""
    unit = [tuple(int(i == t) for i in range(ps.nv)) for t in range(ps.nv)]
    return Subspace(nullspace(ps.field, [[bilinear(ps, e, s) for e in unit] for s in S.basis], ps.nv))


def _validate_nondegenerate(ps: PolarSpace) -> None:
    """Raise ValueError unless the form is nondegenerate.

    In characteristic 2 the polarization of a quadratic form may have a
    radical R (the nucleus of a parabolic quadric).  Q is additive on R and
    Q(cv) = c^2 Q(v), so on R = <v_1..v_r> Q(sum a_i v_i) = (sum a_i
    sqrt(Q(v_i)))^2: for r >= 2 that linear form has a nonzero kernel, a
    singular radical vector, and for r = 1 one exists iff Q(v_1) = 0.
    """
    rad = nullspace(ps.field, ps.gram, ps.nv)
    if ps.is_orthogonal and ps.field.p == 2:
        if len(rad) > 1 or (rad and quad_value(ps, rad[0]) == 0):
            raise ValueError("degenerate quadratic form: singular radical vector")
    elif rad:
        raise ValueError("degenerate form: nonzero radical")


def _space_from_forms(family, d, fld, gram, quad) -> PolarSpace:
    ps = PolarSpace(
        family=family,
        d=d,
        field=fld,
        nv=len(gram),
        gram=tuple(tuple(r) for r in gram),
        quad=None if quad is None else tuple(tuple(r) for r in quad),
    )
    _validate_nondegenerate(ps)
    return ps


def _polarization(fld: FieldSpec, quad) -> list[list[int]]:
    n = len(quad)
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = fld.mul(fld.add(1, 1), quad[i][i])  # 2*quad[i][i]; vanishes in char 2
        for j in range(i + 1, n):
            g[i][j] = quad[i][j]
            g[j][i] = quad[i][j]
    return g


def _irreducible_quadratic(fld: FieldSpec) -> tuple[int, int]:
    """(c1, c0) with t^2 + c1 t + c0 irreducible over the field, least (c1, c0)."""
    q = fld.order
    for c1 in range(q):
        for c0 in range(q):
            if all(fld.add(fld.add(fld.mul(a, a), fld.mul(c1, a)), c0) != 0 for a in range(q)):
                return c1, c0
    raise ValueError("no irreducible quadratic found")  # impossible over a finite field


def polar_space_make(family: str, d: int, q: int) -> PolarSpace:
    """Standard model of the polar space of the given family, rank and field order.

    For the Hermitian families q is the full (square) field order, e.g.
    polar_space_make("Hodd", 2, 4) is H(3,4) over GF(4).
    """
    if d < 0:
        raise ValueError(f"rank must be >= 0, got {d}")
    if family not in TAU:
        raise ValueError(f"unknown family {family!r}")
    fld = field_of_order(q)
    if family in HERMITIAN and fld.k % 2 != 0:
        raise ValueError(f"Hermitian families need a square field order, got {q}")
    nv = ambient_dim(family, d)
    z = [[0] * nv for _ in range(nv)]

    if family == "W":
        gram = [row[:] for row in z]
        for i in range(d):
            gram[2 * i][2 * i + 1] = 1
            gram[2 * i + 1][2 * i] = fld.sub(0, 1)
        return _space_from_forms(family, d, fld, gram, None)

    if family in HERMITIAN:
        gram = [row[:] for row in z]
        for i in range(nv):
            gram[i][nv - 1 - i] = 1
        return _space_from_forms(family, d, fld, gram, None)

    quad = [row[:] for row in z]
    if family == "Qplus":
        for i in range(d):
            quad[2 * i][2 * i + 1] = 1
    elif family == "Qparabolic":
        quad[0][0] = 1
        for i in range(1, d + 1):
            quad[2 * i - 1][2 * i] = 1
    elif family == "Qminus":
        c1, c0 = _irreducible_quadratic(fld)
        quad[0][0] = 1
        quad[0][1] = c1
        quad[1][1] = c0
        for i in range(1, d + 1):
            quad[2 * i][2 * i + 1] = 1
    return _space_from_forms(family, d, fld, _polarization(fld, quad), quad)


# ---------------------------------------------------------------------------
# Point and generator enumeration
# ---------------------------------------------------------------------------


def _normalized_vectors(ps: PolarSpace, m: int) -> Iterator[np.ndarray]:
    """The normalized vectors of GF(q)^m in lexicographic order, in int32 row blocks.

    A blocked scan by a running index i.  Group g = 0, 1, .. holds the q^g
    vectors whose leading 1 sits at position m-1-g, so groups in order, each
    in base-q counting order, are lexicographic order.  Vector i of group g
    has the base-q digits of i - start[g] < q^g as coordinates, zero up to
    the leading 1.  Blocks are sized for the callers' rows of nv codes.
    """
    q = ps.q
    place = _places(ps, m)
    start = np.cumsum([0] + [q**i for i in range(m)])
    for s in row_blocks(int(start[-1]), 16 * ps.nv):  # the int64 digits, or a product's gathers
        idx = np.arange(s.start, s.stop, dtype=np.int64)
        group = np.searchsorted(start, idx, side="right") - 1
        V = ((idx - start[group])[:, None] // place % q).astype(np.int32)
        V[np.arange(idx.size), m - 1 - group] = 1
        yield V


def enumerate_points(ps: PolarSpace) -> tuple[Vector, ...]:
    """All singular/isotropic projective points, lexicographically ordered:
    the normalized vectors of GF(q)^nv where the form vanishes."""
    out: list[list[int]] = []
    for V in _normalized_vectors(ps, ps.nv):
        out += V[_self_values(ps, V) == 0].tolist()
    return tuple(map(tuple, out))


def _self_values(ps: PolarSpace, V: np.ndarray) -> np.ndarray:
    """Q(v) for orthogonal families, else B(v, v), for each row v of V."""
    fld = ps.field
    acc = np.zeros(len(V), dtype=np.int32)
    if ps.is_orthogonal:
        for i, qrow in enumerate(ps.quad):
            for j in range(i, ps.nv):
                if qrow[j]:
                    acc = fld.add(acc, fld.array_mul(qrow[j], fld.array_mul(V[:, i], V[:, j])))
        return acc
    T = _gram_image(ps, V)
    for t in range(ps.nv):
        acc = fld.add(acc, fld.array_mul(V[:, t], T[:, t]))
    return acc


def _gram_image(ps: PolarSpace, A: np.ndarray) -> np.ndarray:
    """T[:, t] = sum_j gram[t][j] sigma(A[:, j]), so that B(u, v) = sum_t u_t T(v)_t."""
    fld = ps.field
    sig = fld.conj_table[A] if ps.is_hermitian else A
    T = np.zeros_like(A)
    for t, grow in enumerate(ps.gram):
        for j, g in enumerate(grow):
            if g:
                T[:, t] = fld.add(T[:, t], fld.array_mul(g, sig[:, j]))
    return T


def subspace_points(ps: PolarSpace, basis: tuple[Vector, ...]) -> list[Vector]:
    """Normalized representatives of the points of a subspace, lexicographically sorted.

    The rows of B = rref(basis) are independent, so each point is c . B for
    exactly one normalized c in GF(q)^rank; c runs in lexicographic order.
    c . B is normalized: B is reduced, so it is 0 before the pivot of the
    first nonzero c_i and c_i = 1 there.  Let c < c' first differ at c_j <
    c'_j.  Before the pivot of B[j] the rows from j on vanish and c, c'
    agree on the rows before j, so c . B and c' . B agree there; at that
    pivot every other row vanishes, so they hold c_j < c'_j.  Hence c . B <
    c' . B, and the list is sorted.
    """
    fld = ps.field
    B = _point_array(ps, rref(fld, basis))
    out: list[list[int]] = []
    for C in _normalized_vectors(ps, len(B)):
        out += fld.matmul(C, B).tolist()
    return list(map(tuple, out))


# Bytes of the numpy temporaries one block of a row-blocked loop holds at once.
# 512 KiB keeps a block in a core's cache and the peak memory of every blocked
# kernel near that of its inputs and outputs.
BLOCK_BYTES = 1 << 19


def row_blocks(n: int, row_bytes: int, least: int = 1) -> Iterator[slice]:
    """The slices r:r+m that cover rows 0..n-1 in order: m is as many rows of
    row_bytes as fit BLOCK_BYTES, and never fewer than least (the last block
    may be shorter).  row_bytes counts every temporary one row of a block holds."""
    step = max(least, BLOCK_BYTES // max(1, row_bytes))
    for r in range(0, n, step):
        yield slice(r, min(n, r + step))


def bit_indices(mask: int) -> tuple[int, ...]:
    """Indices of the set bits of mask, ascending.

    Dense masks (the closures of the extremal layer) are unpacked by numpy;
    sparse ones (the orderly search) by the lowest-bit loop, which is faster
    below about two dozen bits.
    """
    if mask.bit_count() >= 24:
        raw = np.frombuffer(mask.to_bytes((mask.bit_length() + 7) // 8, "little"), dtype=np.uint8)
        return tuple(np.unpackbits(raw, bitorder="little").nonzero()[0].tolist())
    out = []
    while mask:
        low = mask & -mask
        mask ^= low
        out.append(low.bit_length() - 1)
    return tuple(out)


def bits_to_masks(bits) -> list[int]:
    """Pack each row of a 0/1 matrix into an int whose bit j is column j."""
    packed = np.packbits(np.asarray(bits, dtype=bool), axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def rref_batch(fld: FieldSpec, M) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row-echelon forms of a (B, r, c) stack of matrices of field codes.

    Returns (R, rank): R[b, :rank[b]] is exactly the basis rref(fld, M[b])
    returns and the other rows of R[b] are zero.  All matrices are reduced
    together, column by column: the pivot is the first row at or below the
    current rank with a nonzero entry; it is swapped into place, normalized
    by the inv gather, and every other row loses its multiple of it.  Integer
    gathers only (FieldSpec's array arithmetic), in row_blocks of matrices.
    """
    R = np.array(M, dtype=np.int32)
    if R.ndim != 3:
        raise ValueError(f"rref_batch needs a (B, r, c) stack, got shape {R.shape}")
    B, r, c = R.shape
    rank = np.zeros(B, dtype=np.int64)
    rows = np.arange(r)
    for s in row_blocks(B, 16 * r * c):  # a product's two gathers, its difference and a row copy
        Rb, rk = R[s], rank[s]  # views
        for col in range(c):
            if rk.min() == r:
                break
            cand = (Rb[:, :, col] != 0) & (rows >= rk[:, None])
            has = cand.any(axis=1)
            if has.all():  # every matrix pivots here: slices instead of copies
                sel, b = slice(None), np.arange(len(Rb))
            else:
                sel = b = np.flatnonzero(has)
                if not b.size:
                    continue
            piv, top = cand[sel].argmax(axis=1), rk[sel]
            prow = Rb[b, piv]
            Rb[b, piv] = Rb[b, top]
            prow = fld.array_mul(fld.inv_table[prow[:, col, None]], prow)
            Rb[b, top] = prow
            coef = Rb[sel, :, col].copy()
            coef[np.arange(b.size), top] = 0
            Rb[sel] = fld.sub(Rb[sel], fld.array_mul(coef[:, :, None], prow[:, None, :]))
            rk[sel] += 1
    return R, rank


def _bases(R: np.ndarray) -> list[tuple[Vector, ...]]:
    """Each matrix of a (B, r, c) stack as a tuple of row tuples."""
    return [tuple(map(tuple, m)) for m in R.tolist()]


def _point_array(ps: PolarSpace, pts) -> np.ndarray:
    return np.array(pts, dtype=np.int32).reshape(len(pts), ps.nv)


def _places(ps: PolarSpace, m: int) -> np.ndarray:
    """q^(m-1), .., q, 1: the base-q place values of the coordinates of a vector of GF(q)^m."""
    if ps.q**m >= 1 << 63:
        raise ValueError(f"{ps.label}: q^{m} = {ps.q}^{m} does not fit int64 keys")
    return ps.q ** np.arange(m - 1, -1, -1, dtype=np.int64)


# Float products of non-negative integers are exact while the result stays
# below 2^24 (float32) or 2^53 (float64): every term and partial sum is then
# an integer no larger than the result.
_FLOAT32_EXACT = 1 << 24
_FLOAT64_EXACT = 1 << 53


def _orth_gate(fld: FieldSpec, nv: int, npts: int) -> tuple[int, int]:
    """(M, g) for _orth_masks, checked in Python ints before any product.

    M = nv k (p-1)^2 + 1 bounds every digit sum; g is the number of digit
    sums one float32 product packs, the largest g <= k with M^g < 2^24 and
    M^g <= npts^2, so that the product is exact and the table that decodes
    it is no larger than the masks.  g = 0 when even M fails those bounds.
    Raises ValueError when M >= 2^53, past float64's exact integers.
    """
    M = nv * fld.k * (fld.p - 1) ** 2 + 1
    if M >= _FLOAT64_EXACT:
        raise ValueError(f"digit sums up to {M} are not exact in float64")
    room = min(_FLOAT32_EXACT, npts * npts + 1)
    g = 0
    while g < fld.k and M ** (g + 1) < room:
        g += 1
    return M, g


def _orth_masks(ps: PolarSpace, pts) -> list[int]:
    """orth[i] has bit j iff B(pts[i], pts[j]) = 0; symmetric, since the form is reflexive.

    B(u, v) = sum_t u_t T(v)_t (T = _gram_image) runs on base-p digits.  With
    u_t = sum_a u_(t,a) x^a, T(v)_t = sum_b T_(t,b) x^b and c[a, b, e] digit e
    of x^a x^b (read from FieldSpec.mul), digit e of B(u, v) is S_e mod p,
    where S_e = sum_(t,b) L_e[u, (t,b)] R[v, (t,b)], L_e = (sum_a u_(t,a)
    c[a, b, e]) mod p and R holds the digits of T.  Each S_e sums nv k
    products of integers in 0..p-1, so 0 <= S_e < M = nv k (p-1)^2 + 1.

    The digit sums are packed g at a time (see _orth_gate): one float32
    product of L = sum_e L_e M^(e-e0) over a group e0 <= e < e0 + g with R
    gives sum_e S_e M^(e-e0) < M^g < 2^24.  It is exact, because every
    term and partial sum is a non-negative integer below 2^24, and no
    base-M digit carries into the next.  Its int64 copy indexes a bool
    table of the M^g values whose base-M digits are all divisible by p.
    When g = 0, each digit gets its own product, with values below M
    (float64 when M >= 2^24), tested by S_e % p == 0.  No float decides a
    bit: each is read off an exact integer.
    """
    fld = ps.field
    p, k, npts = fld.p, fld.k, len(pts)
    M, g = _orth_gate(fld, ps.nv, npts)
    A = _point_array(ps, pts)
    T = _gram_image(ps, A)
    place = p ** np.arange(k)
    c = np.array([[fld.mul(p**a, p**b) for b in range(k)] for a in range(k)])[..., None] // place % p
    L = np.einsum("uta,abe->utbe", A[..., None] // place % p, c) % p  # npts, nv, k (b), k (e)
    R = (T[..., None] // place % p).reshape(npts, ps.nv * k)
    ftype = np.float32 if g or M < _FLOAT32_EXACT else np.float64
    groups = [L[..., e : e + max(g, 1)] for e in range(0, k, max(g, 1))]
    Ls = [(Le @ M ** np.arange(Le.shape[-1])).reshape(npts, ps.nv * k).astype(ftype) for Le in groups]
    R = R.astype(ftype)
    if g:
        ok = np.arange(M) % p == 0
        table = ok
        for _ in range(g - 1):
            table = (ok[:, None] & table).ravel()  # index S_hi M^e + (the lower digits)
    orth: list[int] = []
    for s in row_blocks(npts, (R.itemsize + 8) * npts, least=8):  # the float product and its int64 copy
        bits = True
        for Le in Ls:
            S = (Le[s] @ R.T).astype(np.int64)
            bits = bits & (table.take(S) if g else S % p == 0)
        orth += bits_to_masks(bits)
    return orth


def _orderly_subspaces(ps: PolarSpace, pts, orth, k: int) -> list[tuple[int, ...]]:
    """The canonical bases of the k-dimensional subspaces spanned by k
    pairwise orthogonal points of ``pts``, each exactly once, as tuples of
    point indices, rows by increasing pivot.

    ``pts`` are lexicographically sorted normalized points; bit j of orth[i]
    says pts[i] and pts[j] are orthogonal.  The reduced row-echelon rows of
    a subspace are normalized points x_1..x_k with leading positions
    (pivots) c_1 < .. < c_k, each 0 at the other rows' pivots; x_i is 0
    before c_i anyway, so the condition is that x_i vanish at c_(i+1)..c_k.
    The search picks the rows from x_k down.  A state holds the rows chosen
    so far and the mask of the points that may come next: orthogonal to
    every chosen row, with leading position below the last chosen pivot and
    0 at every chosen pivot.  Choosing p ANDs that mask with step[p], the
    points orthogonal to p, with leading position below p's and 0 there.
    So every state is a distinct echelon form, and there is no span to
    grow, no seen-set and no rejected candidate (orderly generation, R. C.
    Read 1978, with the echelon form as the canonical form).  x_i needs
    i - 1 pivots below its own, so only points whose leading position is
    i - 1 or more are taken for it.
    """
    if k == 0:
        return [()]
    A = _point_array(ps, pts)
    lead = (A != 0).argmax(axis=1)
    zero_at = bits_to_masks((A == 0).T)  # zero_at[c]: the points with coordinate c equal to 0
    lead_below = bits_to_masks(lead < np.arange(ps.nv)[:, None])  # lead_below[c]: leading position below c
    lead_from = bits_to_masks(lead >= np.arange(k)[:, None])  # lead_from[m]: leading position m or more
    step = [orth[p] & lead_below[c] & zero_at[c] for p, c in enumerate(lead.tolist())]
    bases = []
    stack = [((), (1 << len(pts)) - 1)]  # the rows chosen so far, the points that may come next
    while stack:
        rows, cand = stack.pop()
        nexts = bit_indices(cand & lead_from[k - 1 - len(rows)])
        if len(rows) == k - 1:
            bases += [(p,) + rows for p in nexts]
        else:
            stack += [((p,) + rows, cand & step[p]) for p in nexts]
    return bases


def _generator_rows(ps: PolarSpace, limit: int):
    """(points, orth masks, the (n, d) int32 point indices of every generator's
    canonical basis).  pts is sorted, so sorting the index tuples sorts the bases.
    """
    expected = num_generators(ps.family, ps.d, ps.q)
    if expected > limit:
        raise ValueError(
            f"{ps.label} has {expected} generators, above the enumeration limit {limit}"
        )
    pts = enumerate_points(ps)
    orth = _orth_masks(ps, pts)
    rows = _orderly_subspaces(ps, pts, orth, ps.d)
    if len(rows) != expected:
        raise SchemeError(
            f"enumeration bug: found {len(rows)} generators of {ps.label}, expected {expected}"
        )
    return pts, orth, np.array(sorted(rows), dtype=np.int32).reshape(len(rows), ps.d)


def enumerate_subspaces_within(ps: PolarSpace, basis, k: int) -> list[tuple[Vector, ...]]:
    """All k-dimensional subspaces of the span of ``basis`` (canonical bases,
    sorted): the orderly search over the span's sorted points, every pair allowed."""
    pts = subspace_points(ps, basis)
    rows = _orderly_subspaces(ps, pts, [(1 << len(pts)) - 1] * len(pts), k)
    return [tuple(map(pts.__getitem__, r)) for r in sorted(rows)]


@dataclass(eq=False)
class GeneratorCatalog:
    """Complete, deterministically ordered catalog of the generators of one space.

    ``rows[i]`` (read-only, int32) holds the indices into ``points`` of the
    canonical basis rows of generator i, strictly decreasing (pivots
    increase, points are sorted); the rows increase.  ``point_masks[i]`` is
    the bitmask (over the point list) of the points of generator i.
    """

    space: PolarSpace
    rows: np.ndarray
    points: tuple[Vector, ...]
    point_masks: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.rows)

    @cached_property
    def generators(self) -> tuple[Subspace, ...]:
        """The generators as Subspaces, built the first time they are read."""
        return tuple(Subspace(tuple(map(self.points.__getitem__, r))) for r in self.rows.tolist())

    def mask_of_points_in_span(self, basis: tuple[Vector, ...]) -> int:
        """Bitmask of the catalog points in the span of the rows ``basis``,
        which need not be totally isotropic: the span's points, looked up by
        their base-q keys among the keys of the catalog points."""
        ps = self.space
        place = _places(ps, ps.nv)
        span = _point_array(ps, subspace_points(ps, basis)) @ place
        return bits_to_masks([np.isin(_point_array(ps, self.points) @ place, span)])[0]


def enumerate_generators(ps: PolarSpace, limit: int = ENUM_LIMIT_DEFAULT) -> GeneratorCatalog:
    return _catalog(ps, *_generator_rows(ps, limit))


def catalog_from_bases(ps: PolarSpace, bases) -> GeneratorCatalog:
    """Catalog of the given generator bases, which must be canonical.

    The point mask of a generator G is the AND of orth over its basis rows,
    the singular points of G^perp: a singular point x in G^perp with x not in
    G would span a larger totally isotropic subspace with G, so that set is G
    itself (the nucleus of a characteristic-2 parabolic quadric lies in every
    G^perp but is not singular).  Raises ValueError when a basis does not
    have d rows, a row is not a singular point, the rows are not pairwise
    orthogonal, or the mask does not have [d]_q points.
    """
    pts = enumerate_points(ps)
    pt_index = {v: i for i, v in enumerate(pts)}
    rows = []
    for g, basis in enumerate(bases):
        if len(basis) != ps.d:
            raise ValueError(f"basis {g}: {len(basis)} rows, expected {ps.d}")
        idx = [pt_index.get(row) for row in basis]
        if None in idx:
            raise ValueError(f"basis {g}: row {basis[idx.index(None)]} is not a singular point")
        rows.append(idx)
    return _catalog(ps, pts, _orth_masks(ps, pts), np.array(rows, dtype=np.int32).reshape(len(rows), ps.d))


def _catalog(ps: PolarSpace, pts, orth, rows: np.ndarray) -> GeneratorCatalog:
    npoints_expected = num_points(ps.family, ps.d, ps.q) if ps.d > 0 else 0
    if ps.d > 0 and len(pts) != npoints_expected:
        raise SchemeError(
            f"point count mismatch for {ps.label}: {len(pts)} vs {npoints_expected}"
        )
    size = nbracket(ps.d, ps.q)
    rows.flags.writeable = False
    full = (1 << len(pts)) - 1
    masks = []
    for g, idx in enumerate(rows.tolist()):
        mask, sel = full, 0
        for i in idx:
            mask &= orth[i]
            sel |= 1 << i
        if mask & sel != sel:
            raise ValueError(f"basis {g}: rows are not pairwise orthogonal")
        if mask.bit_count() != size:
            raise ValueError(f"basis {g}: {mask.bit_count()} points, expected [{ps.d}]_q = {size}")
        masks.append(mask)
    return GeneratorCatalog(space=ps, rows=rows, points=pts, point_masks=tuple(masks))


# ---------------------------------------------------------------------------
# Quotient geometry
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class QuotientGeometry:
    """The polar space perp(L)/L with its lift map."""

    lift_rows: tuple[Vector, ...]  # complement of L inside perp(L)
    space: PolarSpace


def quotient_geometry(L: Subspace, ps: PolarSpace) -> QuotientGeometry:
    """perp(L)/L, with the rows of P = perp(L) at pivots that are not L's as
    the complement of L.  L lies in P, so L's pivots are among P's, and those
    rows complete L's rows to a basis of P: all their pivots differ."""
    if not is_totally_isotropic(L, ps):
        raise ValueError("quotients are defined over totally isotropic subspaces only")
    if L.dim > ps.d:
        raise ValueError("subspace dimension exceeds the rank")
    lead = set(map(_pivot, L.basis))
    comp = tuple(row for row in perp(L, ps).basis if _pivot(row) not in lead)
    gram_q = [[bilinear(ps, u, v) for v in comp] for u in comp]
    quad_q = None
    if ps.is_orthogonal:  # Q(u) on the diagonal, the polarization above it
        quad_q = [
            [quad_value(ps, u) if i == j else g if i < j else 0 for j, g in enumerate(grow)]
            for i, (u, grow) in enumerate(zip(comp, gram_q))
        ]
    qs = _space_from_forms(ps.family, ps.d - L.dim, ps.field, gram_q, quad_q)
    return QuotientGeometry(lift_rows=comp, space=qs)


def generators_through(S: Subspace, ps: PolarSpace) -> list[Subspace]:
    """All generators containing S, via enumeration of the quotient polar space.

    The canonical basis rows w of each quotient generator, as the
    row-echelon search lists them, lift to w . lift_rows (one matmul); with
    S's rows prepended, one rref_batch gives the canonical bases of the lifts.
    """
    if S.dim == ps.d:  # quotient_geometry checks S otherwise
        if not is_totally_isotropic(S, ps):
            raise ValueError("generators_through requires a totally isotropic subspace")
        return [S]
    qg = quotient_geometry(S, ps)
    qpts, _, rows = _generator_rows(qg.space, ENUM_LIMIT_DEFAULT)
    W = _point_array(qg.space, qpts)[rows]
    M = np.zeros((len(W), ps.d, ps.nv), dtype=np.int32)
    M[:, : S.dim] = _point_array(ps, S.basis)
    M[:, S.dim :] = ps.field.matmul(W, _point_array(ps, qg.lift_rows))
    R, rank = rref_batch(ps.field, M)
    if (rank != ps.d).any():
        raise SchemeError("enumeration bug: the lifted rows of a generator are dependent")
    return [Subspace(b) for b in sorted(_bases(R))]
