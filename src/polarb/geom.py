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
from functools import lru_cache
from itertools import combinations, product
from typing import Callable, NamedTuple

import numpy as np

from .families import HERMITIAN, ORTHOGONAL, TAU, ambient_dim, space_label
from .ff import FieldSpec, field_make, field_of_order
from .qcount import nbracket, num_generators, num_points

Vector = tuple[int, ...]

ENUM_LIMIT_DEFAULT = 200_000


# ---------------------------------------------------------------------------
# Linear algebra over a FieldSpec
# ---------------------------------------------------------------------------


def vec_add(fld: FieldSpec, u: Vector, v: Vector) -> Vector:
    return tuple(map(fld.add, u, v))


def vec_scale(fld: FieldSpec, c: int, v: Vector) -> Vector:
    if c == 0:
        return (0,) * len(v)
    if c == 1:
        return tuple(v)
    return tuple(fld.mul(c, a) for a in v)


def normalize_point(fld: FieldSpec, v: Vector) -> Vector:
    """Scale so the first nonzero coordinate is 1 (projective representative)."""
    for c in v:
        if c:
            return v if c == 1 else vec_scale(fld, fld.inv(c), v)
    raise ValueError("zero vector has no projective representative")


def rref(fld: FieldSpec, rows) -> tuple[Vector, ...]:
    """Canonical reduced row-echelon basis of the row space."""
    work = [list(r) for r in rows]
    if not work:
        return ()
    ncols = len(work[0])
    out: list[list[int]] = []
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
    out = [row for row in work[:r]]
    return tuple(tuple(row) for row in out)


def rref_insert(fld: FieldSpec, basis: tuple[Vector, ...], v: Vector):
    """Extend a canonical basis by one vector; None if v is already in the span."""
    vv = list(v)
    pivots = [next(i for i, x in enumerate(row) if x) for row in basis]
    for row, p in zip(basis, pivots):
        if vv[p]:
            coef = vv[p]
            vv = [fld.sub(x, fld.mul(coef, y)) for x, y in zip(vv, row)]
    p_new = next((i for i, x in enumerate(vv) if x), None)
    if p_new is None:
        return None
    inv = fld.inv(vv[p_new])
    if inv != 1:
        vv = [fld.mul(inv, x) for x in vv]
    new_rows = []
    inserted = False
    for row, p in zip(basis, pivots):
        if not inserted and p_new < p:
            new_rows.append(vv)
            inserted = True
        reduced = list(row)
        if reduced[p_new]:
            coef = reduced[p_new]
            reduced = [fld.sub(x, fld.mul(coef, y)) for x, y in zip(reduced, vv)]
        new_rows.append(reduced)
    if not inserted:
        new_rows.append(vv)
    return tuple(tuple(row) for row in new_rows)


def nullspace(fld: FieldSpec, rows, ncols: int) -> tuple[Vector, ...]:
    """Canonical basis of {v : sum_t row[t]*v[t] = 0 for every row}."""
    R = rref(fld, rows) if rows else ()
    pivots = [next(i for i, x in enumerate(row) if x) for row in R]
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for row, p in zip(R, pivots):
            v[p] = fld.neg(row[f])
        basis.append(tuple(v))
    return rref(fld, basis)


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
    tau: int
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
    """{v : B(v, s) = 0 for all s in S}: B(v, s) = sum_t v_t T(s)_t, T = _gram_image."""
    A = np.array(S.basis, dtype=np.int32).reshape(S.dim, ps.nv)
    return Subspace(nullspace(ps.field, _gram_image(ps, A, _array_arithmetic(ps.field)).tolist(), ps.nv))


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
        tau=TAU[family],
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
            gram[2 * i + 1][2 * i] = fld.neg(1)
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


def enumerate_points(ps: PolarSpace) -> tuple[Vector, ...]:
    """All singular/isotropic projective points, lexicographically ordered.

    A blocked scan of the normalized vectors by a running index i.  Group g
    = 0, 1, .. holds the q^g vectors whose leading 1 sits at position
    nv-1-g, so groups in order, each in base-q counting order, are
    lexicographic order.  Vector i of group g has the base-q digits of
    i - start[g] < q^g as coordinates, zero up to the leading 1.  The form
    is evaluated on each block by integer gathers.
    """
    q, nv = ps.q, ps.nv
    place = _places(ps)
    start = np.cumsum([0] + [q**i for i in range(nv)])
    total = int(start[-1])
    ar = _array_arithmetic(ps.field)
    step = max(1, BLOCK_ENTRIES // max(1, nv))
    out: list[list[int]] = []
    for s in range(0, total, step):
        idx = np.arange(s, min(total, s + step), dtype=np.int64)
        group = np.searchsorted(start, idx, side="right") - 1
        V = ((idx - start[group])[:, None] // place % q).astype(np.int32)
        V[np.arange(idx.size), nv - 1 - group] = 1
        out += V[_self_values(ps, V, ar) == 0].tolist()
    return tuple(map(tuple, out))


def _self_values(ps: PolarSpace, V: np.ndarray, ar: _Gathers) -> np.ndarray:
    """Q(v) for orthogonal families, else B(v, v), for each row v of V."""
    acc = np.zeros(len(V), dtype=np.int32)
    if ps.is_orthogonal:
        for i, qrow in enumerate(ps.quad):
            for j in range(i, ps.nv):
                if qrow[j]:
                    acc = ar.add(acc, ar.mul(qrow[j], ar.mul(V[:, i], V[:, j])))
        return acc
    T = _gram_image(ps, V, ar)
    for t in range(ps.nv):
        acc = ar.add(acc, ar.mul(V[:, t], T[:, t]))
    return acc


def _gram_image(ps: PolarSpace, A: np.ndarray, ar: _Gathers) -> np.ndarray:
    """T[:, t] = sum_j gram[t][j] sigma(A[:, j]), so that B(u, v) = sum_t u_t T(v)_t."""
    sig = ar.conj[A] if ps.is_hermitian else A
    T = np.zeros_like(A)
    for t, grow in enumerate(ps.gram):
        for j, g in enumerate(grow):
            if g:
                T[:, t] = ar.add(T[:, t], ar.mul(g, sig[:, j]))
    return T


def subspace_points(ps: PolarSpace, basis: tuple[Vector, ...]) -> list[Vector]:
    """Normalized representatives of the points of a subspace."""
    fld = ps.field
    seen = set()
    out = []
    for coeffs in product(range(fld.order), repeat=len(basis)):
        if not any(coeffs):
            continue
        v = (0,) * len(basis[0]) if basis else ()
        for c, row in zip(coeffs, basis):
            if c:
                v = vec_add(fld, v, vec_scale(fld, c, row))
        v = normalize_point(fld, v)
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out


# Entries per numpy temporary in blocked loops (128 KiB of int32): keeps the
# peak memory of orthogonality masks, line tables and relations near O(npts + n).
BLOCK_ENTRIES = 1 << 15


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


def masks_to_bits(masks, width: int) -> np.ndarray:
    """The len(masks) x width 0/1 uint8 matrix whose row i holds the bits of masks[i]."""
    nbytes = (width + 7) // 8
    raw = b"".join(m.to_bytes(nbytes, "little") for m in masks)
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8).reshape(len(masks), nbytes), axis=1, bitorder="little")
    return bits[:, :width]


class _Gathers(NamedTuple):
    """Exact GF(q) arithmetic on int32 arrays of field codes: integer table
    gathers and the FieldSpec's digit expressions, no float."""

    mul: Callable
    add: Callable  # FieldSpec.add
    sub: Callable  # FieldSpec.sub
    inv: np.ndarray  # inv[a] = 1/a, inv[0] = 0
    conj: np.ndarray | None  # conj[a] = a^sqrt(q), square orders only


@lru_cache(maxsize=None)
def _field_gathers(p: int, k: int) -> _Gathers:
    """The gather tables of GF(p^k), made once per field from ff's.

    mul gathers exp[log a + log b] from int32 copies of the FieldSpec tables,
    whose zero tail takes every sum involving log 0, so no branch is needed
    for zero.  add and sub are the FieldSpec's own digit expressions, which
    act elementwise on arrays.  Every value stays below 4q <= 2^18.
    """
    fld = field_make(p, k)
    exp = np.array(fld.exp, dtype=np.int32)
    log = np.array(fld.log, dtype=np.int32)

    def mul(a, b):
        return exp.take(log.take(a) + log.take(b))

    inv = np.array([0] + [fld.inv(a) for a in range(1, fld.order)], dtype=np.int32)
    conj = np.array([fld.conjugate(a) for a in range(fld.order)], dtype=np.int32) if fld.has_conjugation else None
    for table in (log, exp, inv, conj):
        if table is not None:
            table.flags.writeable = False  # shared by every caller through the cache
    return _Gathers(mul, fld.add, fld.sub, inv, conj)


def _array_arithmetic(fld: FieldSpec) -> _Gathers:
    """The gather tables of fld, cached by (p, k)."""
    return _field_gathers(fld.p, fld.k)


def rref_batch(fld: FieldSpec, M) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row-echelon forms of a (B, r, c) stack of matrices of field codes.

    Returns (R, rank): R[b, :rank[b]] is exactly the basis rref(fld, M[b])
    returns and the other rows of R[b] are zero.  All matrices are reduced
    together, column by column: the pivot is the first row at or below the
    current rank with a nonzero entry; it is swapped into place, normalized
    by the inv gather, and every other row loses its multiple of it.  Integer
    gathers only, in blocks of BLOCK_ENTRIES // (r c) matrices.
    """
    R = np.array(M, dtype=np.int32)
    if R.ndim != 3:
        raise ValueError(f"rref_batch needs a (B, r, c) stack, got shape {R.shape}")
    B, r, c = R.shape
    ar = _array_arithmetic(fld)
    rank = np.zeros(B, dtype=np.int64)
    rows = np.arange(r)
    step = max(1, BLOCK_ENTRIES // max(1, r * c))
    for s in range(0, B, step):
        Rb, rk = R[s : s + step], rank[s : s + step]  # views
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
            prow = ar.mul(ar.inv[prow[:, col, None]], prow)
            Rb[b, top] = prow
            coef = Rb[sel, :, col].copy()
            coef[np.arange(b.size), top] = 0
            Rb[sel] = ar.sub(Rb[sel], ar.mul(coef[:, :, None], prow[:, None, :]))
            rk[sel] += 1
    return R, rank


def _bases(R: np.ndarray) -> list[tuple[Vector, ...]]:
    """Each matrix of a (B, r, c) stack as a tuple of row tuples."""
    return [tuple(map(tuple, m)) for m in R.tolist()]


def _point_array(ps: PolarSpace, pts) -> np.ndarray:
    return np.array(pts, dtype=np.int32).reshape(len(pts), ps.nv)


def _places(ps: PolarSpace) -> np.ndarray:
    """q^(nv-1), .., q, 1: the base-q place values of the coordinates of a vector."""
    if ps.q**ps.nv >= 1 << 63:
        raise ValueError(f"{ps.label}: q^nv = {ps.q}^{ps.nv} does not fit int64 point keys")
    return ps.q ** np.arange(ps.nv - 1, -1, -1, dtype=np.int64)


def _point_keys(ps: PolarSpace, A: np.ndarray) -> np.ndarray:
    """Base-q value of each row of A; increasing exactly when the rows are lexicographically increasing."""
    return A @ _places(ps)


def _orth_masks(ps: PolarSpace, pts) -> list[int]:
    """orth[i] has bit j iff B(pts[i], pts[j]) = 0; symmetric, since the form is reflexive."""
    ar = _array_arithmetic(ps.field)
    A = _point_array(ps, pts)
    T = _gram_image(ps, A, ar)
    orth: list[int] = []
    step = max(1, BLOCK_ENTRIES // max(1, len(pts)))
    for r in range(0, len(pts), step):
        acc = 0
        for t in range(ps.nv):
            acc = ar.add(acc, ar.mul(A[r : r + step, t, None], T[None, :, t]))
        orth += bits_to_masks(acc == 0)
    return orth


def _line_table(ps: PolarSpace, pts, orth) -> list[list[int]]:
    """line[a][b] = point mask of the line through pts[a] and pts[b] for every
    b != a with bit b of orth[a], else 0.

    ``pts`` must be lexicographically sorted and contain every point of those
    lines.  Each line's mask is one int, shared by the (q+1)q ordered pairs of
    its points.
    """
    q, npts = ps.q, len(pts)
    ar = _array_arithmetic(ps.field)
    A = _point_array(ps, pts)
    keys = _point_keys(ps, A)
    scalars = np.arange(1, q, dtype=np.int32)[None, :, None]
    line = [[0] * npts for _ in range(npts)]
    step = max(1, BLOCK_ENTRIES // max(1, npts * (q - 1) * ps.nv))
    for r in range(0, npts, step):
        I, J = np.nonzero(masks_to_bits(orth[r : r + step], npts))
        I += r
        I, J = I[J > I], J[J > I]
        # The other q-1 points of line(i, j): p_i + c p_j for c != 0, normalized.
        V = ar.add(A[I, None, :], ar.mul(scalars, A[J, None, :]))
        lead = np.take_along_axis(V, (V != 0).argmax(axis=2)[:, :, None], axis=2)
        V = ar.mul(ar.inv[lead], V)
        key = _point_keys(ps, V)
        idx = np.minimum(np.searchsorted(keys, key), npts - 1)
        if not np.array_equal(keys[idx], key):
            raise ValueError(f"{ps.label}: a line through two orthogonal points leaves the point list")
        # Build each line once, from its two least points i < j.
        first = (idx > J[:, None]).all(axis=1)
        for members in np.column_stack([I, J, idx])[first].tolist():
            mask = 0
            for x in members:
                mask |= 1 << x
            for a in members:
                row = line[a]
                for b in members:
                    row[b] = mask
                row[a] = 0
    return line


def _orderly_subspaces(ps: PolarSpace, pts, orth, k: int) -> np.ndarray:
    """The k-dimensional subspaces spanned by k pairwise orthogonal points of
    ``pts``, each exactly once, as an (L, k, nv) stack of spanning points.

    ``pts`` are lexicographically sorted normalized points, closed under the
    lines through orthogonal pairs; bit j of orth[i] says pts[i] and pts[j]
    are orthogonal.  A search state is a chain of chosen indices, its span
    mask and its perp mask (the points orthogonal to the whole span).  Point
    p extends it when p lies in the perp, outside the span and above the
    last chosen index, and when no point it adds to the span, span | p |
    line(p, s) for s in the span, has an index below p.  That admits exactly
    the greedy bases, b_1 the least point and b_(i+1) the least point outside
    span(b_1..b_i), so every subspace is reached once (orderly generation,
    R. C. Read 1978) and no seen-set is needed.  Each leaf chain gives its
    k points; _canonical_bases reduces them all in one rref_batch.
    """
    line = _line_table(ps, pts, orth) if k > 1 else None
    leaves: list[tuple[int, ...]] = []
    stack = [((), 0, (), (1 << len(pts)) - 1)]  # chain, span, points of span, perp
    while stack:
        chain, span, members, perp = stack.pop()
        if len(chain) == k:
            leaves.append(chain)
            continue
        above = chain[-1] + 1 if chain else 0
        cand = (perp & ~span) >> above << above
        while cand:
            low = cand & -cand
            p = low.bit_length() - 1
            new = span | low
            if span:
                row = line[p]
                for s in members:
                    new |= row[s]
            # Every point of new outside span gives the same subspace: try it once.
            cand &= ~new
            if (new ^ span) & (low - 1):
                continue
            stack.append((chain + (p,), new, members + bit_indices(new ^ span), perp & orth[p]))
    chains = np.array(leaves, dtype=np.intp).reshape(len(leaves), k)
    return _point_array(ps, pts)[chains]


def _canonical_bases(fld: FieldSpec, spans: np.ndarray) -> list[tuple[Vector, ...]]:
    """Sorted canonical bases of the row spaces of a stack of independent rows."""
    R, rank = rref_batch(fld, spans)
    if (rank != spans.shape[1]).any():
        raise AssertionError("enumeration bug: the spanning rows of a generator are dependent")
    return sorted(_bases(R))


def _generator_spans(ps: PolarSpace, limit: int):
    """(points, orth masks, spanning points of every generator) of ps."""
    expected = num_generators(ps.family, ps.d, ps.q)
    if expected > limit:
        raise ValueError(
            f"{ps.label} has {expected} generators, above the enumeration limit {limit}"
        )
    pts = enumerate_points(ps)
    orth = _orth_masks(ps, pts)
    spans = _orderly_subspaces(ps, pts, orth, ps.d)
    if len(spans) != expected:
        raise AssertionError(
            f"enumeration bug: found {len(spans)} generators of {ps.label}, expected {expected}"
        )
    return pts, orth, spans


def enumerate_subspaces_within(ps: PolarSpace, basis, k: int) -> list[tuple[Vector, ...]]:
    """All k-dimensional subspaces of the span of ``basis`` (canonical bases, sorted).

    B = rref(basis) is canonical with pivots p_1 < .. < p_m, so each k-subspace
    of its row space is X·B for exactly one k x m matrix X in reduced
    row-echelon form.  X·B is canonical too: at p_t it equals column t of X,
    and row r of X·B vanishes before p_c for c the pivot of row r of X, so
    its pivots are B's pivots in X's pivot columns.  The X with pivots
    c_1 < .. < c_k fill their free cells (i, j), j > c_i and j no pivot, with
    every field element; the products X·B are _Gathers sums.
    """
    fld, q = ps.field, ps.q
    B = np.array(rref(fld, basis), dtype=np.int32).reshape(-1, ps.nv)
    m = len(B)
    ar = _array_arithmetic(fld)
    out = []
    for piv in combinations(range(m), k):
        cells = [(i, j) for i, c in enumerate(piv) for j in range(c + 1, m) if j not in piv]
        X = np.zeros((q ** len(cells), k, m), dtype=np.int32)
        X[:, range(k), piv] = 1
        for f, (i, j) in enumerate(cells):
            X[:, i, j] = np.arange(len(X)) // q**f % q
        XB = np.zeros((len(X), k, ps.nv), dtype=np.int32)
        for t in range(m):
            XB = ar.add(XB, ar.mul(X[:, :, t, None], B[t]))
        out += _bases(XB)
    return sorted(out)


@dataclass(eq=False)
class GeneratorCatalog:
    """Complete, deterministically ordered catalog of the generators of one space.

    ``point_masks[i]`` is the bitmask (over the point list) of the points of
    generator i.
    """

    space: PolarSpace
    generators: tuple[Subspace, ...]
    points: tuple[Vector, ...]
    point_masks: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.generators)

    def mask_of_points_in_span(self, basis: tuple[Vector, ...]) -> int:
        """Bitmask of the catalog points in the span of the independent rows
        ``basis``, which need not be totally isotropic: one rref_batch of
        every [basis; point], of rank len(basis) exactly when the point lies
        in the span."""
        ps, k = self.space, len(basis)
        pts = _point_array(ps, self.points)
        rows = np.broadcast_to(np.array(basis, dtype=np.int32).reshape(k, ps.nv), (len(pts), k, ps.nv))
        _, rank = rref_batch(ps.field, np.concatenate([rows, pts[:, None]], axis=1))
        return bits_to_masks([rank == k])[0]


def enumerate_generators(ps: PolarSpace, limit: int = ENUM_LIMIT_DEFAULT) -> GeneratorCatalog:
    pts, orth, spans = _generator_spans(ps, limit)
    return _catalog(ps, pts, orth, _canonical_bases(ps.field, spans))


def catalog_from_bases(ps: PolarSpace, bases) -> GeneratorCatalog:
    """Catalog of the given generator bases, which must be canonical.

    The point mask of a generator G is the AND of orth over its basis rows,
    the singular points of G^perp: a singular point x in G^perp with x not in
    G would span a larger totally isotropic subspace with G, so that set is G
    itself (the nucleus of a characteristic-2 parabolic quadric lies in every
    G^perp but is not singular).  Raises ValueError when a row is not a
    singular point, the rows are not pairwise orthogonal, or the mask does
    not have [d]_q points.
    """
    pts = enumerate_points(ps)
    return _catalog(ps, pts, _orth_masks(ps, pts), bases)


def _catalog(ps: PolarSpace, pts, orth, bases) -> GeneratorCatalog:
    pt_index = {v: i for i, v in enumerate(pts)}
    npoints_expected = num_points(ps.family, ps.d, ps.q) if ps.d > 0 else 0
    if ps.d > 0 and len(pts) != npoints_expected:
        raise AssertionError(
            f"point count mismatch for {ps.label}: {len(pts)} vs {npoints_expected}"
        )
    size = nbracket(ps.d, ps.q)
    masks = []
    for g, basis in enumerate(bases):
        rows = [pt_index.get(row) for row in basis]
        if None in rows:
            raise ValueError(f"basis {g}: row {basis[rows.index(None)]} is not a singular point")
        mask = (1 << len(pts)) - 1
        for i in rows:
            mask &= orth[i]
        if not all(mask >> i & 1 for i in rows):
            raise ValueError(f"basis {g}: rows are not pairwise orthogonal")
        if mask.bit_count() != size:
            raise ValueError(f"basis {g}: {mask.bit_count()} points, expected [{ps.d}]_q = {size}")
        masks.append(mask)
    gens = tuple(Subspace(b) for b in bases)
    return GeneratorCatalog(space=ps, generators=gens, points=pts, point_masks=tuple(masks))


# ---------------------------------------------------------------------------
# Quotient geometry
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class QuotientGeometry:
    """The polar space perp(L)/L with its lift map."""

    lift_rows: tuple[Vector, ...]  # complement of L inside perp(L)
    space: PolarSpace


def quotient_geometry(L: Subspace, ps: PolarSpace) -> QuotientGeometry:
    if not is_totally_isotropic(L, ps):
        raise ValueError("quotients are defined over totally isotropic subspaces only")
    if L.dim > ps.d:
        raise ValueError("subspace dimension exceeds the rank")
    fld = ps.field
    P = perp(L, ps)
    comp: list[Vector] = []
    cur = L.basis
    for row in P.basis:
        nb = rref_insert(fld, cur, row)
        if nb is not None:
            cur = nb
            comp.append(row)
    comp_t = tuple(comp)
    m = len(comp_t)
    gram_q = [[bilinear(ps, comp_t[i], comp_t[j]) for j in range(m)] for i in range(m)]
    quad_q = None
    if ps.is_orthogonal:
        quad_q = [[0] * m for _ in range(m)]
        for i in range(m):
            quad_q[i][i] = quad_value(ps, comp_t[i])
            for j in range(i + 1, m):
                quad_q[i][j] = gram_q[i][j]
    qs = _space_from_forms(ps.family, ps.d - L.dim, fld, gram_q, quad_q)
    return QuotientGeometry(lift_rows=comp_t, space=qs)


def generators_through(S: Subspace, ps: PolarSpace, limit: int = ENUM_LIMIT_DEFAULT) -> list[Subspace]:
    """All generators containing S, via enumeration of the quotient polar space.

    The spanning points w of each quotient generator lift to w . lift_rows;
    with S's rows prepended, one rref_batch gives the canonical bases of the
    lifts.
    """
    if not is_totally_isotropic(S, ps):
        raise ValueError("generators_through requires a totally isotropic subspace")
    if S.dim == ps.d:
        return [S]
    qg = quotient_geometry(S, ps)
    ar = _array_arithmetic(ps.field)
    W = _generator_spans(qg.space, limit)[2]
    M = np.zeros((len(W), ps.d, ps.nv), dtype=np.int32)
    if S.dim:
        M[:, : S.dim] = S.basis
    for t, row in enumerate(qg.lift_rows):
        M[:, S.dim :] = ar.add(M[:, S.dim :], ar.mul(W[:, :, t, None], np.array(row, dtype=np.int32)))
    return [Subspace(b) for b in _canonical_bases(ps.field, M)]
