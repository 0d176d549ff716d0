import random
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polarb import geom
from polarb.extremal import enumerate_subspaces_within
from polarb.ff import field_of_order
from polarb.geom import (
    Subspace,
    bilinear,
    catalog_from_bases,
    enumerate_generators,
    enumerate_points,
    generators_through,
    intersect_bases,
    is_singular,
    is_totally_isotropic,
    perp,
    polar_space_make,
    quotient_geometry,
    rref,
    rref_batch,
    rref_insert,
    subspace_points,
    vec_add,
    vec_scale,
)
from polarb.qcount import nbracket, num_generators, num_points


def test_standard_forms_are_nondegenerate():
    # construction validates the radical; these must simply not raise
    for family, d, q in [
        ("W", 2, 3),
        ("Qplus", 4, 2),
        ("Qparabolic", 2, 2),
        ("Qparabolic", 2, 3),
        ("Qminus", 2, 2),
        ("Qminus", 2, 3),
        ("Hodd", 2, 4),
        ("Heven", 2, 4),
        ("Hodd", 2, 9),
    ]:
        ps = polar_space_make(family, d, q)
        assert ps.nv == len(ps.gram)


def _reference_degeneracy(ps):
    """The message nondegeneracy validation raises for ps, or None: the
    characteristic-2 radical enumerated vector by vector, all q^r of them."""
    fld = ps.field
    rad = geom.nullspace(fld, ps.gram, ps.nv)
    if ps.is_orthogonal and fld.p == 2:
        for coeffs in product(range(fld.order), repeat=len(rad)):
            if not any(coeffs):
                continue
            v = (0,) * ps.nv
            for c, row in zip(coeffs, rad):
                v = vec_add(fld, v, vec_scale(fld, c, row))
            if geom.quad_value(ps, v) == 0:
                return "degenerate quadratic form: singular radical vector"
        if len(rad) > 1:
            return "polarization radical has dimension > 1"
        return None
    return "degenerate form: nonzero radical" if rad else None


def _forms(q, nv, quadratic):
    """Every upper-triangular quadratic form (quadratic) or every Gram matrix
    (not quadratic) on GF(q)^nv, as (gram, quad) pairs."""
    fld = field_of_order(q)
    cells = [(i, j) for i in range(nv) for j in range(i if quadratic else 0, nv)]
    for values in product(range(q), repeat=len(cells)):
        M = [[0] * nv for _ in range(nv)]
        for (i, j), x in zip(cells, values):
            M[i][j] = x
        yield (geom._polarization(fld, M), M) if quadratic else (M, None)


@pytest.mark.parametrize(
    "family,q,nv,quadratic",
    [("Qparabolic", 2, 3, True), ("Qplus", 4, 2, True), ("Qparabolic", 3, 2, True), ("W", 3, 2, False)],
)
def test_nondegeneracy_matches_radical_enumeration(family, q, nv, quadratic):
    fld = field_of_order(q)
    forms = list(_forms(q, nv, quadratic))
    raised = 0
    for gram, quad in forms:
        unchecked = geom.PolarSpace(
            family, 1, fld, nv, 0, tuple(map(tuple, gram)), None if quad is None else tuple(map(tuple, quad))
        )
        want = _reference_degeneracy(unchecked)
        if want is None:
            geom._space_from_forms(family, 1, fld, gram, quad)
            continue
        raised += 1
        with pytest.raises(ValueError) as err:
            geom._space_from_forms(family, 1, fld, gram, quad)
        # A radical of dimension >= 2 always holds a singular vector, so the
        # reference never reaches its dimension message.
        assert str(err.value) == want
    assert 0 < raised < len(forms)


def test_hermitian_needs_square_order():
    with pytest.raises(ValueError):
        polar_space_make("Hodd", 2, 8)


def test_every_point_of_w33_is_isotropic():
    ps = polar_space_make("W", 2, 3)
    count = 0
    from itertools import product

    for v in product(range(3), repeat=4):
        if any(v):
            assert is_singular(v, ps)  # alternating form: all vectors isotropic
            count += 1
    assert count == 3**4 - 1


def test_point_counts_match_formula(catalog):
    for family, d, q in [("Hodd", 2, 4), ("Qparabolic", 2, 2), ("Qminus", 2, 2), ("Heven", 2, 4)]:
        cat = catalog(family, d, q)
        assert len(cat.points) == num_points(family, d, q)


def brute_force_generator_count(family, d, q):
    """Oracle: filter *all* d-subspaces of the ambient space for total isotropy."""
    ps = polar_space_make(family, d, q)
    identity = tuple(tuple(int(i == j) for j in range(ps.nv)) for i in range(ps.nv))
    subs = enumerate_subspaces_within(ps, identity, d)
    return sum(1 for s in subs if is_totally_isotropic(Subspace(s), ps))


@pytest.mark.parametrize("family,d,q", [("W", 2, 2), ("Hodd", 2, 4), ("Qplus", 2, 2)])
def test_enumeration_against_brute_force(family, d, q, catalog):
    want = brute_force_generator_count(family, d, q)
    assert catalog(family, d, q).n == want == num_generators(family, d, q)


def test_enumeration_counts(catalog):
    expected = {
        ("Qplus", 4, 2): 270,
        ("Hodd", 2, 4): 27,
        ("W", 2, 3): 40,
        ("Qparabolic", 3, 2): 135,
    }
    for (family, d, q), n in expected.items():
        cat = catalog(family, d, q)
        assert cat.n == n
        assert all(is_totally_isotropic(g, cat.space) for g in cat.generators)


def test_reenumeration_is_byte_identical(catalog):
    cat = catalog("Qparabolic", 2, 2)
    again = enumerate_generators(polar_space_make("Qparabolic", 2, 2))
    assert [g.basis for g in cat.generators] == [g.basis for g in again.generators]
    assert cat.points == again.points


def test_enumeration_limit():
    with pytest.raises(ValueError):
        enumerate_generators(polar_space_make("W", 2, 3), limit=10)


def _codim_intersection(i, j, cat):
    """d - dim(g_i ∩ g_j), read off the shared point count."""
    common = (cat.point_masks[i] & cat.point_masks[j]).bit_count()
    dim_of_count = {nbracket(k, cat.space.q): k for k in range(cat.space.d + 1)}
    return cat.space.d - dim_of_count[common]


def test_codim_identity_and_distribution(catalog):
    cat = catalog("Hodd", 2, 4)
    n = cat.n
    assert all(_codim_intersection(i, i, cat) == 0 for i in range(n))
    per_line = [sum(1 for j in range(n) if _codim_intersection(0, j, cat) == c) for c in range(3)]
    assert per_line == [1, 10, 16]  # self, meeting lines, disjoint lines


def test_codim_parity_constant_on_bipartition(catalog):
    from polarb.extremal import bipartition_latins_greeks

    cat = catalog("Qplus", 4, 2)
    x1, x2 = bipartition_latins_greeks(cat)
    for x in x1[:10]:
        for y in x2[:10]:
            assert _codim_intersection(x, y, cat) % 2 == 1


def test_perp_basics():
    rng = random.Random(11)
    for family, d, q in [("W", 2, 3), ("Hodd", 2, 4), ("Qminus", 2, 3)]:
        ps = polar_space_make(family, d, q)
        full = perp(Subspace(()), ps)
        assert full.dim == ps.nv
        for _ in range(100):
            rows = [tuple(rng.randrange(q) for _ in range(ps.nv)) for _ in range(rng.randint(0, ps.nv))]
            S = Subspace.from_vectors(ps.field, rows)
            P = perp(S, ps)
            assert P.dim == ps.nv - S.dim
            assert all(bilinear(ps, v, s) == 0 for v in P.basis for s in S.basis)
            assert perp(P, ps).basis == S.basis


def test_perp_point_trace_on_disjoint_generators(catalog):
    # pi a point of G, H disjoint from G: perp(pi) cuts H in exactly a point
    cat = catalog("Qparabolic", 2, 2)
    ps = cat.space
    G = cat.generators[0]
    hidx = next(j for j in range(cat.n) if _codim_intersection(0, j, cat) == 2)
    H = cat.generators[hidx]
    for p in subspace_points(ps, G.basis):
        trace = intersect_bases(ps.field, perp(Subspace((p,)), ps).basis, H.basis)
        assert len(trace) == 1


def _reference_in_span(fld, basis, v):
    """Reduce v by the rows of a canonical basis, one pivot at a time; in the span iff v reduces to 0."""
    vv = list(v)
    for row in basis:
        p = next(i for i, x in enumerate(row) if x)
        if vv[p]:
            coef = vv[p]
            vv = [fld.sub(x, fld.mul(coef, y)) for x, y in zip(vv, row)]
    return not any(vv)


@pytest.mark.parametrize("d", [2, 3])
def test_mask_of_points_in_span_matches_scalar_reference(catalog, d):
    cat = catalog("Qparabolic", d, 2)
    ps, fld, pm = cat.space, cat.space.field, cat.point_masks
    hidx = next(j for j in range(cat.n) if pm[0] & pm[j] == 0)
    G, H = cat.generators[0].basis, cat.generators[hidx].basis
    e0 = tuple(int(i == 0) for i in range(ps.nv))  # Q(e_0) = 1: not singular
    spans = [rref(fld, G + H), rref(fld, G[:1] + H), rref(fld, (e0,) + G), (), rref(fld, G + H + (e0,))]
    assert not is_totally_isotropic(Subspace(spans[1]), ps)
    assert not is_totally_isotropic(Subspace(spans[2]), ps)
    for basis in spans:
        want = sum(1 << j for j, v in enumerate(cat.points) if _reference_in_span(fld, basis, v))
        assert cat.mask_of_points_in_span(basis) == want
    assert cat.mask_of_points_in_span(spans[0]).bit_count() == num_points("Qplus", d, 2)
    assert cat.mask_of_points_in_span(spans[-1]) == (1 << len(cat.points)) - 1


@pytest.mark.parametrize(
    "family,d,q,per_point",
    [("W", 2, 2, 3), ("Hodd", 2, 4, 3), ("W", 2, 3, 4), ("Qminus", 2, 2, 5)],
)
def test_generators_through_every_point(family, d, q, per_point, catalog):
    cat = catalog(family, d, q)
    ps = cat.space
    for p in cat.points:
        gens = generators_through(Subspace((p,)), ps)
        assert len(gens) == per_point
        assert all(g.dim == d for g in gens)


def test_generators_through_next_to_maximal_w52(catalog):
    # every totally isotropic line of W(5,2) lies on exactly q^e + 1 = 3 planes
    cat = catalog("W", 3, 2)
    ps = cat.space
    lines = set()
    for g in cat.generators:
        lines.update(enumerate_subspaces_within(ps, g.basis, 2))
    assert len(lines) == 315
    for line in sorted(lines):
        assert len(generators_through(Subspace(line), ps)) == 3


def test_generators_through_generator_is_itself(catalog):
    cat = catalog("W", 2, 2)
    g = cat.generators[0]
    assert generators_through(g, cat.space) == [g]


def _solve_in_rows(fld, rows, target):
    """Coefficients a with sum a_i rows_i = target, or None if inconsistent."""
    m = len(rows)
    if m == 0:
        return () if not any(target) else None
    aug = [[rows[i][c] for i in range(m)] + [target[c]] for c in range(len(target))]
    coeffs = [0] * m
    for row in rref(fld, aug):
        p = next(i for i, x in enumerate(row) if x)
        if p == m:
            return None
        coeffs[p] = row[m]
        if any(row[i] for i in range(p + 1, m)):
            raise ValueError("_solve_in_rows requires independent rows")
    return tuple(coeffs)


def _quotient_map(L, g, ps):
    """Image of g in perp(L)/L, i.e. ((g ∩ perp(L)) + L)/L in the coordinates
    of quotient_geometry's lift rows."""
    if L.dim >= ps.d and L.basis == g.basis:
        return Subspace(())
    rows = L.basis + quotient_geometry(L, ps).lift_rows
    image = []
    for w in intersect_bases(ps.field, g.basis, perp(L, ps).basis):
        coeffs = _solve_in_rows(ps.field, rows, w)
        if coeffs is None:
            raise ValueError("vector is not in perp(L)")
        image.append(coeffs[L.dim :])
    return Subspace.from_vectors(ps.field, image)


def test_quotient_of_line_in_w52(catalog):
    cat = catalog("W", 3, 2)
    ps = cat.space
    g = cat.generators[0]
    L = Subspace.from_vectors(ps.field, g.basis[:2])
    qg = quotient_geometry(L, ps)
    assert qg.space.family == "W"
    assert qg.space.d == 1
    assert qg.space.nv == 2
    img = _quotient_map(L, g, ps)
    assert img.dim == 1
    # the image is a generator of the quotient
    assert is_totally_isotropic(img, qg.space)


def test_quotient_images_are_isotropic_exhaustive_w52(catalog):
    # images of all generators land inside the rank-2 quotient, so dim <= 2
    cat = catalog("W", 3, 2)
    ps = cat.space
    L = Subspace(cat.generators[0].basis[:1])
    qg = quotient_geometry(L, ps)
    for g in cat.generators:
        img = _quotient_map(L, g, ps)
        assert img.dim <= ps.d - L.dim
        assert is_totally_isotropic(img, qg.space)


def test_quotient_of_generator_is_zero(catalog):
    cat = catalog("W", 3, 2)
    g = cat.generators[0]
    assert _quotient_map(g, g, cat.space).dim == 0


def test_quotient_rejects_non_isotropic():
    ps = polar_space_make("Qparabolic", 2, 2)
    bad = Subspace(((1, 0, 0, 0, 0),))  # Q(e_0) = 1
    with pytest.raises(ValueError):
        quotient_geometry(bad, ps)


def test_rref_canonical():
    ps = polar_space_make("W", 2, 3)
    fld = ps.field
    rows = [(1, 2, 0, 1), (2, 1, 1, 0), (0, 0, 0, 0)]
    r1 = rref(fld, rows)
    r2 = rref(fld, list(reversed(rows)))
    assert r1 == r2
    assert all(next(i for i, x in enumerate(row) if x) is not None for row in r1)


# ---------------------------------------------------------------------------
# The orderly point-mask search against the rref_insert + seen-set search
# ---------------------------------------------------------------------------


def _reference_points(ps):
    """The scalar scan of all q^nv vectors, keeping the singular ones with leading entry 1."""
    return tuple(
        v for v in product(range(ps.q), repeat=ps.nv) if next((c for c in v if c), None) == 1 and is_singular(v, ps)
    )


def _reference_generator_bases(ps):
    """Depth-first rref_insert over orthogonal points, deduplicated by a seen-set of bases."""
    pts = _reference_points(ps)
    orth = [sum(1 << j for j, v in enumerate(pts) if bilinear(ps, u, v) == 0) for u in pts]
    found, seen = [], set()

    def extend(basis, mask):
        if len(basis) == ps.d:
            found.append(basis)
            return
        m = mask
        while m:
            low = m & -m
            m ^= low
            idx = low.bit_length() - 1
            nb = rref_insert(ps.field, basis, pts[idx])
            if nb is None or nb in seen:
                continue
            seen.add(nb)
            extend(nb, mask & orth[idx])

    extend((), (1 << len(pts)) - 1)
    return sorted(found)


def _reference_point_masks(ps, bases, points):
    index = {v: i for i, v in enumerate(points)}
    return tuple(sum(1 << index[v] for v in subspace_points(ps, b)) for b in bases)


def _reference_subspaces_within(ps, basis, k):
    pts = subspace_points(ps, tuple(basis))
    found, seen = set(), set()

    def extend(cur):
        if len(cur) == k:
            found.add(cur)
            return
        for p in pts:
            nb = rref_insert(ps.field, cur, p)
            if nb is None or nb in seen:
                continue
            seen.add(nb)
            extend(nb)

    extend(())
    return sorted(found)


def _reference_generators_through(S, ps):
    """Each quotient generator lifted row by row and reduced with S, one scalar rref per generator."""
    if S.dim == ps.d:
        return [S]
    qg = quotient_geometry(S, ps)
    fld = ps.field
    out = []
    for basis in _reference_generator_bases(qg.space):
        lifted = []
        for w in basis:
            v = (0,) * ps.nv
            for c, row in zip(w, qg.lift_rows):
                v = vec_add(fld, v, vec_scale(fld, c, row))
            lifted.append(v)
        out.append(Subspace.from_vectors(fld, list(S.basis) + lifted))
    return sorted(out, key=lambda g: g.basis)


def _assert_matches_reference(family, d, q):
    ps = polar_space_make(family, d, q)
    assert enumerate_points(ps) == _reference_points(ps)
    cat = enumerate_generators(ps)
    bases = [g.basis for g in cat.generators]
    assert bases == _reference_generator_bases(ps)
    assert len(bases) == num_generators(family, d, q)
    assert cat.point_masks == _reference_point_masks(ps, bases, cat.points)
    # The catalog stores the point indices of the basis rows: strictly
    # decreasing within a row (pivots increase, points are sorted), the rows
    # in increasing order, and the bases are built from them.
    rows = cat.rows
    assert rows.shape == (cat.n, d) and rows.dtype == np.int32 and not rows.flags.writeable
    assert (np.diff(rows, axis=1) < 0).all()
    listed = rows.tolist()
    assert all(a < b for a, b in zip(listed, listed[1:]))
    assert bases == [tuple(cat.points[j] for j in r) for r in listed]
    assert np.array_equal(catalog_from_bases(ps, bases).rows, rows)


REFERENCE_SPACES = [
    ("W", 2, 2),  # characteristic 2
    ("Qplus", 3, 2),
    ("Qminus", 2, 2),
    ("W", 2, 3),  # odd q
    ("Qminus", 2, 3),
    ("Qparabolic", 2, 3),
    ("Hodd", 2, 4),  # both Hermitian families
    ("Heven", 2, 4),
    ("Qparabolic", 2, 2),  # characteristic-2 parabolic: the nucleus is in every G^perp
    ("Qparabolic", 2, 4),
    ("W", 0, 2),  # d = 0
    ("Qminus", 0, 3),
    ("W", 1, 3),  # d = 1
    ("Heven", 1, 4),
]


@pytest.mark.parametrize("family,d,q", REFERENCE_SPACES + [("W", 3, 2), ("Qparabolic", 3, 2)])  # and rank 3
def test_enumeration_matches_seen_set_reference(family, d, q):
    _assert_matches_reference(family, d, q)


@pytest.mark.parametrize("family,d,q", REFERENCE_SPACES)
def test_generators_through_matches_per_generator_lift_reference(family, d, q):
    ps = polar_space_make(family, d, q)
    subspaces = [Subspace(())]
    if d >= 1:
        subspaces += [Subspace((p,)) for p in _reference_points(ps)]
    if d >= 2:
        g = enumerate_generators(ps).generators[-1]
        subspaces += [Subspace(line) for line in enumerate_subspaces_within(ps, g.basis, 2)]
    for S in subspaces:
        assert generators_through(S, ps) == _reference_generators_through(S, ps)


@pytest.mark.parametrize("family,d,q", [("W", 2, 3), ("Hodd", 2, 4), ("Qparabolic", 2, 2)])
def test_subspaces_within_identity_match_seen_set_reference(family, d, q):
    ps = polar_space_make(family, d, q)
    identity = tuple(tuple(int(i == j) for j in range(ps.nv)) for i in range(ps.nv))
    for k in range(ps.nv + 1):
        assert enumerate_subspaces_within(ps, identity, k) == _reference_subspaces_within(ps, identity, k)
    for k in range(3):
        assert enumerate_subspaces_within(ps, (), k) == _reference_subspaces_within(ps, (), k)


def test_subspaces_within_a_generator_match_seen_set_reference(catalog):
    cat = catalog("Qparabolic", 3, 2)
    for g in cat.generators[:5]:
        for k in range(4):
            assert enumerate_subspaces_within(cat.space, g.basis, k) == _reference_subspaces_within(
                cat.space, g.basis, k
            )


_SMALL_FIELDS = {
    "W": (2, 3, 4, 5),
    "Qplus": (2, 3, 4, 5),
    "Qparabolic": (2, 3, 4, 5),
    "Qminus": (2, 3, 4),
    "Hodd": (4, 9),
    "Heven": (4, 9),
}


@settings(max_examples=12, deadline=None, database=None)
@given(
    st.sampled_from(sorted(_SMALL_FIELDS)).flatmap(
        lambda fam: st.tuples(st.just(fam), st.integers(0, 2), st.sampled_from(_SMALL_FIELDS[fam]))
    )
)
def test_enumeration_matches_reference_on_drawn_spaces(space):
    family, d, q = space
    assume(num_generators(family, d, q) <= 300)
    _assert_matches_reference(family, d, q)


def test_rank_4_bases_are_canonical_distinct_and_complete():
    # At Q+(7,2), where the seen-set reference is slow: strictly increasing
    # canonical bases of num_generators generators, each accepted by the
    # catalog validator with the same mask, are all of them.
    ps = polar_space_make("Qplus", 4, 2)
    cat = enumerate_generators(ps)
    bases = [g.basis for g in cat.generators]
    assert len(bases) == num_generators("Qplus", 4, 2)
    assert all(a < b for a, b in zip(bases, bases[1:]))
    assert catalog_from_bases(ps, bases).point_masks == cat.point_masks
    for basis, mask in zip(bases, cat.point_masks):
        assert rref(ps.field, [cat.points[i] for i in geom.bit_indices(mask)]) == basis


@settings(max_examples=40, deadline=None, database=None)
@given(
    st.sampled_from([("W", 1), ("Qparabolic", 1), ("W", 2), ("Qparabolic", 2), ("W", 3)]),
    st.sampled_from([2, 3, 4, 5, 7, 8, 9]),
    st.data(),
)
def test_echelon_search_lists_every_subspace_once(space, q, data):
    # Over every point of the ambient space, all of them pairwise
    # "orthogonal", the search must list each k-subspace's canonical basis.
    family, d = space
    ps = polar_space_make(family, d, q)
    assume(q**ps.nv <= 4096)
    pts = tuple(v for v in product(range(q), repeat=ps.nv) if next((c for c in v if c), None) == 1)
    k = data.draw(st.integers(0, ps.nv), label="k")
    bases = sorted(geom._orderly_subspaces(ps, pts, [(1 << len(pts)) - 1] * len(pts), k))
    identity = tuple(tuple(int(i == j) for j in range(ps.nv)) for i in range(ps.nv))
    assert [tuple(pts[i] for i in b) for b in bases] == enumerate_subspaces_within(ps, identity, k)


# ---------------------------------------------------------------------------
# The packed orthogonality masks against the scalar form
# ---------------------------------------------------------------------------


def _reference_orth_rows(ps, pts, rows):
    """Rows of the orthogonality masks from the scalar form: bit j iff B(pts[i], pts[j]) = 0."""
    return [sum(1 << j for j, v in enumerate(pts) if bilinear(ps, pts[i], v) == 0) for i in rows]


# Every space of rank 1 to 3 over these orders with at most 300 points: odd
# prime powers (9, 25, 27, 49) and powers of 2 up to 64 among them.
_MASK_SPACES = [
    (family, d, q)
    for family in ("W", "Qplus", "Qparabolic", "Qminus", "Hodd", "Heven")
    for d in (1, 2, 3)
    for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32, 49, 64)
    if (family not in ("Hodd", "Heven") or q in (4, 9, 16, 25, 49, 64)) and 0 < num_points(family, d, q) <= 300
]


@settings(max_examples=60, deadline=None, database=None)
@given(st.sampled_from(_MASK_SPACES))
def test_orth_masks_match_the_scalar_form(space):
    ps = polar_space_make(*space)
    pts = enumerate_points(ps)
    assert geom._orth_masks(ps, pts) == _reference_orth_rows(ps, pts, range(len(pts)))


@pytest.mark.parametrize(
    "space, gate, rows",
    [
        # M = 5·2·(3-1)^2 + 1 = 41: both GF(9) digits in one product, 41^2 < 2^24
        (("Heven", 2, 9), (41, 2), range(0, 2440, 40)),
        # M = 3·6·1 + 1 = 19 and 19^6 > 2^24: the six GF(64) digits in two
        # products, 19^4 <= 513^2 < 19^5
        (("Heven", 1, 64), (19, 4), None),
        # M = 13 and 13^2 > 9^2: one product per GF(64) digit
        (("Hodd", 1, 64), (13, 1), None),
        # 145 > 8^2: no table; one product per GF(49) digit, S % 7 == 0
        (("Hodd", 1, 49), (145, 0), None),
    ],
    ids=["packed-H(4,9)", "two-groups-H(2,64)", "per-digit-H(1,64)", "per-digit-mod-H(1,49)"],
)
def test_orth_masks_on_each_side_of_the_gate(space, gate, rows):
    ps = polar_space_make(*space)
    pts = enumerate_points(ps)
    assert geom._orth_gate(ps.field, ps.nv, len(pts)) == gate
    rows = range(len(pts)) if rows is None else rows
    masks = geom._orth_masks(ps, pts)
    assert [masks[i] for i in rows] == _reference_orth_rows(ps, pts, rows)


def test_orth_masks_in_float64():
    # Over GF(65521), M = 3·65520^2 + 1 >= 2^24: the products run in float64
    # and S % 65521 decides.  On the conic x0^2 + x1 x2 = 0 a point's perp is
    # its tangent, which meets the conic in that point only.  Digit sums
    # reach 2·65520^2, so float32 would round them and lose even the
    # diagonal bits.
    ps = polar_space_make("Qparabolic", 1, 65521)
    fld = ps.field
    pts = [(1, a, fld.neg(fld.inv(a))) for a in range(1, 65521, 163)]
    assert all(is_singular(v, ps) for v in pts)
    assert geom._orth_gate(fld, ps.nv, len(pts)) == (3 * 65520**2 + 1, 0)
    masks = geom._orth_masks(ps, pts)
    assert masks == [1 << i for i in range(len(pts))]
    assert masks == _reference_orth_rows(ps, pts, range(len(pts)))


# ---------------------------------------------------------------------------
# The batched elimination against the scalar rref
# ---------------------------------------------------------------------------

_RREF_ORDERS = (2, 3, 4, 5, 7, 8, 9, 25, 27, 49)


@st.composite
def _matrix(draw, fld, r, c):
    """An r x c matrix whose rows are random, zero, or combinations of earlier rows."""
    entries = st.integers(0, fld.order - 1)
    rows = []
    for _ in range(r):
        kind = draw(st.sampled_from(("random", "zero", "combination")))
        if kind == "random":
            row = tuple(draw(st.lists(entries, min_size=c, max_size=c)))
        elif kind == "zero" or not rows:
            row = (0,) * c
        else:
            a, b = (draw(st.sampled_from(rows)) for _ in range(2))
            row = vec_add(fld, vec_scale(fld, draw(entries), a), vec_scale(fld, draw(entries), b))
        rows.append(row)
    return rows


@st.composite
def _stacks(draw):
    fld = field_of_order(draw(st.sampled_from(_RREF_ORDERS)))
    r, c = draw(st.integers(0, 8)), draw(st.integers(0, 9))
    mats = draw(st.lists(_matrix(fld, r, c), max_size=6))
    return fld, np.array(mats, dtype=np.int32).reshape(len(mats), r, c)


def _assert_batch_matches_rref(fld, M):
    R, rank = rref_batch(fld, M)
    assert R.shape == M.shape and rank.shape == (len(M),)
    for m, red, k in zip(M.tolist(), R.tolist(), rank.tolist()):
        want = rref(fld, [tuple(row) for row in m])
        assert tuple(map(tuple, red[:k])) == want
        assert not any(map(any, red[k:]))


@settings(max_examples=150, deadline=None, database=None)
@given(_stacks())
def test_rref_batch_matches_rref(stack):
    _assert_batch_matches_rref(*stack)


def test_rref_batch_on_a_stack_of_several_blocks():
    fld = field_of_order(4)
    r, c = 8, 9
    per_block = geom.BLOCK_BYTES // (16 * r * c)  # rref_batch counts 16 bytes per entry
    rng = np.random.default_rng(5)
    M = rng.integers(0, 4, size=(2 * per_block + 7, r, c), dtype=np.int32)
    M[::3, 5:] = M[::3, :3]  # rank-deficient matrices: repeated rows
    M[::5, 2] = 0  # zero rows
    _assert_batch_matches_rref(fld, M)


def test_rref_batch_of_an_empty_stack():
    R, rank = rref_batch(field_of_order(9), np.zeros((0, 3, 4), dtype=np.int32))
    assert R.shape == (0, 3, 4) and rank.shape == (0,)


@st.composite
def _row_operations(draw):
    """A matrix and the same matrix after random swaps, scalings by nonzero
    elements and additions of multiples of one row to another."""
    fld = field_of_order(draw(st.sampled_from(_RREF_ORDERS)))
    r, c = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    rows = draw(_matrix(fld, r, c))
    moved = [tuple(row) for row in rows]
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(("swap", "scale", "add")))
        i, j = draw(st.integers(0, r - 1)), draw(st.integers(0, r - 1))
        if kind == "swap":
            moved[i], moved[j] = moved[j], moved[i]
        elif kind == "scale":
            moved[i] = vec_scale(fld, draw(st.integers(1, fld.order - 1)), moved[i])
        elif i != j:
            moved[i] = vec_add(fld, moved[i], vec_scale(fld, draw(st.integers(0, fld.order - 1)), moved[j]))
    return fld, rows, moved


@settings(max_examples=150, deadline=None, database=None)
@given(_row_operations())
def test_rref_is_invariant_under_row_operations(case):
    fld, rows, moved = case
    assert rref(fld, rows) == rref(fld, moved)
    R, rank = rref_batch(fld, np.array([rows, moved], dtype=np.int32))
    assert np.array_equal(R[0], R[1]) and rank[0] == rank[1]


@settings(max_examples=200, deadline=None, database=None)
@given(st.one_of(st.sets(st.integers(0, 2000), max_size=40), st.integers(0, (1 << 2000) - 1)))
def test_bit_indices_on_sparse_and_dense_masks(drawn):
    # Fewer than 24 set bits take the loop, the rest the numpy unpacking.
    mask = sum(1 << b for b in drawn) if isinstance(drawn, set) else drawn
    got = geom.bit_indices(mask)
    assert got == tuple(i for i in range(mask.bit_length()) if mask >> i & 1)
    assert all(type(i) is int for i in got)
