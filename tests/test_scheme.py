import dataclasses
import random
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarb import geom, scheme
from polarb.checks import ACCEPTANCE_INSTANCES
from polarb.geom import bits_to_masks
from polarb.qcount import eigen_data, nbracket
from polarb.scheme import (
    RelationData,
    SchemeError,
    build_relations,
    check_intersection_numbers,
    eigenspace_support,
    verify_spectrum,
)


def test_valencies_h34(relations):
    rel = relations("Hodd", 2, 4)
    assert rel.valencies == (1, 10, 16)
    assert sum(rel.valencies) == rel.n


def test_valencies_q42(relations):
    rel = relations("Qparabolic", 2, 2)
    assert rel.valencies == (1, 6, 8)


def _rows(rel):
    """The relation rows of rel.codim as bitmasks: rows[i][x] = {y : C[x, y] = i}."""
    return tuple(tuple(bits_to_masks(rel.codim == i)) for i in range(rel.d + 1))


def test_relations_partition_and_symmetry(relations):
    rel = relations("W", 2, 3)
    n = rel.n
    rows = _rows(rel)
    full = (1 << n) - 1
    for x in range(n):
        acc = 0
        for i in range(rel.d + 1):
            assert acc & rows[i][x] == 0  # pairwise disjoint
            acc |= rows[i][x]
        assert acc == full
    for i in range(rel.d + 1):
        for x in range(n):
            for y in range(n):
                assert (rows[i][x] >> y) & 1 == (rows[i][y] >> x) & 1
    assert all(rows[0][x] == 1 << x for x in range(n))


def _reference_relation_rows(cat):
    """Relation rows by one popcount per pair of point masks."""
    n, d = cat.n, cat.space.d
    masks = cat.point_masks
    dim_of_count = {nbracket(j, cat.space.q): j for j in range(d + 1)}
    rows = [[0] * n for _ in range(d + 1)]
    for x in range(n):
        for y in range(x, n):
            i = d - dim_of_count[(masks[x] & masks[y]).bit_count()]
            rows[i][x] |= 1 << y
            rows[i][y] |= 1 << x
    return tuple(tuple(r) for r in rows)


@pytest.mark.parametrize(
    "space",
    [
        ("W", 2, 2),
        ("Qplus", 3, 2),
        ("W", 2, 3),
        ("Qminus", 2, 3),
        ("Hodd", 2, 4),
        ("Heven", 2, 4),
        ("Qparabolic", 2, 2),
        ("Qparabolic", 2, 4),
        ("W", 0, 2),
        ("W", 1, 3),
        ("W", 3, 2),
    ],
)
def test_relation_rows_match_popcount_reference(relations, space):
    rel = relations(*space)
    rows = _rows(rel)
    assert rows == _reference_relation_rows(rel.cat)
    assert rel.valencies == tuple(row[0].bit_count() for row in rows)


def test_unknown_intersection_size_is_a_scheme_error(catalog):
    cat = catalog("W", 2, 3)
    extra = next(j for j in range(len(cat.points)) if not cat.point_masks[0] >> j & 1)
    masks = (cat.point_masks[0] | 1 << extra,) + cat.point_masks[1:]
    with pytest.raises(SchemeError, match="no \\[j\\]_q"):
        build_relations(dataclasses.replace(cat, point_masks=masks))


def test_common_point_counts_match_popcount_reference(catalog, monkeypatch):
    cat = catalog("Hodd", 2, 9)  # 280 points: five words, the last one partly filled
    assert len(cat.points) > 64 and len(cat.points) % 64
    monkeypatch.setattr(geom, "BLOCK_BYTES", 5 * 13 * cat.n)  # blocks of 5 rows, then 2
    blocks = list(scheme.common_point_counts(cat))
    assert {len(b) for b in blocks} == {5, cat.n % 5}
    assert all(b.dtype == np.int32 for b in blocks)
    pm, n = cat.point_masks, cat.n
    # Each block holds its rows' counts from the column of its first row on.
    assert [b.tolist() for b in blocks] == [
        [[(pm[x] & pm[y]).bit_count() for y in range(r, n)] for x in range(r, min(r + 5, n))] for r in range(0, n, 5)
    ]


def test_intersection_numbers_w33(relations):
    rel = relations("W", 2, 3)
    p = check_intersection_numbers(rel)  # full homogeneity sweep over 40x40 pairs
    for i in range(3):
        assert p[i][i][0] == rel.valencies[i]
        for j in range(3):
            for k in range(3):
                assert p[0][j][k] == (1 if j == k else 0)


def _reference_intersection_numbers(rel):
    """Exhaustive count of p[i][j][k] over every pair; raises on inhomogeneity."""
    d = rel.d
    rows = _rows(rel)
    p = [[[None] * (d + 1) for _ in range(d + 1)] for _ in range(d + 1)]
    for x in range(rel.n):
        for i in range(d + 1):
            rx = rows[i][x]
            for k in range(d + 1):
                m = rows[k][x]
                while m:
                    lsb = m & -m
                    m ^= lsb
                    y = lsb.bit_length() - 1
                    for j in range(d + 1):
                        cnt = (rx & rows[j][y]).bit_count()
                        if p[i][j][k] is None:
                            p[i][j][k] = cnt
                        elif p[i][j][k] != cnt:
                            raise AssertionError(f"p[{i}][{j}]^{k} inhomogeneous at pair ({x},{y})")
    return p


@pytest.mark.parametrize("space", [("W", 2, 3), ("Qparabolic", 2, 2), ("Hodd", 2, 4)])
def test_intersection_numbers_match_exhaustive_count(relations, space):
    rel = relations(*space)
    assert check_intersection_numbers(rel) == _reference_intersection_numbers(rel)


def _moved_pair(rel, src, dst):
    """A copy of rel with one pair {x, y} of R_src moved to R_dst, symmetrically."""
    x = rel.n - 1
    y = np.flatnonzero(rel.codim[x] == src)[-1]
    C = rel.codim.copy()
    C[x, y] = C[y, x] = dst
    return RelationData(cat=rel.cat, codim=C, valencies=rel.valencies)


@pytest.mark.parametrize(
    "space", [("W", 2, 3), ("Qparabolic", 2, 2), ("Hodd", 2, 4), ("Qplus", 3, 2), ("W", 3, 2)]
)
@pytest.mark.parametrize("src, dst", [(1, 2), (2, 1)])
def test_moved_pair_breaks_the_certificate(relations, space, src, dst):
    rel = relations(*space)
    bad = _moved_pair(rel, src, dst)
    with pytest.raises(SchemeError):
        check_intersection_numbers(bad)
    with pytest.raises(SchemeError):
        verify_spectrum(bad, eigen_data(*space))


def _reference_intersection_array(rel):
    """The intersection array by dense float64 products A_1 A_i, each compared
    with the combination of A_(i-1), A_i, A_(i+1) read off the witnesses.
    Every entry and partial sum is an integer at most n < 2^53, so exact."""
    d, n = rel.d, rel.n
    if d == 0:
        return [(0, 0, 1)]
    witness = scheme._witnesses(rel)
    C = rel.codim
    A1 = (C == 1).astype(np.float64)
    assert np.array_equal(A1, A1.T)
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
        assert not M.any() and coef.get(i + 1) != 0
        array.append((coef.get(i - 1, 0), coef[i], coef.get(i + 1, 1)))
    return array


@pytest.mark.parametrize("space", ACCEPTANCE_INSTANCES + (("Qminus", 3, 2),))
def test_packed_certificate_matches_float64_reference(relations, space):
    rel = relations(*space)
    assert scheme._intersection_array(rel) == _reference_intersection_array(rel)


def test_irregular_a1_row_is_a_scheme_error(relations):
    # Moving one pair of R_1 to R_2 leaves two rows of A_1 one neighbour short.
    bad = _moved_pair(relations("W", 2, 3), 1, 2)
    with pytest.raises(SchemeError, match="relation 1 is not regular"):
        scheme._intersection_array(bad)


@pytest.mark.parametrize("value", [-1, 3])
def test_codimension_outside_0_to_d_is_a_scheme_error(relations, value):
    # A negative entry would otherwise index the digit table from its end.
    rel = relations("W", 2, 3)
    C = rel.codim.copy()
    C[0, 1] = C[1, 0] = value
    with pytest.raises(SchemeError, match="outside 0..2"):
        scheme._intersection_array(RelationData(cat=rel.cat, codim=C, valencies=rel.valencies))


def test_asymmetric_a1_is_a_scheme_error():
    # A_1 is the directed 3-cycle 0 -> 1 -> 2 -> 0: regular, with C in 0..2
    # and A_0 = I, but C[1, 0] = 2, so 1 is not a neighbour of its neighbour 0.
    cat = SimpleNamespace(n=3, space=SimpleNamespace(d=2))
    C = np.array([[0, 1, 2], [2, 0, 1], [1, 2, 0]], dtype=np.int8)
    rel = RelationData(cat=cat, codim=C, valencies=(1, 1, 1))
    with pytest.raises(SchemeError, match="A_1 is not symmetric"):
        scheme._intersection_array(rel)


def test_digit_gate_refuses_more_than_63_bits():
    # One edge as R_1 (k_1 = 1, one bit per digit) and d = 63: 64 digits.
    cat = SimpleNamespace(n=2, space=SimpleNamespace(d=63))
    rel = RelationData(cat=cat, codim=np.array([[0, 1], [1, 0]], dtype=np.int8), valencies=(1, 1) + (0,) * 62)
    with pytest.raises(ValueError, match="do not fit in int64"):
        scheme._intersection_array(rel)


def test_disconnected_relation_is_rejected():
    # Two disjoint edges as R_1 and the other four pairs as R_2: every
    # identity A_1 A_i holds, but c_2 = 0, so R_2 is not at distance 2.
    cat = SimpleNamespace(n=4, space=SimpleNamespace(d=2))
    C = np.array([[0, 1, 2, 2], [1, 0, 2, 2], [2, 2, 0, 1], [2, 2, 1, 0]], dtype=np.int8)
    rel = RelationData(cat=cat, codim=C, valencies=(1, 1, 2))
    eig = dataclasses.replace(eigen_data("Qparabolic", 2, 2), n=4)
    with pytest.raises(SchemeError, match="c_2 = 0"):
        verify_spectrum(rel, eig)


@pytest.mark.parametrize("r, i", [(r, i) for r in range(3) for i in range(3)])
def test_wrong_p_entry_is_detected(relations, r, i):
    rel = relations("Qparabolic", 2, 2)
    eig = eigen_data("Qparabolic", 2, 2)
    P = [list(row) for row in eig.P]
    P[r][i] += 1
    wrong = dataclasses.replace(eig, P=tuple(tuple(row) for row in P))
    with pytest.raises(SchemeError):
        verify_spectrum(rel, wrong)


@pytest.mark.parametrize("row", [(1, 1, -2), (1, 0, -2)], ids=["repeated", "non-root"])
def test_p_rows_must_be_the_distinct_roots(relations, row):
    # Q(4,2) has v_1 = x and v_2 = (x^2 - x - 6)/3; each row agrees with them.
    eig = eigen_data("Qparabolic", 2, 2)
    wrong = dataclasses.replace(eig, P=(eig.P[0], eig.P[1], row))
    with pytest.raises(SchemeError):
        verify_spectrum(relations("Qparabolic", 2, 2), wrong)


def test_annihilating_polynomials(relations):
    # Q(4,2): A_1 annihilated by (x-6)(x-1)(x+3); H(3,4): A_2 by (x-16)(x+2)(x-4)
    rel = relations("Qparabolic", 2, 2)
    eig = eigen_data("Qparabolic", 2, 2)
    assert [eig.P[r][1] for r in range(3)] == [6, 1, -3]
    assert verify_spectrum(rel, eig)

    rel34 = relations("Hodd", 2, 4)
    eig34 = eigen_data("Hodd", 2, 4)
    assert [eig34.P[r][2] for r in range(3)] == [16, -2, 4]
    assert verify_spectrum(rel34, eig34)


def test_spectrum_mismatch_is_detected(relations):
    rel = relations("Qparabolic", 2, 2)
    wrong = eigen_data("W", 2, 3)  # wrong space entirely
    with pytest.raises((SchemeError, ValueError)):
        verify_spectrum(rel, wrong)


def test_idempotency_and_orthogonality_h34(relations):
    rel = relations("Hodd", 2, 4)
    eig = eigen_data("Hodd", 2, 4)
    n = rel.n
    E1 = _reference_idempotent(rel, eig, 1)
    sq = [[sum(E1[i][t] * E1[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
    assert sq == E1
    E2 = _reference_idempotent(rel, eig, 2)
    prod = [[sum(E1[i][t] * E2[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
    assert all(x == 0 for row in prod for x in row)


def test_support_of_all_ones(relations):
    rel = relations("Hodd", 2, 4)
    eig = eigen_data("Hodd", 2, 4)
    assert eigenspace_support([1] * rel.n, rel, eig) == {0}


def test_support_of_latins_minus_greeks(relations):
    from polarb.extremal import bipartition_latins_greeks

    rel = relations("Qplus", 4, 2)
    eig = eigen_data("Qplus", 4, 2)
    x1, _ = bipartition_latins_greeks(rel.cat)
    inside = set(x1)
    v = [1 if i in inside else -1 for i in range(rel.n)]
    assert eigenspace_support(v, rel, eig) == {4}


def test_support_of_point_pencil_q42(relations):
    rel = relations("Qparabolic", 2, 2)
    eig = eigen_data("Qparabolic", 2, 2)
    cat = rel.cat
    pencil = [1 if (cat.point_masks[i] >> 0) & 1 else 0 for i in range(cat.n)]
    assert sum(pencil) == 3
    assert eigenspace_support(pencil, rel, eig) == {0, 1}


@pytest.mark.parametrize("d", [3, 4])
def test_support_of_rational_latins_greeks_combination(relations, d):
    # 1/2 on X1 and -1/4 on X2 is (1/8) 1 + (3/8)(chi_X1 - chi_X2): in V_0 + V_d.
    from polarb.extremal import bipartition_latins_greeks

    rel, eig = relations("Qplus", d, 2), eigen_data("Qplus", d, 2)
    inside = set(bipartition_latins_greeks(rel.cat)[0])
    v = [Fraction(1, 2) if x in inside else Fraction(-1, 4) for x in range(rel.n)]
    assert eigenspace_support(v, rel, eig) == {0, d}


def test_support_of_rational_pencil_on_background(relations):
    rel, eig = relations("Qparabolic", 2, 2), eigen_data("Qparabolic", 2, 2)
    v = [Fraction(1, 2) if m & 1 else Fraction(1, 3) for m in rel.cat.point_masks]
    assert eigenspace_support(v, rel, eig) == {0, 1}


def test_support_handles_rational_vectors(relations):
    rel = relations("Qparabolic", 2, 2)
    eig = eigen_data("Qparabolic", 2, 2)
    v = [Fraction(1, 3)] * rel.n
    assert eigenspace_support(v, rel, eig) == {0}


def _reference_apply_relation(rel, i, v):
    """A_i v by a walk over the set bits of each relation row."""
    rows = _rows(rel)[i]
    out = []
    for x in range(rel.n):
        m = rows[x]
        acc = 0
        while m:
            lsb = m & -m
            m ^= lsb
            acc += v[lsb.bit_length() - 1]
        out.append(acc)
    return out


def _reference_eigenspace_support(v, rel, eig):
    """The Fraction route: E_j v = (1/n) sum_i Q[i][j] A_i v, entry by entry."""
    n, d = rel.n, rel.d
    images = [_reference_apply_relation(rel, i, v) for i in range(d + 1)]
    support = set()
    total = [Fraction(0)] * n
    for j in range(d + 1):
        proj = [Fraction(0)] * n
        for i in range(d + 1):
            qij = eig.Q[i][j]
            if qij:
                for x in range(n):
                    if images[i][x]:
                        proj[x] += qij * images[i][x]
        if any(proj):
            support.add(j)
        for x in range(n):
            total[x] += proj[x]
    for x in range(n):
        if total[x] != n * Fraction(v[x]):
            raise SchemeError("sum of idempotent projections does not reproduce the vector")
    return frozenset(support)


def _reference_idempotent(rel, eig, j):
    """E_j by a walk over the set bits of every relation row."""
    n = rel.n
    rows = _rows(rel)
    out = [[Fraction(0)] * n for _ in range(n)]
    for i in range(rel.d + 1):
        for x in range(n):
            m = rows[i][x]
            while m:
                lsb = m & -m
                m ^= lsb
                out[x][lsb.bit_length() - 1] += Fraction(eig.Q[i][j], n)
    return out


_SUPPORT_SPACES = [("W", 2, 3), ("Qparabolic", 2, 2), ("Hodd", 2, 4), ("Qplus", 3, 2), ("Qplus", 4, 2)]


def _vector(rel, kind, seed):
    """A {-1, 0, 1} vector, a dense Fraction vector, a scaled point pencil on
    a Fraction background, or a vector with entries of absolute value at
    least 2^62, drawn from ``seed``."""
    rng = random.Random(seed)
    n, pm = rel.n, rel.cat.point_masks
    if kind == "ternary":
        return [rng.choice((-1, 0, 1)) for _ in range(n)]
    if kind == "fractions":
        return [Fraction(rng.randint(-60, 60), rng.randint(1, 12)) for _ in range(n)]
    if kind == "pencil":
        p = rng.randrange(len(rel.cat.points))
        c = Fraction(rng.randint(1, 50), rng.randint(1, 9))
        rest = rng.choice((0, Fraction(1, 7), Fraction(c.numerator, c.denominator + 1)))
        return [c if pm[x] >> p & 1 else rest for x in range(n)]
    return [rng.choice((1, -1, 0)) * rng.randint(2**62, 2**70) for _ in range(n)]


@pytest.mark.parametrize("space", _SUPPORT_SPACES)
def test_support_kernel_matches_fraction_reference(relations, space):
    rel, eig = relations(*space), eigen_data(*space)

    @settings(max_examples=8 if rel.n > 100 else 40, deadline=None, database=None)
    @given(st.sampled_from(("ternary", "fractions", "pencil", "huge")), st.integers(0, 2**32))
    def check(kind, seed):
        v = _vector(rel, kind, seed)
        assert eigenspace_support(v, rel, eig) == _reference_eigenspace_support(v, rel, eig)

    check()


@pytest.mark.parametrize("space", [("W", 2, 3), ("Qplus", 4, 2)])
@pytest.mark.parametrize("e", [61, 62, 63, 90])
def test_support_of_large_constant_vectors(relations, space, e):
    # A constant vector lies in V_0.  D n 2^e is a multiple of 2^64 for e >= 62
    # on both spaces: int64 arithmetic would wrap E_0 v to zero.
    rel, eig = relations(*space), eigen_data(*space)
    for c in (2**e, -(2**e) + 1):
        assert eigenspace_support([c] * rel.n, rel, eig) == {0}


def test_support_runs_on_python_ints_above_the_bound(relations, monkeypatch):
    rel, eig = relations("Qplus", 3, 2), eigen_data("Qplus", 3, 2)
    v = [(-1) ** x * (x % 4) for x in range(rel.n)]
    want = eigenspace_support(v, rel, eig)
    monkeypatch.setattr(scheme, "_INT64_EXACT", 0)
    assert eigenspace_support(v, rel, eig) == want == _reference_eigenspace_support(v, rel, eig)


def test_doctored_q_entry_breaks_the_identity_check(relations):
    rel, eig = relations("Qparabolic", 2, 2), eigen_data("Qparabolic", 2, 2)
    Q = [list(row) for row in eig.Q]
    Q[1][1] += 1
    wrong = dataclasses.replace(eig, Q=tuple(tuple(row) for row in Q))
    v = [1] + [0] * (rel.n - 1)
    with pytest.raises(SchemeError, match="sum of idempotent projections"):
        eigenspace_support(v, rel, wrong)
    with pytest.raises(SchemeError, match="sum of idempotent projections"):
        _reference_eigenspace_support(v, rel, wrong)


def test_codim_matrix_reads_the_rows(relations):
    # Row by row, C's classes are the popcount reference's relation rows.
    rel = relations("Qplus", 3, 2)
    C = rel.codim
    assert C.dtype == np.int8 and C.shape == (rel.n, rel.n)
    assert (C == C.T).all() and C.min() == 0 and C.max() == rel.d
    for i, rows in enumerate(_reference_relation_rows(rel.cat)):
        for x in range(rel.n):
            assert rows[x] == sum(1 << int(y) for y in np.flatnonzero(C[x] == i))


def _doctored_counts(monkeypatch, edit):
    """Make build_relations read ``edit`` of the full common point count matrix.

    The matrix is mirrored from the triangle blocks and handed over as one
    block: a block from row 0 holds every column, and its leading square is
    the whole matrix, so build_relations mirrors none of it."""
    counts = scheme.common_point_counts

    def full(cat):
        M, r = np.empty((cat.n, cat.n), dtype=np.int32), 0
        for block in counts(cat):
            M[r : r + len(block), r:] = block
            M[r:, r : r + len(block)] = block.T
            r += len(block)
        return M

    monkeypatch.setattr(scheme, "common_point_counts", lambda cat: [edit(full(cat))])


def test_build_relations_rejects_an_irregular_relation(catalog, monkeypatch):
    def edit(M):
        M[0, np.flatnonzero(M[0] == 1)[0]] = 0  # line 0 no longer meets one line in a point
        return M

    cat = catalog("W", 2, 3)  # before the patch: a cold memo would build C from the doctored counts
    _doctored_counts(monkeypatch, edit)
    with pytest.raises(SchemeError, match="relation 1 is not regular"):
        build_relations(cat)


def test_build_relations_rejects_a_non_identity_a0(catalog, monkeypatch):
    # Rolling the rows keeps every row's class sizes but moves the diagonal.
    cat = catalog("W", 2, 3)
    _doctored_counts(monkeypatch, lambda M: np.roll(M, 1, axis=0))
    with pytest.raises(SchemeError, match="A_0 is not the identity"):
        build_relations(cat)


def _codim_idempotent(rel, eig, j):
    """E_j[x][y] = Q[C[x, y]][j] / n, gathered from the codimension matrix."""
    col = [Fraction(eig.Q[i][j], rel.n) for i in range(rel.d + 1)]
    return [[col[i] for i in row] for row in rel.codim.tolist()]


@pytest.mark.parametrize("space", [("Hodd", 2, 4), ("Qparabolic", 2, 2)])
def test_idempotent_matches_bit_walk_reference(relations, space):
    rel, eig = relations(*space), eigen_data(*space)
    for j in range(rel.d + 1):
        assert _codim_idempotent(rel, eig, j) == _reference_idempotent(rel, eig, j)
