import dataclasses
from fractions import Fraction
from types import SimpleNamespace

import pytest

from polarb import scheme
from polarb.qcount import eigen_data
from polarb.scheme import (
    RelationData,
    SchemeError,
    build_relations,
    check_intersection_numbers,
    eigenspace_support,
    idempotent,
    verify_spectrum,
)


def test_valencies_h34(relations):
    rel = relations("Hodd", 2, 4)
    assert rel.valencies == (1, 10, 16)
    assert sum(rel.valencies) == rel.n


def test_valencies_q42(relations):
    rel = relations("Qparabolic", 2, 2)
    assert rel.valencies == (1, 6, 8)


def test_relations_partition_and_symmetry(relations):
    rel = relations("W", 2, 3)
    n = rel.n
    full = (1 << n) - 1
    for x in range(n):
        acc = 0
        for i in range(rel.d + 1):
            assert acc & rel.rows[i][x] == 0  # pairwise disjoint
            acc |= rel.rows[i][x]
        assert acc == full
    for i in range(rel.d + 1):
        for x in range(n):
            for y in range(n):
                assert (rel.rows[i][x] >> y) & 1 == (rel.rows[i][y] >> x) & 1
    assert all(rel.rows[0][x] == 1 << x for x in range(n))


def _reference_relation_rows(cat):
    """Relation rows by one popcount per pair of point masks."""
    n, d = cat.n, cat.space.d
    masks = cat.point_masks
    rows = [[0] * n for _ in range(d + 1)]
    for x in range(n):
        for y in range(x, n):
            i = d - cat._dim_of_count[(masks[x] & masks[y]).bit_count()]
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
    assert rel.rows == _reference_relation_rows(rel.cat)
    assert rel.valencies == tuple(row[0].bit_count() for row in rel.rows)


def test_unknown_intersection_size_is_a_scheme_error(catalog):
    cat = catalog("W", 2, 3)
    extra = next(j for j in range(len(cat.points)) if not cat.point_masks[0] >> j & 1)
    masks = (cat.point_masks[0] | 1 << extra,) + cat.point_masks[1:]
    with pytest.raises(SchemeError, match="no \\[j\\]_q"):
        build_relations(dataclasses.replace(cat, point_masks=masks))


def test_float32_product_needs_fewer_than_2_24_points(catalog, monkeypatch):
    cat = catalog("W", 2, 3)
    monkeypatch.setattr(scheme, "_FLOAT32_EXACT", len(cat.points))
    with pytest.raises(ValueError, match="2\\^24"):
        build_relations(cat)


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
    rows = rel.rows
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
    y = rel.rows[src][x].bit_length() - 1
    pair = (1 << x) | (1 << y)
    rows = [list(r) for r in rel.rows]
    for z in (x, y):
        other = pair ^ (1 << z)
        rows[src][z] ^= other
        rows[dst][z] |= other
    return RelationData(cat=rel.cat, rows=tuple(tuple(r) for r in rows), valencies=rel.valencies)


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


def test_disconnected_relation_is_rejected():
    # Two disjoint edges as R_1 and the other four pairs as R_2: every
    # identity A_1 A_i holds, but c_2 = 0, so R_2 is not at distance 2.
    cat = SimpleNamespace(n=4, space=SimpleNamespace(d=2))
    rows = ((1, 2, 4, 8), (2, 1, 8, 4), (12, 12, 3, 3))
    rel = RelationData(cat=cat, rows=rows, valencies=(1, 1, 2))
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
    E1 = idempotent(rel, eig, 1)
    sq = [[sum(E1[i][t] * E1[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
    assert sq == E1
    E2 = idempotent(rel, eig, 2)
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


def test_support_handles_rational_vectors(relations):
    rel = relations("Qparabolic", 2, 2)
    eig = eigen_data("Qparabolic", 2, 2)
    v = [Fraction(1, 3)] * rel.n
    assert eigenspace_support(v, rel, eig) == {0}
