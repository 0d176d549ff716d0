from fractions import Fraction
from itertools import product

import pytest

from polarb.families import TAU
from polarb.qcount import (
    _qf_power,
    disjointness_eigenvalue,
    eigen_data,
    eigenvalue_P_entry,
    gaussian,
    generators_on_point,
    lemma9_triple,
    lemma_bound_gens_check,
    num_generators,
    num_points,
)


def brute_force_subspace_count(n, k, q):
    """Oracle: count k-dim subspaces of GF(q)^n as distinct span *sets*.

    Spans are materialized as frozensets of vectors, with scalar arithmetic
    done directly mod q (q prime here), nothing shared with the library.
    """
    vectors = list(product(range(q), repeat=n))

    def span(basis):
        out = set()
        for coeffs in product(range(q), repeat=len(basis)):
            v = tuple(sum(c * b[i] for c, b in zip(coeffs, basis)) % q for i in range(n))
            out.add(v)
        return frozenset(out)

    spans = set()
    nonzero = [v for v in vectors if any(v)]

    def rec(basis, start):
        if len(basis) == k:
            spans.add(span(basis))
            return
        for i in range(start, len(nonzero)):
            v = nonzero[i]
            if v not in span(basis):
                rec(basis + [v], i + 1)

    rec([], 0)
    return len(spans)


# Expected values frozen from the oracle above.
@pytest.mark.parametrize(
    "n,k,q,expected",
    [
        (4, 2, 2, 35),
        (3, 1, 3, 13),
        (4, 3, 2, 15),
        (3, 2, 3, 13),
    ],
)
def test_gaussian_against_brute_force(n, k, q, expected):
    assert brute_force_subspace_count(n, k, q) == expected
    assert gaussian(n, k, q) == expected


def test_gaussian_edges():
    for n in range(6):
        assert gaussian(n, 0, 3) == 1
    assert gaussian(2, 1, 7) == 8
    assert gaussian(3, 5, 2) == 0
    assert gaussian(3, -1, 2) == 0


def test_gaussian_pascal_recursion():
    # [n+1, k+1] = [n, k+1] + q^(n-k) [n, k]
    for q in (2, 3, 4, 5):
        for n in range(12):
            for k in range(n):
                lhs = gaussian(n + 1, k + 1, q)
                rhs = gaussian(n, k + 1, q) + q ** (n - k) * gaussian(n, k, q)
                assert lhs == rhs


@pytest.mark.parametrize(
    "family,d,q,expected",
    [
        ("Qplus", 4, 2, 270),
        ("Hodd", 3, 4, 891),
        ("Hodd", 2, 4, 27),
        ("W", 2, 3, 40),
        ("Heven", 2, 4, 297),
        ("Qparabolic", 2, 2, 15),
        ("Qminus", 2, 2, 45),
    ],
)
def test_num_generators(family, d, q, expected):
    assert num_generators(family, d, q) == expected


def test_generators_on_point():
    assert generators_on_point("Qparabolic", 2, 2) == 3
    assert generators_on_point("Hodd", 3, 4) == 27
    assert generators_on_point("Qplus", 4, 2) == 30


def test_num_points():
    assert num_points("Hodd", 2, 4) == 45
    assert num_points("Qparabolic", 2, 2) == 15
    assert num_points("W", 2, 3) == 40


def test_disjointness_eigenvalues():
    assert disjointness_eigenvalue(4, 0, 0, 2) == 64
    assert disjointness_eigenvalue(4, 0, 4, 2) == 64
    assert disjointness_eigenvalue(2, 1, 1, 4) == -2  # -(4^(1/2)) in H(3,4)


def test_halfpower_materialization():
    assert _qf_power(2, 0, 6) == 8
    assert _qf_power(4, 1, 3) == 8  # a half-integer exponent over a square base
    assert _qf_power(9, 1, 0) == 1
    with pytest.raises(ValueError, match="square field order"):
        _qf_power(2, 1, 3)
    with pytest.raises(ValueError, match="outside a Hermitian family"):
        _qf_power(4, 2, 3)


def test_p_entries_match_lemma9_closed_forms_at_rank2():
    # relation A_1 of Q(4,q): eigenvalues on W_0, W_1, W_2 at q = 2
    assert eigenvalue_P_entry(2, 2, 1, 0, 2) == 6
    assert eigenvalue_P_entry(2, 2, 1, 1, 2) == 1
    assert eigenvalue_P_entry(2, 2, 1, 2, 2) == -3
    assert lemma9_triple(2, 1, 2) == (1, -3, 6)


def test_lemma9_cross_checks_vanhove():
    for d, q in [(2, 2), (2, 3), (3, 2), (4, 2), (4, 3)]:
        for s in range(1, d):
            lam_minus, lam_plus, k_s = lemma9_triple(d, s, q)
            assert lam_minus == eigenvalue_P_entry(d, 2, d - s, 1, q)
            assert lam_plus == eigenvalue_P_entry(d, 2, d - s, d, q)
            assert k_s == eigenvalue_P_entry(d, 2, d - s, 0, q)


def test_lemma9_pascal_identity_for_valency():
    for d, q in [(3, 2), (4, 3), (5, 2)]:
        for s in range(1, d):
            _, _, k_s = lemma9_triple(d, s, q)
            alt = (
                gaussian(d - 1, s, q) + gaussian(d - 1, s - 1, q) * q ** (d - s)
            ) * q ** ((d - s + 1) * (d - s) // 2)
            assert k_s == alt


def test_vanhove_matches_disjointness_row():
    cases = [("Qplus", 2), ("Qparabolic", 2), ("W", 3), ("Qminus", 2)]
    for family, q in cases:
        tau = TAU[family]
        for d in range(1, 6):
            for r in range(d + 1):
                assert eigenvalue_P_entry(d, tau, d, r, q) == disjointness_eigenvalue(d, tau, r, q)
    for family, q in [("Hodd", 4), ("Heven", 4), ("Hodd", 9)]:
        tau = TAU[family]
        for d in range(1, 5):
            for r in range(d + 1):
                assert eigenvalue_P_entry(d, tau, d, r, q) == disjointness_eigenvalue(d, tau, r, q)


def test_qplus_extreme_eigenvalues_equal_absolute():
    for d in range(2, 6):
        for q in (2, 3):
            k = disjointness_eigenvalue(d, 0, 0, q)
            top = disjointness_eigenvalue(d, 0, d, q)
            assert abs(top) == abs(k)


def test_eigen_data_identities_q43():
    ed = eigen_data("Qparabolic", 2, 3)
    n = ed.n
    assert n == 40
    for r in range(3):
        for c in range(3):
            pq = sum(Fraction(ed.P[r][t]) * ed.Q[t][c] for t in range(3))
            assert pq == (n if r == c else 0)
    assert sum(ed.multiplicities) == n
    assert ed.P[0] == ed.valencies
    assert all(ed.P[r][0] == 1 for r in range(3))


def test_eigen_data_h34_known_values():
    ed = eigen_data("Hodd", 2, 4)
    assert ed.P == ((1, 10, 16), (1, 1, -2), (1, -5, 4))
    assert ed.multiplicities == (1, 20, 6)
    assert ed.Q[2][1] == Fraction(-5, 2)  # Q entries need not be integers


def test_eigen_data_h54_q_column():
    ed = eigen_data("Hodd", 3, 4)
    assert ed.n == 891
    assert ed.Q[0][1] == 252
    assert ed.Q[2][1] == Fraction(9, 2)
    assert ed.Q[3][1] < 0


def test_lemma_bound_gens_examples():
    assert lemma_bound_gens_check(2, 1)
    assert lemma_bound_gens_check(2, 4)
    assert lemma_bound_gens_check(9, 12)
