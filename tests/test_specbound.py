from fractions import Fraction

import pytest

from polarb.qcount import eigen_data, generators_on_point, num_generators
from polarb.specbound import (
    classical_bound,
    hermitian_cross_report,
    hermitian_ekr_bound,
    hermitian_params,
    hermitian_weighted_matrix,
    hoffman_cross_bound,
)


def test_hoffman_qplus72():
    rep = hoffman_cross_bound([(0, 64), (1, -8), (2, 4), (3, -8), (4, 64)], 270)
    assert rep.lambda_b == 64
    assert rep.bound == 135
    assert rep.case == "a" and rep.degenerate
    assert rep.support == (0, 4)


def test_hoffman_q42():
    rep = hoffman_cross_bound([(0, 8), (1, -2), (2, 2)], 15)
    assert rep.bound == 3
    assert rep.case == "c"
    assert rep.support == (0, 1, 2)


def test_hoffman_h34():
    rep = hoffman_cross_bound([(0, 16), (1, -2), (2, 4)], 27)
    assert rep.bound == Fraction(27, 5)
    assert rep.case == "a"


def test_hoffman_rejects_degenerate_input():
    with pytest.raises(ValueError):
        hoffman_cross_bound([(0, 8)], 15)
    with pytest.raises(ValueError):
        hoffman_cross_bound([(1, -2), (2, 2)], 15)


def test_hoffman_reduces_to_coclique_bound_in_case_b():
    # with lambda_b = -lambda_minus the cross bound is the plain ratio bound
    rep = classical_bound("Qminus", 2, 2)
    assert rep.case == "b"
    n, k, lam = rep.n, rep.k, rep.lambda_minus
    assert rep.bound == n * (-lam) / (k - lam)


def test_classical_bounds_per_family_grid():
    for d in (2, 3, 4):
        for q in (2, 3):
            assert classical_bound("Qplus", d, q).bound == Fraction(
                num_generators("Qplus", d, q), 2
            )
            for family in ("Qparabolic", "W"):
                assert classical_bound(family, d, q).bound == generators_on_point(family, d, q)
    for family, q in [("Heven", 4), ("Qminus", 2), ("Qminus", 3)]:
        for d in (2, 3):
            assert classical_bound(family, d, q).bound == generators_on_point(family, d, q)


def test_classical_support_predictions():
    assert classical_bound("Qminus", 2, 2).support == (0, 1)
    assert classical_bound("W", 2, 3).bound == 4
    assert classical_bound("Qplus", 3, 2).bound == 15  # n/2 at n = 30
    for family, d, q in [("Qplus", 4, 2), ("Qparabolic", 3, 2), ("Heven", 2, 4)]:
        rep = classical_bound(family, d, q)
        assert rep.support == rep.family_support


def test_hermitian_params_d3_q2():
    p = hermitian_params(3, 2)
    assert p.n == 891
    assert p.f1 == 252
    assert p.c == Fraction(1, 56)
    assert p.alpha == 80
    assert p.lambda_b == Fraction(-664, 9)
    assert p.k == Fraction(8048, 9)
    assert p.second_largest_ok


def test_hermitian_params_d2_q2_degenerates():
    p = hermitian_params(2, 2)
    assert p.f1 == 20
    assert p.c == Fraction(1, 10)
    assert p.alpha == -6
    assert p.lambda_b == 0 and p.k == 0  # the weighted matrix collapses at d = 2


def test_hermitian_params_rejects_bad_input():
    with pytest.raises(ValueError):
        hermitian_params(1, 2)
    with pytest.raises(ValueError):
        hermitian_params(3, 6)


def test_weighted_matrix_h54():
    p = hermitian_params(3, 2)
    eig = eigen_data("Hodd", 3, 4)
    w = hermitian_weighted_matrix(p, eig)
    assert w.entries[0] == 0
    assert w.entries[2] == 0  # index d-1
    assert w.entries[1] <= 0
    assert w.entries[3] > 0
    assert w.eigenvalues[0] == p.k  # all-ones eigenvalue = sum of n_i w_i
    conds = w.sign_conditions()
    assert conds["w0_zero"] and conds["middle_nonpositive"] and conds["not_zero"]


def test_cross_bound_d3_q2():
    rep = hermitian_cross_report(3, 2)
    b = rep.bound
    assert b == Fraction(747, 11)
    assert 32 < b < 96
    assert rep.valid and rep.improves_plain
    assert rep.plain.bound == 99


def test_cross_bound_d2_q2_reported_not_asserted():
    rep = hermitian_cross_report(2, 2)
    assert rep.bound is None
    assert not rep.valid
    assert all(x == 0 for x in rep.weighted.entries)
    assert rep.plain.bound == Fraction(27, 5)


def test_cross_bound_d4_q2_conditionally_valid():
    rep = hermitian_cross_report(4, 2)
    assert rep.bound is not None
    assert rep.valid  # at (4, 2) the four conditions do hold


def test_ekr_bound_values():
    assert hermitian_ekr_bound(3, 2) == 57
    assert hermitian_ekr_bound(3, 2) >= 2**5 + 2**3 + 2 + 1  # known EKR example size 43
    assert hermitian_ekr_bound(3, 3) > 0
    b52 = hermitian_ekr_bound(5, 2)
    assert b52 > 0
    assert b52 == Fraction(19597981, 29)
    with pytest.raises(ValueError):
        hermitian_ekr_bound(2, 2)


def test_attaining_pair_sizes_match_alpha_n():
    # equality-case sizes: |Y| = |Z| = alpha*n with alpha = lambda_b/(k+lambda_b)
    rep = classical_bound("Qplus", 4, 2)
    assert rep.bound == rep.lambda_b * rep.n / (rep.k + rep.lambda_b) == 135
    rep42 = classical_bound("Qparabolic", 2, 2)
    assert rep42.bound == 3  # the pencil and the regulus side both have 3 elements
