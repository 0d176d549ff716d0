"""Exact q-analog counting and closed-form spectral data for polar spaces.

Everything here is exact: integers for Gaussian binomials, counts and
eigenvalues, `fractions.Fraction` for the dual eigenmatrix Q.  Half-integer
exponents (the Hermitian type parameter) are passed doubled to _qf_power,
which evaluates them over the base sqrt(q), so every spectral value in scope
is an integer.

Conventions:
  * q is always the order of the ground field (a square for Hermitian
    families), tau = 2e the doubled type parameter.
  * P[r][i] is the eigenvalue of the relation matrix A_i on the eigenspace
    W_r; row 0 lists the valencies, column 0 is all-ones.
  * Q = n * P^(-1), so column j of Q expands the idempotent E_j in the A_i
    basis and m_j = Q[0][j] is the multiplicity of W_j.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import isqrt, lcm

from .families import TAU


def binom2(n: int) -> int:
    """n(n-1)/2 as a polynomial in n (also for n < 0, matching the eigenvalue formulas)."""
    return n * (n - 1) // 2


def gaussian(n: int, k: int, q: int) -> int:
    """Gaussian binomial [n choose k]_q; zero when k < 0 or k > n.

    The out-of-range convention makes sums with natural bounds (such as the
    eigenvalue formula in eigenvalue_P_entry) self-truncating.
    """
    if k < 0 or k > n:
        return 0
    if q < 2:
        raise ValueError(f"q must be at least 2, got {q}")
    num = 1
    den = 1
    for i in range(1, k + 1):
        num *= q ** (n - i + 1) - 1
        den *= q**i - 1
    if num % den:
        raise ArithmeticError(f"Gaussian binomial [{n} choose {k}]_{q}: {den} does not divide {num}")
    return num // den


def nbracket(n: int, q: int) -> int:
    """[n]_q = number of points of PG(n-1, q)."""
    return gaussian(n, 1, q)


def _qf_power(q: int, tau: int, ddexp: int) -> int:
    """q^(ddexp/2) exactly, where q is the field order and tau flags Hermitian."""
    if ddexp % 2 == 0:
        return q ** (ddexp // 2)
    if tau % 2 == 0:
        raise ValueError(f"half-integer exponent {ddexp}/2 outside a Hermitian family")
    b = isqrt(q)
    if b * b != q:
        raise ValueError(f"Hermitian families need a square field order, got {q}")
    return b**ddexp


def num_generators(family: str, d: int, q: int) -> int:
    """prod_{i=0}^{d-1} (q^(i+e) + 1)."""
    tau = TAU[family]
    out = 1
    for i in range(d):
        out *= _qf_power(q, tau, 2 * i + tau) + 1
    return out


def num_points(family: str, d: int, q: int) -> int:
    """(q^(d+e-1) + 1) * [d]_q."""
    tau = TAU[family]
    return (_qf_power(q, tau, 2 * d + tau - 2) + 1) * nbracket(d, q)


def generators_on_point(family: str, d: int, q: int) -> int:
    """Generators through a fixed point: the rank d-1 product (the per-family bound value)."""
    return num_generators(family, d - 1, q)


def disjointness_eigenvalue(d: int, tau: int, r: int, q: int) -> int:
    """Eigenvalue (-1)^r q^(C(d-r,2) + C(r,2) + e(d-r)) of the disjointness matrix A_d on W_r."""
    if not 0 <= r <= d:
        raise ValueError(f"eigenspace index {r} outside [0, {d}]")
    value = _qf_power(q, tau, 2 * binom2(d - r) + 2 * binom2(r) + tau * (d - r))
    return -value if r % 2 else value


def eigenvalue_P_entry(d: int, tau: int, i: int, j: int, q: int) -> int:
    """Eigenvalue of the relation matrix A_i on the eigenspace W_j.

    The closed form is the sum over max(0, j-i) <= u <= min(d-i, j) of

        (-1)^(j+u) [d-j, d-i-u]_q [j, u]_q q^(C(m,2) + e*m + C(j-u,2)),

    with m = u+i-j.  Out-of-range Gaussian binomials vanish, so the loop can
    simply run over the natural bounds.
    """
    if not (0 <= i <= d and 0 <= j <= d):
        raise ValueError(f"relation/eigenspace index outside [0, {d}]")
    total = 0
    for u in range(max(0, j - i), min(d - i, j) + 1):
        m = u + i - j
        g = gaussian(d - j, d - i - u, q) * gaussian(j, u, q)
        if g == 0:
            continue
        term = g * _qf_power(q, tau, 2 * binom2(m) + tau * m + 2 * binom2(j - u))
        total += -term if (j + u) % 2 else term
    return total


def eigenmatrix_P(family: str, d: int, q: int) -> tuple[tuple[int, ...], ...]:
    tau = TAU[family]
    return tuple(
        tuple(eigenvalue_P_entry(d, tau, i, r, q) for i in range(d + 1)) for r in range(d + 1)
    )


@dataclass(frozen=True)
class EigenData:
    """Exact eigenmatrices of the generator association scheme of one polar space."""

    family: str
    d: int
    q: int
    tau: int
    n: int
    P: tuple[tuple[int, ...], ...]
    Q: tuple[tuple[Fraction, ...], ...]
    multiplicities: tuple[int, ...]
    valencies: tuple[int, ...]

    @cached_property
    def scaled_Q(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(D, D Q) with D the least common denominator of Q."""
        D = lcm(*[x.denominator for row in self.Q for x in row])
        return D, tuple(tuple(int(x * D) for x in row) for row in self.Q)


def eigen_data(family: str, d: int, q: int) -> EigenData:
    """Build P from the closed form, Q from the orthogonality relation, and check the identities.

    Q[i][j] = m_j P[j][i] / k_i with m_j = n / sum_i P[j][i]^2 / k_i and k_i =
    P[0][i]; the exact check PQ = QP = nI below proves Q = n P^(-1).
    """
    if d < 0:
        raise ValueError(f"rank must be >= 0, got {d}")
    tau = TAU[family]
    n = num_generators(family, d, q)
    P = eigenmatrix_P(family, d, q)
    if any(P[r][0] != 1 for r in range(d + 1)):
        raise ValueError("column 0 of P must be all-ones")
    valencies = P[0]
    if sum(valencies) != n:
        raise ValueError("row 0 of P must be the valencies summing to n")
    mq = [n / sum(Fraction(P[j][i] ** 2, valencies[i]) for i in range(d + 1)) for j in range(d + 1)]
    Q = [[mq[j] * P[j][i] / valencies[i] for j in range(d + 1)] for i in range(d + 1)]
    for r in range(d + 1):
        for c in range(d + 1):
            pq = sum(Fraction(P[r][t]) * Q[t][c] for t in range(d + 1))
            qp = sum(Q[r][t] * P[t][c] for t in range(d + 1))
            want = n if r == c else 0
            if pq != want or qp != want:
                raise ValueError("PQ = QP = nI violated; eigenvalue formula bug")
    mults = []
    for j in range(d + 1):
        m = Q[0][j]
        if m.denominator != 1 or m <= 0:
            raise ValueError(f"multiplicity Q[0][{j}] = {m} is not a positive integer")
        mults.append(int(m))
    if sum(mults) != n:
        raise ValueError("multiplicities do not sum to n")
    return EigenData(
        family,
        d,
        q,
        tau,
        n,
        P,
        tuple(tuple(row) for row in Q),
        tuple(mults),
        tuple(valencies),
    )


def lemma9_triple(d: int, s: int, q: int) -> tuple[int, int, int]:
    """(lambda_-, lambda_+, k_s) for the relation A_(d-s) of Q(2d,q)/W(2d-1,q).

    lambda_- is the W_1 eigenvalue, lambda_+ the W_d eigenvalue and k_s the
    valency:

        lambda_-  =  -[d-1, s] q^C(d-s,2) + [d-1, s-1] q^C(d-s+1,2)
        lambda_+  =  (-1)^(d-s) [d, s] q^C(d-s,2)
        k_s       =  [d, s] q^C(d-s+1,2)
    """
    if not 0 < s < d:
        raise ValueError(f"s must satisfy 0 < s < d, got s={s}, d={d}")
    lam_minus = -gaussian(d - 1, s, q) * q ** binom2(d - s) + gaussian(d - 1, s - 1, q) * q ** binom2(
        d - s + 1
    )
    lam_plus = (-1) ** (d - s) * gaussian(d, s, q) * q ** binom2(d - s)
    k_s = gaussian(d, s, q) * q ** binom2(d - s + 1)
    return lam_minus, lam_plus, k_s


def lemma_bound_gens_check(q: int, d: int) -> bool:
    """Exact check of the product inequality

        prod_{i=1}^{d-1} (q^i + 1)
          <=  2q^d/(q^d+1) * (q^C(d,2) - q^C(d-1,2) + 1)  +  q^(C(d-2,2) + 2(d-2)).

    Exponents may be negative for d <= 2; everything is evaluated in Fractions.
    """
    if q < 2 or d < 1:
        raise ValueError("need q >= 2 and d >= 1")

    def qpow(e: int) -> Fraction:
        return Fraction(q**e) if e >= 0 else Fraction(1, q**-e)

    lhs = Fraction(1)
    for i in range(1, d):
        lhs *= q**i + 1
    rhs = Fraction(2 * q**d, q**d + 1) * (qpow(binom2(d)) - qpow(binom2(d - 1)) + 1)
    rhs += qpow(binom2(d - 2) + 2 * (d - 2))
    return lhs <= rhs
