"""Hoffman-type bounds for cross-intersecting sets of generators.

Implements the extended-weight-matrix ratio bound sqrt(|Y||Z|) <= lb*n/(k+lb)
with exact rationals, the per-family classical bounds on the plain
disjointness spectrum, and the weighted Hermitian machinery (the E_1-shifted
matrix, its eigenvalues, and the resulting cross and EKR bounds).

Sign convention: eigenvalues are stored signed; reported bounds always use
|lambda_b| * n / (k + |lambda_b|), which reproduces both the positive-lb
formulation of the ratio bound and the negative-lb Hermitian display (the two
agree because there lambda_b < 0 < k).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .families import TAU, space_label
from .ff import prime_power
from .qcount import (
    EigenData,
    disjointness_eigenvalue,
    eigen_data,
    nbracket,
    num_generators,
)

FAMILY_SUPPORT = {
    "Qplus": lambda d: (0, d),
    "Qparabolic": lambda d: (0, 1, d),
    "W": lambda d: (0, 1, d),
    "Heven": lambda d: (0, 1),
    "Qminus": lambda d: (0, 1),
}


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one ratio-bound evaluation on an explicit spectrum."""

    label: str
    n: int
    k: Fraction
    lambda_plus: Fraction
    lambda_minus: Fraction
    lambda_b: Fraction
    bound: Fraction
    case: str  # equality case tag: "a", "b" or "c"
    degenerate: bool  # k itself attained outside the all-ones eigenspace
    support: tuple[int, ...]  # predicted eigenspace support of attaining pairs
    family_support: tuple[int, ...] | None = None

    @property
    def bound_squared(self) -> Fraction:
        return self.bound * self.bound


def hoffman_cross_bound(eigs, n: int, label: str = "") -> BoundReport:
    """Ratio bound from a list of (eigenspace index, exact eigenvalue) pairs.

    Index 0 must carry the all-ones eigenvalue k.  lambda_plus is the largest
    eigenvalue attained outside index 0 (if k is attained there too this
    degenerates to k itself), lambda_minus the smallest, and
    lambda_b = max(-lambda_minus, lambda_plus).
    """
    values = {idx: Fraction(v) for idx, v in eigs}
    if 0 not in values:
        raise ValueError("index 0 (all-ones eigenvalue) missing from the spectrum")
    k = values[0]
    rest = {idx: v for idx, v in values.items() if idx != 0}
    if not rest:
        raise ValueError("need at least one eigenvalue besides k")
    lam_plus = max(rest.values())
    lam_minus = min(rest.values())
    plus_idx = tuple(sorted(i for i, v in rest.items() if v == lam_plus))
    minus_idx = tuple(sorted(i for i, v in rest.items() if v == lam_minus))
    lam_b = max(-lam_minus, lam_plus)
    bound = lam_b * n / (k + lam_b)
    if lam_plus > -lam_minus:
        case = "a"
        support = (0,) + plus_idx
    elif lam_plus < -lam_minus:
        case = "b"
        support = (0,) + minus_idx
    else:
        case = "c"
        support = tuple(sorted({0, *plus_idx, *minus_idx}))
    return BoundReport(
        label=label,
        n=n,
        k=k,
        lambda_plus=lam_plus,
        lambda_minus=lam_minus,
        lambda_b=lam_b,
        bound=bound,
        case=case,
        degenerate=lam_plus == k,
        support=support,
    )


def classical_bound(family: str, d: int, q: int) -> BoundReport:
    """Per-family bound from the plain disjointness spectrum of one space."""
    prime_power(q)  # raises ValueError unless q is a prime power
    tau = TAU[family]
    spectrum = [(r, disjointness_eigenvalue(d, tau, r, q)) for r in range(d + 1)]
    n = num_generators(family, d, q)
    rep = hoffman_cross_bound(spectrum, n, label=space_label(family, d, q))
    fam = FAMILY_SUPPORT.get(family)
    return replace(rep, family_support=fam(d) if fam else None)


# ---------------------------------------------------------------------------
# Hermitian polar spaces H(2d-1, q^2)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HermitianParams:
    """Closed-form data of the weighted Hermitian bound.

    q is the *base* prime power: the space is H(2d-1, q^2) over GF(q^2).
    ``weighted_eigenvalues[r]`` is the closed-form eigenvalue of the weighted
    matrix on W_r; ``second_largest_ok`` records that lambda_b is indeed of
    second largest absolute value among them.
    """

    d: int
    q: int
    n: int
    f1: Fraction
    c: Fraction
    alpha: Fraction
    lambda_b: Fraction
    k: Fraction
    weighted_eigenvalues: tuple[Fraction, ...]
    second_largest_ok: bool


def hermitian_params(d: int, q: int) -> HermitianParams:
    if d <= 1:
        raise ValueError("the weighted Hermitian machinery needs d > 1")
    prime_power(q)  # raises ValueError unless q is a prime power
    n = num_generators("Hodd", d, q * q)
    f1 = Fraction(q**2 * nbracket(d, q**2) * (q ** (2 * d - 3) + 1), q + 1)
    c = (Fraction(q**2 - q - 1) + Fraction(1, q ** (2 * d - 3))) / (q ** (2 * d) - 1)
    if d % 2 == 1:
        alpha = Fraction(q ** (d * (d - 1)) + q ** ((d - 1) ** 2))
    else:
        alpha = Fraction(n * q ** (d * d - d) - n * q ** ((d - 1) ** 2)) / (
            n + (2 * c - 2) * f1
        )
    shift = alpha * f1 * (1 - c) / n
    lambda_b = -(q ** ((d - 1) ** 2)) - alpha * (1 - f1 * (1 - c) / n)
    k = q ** (d * d) + alpha * f1 * (c + (1 - c) / n)
    mus = [k, lambda_b]
    for r in range(2, d):
        mus.append((-1) ** r * q ** ((d - r) ** 2 + r * (r - 1)) + shift)
    mus.append((-1) ** d * q ** (d * (d - 1)) + shift)
    second_ok = abs(lambda_b) == max(abs(m) for m in mus[1:])
    return HermitianParams(
        d=d,
        q=q,
        n=n,
        f1=f1,
        c=c,
        alpha=alpha,
        lambda_b=lambda_b,
        k=k,
        weighted_eigenvalues=tuple(mus),
        second_largest_ok=second_ok,
    )


@dataclass(frozen=True)
class WeightedMatrixSpec:
    """A_d - alpha E_1 + (alpha f1 c / n) J + (alpha f1 (1-c)/n) I, by relation class.

    ``entries[i]`` is the matrix entry on pairs at codimension i (w_0 is
    forced to 0 by Q[0][1] = f1); ``eigenvalues[r]`` the eigenvalue on W_r.
    """

    entries: tuple[Fraction, ...]
    eigenvalues: tuple[Fraction, ...]

    def sign_conditions(self) -> dict:
        d = len(self.entries) - 1
        return {
            "w0_zero": self.entries[0] == 0,
            "middle_nonpositive": all(self.entries[i] <= 0 for i in range(1, d)),
            "wd_positive": self.entries[d] > 0,
            "not_zero": any(self.entries),
        }


def hermitian_weighted_matrix(params: HermitianParams, eig: EigenData) -> WeightedMatrixSpec:
    """Per-relation entries and spectrum of the weighted matrix, from Q column 1."""
    d = params.d
    if eig.family != "Hodd" or eig.d != d or eig.q != params.q**2:
        raise ValueError("eigen data does not belong to H(2d-1, q^2) for these params")
    n = eig.n
    if n != params.n:
        raise ValueError("generator count mismatch")
    if eig.Q[0][1] != params.f1:
        raise ValueError("Q[0][1] differs from the closed form f1; formula bug")
    alpha, f1, c = params.alpha, params.f1, params.c
    entries = []
    for i in range(d + 1):
        w = Fraction(int(i == d)) - alpha * eig.Q[i][1] / n + alpha * f1 * c / n
        if i == 0:
            w += alpha * f1 * (1 - c) / n
        entries.append(w)
    if entries[0] != 0:
        raise ValueError("w_0 != 0: weighted matrix has a nonzero diagonal")
    if entries[d - 1] != 0:
        raise ValueError("w_{d-1} != 0: Q[d-1][1] differs from f1*c")
    eigenvalues = tuple(
        sum(entries[i] * eig.P[r][i] for i in range(d + 1)) for r in range(d + 1)
    )
    if eigenvalues != params.weighted_eigenvalues:
        raise ValueError("weighted spectrum disagrees with the closed forms")
    return WeightedMatrixSpec(entries=tuple(entries), eigenvalues=eigenvalues)


@dataclass(frozen=True)
class HermitianCrossReport:
    params: HermitianParams
    weighted: WeightedMatrixSpec
    bound: Fraction | None  # None when the weighted matrix degenerates to zero
    plain: BoundReport
    valid: bool  # all extended-weight conditions hold

    @property
    def improves_plain(self) -> bool:
        return self.bound is not None and self.bound < self.plain.bound


def hermitian_cross_report(d: int, q: int, eig: EigenData | None = None) -> HermitianCrossReport:
    """The weighted bound sqrt(|Y||Z|) <= |lambda_b| n / (k + |lambda_b|) in
    H(2d-1, q^2), with its weighted matrix and validity conditions.

    At d = 2 the even-d alpha makes the weighted matrix vanish identically
    (k = lambda_b = 0): the bound is None and the report is not valid.
    """
    params = hermitian_params(d, q)
    if eig is None:
        eig = eigen_data("Hodd", d, q * q)
    weighted = hermitian_weighted_matrix(params, eig)
    conds = weighted.sign_conditions()
    valid = (
        conds["w0_zero"]
        and conds["middle_nonpositive"]
        and conds["not_zero"]
        and params.second_largest_ok
    )
    den = params.k + abs(params.lambda_b)
    bound = abs(params.lambda_b) * params.n / den if den != 0 else None
    plain = classical_bound("Hodd", d, q * q)
    return HermitianCrossReport(params=params, weighted=weighted, bound=bound, plain=plain, valid=valid)


def hermitian_ekr_bound(d: int, q: int) -> Fraction:
    """EKR bound for H(2d-1, q^2), d > 1 odd:

    (n q^(d-1) - f1 (q^(d-1)-1)(1-c)) / (q^(2d-1) + q^(d-1) + f1 (q^(d-1)-1) c).
    """
    if d % 2 == 0:
        raise ValueError("the Hermitian EKR bound is stated for odd d only")
    p = hermitian_params(d, q)
    qd = q ** (d - 1)
    num = p.n * qd - p.f1 * (qd - 1) * (1 - p.c)
    den = q ** (2 * d - 1) + qd + p.f1 * (qd - 1) * p.c
    return num / den
