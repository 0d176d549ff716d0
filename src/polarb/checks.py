"""Named verifications, one per classification statement.

Each check returns a plain report dict (check_id, space, status, details and
optionally an exact value); the CLI serializes these and maps status to the
exit code.  All checks are deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .extremal import (
    cross_graph,
    enumerate_maximal_cross_pairs,
    example_h7_cross_sample,
    example_h7_data,
    example_h7_sizes,
    verify_hyperplane_section,
    verify_maximality_lemma,
    verify_prop10_counts,
    verify_w3_triples,
    verify_zgh,
)
from .geom import enumerate_generators, polar_space_make
from .qcount import (
    eigen_data,
    generators_on_point,
    lemma_bound_gens_check,
    num_generators,
)
from .scheme import eigenspace_support
from .specbound import classical_bound, hermitian_cross_report

# The desk-scale instance grid of the acceptance suite.
ACCEPTANCE_INSTANCES = (
    ("Qplus", 2, 2),
    ("Qplus", 3, 2),
    ("Qplus", 4, 2),
    ("Qparabolic", 2, 2),
    ("Qparabolic", 2, 3),
    ("Qparabolic", 3, 2),
    ("Qminus", 2, 2),
    ("W", 2, 2),
    ("W", 2, 3),
    ("W", 3, 2),
    ("Hodd", 2, 4),
    ("Hodd", 3, 4),
    ("Heven", 2, 4),
)


@cache
def _graph(family: str, d: int, q: int):
    """The per-space memo: a cross graph g holds the catalog g.rel.cat, C as g.rel and nonn."""
    return cross_graph(enumerate_generators(polar_space_make(family, d, q)))


def _report(check_id, ok, details, space=None, exact=None) -> dict:
    rep = {
        "check_id": check_id,
        "space": space,
        "status": "pass" if ok else "fail",
        "details": list(details),
    }
    if exact is not None:
        f = Fraction(exact)
        rep["exact"] = {"num": str(f.numerator), "den": str(f.denominator)}
        rep["float"] = f.numerator / f.denominator
    return rep


def _space(family, d, q) -> dict:
    return {"family": family, "d": d, "q": q}


def check_thm5_support(q: int = 2) -> dict:
    """Per-family ratio bounds plus eigenspace supports of constructed extremal pairs."""
    details = []
    ok = True
    for family, d, qq in ACCEPTANCE_INSTANCES:
        rep = classical_bound(family, d, qq)
        if family == "Qplus":
            want = Fraction(num_generators(family, d, qq), 2)
        elif family == "Hodd":
            continue  # excluded from the statement
        else:
            want = Fraction(generators_on_point(family, d, qq))
        good = rep.bound == want
        if rep.family_support is not None:
            good &= rep.support == rep.family_support
        details.append(f"{rep.label}: bound {rep.bound} (expected {want}), support {rep.support}")
        ok &= good

    g = _graph("Qplus", 4, q)
    eig = eigen_data("Qplus", 4, q)
    x1, x2 = g.latins_greeks
    sx1 = set(x1)
    chi_x1 = [1 if i in sx1 else 0 for i in range(g.n)]
    sup = eigenspace_support(chi_x1, g.rel, eig)
    good = sup == {0, 4}
    details.append(f"Q+(7,{q}) chi_latins support: {sorted(sup)} (expected [0, 4])")
    ok &= good
    bound = classical_bound("Qplus", 4, q).bound
    good = len(x1) * len(x2) == bound * bound
    details.append(f"latins x greeks product {len(x1) * len(x2)} attains bound^2 {bound * bound}")
    ok &= good

    rel42 = _graph("Qparabolic", 2, q).rel
    cat42 = rel42.cat
    eig42 = eigen_data("Qparabolic", 2, q)
    pencil = [1 if (cat42.point_masks[i] >> 0) & 1 else 0 for i in range(cat42.n)]
    sup42 = eigenspace_support(pencil, rel42, eig42)
    good = sup42 <= {0, 1, 2}
    details.append(f"Q(4,{q}) point-pencil support: {sorted(sup42)} (within [0, 1, 2])")
    ok &= good
    b42 = classical_bound("Qparabolic", 2, q).bound
    good = sum(pencil) == b42
    details.append(f"pencil size {sum(pencil)} equals the bound {b42}")
    ok &= good
    return _report("thm5-support", ok, details, _space("*", 0, q))


def check_thm7(q: int = 2) -> dict:
    """Hyperbolic classification at rank 4: latins/greeks attain and exhaust the bound."""
    d = 4
    g = _graph("Qplus", d, q)
    eig = eigen_data("Qplus", d, q)
    details = []
    ok = True

    x1, x2 = g.latins_greeks
    n = g.n
    details.append(f"bipartition sizes: {len(x1)}, {len(x2)} (n = {n})")
    ok &= len(x1) == len(x2) == n // 2

    sx1 = set(x1)
    x2mask = sum(1 << b for b in x2)
    cross_ok = all(g.nonn[a] & x2mask == x2mask for a in x1)
    details.append(f"(X1, X2) is a cross-intersecting pair (d even): {cross_ok}")
    ok &= cross_ok
    inner_disjoint = any(not g.nonn[a] >> b & 1 for a in x1 for b in x1 if b > a)
    details.append(f"X1 contains a disjoint pair, so (X1, X1) is not one: {inner_disjoint}")
    ok &= inner_disjoint

    bound = classical_bound("Qplus", d, q).bound
    good = len(x1) * len(x2) == bound * bound
    details.append(f"|X1||X2| = {len(x1) * len(x2)} = bound^2 = {bound * bound}: {good}")
    ok &= good

    v = [1 if i in sx1 else -1 for i in range(n)]
    sup = eigenspace_support(v, g.rel, eig)
    details.append(f"support(chi_X1 - chi_X2) = {sorted(sup)} (expected [{d}])")
    ok &= sup == {d}
    md = eig.multiplicities[d]
    details.append(f"multiplicity m_{d} = {md} (uniqueness: W_{d} is a line)")
    ok &= md == 1
    return _report("thm7", ok, details, _space("Qplus", d, q))


def _grid_pair(q: int = 2):
    g = _graph("Qparabolic", 2, q)
    pair = next(c for c in enumerate_maximal_cross_pairs(g) if c.label == "hyperbolic-subgeometry")
    return g.rel, pair


def check_prop10(q: int = 2) -> dict:
    """Intersection counts from a fixed G of the Q(4,q) non-EKR maximum pair."""
    rel, pair = _grid_pair(q)
    rep = verify_prop10_counts(rel, pair, pair.y[0])
    details = [f"pair Y={pair.y} Z={pair.z}"] + rep["details"]
    return _report("prop10", rep["ok"], details, _space("Qparabolic", 2, q))


def check_lemma11(q: int = 2) -> dict:
    """Z_{G,H} recovery on the Q(4,q) non-EKR maximum pair."""
    rel, pair = _grid_pair(q)
    rep = verify_zgh(rel, pair, pair.y[0], pair.y[1])
    details = [f"pair Y={pair.y} Z={pair.z}, G={pair.y[0]}, H={pair.y[1]}"] + rep["details"]
    return _report("lemma11", rep["ok"], details, _space("Qparabolic", 2, q))


def check_lemma12(q: int = 2) -> dict:
    """Hyperplane sections spanned by disjoint generators of Q(4,q) and Q(6,q)."""
    details = []
    ok = True
    for d in (2, 3):
        rel = _graph("Qparabolic", d, q).rel
        hidx = rel.codim[0].tolist().index(d)  # the first generator disjoint from 0
        rep = verify_hyperplane_section(rel, 0, hidx)
        details.append(f"Q({2 * d},{q}) with G=0, H={hidx}:")
        details.extend("  " + s for s in rep["details"])
        ok &= rep["ok"]
    return _report("lemma12", ok, details, _space("Qparabolic", 0, q))


def check_lemma13() -> dict:
    """The product inequality for all q in 2..9 and d in 1..12, exactly."""
    failures = [(q, d) for q in range(2, 10) for d in range(1, 13) if not lemma_bound_gens_check(q, d)]
    details = [f"checked q in 2..9, d in 1..12: {96 - len(failures)}/96 hold"]
    if failures:
        details.append(f"failures: {failures}")
    return _report("lemma13", not failures, details)


def check_thm15() -> dict:
    """Maximum pairs of Q(4,2) / W(3,2) (q even) and W(3,3) (q odd), by full sweep."""
    details = []
    ok = True
    for family, d, q in (("Qparabolic", 2, 2), ("W", 2, 2)):
        g = _graph(family, d, q)
        certs = enumerate_maximal_cross_pairs(g)
        best = max(c.product for c in certs)
        top = [c for c in certs if c.product == best]
        labels = sorted({c.label for c in top})
        good = (
            best == 9
            and labels == ["hyperbolic-subgeometry", "point-pencil-EKR"]
            and all(c.y == c.z for c in top if c.label == "point-pencil-EKR")
        )
        details.append(
            f"{g.rel.cat.space.label}: max product {best}, attained by {labels} "
            f"({len(top)} pairs)"
        )
        ok &= good
    certs = enumerate_maximal_cross_pairs(_graph("W", 2, 3))
    best = max(c.product for c in certs)
    top = [c for c in certs if c.product == best]
    good = best == 16 and all(c.y == c.z for c in top)
    details.append(f"W(3,3): max product {best}, all {len(top)} maximum pairs have Y = Z: {good}")
    ok &= good
    return _report("thm15", ok, details)


def check_thm16(q: int = 3) -> dict:
    rep = verify_w3_triples(_graph("W", 2, q))
    return _report("thm16", rep["ok"], rep["details"], _space("W", 2, q))


def check_thm20(q: int = 2) -> dict:
    """Complete maximal-pair classification of H(3, q^2)."""
    qq = q * q
    g = _graph("Hodd", 2, qq)
    certs = enumerate_maximal_cross_pairs(g)
    expected = {
        "whole-vs-empty": 0,
        "single-line-star": (q * q + 1) * q + 1,
        "point-pencil-EKR": (q + 1) ** 2,
        "two-line-transversal": 2 * (q * q + 1),
        "regulus-triple": (q + 1) ** 2,
    }
    details = [f"maximal pairs: {len(certs)}"]
    ok = True
    seen = {}
    for c in certs:
        seen.setdefault(c.label, set()).add(c.product)
    for label, want in expected.items():
        got = seen.get(label, set())
        good = got == {want}
        details.append(f"{label}: products {sorted(got)} (expected [{want}])")
        ok &= good
    extra = set(seen) - set(expected)
    if extra:
        details.append(f"unexpected families: {sorted(extra)}")
        ok = False
    best = max(c.product for c in certs)
    good = best == q**3 + q + 1
    details.append(f"max product {best} = q^3+q+1 = {q ** 3 + q + 1}: {good}")
    ok &= good
    plain = classical_bound("Hodd", 2, qq)
    nontight = plain.bound * plain.bound > best
    verdict = f"> {best}: confirmed non-tight" if nontight else f"<= {best}: not non-tight"
    details.append(
        f"plain ratio bound {plain.bound} squared = {float(plain.bound * plain.bound):.2f} "
        f"{verdict}"
    )
    ok &= nontight
    for c in certs:
        mrep = verify_maximality_lemma(g.rel, c)
        if not mrep["ok"]:
            details.append(f"maximality lemma fails on {c.y} / {c.z}")
            ok = False
            break
    else:
        details.append("maximality lemma holds on every certificate")
    return _report("thm20", ok, details, _space("Hodd", 2, qq), exact=best)


def check_example21(q: int = 2, samples: int = 10_000) -> dict:
    """The H(7, q^2) example sizes and the pairwise-intersection spot check."""
    data = example_h7_data(q)
    size_y, size_z = example_h7_sizes(data)
    want_y = 1 + q + q**3 + q**4 + q**5 + q**6 + q**7 + 2 * q**8 + q**10 + q**12
    want_z = 1 + q + q**3 + q**5 + q**7
    details = [
        f"|Y| = {size_y} (polynomial value {want_y})",
        f"|Z| = {size_z} (polynomial value {want_z})",
    ]
    ok = size_y == want_y and size_z == want_z
    sample = example_h7_cross_sample(data, samples=samples)
    details.append(
        f"{sample['samples']} random (y, z) samples, disjoint pairs: {sample['disjoint_pairs']}"
    )
    ok &= sample["ok"]
    return _report("example21", ok, details, _space("Hodd", 4, q * q), exact=size_y * size_z)


def check_q_col_signs(d: int = 3, q: int = 2) -> dict:
    """Q-column facts, weighted-matrix signs and the second-largest eigenvalue claim."""
    qq = q * q
    eig = eigen_data("Hodd", d, qq)
    rep = hermitian_cross_report(d, q, eig)
    p = rep.params
    details = []
    ok = True

    good = eig.Q[0][1] == p.f1
    details.append(f"Q[0][1] = {eig.Q[0][1]} equals f1 = {p.f1}: {good}")
    ok &= good
    good = eig.Q[d - 1][1] == p.f1 * p.c
    details.append(f"Q[{d - 1}][1] = {eig.Q[d - 1][1]} equals f1*c = {p.f1 * p.c}: {good}")
    ok &= good
    good = all(eig.Q[s][1] >= p.f1 * p.c for s in range(d))
    details.append(f"Q[s][1] >= f1*c for s < {d}: {good}")
    ok &= good
    good = eig.Q[d][1] < 0
    details.append(f"Q[{d}][1] = {eig.Q[d][1]} < 0: {good}")
    ok &= good

    w = rep.weighted.entries
    conds = rep.weighted.sign_conditions()
    details.append(f"weights w = {[str(x) for x in w]}")
    good = conds["w0_zero"] and w[d - 1] == 0 and conds["middle_nonpositive"] and conds["wd_positive"]
    details.append(
        f"w_0 = 0, w_{d - 1} = 0, middle non-positive, w_{d} > 0: {good}"
    )
    ok &= good
    details.append(f"lambda_b = {p.lambda_b} second largest absolute: {p.second_largest_ok}")
    ok &= p.second_largest_ok

    lo = q ** (d * d - 2 * d + 2)
    hi = 3 * lo
    inside = rep.bound is not None and lo < rep.bound < hi
    details.append(f"cross bound {rep.bound} inside ({lo}, {hi}): {inside}")
    ok &= inside
    details.append(f"plain ratio bound {rep.plain.bound}; weighted bound improves: {rep.improves_plain}")
    return _report("q-col-signs", ok, details, _space("Hodd", d, qq), exact=rep.bound)


CHECKS = {
    "thm5-support": check_thm5_support,
    "thm7": check_thm7,
    "prop10": check_prop10,
    "lemma11": check_lemma11,
    "lemma12": check_lemma12,
    "lemma13": check_lemma13,
    "thm15": check_thm15,
    "thm16": check_thm16,
    "thm20": check_thm20,
    "example21": check_example21,
    "q-col-signs": check_q_col_signs,
}


def run_check(check_id: str, **kwargs) -> dict:
    if check_id not in CHECKS:
        raise KeyError(f"unknown check {check_id!r}; available: {sorted(CHECKS)}")
    return CHECKS[check_id](**kwargs)
