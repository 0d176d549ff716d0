"""Named verifications, one per classification statement.

Each check computes its statement and writes its whole report, a plain dict
(check_id, space, status, details and optionally an exact value), from a
list of (text, holds) claims: a report passes exactly when all its claims
hold, and a line that only reports a value is a note that holds.  The CLI
serializes these and maps status to the exit code.  All checks are
deterministic.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache

import numpy as np

from .extremal import (
    cross_graph,
    enumerate_maximal_cross_pairs,
    example_h7_data,
    example_h7_sizes,
)
from .geom import (
    Subspace,
    bit_indices,
    enumerate_generators,
    enumerate_subspaces_within,
    intersect_bases,
    perp,
    polar_space_make,
    row_blocks,
    rref,
    rref_batch,
)
from .qcount import (
    binom2,
    eigen_data,
    gaussian,
    generators_on_point,
    lemma_bound_gens_check,
    nbracket,
    num_generators,
    num_points,
)
from .scheme import SchemeError, eigenspace_support
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


def _report(check_id, lines, space=None, exact=None) -> dict:
    """The report of lines, a list of (text, holds) claims; a note is (text, True).
    It passes exactly when every claim holds, and its details are the texts in order."""
    rep = {
        "check_id": check_id,
        "space": space,
        "status": "pass" if all(holds for _, holds in lines) else "fail",
        "details": [text for text, _ in lines],
    }
    if exact is not None:
        f = Fraction(exact)
        rep["exact"] = {"num": str(f.numerator), "den": str(f.denominator)}
        rep["float"] = f.numerator / f.denominator
    return rep


def _verdict(text: str, holds) -> tuple[str, bool]:
    """A claim that prints its own verdict after text."""
    return f"{text}: {holds}", holds


def _space(family, d, q) -> dict:
    return {"family": family, "d": d, "q": q}


def check_thm5_support(q: int = 2) -> dict:
    """Per-family ratio bounds plus eigenspace supports of constructed extremal pairs."""
    lines = []
    for family, d, qq in ACCEPTANCE_INSTANCES:
        rep = classical_bound(family, d, qq)
        if family == "Qplus":
            want = Fraction(num_generators(family, d, qq), 2)
        elif family == "Hodd":
            continue  # excluded from the statement
        else:
            want = Fraction(generators_on_point(family, d, qq))
        lines.append((
            f"{rep.label}: bound {rep.bound} (expected {want}), support {rep.support}",
            rep.bound == want and (rep.family_support is None or rep.support == rep.family_support),
        ))

    g = _graph("Qplus", 4, q)
    eig = eigen_data("Qplus", 4, q)
    x1, x2 = g.latins_greeks
    sx1 = set(x1)
    chi_x1 = [1 if i in sx1 else 0 for i in range(g.n)]
    sup = eigenspace_support(chi_x1, g.rel, eig)
    bound = classical_bound("Qplus", 4, q).bound
    lines += [
        (f"Q+(7,{q}) chi_latins support: {sorted(sup)} (expected [0, 4])", sup == {0, 4}),
        (
            f"latins x greeks product {len(x1) * len(x2)} attains bound^2 {bound * bound}",
            len(x1) * len(x2) == bound * bound,
        ),
    ]

    rel42 = _graph("Qparabolic", 2, q).rel
    cat42 = rel42.cat
    eig42 = eigen_data("Qparabolic", 2, q)
    pencil = [1 if (cat42.point_masks[i] >> 0) & 1 else 0 for i in range(cat42.n)]
    sup42 = eigenspace_support(pencil, rel42, eig42)
    b42 = classical_bound("Qparabolic", 2, q).bound
    lines += [
        (f"Q(4,{q}) point-pencil support: {sorted(sup42)} (within [0, 1, 2])", sup42 <= {0, 1, 2}),
        (f"pencil size {sum(pencil)} equals the bound {b42}", sum(pencil) == b42),
    ]
    return _report("thm5-support", lines, _space("*", 0, q))


def check_thm7(q: int = 2) -> dict:
    """Hyperbolic classification at rank 4: latins/greeks attain and exhaust the bound."""
    d = 4
    g = _graph("Qplus", d, q)
    eig = eigen_data("Qplus", d, q)
    x1, x2 = g.latins_greeks
    n = g.n
    sx1 = set(x1)
    x2mask = sum(1 << b for b in x2)
    bound = classical_bound("Qplus", d, q).bound
    v = [1 if i in sx1 else -1 for i in range(n)]
    sup = eigenspace_support(v, g.rel, eig)
    md = eig.multiplicities[d]
    lines = [
        (f"bipartition sizes: {len(x1)}, {len(x2)} (n = {n})", len(x1) == len(x2) == n // 2),
        _verdict(
            "(X1, X2) is a cross-intersecting pair (d even)",
            all(g.nonn[a] & x2mask == x2mask for a in x1),
        ),
        _verdict(
            "X1 contains a disjoint pair, so (X1, X1) is not one",
            any(not g.nonn[a] >> b & 1 for a in x1 for b in x1 if b > a),
        ),
        _verdict(f"|X1||X2| = {len(x1) * len(x2)} = bound^2 = {bound * bound}", len(x1) * len(x2) == bound * bound),
        (f"support(chi_X1 - chi_X2) = {sorted(sup)} (expected [{d}])", sup == {d}),
        (f"multiplicity m_{d} = {md} (uniqueness: W_{d} is a line)", md == 1),
    ]
    return _report("thm7", lines, _space("Qplus", d, q))


def _grid_pair(q: int = 2):
    g = _graph("Qparabolic", 2, q)
    pair = next(c for c in enumerate_maximal_cross_pairs(g) if c.label == "hyperbolic-subgeometry")
    return g.rel, pair


def check_prop10(q: int = 2) -> dict:
    """Intersection counts from G = Y[0] of the Q(4,q) non-EKR maximum pair.

    For each s: if d-s is even G meets 0 elements of Z and [d,s] q^C(d-s,2)
    elements of Y in dimension exactly s, and the other way around for d-s
    odd.  Also Y and Z must be disjoint as sets.
    """
    rel, pair = _grid_pair(q)
    lines = [(f"pair Y={pair.y} Z={pair.z}", True)]
    if pair.ymask & pair.zmask:
        lines.append(("Y and Z are not disjoint as sets", False))
        return _report("prop10", lines, _space("Qparabolic", 2, q))
    d, row = rel.d, rel.codim[pair.y[0]]
    # dim(G ∩ h) = d - C[G, h], counted over h in Y and in Z by dimension 0..d
    hist_y, hist_z = (np.bincount(d - row[list(ids)], minlength=d + 1).tolist() for ids in (pair.y, pair.z))
    for s in range(d + 1):
        expected = gaussian(d, s, q) * q ** binom2(d - s)
        want = (expected, 0) if (d - s) % 2 == 0 else (0, expected)
        got = (hist_y[s], hist_z[s])
        lines.append((f"s={s}: Y:{got[0]} Z:{got[1]} (expected Y:{want[0]} Z:{want[1]})", got == want))
    return _report("prop10", lines, _space("Qparabolic", 2, q))


def check_lemma11(q: int = 2) -> dict:
    """Z_{G,H} recovery on the Q(4,q) non-EKR maximum pair, G = Y[0], H = Y[1]:
    hyperplane by hyperplane, the [d]_q elements of Z meeting G in dimension d-1."""
    rel, pair = _grid_pair(q)
    cat, C = rel.cat, rel.codim
    ps = cat.space
    fld, d = ps.field, ps.d
    gidx, hidx = pair.y[:2]
    if C[gidx, hidx] != d:
        raise SchemeError("G = Y[0] and H = Y[1] of a hyperbolic-subgeometry pair meet; classify_pair bug")
    G, H = cat.generators[gidx], cat.generators[hidx]
    expected = nbracket(d, q)
    z_meet = [z for z in pair.z if C[gidx, z] == 1]  # dim(G ∩ z) = d - 1
    traces = [
        (pi, intersect_bases(fld, perp(Subspace(pi), ps).basis, H.basis))
        for pi in enumerate_subspaces_within(ps, G.basis, d - 1)
    ]
    built = {rref(fld, list(pi) + list(trace)) for pi, trace in traces}
    lines = [
        (f"pair Y={pair.y} Z={pair.z}, G={gidx}, H={hidx}", True),
        (f"elements of Z meeting G in dim {d - 1}: {len(z_meet)} (expected {expected})", len(z_meet) == expected),
        _verdict("perp traces on H are single points", all(len(trace) == 1 for _, trace in traces)),
        _verdict("{<pi, perp(pi) ∩ H>} equals the Z-slice", built == {cat.generators[z].basis for z in z_meet}),
        _verdict(
            f"pairwise dim(z_i ∩ z_j) < {d - 1}",
            all(C[a, b] > 1 for i, a in enumerate(z_meet) for b in z_meet[i + 1 :]),
        ),
    ]
    return _report("lemma11", lines, _space("Qparabolic", 2, q))


def check_lemma12(q: int = 2) -> dict:
    """span(G, H) of disjoint generators G = 0 and H, the first generator
    disjoint from it, cuts a hyperbolic polar space of the same rank out of
    Q(4,q) and Q(6,q)."""
    lines = []
    for d in (2, 3):
        rel = _graph("Qparabolic", d, q).rel
        cat = rel.cat
        hidx = rel.codim[0].tolist().index(d)
        h = rref(cat.space.field, list(cat.generators[0].basis) + list(cat.generators[hidx].basis))
        hmask = cat.mask_of_points_in_span(h)
        npts = hmask.bit_count()
        ngens = sum(1 for m in cat.point_masks if m & ~hmask == 0)
        want_pts, want_gens = num_points("Qplus", d, q), num_generators("Qplus", d, q)
        lines += [
            (f"Q({2 * d},{q}) with G=0, H={hidx}:", True),
            (f"  dim span(G,H) = {len(h)} (expected {2 * d})", len(h) == 2 * d),
            (f"  singular points in the section: {npts} (expected {want_pts})", npts == want_pts),
            (f"  generators inside the section: {ngens} (expected {want_gens})", ngens == want_gens),
        ]
    return _report("lemma12", lines, _space("Qparabolic", 0, q))


def check_lemma13() -> dict:
    """The product inequality for all q in 2..9 and d in 1..12, exactly."""
    failures = [(q, d) for q in range(2, 10) for d in range(1, 13) if not lemma_bound_gens_check(q, d)]
    lines = [(f"checked q in 2..9, d in 1..12: {96 - len(failures)}/96 hold", True)]
    if failures:
        lines.append((f"failures: {failures}", False))
    return _report("lemma13", lines)


def check_thm15() -> dict:
    """Maximum pairs of Q(4,2) / W(3,2) (q even) and W(3,3) (q odd), by full sweep."""
    lines = []
    for family, d, q in (("Qparabolic", 2, 2), ("W", 2, 2)):
        g = _graph(family, d, q)
        certs = enumerate_maximal_cross_pairs(g)
        best = max(c.product for c in certs)
        top = [c for c in certs if c.product == best]
        labels = sorted({c.label for c in top})
        lines.append((
            f"{g.rel.cat.space.label}: max product {best}, attained by {labels} ({len(top)} pairs)",
            best == 9
            and labels == ["hyperbolic-subgeometry", "point-pencil-EKR"]
            and all(c.y == c.z for c in top if c.label == "point-pencil-EKR"),
        ))
    certs = enumerate_maximal_cross_pairs(_graph("W", 2, 3))
    best = max(c.product for c in certs)
    top = [c for c in certs if c.product == best]
    lines.append(_verdict(
        f"W(3,3): max product {best}, all {len(top)} maximum pairs have Y = Z",
        best == 16 and all(c.y == c.z for c in top),
    ))
    return _report("thm15", lines)


def check_thm16(q: int = 3) -> dict:
    """Transversal counts over all pairwise disjoint line triples of W(3, q).

    For q odd the count must be 0 or 2 everywhere; for q even the observed
    distribution is reported without judgement (the statement excludes it).
    """
    g = _graph("W", 2, q)
    n, nonn, full = g.n, g.nonn, g.full
    counts: dict[int, int] = {}
    for a in range(n):
        rest_a = (full ^ nonn[a]) >> (a + 1) << (a + 1)
        for b in bit_indices(rest_a):
            for c in bit_indices(rest_a & ~nonn[b] >> (b + 1) << (b + 1)):
                t = (nonn[a] & nonn[b] & nonn[c]).bit_count()
                counts[t] = counts.get(t, 0) + 1
    lines = [
        (f"disjoint triples: {sum(counts.values())}", True),
        (f"transversal counts: {dict(sorted(counts.items()))}", True),
        _verdict("all counts in {0, 2}", set(counts) <= {0, 2})
        if q % 2 == 1
        else ("q even: outside the statement, distribution reported only", True),
    ]
    return _report("thm16", lines, _space("W", 2, q))


def _maximality_lemma(rel, pair) -> tuple[int, bool]:
    """(tested, holds): whenever y1, y2 in Y meet in dimension d-1, every z in Z
    meets y1 ∩ y2; tested counts those (y1, y2).

    y1 ∩ y2 is totally isotropic, so each of its points is a singular point
    of the catalog and its point mask is pm[y1] & pm[y2]; z meets it exactly
    when pm[z] & pm[y1] & pm[y2] is nonzero.
    """
    C = rel.codim
    pm = rel.cat.point_masks
    ys = pair.y
    # the point masks of y1 ∩ y2 for the pairs with dim(y1 ∩ y2) = d - 1
    meets = [pm[y1] & pm[y2] for i, y1 in enumerate(ys) for y2 in ys[i + 1 :] if C[y1, y2] == 1]
    return len(meets), all(pm[z] & meet for meet in meets for z in pair.z)


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
    lines = [(f"maximal pairs: {len(certs)}", True)]
    seen = {}
    for c in certs:
        seen.setdefault(c.label, set()).add(c.product)
    for label, want in expected.items():
        got = seen.get(label, set())
        lines.append((f"{label}: products {sorted(got)} (expected [{want}])", got == {want}))
    extra = set(seen) - set(expected)
    if extra:
        lines.append((f"unexpected families: {sorted(extra)}", False))
    best = max(c.product for c in certs)
    lines.append(_verdict(f"max product {best} = q^3+q+1 = {q ** 3 + q + 1}", best == q**3 + q + 1))
    plain = classical_bound("Hodd", 2, qq)
    nontight = plain.bound * plain.bound > best
    verdict = f"> {best}: confirmed non-tight" if nontight else f"<= {best}: not non-tight"
    lines.append((
        f"plain ratio bound {plain.bound} squared = {float(plain.bound * plain.bound):.2f} {verdict}",
        nontight,
    ))
    failing = next((c for c in certs if not _maximality_lemma(g.rel, c)[1]), None)
    if failing is None:
        lines.append(("maximality lemma holds on every certificate", True))
    else:
        lines.append((f"maximality lemma fails on {failing.y} / {failing.z}", False))
    return _report("thm20", lines, _space("Hodd", 2, qq), exact=best)


def _reduced_ranks(fld, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """rank [y; z] - d for (m, d, nv) stacks y and z, every y a canonical basis.

    z loses its multiples of y's rows at y's pivot columns, one mul/sub pass
    per row of y (each row of y vanishes at the other pivots, so the order
    does not matter); the reduced z is zero there, so the rank of [y; z] is d
    plus that of z on y's nv - d free columns, one (m, d, nv - d) rref_batch.
    """
    m, d, nv = y.shape
    piv = (y != 0).argmax(axis=2)
    for i in range(d):
        z = fld.sub(z, fld.array_mul(np.take_along_axis(z, piv[:, i, None, None], axis=2), y[:, i, None, :]))
    free = np.ones((m, nv), dtype=bool)
    np.put_along_axis(free, piv, False, axis=1)
    cols = free.nonzero()[1].reshape(m, nv - d)
    return rref_batch(fld, np.take_along_axis(z, cols[:, None, :], axis=2))[1]


_SAMPLE_SEED = 20260810


def example_h7_cross_sample(data, samples: int) -> int:
    """The number of disjoint pairs among random y in Y, z in Z pairs of the
    Example 21 stacks data = (ps, Y, Z); the statement wants none.

    The pairs are drawn in row_blocks of 16 d nv bytes per pair (y, z, the
    reduced z and a product), 1024 pairs at H(7, q^2).  Each block draws its
    indices into Y and Z, an index below n as floor(u n / 2^32) for 32 random
    bits u of random.Random(_SAMPLE_SEED) (one getrandbits call per block and
    side; each index is drawn with probability within n / 2^32 of 1/n), so
    the block size fixes which pairs are sampled.  A pair is disjoint exactly
    when z keeps rank d after the reduction by y (_reduced_ranks).  A
    negative sample count raises ValueError.
    """
    if samples < 0:
        raise ValueError(f"sample count {samples} is negative")
    ps, Y, Z = data
    rng = random.Random(_SAMPLE_SEED)

    def draw(n: int, m: int) -> np.ndarray:
        u = np.frombuffer(rng.getrandbits(32 * m).to_bytes(4 * m, "little"), dtype=np.uint32)
        return u.astype(np.uint64) * n >> 32

    bad = 0
    for s in row_blocks(samples, 16 * ps.d * ps.nv):
        m = s.stop - s.start
        y, z = Y[draw(len(Y), m)], Z[draw(len(Z), m)]
        bad += int((_reduced_ranks(ps.field, y, z) == ps.d).sum())
    return bad


def check_example21(q: int = 2, samples: int = 10_000) -> dict:
    """The H(7, q^2) example sizes and the pairwise-intersection spot check."""
    data = example_h7_data(q)
    size_y, size_z = example_h7_sizes(data)
    want_y = 1 + q + q**3 + q**4 + q**5 + q**6 + q**7 + 2 * q**8 + q**10 + q**12
    want_z = 1 + q + q**3 + q**5 + q**7
    bad = example_h7_cross_sample(data, samples)
    lines = [
        (f"|Y| = {size_y} (polynomial value {want_y})", size_y == want_y),
        (f"|Z| = {size_z} (polynomial value {want_z})", size_z == want_z),
        (f"{samples} random (y, z) samples, disjoint pairs: {bad}", bad == 0),
    ]
    return _report("example21", lines, _space("Hodd", 4, q * q), exact=size_y * size_z)


def check_q_col_signs(d: int = 3, q: int = 2) -> dict:
    """Q-column facts, weighted-matrix signs and the second-largest eigenvalue claim."""
    qq = q * q
    eig = eigen_data("Hodd", d, qq)
    rep = hermitian_cross_report(d, q, eig)
    p = rep.params
    Q1 = [row[1] for row in eig.Q]
    w = rep.weighted.entries
    conds = rep.weighted.sign_conditions()
    lo = q ** (d * d - 2 * d + 2)
    hi = 3 * lo
    lines = [
        _verdict(f"Q[0][1] = {Q1[0]} equals f1 = {p.f1}", Q1[0] == p.f1),
        _verdict(f"Q[{d - 1}][1] = {Q1[d - 1]} equals f1*c = {p.f1 * p.c}", Q1[d - 1] == p.f1 * p.c),
        _verdict(f"Q[s][1] >= f1*c for s < {d}", all(Q1[s] >= p.f1 * p.c for s in range(d))),
        _verdict(f"Q[{d}][1] = {Q1[d]} < 0", Q1[d] < 0),
        (f"weights w = {[str(x) for x in w]}", True),
        _verdict(
            f"w_0 = 0, w_{d - 1} = 0, middle non-positive, w_{d} > 0",
            conds["w0_zero"] and w[d - 1] == 0 and conds["middle_nonpositive"] and conds["wd_positive"],
        ),
        _verdict(f"lambda_b = {p.lambda_b} second largest absolute", p.second_largest_ok),
        _verdict(f"cross bound {rep.bound} inside ({lo}, {hi})", rep.bound is not None and lo < rep.bound < hi),
        (f"plain ratio bound {rep.plain.bound}; weighted bound improves: {rep.improves_plain}", True),
    ]
    return _report("q-col-signs", lines, _space("Hodd", d, qq), exact=rep.bound)


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
