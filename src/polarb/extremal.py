"""Maximal cross-intersecting pairs by complete bit-vector search, plus the
computational verifications of the classification statements.

The graph keeps the codimension matrix C of scheme.build_relations and the
packed bit rows of one relation, "x meets y", read off it as C < d; two
generators are disjoint exactly when they do not meet.  A pair (Y, Z) with
every y meeting every z is maximal exactly when Y and Z are fixed by the
non-neighborhood closure Y = nonN(Z), Z = nonN(Y).  Because "x meets y" is
symmetric, these fixed points are the formal concepts of the context
(generators, generators, meet), and Close-by-One (Kuznetsov 1993; the
depth-first form of Ganter's NextClosure, 1984) lists every one of them
exactly once without a seen-set.  Its FCbO refinement (Outrata and
Vychodil 2012) skips, without computing it, every child closure that a
failed closure of an ancestor already shows to fail the canonicity test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property, reduce
from math import isqrt
from operator import and_, or_

import numpy as np

from .geom import (
    GeneratorCatalog,
    PolarSpace,
    Subspace,
    _array_arithmetic,
    bit_indices,
    bits_to_masks,
    enumerate_subspaces_within,
    generators_through,
    intersect_bases,
    perp,
    polar_space_make,
    row_blocks,
    rref,
    rref_batch,
)
from .qcount import binom2, gaussian, nbracket, num_generators, num_points
from .scheme import RelationData, SchemeError, build_relations


# Below this many members nonn_of ANDs every row: per call on the closures of
# Q-(7,2) and W(5,2), sampling and filtering was slower for 12 to 19 members,
# about as fast for 20 to 23 and faster from 24 on.
_SAMPLE_MIN = 24


def _and_rows(rows, mask: int, c: int) -> int:
    """c ANDed with the row of every member of mask, lowest member first."""
    while mask:
        low = mask & -mask
        mask ^= low
        c &= rows[low.bit_length() - 1]
    return c


@dataclass(eq=False)
class CrossGraph:
    """Disjointness graph of a catalog, held as its closed non-neighborhood
    rows next to the codimension matrix they are read from: x and y are
    disjoint exactly when bit y of nonn[x] is clear."""

    rel: RelationData  # the catalog is rel.cat
    nonn: tuple[int, ...]  # nonn[x] = bitmask of generators meeting x, x included

    @property
    def n(self) -> int:
        return len(self.nonn)

    @cached_property
    def full(self) -> int:
        """The bit set of every vertex."""
        return (1 << self.n) - 1

    def nonn_of(self, mask: int, sample: bool = False) -> int:
        """nonN of the vertex set ``mask``: the vertices meeting all of them.

        Without ``sample``, or below _SAMPLE_MIN members, every member's row is
        ANDed.  With it, a set of k >= _SAMPLE_MIN members ANDs only about
        sqrt(k) rows, those of the lowest member at or above each of isqrt(k)
        evenly spaced bit offsets, into a superset c of nonN(mask); a window
        with no member repeats a row, which AND ignores.  If c has fewer
        members than rows are left, each j in c is kept exactly when
        nonn[j] & mask == mask; otherwise every row is ANDed into c.
        The filter is exact because "meets" is symmetric (cross_graph reads
        nonn off the symmetric codimension matrix C), so for every j:
          j in nonN(mask)  <=>  bit j of nonn[i] is set for every i in mask
                           <=>  bit i of nonn[j] is set for every i in mask.
        Any sample of members gives such a superset, so the choice of rows
        changes the cost only.
        """
        rows = self.nonn
        k = mask.bit_count()
        if not sample or k < _SAMPLE_MIN:
            return _and_rows(rows, mask, self.full)
        s = isqrt(k)
        width = mask.bit_length()
        c = self.full
        for t in range(s):
            o = width * t // s
            rest = mask >> o
            c &= rows[(rest & -rest).bit_length() - 1 + o]
        if c.bit_count() >= k - s:
            return _and_rows(rows, mask, c)
        rest = c
        while rest:
            low = rest & -rest
            rest ^= low
            if rows[low.bit_length() - 1] & mask != mask:
                c ^= low
        return c

    def meeting_more_than(self, mask: int, t: int) -> int:
        """The bit set of the vertices j with |nonn[j] & mask| > t.

        "Meets" is symmetric, so j meets member x exactly when bit j of
        nonn[x] is set, and the counts of all j at once are the column sums
        of the members' rows.  A bit-sliced counter adds one row at a time
        (counter[i] holds bit i of every count, and the carry ripples up).
        A count exceeds t exactly when, at the highest bit where the two
        differ, the count has a 1 and t a 0; the counts are read from the
        top bit down.
        """
        rows = self.nonn
        counter = []
        while mask:
            low = mask & -mask
            mask ^= low
            carry = rows[low.bit_length() - 1]
            i = 0
            while carry:
                if i == len(counter):
                    counter.append(carry)
                    break
                c = counter[i]
                counter[i] = c ^ carry
                carry &= c
                i += 1
        if t >> len(counter):
            return 0
        above, equal = 0, self.full  # equal: the counts that agree with t on t's set bits so far
        for i in reversed(range(len(counter))):
            if t >> i & 1:
                equal &= counter[i]
            else:
                above |= equal & counter[i]
        return above

    @cached_property
    def latins_greeks(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The two codimension-parity classes of a hyperbolic quadric's generators:
        x is in class C[0, x] mod 2, and every pair's parity, read off row blocks
        of the codimension matrix C, must be the sum of its classes.  A geometry
        that breaks either invariant raises SchemeError (a failed verification)."""
        if self.rel.cat.space.family != "Qplus":
            raise ValueError("latins/greeks exist on hyperbolic quadrics only")
        C, n = self.rel.codim, self.n
        cls = C[0] & 1
        for s in row_blocks(n, 3 * n):  # two int8 parities and a bool per entry
            if ((C[s] & 1) != (cls[s, None] ^ cls)).any():
                raise SchemeError("codimension parity is not a bipartition; geometry bug")
        x1, x2 = (tuple(np.flatnonzero(cls == c).tolist()) for c in (0, 1))
        if len(x1) != len(x2):
            raise SchemeError("parity classes have unequal sizes")
        return x1, x2


def cross_graph(cat: GeneratorCatalog) -> CrossGraph:
    """nonn[x] has bit y set exactly when x and y meet: C[x, y] < d for the
    codimension matrix C of build_relations, which raises SchemeError on a
    geometry that is no association scheme.  The sampled nonn_of filter and
    the half-lattice search assume that "meets" is symmetric, so a C that
    differs from C.T, compared in the row blocks that nonn is packed from,
    raises SchemeError too."""
    rel = build_relations(cat)
    C, n = rel.codim, len(rel.codim)
    nonn: list[int] = []
    for s in row_blocks(n, 2 * n):  # two bools per entry
        if (C[s] != C[:, s].T).any():
            raise SchemeError("codimension matrix is not symmetric")
        nonn += bits_to_masks(C[s] < rel.d)
    return CrossGraph(rel=rel, nonn=tuple(nonn))


@dataclass(frozen=True, slots=True)
class CrossPairCertificate:
    """A maximal cross-intersecting pair as two bit sets, sides ordered with
    |Y| >= |Z|; the id tuples are unpacked on each read and not kept."""

    ymask: int
    zmask: int
    maximal: bool
    label: str

    @property
    def y(self) -> tuple[int, ...]:
        return bit_indices(self.ymask)

    @property
    def z(self) -> tuple[int, ...]:
        return bit_indices(self.zmask)

    @property
    def sizes(self) -> tuple[int, int]:
        return self.ymask.bit_count(), self.zmask.bit_count()

    @property
    def product(self) -> int:
        return self.ymask.bit_count() * self.zmask.bit_count()


def cross_closure(z, g: CrossGraph) -> CrossPairCertificate:
    """Close an arbitrary vertex set, a bit set or a sequence of ids, to a
    maximal pair (nonN(Z), nonN(nonN(Z)))."""
    zmask = z if isinstance(z, int) else _mask_of(z)
    ymask = g.nonn_of(zmask)
    return _certificate(g, ymask, g.nonn_of(ymask, sample=True))


def _certificate(g: CrossGraph, ymask: int, zmask: int) -> CrossPairCertificate:
    """Certificate of the pair (Y, Z) for a Z = nonN(Y) the caller computed.

    Checks the other fixed-point equation, nonN(Z) = Y, with a plain AND over
    Z's rows: the sampled filter assumes the symmetry this check guards.
    Disjointness is the complement of nonn, so every z in Z = nonN(Y) meets
    every y in Y.
    """
    if g.nonn_of(zmask) != ymask:
        raise AssertionError("closure did not reach a fixed point")
    ny, nz = ymask.bit_count(), zmask.bit_count()
    if ny < nz or (ny == nz and ymask > zmask):
        ymask, zmask = zmask, ymask
    return CrossPairCertificate(ymask, zmask, True, classify_pair(ymask, zmask, g))


def enumerate_maximal_cross_pairs(g: CrossGraph, limit: int = 22) -> list[CrossPairCertificate]:
    """All maximal cross-intersecting pairs up to swapping the two sides.

    Close-by-One lists the closed sets B = cl(B), cl(X) = nonN(nonN(X)); each
    gives the maximal pair (nonN(B), B).  A node is (A, B, j0) with A = nonN(B)
    and B = cl(B below j0); the root is (all, nonN(all), 0).  Its children add
    a vertex j >= j0 outside B: A' = A & nonn[j], B' = nonN(A') = cl(B + j),
    kept only when B' agrees with B below j.
    Complete: a closed C other than the root's has a least j with
    cl(C below j, plus j) = C.  P = cl(C below j) is closed, lacks j and agrees
    with C below j; its own least index is below j, so by induction on |C| it
    is a node with j0 <= j, and C is its kept child by j.
    Unique: a kept child C by j of a node P forces P = cl(C below j), and j is
    then C's least index, so every closed set has one parent and is listed once.

    Half lattice: each pair is listed from its smaller side only, sides ordered
    by (|X|, X) with bit sets compared as ints.  Below a node B only grows and
    A only shrinks, and three rules cut the rest:
      1. a kept child is pushed only when (|B'|, B') <= (|A'|, A');
      2. child j is skipped before its closure when |A & nonn[j]| <= |B|,
         because B' contains B + j, so |B'| > |A'| there and below; one
         meeting_more_than(A, |B|) finds the other candidates all at once;
      3. a node with |B| >= |A| - 1 scans no candidates: a j outside
         B = nonN(A) misses some member of A ("meets" is symmetric), so
         |A'| <= |A| - 1 <= |B| and rule 2 would skip every child.
    Still complete: every Close-by-One ancestor P of a pair's smaller side C
    is a proper subset of C, so |P| < |C| <= |nonN(C)| <= |nonN(P)| and P
    passes rule 1 strictly, as C passes it by its choice.  Rules 2 and 3 cut
    only children with |B'| > |A'|, so no tie reaches them and no rule cuts
    the path to C.  Unique: every visited node, the root too (A is all), has
    (|B|, B) <= (|A|, A), so each visited closed set is a new pair.

    FCbO pruning (Outrata and Vychodil 2012): every node carries failed[j], the
    last closure cl(B0 + j) on its path that failed the test, B0 the B of the
    node that computed it (0 where none failed).  Every node below that node
    has B containing B0, so cl(B + j) contains cl(B0 + j); when failed[j] holds
    a vertex below j outside B, so does cl(B + j), and the child by j would be
    dropped.  It is skipped without its closure.  A child skipped by rule 2
    leaves failed[j] as it was, an older closure that is still a sufficient
    condition for failure.  A node generates all its children before any is
    pushed, and they share its updated failed tuple: a failure at this node
    holds for every node under it.  Only dropped or cut children are skipped,
    so the visited closed sets are those of Close-by-One under the three rules,
    popped in its order.  More than 2^limit visited closed sets, or a negative
    limit, raise ValueError.
    """
    if limit < 0:
        raise ValueError(f"limit {limit} is negative; the search stops past 2^limit closed sets")
    nonn, nonn_of, full = g.nonn, g.nonn_of, g.full
    cap = 1 << limit
    out = []
    stack = [(full, nonn_of(full, sample=True), 0, (0,) * g.n)]
    while stack:
        a, b, j0, failed = stack.pop()
        if len(out) == cap:
            raise ValueError(f"more than 2^{limit} closed sets; raise the limit")
        out.append(_certificate(g, a, b))
        nb = b.bit_count()
        if nb >= a.bit_count() - 1:
            continue
        children = []
        fresh = None
        for j in bit_indices(((full ^ b) & g.meeting_more_than(a, nb)) >> j0 << j0):
            low = (1 << j) - 1
            if failed[j] & low & ~b:
                continue
            a2 = a & nonn[j]
            b2 = nonn_of(a2, sample=True)
            if (b2 ^ b) & low:
                if fresh is None:
                    fresh = list(failed)
                fresh[j] = b2
            elif (b2.bit_count(), b2) <= (a2.bit_count(), a2):
                children.append((a2, b2, j + 1))
        if fresh is not None:
            failed = tuple(fresh)
        stack.extend((a2, b2, j1, failed) for a2, b2, j1 in children)
    out.sort(key=lambda c: (-c.product, c.y, c.z))
    return out


def classify_pair(ymask: int, zmask: int, g: CrossGraph) -> str:
    """Best-effort family label of the pair of bit sets (Y, Z), |Y| >= |Z|;
    reporting only, set identities carry the proofs.  Unpacks Z, and Y only
    when |Y| = |Z|."""
    cat = g.rel.cat
    family = cat.space.family
    ny, nz = ymask.bit_count(), zmask.bit_count()
    if nz == 0:
        return "whole-vs-empty"
    if nz == 1:
        return "single-line-star"
    if ymask == zmask:
        common = reduce(and_, map(cat.point_masks.__getitem__, bit_indices(zmask)))
        return "point-pencil-EKR" if common else "other"
    if family == "Qplus":
        x1, x2 = g.latins_greeks
        if ny == nz == len(x1) and {ymask, zmask} == {_mask_of(x1), _mask_of(x2)}:
            return "latins-greeks"
    nonn = g.nonn
    if nz == 2:
        z0, z1 = bit_indices(zmask)
        if not nonn[z0] >> z1 & 1:
            return "two-line-transversal"
    if ny == nz and _pairwise_disjoint(nonn, ymask) and _pairwise_disjoint(nonn, zmask):
        if family in ("Qparabolic", "W"):
            return "hyperbolic-subgeometry"
        if family in ("Hodd", "Heven"):
            return "regulus-triple"
    return "other"


def _mask_of(ids) -> int:
    """The bit set of a sequence of vertex ids."""
    return reduce(or_, (1 << i for i in ids), 0)


def _pairwise_disjoint(nonn, mask: int) -> bool:
    """No two members of mask meet: one row test per member, as nonn[a] holds a."""
    return all(nonn[a] & mask == 1 << a for a in bit_indices(mask))


def bipartition_latins_greeks(cat: GeneratorCatalog) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """CrossGraph.latins_greeks of the catalog's graph."""
    return cross_graph(cat).latins_greeks

# ---------------------------------------------------------------------------
# Verification of the classification statements
# ---------------------------------------------------------------------------


def _dims_to(rel: RelationData, gidx: int, ids) -> list[int]:
    """Histogram of dim(g ∩ h) = d - C[g, h] over h in ids, indexed by dimension 0..d."""
    return np.bincount(rel.d - rel.codim[gidx, list(ids)], minlength=rel.d + 1).tolist()


def verify_prop10_counts(rel: RelationData, pair: CrossPairCertificate, gidx: int) -> dict:
    """Intersection-dimension counts from a fixed G in Y of a maximum non-EKR pair.

    For each s: if d-s is even G meets 0 elements of Z and [d,s] q^C(d-s,2)
    elements of Y in dimension exactly s, and the other way around for d-s
    odd.  Also Y and Z must be disjoint as sets.
    """
    d, q = rel.d, rel.cat.space.q
    if gidx not in pair.y:
        raise ValueError("G must belong to the Y side")
    if pair.ymask & pair.zmask:
        return {"ok": False, "details": ["Y and Z are not disjoint as sets"]}
    hist_y = _dims_to(rel, gidx, pair.y)
    hist_z = _dims_to(rel, gidx, pair.z)
    details = []
    ok = True
    for s in range(d + 1):
        expected = gaussian(d, s, q) * q ** binom2(d - s)
        ny = hist_y[s]
        nz = hist_z[s]
        if (d - s) % 2 == 0:
            good = nz == 0 and ny == expected
            want = f"Y:{expected} Z:0"
        else:
            good = ny == 0 and nz == expected
            want = f"Y:0 Z:{expected}"
        details.append(f"s={s}: Y:{ny} Z:{nz} (expected {want})")
        ok &= good
    return {"ok": ok, "details": details}


def verify_zgh(rel: RelationData, pair: CrossPairCertificate, gidx: int, hidx: int) -> dict:
    """The Z_{G,H} construction: hyperplane-by-hyperplane recovery of the
    [d]_q elements of Z meeting G in dimension d-1."""
    cat, C = rel.cat, rel.codim
    ps = cat.space
    fld = ps.field
    d, q = ps.d, ps.q
    if C[gidx, hidx] != d:
        raise ValueError("G and H must be disjoint")
    G = cat.generators[gidx]
    H = cat.generators[hidx]
    expected = nbracket(d, q)
    z_meet = [z for z in pair.z if C[gidx, z] == 1]  # dim(G ∩ z) = d - 1
    details = [f"elements of Z meeting G in dim {d - 1}: {len(z_meet)} (expected {expected})"]
    ok = len(z_meet) == expected
    built = set()
    single_points = True
    for pi in enumerate_subspaces_within(ps, G.basis, d - 1):
        trace = intersect_bases(fld, perp(Subspace(pi), ps).basis, H.basis)
        single_points &= len(trace) == 1
        span = rref(fld, list(pi) + list(trace))
        built.add(span)
    details.append(f"perp traces on H are single points: {single_points}")
    ok &= single_points
    z_bases = {cat.generators[z].basis for z in z_meet}
    same = built == z_bases
    details.append(f"{{<pi, perp(pi) ∩ H>}} equals the Z-slice: {same}")
    ok &= same
    pairwise = all(C[a, b] > 1 for i, a in enumerate(z_meet) for b in z_meet[i + 1 :])
    details.append(f"pairwise dim(z_i ∩ z_j) < {d - 1}: {pairwise}")
    ok &= pairwise
    return {"ok": ok, "details": details}


def verify_hyperplane_section(rel: RelationData, gidx: int, hidx: int) -> dict:
    """span(G, H) cuts a hyperbolic polar space of the same rank out of Q(2d, q)."""
    cat = rel.cat
    ps = cat.space
    if ps.family != "Qparabolic":
        raise ValueError("hyperplane sections are checked on parabolic quadrics")
    fld = ps.field
    if rel.codim[gidx, hidx] != rel.d:
        raise ValueError("G and H must be disjoint generators")
    d, q = ps.d, ps.q
    h = rref(fld, list(cat.generators[gidx].basis) + list(cat.generators[hidx].basis))
    details = [f"dim span(G,H) = {len(h)} (expected {2 * d})"]
    ok = len(h) == 2 * d
    hmask = cat.mask_of_points_in_span(h)
    npts = hmask.bit_count()
    want_pts = num_points("Qplus", d, q)
    details.append(f"singular points in the section: {npts} (expected {want_pts})")
    ok &= npts == want_pts
    ngens = sum(1 for m in cat.point_masks if m & ~hmask == 0)
    want_gens = num_generators("Qplus", d, q)
    details.append(f"generators inside the section: {ngens} (expected {want_gens})")
    ok &= ngens == want_gens
    return {"ok": ok, "details": details}


def verify_w3_triples(g: CrossGraph) -> dict:
    """Transversal counts over all pairwise disjoint line triples of W(3, q).

    For q odd the count must be 0 or 2 everywhere; for q even the observed
    distribution is reported without judgement (the statement excludes it).
    """
    ps = g.rel.cat.space
    if (ps.family, ps.d) != ("W", 2):
        raise ValueError(f"{ps.label}: the triples are counted on W(3, q)")
    n, nonn, full = g.n, g.nonn, g.full
    counts: dict[int, int] = {}
    for a in range(n):
        rest_a = (full ^ nonn[a]) >> (a + 1) << (a + 1)
        for b in bit_indices(rest_a):
            for c in bit_indices(rest_a & ~nonn[b] >> (b + 1) << (b + 1)):
                t = (nonn[a] & nonn[b] & nonn[c]).bit_count()
                counts[t] = counts.get(t, 0) + 1
    triples = sum(counts.values())
    details = [f"disjoint triples: {triples}", f"transversal counts: {dict(sorted(counts.items()))}"]
    if ps.q % 2 == 1:
        ok = set(counts) <= {0, 2}
        details.append(f"all counts in {{0, 2}}: {ok}")
    else:
        ok = True
        details.append("q even: outside the statement, distribution reported only")
    return {"ok": ok, "details": details, "counts": counts}


def verify_maximality_lemma(rel: RelationData, pair: CrossPairCertificate) -> dict:
    """Whenever y1, y2 in Y meet in dimension d-1, every z in Z meets y1 ∩ y2.

    y1 ∩ y2 is totally isotropic, so each of its points is a singular point
    of the catalog and its point mask is pm[y1] & pm[y2]; z meets it exactly
    when pm[z] & pm[y1] & pm[y2] is nonzero.
    """
    if not pair.maximal:
        raise ValueError("the statement applies to maximal pairs only")
    C = rel.codim
    pm = rel.cat.point_masks
    ys, zs = pair.y, pair.z
    tested = 0
    ok = True
    for i, y1 in enumerate(ys):
        for y2 in ys[i + 1 :]:
            if C[y1, y2] != 1:  # dim(y1 ∩ y2) = d - 1
                continue
            meet = pm[y1] & pm[y2]
            tested += 1
            if not all(pm[z] & meet for z in zs):
                ok = False
    return {"ok": ok, "details": [f"(d-1)-meeting pairs tested: {tested}", f"all Z elements hit: {ok}"]}


# ---------------------------------------------------------------------------
# Example sizes on H(7, q^2)
# ---------------------------------------------------------------------------


def _dual_blocks(ar, Ainv: np.ndarray) -> np.ndarray:
    """C = J sigma(A^-1)^T J for each matrix of a stack of inverses, J the reversal."""
    return ar.conj[Ainv].transpose(0, 2, 1)[:, ::-1, ::-1]


def _generators_through_subspaces(ps: PolarSpace, ks) -> tuple[np.ndarray, list[int]]:
    """(stack, starts): one int32 (m, d, nv) stack of the canonical bases of
    the generators X with dim(X ∩ G) in ks, G = <e_0..e_(d-1)>, each exactly
    once; those with dim(X ∩ G) = ks[i] fill stack[starts[i]:starts[i + 1]].
    That block is grouped by S = X ∩ G, over the k-subspaces S of G in
    enumerate_subspaces_within order, in groups of one size, each in the
    order of the generators through S0 = <e_0..e_(k-1)>.

    Both Hermitian models have the antidiagonal Gram matrix J.  For A in
    GL(d, q) let C = J sigma(A^-1)^T J and M = diag(A, C), with a 1 on the
    middle coordinate of Heven.  Then sigma(C)^T = J A^-1 J, so the
    off-diagonal blocks of M J sigma(M)^T are A J sigma(C)^T = J and its
    conjugate transpose C J sigma(A)^T = J: M is an isometry.  The first k
    rows of A are S's canonical basis (S lies in G, so they vanish past
    column d) and the others are the unit vectors at S's non-pivot columns,
    so A is invertible and S0 M = S for S0 = <e_0..e_(k-1)>.  M maps G onto
    itself, so (X ∩ G) M = XM ∩ G.  An isometry maps generators to generators
    and keeps containment, and so does M^-1; hence X -> X M is a bijection
    from the generators X through S0 with X ∩ G = S0 onto the generators
    through S with X ∩ G = S.  Reducing each image by rref_batch gives their
    canonical bases, in the order of their preimages.

    For each k the generators through S0 are enumerated once and kept when
    X ∩ G = S0, that is when X[:, d:] has rank d - k, from one rref_batch;
    the group sizes then fix the stack, which is allocated once.  A^-1 comes
    from one rref_batch of [A | I], the images from _Gathers products, all in
    row_blocks of subspaces.  Raises ValueError for a form other than the
    antidiagonal Hermitian one, and AssertionError when A J sigma(C)^T != J
    for some S, an image has rank below d, or an S gets a repeated image.
    """
    d, nv, fld = ps.d, ps.nv, ps.field
    anti = tuple(tuple(int(j == nv - 1 - i) for j in range(nv)) for i in range(nv))
    if not ps.is_hermitian or ps.gram != anti:
        raise ValueError(f"{ps.label}: the isometries need the antidiagonal Hermitian form")
    ar = _array_arithmetic(fld)
    unit = anti[::-1]
    eye = np.eye(d, dtype=np.int32)
    parts = []
    for k in ks:
        W = np.array([g.basis for g in generators_through(Subspace(unit[:k]), ps)], dtype=np.int32)
        W = W[rref_batch(fld, W[:, :, d:])[1] == d - k]
        parts.append((k, enumerate_subspaces_within(ps, unit[:d], k), W))
    starts = np.cumsum([0] + [len(subs) * len(W) for _, subs, W in parts]).tolist()
    stack = np.empty((starts[-1], d, nv), dtype=np.int32)
    key = np.dtype((np.void, stack.itemsize * d * nv))  # one basis as an opaque key
    for (k, subs, W), at in zip(parts, starts):
        n = len(W)
        images = stack[at : at + len(subs) * n].reshape(len(subs), n, d, nv)
        for s in row_blocks(len(subs), 16 * n * d * nv):  # the images, their rref copy and two gathers
            block = subs[s]
            A = np.zeros((len(block), d, d), dtype=np.int32)
            for i, sub in enumerate(block):
                pivots = {next(c for c, x in enumerate(row) if x) for row in sub}
                A[i] = [row[:d] for row in sub] + [eye[c] for c in range(d) if c not in pivots]
            inv = rref_batch(fld, np.concatenate([A, np.broadcast_to(eye, A.shape)], axis=2))[0][:, :, d:]
            C = _dual_blocks(ar, inv)
            Y = ar.conj[C].transpose(0, 2, 1)[:, ::-1]  # J sigma(C)^T
            P = 0
            for t in range(d):
                P = ar.add(P, ar.mul(A[:, :, t, None], Y[:, None, t, :]))
            if (P != eye[::-1]).any():
                raise AssertionError(f"{ps.label}: diag(A, C) is not an isometry for some {k}-subspace")
            M = np.zeros((len(block), nv, nv), dtype=np.int32)
            M[:, :d, :d] = A
            M[:, d : nv - d, d : nv - d] = np.eye(nv - 2 * d, dtype=np.int32)
            M[:, nv - d :, nv - d :] = C
            img = 0
            for t in range(nv):
                img = ar.add(img, ar.mul(W[None, :, :, t, None], M[:, None, None, t, :]))
            R, rank = rref_batch(fld, img.reshape(-1, d, nv))
            if (rank != d).any():
                raise AssertionError(f"{ps.label}: an image of a generator has rank below {d}")
            keys = np.sort(R.reshape(len(block), n, d * nv).view(key)[..., 0], axis=1)
            twice = (keys[:, 1:] == keys[:, :-1]).any(axis=1)
            if twice.any():
                raise AssertionError(f"{ps.label}: two generators through S0 map to one through {block[twice.argmax()]}")
            images[s] = R.reshape(len(block), n, d, nv)
    return stack, starts


def example_h7_data(q: int):
    """(H(7, q^2), Y, Z): Y is the int32 (m, 4, 8) stack of the canonical bases
    of the generators meeting G = <e_0..e_3> in dimension >= 2, each once, in
    the order [dimension 2 | dimension 3 | G itself], and Z, those meeting G in
    dimension >= 3, is a view of its tail."""
    ps = polar_space_make("Hodd", 4, q * q)
    Y, starts = _generators_through_subspaces(ps, (2, 3, 4))
    return ps, Y, Y[starts[1] :]


def example_h7_sizes(data) -> tuple[int, int]:
    """|Y| and |Z| of the large H(7, q^2) example, counted on its stacks."""
    _, Y, Z = data
    return len(Y), len(Z)


def _reduced_ranks(fld, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """rank [y; z] - d for (m, d, nv) stacks y and z, every y a canonical basis.

    z loses its multiples of y's rows at y's pivot columns, one mul/sub pass
    per row of y (each row of y vanishes at the other pivots, so the order
    does not matter); the reduced z is zero there, so the rank of [y; z] is d
    plus that of z on y's nv - d free columns, one (m, d, nv - d) rref_batch.
    """
    ar = _array_arithmetic(fld)
    m, d, nv = y.shape
    piv = (y != 0).argmax(axis=2)
    for i in range(d):
        z = ar.sub(z, ar.mul(np.take_along_axis(z, piv[:, i, None, None], axis=2), y[:, i, None, :]))
    free = np.ones((m, nv), dtype=bool)
    np.put_along_axis(free, piv, False, axis=1)
    cols = free.nonzero()[1].reshape(m, nv - d)
    return rref_batch(fld, np.take_along_axis(z, cols[:, None, :], axis=2))[1]


def example_h7_cross_sample(data, samples: int = 10_000, seed: int = 20260810) -> dict:
    """Random y in Y, z in Z pairs; every one must intersect non-trivially.

    The pairs are drawn in row_blocks of 16 d nv bytes per pair (y, z, the
    reduced z and a product), 1024 pairs at H(7, q^2).  Each block draws its
    indices into Y and Z, an index below n as floor(u n / 2^32) for 32 random
    bits u of random.Random(seed) (one getrandbits call per block and side;
    each index is drawn with probability within n / 2^32 of 1/n), so the
    block size fixes which pairs are sampled.  A pair is disjoint exactly
    when z keeps rank d after the reduction by y (_reduced_ranks).  A
    negative sample count raises ValueError.
    """
    if samples < 0:
        raise ValueError(f"sample count {samples} is negative")
    ps, Y, Z = data
    rng = random.Random(seed)

    def draw(n: int, m: int) -> np.ndarray:
        u = np.frombuffer(rng.getrandbits(32 * m).to_bytes(4 * m, "little"), dtype=np.uint32)
        return u.astype(np.uint64) * n >> 32

    bad = 0
    for s in row_blocks(samples, 16 * ps.d * ps.nv):
        m = s.stop - s.start
        y, z = Y[draw(len(Y), m)], Z[draw(len(Z), m)]
        bad += int((_reduced_ranks(ps.field, y, z) == ps.d).sum())
    return {"ok": bad == 0, "samples": samples, "disjoint_pairs": bad}
