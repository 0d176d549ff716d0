import dataclasses
import hashlib
import os
import random
import subprocess
import sys
from collections import Counter
from functools import cached_property
from math import isqrt
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import polarb.checks as checks
import polarb.extremal as extremal
import polarb.geom as geom
from polarb.checks import (
    check_lemma11,
    check_lemma12,
    check_prop10,
    check_thm16,
    check_thm20,
    example_h7_cross_sample,
)
from polarb.extremal import (
    CrossGraph,
    CrossPairCertificate,
    bipartition_latins_greeks,
    cross_closure,
    cross_graph,
    enumerate_maximal_cross_pairs,
    example_h7_data,
    example_h7_sizes,
)
from polarb.ff import field_of_order
from polarb.geom import (
    Subspace,
    _bases,
    _orth_masks,
    _space_from_forms,
    enumerate_generators,
    enumerate_points,
    enumerate_subspaces_within,
    generators_through,
    intersect_bases,
    polar_space_make,
    rref_batch,
    subspace_points,
)
from polarb.qcount import binom2, eigen_data, gaussian, nbracket, num_generators
from polarb.scheme import RelationData, SchemeError, eigenspace_support, verify_spectrum
from polarb.shell import main

def _reference_disjointness_rows(cat):
    """The popcount loop: bit y of row x set iff generators x and y share no point."""
    pm = cat.point_masks
    return tuple(sum(1 << y for y in range(cat.n) if pm[x] & pm[y] == 0) for x in range(cat.n))


@pytest.mark.parametrize(
    "family,d,q",
    [("W", 2, 3), ("Qparabolic", 2, 2), ("Hodd", 2, 4), ("Qplus", 3, 2), ("W", 3, 2), ("W", 1, 3), ("W", 0, 2)],
)
def test_cross_graph_rows_match_popcount_reference(catalog, family, d, q):
    cat = catalog(family, d, q)
    g = cross_graph(cat)
    assert tuple(((1 << cat.n) - 1) ^ row for row in g.nonn) == _reference_disjointness_rows(cat)
    assert all(type(row) is int for row in g.nonn)


def test_closure_of_empty_set(graph):
    g = graph("Hodd", 2, 4)
    cert = cross_closure((), g)
    assert cert.sizes == (27, 0)
    assert cert.label == "whole-vs-empty"
    assert cert.product == 0


def test_closure_of_single_line(graph):
    g = graph("Hodd", 2, 4)
    cert = cross_closure((0,), g)
    assert cert.sizes == (11, 1)  # (q^2+1)q + 1 lines meet a fixed line
    assert cert.label == "single-line-star"
    assert 0 in cert.y and cert.z == (0,)


def test_closure_of_two_meeting_lines_is_a_pencil(graph):
    g = graph("Hodd", 2, 4)
    a, b = next(
        (x, y) for x in range(g.n) for y in range(x + 1, g.n) if (g.nonn[x] >> y) & 1
    )
    cert = cross_closure((a, b), g)
    assert cert.y == cert.z
    assert cert.label == "point-pencil-EKR"
    assert cert.sizes == (3, 3)


@pytest.mark.parametrize("tamper", ["nonn"])
def test_certificate_rejects_an_inconsistent_graph(graph, tamper):
    g = graph("Hodd", 2, 4)
    seed = next(j for j in range(1, g.n) if g.nonn[0] >> j & 1)
    # vertex 0 meets only itself, but its neighbours still meet 0
    bad = CrossGraph(rel=g.rel, nonn=(1,) + g.nonn[1:])
    with pytest.raises(SchemeError, match="fixed point"):
        cross_closure((seed,), bad)


def test_closure_idempotence(graph):
    g = graph("Hodd", 2, 4)
    for seed in [(0,), (0, 1), (3, 7, 11)]:
        cert = cross_closure(seed, g)
        again = cross_closure(cert.z, g)
        assert {tuple(cert.y), tuple(cert.z)} == {tuple(again.y), tuple(again.z)}


def test_certificates_compare_and_hash_as_their_id_tuples(graph):
    g = graph("Hodd", 2, 4)
    certs = enumerate_maximal_cross_pairs(g)
    again = [cross_closure(c.z, g) for c in certs[::7]]  # equal certificates, built anew
    assert again == certs[::7] and [hash(c) for c in again] == [hash(c) for c in certs[::7]]
    certs += again

    def as_tuples(c):
        return c.y, c.z, c.product, c.label

    assert not hasattr(certs[0], "__dict__")  # slotted: two ints and a str
    assert len(set(certs)) == len({as_tuples(c) for c in certs}) < len(certs)
    rng = random.Random(5)
    for a, b in (rng.sample(certs, 2) for _ in range(2000)):
        assert (a == b) == (as_tuples(a) == as_tuples(b))
        assert a != b or hash(a) == hash(b)


def test_h34_sweep_finds_the_five_families(graph):
    g = graph("Hodd", 2, 4)
    certs = enumerate_maximal_cross_pairs(g)
    counts = Counter(c.label for c in certs)
    assert counts == {
        "whole-vs-empty": 1,
        "single-line-star": 27,
        "point-pencil-EKR": 45,
        "two-line-transversal": 216,
        "regulus-triple": 360,
    }
    products = {lab: {c.product for c in certs if c.label == lab} for lab in counts}
    assert products == {
        "whole-vs-empty": {0},
        "single-line-star": {11},
        "point-pencil-EKR": {9},
        "two-line-transversal": {10},
        "regulus-triple": {9},
    }
    assert max(c.product for c in certs) == 11


def test_sweep_limit_guard(graph):
    g = graph("Hodd", 2, 4)
    with pytest.raises(ValueError):
        enumerate_maximal_cross_pairs(g, limit=5)


def test_limit_caps_the_closed_sets_at_two_to_the_limit(graph):
    # The half-lattice search visits 649 of H(3,4)'s 1253 closed sets, one per
    # maximal pair: 2^9 = 512 is passed, 2^10 = 1024 is not.
    g = graph("Hodd", 2, 4)
    certs, visited = _reference_half_lattice(g)
    assert len(visited) == len(certs) == 649
    assert len(_reference_close_by_one(g)[1]) == 1253
    with pytest.raises(ValueError, match="2\\^9"):
        enumerate_maximal_cross_pairs(g, limit=9)
    assert enumerate_maximal_cross_pairs(g, limit=10) == certs


def _reference_nonn(g, mask):
    out = (1 << g.n) - 1
    for i in range(g.n):
        if mask >> i & 1:
            out &= g.nonn[i]
    return out


def _reference_sweep_pairs(g):
    """The subset sweep Close-by-One replaced: every subset of nonN(y), for every y, closed."""
    full = (1 << g.n) - 1
    candidates = {full}
    for y in range(g.n):
        rows = [g.nonn[e] for e in range(g.n) if g.nonn[y] >> e & 1]

        def sweep(i, inter):
            if i == len(rows):
                candidates.add(inter)
                return
            sweep(i + 1, inter)
            sweep(i + 1, inter & rows[i])

        sweep(0, full)
    return {frozenset((ymask, _reference_nonn(g, ymask))) for ymask in candidates}


@pytest.mark.parametrize(
    "args,digest",
    [
        (("W", "2", "5"), "c85410ea972f2674e659d6fbf9ad1609e0bdb7a8d20ceaa708d70849e68af3fd"),
        (("Hodd", "2", "9"), "0f728a6ea9996258cc959c465ad97682cc431a54e5224b8fbad81fc777eeb1a0"),
    ],
)
def test_search_output_is_pinned(capsys, monkeypatch, tmp_path, args, digest):
    # SHA-256 of the --json output of the full Close-by-One listing, which the
    # half-lattice search must reproduce byte for byte.
    monkeypatch.setenv("POLARB_CACHE_DIR", str(tmp_path))
    assert main(["search", "max-pairs", *args, "--json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def _pair_set(certs):
    return {frozenset((sum(1 << i for i in c.y), sum(1 << i for i in c.z))) for c in certs}


_RANK2 = [("W", 2, 3), ("Qplus", 2, 5), ("Qparabolic", 2, 3), ("Qminus", 2, 2), ("Hodd", 2, 4), ("Qparabolic", 2, 2), ("W", 2, 2)]


@pytest.mark.parametrize("family,d,q", _RANK2)
def test_close_by_one_matches_the_subset_sweep(graph, family, d, q):
    g = graph(family, d, q)
    certs = enumerate_maximal_cross_pairs(g)
    assert len(_pair_set(certs)) == len(certs)
    assert _pair_set(certs) == _reference_sweep_pairs(g)


@st.composite
def _symmetric_graphs(draw):
    n = draw(st.integers(1, 12))
    meet = [[False] * n for _ in range(n)]
    for x in range(n):
        for y in range(x, n):
            meet[x][y] = meet[y][x] = draw(st.booleans())
    nonn = tuple(sum(1 << y for y in range(n) if meet[x][y]) for x in range(n))
    cat = SimpleNamespace(space=SimpleNamespace(q=0, family=None), point_masks=(0,) * n)
    return CrossGraph(rel=SimpleNamespace(cat=cat), nonn=nonn)


@settings(max_examples=120, deadline=None, database=None)
@given(_symmetric_graphs())
def test_close_by_one_matches_brute_force_on_random_graphs(g):
    brute = set()
    for s in range(1 << g.n):
        y = _reference_nonn(g, s)
        brute.add(frozenset((y, _reference_nonn(g, y))))
    certs = enumerate_maximal_cross_pairs(g)
    assert len(_pair_set(certs)) == len(certs)
    assert _pair_set(certs) == brute


@settings(max_examples=150, deadline=None, database=None)
@given(_symmetric_graphs(), st.integers(0, 2**12 - 1), st.integers(0, 13))
def test_meeting_more_than_matches_the_row_counts(g, mask, t):
    mask &= g.full
    want = sum(1 << j for j in range(g.n) if (g.nonn[j] & mask).bit_count() > t)
    assert g.meeting_more_than(mask, t) == want


def test_meeting_more_than_on_seed_drawn_sets(graph):
    g = graph("Hodd", 2, 9)
    rng = random.Random(20261019)
    for _ in range(200):
        mask = _mask(rng.sample(range(g.n), rng.randint(0, g.n)))
        t = rng.randint(0, mask.bit_count() + 1)
        assert g.meeting_more_than(mask, t) == sum(1 << j for j in range(g.n) if (g.nonn[j] & mask).bit_count() > t)


def _mask(ids):
    return sum(1 << i for i in set(ids))


def _reference_certificate(g, ymask, zmask):
    """The per-closure certificate before the lean one: plain nonN of both sides,
    then the disjointness rows full ^ nonn OR-ed over Y."""
    if g.nonn_of(zmask) != ymask or g.nonn_of(ymask) != zmask:
        raise AssertionError("closure did not reach a fixed point")
    full = (1 << g.n) - 1
    adj_y = 0
    for y in extremal.bit_indices(ymask):
        adj_y |= full ^ g.nonn[y]
    if adj_y & zmask:
        raise AssertionError("edge between the two sides")
    if ymask.bit_count() < zmask.bit_count() or (ymask.bit_count() == zmask.bit_count() and ymask > zmask):
        ymask, zmask = zmask, ymask
    return CrossPairCertificate(ymask=ymask, zmask=zmask, label=extremal.classify_pair(ymask, zmask, g))


def _reference_cross_closure(z, g):
    ymask = _reference_nonn(g, _mask(z))
    return _reference_certificate(g, ymask, _reference_nonn(g, ymask))


def _reference_close_by_one(g):
    """Plain Close-by-One: every child closure computed.  Returns (certificates, closed sets in pop order)."""
    full = (1 << g.n) - 1
    pairs = {}
    closed = []
    stack = [(full, g.nonn_of(full), 0)]
    while stack:
        a, b, j0 = stack.pop()
        closed.append(b)
        key = (a, b) if a < b else (b, a)
        if key not in pairs:
            pairs[key] = _reference_certificate(g, b, a)
        for j in extremal.bit_indices((full ^ b) >> j0 << j0):
            a2 = a & g.nonn[j]
            b2 = g.nonn_of(a2)
            low = (1 << j) - 1
            if b2 & low == b & low:
                stack.append((a2, b2, j + 1))
    return sorted(pairs.values(), key=lambda c: (-c.product, c.y, c.z)), closed


def _reference_half_lattice(g):
    """Plain Close-by-One under the three half-lattice rules: a kept child is
    pushed only when (|B'|, B') <= (|A'|, A'), child j is not closed when
    |A & nonn[j]| <= |B|, and a node with |B| >= |A| - 1 has no candidates.
    Every visited node is kept as a pair, with no dedupe.  Returns
    (certificates, visited nodes (A, B) in pop order)."""
    full = (1 << g.n) - 1
    certs = []
    visited = []
    stack = [(full, _reference_nonn(g, full), 0)]
    while stack:
        a, b, j0 = stack.pop()
        visited.append((a, b))
        certs.append(_reference_certificate(g, b, a))
        if b.bit_count() >= a.bit_count() - 1:
            continue
        for j in range(j0, g.n):
            if b >> j & 1:
                continue
            a2 = a & g.nonn[j]
            if a2.bit_count() <= b.bit_count():
                continue
            b2 = _reference_nonn(g, a2)
            low = (1 << j) - 1
            if b2 & low == b & low and (b2.bit_count(), b2) <= (a2.bit_count(), a2):
                stack.append((a2, b2, j + 1))
    return sorted(certs, key=lambda c: (-c.product, c.y, c.z)), visited


def _closed_sets(certs):
    return {sum(1 << i for i in side) for c in certs for side in (c.y, c.z)}


@pytest.mark.parametrize("family,d,q", _RANK2)
def test_fcbo_matches_plain_close_by_one(graph, family, d, q):
    g = graph(family, d, q)
    certs = enumerate_maximal_cross_pairs(g)
    reference, closed = _reference_close_by_one(g)
    assert certs == reference
    assert _closed_sets(certs) == set(closed)
    half, visited = _reference_half_lattice(g)
    assert half == certs
    assert {b for _, b in visited} <= set(closed)
    for seed in [(0,), (0, g.n - 1), tuple(range(0, g.n, 7))]:
        assert cross_closure(seed, g) == _reference_cross_closure(seed, g)


# The acceptance grid's spaces of rank 2 and Q+(5,2), and H(3,9), with their
# maximal pair counts.  The grid's other rank-3 spaces are left out: W(5,2) and
# Q(6,2) take about 6 s each (CI checks W(5,2)'s --json digest), and Q+(7,2)
# and H(5,4) are out of reach.
_SEARCHED = [
    ("Qplus", 2, 2, 17),
    ("Qparabolic", 2, 2, 41),
    ("Qparabolic", 2, 3, 126),
    ("Qminus", 2, 2, 193),
    ("W", 2, 2, 41),
    ("W", 2, 3, 621),
    ("Hodd", 2, 4, 649),
    ("Heven", 2, 4, 101_839),
    ("Qplus", 3, 2, 2278),
    ("Hodd", 2, 9, 16_269),
]


@pytest.mark.parametrize("family,d,q,pairs", _SEARCHED)
def test_every_visited_closed_set_is_a_new_pair(graph, monkeypatch, family, d, q, pairs):
    # Each visited node builds exactly one certificate, no two are equal, and
    # the search passes at the least limit with 2^limit >= pairs.  Listing a
    # tied pair from both sides would visit 165 199 closed sets at H(4,4),
    # past 2^17, and 27 609 at H(3,9), past 2^14.
    g = graph(family, d, q)
    calls = []
    certificate = extremal._certificate
    monkeypatch.setattr(extremal, "_certificate", lambda *args: calls.append(1) or certificate(*args))
    certs = enumerate_maximal_cross_pairs(g, limit=(pairs - 1).bit_length())
    assert len(calls) == len(certs) == len(set(certs)) == len(_pair_set(certs)) == pairs


def _counting_nonn_of(monkeypatch):
    calls = []
    original = CrossGraph.nonn_of

    def counting(self, mask):
        calls.append(1)
        return original(self, mask)

    monkeypatch.setattr(CrossGraph, "nonn_of", counting)
    return calls


@pytest.mark.parametrize("family,d,q", [("W", 2, 3), ("Hodd", 2, 4)])
def test_fcbo_computes_fewer_closures_than_close_by_one(graph, monkeypatch, family, d, q):
    g = graph(family, d, q)
    calls = _counting_nonn_of(monkeypatch)
    certs = enumerate_maximal_cross_pairs(g)
    fcbo = len(calls)
    calls.clear()
    _, closed = _reference_close_by_one(g)
    assert fcbo < len(calls)
    # Child closures alone, without the root's reduction and the reference
    # certificates' two; FCbO's certificates check their fixed point with
    # _and_rows, not nonn_of.
    assert fcbo - 1 < len(calls) - 1 - 2 * len(certs)
    assert len(closed) == len(set(closed)) == sum(1 if c.y == c.z else 2 for c in certs)
    assert _closed_sets(certs) == set(closed)


def test_cross_closure_makes_three_reductions(graph, monkeypatch):
    g = graph("Hodd", 2, 4)
    calls = _counting_nonn_of(monkeypatch)
    checked = []
    and_rows = extremal._and_rows
    monkeypatch.setattr(
        extremal, "_and_rows", lambda *args: checked.append(sys._getframe(1).f_code.co_name) or and_rows(*args)
    )
    for seed in [(0,), (0, 1), (3, 7, 11)]:
        calls.clear()
        checked.clear()
        cross_closure(seed, g)
        # nonN(seed) = Y and nonN(Y) = Z, then the plain check nonN(Z) = Y
        assert len(calls) == 2 and checked.count("_certificate") == 1


def _recording_bit_indices(monkeypatch):
    """Record the caller's name and the argument's popcount of every bit_indices
    call extremal makes."""
    calls = []
    original = extremal.bit_indices

    def recording(mask):
        calls.append((sys._getframe(1).f_code.co_name, mask.bit_count(), mask))
        return original(mask)

    monkeypatch.setattr(extremal, "bit_indices", recording)
    return calls


def test_cross_closure_unpacks_only_the_smaller_side(graph, monkeypatch):
    g = graph("Qminus", 3, 2)
    calls = _recording_bit_indices(monkeypatch)
    rng = random.Random(20261019)
    larger = 0
    for _ in range(100):
        for size in (1, 2, 3):
            calls.clear()
            cert = cross_closure(tuple(rng.sample(range(g.n), size)), g)
            ny, nz = cert.sizes
            # classify_pair unpacks Z, and Y only when |Y| = |Z|.
            assert {caller for caller, _, _ in calls} <= {"classify_pair", "_pairwise_disjoint"}
            assert all(k <= nz for _, k, _ in calls)
            larger += ny > nz
            calls.clear()
            assert cert.y == tuple(i for i in range(g.n) if cert.ymask >> i & 1)
            assert [(caller, k) for caller, k, _ in calls] == [("y", ny)]
    assert larger > 0


@pytest.mark.parametrize("family,d,q", [("W", 2, 3), ("Qminus", 2, 2)])
def test_fcbo_children_carry_no_id_tuples(graph, monkeypatch, family, d, q):
    g = graph(family, d, q)
    _, visited = _reference_half_lattice(g)
    calls = _recording_bit_indices(monkeypatch)
    certs = enumerate_maximal_cross_pairs(g)
    by_caller = Counter(caller for caller, _, _ in calls)
    # One candidate scan per visited node with |B| < |A| - 1, none per child
    # closure; the sort key reads every certificate's y and z once.
    scanned = sum(b.bit_count() < a.bit_count() - 1 for a, b in visited)
    assert 0 < scanned < len(visited)
    assert by_caller.pop("enumerate_maximal_cross_pairs") == scanned
    assert by_caller.pop("y") == by_caller.pop("z") == len(certs)
    assert set(by_caller) <= {"classify_pair", "_pairwise_disjoint"}
    smaller = {c.zmask for c in certs} | {c.ymask for c in certs if c.sizes[0] == c.sizes[1]}
    assert all(mask in smaller for caller, _, mask in calls if caller in by_caller)


class _ReadRows(tuple):
    """A row tuple that records the index of every row read."""

    def __getitem__(self, i):
        self.read.append(i)
        return tuple.__getitem__(self, i)


def _sampled_nonn_case(seed, gapped):
    """A random symmetric graph on 16 to 96 vertices and a random vertex set; checks
    nonn_of(mask) against the plain reduction and names the branch it
    took, and whether the sampled rows repeat.  A gapped set lies in a low and a
    high block with an empty middle, so the offsets that fall into the gap all
    pick the first member past it."""
    rng = random.Random(seed)
    n = rng.randint(16, 96)
    density = rng.random()
    meet = [[False] * n for _ in range(n)]
    for x in range(n):
        for y in range(x, n):
            meet[x][y] = meet[y][x] = x == y or rng.random() < density
    rows = _ReadRows(sum(1 << y for y in range(n) if meet[x][y]) for x in range(n))
    rows.read = []
    g = CrossGraph(rel=None, nonn=rows)
    if gapped:
        lo, hi = sorted(rng.sample(range(n + 1), 2))
        pool = [*range(lo), *range(hi, n)]
        ids = rng.sample(pool, rng.randint(0, len(pool)))
    else:
        ids = rng.sample(range(n), rng.randint(0, n))
    mask = sum(1 << i for i in ids)
    got = g.nonn_of(mask)
    read = list(rows.read)
    assert got == _reference_nonn(g, mask) == extremal._and_rows(rows, mask, g.full)
    k = len(ids)
    if k < extremal._SAMPLE_MIN:
        return "plain", False
    s = isqrt(k)
    assert set(read[:s]) <= set(ids)  # every sampled row is a member's
    # The filter reads the sampled rows and one row per candidate, fewer than k;
    # the fallback reads the sampled rows and then all k rows.
    return "fallback" if len(read) > k else "filter", len(set(read[:s])) < s


@settings(max_examples=150, deadline=None, database=None)
@given(st.integers(0, 2**32), st.booleans())
def test_sampled_nonn_of_matches_the_plain_reduction(seed, gapped):
    branch, repeated = _sampled_nonn_case(seed, gapped)
    event(branch)
    event(f"repeated rows: {repeated}")


def test_sampled_nonn_of_runs_the_filter_and_the_fallback():
    cases = [_sampled_nonn_case(seed, gapped) for seed in range(100) for gapped in (False, True)]
    assert {branch for branch, _ in cases} == {"plain", "filter", "fallback"}
    assert {branch for branch, repeated in cases if repeated} == {"filter", "fallback"}


def test_nonn_of_the_empty_set_is_everything(graph):
    g = graph("Qminus", 3, 2)
    assert g.nonn_of(0) == g.full == (1 << 765) - 1


def test_cross_closure_matches_the_plain_reference_on_seed_drawn_sets(graph):
    g = graph("Qminus", 3, 2)
    rng = random.Random(20261019)
    sizes = Counter()
    for _ in range(100):
        for size in (1, 2, 3):
            z = tuple(rng.sample(range(g.n), size))
            cert = cross_closure(z, g)
            assert cert == _reference_cross_closure(z, g)
            sizes[len(cert.y) >= extremal._SAMPLE_MIN] += 1
    assert sizes[True] > 0  # the sampled path ran


def test_sampled_closure_still_rejects_an_asymmetric_nonn(graph):
    g = graph("W", 3, 2)
    seed = next(j for j in range(1, g.n) if g.nonn[0] >> j & 1)
    bad = CrossGraph(rel=g.rel, nonn=(1,) + g.nonn[1:])  # 0 meets only itself; its neighbours still meet 0
    assert bad.nonn[seed].bit_count() >= extremal._SAMPLE_MIN  # Y = nonN(seed) takes the sampled path
    with pytest.raises(SchemeError, match="fixed point"):
        cross_closure((seed,), bad)


def test_close_by_one_rejects_a_doctored_nonn(graph):
    g = graph("Hodd", 2, 4)
    nonn = (1,) + g.nonn[1:]  # vertex 0 meets only itself, but its neighbours still meet 0
    bad = CrossGraph(rel=g.rel, nonn=nonn)
    with pytest.raises(SchemeError, match="fixed point"):
        enumerate_maximal_cross_pairs(bad)


def _reference_pairwise_disjoint(g, ids):
    """The pair scan classify_pair used: no two members of ids meet."""
    return not any(g.nonn[a] >> b & 1 for i, a in enumerate(ids) for b in ids[i + 1 :])


def _random_side(g, rng, size):
    """size vertices, drawn at random or, half the time, greedily pairwise disjoint."""
    if rng.random() < 0.5:
        return tuple(sorted(rng.sample(range(g.n), size)))
    side = []
    for x in rng.sample(range(g.n), g.n):
        if len(side) < size and all(not g.nonn[x] >> y & 1 for y in side):
            side.append(x)
    return tuple(sorted(side))


@pytest.mark.parametrize("family,d,q", [("W", 2, 2), ("Hodd", 2, 4)])
def test_classify_pair_disjointness_matches_the_pair_scan(graph, family, d, q):
    g = graph(family, d, q)
    named = "hyperbolic-subgeometry" if family == "W" else "regulus-triple"
    rng = random.Random(17)
    labels = Counter()
    for _ in range(400):
        size = rng.randint(3, 5)
        y, z = _random_side(g, rng, size), _random_side(g, rng, size)
        if len(y) != len(z) or y == z:
            continue
        disjoint = _reference_pairwise_disjoint(g, y) and _reference_pairwise_disjoint(g, z)
        label = extremal.classify_pair(_mask(y), _mask(z), g)
        assert label == (named if disjoint else "other")
        labels[label] += 1
    assert labels[named] and labels["other"]


def test_latins_greeks_bipartition_is_computed_once_per_graph(catalog, monkeypatch):
    calls = []
    original = CrossGraph.__dict__["latins_greeks"].func

    def counting(g):
        calls.append(g)
        return original(g)

    counted = cached_property(counting)
    counted.__set_name__(CrossGraph, "latins_greeks")
    monkeypatch.setattr(CrossGraph, "latins_greeks", counted)
    # Label counts of the uncached classification, which computed it per certificate.
    expected = {
        ("Qplus", 2, 5): {"latins-greeks": 1, "point-pencil-EKR": 36, "single-line-star": 12, "whole-vs-empty": 1},
        ("Qplus", 3, 2): {
            "other": 2092,
            "point-pencil-EKR": 35,
            "single-line-star": 30,
            "two-line-transversal": 120,
            "whole-vs-empty": 1,
        },
    }
    for k, (space, labels) in enumerate(expected.items(), start=1):
        g = cross_graph(catalog(*space))
        certs = enumerate_maximal_cross_pairs(g)
        assert len(calls) == k and calls[-1] is g
        assert Counter(c.label for c in certs) == labels


def test_q42_and_w32_maximum_pairs(graph):
    for family in ("Qparabolic", "W"):
        g = graph(family, 2, 2)
        certs = enumerate_maximal_cross_pairs(g)
        best = max(c.product for c in certs)
        assert best == 9
        top = Counter(c.label for c in certs if c.product == best)
        assert top == {"point-pencil-EKR": 15, "hyperbolic-subgeometry": 10}
        # equality forces |Y| = |Z| = alpha*n = the bound value
        assert all(c.sizes == (3, 3) for c in certs if c.product == best)


def test_w33_maximum_pairs_are_ekr(graph):
    g = graph("W", 2, 3)
    certs = enumerate_maximal_cross_pairs(g)
    best = max(c.product for c in certs)
    assert best == 16
    assert all(c.y == c.z for c in certs if c.product == best)


def test_bipartition_q72(graph, catalog):
    cat = catalog("Qplus", 4, 2)
    x1, x2 = bipartition_latins_greeks(cat)
    assert len(x1) == len(x2) == 135
    assert set(x1) | set(x2) == set(range(270))
    g = graph("Qplus", 4, 2)
    # d even: no disjoint pairs across the classes, some inside each class
    x2mask = sum(1 << b for b in x2)
    assert all(g.nonn[a] & x2mask == x2mask for a in x1)
    assert any(not g.nonn[a] >> b & 1 for a in x1 for b in x1 if b > a)


def test_bipartition_needs_qplus(catalog):
    with pytest.raises(ValueError):
        bipartition_latins_greeks(catalog("W", 2, 2))


def _dim_of_count(cat):
    """{[j]_q: j}: the dimension of an intersection by its number of points."""
    return {nbracket(j, cat.space.q): j for j in range(cat.space.d + 1)}


def _reference_bipartition(cat):
    """Codimension-parity classes by one popcount per pair of generators."""
    n, d, pm, dim_of = cat.n, cat.space.d, cat.point_masks, _dim_of_count(cat)

    def codim(x, y):
        return d - dim_of[(pm[x] & pm[y]).bit_count()]

    cls = [codim(0, x) % 2 for x in range(n)]
    for x in range(n):
        for y in range(x + 1, n):
            if (codim(x, y) % 2 == 0) != (cls[x] == cls[y]):
                raise ValueError("codimension parity is not a bipartition; geometry bug")
    x1 = tuple(i for i in range(n) if cls[i] == 0)
    x2 = tuple(i for i in range(n) if cls[i] == 1)
    if len(x1) != len(x2):
        raise ValueError("parity classes have unequal sizes")
    return x1, x2


@pytest.mark.parametrize("d", [2, 3, 4])
def test_bipartition_matches_pairwise_reference(catalog, d):
    cat = catalog("Qplus", d, 2)
    assert bipartition_latins_greeks(cat) == _reference_bipartition(cat)


@pytest.mark.parametrize(
    "swap, message",
    [
        (lambda pm, x1, x2: pm[x2[0]], "relation 0 is not regular"),  # a latin takes a greek's points
        (lambda pm, x1, x2: pm[x1[1]] ^ pm[x1[1]] & pm[x2[0]], r"no \[j\]_q"),  # drops a point
        (lambda pm, x1, x2: 0, "relation 0 is not regular"),  # disjoint from every generator
    ],
    ids=["other-class", "dropped-point", "empty"],
)
@pytest.mark.parametrize("d", [2, 3])
def test_bipartition_rejects_a_swapped_point_mask(catalog, d, swap, message):
    cat = catalog("Qplus", d, 2)
    x1, x2 = bipartition_latins_greeks(cat)
    pm = list(cat.point_masks)
    pm[x1[1]] = swap(pm, x1, x2)
    bad = dataclasses.replace(cat, point_masks=tuple(pm))
    with pytest.raises(ValueError, match=message):
        bipartition_latins_greeks(bad)
    with pytest.raises((ValueError, KeyError)):
        _reference_bipartition(bad)


def _doctored_relations(monkeypatch, rows):
    """Make cross_graph read the codimension matrix ``rows`` of a stand-in Q+ catalog of rank max(rows)."""
    C = np.array(rows, dtype=np.int8)
    cat = SimpleNamespace(space=SimpleNamespace(family="Qplus", d=int(C.max())), n=len(C))
    monkeypatch.setattr(extremal, "build_relations", lambda _: RelationData(cat=cat, codim=C, valencies=()))
    return cat


def test_cross_graph_rejects_an_asymmetric_codimension_matrix(monkeypatch):
    # The 3-vertex path with one entry changed: C[2, 0] = 1 but C[0, 2] = 2.
    cat = _doctored_relations(monkeypatch, [[0, 1, 2], [1, 0, 1], [1, 1, 0]])
    with pytest.raises(SchemeError, match="not symmetric"):
        cross_graph(cat)


def test_bipartition_rejects_a_regular_c_of_broken_parity(monkeypatch):
    # The distance classes of a 5-cycle: regular, but an odd cycle has no bipartition.
    cat = _doctored_relations(monkeypatch, [[min(abs(x - y), 5 - abs(x - y)) for y in range(5)] for x in range(5)])
    with pytest.raises(SchemeError, match="not a bipartition"):
        bipartition_latins_greeks(cat)


def test_bipartition_rejects_classes_of_unequal_size(monkeypatch):
    # The distance classes of a 3-vertex path: consistent parity, classes {0, 2} and {1}.
    cat = _doctored_relations(monkeypatch, [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    with pytest.raises(SchemeError, match="unequal sizes"):
        bipartition_latins_greeks(cat)


def _doctored_grid_pair(monkeypatch, ymask, zmask):
    """check_prop10 and check_lemma11 read the pair (Y, Z) given as bit sets instead of the grid pair."""
    rel = checks._graph("Qparabolic", 2, 2).rel
    monkeypatch.setattr(checks, "_grid_pair", lambda q: (rel, CrossPairCertificate(ymask, zmask, "other")))


def test_prop10_on_grid_pair():
    rep = check_prop10(2)
    assert rep["status"] == "pass", rep["details"]


def test_prop10_fails_sides_that_share_a_generator(monkeypatch):
    _doctored_grid_pair(monkeypatch, 0b11, 0b110)
    rep = check_prop10(2)
    assert rep["status"] == "fail"
    assert rep["details"] == ["pair Y=(0, 1) Z=(1, 2)", "Y and Z are not disjoint as sets"]


def test_zgh_on_grid_pair():
    rep = check_lemma11(2)
    assert rep["status"] == "pass", rep["details"]


def test_zgh_requires_disjoint_generators(monkeypatch):
    # Y[0] and Y[1] of a hyperbolic-subgeometry pair are disjoint by its label;
    # a pair whose first two generators meet is an internal fault, exit 1.
    rel = checks._graph("Qparabolic", 2, 2).rel
    h = next(j for j in range(1, rel.n) if rel.codim[0, j] < rel.d)
    _doctored_grid_pair(monkeypatch, 1 | 1 << h, 0)
    with pytest.raises(SchemeError, match="meet"):
        check_lemma11(2)
    assert main(["verify", "lemma11"]) == 1


def test_hyperplane_sections(relations):
    rep = check_lemma12(2)
    assert rep["status"] == "pass", rep["details"]
    for d in (2, 3):
        pm = relations("Qparabolic", d, 2).cat.point_masks
        hidx = next(j for j in range(len(pm)) if pm[0] & pm[j] == 0)
        assert f"Q({2 * d},2) with G=0, H={hidx}:" in rep["details"]


def test_w3_triples_odd_and_even():
    for q, want in ((3, {0: 1080, 2: 2160}), (2, {1: 60, 3: 20})):  # q even: outside the statement, report only
        rep = check_thm16(q)
        assert rep["status"] == "pass", rep["details"]
        (counts,) = (line for line in rep["details"] if line.startswith("transversal counts: "))
        assert counts == f"transversal counts: {want}"


def test_thm20_at_q3():
    rep = check_thm20(3)
    assert rep["status"] == "pass", rep["details"]
    assert rep["details"][0] == "maximal pairs: 16269"
    assert rep["exact"] == {"num": "31", "den": "1"}  # q^3 + q + 1


def test_maximality_lemma_on_h34_certificates(graph, relations):
    g = graph("Hodd", 2, 4)
    certs = enumerate_maximal_cross_pairs(g)
    star = next(c for c in certs if c.label == "single-line-star")
    pencil = next(c for c in certs if c.label == "point-pencil-EKR")
    rel = relations("Hodd", 2, 4)
    assert checks._maximality_lemma(rel, star)[1]
    assert checks._maximality_lemma(rel, pencil)[1]


def _reference_maximality_lemma(cat, pair):
    """(tested, ok) by the scalar route: Zassenhaus intersection of y1 and y2,
    then the catalog points of its span."""
    d = cat.space.d
    pm = cat.point_masks
    dim_of = _dim_of_count(cat)
    index = {v: i for i, v in enumerate(cat.points)}
    tested = 0
    ok = True
    for i, y1 in enumerate(pair.y):
        for y2 in pair.y[i + 1 :]:
            if dim_of[(pm[y1] & pm[y2]).bit_count()] != d - 1:
                continue
            tested += 1
            meet = intersect_bases(cat.space.field, cat.generators[y1].basis, cat.generators[y2].basis)
            smask = 0
            for v in subspace_points(cat.space, meet):
                if v in index:
                    smask |= 1 << index[v]
            for z in pair.z:
                if pm[z] & smask == 0:
                    ok = False
    return tested, ok


@pytest.mark.parametrize("family,d,q", [("Hodd", 2, 4), ("W", 2, 3), ("Qparabolic", 2, 2)])
def test_maximality_lemma_matches_intersection_reference(family, d, q, graph, relations):
    g = graph(family, d, q)
    rel = relations(family, d, q)
    for cert in enumerate_maximal_cross_pairs(g):
        assert checks._maximality_lemma(rel, cert) == _reference_maximality_lemma(g.rel.cat, cert)


def test_maximality_lemma_reports_a_z_missing_a_meet(catalog, relations):
    # y1, y2 meet in a point p; z meets y1 elsewhere, so it misses y1 ∩ y2 but not y1.
    cat = catalog("Hodd", 2, 4)
    pm = cat.point_masks
    y2 = next(x for x in range(1, cat.n) if pm[0] & pm[x])
    z = next(x for x in range(cat.n) if pm[x] & pm[0] and not pm[x] & pm[0] & pm[y2])
    doctored = CrossPairCertificate(ymask=1 | 1 << y2, zmask=1 << z, label="other")
    assert (doctored.y, doctored.z, doctored.product) == ((0, y2), (z,), 2)
    for route, data in ((checks._maximality_lemma, relations("Hodd", 2, 4)), (_reference_maximality_lemma, cat)):
        assert route(data, doctored) == (1, False)


@pytest.mark.parametrize(
    "family,d,q,ks",
    [
        ("Hodd", 4, 4, (2, 3, 4)),
        ("Hodd", 2, 4, (0, 1, 2)),
        ("Heven", 2, 4, (0, 1, 2)),
        ("Hodd", 3, 4, (0, 1, 2, 3)),
        ("Hodd", 2, 9, (0, 1, 2)),
    ],
)
def test_generators_through_subspaces_match_generators_through(family, d, q, ks):
    # Each S gets exactly the generators through S that meet G in S alone.
    ps = polar_space_make(family, d, q)
    G = tuple(tuple(int(t == i) for t in range(ps.nv)) for i in range(d))
    stack, starts = extremal._generators_through_subspaces(ps, ks)
    assert stack.dtype == np.int32 and stack.shape == (starts[-1], d, ps.nv) and len(starts) == len(ks) + 1
    for k, at, end in zip(ks, starts, starts[1:]):
        subs = enumerate_subspaces_within(ps, G, k)
        images = stack[at:end].reshape(len(subs), -1, d, ps.nv)
        for sub, group in zip(subs, images):
            through = [g.basis for g in generators_through(Subspace(sub), ps)]
            assert sorted(_bases(group)) == [x for x in through if len(intersect_bases(ps.field, x, G)) == k]
    if ks == tuple(range(d + 1)):  # every generator meets G in some dimension
        assert sorted(_bases(stack)) == sorted(g.basis for g in enumerate_generators(ps).generators)


def test_generators_through_subspaces_rejects_other_models():
    with pytest.raises(ValueError, match="antidiagonal"):
        extremal._generators_through_subspaces(polar_space_make("W", 2, 4), (1,))
    fld = field_of_order(4)
    gram = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    paired = _space_from_forms("Hodd", 2, fld, gram, None)
    with pytest.raises(ValueError, match="antidiagonal"):
        extremal._generators_through_subspaces(paired, (1,))


@pytest.mark.parametrize(
    "doctored",
    [
        lambda fld, inv: inv.transpose(0, 2, 1)[:, ::-1, ::-1],  # no sigma
        lambda fld, inv: fld.conj_table[inv].transpose(0, 2, 1),  # no J
    ],
)
def test_generators_through_subspaces_certifies_the_isometry(doctored, monkeypatch):
    monkeypatch.setattr(extremal, "_dual_blocks", doctored)
    with pytest.raises(SchemeError, match="not an isometry"):
        extremal._generators_through_subspaces(polar_space_make("Hodd", 2, 4), (1,))


def test_generators_through_subspaces_rejects_a_repeated_image(monkeypatch):
    # The first rref_batch ranks the generators through S0 off G; then the
    # second of each block reduces the images: repeat its first.
    calls = []

    def repeating(fld, M):
        R, rank = rref_batch(fld, M)
        calls.append(len(M))
        if len(calls) > 1 and len(calls) % 2 == 1:
            R[1] = R[0]
        return R, rank

    monkeypatch.setattr(extremal, "rref_batch", repeating)
    with pytest.raises(SchemeError, match="map to one"):
        extremal._generators_through_subspaces(polar_space_make("Hodd", 2, 4), (1,))
    assert len(calls) == 3


def _reference_h7_sizes(q):
    """|Y| and |Z| by Moebius inversion over the subspace lattice of G: with
    c[k] generators through each k-subspace and Q = q^2, exactly
    [4 choose j]_Q sum_m (-1)^m Q^binom(m, 2) [4-j choose m]_Q c[j+m]
    generators meet G in exactly dimension j."""
    qq = q * q
    c = {k: num_generators("Hodd", 4 - k, qq) for k in (2, 3, 4)}
    exact = {
        j: gaussian(4, j, qq)
        * sum((-1) ** m * qq ** binom2(m) * gaussian(4 - j, m, qq) * c[j + m] for m in range(5 - j))
        for j in (2, 3, 4)
    }
    return exact[2] + exact[3] + exact[4], exact[3] + exact[4]


def test_example_h7_sizes_match_closed_polynomials():
    size_y, size_z = example_h7_sizes(example_h7_data(2))
    q = 2
    assert size_y == 1 + q + q**3 + q**4 + q**5 + q**6 + q**7 + 2 * q**8 + q**10 + q**12 == 5883
    assert size_z == 1 + q + q**3 + q**5 + q**7 == 171
    assert (size_y, size_z) == _reference_h7_sizes(2)


def _reference_h7_stacks(q):
    """The union, without repeats, of the generators through each 2-subspace,
    respectively 3-subspace, of G: Y and Z as sets of canonical bases."""
    ps = polar_space_make("Hodd", 4, q * q)
    G = tuple(tuple(int(t == i) for t in range(ps.nv)) for i in range(4))
    Y, Z = (
        np.unique(
            np.array([g.basis for S in enumerate_subspaces_within(ps, G, k) for g in generators_through(Subspace(S), ps)]),
            axis=0,
        )
        for k in (2, 3)
    )
    return set(_bases(Y)), set(_bases(Z))


def test_example_h7_stacks_match_the_union_of_all_generators_through():
    ps, Y, Z = example_h7_data(2)
    assert (set(_bases(Y)), set(_bases(Z))) == _reference_h7_stacks(2)
    # Z is the tail of Y, not a copy; G itself is the last row.
    assert Z.base is not None and np.shares_memory(Y, Z)
    assert Z.__array_interface__["data"][0] == Y[len(Y) - len(Z) :].__array_interface__["data"][0]
    assert (Y[-1] == np.eye(4, 8, dtype=np.int32)).all()


def test_reduced_rank_matches_the_full_rank():
    ps, Y, _ = example_h7_data(2)
    rng = random.Random(20261019)
    i, j = (rng.choices(range(len(Y)), k=3000) for _ in range(2))
    y, z = Y[i], Y[j]
    full = rref_batch(ps.field, np.concatenate([y, z], axis=1))[1]
    reduced = checks._reduced_ranks(ps.field, y, z)
    assert (full == ps.d + reduced).all()
    assert Counter((reduced == ps.d).tolist())[True] >= 300  # many disjoint pairs


def test_example21_leaves_numpy_random_unimported():
    code = (
        "import sys; from polarb.checks import check_example21; "
        "assert check_example21(2, samples=5)['status'] == 'pass'; print('numpy.random' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True).stdout
    assert out == "False\n"


def test_example_h7_stacks_hold_distinct_canonical_bases():
    ps, Y, Z = example_h7_data(2)
    for stack in (Y, Z):
        assert stack.dtype == np.int32 and stack.shape[1:] == (ps.d, ps.nv)
        assert len(np.unique(stack.reshape(len(stack), -1), axis=0)) == len(stack)
        R, rank = rref_batch(ps.field, stack)
        assert (rank == ps.d).all() and (R == stack).all()


def test_example_h7_cross_property_sample():
    assert example_h7_cross_sample(example_h7_data(2), samples=2000) == 0


def test_example_h7_cross_sample_counts_disjoint_pairs():
    # Y = {G} and Z = {the opposite generator <e_4..e_7>}: every pair is disjoint.
    ps = polar_space_make("Hodd", 4, 4)
    unit = np.eye(ps.nv, dtype=np.int32)
    assert example_h7_cross_sample((ps, unit[None, :4], unit[None, 4:]), samples=300) == 300
    with pytest.raises(ValueError, match="negative"):
        example_h7_cross_sample((ps, unit[None, :4], unit[None, 4:]), samples=-1)


def _blocked_kernel_results():
    """What every row-blocked kernel returns on small spaces, computed afresh
    (the per-space memo would hand back results of the other budget)."""
    out = []
    for family, d, q in (("W", 2, 3), ("Qplus", 3, 2), ("Hodd", 2, 4)):
        ps = polar_space_make(family, d, q)
        pts = enumerate_points(ps)
        cat = enumerate_generators(ps)
        g = cross_graph(cat)
        eig = eigen_data(family, d, q)
        pencil = [cat.point_masks[i] & 1 for i in range(cat.n)]
        out.append((
            pts, _orth_masks(ps, pts), cat.rows.tolist(), g.rel.codim.tolist(), g.rel.valencies, g.nonn,
            verify_spectrum(g.rel, eig), eigenspace_support(pencil, g.rel, eig),
            eigenspace_support([i % 3 - 1 for i in range(cat.n)], g.rel, eig),
        ))
        if family == "Qplus":
            out.append(g.latins_greeks)
    M = np.random.default_rng(3).integers(0, 9, size=(40, 3, 5), dtype=np.int32)
    out.append([a.tolist() for a in rref_batch(field_of_order(9), M)])
    out.append(example_h7_sizes(example_h7_data(2)))
    return out


def test_every_blocked_kernel_gives_the_same_results_on_one_row_blocks(monkeypatch):
    want = _blocked_kernel_results()
    monkeypatch.setattr(geom, "BLOCK_BYTES", 1)  # one row per block, eight for the orthogonality masks
    assert [s.stop - s.start for s in geom.row_blocks(20, 1 << 20, least=8)] == [8, 8, 4]
    assert _blocked_kernel_results() == want
