"""Acceptance suite: one test per criterion, exact equalities throughout.

Each test prints a single [PASS]/[FAIL] line (visible under pytest -s); the
assertions carry the same conditions.  Stated runtime ceilings are asserted
with time.perf_counter around the relevant computation.
"""

import ast
import json
import os
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import polarb
from polarb.checks import (
    ACCEPTANCE_INSTANCES,
    check_example21,
    check_lemma11,
    check_prop10,
    check_q_col_signs,
    check_thm5_support,
    check_thm16,
)
from polarb.extremal import enumerate_maximal_cross_pairs
from polarb.geom import enumerate_generators, polar_space_make
from polarb.qcount import eigen_data, lemma_bound_gens_check, num_generators
from polarb.scheme import verify_spectrum
from polarb.specbound import classical_bound


def _verdict(num: int, ok: bool, text: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}")
    assert ok, f"criterion {num}: {text}"


def _detail(report, prefix: str) -> str:
    """The rest of the report's one detail line that starts with prefix."""
    (rest,) = (line[len(prefix) :] for line in report["details"] if line.startswith(prefix))
    return rest


def test_criterion_1_generator_counts():
    # Enumeration time is this criterion's subject, so it enumerates afresh
    # instead of reading the memo the other criteria share.
    t0 = time.perf_counter()
    cats = {key: enumerate_generators(polar_space_make(*key)) for key in ACCEPTANCE_INSTANCES}
    elapsed = time.perf_counter() - t0
    ok = all(cat.n == num_generators(*key) for key, cat in cats.items())
    ok &= elapsed < 120
    _verdict(1, ok, f"all {len(ACCEPTANCE_INSTANCES)} catalogs match the product formula "
                    f"({elapsed:.1f}s < 120s)")


def test_criterion_2_spectrum_oracle(relations):
    ok = True
    for key in ACCEPTANCE_INSTANCES:
        rel = relations(*key)
        eig = eigen_data(*key)  # construction verifies PQ = QP = nI exactly
        n = eig.n
        for r in range(eig.d + 1):
            for c in range(eig.d + 1):
                pq = sum(Fraction(eig.P[r][t]) * eig.Q[t][c] for t in range(eig.d + 1))
                ok &= pq == (n if r == c else 0)
        ok &= verify_spectrum(rel, eig)
    _verdict(2, ok, "distance-regular certificate and exact P recurrence hold, PQ = nI, on every instance")


def test_criterion_3_per_family_bounds():
    report = check_thm5_support()
    ok = report["status"] == "pass"
    for key in ACCEPTANCE_INSTANCES:
        family, d, q = key
        rep = classical_bound(family, d, q)
        if family == "Qplus":
            ok &= rep.bound == Fraction(num_generators(family, d, q), 2)
        elif family != "Hodd":
            ok &= rep.bound == num_generators(family, d - 1, q)
    _verdict(3, ok, "ratio bounds equal n/2 resp. generators-on-a-point; supports as stated")


def test_criterion_4_rank2_classifications(graph):
    ok = True
    t0 = time.perf_counter()
    for family in ("Qparabolic", "W"):
        certs = enumerate_maximal_cross_pairs(graph(family, 2, 2))
        best = max(c.product for c in certs)
        top = Counter(c.label for c in certs if c.product == best)
        ok &= best == 9 and top == {"point-pencil-EKR": 15, "hyperbolic-subgeometry": 10}
    sweep1 = time.perf_counter() - t0
    t0 = time.perf_counter()
    certs33 = enumerate_maximal_cross_pairs(graph("W", 2, 3))
    best33 = max(c.product for c in certs33)
    ok &= best33 == 16 and all(c.y == c.z for c in certs33 if c.product == best33)
    sweep2 = time.perf_counter() - t0
    ok &= sweep1 < 60 and sweep2 < 60
    _verdict(4, ok, f"Q(4,2)/W(3,2) max 9 on pencils+reguli ({sweep1:.1f}s); "
                    f"W(3,3) maxima all EKR ({sweep2:.1f}s)")


def test_criterion_5_h34_classification(graph):
    t0 = time.perf_counter()
    certs = enumerate_maximal_cross_pairs(graph("Hodd", 2, 4))
    elapsed = time.perf_counter() - t0
    by_label = {}
    for c in certs:
        by_label.setdefault(c.label, set()).add(c.product)
    ok = by_label == {
        "whole-vs-empty": {0},
        "single-line-star": {11},
        "point-pencil-EKR": {9},
        "two-line-transversal": {10},
        "regulus-triple": {9},
    }
    best = max(c.product for c in certs)
    ok &= best == 11
    plain = classical_bound("Hodd", 2, 4).bound
    ok &= plain == Fraction(27, 5) and plain * plain > best  # 29.16 not attained
    ok &= elapsed < 120
    _verdict(5, ok, f"five families with products {{0,11,9,10,9}}, max 11; "
                    f"27/5 squared confirmed non-tight ({elapsed:.1f}s)")


def test_criterion_6_prop10_lemma11():
    ok = check_prop10(2)["status"] == "pass" and check_lemma11(2)["status"] == "pass"
    _verdict(6, ok, "all four parity count cases (prop10) and the z-slice reconstruction (lemma11) verify")


def test_criterion_7_w33_triples():
    t0 = time.perf_counter()
    rep = check_thm16(3)
    elapsed = time.perf_counter() - t0
    counts = ast.literal_eval(_detail(rep, "transversal counts: "))
    ok = rep["status"] == "pass" and set(counts) <= {0, 2} and elapsed < 60
    _verdict(7, ok, f"transversal counts of disjoint triples in {{0,2}} ({elapsed:.1f}s)")


def test_criterion_8_product_inequality():
    ok = all(lemma_bound_gens_check(q, d) for q in range(2, 10) for d in range(1, 13))
    _verdict(8, ok, "product inequality holds exactly for q in 2..9, d in 1..12")


def test_criterion_9_hermitian_machinery():
    report = check_q_col_signs(d=3, q=2)
    ok = report["status"] == "pass"
    _verdict(9, ok, "H(5,4) Q-column facts, weight signs, lambda_b and bound in (32,96)")


def test_criterion_10_example_h7():
    t0 = time.perf_counter()
    rep = check_example21(2, samples=10_000)
    elapsed = time.perf_counter() - t0
    size_y, size_z = (int(_detail(rep, f"|{side}| = ").split()[0]) for side in "YZ")
    bad = int(_detail(rep, "10000 random (y, z) samples, disjoint pairs: "))
    ok = size_y == 5883 and size_z == 171 and bad == 0 and elapsed < 600
    _verdict(10, ok, f"|Y| = {size_y}, |Z| = {size_z}; 10^4 samples all intersect "
                     f"({elapsed:.1f}s)")


def test_criterion_11_deterministic_verify(tmp_path):
    # The child runs in tmp_path (away from any .polarb-cache), where a relative
    # PYTHONPATH such as "src" resolves to nothing; put the root of the package
    # under test first on its path so it imports the same polarb as this process.
    env = dict(os.environ)
    root = str(Path(polarb.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    outs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "polarb.shell", "verify", "thm20", "--json"],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    ok = outs[0] == outs[1]
    payload = json.loads(outs[0])
    ok &= payload["status"] == "pass"
    _verdict(11, ok, "verify thm20 twice produces byte-identical JSON")
