"""The four benchmark workloads and the oracle that checks their outputs.

A workload is a set-up function ``setup(rng, oracle) -> list[Op]``.  Set-up
prepares the untimed inputs (pre-built caches and catalogs, seed-drawn
arguments) and returns the operations of the timed phase in the order they
run.  An operation is either one in-process ``polarb.shell.main(argv)`` call
with stdout captured, or a batch of calls into one public function on
seed-drawn inputs.

Every CLI operation is checked against a golden SHA-256 digest of its
``--json`` stdout (and, for ``enum``, of the ``.plb`` file it writes).
Seed-drawn batches have no digest; they are checked against exact invariants.
The checks call no polarb function, so tracing sees only the operations.

polarb is reached through module attributes (``shell.main``, not a
from-import) so that the traced run's wrappers are the ones called.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import polarb.extremal as extremal
import polarb.geom as geom
import polarb.qcount as qcount
import polarb.scheme as scheme
import polarb.shell as shell
import polarb.specbound as specbound

GOLDEN_PATH = Path(__file__).with_name("golden.json")


class SetupError(RuntimeError):
    """An untimed set-up step produced a wrong result."""


class Oracle:
    """Golden digests keyed by operation; in capture mode it records them."""

    def __init__(self, golden: dict[str, str], capture: bool = False):
        self.golden = golden
        self.capture = capture

    @classmethod
    def load(cls, capture: bool = False) -> "Oracle":
        golden = {} if capture else json.loads(GOLDEN_PATH.read_text())
        return cls(golden, capture)

    def check(self, key: str, data: bytes) -> list[str]:
        digest = hashlib.sha256(data).hexdigest()
        if self.capture:
            self.golden[key] = digest
            return []
        want = self.golden.get(key)
        if want is None:
            return [f"{key}: no golden digest"]
        if want != digest:
            return [f"{key}: digest {digest[:16]} differs from golden {want[:16]}"]
        return []


@dataclass
class Op:
    """One timed operation: ``run`` does the work, ``check`` lists what is wrong with its output."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]


def call_main(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = shell.main(argv)
        except SystemExit as exc:  # argparse reports usage errors this way
            code = exc.code
    return code, out.getvalue()


def cli_op(oracle: Oracle, argv: str, expect: int = 0, extra=None) -> Op:
    """``polarb <argv> --json``; ``extra(payload)`` adds invariant checks on the parsed output."""
    words = argv.split()
    key = "cli:" + argv

    def check(out) -> list[str]:
        code, text = out
        if code != expect:
            return [f"{key}: exit code {code}, expected {expect}"]
        problems = oracle.check(key, text.encode())
        if extra is not None:
            problems += extra(json.loads(text))
        return problems

    return Op(key, lambda: call_main(words + ["--json"]), check)


def run_setup_cli(oracle: Oracle, argv: str) -> None:
    op = cli_op(oracle, argv)
    problems = op.check(op.run())
    if problems:
        raise SetupError("; ".join(problems))


def plb_digest(oracle: Oracle):
    """Extra check for ``enum``: the cache file it wrote matches its golden digest."""

    def check(payload) -> list[str]:
        path = Path(payload["cache"])
        return oracle.check("plb:" + path.name, path.read_bytes())

    return check


def shuffled(rng, items: list) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


def bound_squared(family: str, d: int, q: int) -> Fraction:
    return Fraction(specbound.classical_bound(family, d, q).bound) ** 2


# ---------------------------------------------------------------------------
# catalog: cold enumeration with cache writes, then cache reads
# ---------------------------------------------------------------------------

# Odd characteristic (W(5,3), n = 1120; Q-(5,3)), characteristic 2 (Q+(7,2),
# Q-(7,2)) and Hermitian over GF(4) (H(4,4)); two files also carry relations.
CATALOG_WRITES = (
    "enum W 3 3",
    "enum Qplus 4 2",
    "enum Qminus 3 2 --relations",
    "enum Heven 2 4 --relations",
    "enum Qminus 2 3",
)
CATALOG_READS = ("scheme W 3 3", "scheme Qplus 4 2", "scheme Qminus 3 2", "scheme Heven 2 4", "scheme Qminus 2 3")


def setup_catalog(rng, oracle: Oracle) -> list[Op]:
    # Writes and reads are each independent of their own order; reads need the writes first.
    writes = [cli_op(oracle, a, extra=plb_digest(oracle)) for a in shuffled(rng, CATALOG_WRITES)]
    reads = [cli_op(oracle, a) for a in shuffled(rng, CATALOG_READS)]
    return writes + reads


# ---------------------------------------------------------------------------
# certify: exact scheme certification on cached catalogs
# ---------------------------------------------------------------------------

CERTIFY_SPACES = ("W 2 7", "Qplus 4 2", "Heven 2 4", "Qminus 2 3", "W 3 2", "Qparabolic 3 2")
SUPPORT_RANDOM_QPLUS = 4  # Q+(7,2), n = 270: about 35 ms per vector
SUPPORT_RANDOM_Q42 = 500  # Q(4,2), n = 15: about 0.4 ms per vector


def support_batch(name: str, rel, eig, vectors: list, expected: dict[int, frozenset]) -> Op:
    """eigenspace_support on each vector.  Vector i must have support ``expected[i]``
    when given; every vector must satisfy the invariants that hold for any v:
    the support lies in 0..d, is empty exactly when v = 0, and holds 0 exactly
    when sum(v) != 0 (E_0 = J/n)."""
    d = rel.d

    def run():
        return [scheme.eigenspace_support(v, rel, eig) for v in vectors]

    def check(supports) -> list[str]:
        problems = []
        for i, (v, sup) in enumerate(zip(vectors, supports)):
            if i in expected and sup != expected[i]:
                problems.append(f"{name}: vector {i} has support {sorted(sup)}, expected {sorted(expected[i])}")
            if not sup <= set(range(d + 1)) or bool(sup) != any(v) or (0 in sup) != (sum(v) != 0):
                problems.append(f"{name}: vector {i} has impossible support {sorted(sup)}")
        return problems

    return Op(name, run, check)


def setup_certify(rng, oracle: Oracle) -> list[Op]:
    for space in CERTIFY_SPACES:
        run_setup_cli(oracle, f"enum {space}")
    cat = shell.load_catalog("Qplus", 4, 2)
    rel = scheme.build_relations(cat)
    eig = qcount.eigen_data("Qplus", 4, 2)
    latins, _ = extremal.bipartition_latins_greeks(cat)
    chi = [0] * cat.n
    diff = [-1] * cat.n
    for i in latins:
        chi[i] = 1
        diff[i] = 1
    vectors = [chi, diff] + [[rng.choice((-1, 0, 1)) for _ in range(cat.n)] for _ in range(SUPPORT_RANDOM_QPLUS)]
    ops = [support_batch("batch:eigenspace_support Qplus 4 2", rel, eig, vectors, {0: frozenset({0, 4}), 1: frozenset({4})})]

    cat42 = geom.enumerate_generators(geom.polar_space_make("Qparabolic", 2, 2))
    rel42 = scheme.build_relations(cat42)
    eig42 = qcount.eigen_data("Qparabolic", 2, 2)
    vectors42 = [[rng.choice((-1, 0, 1)) for _ in range(cat42.n)] for _ in range(SUPPORT_RANDOM_Q42)]
    ops.append(support_batch("batch:eigenspace_support Qparabolic 2 2", rel42, eig42, vectors42, {}))

    ops += [cli_op(oracle, f"scheme {space} --check") for space in CERTIFY_SPACES]
    return shuffled(rng, ops)


# ---------------------------------------------------------------------------
# sweep: exhaustive maximal-pair search and closures
# ---------------------------------------------------------------------------

SWEEP_SPACES = (("Qplus", 2, 5), ("W", 2, 3), ("Qparabolic", 2, 3), ("Qminus", 2, 2), ("Hodd", 2, 4))
CLOSURE_SPACES = (("Qminus", 3, 2), ("W", 3, 2))
# Rounds per batch; a round closes one seed-drawn Z-set of each size 1, 2, 3.
CLOSURE_ROUNDS = {("Qminus", 3, 2): 2000, ("W", 3, 2): 6000}


def search_op(oracle: Oracle, family: str, d: int, q: int) -> Op:
    limit = bound_squared(family, d, q)

    def extra(payload) -> list[str]:
        best = payload["max_product"]
        problems = [f"{family} {d} {q}: product {best} above bound^2 {limit}"] if best > limit else []
        if (family, d, q) == ("Qplus", 2, 5) and not best == limit == 36:
            problems.append(f"Q+(3,5): max product {best}, expected 36 = bound^2 ({limit})")
        return problems

    return cli_op(oracle, f"search max-pairs {family} {d} {q}", extra=extra)


def closure_batch(name: str, g, zsets: list[tuple[int, ...]], limit: Fraction) -> Op:
    def run():
        return [extremal.cross_closure(z, g) for z in zsets]

    def check(certs) -> list[str]:
        bad = [c.product for c in certs if c.product > limit]
        return [f"{name}: {len(bad)} products above bound^2 {limit}, e.g. {bad[0]}"] if bad else []

    return Op(name, run, check)


def setup_sweep(rng, oracle: Oracle) -> list[Op]:
    ops = [search_op(oracle, *space) for space in SWEEP_SPACES]
    for family, d, q in CLOSURE_SPACES:
        run_setup_cli(oracle, f"enum {family} {d} {q}")
        g = extremal.cross_graph(shell.load_catalog(family, d, q))
        limit = bound_squared(family, d, q)
        for k in (1, 2):
            rounds = CLOSURE_ROUNDS[(family, d, q)]
            zsets = [tuple(rng.sample(range(g.n), size)) for _ in range(rounds) for size in (1, 2, 3)]
            ops.append(closure_batch(f"batch:cross_closure {family} {d} {q} #{k}", g, zsets, limit))
    return shuffled(rng, ops)


# ---------------------------------------------------------------------------
# verify: the named verifications and many small quotient enumerations
# ---------------------------------------------------------------------------

# Run in this order: the checks share in-process catalog memos, so reordering
# them would move time between operations.
VERIFY_CHECKS = (
    "thm5-support", "thm7", "prop10", "lemma11", "lemma12", "lemma13",
    "thm15", "thm16", "thm20", "example21", "q-col-signs",
)
VERIFY_MISC = ("info Hodd 3 4", "bound hermitian-cross 3 2", "summary")
THROUGH_SPACES = (("W", 3, 3), ("Hodd", 3, 4), ("Qplus", 4, 2), ("Qparabolic", 3, 3))
THROUGH_DRAWS = 12  # points and as many lines per space: about 0.15 s per batch


def through_batch(name: str, ps, subspaces: list, expected: list[int]) -> Op:
    def run():
        return [len(geom.generators_through(S, ps)) for S in subspaces]

    def check(counts) -> list[str]:
        bad = [(S.dim, got, want) for S, got, want in zip(subspaces, counts, expected) if got != want]
        return [f"{name}: {len(bad)} wrong counts (dim, got, expected), e.g. {bad[0]}"] if bad else []

    return Op(name, run, check)


def draw_through_inputs(rng, ps):
    """Seed-drawn totally isotropic points and lines: a line is a drawn point
    and a second point orthogonal to it."""
    pts = geom.enumerate_points(ps)
    fld = ps.field
    subspaces = [geom.Subspace.from_vectors(fld, [rng.choice(pts)]) for _ in range(THROUGH_DRAWS)]
    for _ in range(THROUGH_DRAWS):
        p = rng.choice(pts)
        r = rng.choice([x for x in pts if x != p and geom.bilinear(ps, p, x) == 0])
        subspaces.append(geom.Subspace.from_vectors(fld, [p, r]))
    return subspaces


def setup_verify(rng, oracle: Oracle) -> list[Op]:
    checks = [cli_op(oracle, f"verify {cid}") for cid in VERIFY_CHECKS]
    rest = [cli_op(oracle, a) for a in VERIFY_MISC]
    for family, d, q in THROUGH_SPACES:
        ps = geom.polar_space_make(family, d, q)
        subspaces = draw_through_inputs(rng, ps)
        expected = [qcount.num_generators(family, d - S.dim, q) for S in subspaces]
        rest.append(through_batch(f"batch:generators_through {family} {d} {q}", ps, subspaces, expected))
    return checks + shuffled(rng, rest)


WORKLOADS = {
    "catalog": setup_catalog,
    "certify": setup_certify,
    "sweep": setup_sweep,
    "verify": setup_verify,
}
