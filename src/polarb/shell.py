"""Command line interface, JSON report serialization, and the catalog cache.

Exit-code contract: 0 = success / verification passed, 1 = a verification
failed, 2 = usage error.  JSON output carries exact values as decimal strings
of numerator and denominator plus a float rendering, never bare floats for
exact quantities, and is byte-reproducible across runs.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import struct
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path

import numpy as np

from .checks import CHECKS, run_check
from .extremal import cross_graph, enumerate_maximal_cross_pairs
from .families import TAU, normalize_family, space_label
from .ff import prime_power
from .geom import (
    ENUM_LIMIT_DEFAULT,
    GeneratorCatalog,
    PolarSpace,
    _bases,
    catalog_from_bases,
    enumerate_generators,
    polar_space_make,
    rref_batch,
)
from .qcount import (
    disjointness_eigenvalue,
    eigen_data,
    generators_on_point,
    num_generators,
    num_points,
)
from .scheme import RelationData, SchemeError, build_relations, verify_spectrum
from .specbound import classical_bound, hermitian_cross_report, hermitian_ekr_bound

MAGIC = b"POLARB1"
_FAMILY_CODE = {"Qplus": 0, "Qparabolic": 1, "Qminus": 2, "W": 3, "Hodd": 4, "Heven": 5}
_FAMILY_FROM_CODE = {v: k for k, v in _FAMILY_CODE.items()}
_HEADER = struct.Struct("<BHHHQB")


class CacheError(Exception):
    """Corrupt, truncated or mismatching cache file.  Not a ValueError, so a
    file that escapes load_catalog's fallback can never pass for a usage error."""


# ---------------------------------------------------------------------------
# Cache file format
# ---------------------------------------------------------------------------


def _payload_width(ps: PolarSpace) -> int:
    digits = ps.d * ps.nv * ps.field.k
    return max(1, ((ps.field.p**digits - 1).bit_length() + 7) // 8)


def _pack_bases(ps: PolarSpace, codes: np.ndarray) -> bytes:
    """The payloads of a (count, d nv) array of field codes, row by row.

    Payload b is sum_c codes[b, c] q^c, that is the base-p digits of every
    code of the basis, row-major and lowest first, in _payload_width
    little-endian bytes, built on Python ints (object dtype).
    """
    width = _payload_width(ps)
    values = np.zeros(len(codes), dtype=object)
    for col in codes.T[::-1].astype(object):
        values = values * ps.q + col
    return b"".join(int(v).to_bytes(width, "little") for v in values)


def _unpack_bases(ps: PolarSpace, raw: bytes, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The inverse of _pack_bases on the first ``count`` payloads of raw.

    Returns the (count, d nv) int32 codes and a boolean per payload that is
    True when a nonzero quotient is left after the last digit: the payload
    has digits beyond its d x nv entries.
    """
    width = _payload_width(ps)
    starts = range(0, count * width, width)
    values = np.array([int.from_bytes(raw[i : i + width], "little") for i in starts], dtype=object)
    codes = np.empty((count, ps.d * ps.nv), dtype=np.int32)
    for c in range(codes.shape[1]):
        codes[:, c] = values % ps.q
        values //= ps.q
    return codes, values != 0


def cache_dir() -> Path:
    return Path(os.environ.get("POLARB_CACHE_DIR", ".polarb-cache"))


def cache_path(family: str, d: int, q: int) -> Path:
    return cache_dir() / f"{family}_{d}_{q}.plb"


def cache_write(cat: GeneratorCatalog, path=None, rel: RelationData | None = None) -> Path:
    """Write the cache file atomically: a temporary file in the same directory,
    then os.replace, so a failed write leaves any previous file intact."""
    ps = cat.space
    if path is None:
        path = cache_path(ps.family, ps.d, ps.q)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    out = [MAGIC]
    out.append(
        _HEADER.pack(
            _FAMILY_CODE[ps.family], ps.d, ps.field.p, ps.field.k, cat.n, 1 if rel else 0
        )
    )
    codes = np.array([g.basis for g in cat.generators], dtype=np.int64).reshape(cat.n, ps.d * ps.nv)
    out.append(_pack_bases(ps, codes))
    if rel is not None:
        for i in range(ps.d + 1):
            out.append(np.packbits(rel.codim == i, axis=1, bitorder="little").tobytes())
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(b"".join(out))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def cache_read(path, expected: tuple[str, int, int, int]):
    """Read a cache file's catalog; ``expected`` is (family, d, p, k).

    A relation section (flag byte 1) is length-checked and skipped: no
    command reads it.  Refuses descriptor mismatches, a flag byte other than
    0 or 1, truncated payloads and trailing bytes, and every generator list
    that enumeration could not have written: a basis whose bytes are not its
    encoding (digits beyond its d x nv entries), that is not canonical
    reduced row-echelon form of dimension d, whose rows are not pairwise
    orthogonal singular points or whose point set is not [d]_q points, and
    bases that are not strictly increasing.  The first offending basis is
    named.

    All bases are checked together: one base-q digit unpack of the payload
    array (_unpack_bases), one rref_batch whose forms and ranks must equal
    the bases and d, and one comparison of each pair of consecutive bases at
    the first column where they differ.  A file that cannot be read
    (OSError) is refused too.
    """
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise CacheError(f"{path}: {exc.strerror or exc}") from exc
    if blob[: len(MAGIC)] != MAGIC:
        raise CacheError(f"{path}: bad magic")
    off = len(MAGIC)
    try:
        fam_code, d, p, k, count, has_rel = _HEADER.unpack_from(blob, off)
    except struct.error as exc:
        raise CacheError(f"{path}: truncated header") from exc
    off += _HEADER.size
    family = _FAMILY_FROM_CODE.get(fam_code)
    if (family, d, p, k) != expected:
        raise CacheError(
            f"{path}: descriptor {(family, d, p, k)} does not match expected {expected}"
        )
    if has_rel not in (0, 1):
        raise CacheError(f"{path}: relation flag {has_rel} is neither 0 nor 1")
    ps = polar_space_make(family, d, p**k)
    if count != num_generators(family, d, ps.q):
        raise CacheError(f"{path}: generator count {count} contradicts the closed formula")
    need = off + count * _payload_width(ps)
    if len(blob) < need:
        raise CacheError(f"{path}: truncated generator payload")
    codes, beyond = _unpack_bases(ps, memoryview(blob)[off:need], count)
    stack = codes.reshape(count, d, ps.nv)
    R, rank = rref_batch(ps.field, stack)
    canonical = (rank == d) & (R == stack).all(axis=(1, 2))
    increasing = np.ones(count, dtype=bool)
    if count > 1:  # basis i is above basis i - 1 where the first column they differ in is larger
        later, earlier = codes[1:], codes[:-1]
        differ = later != earlier
        rows, first = np.arange(count - 1), differ.argmax(axis=1)
        increasing[1:] = differ[rows, first] & (later[rows, first] > earlier[rows, first])
    bad = np.flatnonzero(beyond | ~canonical | ~increasing)
    if bad.size:
        i = int(bad[0])
        if beyond[i]:
            raise CacheError(f"{path}: basis {i} has digits beyond its {d} x {ps.nv} entries")
        if not canonical[i]:
            raise CacheError(f"{path}: basis {i} is not canonical reduced row-echelon form of dimension {d}")
        raise CacheError(f"{path}: bases are not strictly increasing at basis {i}")
    try:
        cat = catalog_from_bases(ps, _bases(stack))
    except ValueError as exc:
        raise CacheError(f"{path}: {exc}") from exc
    if has_rel:
        need += (d + 1) * count * ((count + 7) // 8)
        if len(blob) < need:
            raise CacheError(f"{path}: truncated relation section")
    if len(blob) != need:
        raise CacheError(f"{path}: {len(blob) - need} trailing bytes")
    return cat


def load_catalog(family: str, d: int, q: int, limit: int = ENUM_LIMIT_DEFAULT):
    """Catalog from the cache when a valid file exists, else fresh enumeration.

    A rejected cache file is named on stderr with the reason; stdout is not touched.
    """
    ps = polar_space_make(family, d, q)
    path = cache_path(family, d, q)
    if path.exists():
        try:
            return cache_read(path, (family, d, ps.field.p, ps.field.k))
        except CacheError as exc:
            print(f"warning: ignoring cache file {exc}; enumerating instead", file=sys.stderr)
    return enumerate_generators(ps, limit)


# ---------------------------------------------------------------------------
# Rendering helpers
# ---------------------------------------------------------------------------


def exact_json(x) -> dict:
    f = Fraction(x)
    return {"num": str(f.numerator), "den": str(f.denominator), "float": f.numerator / f.denominator}


def emit(payload: dict, as_json: bool, lines) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)


def _bound_payload(rep) -> dict:
    return {
        "label": rep.label,
        "n": rep.n,
        "k": exact_json(rep.k),
        "lambda_plus": exact_json(rep.lambda_plus),
        "lambda_minus": exact_json(rep.lambda_minus),
        "lambda_b": exact_json(rep.lambda_b),
        "bound": exact_json(rep.bound),
        "bound_squared": exact_json(rep.bound_squared),
        "case": rep.case,
        "degenerate": rep.degenerate,
        "support": list(rep.support),
        "family_support": list(rep.family_support) if rep.family_support else None,
    }


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_info(args) -> int:
    family = normalize_family(args.family)
    d, q = args.d, args.q
    rep = classical_bound(family, d, q)
    tau = TAU[family]
    spectrum = [disjointness_eigenvalue(d, tau, r, q) for r in range(d + 1)]
    payload = {
        "space": {"family": family, "d": d, "q": q, "label": space_label(family, d, q)},
        "generators": num_generators(family, d, q),
        "points": num_points(family, d, q),
        "generators_on_point": generators_on_point(family, d, q),
        "disjointness_spectrum": spectrum,
        "classical_bound": _bound_payload(rep),
    }
    lines = [
        f"{payload['space']['label']}  (tau = {tau})",
        f"  generators:           {payload['generators']}",
        f"  points:               {payload['points']}",
        f"  generators on point:  {payload['generators_on_point']}",
        f"  A_d spectrum:         {spectrum}",
        f"  cross bound sqrt(|Y||Z|) <= {rep.bound}  (case {rep.case}"
        + (", degenerate" if rep.degenerate else "")
        + f"; support {list(rep.support)})",
    ]
    emit(payload, args.json, lines)
    return 0


def cmd_enum(args) -> int:
    family = normalize_family(args.family)
    cat = enumerate_generators(polar_space_make(family, args.d, args.q), args.limit)
    rel = build_relations(cat) if args.relations else None
    path = cache_write(cat, rel=rel)
    payload = {
        "space": {"family": family, "d": args.d, "q": args.q, "label": cat.space.label},
        "generators": cat.n,
        "points": len(cat.points),
        "cache": str(path),
        "relations_cached": bool(rel),
    }
    emit(payload, args.json, [f"{cat.space.label}: {cat.n} generators cached at {path}"])
    return 0


def cmd_scheme(args) -> int:
    family = normalize_family(args.family)
    cat = load_catalog(family, args.d, args.q, args.limit)
    rel = build_relations(cat)
    payload = {
        "space": {"family": family, "d": args.d, "q": args.q, "label": cat.space.label},
        "n": cat.n,
        "valencies": list(rel.valencies),
        "checked": False,
    }
    lines = [f"{cat.space.label}: n = {cat.n}, valencies {list(rel.valencies)}"]
    if args.check:
        eig = eigen_data(family, args.d, args.q)
        verify_spectrum(rel, eig)
        payload.update(
            {
                "checked": True,
                "P": [list(r) for r in eig.P],
                "Q": [[exact_json(x) for x in row] for row in eig.Q],
                "multiplicities": list(eig.multiplicities),
            }
        )
        lines.append("  intersection numbers homogeneous; spectrum and PQ = nI verified exactly")
        lines.append(f"  multiplicities: {list(eig.multiplicities)}")
    emit(payload, args.json, lines)
    return 0


def cmd_bound(args) -> int:
    if args.kind == "classical":
        family = normalize_family(args.family)
        rep = classical_bound(family, args.d, args.q)
        payload = {"kind": "classical", "report": _bound_payload(rep)}
        lines = [
            f"{rep.label}: sqrt(|Y||Z|) <= {rep.bound} ({float(rep.bound):.6g}), "
            f"case {rep.case}, support {list(rep.support)}"
        ]
    elif args.kind == "hermitian-cross":
        rep = hermitian_cross_report(args.d, args.q)
        payload = {
            "kind": "hermitian-cross",
            "space": {"family": "Hodd", "d": args.d, "q": args.q**2},
            "n": rep.params.n,
            "f1": exact_json(rep.params.f1),
            "c": exact_json(rep.params.c),
            "alpha": exact_json(rep.params.alpha),
            "lambda_b": exact_json(rep.params.lambda_b),
            "k": exact_json(rep.params.k),
            "weights": [exact_json(w) for w in rep.weighted.entries],
            "bound": exact_json(rep.bound) if rep.bound is not None else None,
            "valid": rep.valid,
            "plain_bound": exact_json(rep.plain.bound),
            "improves_plain": rep.improves_plain,
        }
        lines = [
            f"H({2 * args.d - 1},{args.q ** 2}) weighted cross bound: "
            + (f"{rep.bound} ({float(rep.bound):.6g})" if rep.bound is not None else "degenerate (zero matrix)"),
            f"  extended-weight conditions hold: {rep.valid}",
            f"  plain ratio bound: {rep.plain.bound} ({float(rep.plain.bound):.6g})"
            + ("; weighted is smaller" if rep.improves_plain else "; plain is smaller or equal"),
        ]
    else:  # hermitian-ekr
        value = hermitian_ekr_bound(args.d, args.q)
        payload = {
            "kind": "hermitian-ekr",
            "space": {"family": "Hodd", "d": args.d, "q": args.q**2},
            "bound": exact_json(value),
            "reference_scale": exact_json(args.q ** (args.d**2 - 2 * args.d + 2)),
        }
        lines = [
            f"H({2 * args.d - 1},{args.q ** 2}) EKR bound: {value} ({float(value):.6g}); "
            f"q^(d^2-2d+2) = {args.q ** (args.d ** 2 - 2 * args.d + 2)}"
        ]
    emit(payload, args.json, lines)
    return 0


def cmd_search(args) -> int:
    family = normalize_family(args.family)
    cat = load_catalog(family, args.d, args.q)
    g = cross_graph(cat)
    certs = enumerate_maximal_cross_pairs(g, args.limit)
    best = max(c.product for c in certs)
    by_label: dict[str, dict] = {}
    for c in certs:
        slot = by_label.setdefault(c.label, {"count": 0, "products": set()})
        slot["count"] += 1
        slot["products"].add(c.product)
    payload = {
        "space": {"family": family, "d": args.d, "q": args.q, "label": cat.space.label},
        "maximal_pairs": len(certs),
        "max_product": best,
        "families": {
            lab: {"count": slot["count"], "products": sorted(slot["products"])}
            for lab, slot in sorted(by_label.items())
        },
        "certificates": [
            {"y": list(c.y), "z": list(c.z), "sizes": list(c.sizes), "product": c.product, "label": c.label}
            for c in certs
        ],
    }
    lines = [f"{cat.space.label}: {len(certs)} maximal pairs, max product {best}"]
    for lab, slot in sorted(by_label.items()):
        lines.append(f"  {lab}: {slot['count']} pairs, products {sorted(slot['products'])}")
    emit(payload, args.json, lines)
    return 0


def cmd_verify(args) -> int:
    kwargs = {}
    if args.q is not None:
        kwargs["q"] = args.q
    if args.d is not None:
        kwargs["d"] = args.d
    if args.samples is not None:
        kwargs["samples"] = args.samples
    unknown = sorted(set(kwargs) - set(inspect.signature(CHECKS[args.check_id]).parameters))
    if unknown:
        print(f"error: check {args.check_id!r} does not accept --{', --'.join(unknown)}", file=sys.stderr)
        return 2
    report = run_check(args.check_id, **kwargs)
    lines = [f"[{report['status'].upper()}] {report['check_id']}"]
    lines += [f"  {s}" for s in report["details"]]
    emit(report, args.json, lines)
    return 0 if report["status"] == "pass" else 1


def cmd_summary(args) -> int:
    d, q = args.d, args.q
    prime_power(q)  # raises ValueError unless q is a prime power
    rows = []

    def row(space, value, example, reference, note=None):
        rows.append(
            {"space": space, "max_size": value, "example": example, "reference": reference, "note": note}
        )

    n_plus = num_generators("Qplus", d, q)
    row(
        space_label("Qplus", d, q),
        exact_json(Fraction(n_plus, 2)),
        "Y latins, Z greeks" if d % 2 == 0 else "Y = Z an EKR set",
        "hyperbolic classification" if d % 2 == 0 else "negative-eigenspace case",
    )
    gpt = generators_on_point("Qparabolic", d, q)
    parab_example = (
        "latins/greeks of an embedded hyperbolic quadric, or Y = Z an EKR set"
        if d % 2 == 0
        else "Y = Z an EKR set"
    )
    row(space_label("Qparabolic", d, q), exact_json(gpt), parab_example, "parabolic classification")
    row(
        space_label("W", d, q),
        exact_json(gpt),
        parab_example + (" (q even: isomorphic to the parabolic case)" if q % 2 == 0 else ""),
        "symplectic classification",
    )
    row(
        f"H(3,{q ** 2})",
        exact_json(q**3 + q + 1),
        "all lines meeting a fixed line (product, not square root)",
        "rank-2 Hermitian classification",
        note="maximum |Y|*|Z| = q^3+q+1; the summary-table column sqrt(|Y||Z|) disagrees "
        "with the theorem, which bounds the product",
    )
    if d > 2:
        rep = hermitian_cross_report(d, q)
        known = {
            3: f"largest EKR set, size q^5+q^3+q+1 = {q ** 5 + q ** 3 + q + 1}",
            4: "generators meeting a fixed generator in >= 2, resp. >= 3 dimensions",
        }.get(d, "all generators on a fixed point")
        row(
            f"H({2 * d - 1},{q ** 2})",
            exact_json(rep.bound) if rep.bound is not None else None,
            known,
            "weighted Hermitian bound",
            note=f"~ q^(d^2-2d+2) = {q ** (d * d - 2 * d + 2)}; valid = {rep.valid}",
        )
    payload = {"d": d, "q": q, "rows": rows}
    lines = [f"summary at d = {d}, q = {q} (sqrt(|Y||Z|) unless noted)"]
    for r in rows:
        val = r["max_size"]
        shown = f"{val['num']}/{val['den']}" if val and val["den"] != "1" else (val["num"] if val else "-")
        lines.append(f"  {r['space']:<12} {shown:<12} {r['example']}")
        if r["note"]:
            lines.append(f"      note: {r['note']}")
    emit(payload, args.json, lines)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parse_args leaves it unchanged."""
    ap = argparse.ArgumentParser(
        prog="polarb",
        description="Exact computations on finite classical polar spaces: catalogs, "
        "association-scheme spectra, cross-intersection bounds, extremal searches.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_space_args(p):
        p.add_argument("family", help="Qplus|Qparabolic|Qminus|W|Hodd|Heven (aliases: Q+, Q, Q-)")
        p.add_argument("d", type=int, help="rank (vector space dimension of generators)")
        p.add_argument("q", type=int, help="field order (the square q^2 for Hermitian families)")
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("info", help="counts, spectrum, classical cross bound")
    add_space_args(p)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("enum", help="enumerate the generator catalog and cache it")
    add_space_args(p)
    p.add_argument("--limit", type=int, default=ENUM_LIMIT_DEFAULT)
    p.add_argument("--relations", action="store_true", help="also cache the relation bit-rows")
    p.set_defaults(func=cmd_enum)

    p = sub.add_parser("scheme", help="build relations; --check verifies axioms and spectrum")
    add_space_args(p)
    p.add_argument("--limit", type=int, default=ENUM_LIMIT_DEFAULT)
    p.add_argument("--check", action="store_true")
    p.set_defaults(func=cmd_scheme)

    p = sub.add_parser("bound", help="exact bound values")
    bsub = p.add_subparsers(dest="kind", required=True)
    pc = bsub.add_parser("classical", help="plain disjointness-spectrum bound")
    add_space_args(pc)
    pc.set_defaults(func=cmd_bound)
    for kind, hlp in (
        ("hermitian-cross", "weighted cross bound for H(2d-1, q^2)"),
        ("hermitian-ekr", "EKR bound for H(2d-1, q^2), d odd"),
    ):
        ph = bsub.add_parser(kind, help=hlp)
        ph.add_argument("d", type=int)
        ph.add_argument("q", type=int, help="base prime power (the space sits over GF(q^2))")
        ph.add_argument("--json", action="store_true")
        ph.set_defaults(func=cmd_bound)

    p = sub.add_parser("search", help="complete maximal-pair enumeration")
    ssub = p.add_subparsers(dest="what", required=True)
    pm = ssub.add_parser("max-pairs")
    add_space_args(pm)
    pm.add_argument(
        "--limit", type=int, default=22, help="stop with exit 2 past 2^LIMIT visited closed sets (one side of each pair)"
    )
    pm.set_defaults(func=cmd_search)

    p = sub.add_parser("verify", help="run one named verification")
    p.add_argument("check_id", choices=sorted(CHECKS))
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("summary", help="the computable classification-table rows")
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_summary)
    return ap


def main(argv=None) -> int:
    """Run one command.  A rank below 1, a bad argument value or an OS error
    such as an unwritable cache directory exits 2; a failed verification 1."""
    args = build_parser().parse_args(argv)
    try:
        if (hasattr(args, "family") or args.command == "summary") and args.d < 1:
            raise ValueError("rank must be >= 1")
        return args.func(args)
    except SchemeError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
