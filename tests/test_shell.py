import ast
import errno
import importlib
import json
import sys
from collections import Counter
from fractions import Fraction
from functools import cache
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from polarb import checks, ff, geom, scheme, shell
from polarb.geom import enumerate_generators, polar_space_make
from polarb.qcount import eigen_data, nbracket
from polarb.scheme import SchemeError, build_relations, verify_spectrum
from polarb.shell import CacheError, cache_read, cache_write, main


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("POLARB_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path


def descriptor(cat):
    ps = cat.space
    return (ps.family, ps.d, ps.field.p, ps.field.k)


# Small spaces of every kind of field and form: q = 2, 3 and 4, alternating,
# Hermitian, elliptic and parabolic.
_PROPERTY_SPACES = [("W", 2, 2), ("W", 2, 3), ("Hodd", 2, 4), ("Qminus", 2, 2), ("Qparabolic", 2, 3)]


def test_cache_round_trip_is_byte_identical(graph, tmp_path):
    for space in _PROPERTY_SPACES:
        g = graph(*space)
        cat = g.rel.cat
        for rel in (None, g.rel):
            blob = cache_write(cat, tmp_path / "a.plb", rel=rel).read_bytes()
            read = cache_read(tmp_path / "a.plb", descriptor(cat))
            assert [x.basis for x in read.generators] == [x.basis for x in cat.generators]
            again = None if rel is None else build_relations(read)
            assert cache_write(read, tmp_path / "b.plb", rel=again).read_bytes() == blob


def _reference_relation_section(cat):
    """Relation rows by one popcount per pair of point masks, each row an
    n-bit little-endian integer, relation by relation."""
    n, d, masks = cat.n, cat.space.d, cat.point_masks
    dim_of_count = {nbracket(j, cat.space.q): j for j in range(d + 1)}
    rows = [[0] * n for _ in range(d + 1)]
    for x in range(n):
        for y in range(n):
            rows[d - dim_of_count[(masks[x] & masks[y]).bit_count()]][x] |= 1 << y
    return b"".join(row.to_bytes((n + 7) // 8, "little") for rel_rows in rows for row in rel_rows)


def test_cache_relation_section(catalog, tmp_path):
    header = len(shell.MAGIC) + shell._HEADER.size
    for space in (("Qparabolic", 2, 2), ("W", 2, 3), ("Qplus", 3, 2)):  # n = 15, 40, 135
        cat = catalog(*space)
        plain = cache_write(cat, tmp_path / "plain.plb").read_bytes()
        path = cache_write(cat, tmp_path / "with-rel.plb", rel=build_relations(cat))
        blob = path.read_bytes()
        assert blob[len(plain) :] == _reference_relation_section(cat)
        assert blob[: header - 1] == plain[: header - 1] and blob[header - 1] == 1
        assert blob[header : len(plain)] == plain[header:]
        read = cache_read(path, descriptor(cat))
        assert [g.basis for g in read.generators] == [g.basis for g in cat.generators]


@pytest.mark.parametrize("flag", [2, 255])
def test_cache_rejects_a_relation_flag_other_than_0_or_1(catalog, tmp_path, flag):
    cat = catalog("Qparabolic", 2, 2)
    path = cache_write(cat, tmp_path / "q42.plb", rel=build_relations(cat))
    blob = bytearray(path.read_bytes())
    blob[len(shell.MAGIC) + shell._HEADER.size - 1] = flag
    path.write_bytes(bytes(blob))
    with pytest.raises(CacheError, match=f"relation flag {flag} is neither 0 nor 1"):
        cache_read(path, descriptor(cat))


def test_cache_rejects_a_truncated_relation_section(catalog, tmp_path):
    cat = catalog("Qparabolic", 2, 2)
    path = cache_write(cat, tmp_path / "q42.plb", rel=build_relations(cat))
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(CacheError, match="truncated relation section"):
        cache_read(path, descriptor(cat))


def test_cache_rejects_descriptor_mismatch(catalog, tmp_path):
    cat = catalog("W", 2, 3)
    path = tmp_path / "w23.plb"
    cache_write(cat, path)
    with pytest.raises(CacheError):
        cache_read(path, ("W", 2, 2, 1))


def test_cache_rejects_corruption(catalog, tmp_path):
    cat = catalog("W", 2, 3)
    path = tmp_path / "w23.plb"
    cache_write(cat, path)
    blob = path.read_bytes()
    trunc = tmp_path / "trunc.plb"
    trunc.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CacheError):
        cache_read(trunc, descriptor(cat))
    bad = tmp_path / "bad.plb"
    bad.write_bytes(b"NOTMAGIC" + blob[8:])
    with pytest.raises(CacheError):
        cache_read(bad, descriptor(cat))


def _reference_payload(ps, basis):
    """One basis as the cache stores it, digit by digit: the base-p digits
    of its codes, row-major and lowest first, as a little-endian integer."""
    p, k = ps.field.p, ps.field.k
    value, mult = 0, 1
    for row in basis:
        for code in row:
            for _ in range(k):
                value += (code % p) * mult
                code //= p
                mult *= p
    return value.to_bytes(shell._payload_width(ps), "little")


def _write_bases(cat, bases, path):
    """A cache file holding ``bases`` in place of the catalog's generators."""
    ps = cat.space
    header = shell._HEADER.pack(shell._FAMILY_CODE[ps.family], ps.d, ps.field.p, ps.field.k, len(bases), 0)
    path.write_bytes(shell.MAGIC + header + b"".join(_reference_payload(ps, b) for b in bases))


@pytest.mark.parametrize(
    "space",
    [
        ("Qplus", 3, 2),
        ("Qplus", 6, 2),  # 72 bits: 9 bytes, no spare bit
        ("W", 2, 3),
        ("Qparabolic", 4, 3),  # 36 base-3 digits fill 8 bytes
        ("Heven", 2, 4),
        ("W", 2, 7),
        ("Hodd", 2, 9),
        ("Hodd", 4, 9),  # 32 base-9 digits: 13 bytes, past 2^64
    ],
)
def test_payload_codec_round_trip(space):
    ps = geom.polar_space_make(*space)
    width, digits = shell._payload_width(ps), ps.d * ps.nv
    rng = np.random.default_rng(len(repr(space)) * ps.q)
    codes = rng.integers(0, ps.q, size=(40, digits))
    codes[0], codes[1] = 0, ps.q - 1
    raw = shell._pack_bases(ps, codes)
    assert raw == b"".join(_reference_payload(ps, row.reshape(ps.d, ps.nv).tolist()) for row in codes)
    back, beyond = shell._unpack_bases(ps, raw, len(codes))
    assert back.tolist() == codes.tolist() and not beyond.any()
    if 256**width > ps.q**digits:  # a payload of all ones lies past the last digit
        flipped = b"\xff" * width + raw[width:]
        _, beyond = shell._unpack_bases(ps, flipped, len(codes))
        assert beyond.tolist() == [True] + [False] * (len(codes) - 1)


def _swap_first_two(bases):
    return [bases[1], bases[0]] + bases[2:]


def _replace_last(bad):
    return lambda bases: sorted(bases[:-1] + [bad])


@pytest.mark.parametrize(
    "space, edit, reason",
    [
        (("W", 2, 3), lambda b: [tuple(reversed(b[0]))] + b[1:], "not canonical"),
        (("W", 2, 3), lambda b: [(b[0][0], b[0][0])] + b[1:], "not canonical"),
        (("W", 2, 3), _swap_first_two, "not strictly increasing"),
        (("W", 2, 3), lambda b: [b[0]] + b[:-1], "not strictly increasing"),
        (("Qparabolic", 2, 2), _replace_last(((1, 0, 0, 0, 0), (0, 0, 0, 1, 0))), "not a singular point"),
        (("W", 2, 3), _replace_last(((1, 0, 0, 0), (0, 1, 0, 0))), "not pairwise orthogonal"),
    ],
    ids=["unreduced", "dependent-rows", "unsorted", "duplicate", "non-singular-row", "non-orthogonal-rows"],
)
def test_cache_rejects_bases_enumeration_cannot_write(catalog, tmp_path, space, edit, reason):
    cat = catalog(*space)
    path = tmp_path / "edited.plb"
    _write_bases(cat, edit([g.basis for g in cat.generators]), path)
    with pytest.raises(CacheError, match=reason):
        cache_read(path, descriptor(cat))


def test_cache_rejects_digits_beyond_the_basis(catalog, tmp_path):
    cat = catalog("W", 2, 3)  # 8 base-3 digits per basis fill 13 of its 16 bits
    path = tmp_path / "w23.plb"
    cache_write(cat, path)
    blob = bytearray(path.read_bytes())
    blob[len(shell.MAGIC) + shell._HEADER.size + 1] |= 0x80
    path.write_bytes(bytes(blob))
    with pytest.raises(CacheError, match="digits beyond"):
        cache_read(path, descriptor(cat))


def test_cache_rejects_a_point_set_of_the_wrong_size(catalog, tmp_path, monkeypatch):
    cat = catalog("W", 2, 3)
    path = tmp_path / "w23.plb"
    cache_write(cat, path)
    orth_masks = geom._orth_masks
    monkeypatch.setattr(geom, "_orth_masks", lambda ps, pts: [m | 1 for m in orth_masks(ps, pts)])
    with pytest.raises(CacheError, match="expected \\[2\\]_q = 4"):
        cache_read(path, descriptor(cat))


def test_failed_cache_write_keeps_the_previous_file(catalog, tmp_path, monkeypatch):
    folder = tmp_path / "plb"
    path = cache_write(catalog("W", 2, 3), folder / "w23.plb")
    before = path.read_bytes()
    real_open = open

    class HalfWriter:
        """Writes half of what it is given, then fails as a full disk would."""

        def __init__(self, *args, **kwargs):
            self.fh = real_open(*args, **kwargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[: len(data) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

    with monkeypatch.context() as patch:
        patch.setattr(shell, "open", HalfWriter, raising=False)
        with pytest.raises(OSError, match="No space left"):
            cache_write(catalog("Qparabolic", 2, 2), path)
    assert path.read_bytes() == before
    assert [p.name for p in folder.iterdir()] == ["w23.plb"]
    cache_write(catalog("Qparabolic", 2, 2), path)
    assert path.read_bytes() != before
    assert [p.name for p in folder.iterdir()] == ["w23.plb"]


@pytest.mark.parametrize("with_relations", [False, True])
def test_cache_rejects_trailing_bytes(catalog, tmp_path, with_relations):
    cat = catalog("Qparabolic", 2, 2)
    path = tmp_path / "q42.plb"
    cache_write(cat, path, rel=build_relations(cat) if with_relations else None)
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(CacheError, match="1 trailing bytes"):
        cache_read(path, descriptor(cat))


@settings(
    max_examples=60, deadline=None, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],  # each example writes its own file
)
@given(data=st.data())
@pytest.mark.parametrize("with_relations", [False, True])
@pytest.mark.parametrize("space", _PROPERTY_SPACES)
def test_cache_with_one_changed_byte_is_rejected_or_the_whole_catalog(graph, tmp_path, space, with_relations, data):
    """An accepted file holds the closed-form count of strictly increasing,
    valid generators, so it is every generator: a changed byte is either
    rejected or leaves the catalog as enumeration made it.  Every generator
    list has one encoding, so only a change in the relation section, which
    is skipped, can be accepted."""
    g = graph(*space)
    cat, n = g.rel.cat, g.n
    blob = bytearray(cache_write(cat, tmp_path / "c.plb", rel=g.rel if with_relations else None).read_bytes())
    relation_section = len(blob) - (g.rel.d + 1) * n * ((n + 7) // 8) if with_relations else len(blob)
    at = data.draw(st.integers(0, len(blob) - 1), label="byte")
    blob[at] = data.draw(st.integers(0, 255).filter(lambda v: v != blob[at]), label="value")
    (tmp_path / "c.plb").write_bytes(bytes(blob))
    try:
        read = cache_read(tmp_path / "c.plb", descriptor(cat))
    except CacheError:
        event("rejected")
        return
    event("accepted")
    assert [x.basis for x in read.generators] == [x.basis for x in cat.generators]
    assert at >= relation_section


def test_cli_flipped_cache_bit_is_rejected_and_reenumerated(capsys):
    assert main(["enum", "W", "2", "3"]) == 0
    capsys.readouterr()
    assert main(["search", "max-pairs", "W", "2", "3", "--json"]) == 0
    intact = capsys.readouterr()
    assert intact.err == ""
    path = shell.cache_path("W", 2, 3)
    blob = bytearray(path.read_bytes())
    blob[-5] ^= 1  # basis 37 becomes ((2,0,2,0), (0,1,1,0)): unreduced and out of order
    path.write_bytes(bytes(blob))
    assert main(["search", "max-pairs", "W", "2", "3", "--json"]) == 0
    flipped = capsys.readouterr()
    assert json.loads(flipped.out)["max_product"] == 16
    assert flipped.out == intact.out
    assert flipped.err.count("\n") == 1
    assert str(path) in flipped.err and "basis 37 is not canonical" in flipped.err


def test_cache_error_is_not_a_usage_error(capsys):
    assert not issubclass(CacheError, ValueError)
    assert main(["enum", "W", "2", "2"]) == 0
    capsys.readouterr()
    path = shell.cache_path("W", 2, 2)
    path.write_bytes(path.read_bytes()[:-1])
    assert main(["search", "max-pairs", "W", "2", "2", "--json"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["max_product"] == 9
    assert str(path) in captured.err and "truncated generator payload" in captured.err


def test_cli_info(capsys):
    assert main(["info", "W", "2", "3"]) == 0
    out = capsys.readouterr().out
    assert "40" in out and "W(3,3)" in out


def test_cli_info_json(capsys):
    assert main(["info", "W", "2", "3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["generators"] == 40
    assert payload["classical_bound"]["bound"] == {"num": "4", "den": "1", "float": 4.0}


def test_cli_bound_classical(capsys):
    assert main(["bound", "classical", "Qplus", "4", "2"]) == 0
    assert "135" in capsys.readouterr().out


def test_cli_bound_hermitian(capsys):
    assert main(["bound", "hermitian-cross", "3", "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["bound"]["num"] == "747" and payload["bound"]["den"] == "11"
    assert main(["bound", "hermitian-ekr", "3", "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["bound"]["num"] == "57"


def test_cli_enum_and_cached_scheme(capsys, tmp_path):
    assert main(["enum", "Hodd", "2", "4"]) == 0
    out = capsys.readouterr().out
    assert "27 generators" in out
    assert main(["scheme", "Hodd", "2", "4", "--check", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["valencies"] == [1, 10, 16]
    assert payload["checked"] is True
    assert payload["multiplicities"] == [1, 20, 6]


def test_scheme_check_rank0_in_the_library():
    # A generator's quotient has rank 0, so the library certifies it; the CLI refuses rank 0.
    cat = enumerate_generators(polar_space_make("W", 0, 2))
    eig = eigen_data("W", 0, 2)
    assert cat.n == 1
    assert verify_spectrum(build_relations(cat), eig) is True
    assert [list(r) for r in eig.P] == [[1]]


@pytest.mark.parametrize(
    "argv",
    [
        ["info", "W", "0", "2"],
        ["info", "W", "-1", "2"],
        ["enum", "W", "0", "2"],
        ["scheme", "W", "0", "2", "--check"],
        ["bound", "classical", "Qplus", "0", "2"],
        ["search", "max-pairs", "W", "0", "2"],
        ["summary", "--d", "0", "--q", "2"],
        ["summary", "--d", "-1", "--q", "2"],
    ],
    ids="_".join,
)
def test_cli_rank_below_1_is_a_usage_error(capsys, isolated_cache, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: rank must be >= 1\n"
    assert not (isolated_cache / "cache").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["info", "W", "2", "131072"],
        ["bound", "classical", "Qplus", "3", "59049"],
        ["summary", "--d", "3", "--q", "131072"],
    ],
    ids="_".join,
)
def test_cli_closed_forms_validate_q_without_building_the_field(capsys, monkeypatch, argv):
    def no_field(p, k):
        raise AssertionError(f"GF({p}^{k}) built")

    monkeypatch.setattr(ff, "field_make", no_field)
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


def test_cli_enum_into_a_cache_dir_that_is_a_file_is_a_usage_error(capsys, monkeypatch, tmp_path):
    blocker = tmp_path / "not-a-dir"
    blocker.write_bytes(b"")
    monkeypatch.setenv("POLARB_CACHE_DIR", str(blocker))
    assert main(["enum", "W", "2", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_cli_unreadable_cache_file_is_ignored_and_reenumerated(capsys):
    path = shell.cache_path("W", 2, 2)
    path.mkdir(parents=True)
    with pytest.raises(CacheError, match="W_2_2.plb"):
        cache_read(path, ("W", 2, 2, 1))
    assert main(["scheme", "W", "2", "2", "--json"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["valencies"] == [1, 6, 8]
    assert captured.err.startswith(f"warning: ignoring cache file {path}: ")
    assert captured.err.endswith("; enumerating instead\n") and captured.err.count("\n") == 1


def test_cli_scheme_failed_certificate_exits_1(capsys, monkeypatch):
    def fail(rel, eig):
        raise SchemeError("relations are not distance classes")

    monkeypatch.setattr(shell, "verify_spectrum", fail)
    assert main(["scheme", "W", "2", "2", "--check"]) == 1
    assert "relations are not distance classes" in capsys.readouterr().err


def test_cli_search_max_pairs(capsys):
    assert main(["search", "max-pairs", "Hodd", "2", "4", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["max_product"] == 11
    assert payload["maximal_pairs"] == 649
    fams = payload["families"]
    assert fams["single-line-star"] == {"count": 27, "products": [11]}


def test_cli_search_negative_limit_is_a_usage_error(capsys):
    assert main(["search", "max-pairs", "W", "2", "2", "--limit", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: limit -1 is negative; the search stops past 2^limit closed sets\n"


def test_cli_search_geometry_bug_exits_1(capsys, monkeypatch):
    counts = scheme.common_point_counts

    def no_count_of_a_subspace(cat):  # keeps "x meets y" intact, but no nonzero count is a [j]_q
        for true in counts(cat):
            yield np.where(true != 0, len(cat.points), 0)

    monkeypatch.setattr(scheme, "common_point_counts", no_count_of_a_subspace)
    assert main(["search", "max-pairs", "Qplus", "2", "2"]) == 1
    err = capsys.readouterr().err
    assert "verification failed" in err and "share a number of points that is no [j]_q" in err


@pytest.fixture
def relation_builds(monkeypatch):
    """build_relations calls by space label, counted in every polarb module that
    binds it, under a fresh per-space memo of the named checks."""
    calls = Counter()
    original = scheme.build_relations

    def counting(cat):
        calls[cat.space.label] += 1
        return original(cat)

    bound = [name for name, module in sys.modules.items() if getattr(module, "build_relations", None) is original]
    assert {"polarb.scheme", "polarb.extremal", "polarb.shell"} <= set(bound)
    for name in bound:
        monkeypatch.setattr(sys.modules[name], "build_relations", counting)
    monkeypatch.setattr(checks, "_graph", cache(checks._graph.__wrapped__))
    return calls


@pytest.mark.parametrize("check_id", sorted(checks.CHECKS))
def test_every_check_builds_a_codimension_matrix_at_most_once_per_space(relation_builds, check_id):
    checks.run_check(check_id)
    assert all(count == 1 for count in relation_builds.values()), dict(relation_builds)


def test_all_checks_build_one_codimension_matrix_per_space(relation_builds):
    for check_id in checks.CHECKS:
        checks.run_check(check_id)
    assert dict(relation_builds) == dict.fromkeys(
        ["Q(4,2)", "Q(6,2)", "Q+(7,2)", "W(3,2)", "W(3,3)", "H(3,4)"], 1
    )


def test_a_memoized_codimension_matrix_is_read_only(relations):
    C = relations("Qparabolic", 2, 2).codim
    with pytest.raises(ValueError, match="read-only"):
        C[0, 1] = 0
    with pytest.raises(ValueError, match="read-only"):
        C += 0
    assert C[0, 1] != 0  # the write did not land: C is 0 on the diagonal only


def test_search_builds_the_codimension_matrix_once(relation_builds, capsys):
    assert main(["search", "max-pairs", "Qplus", "3", "2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["maximal_pairs"] == 2278
    assert dict(relation_builds) == {"Q+(5,2)": 1}


@pytest.mark.parametrize(
    "argv",
    [
        ["info", "W", "2", "6"],
        ["info", "W", "2", "0"],
        ["info", "Qplus", "2", "12"],
        ["info", "Hodd", "2", "36"],
        ["bound", "classical", "W", "2", "6"],
        ["summary", "--d", "2", "--q", "6"],
        ["summary", "--d", "2", "--q", "0"],
        ["enum", "W", "2", "6"],
        ["scheme", "W", "2", "6"],
        ["search", "max-pairs", "W", "2", "6"],
        ["bound", "hermitian-cross", "2", "6"],
        ["bound", "hermitian-ekr", "3", "6"],
        ["verify", "thm16", "--q", "6"],
        ["verify", "q-col-signs", "--q", "0"],
    ],
    ids="_".join,
)
def test_cli_field_order_that_is_no_prime_power_is_a_usage_error(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_cli_verify_negative_samples_is_a_usage_error(capsys):
    assert main(["verify", "example21", "--samples", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: sample count -5 is negative\n"


def test_cli_verify_pass_and_fail_exit_codes(capsys):
    assert main(["verify", "lemma13"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["verify", "no-such-check"])
    assert exc.value.code == 2


def test_cli_verify_rejects_bad_options(capsys):
    assert main(["verify", "lemma13", "--q", "3"]) == 2  # lemma13 takes no parameters


def test_cli_verify_internal_type_error_propagates(monkeypatch):
    def broken(q: int = 2):
        raise TypeError("internal bug")

    monkeypatch.setitem(checks.CHECKS, "thm16", broken)
    with pytest.raises(TypeError, match="internal bug"):
        main(["verify", "thm16", "--q", "3"])


@pytest.mark.parametrize(
    "name, stub, claim",
    [
        ("verify_maximality_lemma", lambda cat, cert: {"ok": False}, "maximality lemma holds"),
        ("classical_bound", lambda *a: SimpleNamespace(bound=Fraction(3)), "confirmed non-tight"),
    ],
    ids=["lemma", "bound"],
)
def test_cli_verify_thm20_failure_is_not_reported_as_holding(capsys, monkeypatch, name, stub, claim):
    monkeypatch.setattr(checks, name, stub)
    assert main(["verify", "thm20", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "fail"
    assert all(claim not in line for line in payload["details"])


def test_cli_summary(capsys):
    assert main(["summary", "--d", "3", "--q", "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rows"][0]["space"] == "Q+(5,2)"
    assert any("H(5,4)" == r["space"] for r in payload["rows"])


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["definitely-not-a-command"])
    assert exc.value.code == 2


def test_cli_verify_json_schema(capsys):
    assert main(["verify", "thm16", "--q", "3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["check_id"] == "thm16"
    assert payload["status"] == "pass"
    assert isinstance(payload["details"], list)


def test_memoized_parser_behaves_like_a_fresh_one(capsys, monkeypatch):
    # --json on then off, --limit given then left at its default, across subcommands.
    argvs = [
        ["enum", "W", "2", "2", "--limit", "100", "--json"],
        ["scheme", "W", "2", "2", "--check", "--json"],
        ["scheme", "W", "2", "2"],
        ["search", "max-pairs", "W", "2", "2", "--limit", "3", "--json"],
        ["search", "max-pairs", "W", "2", "2"],
        ["info", "W", "2", "3", "--json"],
        ["summary", "--q", "3"],
        ["summary"],
    ]
    assert shell.build_parser() is shell.build_parser()
    fresh = shell.build_parser.__wrapped__
    for argv in argvs:
        assert vars(shell.build_parser().parse_args(argv)) == vars(fresh().parse_args(argv))
    memoized = []
    for argv in argvs:
        memoized.append((main(argv), capsys.readouterr()))
    monkeypatch.setattr(shell, "build_parser", fresh)
    for argv, want in zip(argvs, memoized):
        assert (main(argv), capsys.readouterr()) == want
    assert memoized[3][0] == 2 and memoized[4][0] == 0


_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _resolve(module: str, dotted: str):
    obj = importlib.import_module(module)
    for name in dotted.split("."):
        obj = getattr(obj, name)
    return obj


def test_every_name_the_benchmark_reaches_resolves():
    """perfbench/tracing.py wraps LAYER_FUNCTIONS by name and perfbench/workloads.py
    calls polarb through module attributes: each name must exist in the package.
    Both files are parsed, not imported, so nothing is written under perfbench/."""
    tracing = ast.parse((_PERFBENCH / "tracing.py").read_text())
    layers = next(
        ast.literal_eval(node.value)
        for node in tracing.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYER_FUNCTIONS"]
    )
    assert len(layers) >= 20
    for mod, fn in layers:
        assert callable(_resolve(f"polarb.{mod}", fn)), f"polarb.{mod}.{fn}"

    workloads = ast.parse((_PERFBENCH / "workloads.py").read_text())
    aliases = {
        alias.asname or alias.name: alias.name
        for node in workloads.body
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name.startswith("polarb.")
    }
    assert set(aliases) == {"extremal", "geom", "qcount", "scheme", "shell", "specbound"}
    chains = set()
    for node in ast.walk(workloads):
        names = []
        while isinstance(node, ast.Attribute):
            names.append(node.attr)
            node = node.value
        if names and isinstance(node, ast.Name) and node.id in aliases:
            chains.add((aliases[node.id], ".".join(reversed(names))))
    assert ("polarb.shell", "main") in chains
    for module, dotted in sorted(chains):
        _resolve(module, dotted)
