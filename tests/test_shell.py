import ast
import errno
import hashlib
import importlib
import json
import os
import subprocess
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

from polarb import checks, extremal, ff, geom, qcount, scheme, shell
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
    with pytest.raises(CacheError, match="q42.plb: header differs"):
        cache_read(path, descriptor(cat))


def test_cache_rejects_a_truncated_relation_section(catalog, tmp_path):
    cat = catalog("Qparabolic", 2, 2)
    path = cache_write(cat, tmp_path / "q42.plb", rel=build_relations(cat))
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(CacheError, match="q42.plb: length 142 differs from the 143 bytes"):
        cache_read(path, descriptor(cat))


def test_cache_rejects_descriptor_mismatch(catalog, tmp_path):
    cat = catalog("W", 2, 3)
    path = tmp_path / "w23.plb"
    cache_write(cat, path)
    with pytest.raises(CacheError, match="header differs from what enum writes for W\\(3,2\\)"):
        cache_read(path, ("W", 2, 2, 1))


def test_cache_rejects_corruption(catalog, tmp_path):
    cat = catalog("W", 2, 3)
    path = tmp_path / "w23.plb"
    cache_write(cat, path)
    blob = path.read_bytes()
    trunc = tmp_path / "trunc.plb"
    trunc.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CacheError, match="trunc.plb: length"):
        cache_read(trunc, descriptor(cat))
    bad = tmp_path / "bad.plb"
    bad.write_bytes(b"NOTMAGIC" + blob[8:])
    with pytest.raises(CacheError, match="bad.plb: header"):
        cache_read(bad, descriptor(cat))
    folder = tmp_path / "folder.plb"
    folder.mkdir()
    with pytest.raises(CacheError, match="folder.plb"):
        cache_read(folder, descriptor(cat))


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
    rng = np.random.default_rng(len(repr(space)) * ps.q)
    codes = rng.integers(0, ps.q, size=(40, ps.d * ps.nv))
    codes[0], codes[1] = 0, ps.q - 1
    raw = shell._pack_bases(ps, codes)
    assert raw == b"".join(_reference_payload(ps, row.reshape(ps.d, ps.nv).tolist()) for row in codes)


def _swap_first_two(bases):
    return [bases[1], bases[0]] + bases[2:]


def _replace_last(bad):
    return lambda bases: sorted(bases[:-1] + [bad])


@pytest.mark.parametrize(
    "space, edit, reason",
    [
        (("W", 2, 3), lambda b: [tuple(reversed(b[0]))] + b[1:], "basis 0 differs"),
        (("W", 2, 3), lambda b: [(b[0][0], b[0][0])] + b[1:], "basis 0 differs"),
        (("W", 2, 3), _swap_first_two, "basis 0 differs"),
        (("W", 2, 3), lambda b: [b[0]] + b[:-1], "basis 1 differs"),
        (("Qparabolic", 2, 2), _replace_last(((1, 0, 0, 0, 0), (0, 0, 0, 1, 0))), "basis 6 differs"),
        (("W", 2, 3), _replace_last(((1, 0, 0, 0), (0, 1, 0, 0))), "basis 8 differs"),
    ],
    ids=["unreduced", "dependent-rows", "unsorted", "duplicate", "non-singular-row", "non-orthogonal-rows"],
)
def test_cache_rejects_bases_enumeration_cannot_write(catalog, tmp_path, space, edit, reason):
    cat = catalog(*space)
    path = tmp_path / "edited.plb"
    _write_bases(cat, edit([g.basis for g in cat.generators]), path)
    with pytest.raises(CacheError, match=reason):
        cache_read(path, descriptor(cat))


@pytest.mark.parametrize(
    "space, edit, reason",
    [
        (
            ("Qparabolic", 2, 2),
            _replace_last(((1, 0, 0, 0, 0), (0, 0, 0, 1, 0))),
            r"basis 6: row \(1, 0, 0, 0, 0\) is not a singular point",
        ),
        (("W", 2, 3), _replace_last(((1, 0, 0, 0), (0, 1, 0, 0))), "basis 8: rows are not pairwise orthogonal"),
        (("W", 2, 3), lambda b: [(b[0][0], b[0][0])] + b[1:], r"basis 0: 13 points, expected \[2\]_q = 4"),
        # basis 1's first row lies on generator 0's line: three dependent rows
        (("W", 2, 3), lambda b: [b[0] + b[1][:1]] + b[1:], "basis 0: 3 rows, expected 2"),
        (("W", 2, 3), lambda b: [b[0][:1]] + b[1:], "basis 0: 1 rows, expected 2"),
    ],
    ids=["non-singular-row", "non-orthogonal-rows", "dependent-rows", "one-row-too-many", "one-row-too-few"],
)
def test_catalog_from_bases_names_the_first_invalid_basis(catalog, space, edit, reason):
    cat = catalog(*space)
    with pytest.raises(ValueError, match=reason):
        geom.catalog_from_bases(cat.space, edit([g.basis for g in cat.generators]))


def test_cache_rejects_digits_beyond_the_basis(catalog, tmp_path):
    cat = catalog("W", 2, 3)  # 8 base-3 digits per basis fill 13 of its 16 bits
    path = tmp_path / "w23.plb"
    cache_write(cat, path)
    blob = bytearray(path.read_bytes())
    blob[len(shell.MAGIC) + shell._HEADER.size + 1] |= 0x80
    path.write_bytes(bytes(blob))
    with pytest.raises(CacheError, match="basis 0 differs"):
        cache_read(path, descriptor(cat))


def test_cache_rejects_a_point_set_of_the_wrong_size(catalog, tmp_path, monkeypatch):
    """The point-count check lives in geom._catalog, so enumeration and
    catalog_from_bases both raise its ValueError, and a file read passes it on."""
    cat = catalog("W", 2, 3)
    path = cache_write(cat, tmp_path / "w23.plb")
    orth_masks = geom._orth_masks
    monkeypatch.setattr(geom, "_orth_masks", lambda ps, pts: [m | 1 for m in orth_masks(ps, pts)])
    for build in (
        lambda: geom.catalog_from_bases(cat.space, [g.basis for g in cat.generators]),
        lambda: enumerate_generators(cat.space),
        lambda: cache_read(path, descriptor(cat)),
    ):
        with pytest.raises(ValueError, match="expected \\[2\\]_q = 4"):
            build()


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
    with pytest.raises(CacheError, match="q42.plb: length"):
        cache_read(path, descriptor(cat))


@settings(
    max_examples=60, deadline=None, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],  # each example writes its own file
)
@given(data=st.data())
@pytest.mark.parametrize("with_relations", [False, True])
@pytest.mark.parametrize("space", _PROPERTY_SPACES)
def test_cache_with_one_changed_byte_is_rejected_or_the_whole_catalog(graph, tmp_path, space, with_relations, data):
    """A file is accepted only when it is byte for byte the file enum writes
    for the space, with the relation section exactly when its flag byte is
    1: every changed byte is rejected, those in the relation section too.
    A changed flag byte asks for a file of another length."""
    g = graph(*space)
    cat, n = g.rel.cat, g.n
    blob = bytearray(cache_write(cat, tmp_path / "c.plb", rel=g.rel if with_relations else None).read_bytes())
    relation_section = len(blob) - (g.rel.d + 1) * n * ((n + 7) // 8) if with_relations else len(blob)
    at = data.draw(st.integers(0, len(blob) - 1), label="byte")
    blob[at] = data.draw(st.integers(0, 255).filter(lambda v: v != blob[at]), label="value")
    (tmp_path / "c.plb").write_bytes(bytes(blob))
    region = "relation section" if at >= relation_section else ""
    event(region or "catalog")
    with pytest.raises(CacheError, match=f"c.plb: {region}"):
        cache_read(tmp_path / "c.plb", descriptor(cat))


def _flip_a_bit(path):
    blob = bytearray(path.read_bytes())
    blob[-5] ^= 1
    path.write_bytes(bytes(blob))


def _truncate(path):
    path.write_bytes(path.read_bytes()[:-1])


def _make_a_directory(path):
    path.unlink()
    path.mkdir()


_COMMANDS_OF_A_CATALOG = (["scheme", "W", "2", "3", "--json"], ["search", "max-pairs", "W", "2", "3", "--json"])


@pytest.mark.parametrize("damage", [_flip_a_bit, _truncate, _make_a_directory], ids=["flipped-bit", "truncated", "directory"])
def test_cli_output_does_not_depend_on_the_catalog_file(capsys, damage):
    """Commands enumerate their catalog: the file enum wrote, damaged or
    not, changes no output and draws no warning."""
    assert not issubclass(CacheError, ValueError)
    fresh = []
    for argv in _COMMANDS_OF_A_CATALOG:
        assert main(argv) == 0
        fresh.append(capsys.readouterr())
    assert main(["enum", "W", "2", "3"]) == 0
    capsys.readouterr()
    damage(shell.cache_path("W", 2, 3))
    for argv, want in zip(_COMMANDS_OF_A_CATALOG, fresh):
        assert main(argv) == 0
        assert capsys.readouterr() == want
    assert [c.err for c in fresh] == ["", ""]
    assert json.loads(fresh[1].out)["max_product"] == 16


def test_no_command_reads_a_catalog_file(capsys, monkeypatch):
    readers = (shell.cache_read, geom.catalog_from_bases)

    def refuse(*args, **kwargs):
        raise AssertionError("a command read a catalog file")

    for module in [m for name, m in sys.modules.items() if name.startswith("polarb")]:
        for attr, value in list(vars(module).items()):
            if any(value is reader for reader in readers):
                monkeypatch.setattr(module, attr, refuse)
    assert main(["enum", "W", "2", "2"]) == 0 and shell.cache_path("W", 2, 2).exists()
    for argv in (["scheme", "W", "2", "2", "--check"], ["search", "max-pairs", "W", "2", "2"], ["verify", "thm15"]):
        assert main(argv) == 0, argv
    assert capsys.readouterr().err == ""


def test_commands_that_read_no_basis_build_no_subspace(capsys, monkeypatch):
    """The catalog holds point-index rows; Subspaces are built only when a
    caller reads cat.generators, which enum, scheme and search do not."""
    argvs = (["enum", "W", "2", "3"], ["scheme", "W", "2", "3", "--check"], ["search", "max-pairs", "W", "2", "3"])
    outs = []
    for argv in argvs:
        assert main(argv) == 0, argv
        outs.append(capsys.readouterr().out)

    def refuse(*args, **kwargs):
        raise AssertionError("a Subspace was built")

    monkeypatch.setattr(geom, "Subspace", refuse)
    for argv, out in zip(argvs, outs):
        assert main(argv) == 0, argv
        assert capsys.readouterr().out == out


# The .plb digests of enumerations the benchmark's grid does not reach: a
# change of the generator search must write these files byte for byte.
@pytest.mark.parametrize(
    "space,digest",
    [
        (("W", "2", "7"), "8c6e6cf8d3fd044d3d506adfffd3e348f085604328da55d0ce19f0e308e14746"),
        (("Hodd", "2", "16"), "ea720d4eb8518fc3c5a0ad0e99fe8126bd1c673e4dda6ead8fa481000ec7090f"),
        (("Hodd", "3", "4"), "8fbf71382630f690e5a0c978ea33e5ecdfb08cd9bf8bc11ee971ad132e51f035"),
    ],
)
def test_enum_cache_file_digest(space, digest):
    assert main(["enum", *space]) == 0
    path = shell.cache_path(space[0], int(space[1]), int(space[2]))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_emit_writes_json_in_batches_equal_to_one_dump(capsys):
    payload = {"n": 6000, "certificates": [{"y": list(range(i % 5)), "z": [i], "label": f"L{i % 3}"} for i in range(6000)]}
    assert sum(1 for _ in json.JSONEncoder(sort_keys=True, indent=2).iterencode(payload)) > 3 << 14  # several batches
    shell.emit(payload, True, ["not printed"])
    assert capsys.readouterr().out == json.dumps(payload, sort_keys=True, indent=2) + "\n"


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


def test_cli_search_text_reads_no_certificate_ids(capsys, monkeypatch):
    assert main(["search", "max-pairs", "Hodd", "2", "4", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)

    class IdFree(extremal.CrossPairCertificate):
        __slots__ = ()

        @property
        def y(self):
            raise AssertionError("the text output read a certificate's ids")

        z = y

    search = shell.enumerate_maximal_cross_pairs
    monkeypatch.setattr(
        shell,
        "enumerate_maximal_cross_pairs",
        lambda g, limit: [IdFree(c.ymask, c.zmask, c.label) for c in search(g, limit)],
    )
    assert main(["search", "max-pairs", "Hodd", "2", "4"]) == 0
    lines = [f"H(3,4): {payload['maximal_pairs']} maximal pairs, max product {payload['max_product']}"]
    lines += [f"  {lab}: {f['count']} pairs, products {f['products']}" for lab, f in payload["families"].items()]
    assert capsys.readouterr().out == "".join(line + "\n" for line in lines)


def test_cli_memory_error_exits_2(capsys, monkeypatch):
    def no_memory(cat):
        raise MemoryError

    monkeypatch.setattr(shell, "cross_graph", no_memory)
    assert main(["search", "max-pairs", "W", "2", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory\n"


def test_cli_search_negative_limit_is_a_usage_error(capsys):
    assert main(["search", "max-pairs", "W", "2", "2", "--limit", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: limit -1 is negative; the search stops past 2^limit closed sets\n"


def test_cli_search_limit_boundary_at_h34(capsys):
    # H(3,4) has 649 maximal pairs, one visited closed set each: 2^9 < 649 <= 2^10.
    assert main(["search", "max-pairs", "Hodd", "2", "4", "--limit", "9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: more than 2^9 closed sets; raise the limit\n"
    assert main(["search", "max-pairs", "Hodd", "2", "4", "--limit", "10"]) == 0
    assert capsys.readouterr().out.startswith("H(3,4): 649 maximal pairs")


@pytest.mark.parametrize("d", ["-1", "-2", "-3"])
def test_cli_verify_negative_rank_is_a_usage_error(capsys, d):
    assert main(["verify", "q-col-signs", "--d", d]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: rank must be >= 0, got {d}\n"


def test_cli_search_geometry_bug_exits_1(capsys, monkeypatch):
    counts = scheme.common_point_counts

    def no_count_of_a_subspace(cat):  # keeps "x meets y" intact, but no nonzero count is a [j]_q
        for true in counts(cat):
            yield np.where(true != 0, len(cat.points), 0)

    monkeypatch.setattr(scheme, "common_point_counts", no_count_of_a_subspace)
    assert main(["search", "max-pairs", "Qplus", "2", "2"]) == 1
    err = capsys.readouterr().err
    assert "verification failed" in err and "share a number of points that is no [j]_q" in err


def test_cli_enumeration_count_bug_exits_1(capsys, monkeypatch):
    # geom._generator_rows checks the search's count against the closed form.
    monkeypatch.setattr(geom, "num_generators", lambda family, d, q: 1 + qcount.num_generators(family, d, q))
    assert main(["scheme", "W", "2", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("verification failed: enumeration bug: found 15 generators of W(3,2)")
    assert captured.err.count("\n") == 1


def test_cli_example21_isometry_bug_exits_1(capsys, monkeypatch):
    # extremal._generators_through_subspaces checks each diag(A, C) is an isometry.
    monkeypatch.setattr(extremal, "_dual_blocks", lambda fld, inv: inv.transpose(0, 2, 1)[:, ::-1, ::-1])  # no sigma
    assert main(["verify", "example21"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("verification failed: H(7,4): diag(A, C) is not an isometry")
    assert captured.err.count("\n") == 1


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
        ("_maximality_lemma", lambda rel, cert: (0, False), "maximality lemma holds"),
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


# Every check at its defaults (q = 2, thm16 q = 3, q-col-signs d = 3), and
# at the other small q or d it takes.  Left out as too large for the suite:
# thm5-support and thm7 at q = 4 (Q+(7,4), 11 050 generators, 176 MB peak),
# thm20 at q = 4 (H(3,16)) and example21 at q = 4 (H(7,16)).
_PASS_REPORT_RUNS = (
    [(cid, {}) for cid in checks.CHECKS]
    + [(cid, {"q": q}) for cid in ("prop10", "lemma11", "lemma12") for q in (3, 4)]
    + [("thm16", {"q": q}) for q in (2, 4)]
    + [(cid, {"q": 3}) for cid in ("thm5-support", "thm7", "thm20", "example21")]
    + [("q-col-signs", {"d": 5})]
)


@pytest.mark.parametrize("check_id, kwargs", _PASS_REPORT_RUNS, ids=str)
def test_a_passing_report_states_no_false_detail(check_id, kwargs):
    rep = checks.run_check(check_id, **kwargs)
    if rep["status"] == "pass":
        assert not [line for line in rep["details"] if line.endswith(": False")], rep["details"]



@settings(max_examples=50, deadline=None, database=None)
@given(st.lists(st.booleans(), max_size=6))
def test_a_report_passes_exactly_when_every_claim_holds(holds):
    lines = [(f"claim {i}", h) for i, h in enumerate(holds)]
    rep = checks._report("lemma13", lines, space={"family": "W", "d": 2, "q": 3}, exact=Fraction(-7, 2))
    assert rep == {
        "check_id": "lemma13",
        "space": {"family": "W", "d": 2, "q": 3},
        "status": "pass" if all(holds) else "fail",
        "details": [f"claim {i}" for i in range(len(holds))],
        "exact": {"num": "-7", "den": "2"},
        "float": -3.5,
    }
    assert "exact" not in checks._report("lemma13", lines) and "float" not in checks._report("lemma13", lines)


def test_a_report_of_notes_only_passes():
    rep = checks.run_check("thm16", q=2)  # q even lies outside the statement: every line is a note
    assert rep["status"] == "pass"
    assert rep["details"][-1] == "q even: outside the statement, distribution reported only"

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


# Stubs lemma13 with a failed report, then runs polarb/__main__.py as -m does.
_FAILING_MAIN = (
    "import runpy, polarb.checks as c; "
    "c.CHECKS['lemma13'] = lambda: c._report('lemma13', [('stub', False)]); "
    "runpy.run_module('polarb', run_name='__main__', alter_sys=True)"
)


@pytest.mark.parametrize(
    "argv, code",
    [
        (["-m", "polarb", "verify", "lemma13", "--json"], 0),
        (["-c", _FAILING_MAIN, "verify", "lemma13", "--json"], 1),
        (["-m", "polarb", "info", "W", "0", "2"], 2),
        (["-m", "polarb", "definitely-not-a-command"], 2),
    ],
    ids=["pass", "fail", "bad-rank", "bad-command"],
)
def test_python_m_polarb_keeps_the_exit_codes(tmp_path, argv, code):
    env = dict(os.environ)
    root = str(Path(shell.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True, cwd=tmp_path, env=env)
    assert proc.returncode == code, proc.stderr
    if argv[-1] == "--json":
        assert json.loads(proc.stdout)["status"] == ("pass" if code == 0 else "fail")
