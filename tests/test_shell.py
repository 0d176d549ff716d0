import json
from fractions import Fraction
from types import SimpleNamespace

import pytest

from polarb import checks, shell
from polarb.scheme import SchemeError, build_relations
from polarb.shell import CacheError, cache_read, cache_write, main


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("POLARB_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path


def descriptor(cat):
    ps = cat.space
    return (ps.family, ps.d, ps.field.p, ps.field.k)


def test_cache_round_trip_is_byte_identical(catalog, tmp_path):
    cat = catalog("W", 2, 3)
    p1 = tmp_path / "a.plb"
    p2 = tmp_path / "b.plb"
    cache_write(cat, p1)
    read, rel = cache_read(p1, descriptor(cat))
    assert rel is None
    assert [g.basis for g in read.generators] == [g.basis for g in cat.generators]
    cache_write(read, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_cache_relation_section(catalog, tmp_path):
    cat = catalog("Qparabolic", 2, 2)
    rel = build_relations(cat)
    path = tmp_path / "with-rel.plb"
    cache_write(cat, path, rel=rel)
    read, rel2 = cache_read(path, descriptor(cat))
    assert rel2 is not None
    assert rel2.rows == rel.rows
    assert rel2.valencies == rel.valencies


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


def test_cli_scheme_check_rank0(capsys):
    assert main(["scheme", "W", "0", "2", "--check", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 1
    assert payload["checked"] is True
    assert payload["P"] == [[1]]


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
