import csv
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from cdeposets import cli
from cdeposets.cli import main
from cdeposets import (
    Distribution,
    IdealLattice,
    Poset,
    build_lattice,
    expectation,
    is_toggle_symmetric,
)
from cdeposets.shapes import parse_shape

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_analyze_fix_a(capsys):
    code, out = run(capsys, "analyze", "--poset", str(FIXTURES / "fix-a.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["edge_density"] == "1/1"
    assert doc["chain_expectations"] == ["1/1", "13/14", "1/1"]
    assert doc["is_cde"] is True and doc["is_mcde"] is False


def test_analyze_deterministic(capsys):
    _, first = run(capsys, "analyze", "--shape", "straight:3,2")
    _, second = run(capsys, "analyze", "--shape", "straight:3,2")
    assert first == second


def test_cert_tcde_shifted_staircase(capsys):
    code, out = run(capsys, "cert-tcde", "--shape", "shifted:3,2,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["certified"] is True and doc["c"] == "1/1"


def test_cert_tcde_refuted_produces_witness(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, _ = run(
        capsys,
        "cert-tcde",
        "--shape",
        "shifted:4,2",
        "--out",
        str(out_file),
    )
    assert code == 1
    doc = json.loads(out_file.read_text())
    assert doc["certified"] is False
    # round-trip: the emitted witness re-validates as toggle-symmetric
    L = build_lattice(parse_shape("shifted:4,2").poset())
    mu = Distribution([Fraction(w) for w in doc["witness"]["weights"]])
    assert is_toggle_symmetric(L, mu)
    assert expectation(mu, L.ddeg) == Fraction(doc["witness"]["expectation"])
    assert Fraction(doc["witness"]["expectation"]) != Fraction(doc["edge_density"])


def test_witness_verb(capsys):
    code, out = run(capsys, "witness", "--shape", "shifted:4,2")
    assert code == 0
    assert json.loads(out)["expectation"]
    code, out = run(capsys, "witness", "--shape", "shifted:3,2,1")
    assert code == 1
    assert json.loads(out)["witness"] is None


def test_homomesy_e6_gyration(capsys):
    code, out = run(capsys, "homomesy", "--family", "minuscule:E6", "--map", "gyration")
    assert code == 0
    doc = json.loads(out)
    assert doc["homomesic"] is True and doc["constant"] == "4/3"


def test_orbits_sigma(capsys):
    code, out = run(
        capsys, "orbits", "--shape", "straight:4,2", "--map", "sigma:1,3,0,2"
    )
    assert code == 0
    doc = json.loads(out)
    assert sum(doc["orbit_sizes"]) == 12


def test_count_tableaux(capsys):
    code, out = run(capsys, "count-tableaux", "--shape", "shifted:2,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["barely_formula"] == 48
    assert doc["barely_brute_force"] == 48
    assert doc["barely_diag_unprimed_formula"] == 8


@pytest.mark.parametrize("literal", ["straight:3,2", "shifted:3,2,1"])
def test_count_tableaux_builds_one_lattice(capsys, monkeypatch, literal):
    # every Poset, validated or trusted, comes out of the one closure step
    calls = {"IdealLattice": 0, "Poset": 0}
    for cls, step in ((IdealLattice, "__init__"), (Poset, "_close")):
        original = getattr(cls, step)

        def counting(self, *args, _step=original, _name=cls.__name__, **kwargs):
            calls[_name] += 1
            _step(self, *args, **kwargs)

        monkeypatch.setattr(cls, step, counting)
    code, _ = run(capsys, "count-tableaux", "--shape", literal)
    assert code == 0
    assert calls == {"IdealLattice": 1, "Poset": 1}


def test_count_tableaux_shifted_budget(capsys):
    code, out = run(capsys, "count-tableaux", "--shape", "shifted:4,2", "--budget", "5")
    assert code == 3
    assert json.loads(out) == {"error": "J(P) exceeds the ideal budget of 5"}


def test_scan_csv(capsys):
    code, out = run(
        capsys,
        "scan",
        "--family",
        "strict-partitions:5",
        "--predicate",
        "cde",
        "--format",
        "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("edge_density")
    assert len(lines) > 5
    # multi-part shape names hold commas; nulls are empty cells
    for family in ("straight-shapes:8", "strict-partitions:8"):
        for predicate in ("cde", "tcde"):
            code, out = run(
                capsys, "scan", "--family", family, "--predicate", predicate,
                "--format", "csv",
            )
            assert code == 0
            header, *body = csv.reader(io.StringIO(out))
            assert len(body) > 10
            assert all(len(row) == len(header) for row in body)
            assert "None" not in out


def test_family_verb(capsys):
    code, out = run(capsys, "family", "--family", "minuscule:axb:2x2")
    assert code == 0
    assert json.loads(out)["n"] == 4


def test_family_chainproduct_alias_reads_axb(capsys):
    """Every alias of the chain product takes the "AxB" literal."""
    code, out = run(capsys, "family", "--family", "minuscule:chainproduct:3x4")
    assert code == 0
    assert (code, out) == run(capsys, "family", "--family", "minuscule:axb:3x4")
    assert json.loads(out)["n"] == 12


@pytest.mark.parametrize(
    "literal, message",
    [
        ("minuscule:E6:3", "E6 takes no parameters, got (3,)"),
        ("minuscule:axb:2x3:9", "unknown family literal 'minuscule:axb:2x3:9'"),
        ("minuscule", "unknown family literal 'minuscule'"),
        ("minuscule:b2", "minuscule case b2 takes 1 parameter (b), got 0"),
        ("minuscule:pa11a", "minuscule case pa11a takes 1 parameter (a), got 0"),
        ("minuscule:axb:2x3x4", "minuscule case axb takes 2 parameters (a, b), got 3"),
        ("minuscule:axb:3", "minuscule case axb takes 2 parameters (a, b), got 1"),
        ("minuscule:b2:3x4", "minuscule case b2 takes 1 integer parameter (b), got '3x4'"),
        (
            "minuscule:axb:3xq",
            "minuscule case axb takes 2 integer parameters (a, b), got '3xq'",
        ),
        ("minuscule:pa11a:", "minuscule case pa11a takes 1 integer parameter (a), got ''"),
    ],
)
def test_family_literal_with_extra_or_missing_fields(capsys, literal, message):
    code, out = run(capsys, "family", "--family", literal)
    assert code == 2
    assert json.loads(out) == {"error": message}


@pytest.mark.parametrize(
    "verb, literal, message",
    [
        ("family", "skew:3,3/0,1", "parts must be weakly decreasing: (0, 1)"),
        ("family", "straight:2,0,1", "parts must be weakly decreasing: (2, 0, 1)"),
        ("family", "shifted:3,0,1", "parts must be weakly decreasing: (3, 0, 1)"),
        ("analyze", "straight:3,,1", "bad partition '3,,1': parts are comma-separated integers"),
    ],
)
def test_malformed_partition_is_an_input_error(capsys, verb, literal, message):
    """A zero part is dropped only at the end, and int()'s message never leaks."""
    code, out = run(capsys, verb, "--shape", literal)
    assert (code, json.loads(out)) == (2, {"error": message})


def test_trailing_zero_parts_are_accepted(capsys):
    code, out = run(capsys, "family", "--shape", "straight:2,1,0")
    assert code == 0
    report = json.loads(out)
    assert report.pop("input") == "straight:2,1,0"
    code, out = run(capsys, "family", "--shape", "straight:2,1")
    assert report == {k: v for k, v in json.loads(out).items() if k != "input"}


@pytest.mark.parametrize(
    "family, fmt",
    [
        ("straight-shapes:-1", "json"),
        ("straight-shapes:0", "csv"),
        ("strict-partitions:0", "json"),
    ],
)
def test_scan_bound_below_one_is_an_input_error(capsys, monkeypatch, family, fmt):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("shapes were enumerated")

    for name in ("iter_partitions", "iter_strict_partitions"):
        monkeypatch.setattr(f"cdeposets.cli.{name}", no_enumeration)
    code, out = run(capsys, "scan", "--family", family, "--format", fmt)
    assert code == 2
    message = f"scan bound must be at least 1, got {family.partition(':')[2]}"
    if fmt == "csv":
        assert list(csv.reader(io.StringIO(out))) == [["error"], [message]]
    else:
        assert json.loads(out) == {"error": message}


def test_input_errors(capsys):
    code, _ = run(capsys, "analyze", "--poset", "no-such-file.json")
    assert code == 2
    code, _ = run(capsys, "analyze", "--shape", "weird:1")
    assert code == 2
    code, _ = run(capsys, "analyze")
    assert code == 2
    code, _ = run(
        capsys,
        "analyze",
        "--shape",
        "straight:2",
        "--family",
        "minuscule:E6",
    )
    assert code == 2


def test_budget_exit_code(capsys):
    code, _ = run(capsys, "analyze", "--shape", "straight:4,4,4", "--budget", "5")
    assert code == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--shape", "straight:2,1", "--budget", "0"],
        ["cert-tcde", "--shape", "straight:2,1", "--budget", "-5"],
        ["witness", "--family", "minuscule:E6", "--budget", "0"],
        ["count-tableaux", "--shape", "shifted:2,1", "--budget", "-1"],
        ["scan", "--family", "straight-shapes:2", "--budget", "0"],
    ],
)
def test_budget_below_one_is_an_input_error(capsys, monkeypatch, argv):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("J(P) was enumerated")

    for module in ("ideals", "cli", "cde", "tableaux"):
        monkeypatch.setattr(f"cdeposets.{module}.build_lattice", no_enumeration)
    code, out = run(capsys, *argv)
    assert code == 2
    assert json.loads(out) == {
        "error": f"--budget must be at least 1, got {argv[-1]}"
    }


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"n": 2.5, "relations": []}, "n must be an integer >= 0, got 2.5"),
        ({"n": True, "relations": []}, "n must be an integer >= 0, got True"),
        ({"n": -1, "relations": []}, "n must be an integer >= 0, got -1"),
        (
            {"n": 2, "relations": [[0.9, 1]]},
            "relation ids must be integers, got [0.9, 1]",
        ),
        (
            {"n": 2, "relations": [[0, False]]},
            "relation ids must be integers, got [0, False]",
        ),
    ],
)
def test_poset_file_is_not_coerced(capsys, tmp_path, doc, message):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "analyze", "--poset", str(path))
    assert code == 2
    assert json.loads(out) == {"error": f"malformed poset document: {message}"}


def test_deeply_nested_poset_file_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "p.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code = main(["analyze", "--poset", str(path)])
    out, err = capsys.readouterr()
    assert code == 2
    assert json.loads(out) == {"error": "malformed poset document: nested too deeply"}
    assert err == ""


def test_extra_empty_full_flag(capsys):
    code, out = run(
        capsys, "cert-tcde", "--shape", "shifted:4,2", "--extra-empty-full"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["c"] == "6/5" and doc["empty_full"] == "-1/5"


def test_analyze_multichain_expectations(capsys):
    code, out = run(capsys, "analyze", "--shape", "straight:2,2", "--m", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["mchain_expectation"] == "1/1"
    assert doc["mmchain_expectation"] == "1/1"


def test_analyze_runs_one_chain_walk(capsys, monkeypatch):
    from cdeposets import distributions

    calls = {"_chain_polys": 0, "edges": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        distributions, "_chain_polys", counted("_chain_polys", distributions._chain_polys)
    )
    monkeypatch.setattr(IdealLattice, "edges", counted("edges", IdealLattice.edges))
    code, out = run(capsys, "analyze", "--family", "minuscule:axb:3x6", "--m", "2")
    assert code == 0
    doc = json.loads(out)
    assert {"mchain_expectation", "mmchain_expectation"} <= set(doc)
    assert calls == {"_chain_polys": 1, "edges": 0}


def test_analyze_negative_m_is_an_input_error(capsys):
    code, out = run(capsys, "analyze", "--shape", "straight:2,1", "--m", "-1")
    assert code == 2
    assert json.loads(out) == {"error": "m must be >= 0"}


def test_malformed_sigma_is_an_input_error(capsys):
    code, out = run(capsys, "orbits", "--shape", "straight:2,1", "--map", "sigma:0,x")
    assert code == 2
    assert json.loads(out) == {
        "error": "map sigma takes comma-separated integer ranks, got '0,x'"
    }


def test_poset_file_over_the_budget_exits_3_before_building(capsys, monkeypatch, tmp_path):
    # J(P) has at least n + 1 ideals, so n = 5 cannot fit a budget of 5
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"n": 5, "relations": [[0, 1]]}))

    def no_build(*args, **kwargs):
        raise AssertionError("the poset was built")

    with monkeypatch.context() as patch:
        patch.setattr("cdeposets.posets.Poset", no_build)
        for verb in ("analyze", "cert-tcde", "orbits"):
            code, out = run(capsys, verb, "--poset", str(path), "--budget", "5")
            assert code == 3, verb
            assert json.loads(out) == {"error": "J(P) exceeds the ideal budget of 5"}
    code, _ = run(capsys, "analyze", "--poset", str(path), "--budget", "6")
    assert code == 0


def test_shape_over_the_budget_exits_3_before_building(capsys, monkeypatch):
    # a shape of 5 boxes has at least 6 ideals, so it cannot fit a budget of 5;
    # J(3,2) has 9
    def no_build(*args, **kwargs):
        raise AssertionError("the shape poset was built")

    with monkeypatch.context() as patch:
        patch.setattr("cdeposets.shapes._Diagram.poset", no_build)
        for verb in ("analyze", "cert-tcde", "orbits", "count-tableaux"):
            code, out = run(capsys, verb, "--shape", "straight:3,2", "--budget", "5")
            assert code == 3, verb
            assert json.loads(out) == {"error": "J(P) exceeds the ideal budget of 5"}
    code, _ = run(capsys, "analyze", "--shape", "straight:3,2", "--budget", "9")
    assert code == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--shape", "straight:3000", "--budget", "5"],
        ["count-tableaux", "--shape", "straight:" + ",".join(["1"] * 150), "--budget", "5"],
    ],
    ids=["analyze-long-row", "count-tableaux-long-column"],
)
def test_large_shape_over_the_budget_exits_3_quickly(argv):
    src = str(Path(cli.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "cdeposets.cli", *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=30,
    )
    assert proc.returncode == 3, proc.stderr
    assert json.loads(proc.stdout) == {"error": "J(P) exceeds the ideal budget of 5"}


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_scan_budget_bounds_the_whole_scan(capsys, fmt):
    # every lattice of the scan is charged against one budget; with one
    # budget per lattice this scan ran for about 15 s
    start = time.perf_counter()
    code, out = run(
        capsys, "scan", "--family", "straight-shapes:55", "--budget", "720", "--format", fmt
    )
    assert time.perf_counter() - start < 1
    assert code == 3
    error = "J(P) exceeds the ideal budget of 720"
    if fmt == "json":
        assert json.loads(out) == {"error": error}
    else:
        assert out == f"error\n{error}\n"


def test_huge_poset_file_exits_3_in_a_capped_process(tmp_path):
    # run in a process whose address space is capped, so that allocating per
    # element of n = 10**9 fails fast instead of exhausting memory
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": 10**9, "relations": []}))
    cap = 256 << 20
    script = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap}))\n"
        "from cdeposets.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    for argv in (["analyze", "--poset", str(path)], ["family", "--poset", str(path)]):
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 3, proc.stderr
        assert json.loads(proc.stdout) == {
            "error": "J(P) exceeds the ideal budget of 16777216"
        }


def test_analyze_lattice_of_poset_file(capsys):
    code, out = run(
        capsys, "analyze", "--poset", str(FIXTURES / "fix-c.json"), "--lattice"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["edge_density"] == "8/5"
    assert doc["chain_expectations"][1] == "83/52"
    assert doc["is_cde"] is True and doc["is_mcde"] is False


def test_analyze_k_flag(capsys):
    code, out = run(capsys, "analyze", "--poset", str(FIXTURES / "fix-a.json"), "--k", "1")
    assert code == 0
    assert json.loads(out)["chain_expectation_k"] == "13/14"
    code, _ = run(capsys, "analyze", "--poset", str(FIXTURES / "fix-a.json"), "--k", "9")
    assert code == 2


def test_empty_poset_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text('{"n": 0, "relations": []}')
    code, out = run(capsys, "analyze", "--poset", str(path))
    assert code == cli.EXIT_INPUT
    assert "error" in json.loads(out)
    # J(empty) has one ideal, which is a fine lattice to analyze
    code, out = run(capsys, "analyze", "--poset", str(path), "--lattice")
    assert code == 0 and json.loads(out)["edge_density"] == "0/1"


def test_unexpected_exception_is_an_internal_error(capsys, monkeypatch):
    def broken(args):
        raise ZeroDivisionError("boom")

    monkeypatch.setitem(cli._HANDLERS, "analyze", broken)
    code = main(["analyze", "--shape", "straight:2"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INTERNAL == 4
    assert json.loads(captured.out) == {"error": "internal error: ZeroDivisionError: boom"}
    assert "Traceback" in captured.err


def test_back_to_back_calls_share_no_state(capsys):
    assert cli._parsers() is cli._parsers()
    code, out = run(capsys, "cert-tcde", "--shape", "shifted:4,2", "--extra-empty-full")
    assert code == 0
    code, out = run(capsys, "cert-tcde", "--shape", "shifted:4,2")
    assert code == 1 and json.loads(out)["certified"] is False
    code, out = run(capsys, "analyze", "--shape", "straight:2,2", "--m", "2", "--k", "1")
    assert {"mchain_expectation", "chain_expectation_k"} <= set(json.loads(out))
    code, out = run(capsys, "analyze", "--shape", "straight:2,2")
    assert not {"mchain_expectation", "chain_expectation_k"} & set(json.loads(out))
    code, out = run(capsys, "scan", "--family", "straight-shapes:3", "--format", "csv")
    assert out.startswith("edge_density,")
    code, out = run(capsys, "scan", "--family", "straight-shapes:3")
    assert isinstance(json.loads(out), list)


def test_verbs_reject_flags_they_do_not_read(capsys):
    import pytest

    for argv in (
        ["orbits", "--family", "minuscule:E6", "--m", "2"],
        ["family", "--family", "minuscule:E6", "--budget", "5"],
        ["count-tableaux", "--shape", "straight:2", "--map", "gyration"],
        ["scan", "--family", "straight-shapes:3", "--lattice"],
        ["witness", "--shape", "straight:2", "--format", "csv"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == cli.EXIT_INPUT
        assert "unrecognized arguments" in capsys.readouterr().err


def test_unwritable_out_is_an_input_error(capsys, tmp_path):
    target = tmp_path / "missing-dir" / "x.json"
    code, out = run(capsys, "analyze", "--shape", "straight:2", "--out", str(target))
    assert code == cli.EXIT_INPUT
    assert "No such file or directory" in json.loads(out)["error"]
    assert not target.exists()
    # a CSV report that cannot be written still reports its error as JSON
    code, out = run(
        capsys, "scan", "--family", "straight-shapes:3", "--format", "csv",
        "--out", str(target),
    )
    assert code == cli.EXIT_INPUT and "error" in json.loads(out)
