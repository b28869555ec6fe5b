"""Golden CLI corpus: every report must stay byte-identical.

Each case is one ``cli.main`` call run from the repository root; its
standard output is compared byte for byte with ``tests/golden/<name>.out``
and its exit code with ``tests/golden/exit_codes.json``.  Regenerate the
corpus (only when a report is meant to change) with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from cdeposets import build_lattice, certify_tcde, find_witness
from cdeposets.cli import main
from cdeposets.minuscule import parse_family
from cdeposets.posets import load_poset
from cdeposets.shapes import parse_shape

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

INPUTS = {
    "E6": ["--family", "minuscule:E6"],
    "E7": ["--family", "minuscule:E7"],
    "axb-4x5": ["--family", "minuscule:axb:4x5"],
    "shifted-4-2": ["--shape", "shifted:4,2"],
    "shifted-3-2-1": ["--shape", "shifted:3,2,1"],
    "straight-3-2": ["--shape", "straight:3,2"],
    "skew-4-3-2_2-1": ["--shape", "skew:4,3,2/2,1"],
    **{f"fix-{x}": ["--poset", f"fixtures/fix-{x}.json"] for x in "abcd"},
}
SHAPES = [name for name, args in INPUTS.items() if args[0] == "--shape"]
FIXTURES = [f"fix-{x}" for x in "abcd"]


def _cases() -> dict[str, list[str]]:
    cases = {}
    for name, args in INPUTS.items():
        for verb in ("analyze", "cert-tcde", "witness", "family"):
            cases[f"{verb}-{name}"] = [verb, *args]
        for verb in ("orbits", "homomesy"):
            for spec in ("rowmotion", "gyration"):
                cases[f"{verb}-{spec}-{name}"] = [verb, *args, "--map", spec]
        cases[f"analyze-k1-{name}"] = ["analyze", *args, "--k", "1"]
        cases[f"analyze-m2-{name}"] = ["analyze", *args, "--m", "2"]
        cases[f"cert-tcde-empty-full-{name}"] = ["cert-tcde", *args, "--extra-empty-full"]
    for name in FIXTURES:
        args = INPUTS[name]
        cases[f"analyze-lattice-{name}"] = ["analyze", *args, "--lattice"]
        cases[f"analyze-lattice-m3-{name}"] = ["analyze", *args, "--lattice", "--m", "3"]
        cases[f"analyze-m1-{name}"] = ["analyze", *args, "--m", "1"]
        cases[f"analyze-m3-{name}"] = ["analyze", *args, "--m", "3"]
    cases["analyze-m3-E7"] = ["analyze", *INPUTS["E7"], "--m", "3"]
    cases["orbits-sigma-axb-4x5"] = ["orbits", *INPUTS["axb-4x5"], "--map", "sigma:1,3,0,2,4,6,5,7"]
    cases["homomesy-sigma-E6"] = ["homomesy", *INPUTS["E6"], "--map", "sigma:10,9,8,7,6,5,4,3,2,1,0"]
    literals = [INPUTS[name][1] for name in SHAPES]
    literals += ["straight:4,3,2", "skew:4,3,3,3/2,2", "shifted:5,3,1", "shifted:2,1", "straight:1"]
    for lit in literals:
        cases[f"count-tableaux-{lit.replace(':', '-').replace(',', '-').replace('/', '_')}"] = [
            "count-tableaux", "--shape", lit,
        ]
    for family in ("straight-shapes:6", "strict-partitions:8"):
        stem = family.replace(":", "-")
        for predicate in ("cde", "mcde", "tcde"):
            scan = ["scan", "--family", family, "--predicate", predicate]
            cases[f"scan-{predicate}-{stem}"] = scan
            cases[f"scan-{predicate}-{stem}-csv"] = [*scan, "--format", "csv"]
    # errors and refusals
    cases["error-missing-poset"] = ["analyze", "--poset", "no-such-file.json"]
    cases["error-bad-shape"] = ["analyze", "--shape", "weird:1"]
    cases["error-two-sources"] = ["analyze", "--shape", "straight:2", "--family", "minuscule:E6"]
    cases["error-k-range"] = ["analyze", *INPUTS["fix-a"], "--k", "9"]
    cases["error-bad-map"] = ["orbits", *INPUTS["E6"], "--map", "spin"]
    cases["error-scan-family"] = ["scan", "--family", "partitions:4"]
    cases["error-scan-csv"] = ["scan", "--family", "partitions:4", "--format", "csv"]
    cases["error-budget"] = ["analyze", "--shape", "straight:4,4,4", "--budget", "5"]
    cases["error-budget-tableaux"] = ["count-tableaux", "--shape", "straight:4,4", "--budget", "5"]
    return cases


CASES = _cases()


def _run(argv) -> tuple[int, bytes]:
    buf = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(buf):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    return code, buf.getvalue().encode("utf-8")


@pytest.fixture(scope="module")
def exit_codes():
    return json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))


def test_corpus_covers_every_case(exit_codes):
    assert sorted(exit_codes) == sorted(CASES)
    # demo-NN.out hold the demos' output, checked in test_demos.py
    reports = {p.stem for p in GOLDEN.glob("*.out") if not p.stem.startswith("demo-")}
    assert reports == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name, exit_codes):
    code, out = _run(CASES[name])
    assert code == exit_codes[name]
    assert out == (GOLDEN / f"{name}.out").read_bytes()


def _lattice(args):
    flag, value = args
    if flag == "--family":
        return build_lattice(parse_family(value).realized)
    if flag == "--shape":
        return build_lattice(parse_shape(value).poset())
    return build_lattice(load_poset(ROOT / value))


def test_tcde_path_runs_no_per_ideal_check(exit_codes):
    """certify_tcde decides from the Gram residual, and ``cde.py`` has no
    per-ideal member lists to walk (``test_source_rules.py`` keeps ``_bits``
    out of it): cert-tcde, witness and scan --predicate tcde, and the
    library calls behind them, give their golden outputs."""
    tcde = [
        name
        for name, argv in CASES.items()
        if argv[0] in ("cert-tcde", "witness") or argv[0] == "scan" and "tcde" in argv
    ]
    assert len(tcde) == 3 * len(INPUTS) + 4
    for name in tcde:
        code, out = _run(CASES[name])
        assert code == exit_codes[name], name
        assert out == (GOLDEN / f"{name}.out").read_bytes(), name
    for name, args in INPUTS.items():
        L = _lattice(args)
        for stem, empty_full in (("cert-tcde", False), ("cert-tcde-empty-full", True)):
            golden = json.loads((GOLDEN / f"{stem}-{name}.out").read_text(encoding="utf-8"))
            cert = certify_tcde(L, empty_full)
            assert golden["certified"] == (cert is not None), name
            if cert is not None:
                assert cert.to_dict().items() <= golden.items(), name
        witness = find_witness(L)
        golden = json.loads((GOLDEN / f"cert-tcde-{name}.out").read_text(encoding="utf-8"))
        assert (None if witness is None else witness.to_dict()) == golden.get("witness"), name


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for case, argv in sorted(CASES.items()):
        codes[case], out = _run(argv)
        (GOLDEN / f"{case}.out").write_bytes(out)
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(codes, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
