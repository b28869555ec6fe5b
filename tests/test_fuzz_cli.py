"""Robustness gate: seeded mutations of valid CLI inputs.

Each run starts from a valid shape literal, family literal, scan family or
poset document, mutates it a little (a digit, a separator, a key, a JSON
type), picks a verb and a few of its flags, and calls ``cli.main``.  Every
run must end in a documented exit code with a JSON body (CSV under
``--format csv``) and nothing on stderr; the only exception is argparse's
usage error, exit 2 with a ``usage:`` line on stderr and nothing on stdout.
"""

import contextlib
import csv
import io
import json
import random

from cdeposets import cli

SHAPES = (
    "straight:3,2,1",
    "straight:4,4",
    "straight:2,2,1,1",
    "skew:4,3,2/1",
    "skew:7,6,5,4/3,1",
    "skew:3,3/2",
    "shifted:4,2",
    "shifted:3,2,1",
    "shifted:5,3,1",
)
FAMILIES = (
    "minuscule:axb:2x3",
    "minuscule:chainproduct:3x3",
    "minuscule:b2:3",
    "minuscule:pa11a:2",
    "minuscule:E6",
)
SCAN_FAMILIES = ("straight-shapes", "strict-partitions")
# --budget bounds the ideals of a whole scan, all of its lattices together,
# so a scan's run time is bounded by the budget as well as by these bounds
SCAN_BOUNDS = ("0", "1", "3", "6", "8", "-2", "x", "", "2.5")
POSETS = (
    {"n": 5, "relations": [[0, 2], [0, 3], [1, 2], [1, 3], [2, 4]]},
    {"n": 4, "relations": [[0, 1], [1, 2], [2, 3]], "labels": ["a", "b", "c", "d"]},
    {"n": 3, "relations": []},
    {"n": 0, "relations": []},
    {"n": 6, "relations": [[0, 3], [1, 3], [1, 4], [2, 4], [3, 5], [4, 5]]},
)
MAPS = ("rowmotion", "gyration", "sigma:0,1", "sigma:1,0,2", "sigma:")
BUDGETS = ("1", "3", "60", "300", "700", "700", "700", "700", "0", "-3")
JSON_ATOMS = (None, True, 1.5, -1, 0, 3, 5000, "2", [], {}, [[0]], [0, 1, 2], ["a"] * 3)

VERB_SOURCES = {
    "analyze": ("--poset", "--shape", "--family"),
    "cert-tcde": ("--poset", "--shape", "--family"),
    "witness": ("--poset", "--shape", "--family"),
    "orbits": ("--poset", "--shape", "--family"),
    "homomesy": ("--poset", "--shape", "--family"),
    "count-tableaux": ("--shape",),
    "scan": ("--family",),
    "family": ("--poset", "--shape", "--family"),
}


def _mutate_literal(rng, text: str) -> str:
    """One small edit of a literal: a digit, a separator or a character."""
    if not text or rng.random() < 0.5:
        return text
    i = rng.randrange(len(text))
    edit = rng.randrange(6)
    if edit == 0 and text[i].isdigit():
        return text[:i] + str(rng.randrange(10)) + text[i + 1 :]
    if edit == 1:
        return text[:i] + text[i + 1 :]
    if edit == 2:
        return text[:i] + rng.choice(",/:x-0 ") + text[i:]
    if edit == 3:
        return text[:i] + text[i] + text[i:]
    if edit == 4:
        return text.upper() if rng.random() < 0.5 else text[:i]
    return text + rng.choice((",0", ",1", "/1", ":2", "x2", ",-1"))


def _mutate_poset(rng, doc: dict):
    """A copy of the document with one field, relation or type changed."""
    doc = json.loads(json.dumps(doc))
    edit = rng.randrange(14)
    if edit == 0:
        doc["n"] = rng.choice(JSON_ATOMS)
    elif edit == 1 and doc["relations"]:
        rel = rng.choice(doc["relations"])
        rel[rng.randrange(2)] = rng.choice((-1, doc["n"], rel[0], 1.0, True, "0"))
    elif edit == 2:
        a = rng.randrange(max(doc["n"], 1))
        doc["relations"].append([a, rng.randrange(max(doc["n"], 1))])
    elif edit == 3:
        del doc[rng.choice(("n", "relations"))]
    elif edit == 4:
        doc[rng.choice(("relations", "labels"))] = rng.choice(JSON_ATOMS)
    elif edit == 5 and doc["relations"]:
        doc["relations"].append(list(reversed(doc["relations"][0])))
    elif edit == 6:
        return rng.choice(JSON_ATOMS)
    return doc


def _argv(rng, poset_path) -> list[str]:
    verb = rng.choice(list(VERB_SOURCES))
    argv = [verb]
    source = rng.choice(VERB_SOURCES[verb])
    if source == "--poset":
        doc = _mutate_poset(rng, rng.choice(POSETS))
        text = json.dumps(doc)
        if rng.random() < 0.05:
            text = text[: rng.randrange(len(text) + 1)]
        poset_path.write_text(text, encoding="utf-8")
        argv += ["--poset", str(poset_path)]
    elif source == "--shape":
        argv += ["--shape", _mutate_literal(rng, rng.choice(SHAPES))]
    elif verb == "scan":
        kind = _mutate_literal(rng, rng.choice(SCAN_FAMILIES))
        argv += ["--family", f"{kind}:{rng.choice(SCAN_BOUNDS)}"]
    else:
        argv += ["--family", _mutate_literal(rng, rng.choice(FAMILIES))]
    flags = cli._VERB_FLAGS[verb]
    if "--budget" in flags:
        argv += ["--budget", rng.choice(BUDGETS)]
    if "--map" in flags and rng.random() < 0.7:
        argv += ["--map", _mutate_literal(rng, rng.choice(MAPS))]
    if "--k" in flags and rng.random() < 0.3:
        argv += ["--k", str(rng.randrange(-1, 5))]
    if "--m" in flags and rng.random() < 0.3:
        argv += ["--m", str(rng.randrange(-1, 4))]
    for flag in ("--lattice", "--extra-empty-full"):
        if flag in flags and rng.random() < 0.5:
            argv.append(flag)
    if "--predicate" in flags:
        argv += ["--predicate", rng.choice(("cde", "mcde", "tcde", "tcde"))]
    if "--format" in flags and rng.random() < 0.5:
        argv += ["--format", "csv"]
    if rng.random() < 0.03:  # a flag this verb does not take, or a bad value
        argv += rng.choice(
            (["--k", "x"], ["--budget", "1e3"], ["--predicate", "bcde"], ["--bogus"], ["--m"])
        )
    return argv


def _check_csv(text: str) -> None:
    rows = list(csv.reader(io.StringIO(text)))
    assert rows and rows[0] == sorted(rows[0])
    assert all(len(row) == len(rows[0]) for row in rows)


def test_mutated_inputs_end_in_documented_exit_codes(tmp_path):
    rng = random.Random(1606)
    poset_path = tmp_path / "poset.json"
    verbs = set()
    codes = set()
    for _ in range(1000):
        argv = _argv(rng, poset_path)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's usage error
                assert exc.code == 2, argv
                assert err.getvalue().startswith("usage:"), argv
                assert out.getvalue() == "", argv
                continue
        assert err.getvalue() == "", (argv, err.getvalue())
        assert code in (0, 1, 2, 3), (argv, out.getvalue())
        if "csv" in argv:
            _check_csv(out.getvalue())
        else:
            json.loads(out.getvalue())
        verbs.add(argv[0])
        codes.add(code)
    assert verbs == set(VERB_SOURCES)
    assert codes == {0, 1, 2, 3}
