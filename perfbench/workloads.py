"""The four workloads: their inputs, made from the seed, and their operations.

An operation is one ``cli.main`` call plus the check of what it printed.
Every round of a workload runs the same operations in the same order; the
seed changes inputs (rank permutations, relabelled posets, random posets,
``--k``/``--m`` values) but not how many operations there are.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import checks as C
import oracles as O

@dataclass
class Op:
    label: str
    argv: list[str]
    check: Callable  # check(code, text, outputs of this round by label)
    known_fault: bool = False  # fails today through a known program fault


class Inputs:
    """Posets by name, built from their definitions, for the checks."""

    def __init__(self, root: Path, workdir: Path, rng: random.Random):
        self.root = root
        self.workdir = workdir
        self.rng = rng
        self.shapes: dict[str, C.Input] = {}

    def family(self, tag: str, *params) -> C.Input:
        c, size, order = O.minuscule_constants(tag, params)
        if tag == "axb":
            n, rels = O.chain_product(*params)
            value = f"minuscule:axb:{params[0]}x{params[1]}"
        elif tag == "b2":
            n, rels = O.two_row_interval(*params)
            value = f"minuscule:b2:{params[0]}"
        elif tag == "pa11a":
            n, rels = O.propeller(*params)
            value = f"minuscule:pa11a:{params[0]}"
        else:
            n, rels = O.exceptional(self.root / "src" / "cdeposets" / "data" / f"{tag.lower()}.json")
            value = f"minuscule:{tag}"
        return C.Input("--family", value, n, rels, c=c, size=size, order=order, tcde=True)

    def shape(self, literal: str, tcde: Optional[bool] = None) -> C.Input:
        known = {"tcde": tcde}
        kind, _, rest = literal.partition(":")
        k = rest.count(",") + 1
        if kind == "shifted" and O.parse_parts(rest) == list(range(k, 0, -1)):
            # the shifted staircase of k rows is the type B_k minuscule poset
            known = {"tcde": True, "c": Fraction(k + 1, 4), "size": 2**k, "order": 2 * k}
        inp = C.shape_input(literal, **known)
        self.shapes[literal] = inp
        return inp

    def poset_file(self, name: str, n: int, rels, **known) -> C.Input:
        """Write a poset JSON file; the CLI reads only this file."""
        path = self.workdir / f"{name}.json"
        path.write_text(json.dumps({"n": n, "relations": [list(r) for r in rels]}) + "\n")
        return C.Input("--poset", path.relative_to(self.root).as_posix(), n, list(rels), **known)

    def fixture(self, name: str) -> C.Input:
        path = self.root / "fixtures" / f"{name}.json"
        d = json.loads(path.read_text())
        return C.Input("--poset", f"fixtures/{name}.json", d["n"], [tuple(r) for r in d["relations"]])

    def relabel(self, inp: C.Input, name: str, **known) -> C.Input:
        perm = list(range(inp.n))
        self.rng.shuffle(perm)
        rels = [(perm[p], perm[q]) for p, q in inp.relations]
        return self.poset_file(name, inp.n, rels, **known)

    def random_poset(self, name: str, n: int, lo: int, hi: int) -> C.Input:
        """A random poset on n elements whose J(P) has lo..hi ideals."""
        while True:
            perm = list(range(n))
            self.rng.shuffle(perm)
            p_edge = self.rng.uniform(0.15, 0.45)
            rels = [
                (perm[i], perm[j])
                for i in range(n)
                for j in range(i + 1, n)
                if self.rng.random() < p_edge
            ]
            if lo <= len(O.Oracle(n, rels).ideals) <= hi:
                return self.poset_file(name, n, rels)


def _sigma(rng: random.Random, ranks: int) -> str:
    perm = list(range(ranks))
    rng.shuffle(perm)
    return "sigma:" + ",".join(map(str, perm))


def _analyze(label, inp, extra=(), *, lattice=True, k=None, m=None) -> Op:
    argv = ["analyze", *inp.args, *extra]
    if k is not None:
        argv += ["--k", str(k)]
    if m is not None:
        argv += ["--m", str(m)]
    return Op(label, argv, lambda code, text, _: C.check_analyze(inp, code, text, lattice=lattice, k=k, m=m))


def _dyn(verb, inp, map_spec) -> Op:
    check = C.check_homomesy if verb == "homomesy" else C.check_orbits
    return Op(
        f"{verb} {inp.value} {map_spec}",
        [verb, *inp.args, "--map", map_spec],
        lambda code, text, _: check(inp, code, text, map_spec),
    )


def _cert(inp) -> Op:
    return Op(f"cert-tcde {inp.value}", ["cert-tcde", *inp.args], lambda code, text, _: C.check_cert(inp, code, text))


def _witness(inp) -> Op:
    return Op(f"witness {inp.value}", ["witness", *inp.args], lambda code, text, _: C.check_witness(inp, code, text))


def lattice_dynamics(I: Inputs) -> list[Op]:
    rng = I.rng
    e6, e7 = I.family("E6"), I.family("E7")
    return [
        _dyn("homomesy", I.family("axb", 7, 8), "rowmotion"),
        _dyn("homomesy", I.family("axb", 6, 8), "gyration"),
        _dyn("orbits", I.family("axb", 7, 7), "rowmotion"),
        _dyn("orbits", I.family("axb", 6, 7), "gyration"),
        _dyn("homomesy", I.family("axb", 6, 7), _sigma(rng, 12)),
        _dyn("orbits", I.family("axb", 6, 6), _sigma(rng, 11)),
        _dyn("homomesy", e6, "gyration"),
        _dyn("homomesy", e7, "rowmotion"),
        _dyn("homomesy", e7, _sigma(rng, 17)),
        _dyn("orbits", e6, "rowmotion"),
        _dyn("orbits", e7, "gyration"),
        _dyn("homomesy", I.family("b2", 6), "gyration"),
        _dyn("homomesy", I.family("pa11a", 4), "rowmotion"),
    ]


def tcde_solve(I: Inputs) -> list[Op]:
    e7 = I.family("E7")
    refuted = I.shape("straight:7,5,3,1", tcde=False)
    return [
        _cert(I.family("axb", 5, 5)),
        _cert(I.family("b2", 6)),
        _cert(I.family("E6")),
        _cert(e7),
        _cert(I.family("pa11a", 5)),
        _cert(I.shape("shifted:6,5,4,3,2,1")),
        _cert(I.shape("shifted:8,6,4,2", tcde=False)),
        _cert(refuted),
        _cert(I.shape("skew:7,6,5,4/3,1", tcde=False)),
        _witness(I.shape("shifted:6,4,2", tcde=False)),
        _witness(I.family("axb", 4, 5)),
        _cert(I.relabel(e7, "e7-relabelled", c=e7.c, size=e7.size, tcde=True)),
        _witness(I.relabel(refuted, "straight-7531-relabelled", tcde=False)),
    ]


def chain_stats(I: Inputs) -> list[Op]:
    rng = I.rng
    fixtures = {name: I.fixture(name) for name in ("fix-a", "fix-b", "fix-c", "fix-d")}
    fix_c = I.relabel(fixtures["fix-c"], "fix-c-relabelled")
    ops = [
        _analyze("analyze axb:5x6", I.family("axb", 5, 6)),
        _analyze("analyze axb:4x7 --k", I.family("axb", 4, 7), k=rng.randrange(29)),
        _analyze("analyze axb:3x6 --m", I.family("axb", 3, 6), m=2),
        _analyze("analyze b2:5 --m", I.family("b2", 5), m=2),
        _analyze("analyze E7 --m", I.family("E7"), m=3),
        _analyze("analyze shifted:10,8,6,4,2", I.shape("shifted:10,8,6,4,2", tcde=False)),
        _analyze("analyze skew:6,5,4/2 --m", I.shape("skew:6,5,4/2"), m=2),
        _analyze("analyze fix-b --lattice", fixtures["fix-b"], ["--lattice"]),
        _analyze("analyze fix-c relabelled --lattice --m", fix_c, ["--lattice"], m=rng.randint(1, 3)),
    ]
    for name, inp in fixtures.items():
        r = max(O.Oracle(inp.n, inp.relations).rank)
        ops.append(_analyze(f"analyze {name}", inp, lattice=False, k=rng.randint(0, r)))
        ops.append(_analyze(f"analyze {name} --m", inp, lattice=False, m=rng.randint(1, 3)))
    return ops


SCAN_STRAIGHT = "straight-shapes:8"
SCAN_STRICT = "strict-partitions:10"
SKEW_SHAPES = ("skew:3,2/1", "skew:4,3,2/2,1", "skew:3,3,3/1", "skew:4,4/2", "skew:5,3,1/2")
RANDOM_POSETS = 16


def shape_batch(I: Inputs) -> list[Op]:
    for literal in C.scan_literals(SCAN_STRICT):
        I.shape(literal, tcde=False if literal == "shifted:4,2" else None)

    def scan(predicate, family):
        return Op(
            f"scan {family} {predicate}",
            ["scan", "--family", family, "--predicate", predicate],
            lambda code, text, _: C.check_scan(family, predicate, code, text, I.shapes),
        )

    def count(literal):
        return Op(
            f"count-tableaux {literal}",
            ["count-tableaux", "--shape", literal],
            lambda code, text, _: C.check_count_tableaux(literal, code, text),
        )

    json_scan = f"scan {SCAN_STRAIGHT} cde"
    ops = [
        scan("tcde", SCAN_STRICT),
        scan("cde", SCAN_STRAIGHT),
        scan("mcde", SCAN_STRAIGHT),
        Op(
            f"scan {SCAN_STRAIGHT} csv",
            ["scan", "--family", SCAN_STRAIGHT, "--format", "csv"],
            lambda code, text, outputs: C.check_scan_csv(code, text, outputs[json_scan][1]),
            known_fault=True,
        ),
    ]
    ops += [count(s) for s in C.scan_literals("straight-shapes:9")]
    ops += [count(s) for s in C.scan_literals("strict-partitions:6")]
    ops += [count(s) for s in SKEW_SHAPES]
    for i in range(RANDOM_POSETS):
        inp = I.random_poset(f"random-{i:02d}", 5 + i % 4, 12, 60)
        ops.append(_analyze(f"analyze random-{i:02d} --lattice", inp, ["--lattice"]))
        ops.append(_cert(inp))
    empty = I.poset_file("empty", 0, [])
    ops.append(
        Op(
            "analyze empty poset",
            ["analyze", *empty.args],
            lambda code, text, _: C.check_input_error(code, text),
            known_fault=True,
        )
    )
    return ops


BUILDERS = {
    "lattice-dynamics": lattice_dynamics,
    "tcde-solve": tcde_solve,
    "chain-stats": chain_stats,
    "shape-batch": shape_batch,
}
WORKLOADS = tuple(BUILDERS)


def build(workload: str, seed: int, root: Path, workdir: Path) -> list[Op]:
    workdir.mkdir(parents=True, exist_ok=True)
    inputs = Inputs(root, workdir, random.Random(f"{workload}:{seed}"))
    ops = BUILDERS[workload](inputs)
    labels = [op.label for op in ops]
    if len(set(labels)) != len(labels):
        raise ValueError("operation labels must be unique")
    return ops
