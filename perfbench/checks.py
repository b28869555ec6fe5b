"""Per-operation output checks.

Each check gets the exit code and the text a ``cli.main`` call wrote, and
raises CheckError when the output breaks a property the method must have or
disagrees with an independent oracle (see oracles.py).  None of them compares
against stored copies of earlier output.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import oracles as O


class CheckError(Exception):
    """An operation's output is wrong."""


def require(cond, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


@dataclass
class Input:
    """One poset given to the CLI, with what the theorems say about J(P).

    ``c``, ``size`` and ``order`` are closed forms (tCDE constant, |J| and
    rowmotion order) or None; ``tcde`` is True for a lattice proven tCDE,
    False for one known to be refuted, None when the benchmark does not know.
    """

    flag: str
    value: str
    n: int
    relations: list
    c: Optional[Fraction] = None
    size: Optional[int] = None
    order: Optional[int] = None
    tcde: Optional[bool] = None
    _oracle: Optional[O.Oracle] = field(default=None, repr=False)
    _density: Optional[Fraction] = field(default=None, repr=False)

    @property
    def args(self) -> list[str]:
        return [self.flag, self.value]

    @property
    def oracle(self) -> O.Oracle:
        if self._oracle is None:
            self._oracle = O.Oracle(self.n, self.relations)
        return self._oracle

    def lattice_size(self) -> int:
        n_ideals = len(self.oracle.ideals)
        require(self.size in (None, n_ideals), f"|J| closed form {self.size} != {n_ideals}")
        return n_ideals

    def density(self) -> Fraction:
        if self._density is None:
            d = self.oracle.density()
            require(self.c is None or self.c == d, f"density {d} != closed form {self.c}")
            self._density = d
        return self._density


def parse_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckError(f"output is not JSON: {exc}") from exc


# --- analyze -----------------------------------------------------------------

BRUTE_FORCE_MAX = 60  # largest lattice or poset whose chains are listed


def check_analyze(inp: Input, code, text, *, lattice: bool, k=None, m=None) -> None:
    require(code == 0, f"exit {code}")
    r = parse_json(text)
    o = inp.oracle
    if lattice:
        require(r["n"] == inp.lattice_size(), "n != |J|")
        density = inp.density()
        view = O.lattice_chain_view(o) if len(o.ideals) <= BRUTE_FORCE_MAX else None
        n_ranks = o.n + 1
    else:
        require(r["n"] == o.n, "n != |P|")
        view = O.poset_chain_view(o)
        density = Fraction(sum(view[3]), o.n)
        n_ranks = max(o.rank) + 1
    chains = [Fraction(x) for x in r["chain_expectations"]]
    maxexp = Fraction(r["maxchain_expectation"])
    require(Fraction(r["edge_density"]) == density, "edge density")
    require(len(chains) == n_ranks, "one chain expectation per chain length")
    require(chains[0] == density, "0-chains are uniform")
    if lattice:  # J(P) is graded: its longest chains are its maximal chains
        require(chains[-1] == maxexp, "top chain expectation != maxchain")
    require(r["is_cde"] == (maxexp == density), "is_cde flag")
    require(r["is_mcde"] == all(x == density for x in chains), "is_mcde flag")
    if k is not None:
        require(Fraction(r["chain_expectation_k"]) == chains[k], "chain_expectation_k")
    if m is not None:
        mexp, mmexp = Fraction(r["mchain_expectation"]), Fraction(r["mmchain_expectation"])
    if inp.tcde:
        require(all(x == density for x in chains + [maxexp]), "tCDE lattice: chain expectation != density")
        if m is not None:
            require(mexp == density and mmexp == density, "tCDE lattice: multichain expectation != density")
    if view is not None:
        elems, less, covers, ddeg = view
        try:
            require(O.chain_expectations(elems, less, ddeg) == chains, "brute-force chain expectations")
            require(O.maxchain_expectation(elems, covers, ddeg) == maxexp, "brute-force maxchain")
            if m is not None:
                got = O.multichain_expectations(elems, less, ddeg, m)
                require(got == (mexp, mmexp), "brute-force multichain expectations")
        except O.TooMany:
            pass


# --- cert-tcde and witness ------------------------------------------------------


def _check_witness(inp: Input, w) -> None:
    require(w is not None and w["kind"] == "tcde_witness", "refuted without a witness")
    o = inp.oracle
    weights = [Fraction(x) for x in w["weights"]]
    require(len(weights) == len(o.ideals), "one weight per ideal")
    require(all(x >= 0 for x in weights) and sum(weights) == 1, "witness is not a distribution")
    require(o.is_toggle_symmetric(weights), "witness is not toggle-symmetric")
    value = sum(x * o.ddeg(mask) for x, mask in zip(weights, o.ideals))
    require(Fraction(w["expectation"]) == value, "witness expectation")
    require(value != inp.density(), "witness expectation equals the density")


def check_cert(inp: Input, code, text) -> None:
    r = parse_json(text)
    if code == 0:
        require(inp.tcde is not False, "certified a lattice known to be refuted")
        require(r["certified"] is True and r["kind"] == "tcde_certificate", "certificate report")
        c, kappa = Fraction(r["c"]), [Fraction(x) for x in r["kappa"]]
        require(c == inp.density(), "certificate c != edge density")
        require(len(kappa) == inp.n, "one kappa per element")
        require(inp.oracle.certificate_holds(c, kappa), "certificate identity fails")
    else:
        require(code == 1, f"exit {code}")
        require(inp.tcde is not True, "refuted a lattice proven tCDE")
        require(r["certified"] is False, "refutation report")
        require(Fraction(r["edge_density"]) == inp.density(), "edge density")
        _check_witness(inp, r["witness"])


def check_witness(inp: Input, code, text) -> None:
    r = parse_json(text)
    if code == 0:
        require(inp.tcde is not True, "witness for a lattice proven tCDE")
        require(Fraction(r["edge_density"]) == inp.density(), "edge density")
        _check_witness(inp, r)
    else:
        require(code == 1, f"exit {code}")
        require(inp.tcde is not False, "no witness for a lattice known to be refuted")
        require(r["witness"] is None, "exit 1 carries no witness")


# --- dynamics --------------------------------------------------------------


def check_homomesy(inp: Input, code, text, map_spec: str) -> None:
    require(code == 0, f"exit {code}")
    r = parse_json(text)
    sizes = r["orbit_sizes"]
    averages = [Fraction(x) for x in r["orbit_averages"]]
    size = inp.lattice_size()
    require(sum(sizes) == size, "orbit sizes do not sum to |J|")
    require(len(averages) == len(sizes), "one average per orbit")
    require(r["map"] == map_spec, "map echoed")
    if inp.order is not None:
        require(O.orbit_order(sizes) == inp.order, "orbit order != Coxeter number")
    density = inp.density()
    total = sum(a * s for a, s in zip(averages, sizes))
    require(total == density * size, "orbit averages do not sum to sum(ddeg)")
    if inp.tcde:
        require(r["homomesic"] is True and Fraction(r["constant"]) == density, "not homomesic with c")
        require(all(a == density for a in averages), "orbit average != c")


def _mapper(o: O.Oracle, map_spec: str):
    if map_spec == "rowmotion":
        return o.rowmotion
    if map_spec == "gyration":
        r = len(o.rank_blocks)
        sigma = list(range(1, r, 2)) + list(range(0, r, 2))
    else:
        sigma = [int(x) for x in map_spec[len("sigma:"):].split(",")]
    return lambda mask: o.rank_permuted(mask, sigma)


def check_orbits(inp: Input, code, text, map_spec: str) -> None:
    require(code == 0, f"exit {code}")
    r = parse_json(text)
    o = inp.oracle
    size = inp.lattice_size()
    sizes, orbits = r["orbit_sizes"], r["orbits"]
    require(sum(sizes) == size, "orbit sizes do not sum to |J|")
    require([len(x) for x in orbits] == sizes, "orbit lengths")
    require(r["order"] == O.orbit_order(sizes), "order != lcm of orbit sizes")
    if inp.order is not None:
        require(r["order"] == inp.order, "order != Coxeter number")
    step = _mapper(o, map_spec)
    seen = set()
    for orbit in orbits:
        masks = [sum(1 << p for p in ideal) for ideal in orbit]
        for mask in masks:
            require(o.is_ideal(mask), "listed set is not down-closed")
        for a, b in zip(masks, masks[1:] + masks[:1]):
            require(step(a) == b, "orbit does not follow the map")
        seen.update(masks)
        if inp.tcde:
            require(Fraction(sum(o.ddeg(x) for x in masks), len(masks)) == inp.density(), "orbit average != c")
    require(len(seen) == size, "orbits do not partition J(P)")


# --- tableaux and scans ----------------------------------------------------


def shape_boxes(literal: str):
    kind, _, rest = literal.partition(":")
    if kind == "shifted":
        return O.shifted_boxes(O.parse_parts(rest))
    outer, _, inner = rest.partition("/")
    return O.skew_boxes(O.parse_parts(outer), O.parse_parts(inner))


def shape_input(literal: str, **known) -> Input:
    n, rels = O.box_poset(shape_boxes(literal))
    return Input("--shape", literal, n, rels, **known)


def check_count_tableaux(literal: str, code, text) -> None:
    require(code == 0, f"exit {code}")
    r = parse_json(text)
    kind, _, rest = literal.partition(":")
    boxes = shape_boxes(literal)
    extensions = O.Oracle(*O.box_poset(boxes)).linear_extensions()
    require(r["barely_formula"] == r["barely_brute_force"], "barely formula != brute force")
    if kind == "shifted":
        parts = O.parse_parts(rest)
        require(r["standard_unprimed"] == O.shifted_hook_product(parts) == extensions, "g^lambda")
        require(
            r["barely_diag_unprimed_formula"] == r["barely_diag_unprimed_brute_force"],
            "diagonally unprimed formula != brute force",
        )
        return
    require(r["standard"] == extensions, "standard count != linear extensions")
    if kind == "straight":
        require(r["standard_hook"] == O.hook_product(O.parse_parts(rest)) == extensions, "f^lambda")
    require(r["barely_formula"] == O.barely_count(boxes), "barely count != split-box extensions")


def scan_literals(family: str) -> list[str]:
    kind, _, bound = family.partition(":")
    strict = kind == "strict-partitions"
    prefix = "shifted:" if strict else "straight:"
    return [prefix + ",".join(map(str, p)) for p in O.partitions(int(bound), strict)]


def check_scan(family: str, predicate: str, code, text, shapes: dict) -> None:
    require(code == 0, f"exit {code}")
    rows = parse_json(text)
    kind, _, bound = family.partition(":")
    expected = O.partition_count(int(bound), strict=kind == "strict-partitions")
    require(len(rows) == expected, f"{len(rows)} scan rows, {expected} partitions")
    require(sorted(r["input"] for r in rows) == sorted(scan_literals(family)), "scan inputs")
    for row in rows:
        inp = shapes.get(row["input"]) or shapes.setdefault(row["input"], shape_input(row["input"]))
        density = inp.density()
        require(row["predicate"] == predicate, "predicate echoed")
        require(Fraction(row["edge_density"]) == density, f"{row['input']}: edge density")
        if predicate == "tcde":
            if row["holds"]:
                require(Fraction(row["c"]) == density, f"{row['input']}: c != density")
            if inp.tcde is not None:
                require(row["holds"] == inp.tcde, f"{row['input']}: tCDE theorem")
        else:
            maxexp = Fraction(row["maxchain_expectation"])
            if predicate == "cde":
                require(row["holds"] == (maxexp == density), f"{row['input']}: CDE flag")
            elif row["holds"]:
                require(maxexp == density, f"{row['input']}: mCDE without CDE")


def _cell(value) -> set:
    if value is None:
        return {""}
    if isinstance(value, bool):
        return {str(value), json.dumps(value)}
    return {str(value)}


def check_scan_csv(code, text, json_text: str) -> None:
    """Every CSV row parses to the header's width, with the JSON rows' cells."""
    require(code == 0, f"exit {code}")
    rows = parse_json(json_text)
    table = list(csv.reader(io.StringIO(text)))
    require(table, "empty CSV")
    header, body = table[0], table[1:]
    require(sorted(header) == sorted({k for r in rows for k in r}), "CSV header")
    require(len(body) == len(rows), "one CSV row per scan row")
    for line, row in zip(body, rows):
        require(len(line) == len(header), f"CSV row of width {len(line)}, header {len(header)}")
        for col, cell in zip(header, line):
            require(cell in _cell(row.get(col)), f"CSV cell {col}={cell!r}")


def check_input_error(code, text) -> None:
    """A degenerate input ends in exit 0 or 2 with a JSON body, not a traceback."""
    require(code in (0, 2), f"exit {code}")
    require(isinstance(parse_json(text), dict), "no JSON object")
