"""The classified connected minuscule posets and their tCDE verification.

The classification list is taken as given: chain products a x b, intervals
[empty, b^2] of Young's lattice, the propeller posets P_{a,1,1,a}, and the
two exceptional posets (16 and 27 elements).  The exceptional posets and
their certificate coefficients live in data files; the identity, checked on
all of J(P) at once as one quadratic form on the Gram counts (the squared
norm of its residual), is the acceptance gate for that transcription (any
typo that changes the identity breaks it).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .cde import _identity_holds, certify_tcde
from .ideals import DEFAULT_IDEAL_BUDGET, build_lattice
from .posets import Poset, chain, direct_product, is_isomorphic
from .serialize import rat_str
from .shapes import ShiftedShape, SkewShape, rectangle, staircase


def _load_exceptional(name: str) -> dict:
    with open(Path(__file__).with_name("data") / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def exceptional_poset(name: str) -> Poset:
    """P(E6) or P(E7), from the transcribed data file."""
    d = _load_exceptional(name.lower())
    return Poset(d["n"], [tuple(c) for c in d["covers"]])


def propeller_poset(a: int, b: int, c: int, d: int) -> Poset:
    """P_{a,b,c,d}: a chain of a, parallel chains of b and c, then a chain of d."""
    if min(a, b, c, d) < 1:
        raise ValueError("P_{a,b,c,d} needs positive parameters")
    n = a + b + c + d
    rels = []
    w = list(range(a))
    x = list(range(a, a + b))
    y = list(range(a + b, a + b + c))
    z = list(range(a + b + c, n))
    for seq in (w, x, y, z):
        rels.extend((seq[i], seq[i + 1]) for i in range(len(seq) - 1))
    rels.append((w[-1], x[0]))
    rels.append((w[-1], y[0]))
    rels.append((x[-1], z[0]))
    rels.append((y[-1], z[0]))
    return Poset(n, rels)


def chain_product_poset(a: int, b: int) -> Poset:
    if min(a, b) < 1:
        raise ValueError("chain product needs positive parameters")
    return direct_product(chain(a), chain(b))


def rectangle_interval_poset(b: int, budget: int = DEFAULT_IDEAL_BUDGET) -> Poset:
    """[empty, b^2] in Young's lattice, i.e. J(P_{b^2}) as a poset; ``budget``
    bounds the ideals of J(P_{b^2})."""
    if b < 1:
        raise ValueError("b must be >= 1")
    return build_lattice(SkewShape(rectangle(2, b)).poset(), budget=budget).as_poset()


@dataclass(frozen=True)
class MinusculeCase:
    tag: str
    params: tuple[int, ...]
    realized: Poset

    @property
    def name(self) -> str:
        if self.params:
            return f"{self.tag}({','.join(map(str, self.params))})"
        return self.tag


def _check_params(case: str, names: tuple[str, ...], params) -> None:
    """``params`` are ints; a family literal passes a field that is not one
    as its string."""
    takes = f"minuscule case {case} takes {len(names)}"
    s = "" if len(names) == 1 else "s"
    listed = f"parameter{s} ({', '.join(names)})"
    if len(params) != len(names):
        raise ValueError(f"{takes} {listed}, got {len(params)}")
    if not all(isinstance(p, int) for p in params):
        raise ValueError(f"{takes} integer {listed}, got {'x'.join(map(str, params))!r}")


# the tags that name the chain product a x b, whose literal is "AxB"
_AXB_TAGS = ("axb", "chainproduct")


def build_minuscule(tag: str, *params: int, budget: int = DEFAULT_IDEAL_BUDGET) -> MinusculeCase:
    """``budget`` bounds the ideals of the lattice that realizes case b2."""
    tag = tag.lower()
    if tag in _AXB_TAGS:
        _check_params("axb", ("a", "b"), params)
        return MinusculeCase("axb", params, chain_product_poset(*params))
    if tag in {"b2", "shiftedstaircasej"}:
        _check_params("b2", ("b",), params)
        return MinusculeCase("b2", params, rectangle_interval_poset(*params, budget=budget))
    if tag in {"pa11a", "propeller"}:
        _check_params("pa11a", ("a",), params)
        (a,) = params
        return MinusculeCase("pa11a", params, propeller_poset(a, 1, 1, a))
    if tag in {"e6", "e7"}:
        if params:
            raise ValueError(f"{tag.upper()} takes no parameters, got {params}")
        return MinusculeCase(tag.upper(), (), exceptional_poset(tag))
    raise ValueError(f"unknown minuscule case {tag!r}")


def parse_family(literal: str, budget: int = DEFAULT_IDEAL_BUDGET) -> MinusculeCase:
    """Family literals: minuscule:axb:3x4, minuscule:b2:4, minuscule:pa11a:3,
    minuscule:E6, minuscule:E7, and the aliases of ``build_minuscule`` (such
    as minuscule:chainproduct:3x4).  ``budget`` is passed to ``build_minuscule``."""
    parts = literal.split(":")
    if len(parts) not in (2, 3) or parts[0].lower() != "minuscule":
        raise ValueError(f"unknown family literal {literal!r}")
    if len(parts) == 2:
        return build_minuscule(parts[1], budget=budget)
    tag, arg = parts[1], parts[2]
    fields = arg.lower().split("x") if tag.lower() in _AXB_TAGS else [arg]
    try:
        params = [int(x) for x in fields]
    except ValueError:
        params = fields  # build_minuscule names the case and what it takes
    return build_minuscule(tag, *params, budget=budget)


def exceptional_identity_report(name: str) -> dict:
    """Check the pointwise certificate identity on J(P(E6)) or J(P(E7)).

    The identity is m * ddeg + sum_p kappa_p (T-_p - T+_p) = t * 1 on every
    ideal, i.e. t + sum_p kappa_p T_p = m * ddeg; it implies
    E(mu; ddeg) = t/m for every toggle-symmetric mu.  ``_identity_holds``
    decides it on all ideals at once, so a failure names no ideal.
    """
    d = _load_exceptional(name.lower())
    P = exceptional_poset(name)
    m, t = d["ddeg_multiplier"], d["target"]
    L = build_lattice(P)
    if not _identity_holds(L, t, d["kappa"], m):
        return {"case": d["name"], "holds": False, "note": "transcription bug: identity fails"}
    return {
        "case": d["name"],
        "holds": True,
        "n_ideals": L.n,
        "c": rat_str(Fraction(t, m)),
    }


def verify_e6_e7_certificates() -> dict:
    reports = [exceptional_identity_report("e6"), exceptional_identity_report("e7")]
    return {"cases": reports, "all_hold": all(r["holds"] for r in reports)}


def _certified_c(P: Poset) -> Optional[Fraction]:
    cert = certify_tcde(build_lattice(P))
    return None if cert is None else cert.c


def verify_minuscule_theorems() -> dict:
    """Certify tCDE for J(P) over the classified list (a x b for
    a <= b <= 4, the b2 intervals for b <= 4, the propellers for a <= 3, E6
    and E7), and for the minuscule posets themselves via their own
    realizations as ideal lattices."""
    cases = [
        (f"axb:{a}x{b}", chain_product_poset(a, b), Fraction(a * b, a + b))
        for a in range(1, 5)
        for b in range(a, 5)
    ]
    cases += [
        (f"b2:{b}", rectangle_interval_poset(b), Fraction(b + 2, 4))
        for b in range(1, 5)
    ]
    cases += [
        (f"pa11a:{a}", propeller_poset(a, 1, 1, a), Fraction(1))
        for a in range(1, 4)
    ]
    cases += [("E6", exceptional_poset("e6"), Fraction(4, 3))]
    cases += [("E7", exceptional_poset("e7"), Fraction(3, 2))]
    lattice_cases = []
    for label, P, expected in cases:
        c = _certified_c(P)
        lattice_cases.append(
            {
                "case": f"J({label})",
                "certified": c is not None,
                "c": None if c is None else rat_str(c),
                "expected_c": rat_str(expected),
            }
        )

    # the minuscule posets are themselves distributive lattices
    structural = {
        "J(P(E6)) iso P(E7)": is_isomorphic(
            build_lattice(exceptional_poset("e6")).as_poset(), exceptional_poset("e7")
        ),
        "[empty,3^2] iso shifted staircase delta_4": is_isomorphic(
            rectangle_interval_poset(3), ShiftedShape(staircase(4)).poset()
        ),
        "J(shifted delta_4) iso P(E6)": is_isomorphic(
            build_lattice(ShiftedShape(staircase(4)).poset()).as_poset(),
            exceptional_poset("e6"),
        ),
    }
    ok = (
        all(r["certified"] and r["c"] == r["expected_c"] for r in lattice_cases)
        and all(structural.values())
    )
    return {"lattice_cases": lattice_cases, "structural": structural, "all_hold": ok}
