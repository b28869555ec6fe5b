"""Command-line front end.

Verbs: analyze, cert-tcde, witness, orbits, homomesy, count-tableaux, scan,
family.  Exactly one input source per invocation (--poset FILE, --shape LIT,
or --family LIT).  Exit codes: 0 success, 1 property refuted (a witness
exists when certifying, or no witness exists when one was requested),
2 input error (including the empty poset given to ``analyze --poset``, which
has no edge density, and a ``--budget`` or ``scan`` bound below 1), 3 budget
exceeded (also by a poset file of n >= budget elements or a shape of
n >= budget boxes, refused before P is built, as J(P) has at least n + 1
ideals, and by a ``scan`` whose lattices together hold more ideals than the
budget), 4 internal error (any other exception, such as a failed
self-check).  Codes 2-4 write the object {"error": ...} as JSON, or, for
``scan --format csv``, as a one-column CSV (the header ``error``, then the
message).  Malformed flags are the exception: argparse reports them on
stderr with code 2.  An internal error also prints its traceback to stderr.
Each verb accepts only the flags it reads (see ``_VERB_FLAGS``), spelled out
in full.  An ``--out`` file that cannot be opened is an input error whose
JSON goes to standard output.

``analyze --poset`` reports on the poset in the file itself (the
counterexample fixtures are studied directly); every other lattice verb, and
``analyze`` on shapes/families, works on the ideal lattice J(P).
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import sys
from fractions import Fraction

from .cde import _refute, cde_report, certify_tcde, find_witness, scan_family
from .dynamics import (
    antichain_cardinality,
    gyration_map,
    homomesy_report,
    orbit_decomposition,
    rank_permuted_rowmotion_map,
    rowmotion_map,
)
from .ideals import DEFAULT_IDEAL_BUDGET, LatticeBudgetError, build_lattice
from .minuscule import parse_family
from .posets import PosetError, poset_from_dict
from .serialize import Bitsets, dumps, rat_str
from .shapes import (
    ShiftedShape,
    SkewShape,
    iter_partitions,
    iter_strict_partitions,
    parse_shape,
)
from .tableaux import tableau_counts

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


_FLAGS = {
    "--poset": {"metavar": "FILE"},
    "--shape": {"metavar": "LIT"},
    "--family": {"metavar": "LIT"},
    "--map": {"dest": "map_spec", "default": "rowmotion"},
    "--k": {"type": int, "default": None},
    "--m": {"type": int, "default": None},
    "--lattice": {"action": "store_true"},
    "--extra-empty-full": {"action": "store_true"},
    "--predicate": {"choices": ("cde", "mcde", "tcde"), "default": "cde"},
    "--format": {"dest": "fmt", "choices": ("json", "csv"), "default": "json"},
    "--budget": {"type": int, "default": DEFAULT_IDEAL_BUDGET},
    "--out": {"metavar": "FILE", "default": None},
}
_SOURCES = ("--poset", "--shape", "--family")

# each verb takes only the flags its handler reads, plus --out
_VERB_FLAGS = {
    "analyze": (*_SOURCES, "--k", "--m", "--lattice", "--budget"),
    "cert-tcde": (*_SOURCES, "--extra-empty-full", "--budget"),
    "witness": (*_SOURCES, "--budget"),
    "orbits": (*_SOURCES, "--map", "--budget"),
    "homomesy": (*_SOURCES, "--map", "--budget"),
    "count-tableaux": ("--shape", "--budget"),
    "scan": ("--family", "--predicate", "--format", "--budget"),
    "family": _SOURCES,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="cdeposets")
    sub = p.add_subparsers(dest="verb", required=True)
    for verb, flags in _VERB_FLAGS.items():
        # no prefix matching, or `orbits --m 2` would be read as `--map 2`
        sp = sub.add_parser(verb, allow_abbrev=False)
        sp.set_defaults(fmt="json")
        for flag in (*flags, "--out"):
            sp.add_argument(flag, **_FLAGS[flag])
    return p


def _check_size(n: int, budget: int) -> None:
    """J(P) has at least n + 1 ideals: refuse before anything per element."""
    if n >= budget:
        raise LatticeBudgetError(f"J(P) exceeds the ideal budget of {budget}")


def _shape(lit: str, budget: int):
    shape = parse_shape(lit)
    _check_size(shape.n_boxes, budget)
    return shape


def _resolve_input(args):
    """Returns (description, base poset)."""
    sources = [s for s in (args.poset, args.shape, args.family) if s]
    if len(sources) != 1:
        raise PosetError("exactly one of --poset/--shape/--family is required")
    budget = getattr(args, "budget", DEFAULT_IDEAL_BUDGET)
    if args.poset:
        with open(args.poset, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except RecursionError:
                raise PosetError("malformed poset document: nested too deeply") from None
        n = doc.get("n") if isinstance(doc, dict) else None
        if type(n) is int:
            _check_size(n, budget)
        return f"poset:{args.poset}", poset_from_dict(doc)
    if args.shape:
        return args.shape, _shape(args.shape, budget).poset()
    case = parse_family(args.family, budget=budget)
    return case.name, case.realized


def _mapping(L, spec: str):
    spec = spec.strip()
    if spec == "rowmotion":
        return rowmotion_map(L)
    if spec == "gyration":
        return gyration_map(L)
    if spec.startswith("sigma:"):
        ranks = spec[len("sigma:") :]
        try:
            sigma = [int(x) for x in ranks.split(",")]
        except ValueError:
            raise PosetError(
                f"map sigma takes comma-separated integer ranks, got {ranks!r}"
            ) from None
        return rank_permuted_rowmotion_map(L, sigma)
    raise PosetError(f"unknown map {spec!r}")


def _render(report, fmt: str) -> str:
    if fmt == "csv":
        import csv

        rows = report if isinstance(report, list) else [report]
        cols = sorted({k for r in rows for k in r})
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(cols)
        writer.writerows([r.get(c) for c in cols] for r in rows)
        return buf.getvalue()
    return dumps(report) + "\n"


def _analyze(args) -> tuple[int, object]:
    name, P = _resolve_input(args)
    if args.poset and not args.lattice:
        target = P
    else:
        target = build_lattice(P, budget=args.budget)
    result = cde_report(target)
    report = result.to_dict()
    report["input"] = name
    if args.k is not None:
        chains = report["chain_expectations"]
        if not 0 <= args.k < len(chains):
            raise PosetError(f"--k {args.k} out of range 0..{len(chains) - 1}")
        report["chain_expectation_k"] = chains[args.k]
    if args.m is not None:
        mchain, mmchain = result.multichain_expectations(args.m)
        report["mchain_expectation"] = rat_str(mchain)
        report["mmchain_expectation"] = rat_str(mmchain)
    return EXIT_OK, report


def _cert(args) -> tuple[int, object]:
    name, P = _resolve_input(args)
    L = build_lattice(P, budget=args.budget)
    cert = certify_tcde(L, args.extra_empty_full)
    if cert is not None:
        report = cert.to_dict()
        report["input"] = name
        report["certified"] = True
        return EXIT_OK, report
    # refuted with the extra column, so refuted without it: a witness exists
    report = {
        "input": name,
        "certified": False,
        "witness": _refute(L).to_dict(),
        "edge_density": rat_str(Fraction(L.edge_count(), L.n)),
    }
    return EXIT_REFUTED, report


def _witness(args) -> tuple[int, object]:
    name, P = _resolve_input(args)
    L = build_lattice(P, budget=args.budget)
    witness = find_witness(L)
    if witness is None:
        return EXIT_REFUTED, {
            "input": name,
            "witness": None,
            "note": "lattice is tCDE; no witness exists",
        }
    report = witness.to_dict()
    report["input"] = name
    report["edge_density"] = rat_str(Fraction(L.edge_count(), L.n))
    return EXIT_OK, report


def _orbits(args) -> tuple[int, object]:
    name, P = _resolve_input(args)
    L = build_lattice(P, budget=args.budget)
    dec = orbit_decomposition(L, _mapping(L, args.map_spec))
    ideals = L.ideals
    report = {
        "input": name,
        "map": args.map_spec,
        "orbit_sizes": dec.sizes,
        "order": dec.order(),
        "orbits": [Bitsets([ideals[i] for i in orbit]) for orbit in dec.orbits],
    }
    return EXIT_OK, report


def _homomesy(args) -> tuple[int, object]:
    name, P = _resolve_input(args)
    L = build_lattice(P, budget=args.budget)
    report = homomesy_report(L, _mapping(L, args.map_spec), antichain_cardinality(L))
    report["input"] = name
    report["map"] = args.map_spec
    report["statistic"] = "antichain_cardinality"
    return EXIT_OK, report


def _count_tableaux(args) -> tuple[int, object]:
    if not args.shape:
        raise PosetError("count-tableaux needs --shape")
    report = tableau_counts(_shape(args.shape, args.budget), budget=args.budget)
    report["input"] = args.shape
    return EXIT_OK, report


def _scan(args) -> tuple[int, object]:
    if not args.family:
        raise PosetError(
            "scan needs --family straight-shapes:N or strict-partitions:N"
        )
    kind, _, bound = args.family.partition(":")
    try:
        max_size = int(bound)
    except ValueError as exc:
        raise PosetError(f"bad scan bound {bound!r}") from exc
    if max_size < 1:
        raise PosetError(f"scan bound must be at least 1, got {max_size}")
    if kind == "straight-shapes":
        items = (
            (f"straight:{','.join(map(str, lam.parts))}", SkewShape(lam).poset())
            for lam in iter_partitions(max_size)
        )
    elif kind == "strict-partitions":
        items = (
            (f"shifted:{','.join(map(str, lam.parts))}", ShiftedShape(lam).poset())
            for lam in iter_strict_partitions(max_size)
        )
    else:
        raise PosetError(f"unknown scan family {kind!r}")
    rows = list(scan_family(items, args.predicate, budget=args.budget))
    return EXIT_OK, rows


def _family(args) -> tuple[int, object]:
    name, P = _resolve_input(args)
    report = P.to_dict()
    report["input"] = name
    return EXIT_OK, report


_HANDLERS = {
    "analyze": _analyze,
    "cert-tcde": _cert,
    "witness": _witness,
    "orbits": _orbits,
    "homomesy": _homomesy,
    "count-tableaux": _count_tableaux,
    "scan": _scan,
    "family": _family,
}


def _run(args) -> tuple[int, object]:
    try:
        # J(P) always holds the empty ideal, so no lattice fits a budget below 1
        budget = getattr(args, "budget", DEFAULT_IDEAL_BUDGET)
        if budget < 1:
            raise PosetError(f"--budget must be at least 1, got {budget}")
        return _HANDLERS[args.verb](args)
    except LatticeBudgetError as exc:
        return EXIT_BUDGET, {"error": str(exc)}
    except (ValueError, OSError) as exc:
        return EXIT_INPUT, {"error": str(exc)}
    except Exception as exc:
        import traceback

        traceback.print_exc()
        return EXIT_INTERNAL, {"error": f"internal error: {type(exc).__name__}: {exc}"}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    code, report = _run(args)
    text = _render(report, args.fmt)
    if not args.out:
        sys.stdout.write(text)
        return code
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        sys.stdout.write(_render({"error": str(exc)}, "json"))
        return EXIT_INPUT
    return code


if __name__ == "__main__":
    sys.exit(main())
