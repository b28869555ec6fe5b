"""Layer spans recorded from outside the library.

``Tracer.install`` replaces the public functions of the cdeposets modules,
and a few methods, with timing wrappers, rebinding every module attribute
that pointed at the original so that calls between modules are caught as
well.  No library file changes.  Each wrapper records a span (id, parent id,
operation id, name, start, end) in memory; spans are written out when the
run ends.  Self time is a span's duration minus the time its child spans
cover.

Not wrapped: generator functions (their work happens in the consumer, which
gets the time) and the per-ideal helpers in ``HOT``, which run once per
ideal and element inside the maps that call them; their time is the self
time of those maps.
"""

from __future__ import annotations

import inspect
import json
import sys
import tracemalloc
from collections import Counter, defaultdict
from time import perf_counter

MODULES = (
    "posets",
    "ideals",
    "distributions",
    "linalg",
    "cde",
    "dynamics",
    "shapes",
    "minuscule",
    "tableaux",
    "cli",
)

METHODS = {
    "posets": [("Poset", "__init__")],
    "ideals": [("IdealLattice", "as_poset")],
    "shapes": [("SkewShape", "poset"), ("ShiftedShape", "poset")],
    "cde": [("TcdeCertificate", "validate"), ("TcdeWitness", "validate")],
}

HOT = {
    "ideals.toggle",
    "ideals.toggleability",
    "ideals.jaggedness",
    "dynamics.rowmotion",
    "dynamics.apply_toggle_word",
    "dynamics.rank_toggle",
}

# per-layer time metric -> spans whose self time it sums
TIME_METRICS = {
    "ideals.build_lattice_s": ["ideals.build_lattice"],
    "ideals.as_poset_s": ["ideals.IdealLattice.as_poset"],
    "posets.construct_s": ["posets.Poset.__init__", "posets.build_poset"],
    "linalg.solve_s": ["linalg.solve"],
    "cde.certify_tcde_s": ["cde.certify_tcde"],
    "cde.find_witness_s": ["cde.find_witness"],
    "cde.validate_s": ["cde.TcdeCertificate.validate", "cde.TcdeWitness.validate"],
    "cde.cde_report_s": ["cde.cde_report"],
    "distributions.chain_tables_s": [
        "distributions.chains_ending_at",
        "distributions.chains_starting_at",
        "distributions.chain_counts_through",
        "distributions.chain_count",
        "distributions.chain_dist",
    ],
    "distributions.mchain_s": ["distributions.mchain_dist", "distributions.multichain_count"],
    "distributions.mmchain_s": ["distributions.mmchain_dist"],
    "distributions.maxchain_s": ["distributions.maxchain_dist"],
    "distributions.expectation_s": ["distributions.expectation"],
    "distributions.is_toggle_symmetric_s": ["distributions.is_toggle_symmetric"],
    "dynamics.rowmotion_map_s": ["dynamics.rowmotion_map"],
    "dynamics.rank_permuted_map_s": [
        "dynamics.rank_permuted_rowmotion_map",
        "dynamics.gyration_map",
    ],
    "dynamics.orbit_decomposition_s": ["dynamics.orbit_decomposition"],
    "dynamics.homomesy_report_s": ["dynamics.homomesy_report"],
    "tableaux.brute_force_s": [
        "tableaux.enumerate_barely",
        "tableaux.enumerate_shifted_barely",
        "tableaux.barely_fillings",
    ],
    "tableaux.formula_s": [
        "tableaux.count_barely_formula",
        "tableaux.count_shifted_barely_formula",
    ],
    "tableaux.standard_count_s": [
        "tableaux.f_aitken",
        "tableaux.f_hook",
        "tableaux.g_thrall",
        "tableaux.hook_lengths",
        "tableaux.shifted_hook_lengths",
        "tableaux.count_linear_extensions",
    ],
    "shapes.parse_shape_s": ["shapes.parse_shape", "shapes.parse_partition"],
    "shapes.poset_s": [
        "shapes.SkewShape.poset",
        "shapes.ShiftedShape.poset",
        "shapes.skew_poset",
        "shapes.shifted_poset",
    ],
    "minuscule.parse_family_s": [
        "minuscule.parse_family",
        "minuscule.build_minuscule",
        "minuscule.chain_product_poset",
        "minuscule.rectangle_interval_poset",
        "minuscule.propeller_poset",
        "minuscule.exceptional_poset",
    ],
    "cli.main_self_s": ["cli.main"],
}

COUNT_METRICS = (
    "ideals.build_lattice_calls",
    "ideals.ideals_built",
    "ideals.as_poset_calls",
    "posets.elements_built",
    "linalg.solve_calls",
    "linalg.solve_cells",
    "distributions.expectation_calls",
    "cli.output_bytes",
)


def _count_build_lattice(counts, args, kwargs, result):
    counts["ideals.build_lattice_calls"] += 1
    counts["ideals.ideals_built"] += result.n


def _count_as_poset(counts, args, kwargs, result):
    counts["ideals.as_poset_calls"] += 1


def _count_poset(counts, args, kwargs, result):
    counts["posets.elements_built"] += args[1] if len(args) > 1 else kwargs["n"]


def _count_solve(counts, args, kwargs, result):
    matrix = args[0] if args else kwargs["matrix"]
    counts["linalg.solve_calls"] += 1
    counts["linalg.solve_cells"] += len(matrix) * (len(matrix[0]) if matrix else 0)


def _count_expectation(counts, args, kwargs, result):
    counts["distributions.expectation_calls"] += 1


COUNTERS = {
    "ideals.build_lattice": _count_build_lattice,
    "ideals.IdealLattice.as_poset": _count_as_poset,
    "posets.Poset.__init__": _count_poset,
    "linalg.solve": _count_solve,
    "distributions.expectation": _count_expectation,
}


class Tracer:
    """Span recorder; one per traced process."""

    def __init__(self):
        self.spans = []  # (span id, parent id, op id, name, start, end)
        self.stack = []  # [span id, time covered by children]
        self.next_id = 0
        self.op = None
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self.measure_alloc = False
        self.alloc_peak = 0

    def install(self, package) -> None:
        targets = []
        for short in MODULES:
            mod = sys.modules[f"{package}.{short}"]
            for name, fn in vars(mod).items():
                if (
                    inspect.isfunction(fn)
                    and not name.startswith("_")
                    and fn.__module__ == mod.__name__
                    and not inspect.isgeneratorfunction(fn)
                    and f"{short}.{name}" not in HOT
                ):
                    targets.append((f"{short}.{name}", fn))
            for cls_name, meth in METHODS.get(short, ()):
                cls = getattr(mod, cls_name)
                wrapped = self.wrap(f"{short}.{cls_name}.{meth}", getattr(cls, meth))
                setattr(cls, meth, wrapped)
        replace = {id(fn): self.wrap(name, fn) for name, fn in targets}
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == package or mod_name.startswith(package + "."):
                for attr, value in list(vars(mod).items()):
                    if id(value) in replace and inspect.isfunction(value):
                        setattr(mod, attr, replace[id(value)])

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)
        alloc = name == "ideals.build_lattice"
        spans, stack, self_time = self.spans, self.stack, self.self_time

        def traced(*args, **kwargs):
            span = self.next_id
            self.next_id += 1
            parent = stack[-1][0] if stack else None
            tracking = alloc and self.measure_alloc
            if tracking:
                tracemalloc.start()
            stack.append([span, 0.0])
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                _, covered = stack.pop()
                if tracking:
                    self.alloc_peak = max(self.alloc_peak, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                self_time[name] += end - start - covered
                if stack:
                    stack[-1][1] += end - start
                spans.append((span, parent, self.op, name, start, end))
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def reset_round(self) -> None:
        self.self_time.clear()
        self.counts.clear()

    def round_metrics(self) -> dict:
        """Self time per time metric and every count, for the round just run."""
        out = {m: sum(self.self_time.get(s, 0.0) for s in spans) for m, spans in TIME_METRICS.items()}
        out.update({m: self.counts.get(m, 0) for m in COUNT_METRICS})
        return out

    def write(self, path, ops) -> None:
        """One JSON line per operation, then one per span."""
        with open(path, "w", encoding="utf-8") as fh:
            for op_id, op in enumerate(ops):
                fh.write(json.dumps({"op": op_id, "argv": op}) + "\n")
            for span, parent, op, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"span": span, "parent": parent, "op": op, "name": name, "start": start, "end": end}
                    )
                    + "\n"
                )
