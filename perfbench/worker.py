"""One workload in one fresh process: set up, run whole rounds, check.

Started by run.py, never directly.  It prints ``READY`` once set-up is done
(imports, input files written, fixtures loaded) and, as its last line, a
JSON object with the run's results.  Operations are issued back to back in
this one thread; each is one ``cdeposets.cli.main`` call whose standard
output is captured in memory.  Only that call is timed; its output is
checked afterwards.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = ROOT / ".bench_out"


def _args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def _import_library():
    import cdeposets
    import cdeposets.cli

    source = Path(cdeposets.__file__).resolve()
    if source.parent != (ROOT / "src" / "cdeposets").resolve():
        raise SystemExit(f"cdeposets imported from {source}, not from this checkout")
    return cdeposets.cli


def src_lines() -> dict:
    """Physical lines of each library module."""
    out = {}
    for path in sorted((ROOT / "src" / "cdeposets").glob("*.py")):
        name = "init" if path.stem == "__init__" else path.stem
        out[f"{name}.src_lines"] = len(path.read_text(encoding="utf-8").splitlines())
    return out


class Runner:
    def __init__(self, cli, ops, tracer=None):
        self.cli = cli
        self.ops = ops
        self.tracer = tracer
        self.verified = set()  # (label, code, digest) of outputs that passed
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.executed = []  # argv of each operation, by operation id

    def call(self, argv):
        buf = io.StringIO()
        error = None
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(list(argv))
        except (Exception, SystemExit) as exc:  # the operation failed; record it
            code, error = None, exc
        elapsed = perf_counter() - start
        return code, buf.getvalue(), error, elapsed

    def run_round(self, number: int) -> tuple[list[float], int]:
        """Runs every operation once; returns their times and output size."""
        outputs = {}
        times = []
        out_bytes = 0
        for op in self.ops:
            if self.tracer is not None:
                self.tracer.op = len(self.executed)
            self.executed.append(op.argv)
            code, text, error, elapsed = self.call(op.argv)
            times.append(elapsed)
            out_bytes += len(text.encode("utf-8"))
            self.attempted += 1
            if error is None:
                outputs[op.label] = (code, text)
            problem = self.problem(op, code, text, error, outputs)
            if problem is None:
                continue
            if op.known_fault or error is not None:
                self.failed += 1
                if not op.known_fault or number == 0:
                    print(f"failed: {op.label}: {problem}", file=sys.stderr)
            else:
                self.correct = False
                print(f"wrong output: {op.label}: {problem}", file=sys.stderr)
        return times, out_bytes

    def problem(self, op, code, text, error, outputs):
        if error is not None:
            return "".join(traceback.format_exception_only(type(error), error)).strip()
        key = (op.label, code, hashlib.sha256(text.encode("utf-8")).digest())
        if key in self.verified:  # the same bytes already passed this run
            return None
        try:
            op.check(code, text, outputs)
        except (checks.CheckError, KeyError, TypeError, ValueError, IndexError) as exc:
            return f"{type(exc).__name__}: {exc}"
        self.verified.add(key)
        return None


def main(argv=None) -> int:
    args = _args(argv)
    os.chdir(ROOT)  # the operations name input files relative to the checkout
    cli = _import_library()
    workdir = OUT_DIR / f"{args.workload}-s{args.seed}"
    try:
        ops = workloads.build(args.workload, args.seed, ROOT, workdir)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        return run(args, cli, ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, cli, ops) -> int:
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install("cdeposets")
    runner = Runner(cli, ops, tracer)
    # A traced run spends round 0 on tracemalloc and times rounds 1 on.
    min_rounds = 2 if tracer else 1
    op_times, layers = [], []
    start = perf_counter()
    number = 0
    while number < min_rounds or perf_counter() - start < args.seconds:
        if tracer is not None:
            tracer.reset_round()
            tracer.measure_alloc = number == 0
        times, out_bytes = runner.run_round(number)
        if tracer is not None:
            metrics = tracer.round_metrics()
            metrics["cli.output_bytes"] = out_bytes
            layers.append(metrics)
        if tracer is None or number > 0:
            op_times.append(times)
        number += 1
    result = {
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "rounds": number,
        "wall_s": sum(min(t) for t in zip(*op_times)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["per_layer"] = per_layer(tracer, layers)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}-s{args.seed}.jsonl", runner.executed)
    print(json.dumps(result), flush=True)
    return 0


def per_layer(tracer, layers) -> dict:
    """Medians over the timed rounds for times; counts must repeat exactly."""
    from tracing import COUNT_METRICS, TIME_METRICS

    timed = layers[1:]
    out = {name: statistics.median(r[name] for r in timed) for name in TIME_METRICS}
    for name in COUNT_METRICS:
        values = {r[name] for r in layers}
        if len(values) != 1:
            print(f"count {name} differs between rounds: {sorted(values)}", file=sys.stderr)
        out[name] = layers[-1][name]
    ideals = out["ideals.ideals_built"]
    out["ideals.us_per_ideal"] = out["ideals.build_lattice_s"] / ideals * 1e6 if ideals else 0.0
    out["ideals.alloc_peak_mb"] = tracer.alloc_peak / 2**20
    out.update(src_lines())
    return out


if __name__ == "__main__":
    sys.exit(main())
