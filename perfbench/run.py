"""Benchmark of the cdeposets CLI verbs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in a fresh worker
process (worker.py).  With ``--trace 0`` the last line of output is a JSON
object with the end-to-end metrics ``wall_s``, ``peak_rss_mb`` and
``setup_s``; with ``--trace 1`` an untraced and a traced worker run one after
the other and the line carries the per-layer metrics, including the tracing
overhead.  See README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 10  # extra processes that only set up, for the setup_s median
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def _args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


class Session:
    """Starts workers one at a time and holds them to one overall deadline."""

    def __init__(self, args):
        self.args = args
        self.deadline = perf_counter() + DEADLINE_S

    def worker(self, *, trace: bool, setup_only: bool = False):
        """Returns (seconds until READY, the worker's result or None)."""
        a = self.args
        cmd = [
            sys.executable,
            str(WORKER),
            "--workload", a.workload,
            "--seed", str(a.seed),
            "--seconds", str(a.seconds),
            "--trace", str(int(trace)),
        ]
        if setup_only:
            cmd.append("--setup-only")
        start = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            ready = proc.stdout.readline()
            setup = perf_counter() - start
            if ready.strip() != "READY":
                raise BenchError(f"worker did not start: {ready!r}")
            out, _ = proc.communicate(timeout=max(1.0, self.deadline - perf_counter()))
        except subprocess.TimeoutExpired:
            raise BenchError("worker passed the deadline") from None
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
        if proc.returncode != 0:
            raise BenchError(f"worker exited with {proc.returncode}")
        lines = out.strip().splitlines()
        return setup, (json.loads(lines[-1]) if lines else None)


def end_to_end(session) -> dict:
    setups = [session.worker(trace=False, setup_only=True)[0] for _ in range(SETUP_PROBES)]
    setup, res = session.worker(trace=False)
    setups.append(setup)
    res["metrics"] = {
        "wall_s": {"value": res["wall_s"], "unit": "s"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
    }
    return res


def traced(session) -> dict:
    _, base = session.worker(trace=False)
    _, res = session.worker(trace=True)
    layers = res["per_layer"]
    layers["trace.overhead_s"] = res["wall_s"] - base["wall_s"]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    res["metrics"] = {name: {"value": layers.get(name, 0), "unit": unit} for name, unit in units.items()}
    res["correct"] = res["correct"] and base["correct"]
    res["attempted"] += base["attempted"]
    res["failed"] += base["failed"]
    return res


def main() -> int:
    args = _args()
    missing = [p for p in ("src/cdeposets/cli.py", "fixtures/fix-a.json") if not (ROOT / p).is_file()]
    if missing:
        print(f"not a cdeposets checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    session = Session(args)
    try:
        res = traced(session) if args.trace else end_to_end(session)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
