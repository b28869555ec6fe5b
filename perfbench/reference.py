"""Reference medians: run.py over several seeds, per workload.

    python3 perfbench/reference.py [--runs 10] [--seconds 25] [WORKLOAD ...]

For each workload and end-to-end metric it prints the median of the runs and
the spread, (Q3 - Q1) / median with the quartiles of
``statistics.quantiles(values, n=4)``, and the share of failed operations.
Seeds are 1..runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    args = p.parse_args()
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        shares = set()
        for seed in range(1, args.runs + 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True, cwd=HERE.parent)
            res = json.loads(out.stdout.strip().splitlines()[-1])
            if not res["correct"]:
                print(f"{workload} seed {seed}: wrong output", file=sys.stderr)
            shares.add((res["failed"] / res["attempted"]))
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + json.dumps(res["metrics"]), file=sys.stderr)
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            print(f"{workload:17} {name:12} median {med:10.4f}  spread {(q3 - q1) / med:.4f}  (n={len(vs)})")
        print(f"{workload:17} failed share {sorted(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
