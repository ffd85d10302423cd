"""Steadiness report: run each workload N times, one seed per run.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py --runs 10 [--workload serve-mixed ...]

For every end-to-end metric of every workload it prints the median, the
first and third quartile (``statistics.quantiles(values, n=4)``), the
spread (quartile distance over the median) and the metric's bound from
``BENCHMARK.json``, and flags a spread above a third of the bound.  Runs
use seeds 1 to ``--runs``; each run's noise record is shown too.  It
exits 1 when a spread is flagged or the failed share differs between
runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List

from common import ROOT


def one_run(spec: Dict[str, Any], workload: str, seed: int) -> Dict[str, Any]:
    argv = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    done = subprocess.run(
        argv, cwd=ROOT, capture_output=True, text=True, timeout=900
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    noise = next(
        (json.loads(l)["noise"] for l in lines if l.startswith('{"noise"')), {}
    )
    result["noise"] = noise
    return result


def summarize(spec: Dict[str, Any], workload: str, runs: List[Dict[str, Any]]) -> bool:
    steady = True
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(
        f"\n{workload}: {len(runs)} runs, correct={all(r['correct'] for r in runs)}, "
        f"failed shares {sorted(shares)}"
    )
    print(f"  {'metric':<14}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>8}")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        spread = (q3 - q1) / med
        flag = ""
        if spread > metric["bound"] / 3:
            flag = "  > bound/3"
            steady = False
        print(
            f"  {name:<14}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
            f"{spread:>9.4f}{metric['bound']:>8}{flag}"
        )
    for r in runs:
        n = r["noise"]
        ref = n.get("reference_ms") or []
        print(
            f"  noise: wall {n.get('wall_s', 0):.1f}s cpu {n.get('cpu_s', 0):.1f}s "
            f"steal {n.get('steal_s')}s load {n.get('loadavg', [0])[0]:.2f} "
            f"reference {' '.join(f'{r:.1f}' for r in ref)}ms"
        )
    return steady and len(shares) == 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", default=None)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    ok = True
    raw = {}
    for workload in workloads:
        runs = [
            one_run(spec, workload, seed)
            for seed in range(1, args.runs + 1)
        ]
        raw[workload] = [
            {m: v["value"] for m, v in r["metrics"].items()} for r in runs
        ]
        ok = summarize(spec, workload, runs) and ok
        sys.stdout.flush()
    print("\nraw:", json.dumps(raw))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
