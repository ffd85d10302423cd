"""The repository's benchmark: one run of one workload.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload dse-machsuite --seed 1 --seconds 15 --trace 0

It byte-compiles the sources and builds the C step kernel into the
benchmark's cache (``.bench_build/``), runs the workload in fresh
processes inside a temporary directory of its own, checks every output,
prints a noise record and, as its last line, one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``;
with ``--trace 1`` the per-layer ones.  An operation that raises or
returns a wrong output counts in ``failed``.  It exits with 2, printing
no result, when the program is missing or the run yields no figures (a
process that crashes, hangs or prints no result).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter
from typing import Any, Dict, List, Optional

import common

WORKLOADS = ("dse-machsuite", "simulate-suite", "serve-mixed")
#: Set-up probes made before the measured work and again after it, so
#: the samples span the run; ``setup_s`` is the median of the probes
#: and the measured process's own set-up.
SETUP_PROBES = 4
WORK = os.path.join(os.path.dirname(os.path.abspath(__file__)), "work.py")


class BenchError(RuntimeError):
    """The run could not produce a result."""


def build() -> None:
    """Compile the sources to bytecode and the C step kernel into the
    cache, so no timed region or set-up sample pays a one-time build."""
    import compileall

    for tree in (common.SRC, os.path.dirname(WORK)):
        if not compileall.compile_dir(tree, quiet=1):
            raise BenchError(f"byte-compiling {tree} failed")
    code = (
        "from repro.sim.ckernel import load_kernel, load_error\n"
        "raise SystemExit(0 if load_kernel() else load_error())\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=common.child_env(),
        capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise BenchError(f"C step kernel build failed: {done.stderr.strip()}")


def spawn_work(args: argparse.Namespace, setup_only: bool) -> "tuple[float, str]":
    """Start ``work.py``; returns (seconds until ``ready``, rest of stdout)."""
    argv = [
        sys.executable, WORK, args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        argv.append("--setup-only")
    start = perf_counter()
    proc = subprocess.Popen(
        argv, env=common.child_env(), stdout=subprocess.PIPE, text=True,
        cwd=args.run_dir,
    )
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - start
        if ready.strip() != "ready":
            raise BenchError(f"{args.workload} did not set up: {ready!r}")
        rest, _ = proc.communicate(timeout=170)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{args.workload} exited with {proc.returncode}")
    return setup_s, rest


def probes(args: argparse.Namespace) -> int:
    """Set-up probes on each side of the work; traced runs make none."""
    return 0 if args.trace else SETUP_PROBES


def run_work(args: argparse.Namespace) -> Dict[str, Any]:
    before = [spawn_work(args, True)[0] for _ in range(probes(args))]
    setup_s, out = spawn_work(args, False)
    after = [spawn_work(args, True)[0] for _ in range(probes(args))]
    result = json.loads(out.strip().splitlines()[-1])
    result["setup"] = before + [setup_s] + after
    for seed, problems in result.pop("failures").items():
        print(f"failed {seed}: {problems}", file=sys.stderr)
    return result


def run_serve(args: argparse.Namespace) -> Dict[str, Any]:
    import serve_bench

    return serve_bench.run(
        args.seed, args.seconds, bool(args.trace), args.run_dir, probes(args)
    )


def reference_ms() -> float:
    """Milliseconds of a fixed pure-Python loop, fastest of three.

    It runs no program code, so when it is slow the host is slow.
    """
    def loop() -> float:
        start = perf_counter()
        total, table = 0, {}
        for i in range(100_000):
            total += i * i % 7
            table[i % 1000] = total
        return perf_counter() - start

    return min(loop() for _ in range(3)) * 1000.0


class Noise:
    """What the host did during the run, to tell a slow host from a slow
    program: CPU time of this process and its children, host steal time
    from ``/proc/stat``, the load average at the end, and the time of a
    fixed reference loop before and after the run."""

    def __init__(self) -> None:
        self.wall = perf_counter()
        self.steal = self._steal_ticks()
        self.reference_ms = reference_ms()

    @staticmethod
    def _steal_ticks() -> Optional[int]:
        try:
            with open("/proc/stat") as f:
                fields = f.readline().split()
            return int(fields[8])
        except (OSError, IndexError, ValueError):
            return None

    def record(self) -> Dict[str, Any]:
        cpu = 0.0
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
            usage = resource.getrusage(who)
            cpu += usage.ru_utime + usage.ru_stime
        steal = self._steal_ticks()
        steal_s = None
        if steal is not None and self.steal is not None:
            steal_s = (steal - self.steal) / os.sysconf("SC_CLK_TCK")
        return {
            "wall_s": perf_counter() - self.wall,
            "cpu_s": cpu,
            "steal_s": steal_s,
            "loadavg": list(os.getloadavg()),
            "reference_ms": [self.reference_ms, reference_ms()],
        }


def pin_to_one_cpu() -> None:
    """Run this process and every process it starts on one CPU.

    On the 2-vCPU reference host, client and server spread over both
    CPUs woke each other across CPUs and drew steal time: warm-serve
    latency swung by 40% between runs, against about 12% on one CPU.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def declared(section: str) -> Dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec[section]}


def report(args: argparse.Namespace, result: Dict[str, Any]) -> Dict[str, Any]:
    metrics = dict(result["metrics"])
    section = "per_layer" if args.trace else "end_to_end"
    if not args.trace:
        metrics["setup_s"] = statistics.median(result["setup"])
    units = declared(section)
    if set(metrics) != set(units):
        raise BenchError(
            f"metrics {sorted(metrics)} do not match BENCHMARK.json "
            f"{section} {sorted(units)}"
        )
    return {
        "correct": not result["problems"],
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(common.SRC, "repro", "__init__.py")):
        print(f"error: no program source under {common.SRC}", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    noise = Noise()
    os.makedirs(common.BUILD, exist_ok=True)
    args.run_dir = tempfile.mkdtemp(prefix="run-", dir=common.BUILD)
    try:
        build()
        if args.workload.startswith("serve-"):
            result = run_serve(args)
        else:
            result = run_work(args)
        line = report(args, result)
    except (
        BenchError, OSError, RuntimeError, ValueError, KeyError,
        subprocess.TimeoutExpired,
    ) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(args.run_dir, ignore_errors=True)
    for problem in result["problems"]:
        print(f"incorrect: {problem}", file=sys.stderr)
    if args.trace:
        print(f"per-layer ledger, {args.workload}, per operation:", file=sys.stderr)
        for name, metric in line["metrics"].items():
            print(f"  {name:<26}{metric['value']:>16.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps({"noise": noise.record()}))
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
