"""Workload process for ``dse-machsuite`` and ``simulate-suite``.

Started fresh by ``run.py`` for every run.  It sets up (imports, inputs,
the C step kernel loaded from the benchmark's prebuilt cache), prints
``ready``, then runs whole rounds of operations for the time budget,
checks every output and prints one JSON line with the raw figures.
``--setup-only`` stops after ``ready``; ``run.py`` uses it for extra
set-up samples.

Usage::

    python3 perfbench/work.py dse-machsuite --seed 3 --seconds 15 --trace 0
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
from typing import Any, Dict, List, Optional

import common
from checks import (
    check_cycles,
    check_overlay,
    check_schedules,
    check_sim_docs,
    geomean,
)

#: DSE seeds of one round; ``--seed`` only changes their order, so
#: every run does the same work.  Each call's config-scoped schedule
#: memo is dropped after it, so every call starts cold, as ``repro
#: generate`` does.
DSE_SEEDS = (13, 14, 15)
DSE_ITERATIONS = 40


class DseWorkload:
    """``explore`` of the five MachSuite kernels, one call per seed."""

    #: seconds one round takes on the reference host (2-vCPU VM).
    round_s = 7.5

    def __init__(self, seed: int) -> None:
        from repro import DseConfig, explore, get_suite
        from repro.sim.ckernel import load_kernel

        if load_kernel() is None:
            raise SystemExit("the C step kernel did not load")
        self.explore = explore
        self.get_suite = get_suite
        self.config = DseConfig
        self.seeds = list(DSE_SEEDS)
        random.Random(seed).shuffle(self.seeds)
        self.kernels = [w.name for w in get_suite("machsuite")]
        self.results: Dict[int, Any] = {}
        self.ran: List[int] = []
        self.problems: List[str] = []
        self.failures: Dict[int, List[str]] = {}
        self.memo_hits = 0
        self.memo_lookups = 0

    def round(self, ledger: Optional[Any] = None) -> List[float]:
        from repro.engine.hashing import config_fingerprint
        from repro.profile.memo import drop_memo, memo_for_config

        walls = []
        for s in self.seeds:
            suite = self.get_suite("machsuite")
            config = self.config(iterations=DSE_ITERATIONS, seed=s)
            key = config_fingerprint(config)
            if ledger is not None:
                ledger.active = True
            wall, result, error = common.timed(lambda: self.explore(suite, config))
            if ledger is not None:
                ledger.active = False
            walls.append(wall)
            stats = memo_for_config(key).stats
            self.memo_hits += stats.schedule_hits
            self.memo_lookups += stats.schedule_hits + stats.schedule_misses
            drop_memo(key)
            self.ran.append(s)
            if error is not None:
                self.failures.setdefault(s, []).append(error)
                self.problems.append(f"seed {s}: explore raised {error}")
            else:
                self._keep(s, result)
        return walls

    def _keep(self, seed: int, result: Any) -> None:
        first = self.results.setdefault(seed, result)
        if first is not result and (
            first.modeled_seconds != result.modeled_seconds
            or first.choice.objective != result.choice.objective
        ):
            self.problems.append(f"seed {seed}: result differs between rounds")

    def check(self) -> Dict[str, float]:
        """Check each seed's design; a call whose design fails has failed."""
        from repro import simulate_schedule

        cycles = []
        for seed in sorted(self.results):
            result = self.results[seed]
            simulated = {
                name: simulate_schedule(result.schedules[name], result.sysadg).cycles
                for name in self.kernels
                if name in result.schedules
            }
            problems = (
                check_overlay(result.sysadg)
                + check_schedules(result.sysadg, result.schedules, self.kernels)
                + check_cycles(simulated)
            )
            if problems:
                self.failures.setdefault(seed, []).extend(problems)
            cycles += [c for c in simulated.values() if c > 0]
        hours = [self.results[s].modeled_hours for s in sorted(self.results)]
        return {
            "sim_cycles": geomean(cycles),
            "modeled_hours": sum(hours) / len(hours),
        }

    def failed(self) -> int:
        return sum(1 for s in self.ran if s in self.failures)

    def layer_extra(self) -> Dict[str, float]:
        preserved = sum(r.stats.preserved_hits for r in self.results.values())
        full = sum(r.stats.full_schedules for r in self.results.values())
        return {
            "scheduler.preserved_ratio": preserved / max(1, preserved + full),
            "profile.memo.hit_ratio": self.memo_hits / max(1, self.memo_lookups),
        }


class SimulateWorkload:
    """``simulate_batch_op`` of all registered workloads on General."""

    round_s = 3.0

    def __init__(self, seed: int) -> None:
        from repro import all_workloads, general_overlay
        from repro.serve.ops import simulate_batch_op
        from repro.sim.ckernel import load_kernel

        if load_kernel() is None:
            raise SystemExit("the C step kernel did not load")
        self.simulate_batch_op = simulate_batch_op
        self.sysadg = general_overlay()
        self.names = [w.name for w in all_workloads()]
        random.Random(seed).shuffle(self.names)
        self.first: Optional[List[Any]] = None
        self.calls = 0
        self.problems: List[str] = []
        self.failures: Dict[str, List[str]] = {}

    def round(self, ledger: Optional[Any] = None) -> List[float]:
        from repro.serve import canonical_dumps

        if ledger is not None:
            ledger.active = True
        wall, docs, error = common.timed(
            lambda: self.simulate_batch_op(self.sysadg, self.names)
        )
        if ledger is not None:
            ledger.active = False
        self.calls += 1
        if error is not None:
            self.failures.setdefault("raised", []).append(error)
            self.problems.append(f"simulate_batch_op raised {error}")
        elif self.first is None:
            self.first = docs
        elif canonical_dumps(docs) != canonical_dumps(self.first):
            self.problems.append("simulate documents differ between calls")
        return [wall]

    def check(self) -> Dict[str, float]:
        from repro import (
            generate_variants,
            get_workload,
            schedule_workload,
            simulate_schedule,
        )

        reference = {}
        for name in self.names:
            schedule = schedule_workload(
                generate_variants(get_workload(name)),
                self.sysadg.adg,
                self.sysadg.params,
            )
            if schedule is None:
                self.problems.append(f"{name}: does not map for the object core")
                continue
            reference[name] = simulate_schedule(
                schedule, self.sysadg, core="object"
            ).cycles
        docs = self.first or []
        cycles = {d["workload"]: d["cycles"] for d in docs if d is not None}
        problems = check_sim_docs(self.names, docs, reference) + check_cycles(cycles)
        if problems:
            self.failures.setdefault("simulate_batch_op", []).extend(problems)
        return {"sim_cycles": geomean([c for c in cycles.values() if c > 0])}

    def failed(self) -> int:
        """Every call returns the same documents, so wrong documents fail
        every call; otherwise the calls that raised failed."""
        if "simulate_batch_op" in self.failures:
            return self.calls
        return len(self.failures.get("raised", []))

    def layer_extra(self) -> Dict[str, float]:
        return {}


WORKLOADS = {"dse-machsuite": DseWorkload, "simulate-suite": SimulateWorkload}


def typical(rounds: List[List[float]]) -> float:
    """Mean over a round's operations of each one's floor (``common.floors``)."""
    return statistics.fmean(common.floors(common.by_op(rounds)))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    common.use_src()
    workload = WORKLOADS[args.workload](args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    rounds = common.rounds_for(args.seconds, workload.round_s)
    out: Dict[str, Any] = {}
    if args.trace:
        import layers

        half = rounds // 2
        untraced = [workload.round() for _ in range(half)]
        layers.install()
        traced = [workload.round(layers.LEDGER) for _ in range(half)]
        quality = workload.check()
        extra = workload.layer_extra()
        if "modeled_hours" in quality:
            extra["dse.modeled_hours"] = quality["modeled_hours"]
        out["metrics"] = common.layer_metrics(
            layers.LEDGER.snapshot(),
            [wall for walls in traced for wall in walls],
            typical(traced) / typical(untraced),
            extra,
        )
        out["attempted"] = 2 * half * len(traced[0])
    else:
        walls = [workload.round() for _ in range(rounds)]
        rss = common.peak_rss_mb()
        quality = workload.check()
        out["metrics"] = {
            "op_ms": typical(walls) * 1000.0,
            "peak_rss_mb": rss,
            "sim_cycles": quality["sim_cycles"],
        }
        out["attempted"] = rounds * len(walls[0])
    out["failed"] = workload.failed()
    out["failures"] = {str(k): v for k, v in workload.failures.items()}
    out["problems"] = workload.problems
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
