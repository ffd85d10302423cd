"""Helpers shared by the benchmark's workload modules."""

from __future__ import annotations

import gc
import math
import os
import sys
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence

#: Root of the checkout the benchmark runs in (the parent of this dir).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Build outputs the benchmark owns: the C step kernel cache and the
#: per-run temporary directories.
BUILD = os.path.join(ROOT, ".bench_build")
KERNEL_CACHE = os.path.join(BUILD, "repro-kernel")

#: Every traced run prints exactly these per-layer metrics (0 where a
#: layer does not run on that workload); BENCHMARK.json lists the same.
PER_LAYER = (
    "compiler.calls",
    "compiler.self_ms",
    "scheduler.calls",
    "scheduler.self_ms",
    "scheduler.preserved_ratio",
    "dse.system.calls",
    "dse.system.self_ms",
    "dse.fit.calls",
    "dse.fit.self_ms",
    "dse.modeled_hours",
    "model.perf.calls",
    "model.perf.self_ms",
    "profile.memo.hit_ratio",
    "engine.hashing.calls",
    "engine.hashing.self_ms",
    "sim.calls",
    "sim.self_ms",
    "sim.cycles_per_s",
    "adg.serialize.calls",
    "adg.serialize.self_ms",
    "serve.server_ms.compute",
    "serve.server_ms.memory",
    "serve.queue_ms.compute",
    "serve.queue_ms.memory",
    "serve.wire_ms.compute",
    "serve.wire_ms.memory",
    "serve.cold_ms",
    "serve.warm_p99_ms",
    "coverage",
    "trace.overhead",
)


def child_env() -> Dict[str, str]:
    """Environment of every process the benchmark starts.

    ``PYTHONHASHSEED`` is pinned so set and dict iteration orders, and
    with them the work done, are the same in every run.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    env["REPRO_KERNEL_CACHE"] = KERNEL_CACHE
    env.pop("REPRO_SIM_CORE", None)
    return env


def use_src() -> None:
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def rounds_for(seconds: float, round_s: float) -> int:
    """Identical rounds a run makes: about ``seconds`` of work on the
    reference host, and at least two so the fastest can be taken.

    The count depends on ``--seconds`` only, never on how fast the
    program runs, so two commits are measured on the same work.
    """
    return max(2, round(seconds / round_s))


def floors(samples: Dict[Any, Sequence[float]]) -> List[float]:
    """Each operation's floor: the 5th percentile of its repeats, which
    is the fastest repeat when there are fewer than twenty.

    Operations repeat identically within a run.  This host's speed
    swings by tens of percent within seconds, so a low quantile of
    identical repeats measures the program rather than its neighbours.
    """
    return [sorted(v)[len(v) // 20] for _, v in sorted(samples.items())]


def by_op(rounds: Sequence[Sequence[float]]) -> Dict[int, List[float]]:
    """Rounds of the same operations, in order -> samples per operation."""
    return {i: list(column) for i, column in enumerate(zip(*rounds))}


def timed(fn: Callable[[], Any]) -> "tuple[float, Any, Optional[str]]":
    """Wall seconds of ``fn()`` after a full collection, its result, and
    the exception it raised (``None`` when it returned).

    Collecting first keeps a cycle collection left over from the last
    operation out of this one's time.
    """
    gc.collect()
    start = perf_counter()
    try:
        result, error = fn(), None
    except Exception as exc:  # an operation that raises has failed
        result, error = None, f"{type(exc).__name__}: {exc}"
    return perf_counter() - start, result, error


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` in [0, 100]."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(
    ledger: Dict[str, Any],
    traced: Sequence[float],
    overhead: float,
    extra: Optional[Dict[str, float]] = None,
    attributed_extra_s: float = 0.0,
) -> Dict[str, float]:
    """Per-operation per-layer metrics from one merged ledger.

    ``traced`` holds the wall seconds of the operations the ledger
    covers; ``overhead`` is their time over the same operations' time
    untraced; ``attributed_extra_s`` is time attributed outside the
    ledger (serve queue and wire time).
    """
    ops = len(traced)
    out = {name: 0.0 for name in PER_LAYER}
    for layer, calls in ledger["calls"].items():
        out[f"{layer}.calls"] = calls / ops
        out[f"{layer}.self_ms"] = ledger["self_s"][layer] * 1000.0 / ops
    sim_s = ledger["self_s"]["sim"]
    out["sim.cycles_per_s"] = ledger["sim_cycles"] / sim_s if sim_s > 0 else 0.0
    attributed = sum(ledger["self_s"].values()) + attributed_extra_s
    out["coverage"] = attributed / sum(traced)
    out["trace.overhead"] = overhead
    out.update(extra or {})
    return out
