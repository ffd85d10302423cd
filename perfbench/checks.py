"""Output checks of the benchmark.

Every checker returns a list of problems (empty means the output is
right).  Each compares against a computation made apart from the code
that produced the output, or against a property the method must have:

* a DSE result: the overlay passes the structural invariants, fits the
  XCVU9P, every suite kernel's schedule is legal on it, and every
  simulated cycle count is finite and above 0;
* a batch of simulate documents: every workload mapped and each
  document's ``cycles`` equals the object core's, a separate
  implementation of the same machine;
* a serve response: no error, the result bytes equal the single-shot
  reference computed in the client, and the reported tier is the one
  the phase must hit.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Mapping, Optional, Sequence


def check_overlay(sysadg: Any) -> List[str]:
    """Structural invariants of one overlay plus the XCVU9P budget."""
    from repro.model.resource import XCVU9P, system_resources
    from repro.validate.invariants import (
        check_adg,
        check_resources,
        check_roundtrip,
    )

    problems = [
        str(v)
        for v in check_adg(sysadg.adg)
        + check_roundtrip(sysadg.adg)
        + check_resources(sysadg.adg)
    ]
    total = system_resources(sysadg)
    if not total.fits_in(XCVU9P):
        problems.append(
            f"{sysadg.name} exceeds XCVU9P capacity: "
            f"{total.utilization(XCVU9P)}"
        )
    return problems


def check_schedules(
    sysadg: Any, schedules: Mapping[str, Any], workloads: Sequence[str]
) -> List[str]:
    """Every named workload has a legal schedule on the overlay."""
    from repro.validate.invariants import check_schedule

    problems = []
    for name in workloads:
        schedule = schedules.get(name)
        if schedule is None:
            problems.append(f"{name}: no schedule on {sysadg.name}")
            continue
        problems += [f"{name}: {v}" for v in check_schedule(schedule, sysadg.adg)]
    return problems


def check_cycles(cycles: Mapping[str, float]) -> List[str]:
    """Simulated cycle counts are finite and above 0."""
    return [
        f"{name}: simulated cycles {value!r}"
        for name, value in sorted(cycles.items())
        if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0)
    ]


def check_sim_docs(
    names: Sequence[str],
    docs: Sequence[Optional[Dict[str, Any]]],
    reference_cycles: Mapping[str, float],
) -> List[str]:
    """Batch simulate documents against the object core's cycle counts."""
    problems = []
    if len(docs) != len(names):
        return [f"{len(docs)} documents for {len(names)} workloads"]
    for name, doc in zip(names, docs):
        if doc is None:
            problems.append(f"{name}: did not map")
        elif doc.get("workload") != name:
            problems.append(f"{name}: document is for {doc.get('workload')!r}")
        elif doc.get("cycles") != reference_cycles.get(name):
            problems.append(
                f"{name}: cycles {doc.get('cycles')!r} != object core "
                f"{reference_cycles.get(name)!r}"
            )
    return problems


def check_response(
    response: Dict[str, Any], expected: str, tier: str
) -> List[str]:
    """One serve response against the single-shot reference bytes."""
    from repro.serve import canonical_dumps

    if not response.get("ok"):
        return [f"error response: {response.get('error')}"]
    problems = []
    if canonical_dumps(response.get("result")) != expected:
        problems.append("result bytes differ from the single-shot reference")
    served = response.get("served") or {}
    if served.get("cache") != tier:
        problems.append(f"served from {served.get('cache')!r}, expected {tier!r}")
    return problems


def geomean(values: Sequence[float]) -> float:
    """Geometric mean, summed in sorted order so it repeats bit-exactly."""
    ordered = sorted(values)
    return math.exp(math.fsum(math.log(v) for v in ordered) / len(ordered))
