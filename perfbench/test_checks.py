"""The benchmark's own tests: each checker rejects a corrupted output.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

common.use_src()

import checks  # noqa: E402
import layers  # noqa: E402
from repro import (  # noqa: E402
    general_overlay,
    generate_variants,
    get_workload,
    schedule_workload,
    simulate_schedule,
)
from repro.serve import canonical_dumps, single_shot  # noqa: E402
from repro.serve.ops import simulate_batch_op  # noqa: E402


@pytest.fixture(scope="module")
def general():
    return general_overlay()


@pytest.fixture(scope="module")
def fir_schedule(general):
    return schedule_workload(
        generate_variants(get_workload("fir")), general.adg, general.params
    )


def test_sim_docs_match_object_core_and_reject_a_changed_cycle_count(general):
    names = ["fir", "vecmax"]
    docs = simulate_batch_op(general, names)
    reference = {}
    for name in names:
        schedule = schedule_workload(
            generate_variants(get_workload(name)), general.adg, general.params
        )
        reference[name] = simulate_schedule(schedule, general, core="object").cycles
    assert checks.check_sim_docs(names, docs, reference) == []
    corrupted = [dict(d) for d in docs]
    corrupted[1]["cycles"] += 1
    problems = checks.check_sim_docs(names, corrupted, reference)
    assert len(problems) == 1 and "vecmax" in problems[0]


def test_sim_docs_reject_an_unmapped_workload(general):
    docs = simulate_batch_op(general, ["fir"])
    assert checks.check_sim_docs(["fir"], [None], {"fir": docs[0]["cycles"]})


def test_cycles_must_be_finite_and_positive():
    assert checks.check_cycles({"a": 10.0, "b": 3}) == []
    assert len(checks.check_cycles({"a": 0.0, "b": float("inf"), "c": float("nan")})) == 3


def _response(doc, tier="compute"):
    return {"ok": True, "result": doc, "served": {"cache": tier}}


def test_response_rejects_one_changed_byte(general):
    doc = single_shot("simulate", general, "fir")
    expected = canonical_dumps(doc)
    assert checks.check_response(_response(doc), expected, "compute") == []
    digit = next(i for i, ch in enumerate(expected) if ch.isdigit())
    changed = expected[:digit] + str((int(expected[digit]) + 1) % 10) + expected[digit + 1:]
    corrupted = json.loads(changed)
    problems = checks.check_response(_response(corrupted), expected, "compute")
    assert problems == ["result bytes differ from the single-shot reference"]


def test_response_rejects_wrong_tier_and_errors(general):
    doc = single_shot("map", general, "fir")
    expected = canonical_dumps(doc)
    assert checks.check_response(_response(doc, "memory"), expected, "compute")
    error = {"ok": False, "error": {"code": "internal"}, "result": None}
    assert checks.check_response(error, expected, "compute")


def test_overlay_over_xcvu9p_capacity_is_rejected(general):
    assert checks.check_overlay(general) == []
    oversized = general.with_params(num_tiles=64)
    problems = checks.check_overlay(oversized)
    assert any("exceeds XCVU9P capacity" in p for p in problems)


def test_illegal_schedule_is_rejected(general, fir_schedule):
    assert checks.check_schedules(general, {"fir": fir_schedule}, ["fir"]) == []
    broken = fir_schedule.clone()
    dfg_node = next(iter(broken.placement))
    broken.placement[dfg_node] = max(general.adg.node_ids()) + 1000
    assert checks.check_schedules(general, {"fir": broken}, ["fir"])
    assert checks.check_schedules(general, {}, ["fir"]) == [
        f"fir: no schedule on {general.name}"
    ]


def test_geomean_repeats_bit_exactly_in_any_order():
    values = [3.0, 1234.5, 77.25, 9.0]
    assert checks.geomean(values) == checks.geomean(list(reversed(values)))


def test_ledger_self_times_exclude_children():
    import time

    ledger = layers.Ledger()

    def inner():
        time.sleep(0.02)

    traced_inner = ledger.wrap("sim", inner)

    def outer():
        time.sleep(0.01)
        traced_inner()

    traced_outer = ledger.wrap("scheduler", outer)
    traced_outer()
    assert ledger.calls["scheduler"] == 0  # not armed yet
    ledger.active = True
    start = time.perf_counter()
    traced_outer()
    wall = time.perf_counter() - start
    assert ledger.calls == {**{n: 0 for n in layers.LAYERS}, "scheduler": 1, "sim": 1}
    assert 0.02 <= ledger.self_s["sim"] < 0.03 + 0.02
    assert 0.01 <= ledger.self_s["scheduler"] < 0.02 + 0.02
    assert ledger.self_s["sim"] + ledger.self_s["scheduler"] <= wall


def test_ledger_waits_for_its_start_file(tmp_path):
    ledger = layers.Ledger()
    ledger.start_file = str(tmp_path / "start")
    traced = ledger.wrap("compiler", lambda: 1)
    traced()
    assert ledger.calls["compiler"] == 0
    (tmp_path / "start").write_text("")
    traced()
    traced()
    assert ledger.calls["compiler"] == 2
