"""Per-layer self-time ledger, recorded from outside the program.

The benchmark adds no span inside ``src/``.  Instead :func:`install`
replaces each layer's public functions, in every loaded ``repro``
module that refers to them, with a wrapper that times the call.  A
layer's *self* time is the wall time of its calls minus the part spent
in calls to other traced functions they made, so the self times of all
layers never add up to more than the wall time they ran in.

Only plain synchronous functions are wrapped.  A call runs to its end
without yielding, so one stack per thread is enough even inside the
asyncio server.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import threading
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: layer name -> the public functions (module, attribute) that enter it.
LAYERS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "compiler": (("repro.compiler.variants", "generate_variants"),),
    "scheduler": (
        ("repro.scheduler.spatial", "schedule_workload"),
        ("repro.scheduler.spatial", "revalidate_schedule"),
        ("repro.scheduler.spatial", "repair_schedule"),
    ),
    "dse.system": (("repro.dse.system", "system_dse"),),
    "dse.fit": (("repro.dse.system", "max_tiles_that_fit"),),
    "model.perf": (("repro.model.perf", "estimate_ipc"),),
    "engine.hashing": (
        ("repro.engine.hashing", "fingerprint"),
        ("repro.engine.hashing", "adg_fingerprint"),
        ("repro.profile.memo", "sim_key"),
    ),
    "sim": (("repro.sim.simulator", "simulate_schedule"),),
    "adg.serialize": (("repro.adg.serialize", "sysadg_from_dict"),),
}


class Ledger:
    """Calls, self seconds and counters per layer, for one process."""

    def __init__(self) -> None:
        self.active = False
        self.calls: Dict[str, int] = {name: 0 for name in LAYERS}
        self.self_s: Dict[str, float] = {name: 0.0 for name in LAYERS}
        #: cycles stepped by traced ``simulate_schedule`` calls.
        self.sim_cycles = 0
        self._local = threading.local()
        #: when set, counting starts once this file exists (serve
        #: processes, where the client decides when operations begin).
        self.start_file: Optional[str] = None

    def reset(self) -> None:
        for name in LAYERS:
            self.calls[name] = 0
            self.self_s[name] = 0.0
        self.sim_cycles = 0

    def _stack(self) -> List[List[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _armed(self, stack: List[List[Any]]) -> bool:
        if self.active:
            return True
        if self.start_file is not None and not stack:
            if os.path.exists(self.start_file):
                self.start_file = None
                self.reset()
                self.active = True
        return self.active

    def wrap(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        ledger = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = ledger._stack()
            if not ledger._armed(stack):
                return fn(*args, **kwargs)
            if not stack or stack[-1][0] != layer:
                ledger.calls[layer] += 1
            frame = [layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                ledger.self_s[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if layer == "sim":
                ledger.sim_cycles += int(getattr(result, "stepped_cycles", 0))
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def snapshot(self) -> Dict[str, Any]:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "sim_cycles": self.sim_cycles,
        }


LEDGER = Ledger()


def install(ledger: Ledger = LEDGER) -> None:
    """Wrap every layer function in every loaded ``repro`` module.

    Modules imported later resolve the names from the defining module,
    which is patched too, so lazy ``from x import f`` inside functions
    also gets the wrapper.
    """
    for layer, targets in LAYERS.items():
        for module_name, attr in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            wrapped = ledger.wrap(layer, original)
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == "repro" or name.startswith("repro.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)


def merge(snapshots: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum the ledgers of several processes (serve: server + worker)."""
    total = Ledger().snapshot()
    for snap in snapshots:
        for name in LAYERS:
            total["calls"][name] += snap["calls"][name]
            total["self_s"][name] += snap["self_s"][name]
        total["sim_cycles"] += snap["sim_cycles"]
    return total


def dump_at_exit(directory: str, ledger: Ledger = LEDGER) -> None:
    """Write this process's ledger to ``directory`` when it exits.

    Covers the serve process (``atexit``) and the pool workers it forks
    (``multiprocessing`` runs its finalizers, not ``atexit``, in a child
    before ``os._exit``).  Each file is named by pid.
    """
    import atexit
    from multiprocessing import util

    def write() -> None:
        path = os.path.join(directory, f"ledger-{os.getpid()}.json")
        with open(path, "w") as f:
            json.dump(ledger.snapshot(), f)

    def in_child(_: object) -> None:
        ledger.reset()
        util.Finalize(None, write, exitpriority=100)

    atexit.register(write)
    util.register_after_fork(ledger, in_child)


def read_dumps(directory: str) -> List[Dict[str, Any]]:
    out = []
    for name in sorted(os.listdir(directory)):
        if name.startswith("ledger-") and name.endswith(".json"):
            with open(os.path.join(directory, name)) as f:
                out.append(json.load(f))
    return out
