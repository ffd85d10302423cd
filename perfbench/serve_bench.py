"""The ``serve-mixed`` workload: one client process, one server.

It runs ``repro serve`` on the General overlay with one compile worker
(``--workers 1``) over a unix socket in the run's own directory, and
sends the 84 keys (``map``/``estimate``/``simulate`` × 28 workloads).
Load is a closed loop: a connection sends its next request when the
previous answer arrives.  After one warm-up request (forks the compile
worker and loads the C kernel) come two phases, kept apart so cold
computes do not contend with warm answers:

* cold: one connection sends each key once, one at a time, so each
  answer is computed;
* warm: two connections repeat the keys a fixed number of times, each
  answer coming from the memory tier.

Every answer is checked against ``canonical_dumps(single_shot(...))``
computed in this process after the server is gone, and against the tier
its phase must hit.  The server is shut down and waited on even when a
check fails; one that does not exit 0 by itself makes the run incorrect.
"""

from __future__ import annotations

import asyncio
import os
import random
import signal
import statistics
import subprocess
import sys
from collections import Counter
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

import common
import layers
from checks import check_cycles, check_response, geomean

Key = Tuple[str, str]
#: One timed answer: (key, client-side seconds, the ``served`` block).
Sample = Tuple[Key, float, Dict[str, Any]]

#: Not one of the 84 keys, so no timed request is answered from it.
WARM_UP = ("simulate_batch", "fir,fir")
OPS = ("map", "estimate", "simulate")
#: Warm answers per second on the reference host (2-vCPU VM); it turns
#: ``--seconds`` into a fixed number of warm requests, the same for
#: every run and every commit.
WARM_PER_S = 2500
HERE = os.path.dirname(os.path.abspath(__file__))


class Server:
    """One ``repro serve`` process, started and reaped by the client."""

    def __init__(self, run_dir: str, design: str, tag: str, traced: bool):
        self.socket = os.path.join(run_dir, f"{tag}.sock")
        self.ledger_dir = os.path.join(run_dir, f"{tag}-ledger")
        self.start_file = os.path.join(run_dir, f"{tag}-start")
        serve = [
            "serve", design, "--workers", "1", "--socket", self.socket,
        ]
        if traced:
            os.makedirs(self.ledger_dir)
            argv = [
                sys.executable, os.path.join(HERE, "traced_serve.py"),
                self.ledger_dir, self.start_file, *serve,
            ]
        else:
            argv = [sys.executable, "-m", "repro", *serve]
        self.log = open(os.path.join(run_dir, f"{tag}.log"), "wb")
        self.started = perf_counter()
        # The server leads a new process group, so the compile worker it
        # forks can be found and reaped with it.
        self.proc = subprocess.Popen(
            argv, env=common.child_env(), stdout=self.log,
            stderr=subprocess.STDOUT, cwd=run_dir, start_new_session=True,
        )
        self.clients: List[Any] = []
        self.setup_s = 0.0

    async def connect(self) -> Any:
        from repro.serve import ServeClient

        client = ServeClient(socket_path=self.socket)
        await client.connect()
        self.clients.append(client)
        return client

    async def wait_ready(self, timeout_s: float = 60.0) -> Any:
        """First client, once the first ``ping`` is answered."""
        deadline = self.started + timeout_s
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode}")
            try:
                client = await self.connect()
                break
            except OSError:
                if perf_counter() > deadline:
                    raise RuntimeError("server never came up")
                await asyncio.sleep(0.002)
        await client.ping()
        self.setup_s = perf_counter() - self.started
        return client

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server process")

    async def stop(self) -> List[str]:
        """Shut down and reap; returns problems (empty on a clean exit)."""
        problems = []
        if self.proc.poll() is None:
            try:
                await self.clients[0].shutdown()
            except (IndexError, OSError, ConnectionError) as exc:
                problems.append(f"shutdown request failed: {exc!r}")
                self.proc.terminate()
        for client in self.clients:
            await client.close()
        try:
            code = await asyncio.get_running_loop().run_in_executor(
                None, lambda: self.proc.wait(timeout=30)
            )
            if code != 0:
                problems.append(f"server exited with {code}")
        except subprocess.TimeoutExpired:
            problems.append("server did not exit after shutdown")
        finally:
            if kill_group(self.proc):
                problems.append("server left a process behind")
            self.log.close()
        return problems


def kill_group(proc: subprocess.Popen) -> bool:
    """Kill and reap ``proc`` and its process group; True if anything
    was still running."""
    left = proc.poll() is None
    try:
        os.killpg(proc.pid, signal.SIGKILL)
        left = True
    except ProcessLookupError:
        pass
    proc.wait()
    return left


def median_ms(samples: List[Sample]) -> float:
    """Median client-side latency of ``samples``, in ms."""
    return statistics.median(wall for _, wall, _ in samples) * 1000.0


async def send(client: Any, key: Key) -> Tuple[float, Dict[str, Any]]:
    start = perf_counter()
    response = await client.request_raw({"op": key[0], "workload": key[1]})
    return perf_counter() - start, response


class ServeRun:
    """Client side of one run: servers, requests, checks and figures."""

    def __init__(self, seed: int, run_dir: str) -> None:
        common.use_src()
        from repro import all_workloads, general_overlay
        from repro.adg import save_sysadg

        self.run_dir = run_dir
        self.design = os.path.join(run_dir, "general.json")
        save_sysadg(general_overlay(), self.design)
        self.keys: List[Key] = [
            (op, w.name) for w in all_workloads() for op in OPS
        ]
        random.Random(seed).shuffle(self.keys)
        self.servers = 0
        self.problems: List[str] = []
        #: result bytes of the first answer to each key; every later
        #: answer must repeat them, and they must equal the single-shot
        #: reference (checked last, once the servers are gone).
        self.first: Dict[Key, Optional[str]] = {}
        self.sent: Counter = Counter()
        self.bad: Counter = Counter()

    def answer(self, key: Key, response: Dict[str, Any], tier: str, timed: bool) -> None:
        from repro.serve import canonical_dumps

        if key not in self.first:
            self.first[key] = (
                canonical_dumps(response.get("result")) if response.get("ok") else None
            )
        expected = self.first[key]
        problems = (
            check_response(response, expected, tier)
            if expected is not None
            else [f"error response: {response.get('error')}"]
        )
        if timed:
            self.sent[key] += 1
            self.bad[key] += bool(problems)
        elif problems:
            self.problems.append(f"untimed {key}: {problems}")
        if problems and sum(self.bad.values()) <= 5:
            print(f"failed {key}: {problems}", file=sys.stderr)

    # -- one server ----------------------------------------------------
    async def with_server(self, traced: bool, body) -> Tuple[Server, Any, float]:
        """Start a server, warm it up, run ``body``; always reap it."""
        self.servers += 1
        server = Server(self.run_dir, self.design, f"s{self.servers}", traced)
        try:
            client = await server.wait_ready()
            await send(client, WARM_UP)
            out = await body(server, client)
            rss = server.peak_rss_mb()
        finally:
            self.problems += await server.stop()
        return server, out, rss

    async def cold_pass(self, client: Any, timed: bool) -> List[Sample]:
        """Every key once, one at a time: each answer is computed."""
        out = []
        for key in self.keys:
            wall, response = await send(client, key)
            self.answer(key, response, "compute", timed)
            out.append((key, wall, response.get("served") or {}))
        return out

    async def warm_phase(self, server: Server, client: Any, passes: int) -> List[Sample]:
        """Two connections each send every key ``passes`` times; each
        answer comes from memory."""
        second = await server.connect()
        samples: List[Sample] = []

        async def loop(conn: Any, offset: int) -> None:
            for i in range(offset, offset + passes * len(self.keys)):
                key = self.keys[i % len(self.keys)]
                wall, response = await send(conn, key)
                self.answer(key, response, "memory", timed=True)
                samples.append((key, wall, response.get("served") or {}))

        await asyncio.gather(loop(client, 0), loop(second, len(self.keys) // 2))
        return samples

    # -- the workload ------------------------------------------------
    async def run_mixed(self, seconds: float, traced: bool) -> Dict[str, Any]:
        """Cold phase, then warm phase, on one server."""
        passes = max(1, round(seconds * WARM_PER_S / (2 * len(self.keys))))

        def body_for(n: int):
            async def body(server: Server, client: Any):
                open(server.start_file, "w").close()
                cold = await self.cold_pass(client, timed=True)
                return cold, await self.warm_phase(server, client, n)

            return body

        if not traced:
            server, (_, warm), rss = await self.with_server(False, body_for(passes))
            return {
                "op_ms": median_ms(warm),
                "peak_rss_mb": rss,
                "setup": [server.setup_s],
            }
        half = max(1, passes // 2)
        _, (cold, warm), _ = await self.with_server(False, body_for(half))
        server, (cold_t, warm_t), _ = await self.with_server(True, body_for(half))
        report = self.layer_report(
            server, cold_t + warm_t, median_ms(warm_t) / median_ms(warm)
        )
        report["serve.cold_ms"] = median_ms(cold)
        report["serve.warm_p99_ms"] = (
            common.percentile([w for _, w, _ in warm], 99) * 1000.0
        )
        return report

    # -- checks and reports ------------------------------------------
    def check_reference(self) -> float:
        """First answers against the single-shot path; returns sim_cycles.

        A key whose first answer is wrong fails every timed answer to it,
        since each repeated those bytes or was already counted.
        """
        from repro.adg import load_sysadg
        from repro.serve import canonical_dumps, single_shot

        sysadg = load_sysadg(self.design)
        cycles = {}
        for key in sorted(self.first):
            op, name = key
            reference = single_shot(op, sysadg, name)
            if reference is None or self.first[key] != canonical_dumps(reference):
                self.bad[key] = self.sent[key]
                print(f"failed {key}: differs from single-shot", file=sys.stderr)
            if op == "simulate" and reference is not None:
                cycles[name] = reference["cycles"]
        self.problems += check_cycles(cycles)
        return geomean([c for c in cycles.values() if c > 0])

    def layer_report(
        self, server: Server, samples: List[Sample], overhead: float
    ) -> Dict[str, float]:
        """Per-request layer metrics of the traced server's requests.

        The server, queue and wire split per tier comes from each
        response's ``served`` block; wire time is what the client saw
        minus what the server measured.
        """
        ledgers = layers.read_dumps(server.ledger_dir)
        if not ledgers:
            self.problems.append("traced server wrote no ledger")
            ledgers = [layers.Ledger().snapshot()]
        extra: Dict[str, float] = {}
        queue_wire = 0.0
        for tier in ("compute", "memory"):
            rows = [
                (wall, s.get("latency_s", 0.0), s.get("queue_wait_s", 0.0))
                for _, wall, s in samples
                if s.get("cache") == tier
            ]
            n = max(1, len(rows))
            server_s = sum(r[1] for r in rows)
            queue_s = sum(r[2] for r in rows)
            wire_s = sum(r[0] - r[1] for r in rows)
            extra[f"serve.server_ms.{tier}"] = server_s * 1000.0 / n
            extra[f"serve.queue_ms.{tier}"] = queue_s * 1000.0 / n
            extra[f"serve.wire_ms.{tier}"] = wire_s * 1000.0 / n
            queue_wire += queue_s + wire_s
        return common.layer_metrics(
            layers.merge(ledgers),
            [wall for _, wall, _ in samples],
            overhead,
            extra,
            attributed_extra_s=queue_wire,
        )


def run(
    seed: int, seconds: float, trace: bool, run_dir: str, probes: int
) -> Dict[str, Any]:
    """One run of ``serve-mixed``: the figures ``run.py`` reports.

    ``probes`` set-up probes run before the workload and as many after.
    """
    bench = ServeRun(seed, run_dir)
    setup = [setup_probe(run_dir, bench.design, f"a{i}") for i in range(probes)]
    metrics = asyncio.run(bench.run_mixed(seconds, trace))
    setup += [setup_probe(run_dir, bench.design, f"b{i}") for i in range(probes)]
    sim_cycles = bench.check_reference()
    if not trace:
        setup += metrics.pop("setup")
        metrics["sim_cycles"] = sim_cycles
    return {
        "metrics": metrics,
        "setup": setup,
        "attempted": sum(bench.sent.values()),
        "failed": sum(bench.bad.values()),
        "problems": bench.problems,
    }


def setup_probe(run_dir: str, design: str, tag: str) -> float:
    """Seconds from spawning a server until its first ``ping`` answer."""

    async def probe() -> float:
        server = Server(run_dir, design, tag, traced=False)
        try:
            await server.wait_ready()
        finally:
            problems = await server.stop()
        if problems:
            raise RuntimeError(f"set-up probe: {problems}")
        return server.setup_s

    return asyncio.run(probe())
