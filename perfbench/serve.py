"""Server process of the benchmark: one dashboard, or a two-worker fleet.

Started by ``run.py`` as ``python3 perfbench/serve.py --workload W
--trace 0|1``.  It builds the demo dashboard (cluster seed fixed, so the
catalog of users, jobs and nodes is the same for every workload), serves
it over HTTP, prints ``{"ready": port}`` and then answers control
commands, one JSON object per line on stdin/stdout:

* ``catalog`` — users, each user's jobs, nodes and job templates;
* ``resume`` / ``pause`` — start and end a timed request phase;
* ``check`` — the server-side output checks of one tick's responses, at
  the current sim time;
* ``advance`` — advance the sim clock (and submit jobs on ``churn``);
* ``stats`` — RPCs, CPU, peak RSS and the traced layers' aggregates;
* ``write_spans`` — write the traced spans to a file;
* ``stop``.

Checks run while no request is in flight and refresh-ahead is paused,
so they neither race the timed requests nor change what later requests
see.  ``fleet`` runs ``WorkerFleet`` as the project ships it, with each
worker's cache capped; the same commands reach each worker over a pipe
of the benchmark's own (see ``BenchWorkerConfig``), and the clock moves
through the fleet's relay.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing as mp
import os
import resource
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, List
from urllib.parse import parse_qsl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import layers  # noqa: E402
from repro.scaleout import WorkerConfig  # noqa: E402

#: fleet workers inherit these through ``fork``: the benchmark's side of
#: each worker's control, keyed by worker name (see ``BenchWorkerConfig``)
_WORKER_ARGS: Dict[str, Any] = {}
#: per-worker cache cap on ``fleet``, the value of the project's own
#: scale-out A/B (``repro.load.scaleout.fleet_worker_config``)
FLEET_CACHE_MAX_ENTRIES = 56


def digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def ids_digest(ids) -> str:
    return digest(json.dumps(sorted(ids)).encode())


class BenchNode:
    """Benchmark control of one dashboard process."""

    def __init__(self, dash, directory, spans: layers.Spans, traced: bool,
                 workload: str):
        from repro.slurm.workload import WorkloadConfig, WorkloadGenerator

        self.dash = dash
        self.ctx = dash.ctx
        self.cluster = dash.ctx.cluster
        self.directory = directory
        self.spans = spans
        self.traced = traced
        self.churn = workload == "churn"
        # the demo cluster's own seed: submissions are the same every run
        self.generator = WorkloadGenerator(WorkloadConfig())
        self.totals: Counter = Counter()
        self._mark: Dict[str, float] = {}
        self._advancing = False
        self.jobs_seen: Dict[str, Dict[str, float]] = {}
        self.nodes_seen: Dict[str, float] = {}
        self.cluster.bus.subscribe(self._on_change)
        self._snapshot_state()

    # -- oracle state ---------------------------------------------------------

    def _on_change(self, _change) -> None:
        if self._advancing:
            self.totals["state_changes"] += 1

    def _snapshot_state(self) -> None:
        """Record, at this sim time, each user's job ids (read from the
        scheduler and accounting) and every node's state."""
        now = self.cluster.now()
        jobs = list(self.cluster.accounting.query()) + [
            j for j in self.cluster.scheduler.visible_jobs()
            if not j.state.is_terminal
        ]
        for user in self.directory.users():
            accounts = set(self.directory.account_names_of(user.username))
            ids = {j.display_id for j in jobs
                   if j.user == user.username or j.account in accounts}
            self.jobs_seen.setdefault(user.username, {})[ids_digest(ids)] = now
        states = [[name, node.state.value]
                  for name, node in self.cluster.nodes.items()]
        self.nodes_seen[ids_digest(map(tuple, states))] = now

    def _seen_within(self, seen: Dict[str, float], key: str, source: str) -> bool:
        at = seen.get(key)
        ttl = self.ctx.cache_policy.serve_ttl_for(source)
        return at is not None and self.cluster.now() - at <= ttl

    # -- timed phases -----------------------------------------------------------

    def _counters(self) -> Dict[str, float]:
        rpcs = self.cluster.daemons.rpc_totals()
        return {
            "ctld": rpcs["slurmctld"], "dbd": rpcs["slurmdbd"],
            "cpu_s": time.process_time(),
            "rejected": self.ctx.obs.registry.total(
                "repro_admission_rejected_total"),
        }

    def resume(self) -> None:
        self._mark = self._counters()
        self.spans.enabled = self.traced

    def pause(self) -> None:
        registry = self.ctx.obs.registry
        active = registry.get("repro_worker_pool_active")
        queued = registry.get("repro_worker_pool_queue_depth")
        pool = self.ctx.workers.name
        deadline = time.monotonic() + 5.0
        while (active.value(pool=pool) + queued.value(pool=pool) > 0
               and time.monotonic() < deadline):
            time.sleep(0.0005)  # let armed refreshes land inside the phase
        self.spans.enabled = False
        now = self._counters()
        for key, value in now.items():
            self.totals[key] += value - self._mark.get(key, value)

    def advance(self, seconds: float, templates: List[str]) -> None:
        self._advancing = True
        t0 = time.perf_counter()
        self.spans.enabled = self.traced
        try:
            if self.churn:  # runs scheduler passes: jobs start and end
                self.cluster.advance(seconds)
            else:  # what the fleet's clock relay does on every worker
                self.dash.clock.advance(seconds)
        finally:
            self.spans.enabled = False
        self.totals["advance_s"] += time.perf_counter() - t0
        for template in templates:
            spec = self.generator.make_spec(template, self.directory, self.cluster)
            self.cluster.submit(spec)
        self._advancing = False
        self.advanced()

    def advanced(self) -> None:
        """Bookkeeping after a clock advance (on a fleet worker the
        fleet's relay has moved the clock)."""
        self.totals["ticks"] += 1
        self._snapshot_state()

    # -- checks -----------------------------------------------------------------

    def check(self, items: List[list]) -> Dict[str, Any]:
        """Check one tick's responses; see README "Output checks"."""
        from repro.auth import Viewer
        from repro.core.params import coerce_params

        cache = self.ctx.cache
        gate = cache.refresh_gate
        cache.refresh_gate = lambda: False
        result = {"failed": [], "errors": [], "verified": 0, "unverified": 0}
        try:
            for item in items:
                kind, ident, user, url = item[:4]
                viewer = Viewer(username=user)
                if kind in ("etag", "nm"):
                    etag, body_digest = item[4], item[5]
                    path, _, query = url.partition("?")
                    params = coerce_params(parse_qsl(query, keep_blank_values=True))
                    response = self.dash.get(path, viewer, params)
                    if response.etag != etag:
                        result["unverified"] += 1  # entries rewritten since
                        continue
                    current = digest(json.dumps(response.to_json()).encode())
                    if current == body_digest:
                        result["verified"] += 1
                    elif kind == "nm":
                        result["failed"].append(ident)
                    else:
                        result["errors"].append(
                            f"200 body for {user} {url} differs from the body"
                            f" its ETag names")
                elif kind == "my_jobs":
                    if self._seen_within(self.jobs_seen.get(user, {}),
                                         ids_digest(item[4]), "sacct"):
                        result["verified"] += 1
                    else:
                        result["errors"].append(
                            f"my_jobs ids for {user} match no scheduler and"
                            f" accounting state within the sacct TTL")
                elif kind == "nodes":
                    if self._seen_within(self.nodes_seen,
                                         ids_digest(map(tuple, item[4])),
                                         "scontrol_node"):
                        result["verified"] += 1
                    else:
                        result["errors"].append(
                            "cluster_status node states match no"
                            " SlurmCluster.nodes state within the TTL")
                elif kind == "home":
                    batch = self.dash.render_homepage(viewer, parallel=False)
                    if digest(batch.document.encode()) == item[4]:
                        result["verified"] += 1
                        continue
                    # the served stream may predate a refresh-ahead
                    # rewrite; a fresh stream must still match the batch
                    streamed = "".join(self.dash.stream_homepage(viewer))
                    if streamed == batch.document:
                        result["unverified"] += 1
                    else:
                        result["errors"].append(
                            f"streamed homepage of {user} differs from"
                            f" render_homepage(parallel=False)")
        finally:
            cache.refresh_gate = gate
        return result

    # -- reports ----------------------------------------------------------------

    def catalog(self) -> Dict[str, Any]:
        from repro.slurm.workload import WorkloadConfig

        users = [u.username for u in self.directory.users()]
        jobs = list(self.cluster.accounting.query()) + list(
            self.cluster.scheduler.visible_jobs())
        owned: Dict[str, set] = {u: set() for u in users}
        for job in jobs:
            owned.setdefault(job.user, set()).add(job.job_id)
        return {
            "users": users,
            "jobs": {u: sorted(owned[u]) for u in users},
            "job_owners": sorted([j, u] for u in users for j in owned[u]),
            "nodes": sorted(self.cluster.nodes),
            "templates": sorted(WorkloadConfig().mix),
        }

    def stats(self) -> Dict[str, Any]:
        out = dict(self.totals)
        out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out["cache_entries"] = len(self.ctx.cache)
        out["layers"] = self.spans.snapshot() if self.traced else None
        return out

    def handle(self, op: str, payload: Dict[str, Any]) -> Any:
        if op == "catalog":
            return self.catalog()
        if op == "resume":
            return self.resume()
        if op == "pause":
            return self.pause()
        if op == "check":
            return self.check(payload["items"])
        if op == "advance":
            return self.advance(payload["advance_s"], payload["submit"])
        if op == "advanced":
            return self.advanced()
        if op == "stats":
            return self.stats()
        if op == "write_spans":
            return self.spans.write(payload["path"])
        raise ValueError(f"unknown op {op!r}")


@dataclass(frozen=True)
class BenchWorkerConfig(WorkerConfig):
    """A ``WorkerConfig`` whose ``build`` also attaches a ``BenchNode`` to
    the dashboard it builds.  The fleet runs its own worker entry point
    unchanged; the benchmark's commands reach the node over a second
    pipe that the worker inherits through ``fork``, served by a thread
    of the worker."""

    def build(self):
        dash, directory, result = super().build()
        args = _WORKER_ARGS
        name = mp.current_process().name.rpartition("-")[2]
        node = BenchNode(dash, directory, args["spans"], args["traced"],
                         args["workload"])
        threading.Thread(target=_serve_bench, args=(node, args["pipes"][name][1]),
                         name=f"bench-{name}", daemon=True).start()
        return dash, directory, result


def _serve_bench(node: "BenchNode", conn) -> None:
    while True:
        try:
            op, payload = conn.recv()
        except (EOFError, OSError):
            return
        conn.send(node.handle(op, payload))


class Fleet:
    """The control side of a two-worker fleet behind its balancer."""

    def __init__(self, spans: layers.Spans, traced: bool, workload: str):
        from repro.scaleout import WorkerFleet

        self.spans = spans
        self.traced = traced
        config = BenchWorkerConfig(cache_max_entries=FLEET_CACHE_MAX_ENTRIES)
        self.fleet = WorkerFleet(workers=2, config=config, start_method="fork")
        self.pipes = {name: mp.Pipe() for name in self.fleet.worker_names}
        _WORKER_ARGS.update(spans=spans, traced=traced, workload=workload,
                            pipes=self.pipes)
        try:
            self.fleet.start()
        finally:
            for _parent, child in self.pipes.values():
                child.close()  # the workers hold their ends now
        self.balancer = self.fleet.balancer
        self.totals: Counter = Counter()
        self._mark = 0.0

    def _bench(self, name: str, op: str, payload=None):
        conn = self.pipes[name][0]
        conn.send((op, payload or {}))
        return conn.recv()

    def _all(self, op: str, payload=None) -> list:
        return [self._bench(n, op, payload) for n in self.fleet.worker_names]

    def handle(self, op: str, payload: Dict[str, Any]) -> Any:
        if op == "catalog":
            return self._bench("w0", "catalog")
        if op == "resume":
            self._mark = time.process_time()
            self._all("resume")
            self.spans.enabled = self.traced
            return None
        if op == "pause":
            self.spans.enabled = False
            self.totals["cpu_s"] += time.process_time() - self._mark
            self._all("pause")
            return None
        if op == "check":
            groups: Dict[str, list] = {}
            for item in payload["items"]:
                owner = self.balancer.route(item[2], False, item[3])[0][0]
                groups.setdefault(owner, []).append(item)
            merged = {"failed": [], "errors": [], "verified": 0, "unverified": 0}
            for name, items in groups.items():
                part = self._bench(name, "check", {"items": items})
                for key in merged:
                    merged[key] += part[key]
            return merged
        if op == "advance":
            # the relay broadcasts to every worker and barriers on the acks
            t0 = time.perf_counter()
            self.fleet.clock.advance(payload["advance_s"])
            self.totals["advance_s"] += time.perf_counter() - t0
            self._all("advanced")
            return None
        if op == "stats":
            parts = self._all("stats")
            out: Counter = Counter()
            for part in parts:
                out.update({k: v for k, v in part.items() if k != "layers"})
            out["ticks"] = parts[0]["ticks"]
            out["advance_s"] = self.totals["advance_s"]
            out["cpu_s"] += self.totals["cpu_s"]
            out["rss_mb"] += resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            result = dict(out)
            result["layers"] = None
            if self.traced:
                result["layers"] = {
                    "front": self.spans.snapshot(),
                    "back": layers.merge([p["layers"] for p in parts]),
                }
            return result
        if op == "write_spans":
            self.spans.write(payload["path"])
            for name in self.fleet.worker_names:
                self._bench(name, "write_spans",
                            {"path": f"{payload['path']}.{name}"})
            return None
        raise ValueError(f"unknown op {op!r}")

    def stop(self) -> None:
        # the workers hold nothing worth a graceful stop, which would cost
        # each HTTP server's 0.5 s shutdown poll on every launch: SIGKILL
        # and reap them; the balancer's threads end with this process
        for name in self.fleet.worker_names:
            self.fleet.kill(name)
        for parent, _child in self.pipes.values():
            parent.close()


class Single:
    """The control side of one dashboard served in this process."""

    def __init__(self, spans: layers.Spans, traced: bool, workload: str):
        from repro import build_demo_dashboard
        from repro.web import DashboardServer

        dash, directory, _ = build_demo_dashboard()
        self.node = BenchNode(dash, directory, spans, traced, workload)
        self.server = DashboardServer(dash).start()
        self.port = self.server.port

    def handle(self, op: str, payload: Dict[str, Any]) -> Any:
        result = self.node.handle(op, payload)
        if op == "stats" and self.node.traced:
            part = result["layers"]
            result["layers"] = {"front": part, "back": part}
        return result

    def stop(self) -> None:
        """Nothing to do: the server's threads are daemonic and end with
        the process, without the 0.5 s shutdown poll of a graceful stop."""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    traced = bool(args.trace)
    spans = layers.Spans()
    if traced:
        layers.install(spans)
    if args.workload == "fleet":
        target: Any = Fleet(spans, traced, args.workload)
        port = target.balancer.port
    else:
        target = Single(spans, traced, args.workload)
        port = target.port
    out = sys.stdout
    out.write(json.dumps({"ready": port}) + "\n")
    out.flush()
    try:
        for line in sys.stdin:
            msg = json.loads(line)
            if msg["op"] == "stop":
                break
            reply = target.handle(msg["op"], msg.get("payload") or {})
            out.write(json.dumps({"reply": reply}) + "\n")
            out.flush()
    finally:
        target.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
