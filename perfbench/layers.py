"""Layer tracing for the traced run, installed from the benchmark's files.

:func:`install` wraps the public entry points of each serving layer in
the server process (and, through ``fork``, in fleet workers) before it
serves a request.  Each wrapper opens a span on a per-thread stack; when
a span ends its duration is charged to its parent, so a span's *self*
time is its duration minus the time its child spans cover.  Spans are
kept in memory and written out when the run ends.

:func:`per_layer` turns the aggregates of one run into the per-layer
metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import json
import threading
import time
import types
from collections import Counter
from typing import Any, Callable, Dict, Iterator, List, Optional

#: raw spans kept per process; beyond this only aggregates grow
MAX_RAW = 200_000


class Spans:
    """Per-process span store: aggregates by name plus raw spans."""

    def __init__(self) -> None:
        self.enabled = False
        self.counts: Counter = Counter()
        #: name -> [count, outer seconds, self seconds]
        self.agg: Dict[str, List[float]] = {}
        self.raw: List[tuple] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Optional[list]:
        if not self.enabled:
            return None
        frame = [name, time.perf_counter(), 0.0]
        self._stack().append(frame)
        return frame

    def end(self, frame: Optional[list]) -> None:
        if frame is None:
            return
        t1 = time.perf_counter()
        stack = self._stack()
        while stack and stack[-1] is not frame:  # unwound by an exception
            stack.pop()
        if stack:
            stack.pop()
        name, t0, child = frame
        dur = t1 - t0
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[2] += dur
        # nested spans of one name (a re-entrant call) count once as outer
        outer = dur if not any(f[0] == name for f in stack) else 0.0
        with self._lock:
            entry = self.agg.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += outer
            entry[2] += dur - child
            if len(self.raw) < MAX_RAW:
                self.raw.append((name, t0, dur, parent[0] if parent else "",
                                 threading.get_ident()))

    def count(self, key: str, n: float = 1) -> None:
        if self.enabled:
            with self._lock:
                self.counts[key] += n

    def timed(self, name: str, fn: Callable) -> Callable:
        def run(*args, **kwargs):
            frame = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(frame)
        return run

    def timed_iter(self, name: str, it: Iterator) -> Iterator:
        while True:
            frame = self.begin(name)
            try:
                item = next(it)
            except StopIteration:
                self.end(frame)
                return
            except BaseException:
                self.end(frame)
                raise
            self.end(frame)
            yield item

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {"agg": {k: list(v) for k, v in self.agg.items()},
                    "counts": dict(self.counts)}

    def write(self, path: str) -> None:
        with self._lock, open(path, "w") as fh:
            for name, t0, dur, parent, thread in self.raw:
                fh.write(json.dumps([name, round(t0, 7), round(dur, 7),
                                     parent, thread]) + "\n")


def _wrap(spans: Spans, owner, attr: str, name: str) -> None:
    setattr(owner, attr, spans.timed(name, getattr(owner, attr)))


def install(spans: Spans) -> None:
    """Wrap every layer's public entry points, once per process."""
    import gzip
    import zlib

    from repro.core import routes as core_routes
    from repro.core.caching import TTLCache
    from repro.core.dashboard import Dashboard
    from repro.core.routes import RouteRegistry, RouteResponse
    from repro.core.workers import WorkerPool
    from repro.faults.resilience import ResilientFetcher
    from repro.scaleout import balancer as bal
    from repro.sim.clock import SimClock
    from repro.slurm.commands import Sacct, Scontrol, Sinfo, Squeue
    from repro.slurm.daemon import DaemonBus
    from repro.web import server as web
    from repro.web.delivery import ValidatorIndex

    # -- repro.web.server -------------------------------------------------
    _wrap(spans, web._Handler, "do_GET", "server.handler")
    handle = web._Handler.handle

    def counted_handle(self):
        spans.count("server.connections")
        return handle(self)

    web._Handler.handle = counted_handle
    web.json = types.SimpleNamespace(
        dumps=spans.timed("server.encode", json.dumps))
    _wrap(spans, RouteResponse, "to_json", "server.encode")

    # -- repro.web.delivery -------------------------------------------------
    validate = ValidatorIndex.validate

    def counted_validate(self, *args, **kwargs):
        frame = spans.begin("delivery.validate")
        try:
            record = validate(self, *args, **kwargs)
        finally:
            spans.end(frame)
        if record is not None:
            spans.count("delivery.not_modified")
        return record

    ValidatorIndex.validate = counted_validate
    _wrap(spans, ValidatorIndex, "record", "delivery.validate")

    def compress(data, *args, **kwargs):
        out = spans.timed("delivery.gzip", gzip.compress)(data, *args, **kwargs)
        spans.count("gzip.in", len(data))
        spans.count("gzip.out", len(out))
        return out

    web.gzip = types.SimpleNamespace(compress=compress)

    class _Compressor:
        def __init__(self, inner):
            self._inner = inner

        def compress(self, data):
            spans.count("gzip.in", len(data))
            out = spans.timed("delivery.gzip", self._inner.compress)(data)
            spans.count("gzip.out", len(out))
            return out

        def flush(self, mode=zlib.Z_FINISH):
            out = spans.timed("delivery.gzip", self._inner.flush)(mode)
            spans.count("gzip.out", len(out))
            return out

    web.zlib = types.SimpleNamespace(
        compressobj=lambda *a, **k: _Compressor(zlib.compressobj(*a, **k)),
        Z_SYNC_FLUSH=zlib.Z_SYNC_FLUSH, Z_FINISH=zlib.Z_FINISH)

    # -- repro.core.routes, pages and widgets -----------------------------
    _wrap(spans, Dashboard, "get", "dashboard.get")
    _wrap(spans, Dashboard, "call", "dashboard.call")
    stream_homepage = Dashboard.stream_homepage

    def traced_stream(self, viewer):
        spans.count("homepages")
        return spans.timed_iter("page:homepage", stream_homepage(self, viewer))

    Dashboard.stream_homepage = traced_stream
    call = RouteRegistry.call

    def traced_call(self, ctx, name, *args, **kwargs):
        return spans.timed(f"route:{name}", call)(self, ctx, name, *args, **kwargs)

    RouteRegistry.call = traced_call

    # -- repro.core.workers -------------------------------------------------
    gather = WorkerPool.scatter_gather

    def traced_gather(self, fns):
        spans.count("fanout.calls")
        spans.count("fanout.tasks", len(fns))
        return spans.timed("workers.fanout", gather)(self, fns)

    WorkerPool.scatter_gather = traced_gather
    stream = WorkerPool.scatter_stream

    def traced_stream_pool(self, fns):
        spans.count("fanout.calls")
        spans.count("fanout.stream_tasks", len(fns))
        it = spans.timed("workers.fanout", stream)(self, fns)
        return spans.timed_iter("workers.fanout", iter(it))

    WorkerPool.scatter_stream = traced_stream_pool

    # -- repro.core.caching -------------------------------------------------
    lookup = TTLCache.lookup

    def traced_lookup(self, key, compute, *args, **kwargs):
        frame = spans.begin("cache.lookup")
        try:
            result = lookup(self, key, spans.timed("cache.compute", compute),
                            *args, **kwargs)
        finally:
            spans.end(frame)
        spans.count("cache.lookups")
        if result.result == "hit":
            spans.count("cache.hits")
        return result

    TTLCache.lookup = traced_lookup

    # -- repro.faults ---------------------------------------------------------
    fetch = ResilientFetcher.fetch

    def traced_fetch(self, *args, **kwargs):
        outcome = spans.timed("fetch", fetch)(self, *args, **kwargs)
        spans.count("fetch.retries", outcome.attempts - 1)
        return outcome

    ResilientFetcher.fetch = traced_fetch

    # -- repro.slurm.daemon and repro.slurm.commands --------------------------
    record = DaemonBus.record

    def counted_record(self, command, kind=""):
        spans.count("rpc." + self.model_for(command).config.name)
        return record(self, command, kind)

    DaemonBus.record = counted_record
    for cls, attrs in ((Squeue, ("run",)), (Sinfo, ("run",)), (Sacct, ("run",)),
                       (Scontrol, ("show_job", "show_node", "show_nodes",
                                   "show_assoc"))):
        for attr in attrs:
            _wrap(spans, cls, attr, "daemon.render")
    for attr in ("parse_squeue", "parse_sinfo", "parse_sacct",
                 "parse_scontrol_blocks"):
        _wrap(spans, core_routes, attr, "daemon.parse")

    # -- repro.sim ------------------------------------------------------------
    _wrap(spans, SimClock, "advance", "sim.advance")

    # -- repro.scaleout -------------------------------------------------------
    _wrap(spans, bal._BalancerHandler, "do_GET", "balancer.handler")
    bal_handle = bal._BalancerHandler.handle

    def counted_bal_handle(self):
        spans.count("balancer.connections")
        return bal_handle(self)

    bal._BalancerHandler.handle = counted_bal_handle
    route = bal.BalancerServer.route

    def counted_route(self, *args, **kwargs):
        candidates, routing = route(self, *args, **kwargs)
        spans.count("balancer.routed")
        if routing == "affinity":
            spans.count("balancer.affinity")
        return candidates, routing

    bal.BalancerServer.route = counted_route
    _wrap(spans, bal.BalancerServer, "fetch", "balancer.fetch")


def merge(parts: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum span aggregates and counters of several processes."""
    agg: Dict[str, List[float]] = {}
    counts: Counter = Counter()
    for part in parts:
        for name, (n, outer, self_s) in part["agg"].items():
            entry = agg.setdefault(name, [0, 0.0, 0.0])
            entry[0] += n
            entry[1] += outer
            entry[2] += self_s
        counts.update(part["counts"])
    return {"agg": agg, "counts": dict(counts)}


WIDGET_ROUTES = ("recent_jobs", "system_status", "accounts", "storage",
                 "announcements")


def per_layer(layers: Dict[str, Any], requests: int, client_mean_ms: float,
              ticks: int, server: Dict[str, float], fleet: bool) -> Dict[str, float]:
    """The per-layer metrics of one traced run.

    ``layers`` holds ``front`` (the process the client talks to) and
    ``back`` (the processes that run the dashboard: the same process on a
    single server, the workers on a fleet).
    """
    front, back = layers["front"], layers["back"]

    def ag(part, name, field):  # field: 0 count, 1 outer s, 2 self s
        return part["agg"].get(name, [0, 0.0, 0.0])[field]

    def cnt(part, name):
        return part["counts"].get(name, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    n = requests
    handler = "balancer.handler" if fleet else "server.handler"
    handler_self = ag(front, handler, 2)
    lookups = cnt(back, "cache.lookups")
    rpcs = cnt(back, "rpc.slurmctld") + cnt(back, "rpc.slurmdbd")
    widget_self = sum(ag(back, f"route:{w}", 2) for w in WIDGET_ROUTES)
    widget_calls = sum(ag(back, f"route:{w}", 0) for w in WIDGET_ROUTES)
    out = {
        "server.handler_ms": 1e3 * handler_self / n,
        "server.wait_ms": client_mean_ms - 1e3 * ag(front, handler, 1) / n,
        "server.connections_per_req": ratio(
            cnt(front, "balancer.connections" if fleet else "server.connections"), n),
        "server.encode_ms": 1e3 * ag(back, "server.encode", 2) / n,
        "server.cpu_ms_per_req": 1e3 * server.get("cpu_s", 0.0) / n,
        "delivery.validate_ms": 1e3 * ag(back, "delivery.validate", 2) / n,
        "delivery.not_modified_per_req": cnt(back, "delivery.not_modified") / n,
        "delivery.gzip_ms": 1e3 * ag(back, "delivery.gzip", 2) / n,
        "delivery.gzip_ratio": ratio(cnt(back, "gzip.out"), cnt(back, "gzip.in")),
        "routes.calls_per_req": sum(
            v[0] for k, v in back["agg"].items() if k.startswith("route:")) / n,
        "routes.my_jobs_ms": 1e3 * ratio(ag(back, "route:my_jobs", 2),
                                         ag(back, "route:my_jobs", 0)),
        "routes.homepage_ms": 1e3 * ratio(ag(back, "page:homepage", 2),
                                          cnt(back, "homepages")),
        "routes.job_overview_ms": 1e3 * ratio(ag(back, "route:job_overview", 2),
                                              ag(back, "route:job_overview", 0)),
        "routes.node_overview_ms": 1e3 * ratio(ag(back, "route:node_overview", 2),
                                               ag(back, "route:node_overview", 0)),
        "routes.cluster_status_ms": 1e3 * ratio(ag(back, "route:cluster_status", 2),
                                                ag(back, "route:cluster_status", 0)),
        "routes.widgets_ms": 1e3 * ratio(widget_self, widget_calls),
        "workers.fanout_ms": 1e3 * ratio(ag(back, "workers.fanout", 1),
                                         cnt(back, "fanout.calls")),
        "workers.tasks_per_homepage": ratio(cnt(back, "fanout.stream_tasks"),
                                            cnt(back, "homepages")),
        "cache.lookups_per_req": lookups / n,
        "cache.hit_ratio": ratio(cnt(back, "cache.hits"), lookups),
        "cache.lookup_us": 1e6 * ratio(ag(back, "cache.lookup", 2), lookups),
        "cache.miss_compute_ms": 1e3 * ratio(ag(back, "cache.compute", 1),
                                             ag(back, "cache.compute", 0)),
        "fetch.self_us": 1e6 * ratio(ag(back, "fetch", 2), ag(back, "fetch", 0)),
        "fetch.retries_per_req": cnt(back, "fetch.retries") / n,
        "admission.rejected_per_req": server.get("rejected", 0) / n,
        "daemon.ctld_rpcs_per_req": cnt(back, "rpc.slurmctld") / n,
        "daemon.dbd_rpcs_per_req": cnt(back, "rpc.slurmdbd") / n,
        "daemon.rpc_ms": 1e3 * ratio(ag(back, "daemon.render", 1)
                                     + ag(back, "daemon.parse", 1), rpcs),
        "sim.advance_ms_per_tick": 1e3 * ratio(server.get("advance_s", 0.0), ticks),
        "sim.state_changes_per_tick": ratio(server.get("state_changes", 0), ticks),
        "balancer.proxy_ms": 1e3 * ratio(ag(front, "balancer.fetch", 1),
                                         ag(front, "balancer.fetch", 0)),
        "balancer.upstream_connects_per_req": (
            cnt(back, "server.connections") / n if fleet else 0.0),
        "balancer.affinity_share": ratio(cnt(front, "balancer.affinity"),
                                         cnt(front, "balancer.routed")),
        "fleet.worker_hit_ratio": (
            ratio(cnt(back, "cache.hits"), lookups) if fleet else 0.0),
    }
    return out
