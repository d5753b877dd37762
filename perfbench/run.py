"""The dashboard benchmark: one command, four workloads, checked outputs.

    python3 perfbench/run.py --workload browse --seed 1 --seconds 30 --trace 0

Stands the dashboard up in its own server process (``serve.py``; a
two-worker fleet behind the balancer on ``fleet``), replays the
workload's seeded trace against it from this process in closed loops of
one or two clients, checks every response, and prints one JSON object as
the last line of standard output: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``).  See README.md for the workloads, metrics
and checks.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import http.client
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import workloads as W  # noqa: E402

#: server launches per run; setup_s is their median, so that one slow
#: launch (they vary by a third from one to the next on a 2-vCPU host)
#: does not set a run's figure
SETUP_LAUNCHES = 5
#: a run serves at least this many requests, so that at least ten lie
#: beyond latency_p99_ms
MIN_SAMPLES = 1000
#: where the traced run writes its spans (inside the checkout, ignored by git)
OUT_DIR = os.path.join(ROOT, ".perfbench")



def metric_units(kind: str) -> Dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics, in the
    order BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


class Server:
    """One launched ``serve.py``; ``setup_s`` runs from launch until the
    server has answered its first request."""

    def __init__(self, workload: str, trace: bool):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "serve.py"), "--workload",
             workload, "--trace", str(int(trace))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError("server exited before it was ready")
            self.port = json.loads(line)["ready"]
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
            try:
                conn.request("GET", "/healthz", headers={"Connection": "close"})
                resp = conn.getresponse()
                resp.read()
                if resp.status != 200:
                    raise RuntimeError(f"/healthz answered {resp.status}")
            finally:
                conn.close()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - t0

    def call(self, op: str, payload: Optional[Dict] = None) -> Any:
        self.proc.stdin.write(json.dumps({"op": op, "payload": payload}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"server died during {op!r}")
        return json.loads(line)["reply"]

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write(json.dumps({"op": "stop"}) + "\n")
                self.proc.stdin.flush()
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None:
                stream.close()


class Result:
    """One request as the client saw it.  ``basis`` is the earlier 200
    whose ETag this request sent in ``If-None-Match``, if any."""

    __slots__ = ("user", "url", "kind", "status", "latency_ms", "ttfb_ms",
                 "wire", "raw", "etag", "encoding", "basis", "error",
                 "digest")

    def __init__(self, user, url, kind, basis):
        self.user, self.url, self.kind, self.basis = user, url, kind, basis
        self.status = 0
        self.latency_ms = self.ttfb_ms = 0.0
        self.wire = 0
        self.raw = b""
        self.etag = self.encoding = self.error = self.digest = None


class Client:
    """One closed-loop client: at most one connection at a time."""

    def __init__(self, port: int, spec: Dict):
        self.port = port
        self.keepalive = spec["keepalive"]
        self.gzip = spec["gzip"]
        self.revalidate = spec["revalidate"]
        self.conn: Optional[http.client.HTTPConnection] = None
        #: (user, url) -> (the last 200 with an ETag, its tick serial)
        self.stored: Dict[tuple, tuple] = {}

    def _connection(self) -> http.client.HTTPConnection:
        if self.conn is None or not self.keepalive:
            self.conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        return self.conn

    def fetch(self, user: str, url: str, kind: str,
              basis: Optional[Result]) -> Result:
        res = Result(user, url, kind, basis)
        headers = {"X-Remote-User": user}
        if self.gzip:
            headers["Accept-Encoding"] = "gzip"
        if basis is not None:
            headers["If-None-Match"] = f'"{basis.etag}"'
        if not self.keepalive:
            headers["Connection"] = "close"
        conn = self._connection()
        try:
            t0 = time.perf_counter()
            conn.request("GET", url, headers=headers)
            resp = conn.getresponse()
            if url == W.HOMEPAGE:
                first = resp.read1(1 << 16)
                res.ttfb_ms = (time.perf_counter() - t0) * 1e3
                res.raw = first + resp.read()
            else:
                res.raw = resp.read()
            res.latency_ms = (time.perf_counter() - t0) * 1e3
            res.status = resp.status
            res.etag = (resp.getheader("ETag") or "").strip('"') or None
            res.encoding = resp.getheader("Content-Encoding")
            res.wire = len(res.raw) + 19 + sum(
                len(k) + len(v) + 4 for k, v in resp.getheaders())
        except Exception as exc:  # noqa: BLE001 - reported as a failed check
            res.error = f"{user} {url}: {type(exc).__name__}: {exc}"
            conn.close()
            self.conn = None
        finally:
            if not self.keepalive:
                conn.close()
        return res

    def run(self, requests: List[list], tick: int, out: List[Result]) -> None:
        for user, url, kind in requests:
            stored = self.stored.get((user, url))
            basis = None
            if stored is not None and (
                    kind == "probe2" or (self.revalidate and stored[1] == tick)):
                # outside the probe a validator is sent only within the sim
                # second it was stored: see README "Stale 304s and the probe"
                basis = stored[0]
            res = self.fetch(user, url, kind, basis)
            if res.status == 200 and res.etag is not None:
                self.stored[(user, url)] = (res, tick)
            out.append(res)


def kind_of(url: str) -> str:
    path = url.partition("?")[0]
    if path == W.HOMEPAGE:
        return "homepage"
    return path.rsplit("/", 1)[-1]


class Run:
    """Replays one workload's trace against one server."""

    def __init__(self, workload: str, server: Server, trace: List):
        self.spec = W.SPECS[workload]
        self.server = server
        self.trace = trace
        self.probe = self.spec["revalidate"]
        self.clients = [Client(server.port, self.spec)
                        for _ in range(self.spec["clients"])]
        self.results: List[Result] = []
        self.errors: List[str] = []
        self.failed = 0
        self.serving_s = 0.0
        self.rounds = 0
        self.ticks = 0
        self.verified = self.unverified = 0
        self.stale_etag_200s = 0
        self._bodies: Dict[tuple, str] = {}
        self._ident = 0

    def run(self, rounds: int) -> None:
        t0 = time.perf_counter()
        self.server.call("resume")
        for _ in range(rounds):
            rnd = self.trace[self.rounds % len(self.trace)]
            for t, tick in enumerate(rnd):
                lists = [[[u, url, kind_of(url)] for u, url in reqs]
                         for reqs in tick["requests"]]
                if self.probe and t < 2:
                    url = f"{W.MY_JOBS}?start={1000 + self.rounds}"
                    lists[0].append([W.PROBE_USER, url, f"probe{t + 1}"])
                self._tick(lists, tick)
            self.rounds += 1
        self.loop_s = time.perf_counter() - t0

    def _tick(self, lists: List[List[list]], tick: Dict) -> None:
        serial = self.ticks
        outs: List[List[Result]] = [[] for _ in lists]
        t0 = time.perf_counter()
        if len(lists) == 1:
            self.clients[0].run(lists[0], serial, outs[0])
        else:
            threads = [threading.Thread(target=c.run, args=(reqs, serial, out))
                       for c, reqs, out in zip(self.clients, lists, outs)]
            for th in threads:
                th.start()
            for th in threads:
                th.join()
        self.serving_s += time.perf_counter() - t0
        self.server.call("pause")
        items, probes = [], set()
        for client, out in zip(self.clients, outs):
            for res in out:
                self._inspect(client, res, serial, items, probes)
            self.results.extend(out)
        reply = self.server.call("check", {"items": items})
        self.errors.extend(reply["errors"])
        self.failed += sum(1 for ident in reply["failed"] if ident in probes)
        self.errors.extend(f"stale 304 outside the probe: {ident}"
                           for ident in reply["failed"] if ident not in probes)
        self.verified += reply["verified"]
        self.unverified += reply["unverified"]
        self.server.call("advance", {"advance_s": tick["advance_s"],
                                     "submit": tick["submit"]})
        self.server.call("resume")
        self.ticks += 1

    def _inspect(self, client: Client, res: Result, serial: int,
                 items: List, probes: set) -> None:
        """Client-side checks of one response; queues the server-side ones."""
        if res.error is not None:
            self.errors.append(res.error)
            return
        self._ident += 1
        ident = self._ident
        expected = (200, 304) if res.basis is not None else (200,)
        if res.status not in expected:
            self.errors.append(f"{res.user} {res.url}: status {res.status}")
            return
        if res.status == 304:
            if res.etag != res.basis.etag:
                self.errors.append(f"{res.user} {res.url}: 304 names another ETag")
                return
            if res.kind == "probe2":
                probes.add(ident)
            items.append(["nm", ident, res.user, res.url, res.etag,
                          res.basis.digest])
            return
        body, res.raw = res.raw, b""  # only the digest is kept
        if res.encoding == "gzip":
            try:
                body = gzip.decompress(body)
            except (OSError, EOFError) as exc:
                self.errors.append(f"{res.user} {res.url}: bad gzip body: {exc}")
                return
        body_digest = res.digest = digest(body)
        if res.kind == "homepage":
            if not body.rstrip().endswith(b"</html>"):
                self.errors.append(f"{res.user} /: truncated homepage")
            items.append(["home", ident, res.user, res.url, body_digest])
            return
        try:
            envelope = json.loads(body)
        except ValueError:
            self.errors.append(f"{res.user} {res.url}: body is not JSON")
            return
        if not envelope.get("ok"):
            self.errors.append(f"{res.user} {res.url}: ok is false")
            return
        if res.etag is not None:
            key = (res.user, res.url, res.etag)
            seen = self._bodies.get(key + (serial,))
            if seen is not None and seen != body_digest:
                self.errors.append(f"{res.user} {res.url}: two 200s, one ETag,"
                                   f" two bodies in one sim second")
            previous = self._bodies.get(key)
            if previous is not None and previous != body_digest:
                self.stale_etag_200s += 1  # same ETag across a clock advance
            self._bodies[key] = self._bodies[key + (serial,)] = body_digest
            if res.encoding == "gzip":  # the identity bytes its ETag names
                items.append(["etag", ident, res.user, res.url, res.etag,
                              body_digest])
        data = envelope["data"]
        if res.url == W.MY_JOBS:
            items.append(["my_jobs", ident, res.user, res.url,
                          [job["job_id"] for job in data["jobs"]]])
        elif res.url == W.CLUSTER_STATUS:
            items.append(["nodes", ident, res.user, res.url,
                          [[n["name"], n["state"]] for n in data["nodes"]]])


def p99(values: List[float]) -> float:
    return statistics.quantiles(values, n=100)[98]


def end_to_end(run: Run, stats: Dict, setup_s: float) -> Dict[str, float]:
    res = run.results
    n = len(res)
    home = [r for r in res if r.kind == "homepage"]
    # full My Jobs loads: a revalidation answered 304 is another path
    my_jobs = [r.latency_ms for r in res
               if r.url == W.MY_JOBS and r.basis is None]
    lat = [r.latency_ms for r in res]
    return {
        "latency_p50_ms": statistics.median(lat),
        "latency_p99_ms": p99(lat),
        "homepage_ttfb_p50_ms": statistics.median(r.ttfb_ms for r in home),
        "homepage_p50_ms": statistics.median(r.latency_ms for r in home),
        "my_jobs_p50_ms": statistics.median(my_jobs),
        "throughput_rps": n / run.serving_s,
        "ctld_rpcs_per_req": stats["ctld"] / n,
        "wire_bytes_per_req": sum(r.wire for r in res) / n,
        "rss_mb": stats["rss_mb"],
        "setup_s": setup_s,
    }


def replay(workload: str, seed: int, rounds: int, trace_layers: bool,
           launches: int):
    """Launch the server ``launches`` times (keeping the last), replay
    ``rounds`` rounds of the trace, collect stats."""
    setups = []
    server = None
    try:
        for i in range(launches):
            server = Server(workload, trace_layers)
            setups.append(server.setup_s)
            if i < launches - 1:
                server.stop()
        catalog = server.call("catalog")
        trace = W.build_trace(workload, seed, catalog)
        run = Run(workload, server, trace)
        run.run(rounds)
        stats = server.call("stats")
        if trace_layers:
            os.makedirs(OUT_DIR, exist_ok=True)
            server.call("write_spans", {
                "path": os.path.join(OUT_DIR, f"spans-{workload}-{seed}.jsonl")})
    finally:
        if server is not None:
            server.stop()
    return run, stats, statistics.median(setups), W.digest(trace)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: no src/repro next to the benchmark", file=sys.stderr)
        return 2

    rounds = W.rounds_per_run(args.workload, args.seconds, MIN_SAMPLES)
    if args.trace:
        # an untraced reference over the first half of the same work: the
        # difference of the two latency medians is the tracing overhead
        reference, _, _, _ = replay(args.workload, args.seed,
                                    max(1, rounds // 2), False, 1)
        run, stats, setup_s, trace_digest = replay(
            args.workload, args.seed, rounds, True, 1)
        values = layers.per_layer(
            stats["layers"], len(run.results),
            statistics.fmean(r.latency_ms for r in run.results), run.ticks,
            stats, args.workload == "fleet")
        values["trace.overhead_ms"] = (
            statistics.median(r.latency_ms for r in run.results)
            - statistics.median(r.latency_ms for r in reference.results))
        units = metric_units("per_layer")
    else:
        run, stats, setup_s, trace_digest = replay(
            args.workload, args.seed, rounds, False, SETUP_LAUNCHES)
        values = end_to_end(run, stats, setup_s)
        units = metric_units("end_to_end")
    if stats.get("rejected"):
        run.errors.append(f"{stats['rejected']:.0f} requests shed by admission")
    for error in run.errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "trace_digest": trace_digest, "rounds": run.rounds, "ticks": run.ticks,
        "samples": len(run.results), "serving_s": round(run.serving_s, 3),
        "loop_s": round(run.loop_s, 3),
        "checks_verified": run.verified, "checks_unverified": run.unverified,
        "stale_etag_200s": run.stale_etag_200s,
        "cache_entries": stats["cache_entries"], "errors": len(run.errors),
    }))
    print(json.dumps({
        "correct": not run.errors,
        "attempted": len(run.results),
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
