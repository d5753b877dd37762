"""Seeded traces for the four benchmark workloads.

A trace is a list of *rounds*; a round is a list of *ticks*; a tick holds
each client's ordered requests plus the sim-clock step (and, on
``churn``, the job templates the server submits) that follow it.  A run
replays whole rounds, cycling through the list, so every run attempts
the same operations in the same proportions whatever its length.

The traces depend only on ``--seed`` and on the catalog of the demo
cluster (users, their jobs, nodes), which is fixed.  This module does
not use :mod:`repro.load`, so changes to the project's load runner
cannot change the benchmark's inputs.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from typing import Dict, Iterator, List, Sequence

ROUNDS = 16

WIDGETS = (
    "/api/v1/widgets/recent_jobs",
    "/api/v1/widgets/system_status",
    "/api/v1/widgets/accounts",
    "/api/v1/widgets/storage",
    "/api/v1/widgets/announcements",
)
HOMEPAGE = "/"
MY_JOBS = "/api/v1/my_jobs"
CLUSTER_STATUS = "/api/v1/cluster_status"
JOB_PERFORMANCE = "/api/v1/job_performance"
NODE_OVERVIEW = "/api/v1/node_overview"
JOB_OVERVIEW = "/api/v1/job_overview"

#: page mix of a browser session, copied from the project's
#: ``repro.load.scenarios.DEFAULT_ROUTE_MIX`` ("route mix mirroring the
#: paper's pages": homepage first, then My Jobs, the cluster views and
#: direct widget fetches).  Kept here as constants so that changes to the
#: load runner cannot change the benchmark's inputs.
BROWSE_MIX = (
    ("homepage", 0.35), ("my_jobs", 0.20), ("node_overview", 0.10),
    ("job_overview", 0.10), ("cluster_status", 0.10),
    (WIDGETS[0], 0.05), (WIDGETS[1], 0.05), (WIDGETS[2], 0.03),
    (WIDGETS[3], 0.02),
)
#: API pollers: no source gives their mix.  These weights are an
#: assumption: the routes an API client polls (My Jobs first, then job
#: performance, cluster status and the homepage's widgets, one widget
#: route each) with cold homepage tabs beside them.
POLL_MIX = (
    ("my_jobs", 0.30), ("job_performance", 0.15), ("cluster_status", 0.15),
    (WIDGETS[0], 0.05), (WIDGETS[1], 0.05), (WIDGETS[2], 0.05),
    (WIDGETS[3], 0.05), (WIDGETS[4], 0.05), ("homepage", 0.15),
)

#: per-workload shape: clients, connection mode, ticks, requests
#: ``rps`` is the request rate each workload served on the reference
#: machine (README "Reference figures"); a run replays as many whole
#: rounds as that rate serves in ``--seconds``, the same work on every
#: commit, so that a faster or slower program does not change how far
#: the sim clock and the job history move during a run
SPECS: Dict[str, Dict] = {
    "browse": {"clients": 2, "keepalive": True, "gzip": True,
               "revalidate": True, "per_tick": 6, "ticks": 10,
               "tick_s": (1.0, 2.0), "submit": 0, "rps": 53},
    "poll": {"clients": 1, "keepalive": False, "gzip": False,
             "revalidate": False, "per_tick": 12, "ticks": 10,
             "tick_s": (1.0,), "submit": 0, "rps": 118},
    "churn": {"clients": 1, "keepalive": False, "gzip": False,
              "revalidate": False, "per_tick": 15, "ticks": 6,
              "tick_s": (30.0,), "submit": 1, "rps": 92},
}
#: the same trace and the same number of rounds as ``browse``
SPECS["fleet"] = SPECS["browse"]
WORKLOADS = ("browse", "poll", "churn", "fleet")

#: the probe user and route: a fixed request pair per round, the second
#: revalidating the first's ETag after one clock advance (see README)
PROBE_USER = "alice"
#: browser requests per client and tick that reload a page opened
#: earlier in the same tick
RELOADS_PER_TICK = 2


def zipf(n: int, s: float = 1.0) -> List[float]:
    weights = [1.0 / (k ** s) for k in range(1, n + 1)]
    total = sum(weights)
    return [w / total for w in weights]


def allocate(weights: Sequence[float], total: int) -> List[int]:
    """Integer counts proportional to ``weights`` that sum to ``total``
    (largest remainders), so every round has the same composition."""
    raw = [w * total / sum(weights) for w in weights]
    counts = [int(r) for r in raw]
    order = sorted(range(len(raw)), key=lambda i: counts[i] - raw[i])
    for i in order[: total - sum(counts)]:
        counts[i] += 1
    return counts


def shuffled(rng: random.Random, items: Sequence, counts: Sequence[int]) -> list:
    out = [item for item, n in zip(items, counts) for _ in range(n)]
    rng.shuffle(out)
    return out


def _url(kind: str, user: str, picks: Dict) -> str:
    if kind in WIDGETS:
        return kind
    if kind == "node_overview":
        return f"{NODE_OVERVIEW}?node={next(picks['node'])}"
    if kind == "job_overview":
        return f"{JOB_OVERVIEW}?job_id={next(picks['jobs'][user])}"
    return {"homepage": HOMEPAGE, "my_jobs": MY_JOBS,
            "cluster_status": CLUSTER_STATUS,
            "job_performance": JOB_PERFORMANCE}[kind]


def _pairs(mix, users, n: int) -> List[tuple]:
    """(kind, user) pairs with both shares fixed: kinds by the mix, and
    the users of each kind by Zipf skew."""
    pairs = []
    for (kind, _), count in zip(mix, allocate([w for _, w in mix], n)):
        for user, k in zip(users, allocate(zipf(len(users)), count)):
            pairs += [(kind, user)] * k
    return pairs


def _cycle(rng: random.Random, items: Sequence) -> Iterator:
    """The items in a seeded order, repeated."""
    items = list(items)
    rng.shuffle(items)
    return itertools.cycle(items)


def _mixed_round(spec, mix, users, rng, picks) -> List[List[list]]:
    """One client's requests for one round, as a list of ticks.

    The last ``reloads`` requests of a tick reload pages the user opened
    earlier in the same tick, so they carry that response's ETag."""
    reloads = RELOADS_PER_TICK if spec["revalidate"] else 0
    fresh = spec["per_tick"] - reloads
    pairs = _pairs(mix, users, fresh * spec["ticks"])
    rng.shuffle(pairs)
    ticks = []
    for t in range(spec["ticks"]):
        reqs = [[user, _url(kind, user, picks)]
                for kind, user in pairs[t * fresh:(t + 1) * fresh]]
        reqs += [list(rng.choice(reqs)) for _ in range(reloads)]
        ticks.append(reqs)
    return ticks


def _churn_round(spec, rng, catalog, index: int) -> List[List[list]]:
    """Reads spread evenly over every per-user page, every node page and
    every job page: each class gets its share of the union of targets.
    Users and nodes rotate from round to round; job pages walk a seeded
    permutation of every job."""
    n = spec["per_tick"] * spec["ticks"]
    users, nodes, jobs = catalog["users"], catalog["nodes"], catalog["job_walk"]
    user_urls = (MY_JOBS, WIDGETS[0], HOMEPAGE)
    targets = [len(users) * len(user_urls), len(nodes), len(jobs)]
    n_user, n_node, n_job = allocate(targets, n)
    reqs = []
    for i in range(index * n_user, (index + 1) * n_user):
        reqs.append([users[i % len(users)],
                     user_urls[(i // len(users)) % len(user_urls)]])
    for i in range(index * n_node, (index + 1) * n_node):
        reqs.append([rng.choice(users),
                     f"{NODE_OVERVIEW}?node={nodes[i % len(nodes)]}"])
    for i in range(index * n_job, (index + 1) * n_job):
        job, owner = jobs[i % len(jobs)]
        reqs.append([owner, f"{JOB_OVERVIEW}?job_id={job}"])
    rng.shuffle(reqs)
    per = spec["per_tick"]
    return [reqs[i:i + per] for i in range(0, n, per)]


def build_trace(workload: str, seed: int, catalog: Dict) -> List[List[Dict]]:
    """``ROUNDS`` rounds of ticks for ``workload``, drawn from ``seed``.

    Every round has the same composition (kinds of request, users, tick
    lengths, reloads); the seed decides their order and pairing.
    ``fleet`` replays exactly the ``browse`` trace.
    """
    spec = SPECS[workload]
    base = "browse" if workload == "fleet" else workload
    rng = random.Random(f"{base}:{seed}")
    users = catalog["users"]
    clients = spec["clients"]
    mix = BROWSE_MIX if base == "browse" else POLL_MIX
    # the submitted jobs do not depend on the seed: the cluster evolves
    # the same way in every run, and the seed varies what is read when
    submissions = random.Random("churn-submissions")
    rounds = []
    if base == "churn":
        catalog = dict(catalog, job_walk=list(catalog["job_owners"]))
        rng.shuffle(catalog["job_walk"])
    else:
        # node and job pages walk each client's nodes and each user's
        # jobs in a seeded order, so every run reads as many distinct
        # pages whatever the seed
        picks = [{"node": _cycle(rng, catalog["nodes"]),
                  "jobs": {u: _cycle(rng, catalog["jobs"][u])
                           for u in users[c::clients]}}
                 for c in range(clients)]
    for index in range(ROUNDS):
        if base == "churn":
            per_client = [_churn_round(spec, rng, catalog, index)]
        else:
            per_client = [_mixed_round(spec, mix, users[c::clients], rng,
                                       picks[c])
                          for c in range(clients)]
        steps = shuffled(rng, spec["tick_s"],
                         allocate([1] * len(spec["tick_s"]), spec["ticks"]))
        rounds.append([{
            "requests": [ticks[t] for ticks in per_client],
            "advance_s": steps[t],
            "submit": [submissions.choice(catalog["templates"])
                       for _ in range(spec["submit"])],
        } for t in range(spec["ticks"])])
    return rounds


def digest(trace) -> str:
    """sha256 of the canonical JSON form of a trace."""
    blob = json.dumps(trace, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def rounds_per_run(workload: str, seconds: float, min_requests: int) -> int:
    """Whole rounds for ``seconds`` at the workload's reference rate, and
    at least ``min_requests`` requests."""
    spec = SPECS[workload]
    per_round = spec["clients"] * spec["per_tick"] * spec["ticks"]
    if spec["revalidate"]:
        per_round += 2  # the probe pair
    wanted = max(seconds * spec["rps"], min_requests)
    return max(1, math.ceil(wanted / per_round))

