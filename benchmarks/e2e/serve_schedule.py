"""``serve-schedule``: independent clients asking a real server for
schedules.

Open loop at a fixed 20 requests/s over at most two keep-alive
connections, every request timed from its due time.  A quarter are
misses -- each a distinct dag the server has never seen, so ``core``
runs on the request path -- and the rest are hits on 32 dags warmed in
set-up, which cost transport, routing, JSON parsing, fingerprinting,
the cache lookup and encoding but no scheduling.

The traffic is assumed, not measured: no request logs exist to derive
it from.  The rate, the hot-set size and the one-in-four miss share are
chosen so that both code paths get enough samples for a tail at a load
one shard carries; misses are evenly spaced to cut run-to-run variance.
At 40 requests/s, hits queued behind the longer misses, and how many
did so swung with the host's speed: ``p50_ms`` and ``work_per_s``
spread by 16-31% over ten seeds, against 5-11% at 20 requests/s.
"""

from __future__ import annotations

import json
from dataclasses import replace

from repro.dag.io_json import dag_to_json
from repro.perf.cache import ScheduleCache
from repro.serve import protocol

from inputs import dag_pool, rng_for
from measure import open_loop
from wire import Request, WireWorkload

RATE = 20.0  # requests/s (assumed)
HOT_DAGS = 32  # distinct dags of the hits (assumed)
#: Requests a run makes per second of ``--seconds``: 200 a round at the
#: default 15 s, so the misses (a quarter) number 50 and have a p80
#: tail.  Sent at RATE, a run's windows take twice ``--seconds``.
REQUESTS_PER_SECOND = 40


def _request(dag, cls: str) -> Request:
    body = json.dumps({"dag": dag_to_json(dag)}).encode()
    expected = protocol.encode(protocol.schedule_payload(dag, "prio"))
    return Request("/schedule", body, expected, cls, 1)


class ServeSchedule(WireWorkload):
    name = "serve-schedule"

    def __init__(self, ctx):
        super().__init__(ctx)
        scale = 10 if ctx.quick else 1
        self.n_requests = max(
            8, round(REQUESTS_PER_SECOND * ctx.seconds / ctx.rounds / scale)
        )
        self.n_misses = self.n_requests // 4
        self.n_hot = 4 if ctx.quick else HOT_DAGS
        self.requests: list[Request] = []

    def work(self) -> dict:
        return {"requests_per_round": self.n_requests, "misses": self.n_misses,
                "hot_dags": self.n_hot, "rate_per_s": RATE}

    def prepare(self) -> None:
        """Every fourth request is a miss; which dag each slot gets is
        seeded.  Evenly spaced misses keep the hit/miss overlap alike
        from one seed to the next -- a variance-reduction device: real
        misses would arrive at random, and how hits queue behind them
        moves ``p50_ms``."""
        rng = rng_for(self.ctx.seed, self.name)
        seen: set[str] = set()
        hot = [_request(dag, "fast") for dag in dag_pool(rng, self.n_hot, seen)]
        misses = [_request(dag, "slow") for dag in dag_pool(rng, self.n_misses, seen)]
        self.warm_requests = hot
        # One request object per send: responses are recorded per object.
        hits = [replace(hot[i % self.n_hot]) for i in range(self.n_requests - self.n_misses)]
        hits = [hits[i] for i in rng.permutation(len(hits))]
        misses = [misses[i] for i in rng.permutation(len(misses))]
        self.requests = [
            misses.pop() if i % 4 == 3 and misses else hits.pop()
            for i in range(self.n_requests)
        ]

    def window_requests(self) -> list[Request]:
        return self.requests

    async def load(self):
        return await open_loop(self.requests, RATE, self.send, self.connections, self.speed)

    def replay_state(self, label: str) -> dict:
        return {"cache": ScheduleCache()}

    def layer_counts(self, ops: int, tracer) -> dict:
        totals = self.server_totals
        lookups = totals["cache_hits"] + totals["cache_misses"]
        requests = self.requests
        return {
            "perf.cache_hit_ratio": totals["cache_hits"] / max(1, lookups),
            "serve.request_bytes": sum(len(r.body) for r in requests) / len(requests),
            "serve.response_bytes": sum(len(r.expected) for r in requests) / len(requests),
        }
