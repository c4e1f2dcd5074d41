"""``live-advance``: stateful writes through the same serve transport.

Closed loop, two clients.  Each client creates sessions over
``/session`` and replays each session's seeded, failure-heavy split-tick
stream over ``/advance``: half the jobs fail once and one in sixteen
straggles, reported a poll cycle before the re-runs complete.  The two
clients replay the same streams, each on its own sessions.  Sessions
rotate through five dags from 222 to 13,806 jobs, and the server
checkpoints every advance (``--session-dir``).  Report-only ticks skip
the priority recompute (the fast path); completion ticks recompute the
remnant's priorities (the slow path).

The client behaviour is assumed, not measured.  The failure mix is the
one ``benchmarks/test_bench_live.py`` uses.  Replaying identical streams
keeps the two clients in lockstep, which is a variance-reduction
device: real clients would be at different points of different streams.
"""

from __future__ import annotations

import json
import math

from repro.core.prio import prio_schedule
from repro.dag.io_json import dag_to_json
from repro.live import EventPlan, event_stream
from repro.live.store import SessionStore
from repro.serve import protocol
from repro.workloads.registry import get_workload

from inputs import rng_for
from measure import closed_clients
from wire import Request, WireWorkload

DAGS = ("inspiral-small", "montage-small", "sdss-small", "cax-medium", "sdss-medium")
CLIENTS = 2  # (assumed)
WAVES = 12  # a stream advances about this many eligible-job waves
ROTATION_SECONDS = 6.0  # both clients once through DAGS, reference host


class LiveAdvance(WireWorkload):
    name = "live-advance"
    uses_session_dir = True

    def __init__(self, ctx):
        super().__init__(ctx)
        self.rotations = ctx.per_round(ROTATION_SECONDS)
        self.sequences: list[list[Request]] = []

    def work(self) -> dict:
        sessions = 1 if self.ctx.quick else self.rotations * len(DAGS)
        return {"clients": CLIENTS, "sessions_per_client_per_round": sessions,
                "stream_share": 0.1 if self.ctx.quick else 1.0}

    def _session(self, twin, dag, name, batches) -> list[Request]:
        """The create and advance requests of one session, with the bytes
        the in-process twin answers."""
        payload = dag_to_json(dag)
        session = twin.create(payload, name=name)
        requests = [Request(
            "/session",
            json.dumps({"dag": payload, "name": name}).encode(),
            protocol.encode(protocol.session_payload(session.state_summary())),
            "create", 0,
        )]
        for seq, events in batches:
            delta = twin.advance(session.session_id, events, seq=seq)
            body = {"session": session.session_id, "seq": seq, "events": events}
            requests.append(Request(
                "/advance",
                json.dumps(body).encode(),
                protocol.encode(protocol.advance_payload(delta)),
                "fast" if delta["recompute"] == "skipped" else "slow", 1,
            ))
        return requests

    def prepare(self) -> None:
        rng = rng_for(self.ctx.seed, self.name)
        dags = {name: get_workload(name) for name in DAGS}
        priorities = {name: prio_schedule(dag).priorities for name, dag in dags.items()}
        twin = SessionStore()

        def stream(name):
            dag = dags[name]
            n = dag.n
            plan = EventPlan(
                failures={int(u): 1 for u in rng.choice(n, n // 2, replace=False)},
                stragglers=frozenset(
                    int(u) for u in rng.choice(n, max(1, n // 16), replace=False)
                ),
            )
            batches = list(event_stream(
                dag, plan, priorities=priorities[name],
                batch_jobs=math.ceil(n / WAVES), split_ticks=True,
            ))
            return batches[: max(2, len(batches) // 10)] if self.ctx.quick else batches

        # Both clients replay the same streams on sessions of their own,
        # so they stay in step: each advance waits for about one advance
        # of the same kind from the other client, not for whichever
        # stream the other happens to be in.  This is chosen for lower
        # run-to-run variance, not as a model of real clients.
        offset = int(rng.integers(len(DAGS)))
        sessions = self.work()["sessions_per_client_per_round"]
        names = [DAGS[(offset + k) % len(DAGS)] for k in range(sessions)]
        streams = [stream(name) for name in names]
        for client in range(CLIENTS):
            requests = []
            for k, (name, batches) in enumerate(zip(names, streams)):
                requests += self._session(twin, dags[name], f"c{client}s{k}", batches)
            self.sequences.append(requests)
        warm = dags["cax-medium"]
        self.warm_requests = self._session(
            twin, warm, "warm",
            list(event_stream(warm, priorities=priorities["cax-medium"]))[:4],
        )

    def window_requests(self) -> list[Request]:
        return [request for sequence in self.sequences for request in sequence]

    async def load(self):
        return await closed_clients(self.sequences, self.send, self.speed)

    def replay_state(self, label: str) -> dict:
        return {"sessions": SessionStore(directory=self.ctx.workdir / f"replay-{label}")}

    def layer_counts(self, ops: int, tracer) -> dict:
        advances = [r for r in self.window_requests() if r.cls != "create"]
        slow = sum(1 for r in advances if r.cls == "slow")
        return {"live.recompute_ratio": slow / max(1, len(advances))}
