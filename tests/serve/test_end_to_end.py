"""End-to-end service tests: the bit-identity contract under real load.

Every assertion here goes over a real socket to the real asyncio server.
The core claim — an HTTP response is byte-for-byte the canonical
encoding of the equivalent in-process library call — is checked serially,
under N concurrent hammering clients, through cache hits and misses,
through the parallel replication executor, and across the disk cache
tier.  Operational behaviour (429 saturation, SIGTERM drain, CLI
announce) rides in the same file because it needs the same booted
server.
"""

from __future__ import annotations

import json
import signal
import threading
import time

import numpy as np
import pytest

from repro.dag.graph import Dag
from repro.dag.io_json import dag_to_json
from repro.perf.cache import ScheduleCache
from repro.robust.retry import RetryPolicy
from repro.serve.app import PrioService, ServerThread
from repro.serve.client import ServeClient
from repro.serve.dispatch import compute_response
from repro.serve.errors import ServeError
from repro.serve.protocol import encode, schedule_payload, simulate_payload
from repro.sim.engine import SimParams
from repro.workloads.registry import get_workload

from .conftest import announced_port, make_limits, serve_subprocess

pytestmark = pytest.mark.filterwarnings("ignore::pytest.PytestUnraisableExceptionWarning")


def _sample_dags() -> dict[str, Dag]:
    rng = np.random.default_rng(20060427)
    random_dag = Dag(
        30,
        [
            (i, j)
            for i in range(30)
            for j in range(i + 1, 30)
            if rng.random() < 0.12
        ],
    )
    return {
        "airsn": get_workload("airsn-small"),
        "chain": Dag(12, [(i, i + 1) for i in range(11)]),
        "fanout": Dag(16, [(0, i) for i in range(1, 16)]),
        "random": random_dag,
        "empty": Dag(0, []),
        "singleton": Dag(1, []),
    }


# ----------------------------------------------------------------------
# Bit-identity: serial
# ----------------------------------------------------------------------


def test_schedule_bit_identity_all_algorithms(client):
    for name, dag in _sample_dags().items():
        for algorithm in ("prio", "fifo", "topological"):
            response = client.schedule(dag, algorithm)
            assert response.status == 200, (name, algorithm, response.body)
            expected = encode(schedule_payload(dag, algorithm))
            assert response.body == expected, (name, algorithm)


def test_schedule_bit_identity_with_kwargs(client):
    # "kwargs" is not a request field: the socket answers the same 400
    # bytes that the in-process compute raises.
    body = {"dag": dag_to_json(get_workload("airsn-small")),
            "algorithm": "prio", "kwargs": {"combine": "topological"}}
    response = client.post_json("/schedule", body)
    assert (response.status, response.error_code) == (400, "invalid_request")
    with pytest.raises(ServeError) as exc:
        compute_response("/schedule", json.dumps(body).encode())
    assert response.body == encode(exc.value.payload())


def test_simulate_single_bit_identity_all_policies(client):
    dag = get_workload("airsn-small")
    params = SimParams(mu_bit=1.0, mu_bs=16.0)
    for policy in ("prio", "fifo", "random"):
        for seed in (0, 7, 12345):
            response = client.simulate(dag, params, seed=seed, policy=policy)
            assert response.status == 200, response.body
            expected = encode(simulate_payload(dag, params, seed, policy, 1))
            assert response.body == expected, (policy, seed)


def test_simulate_replication_batch_bit_identity(client):
    dag = get_workload("airsn-small")
    params = SimParams(mu_bit=0.5, mu_bs=4.0, rollover=True)
    response = client.simulate(dag, params, seed=3, replications=16)
    assert response.status == 200
    expected = encode(simulate_payload(dag, params, 3, "prio", 16))
    assert response.body == expected
    payload = response.payload
    assert payload["kind"] == "replications"
    assert len(payload["metrics"]["execution_time"]) == 16


def test_simulate_batch_over_parallel_executor_matches_serial():
    """A sim_jobs>1 server serves the same bytes as the serial library."""
    dag = get_workload("airsn-small")
    params = SimParams(mu_bit=1.0, mu_bs=16.0)
    service = PrioService(
        cache=ScheduleCache(), limits=make_limits(), sim_jobs=2
    )
    with ServerThread(service) as (host, port):
        with ServeClient(host, port) as client:
            response = client.simulate(dag, params, seed=11, replications=8)
    assert response.status == 200
    expected = encode(simulate_payload(dag, params, 11, "prio", 8, jobs=1))
    assert response.body == expected


# ----------------------------------------------------------------------
# Bit-identity: N concurrent clients hammering one server
# ----------------------------------------------------------------------


def test_concurrent_hammer_bit_identical(server):
    service, host, port = server
    dags = _sample_dags()
    params = SimParams(mu_bit=1.0, mu_bs=16.0)
    # Reference bodies computed in-process, without any server or cache.
    expected: dict[tuple, bytes] = {}
    for name, dag in dags.items():
        for algorithm in ("prio", "fifo"):
            expected[("schedule", name, algorithm)] = encode(
                schedule_payload(dag, algorithm)
            )
    for name in ("airsn", "chain", "random"):
        for seed in (0, 1):
            expected[("simulate", name, seed)] = encode(
                simulate_payload(dags[name], params, seed, "prio", 1)
            )
    keys = sorted(expected, key=repr)

    n_clients = 8
    failures: list = []
    barrier = threading.Barrier(n_clients)

    def hammer(worker: int) -> None:
        rng = np.random.default_rng(worker)
        try:
            with ServeClient(host, port, timeout=60.0) as client:
                barrier.wait(timeout=30)
                for _ in range(25):
                    key = keys[rng.integers(len(keys))]
                    if key[0] == "schedule":
                        _, name, algorithm = key
                        response = client.schedule(dags[name], algorithm)
                    else:
                        _, name, seed = key
                        response = client.simulate(
                            dags[name], params, seed=seed
                        )
                    if response.status != 200:
                        failures.append((key, response.status, response.body))
                    elif response.body != expected[key]:
                        failures.append((key, "mismatch"))
        except Exception as exc:  # noqa: BLE001 - report, don't deadlock
            failures.append((worker, repr(exc)))

    threads = [
        threading.Thread(target=hammer, args=(w,)) for w in range(n_clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not failures, failures[:5]
    # Every admitted request released its slot.
    assert service.gate.inflight == 0
    # 200 requests over ~20 distinct cache keys: the cache must have hit.
    stats = service.cache.stats()
    assert stats["hits"] > stats["misses"]


def test_cache_hit_counters_increase_on_repeated_dag():
    service = PrioService(cache=ScheduleCache(), limits=make_limits())
    dag = get_workload("airsn-small")
    with ServerThread(service) as (host, port):
        with ServeClient(host, port) as client:
            first = client.schedule(dag)
            assert first.status == 200
            after_first = service.cache.stats()
            second = client.schedule(dag)
            assert second.status == 200
            after_second = service.cache.stats()
            assert second.body == first.body
            # /metrics reports the same counters via the registry.
            snapshot = client.metrics().payload["metrics"]["counters"]
    assert after_first["misses"] >= 1
    assert after_second["hits"] == after_first["hits"] + 1
    assert snapshot["cache.hit"] == after_second["hits"]
    assert snapshot["cache.miss"] == after_second["misses"]


def test_disk_cache_tier_shared_across_server_instances(tmp_path):
    dag = get_workload("airsn-small")
    bodies = []
    for _ in range(2):  # second server starts cold in memory, warm on disk
        service = PrioService(
            cache=ScheduleCache(directory=tmp_path), limits=make_limits()
        )
        with ServerThread(service) as (host, port):
            with ServeClient(host, port) as client:
                response = client.schedule(dag)
                assert response.status == 200
                bodies.append(response.body)
        stats = service.cache.stats()
    assert bodies[0] == bodies[1] == encode(schedule_payload(dag, "prio"))
    assert stats["disk_hits"] == 1  # the second instance reused the file


# ----------------------------------------------------------------------
# Backpressure: 429 when --max-inflight is saturated
# ----------------------------------------------------------------------


def _slow_simulate_body(dag) -> dict:
    from repro.dag.io_json import dag_to_json

    return {
        "dag": dag_to_json(dag),
        "params": {"mu_bit": 0.02, "mu_bs": 1.0},
        "seed": 1,
        "replications": 300,
    }


def test_429_when_inflight_saturated():
    dag = get_workload("airsn-small")
    service = PrioService(
        cache=ScheduleCache(), limits=make_limits(max_inflight=1)
    )
    with ServerThread(service) as (host, port):
        done: dict = {}

        def occupy() -> None:
            with ServeClient(host, port, timeout=300.0) as slow:
                done["response"] = slow.post_json(
                    "/simulate", _slow_simulate_body(dag)
                )

        holder = threading.Thread(target=occupy)
        holder.start()
        try:
            with ServeClient(host, port) as client:
                # /metrics is ungated: poll it until the slot is taken.
                deadline = time.time() + 30
                while time.time() < deadline:
                    if client.metrics().payload["in_flight"] >= 1:
                        break
                    time.sleep(0.01)
                else:
                    pytest.fail("slow request never became in-flight")
                rejected = client.schedule(dag)
                assert rejected.status == 429
                assert rejected.error_code == "overloaded"
                # Health stays reachable at saturation.
                assert client.healthz().status == 200
                counters = client.metrics().payload["metrics"]["counters"]
                assert counters["serve.errors.overloaded"] >= 1
        finally:
            holder.join(timeout=300)
        assert done["response"].status == 200
        # The slot was released: the same request now succeeds.
        with ServeClient(host, port) as client:
            accepted = client.schedule(dag)
            assert accepted.status == 200
            assert accepted.body == encode(schedule_payload(dag, "prio"))


# ----------------------------------------------------------------------
# Graceful drain on SIGTERM (real CLI subprocess)
# ----------------------------------------------------------------------


def test_sigterm_drains_inflight_requests_cleanly():
    proc = serve_subprocess()
    try:
        port = announced_port(proc)
        dag = get_workload("airsn-small")
        result: dict = {}

        def inflight() -> None:
            with ServeClient("127.0.0.1", port, timeout=300.0) as client:
                result["response"] = client.post_json(
                    "/simulate", _slow_simulate_body(dag)
                )

        worker = threading.Thread(target=inflight)
        worker.start()
        # Wait until the request occupies a slot, then pull the plug.
        with ServeClient("127.0.0.1", port) as client:
            deadline = time.time() + 30
            while time.time() < deadline:
                if client.metrics().payload["in_flight"] >= 1:
                    break
                time.sleep(0.01)
            else:
                pytest.fail("request never became in-flight")
        proc.send_signal(signal.SIGTERM)
        worker.join(timeout=300)
        returncode = proc.wait(timeout=60)
        # The in-flight response completed, bit-identical, and the
        # process exited cleanly.
        assert result["response"].status == 200
        expected = encode(
            simulate_payload(
                dag, SimParams(mu_bit=0.02, mu_bs=1.0), 1, "prio", 300
            )
        )
        assert result["response"].body == expected
        assert returncode == 0
        # A drained server accepts nothing new.
        with pytest.raises(OSError):
            with ServeClient("127.0.0.1", port, timeout=5.0) as client:
                client.healthz()
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait(timeout=30)


# ----------------------------------------------------------------------
# Orphaned work: a 504 does not free capacity the compute still occupies
# ----------------------------------------------------------------------


def test_504_keeps_slot_held_until_orphaned_work_finishes():
    """Regression: a request that blew its deadline used to release its
    in-flight slot immediately while its compute thread kept running —
    repeated timeouts could pile up unbounded invisible work.  The slot
    must stay held (and be visible as ``serve.orphaned``) until the
    detached computation actually finishes."""
    dag = get_workload("airsn-small")
    body = _slow_simulate_body(dag)
    body["replications"] = 500  # several seconds of real compute
    service = PrioService(
        cache=ScheduleCache(),
        limits=make_limits(
            max_inflight=1,
            retry=RetryPolicy(max_attempts=1, timeout=0.3),
        ),
    )
    with ServerThread(service) as (host, port):
        with ServeClient(host, port, timeout=60.0) as client:
            timed_out = client.post_json("/simulate", body)
            assert timed_out.status == 504
            assert timed_out.error_code == "deadline_exceeded"
            # The compute thread is still running: its slot stays held.
            payload = client.metrics().payload
            assert payload["orphaned"] == 1
            assert payload["in_flight"] == 1
            # New work is refused while the orphan occupies the only
            # slot (the old behaviour: this returned 200, silently
            # stacking a second computation on top of the first).
            rejected = client.schedule(dag)
            assert rejected.status == 429
            assert rejected.error_code == "overloaded"
            # The orphan resolves on its own and gives the slot back.
            deadline = time.time() + 120
            while time.time() < deadline:
                payload = client.metrics().payload
                if payload["orphaned"] == 0 and payload["in_flight"] == 0:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("orphaned computation never resolved")
            accepted = client.schedule(dag)
            assert accepted.status == 200
            assert accepted.body == encode(schedule_payload(dag, "prio"))
            counters = client.metrics().payload["metrics"]["counters"]
            assert counters["serve.orphaned.total"] >= 1
            assert counters["serve.errors.deadline_exceeded"] >= 1


# ----------------------------------------------------------------------
# Drain semantics: a request being read is finished, never dropped
# ----------------------------------------------------------------------


def test_drain_completes_request_still_reading_its_body():
    """Regression: drain used to wait only for *admitted* requests and
    then cancel every connection task — a request whose body was still
    being read (not yet admitted) was silently dropped without any
    response.  Drain must let it finish and answer it."""
    import socket as socketlib

    from repro.dag.io_json import dag_to_json

    dag = get_workload("airsn-small")
    service = PrioService(cache=ScheduleCache(), limits=make_limits())
    st = ServerThread(service)
    host, port = st.start()
    try:
        body = json.dumps({"dag": dag_to_json(dag)}).encode()
        half = len(body) // 2
        with socketlib.create_connection((host, port), timeout=30.0) as sock:
            head = (
                f"POST /schedule HTTP/1.1\r\nHost: x\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode()
            sock.sendall(head + body[:half])
            time.sleep(0.2)  # let the server start reading the body
            st._loop.call_soon_threadsafe(service.request_shutdown)
            deadline = time.time() + 30
            while not service.draining and time.time() < deadline:
                time.sleep(0.01)
            assert service.draining
            sock.sendall(body[half:])
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        raw = b"".join(chunks)
        # Exactly one complete, bit-identical response came back.
        assert raw.count(b"HTTP/1.1 ") == 1
        head_bytes, _, response_body = raw.partition(b"\r\n\r\n")
        assert head_bytes.split(b" ", 2)[1] == b"200"
        assert response_body == encode(schedule_payload(dag, "prio"))
    finally:
        st.stop()


# ----------------------------------------------------------------------
# ServerThread.stop: the closed-loop shutdown race
# ----------------------------------------------------------------------


def test_server_thread_stop_survives_closed_loop_race():
    """Regression: ``stop()`` checked ``thread.is_alive()`` and then
    called ``call_soon_threadsafe`` — if the serving loop finished (and
    closed) between the two, it crashed with ``RuntimeError: Event loop
    is closed``.  Recreate the race deterministically by handing stop()
    a closed loop while the real one drains."""
    import asyncio

    service = PrioService(cache=ScheduleCache(), limits=make_limits())
    st = ServerThread(service)
    st.start()
    real_loop = st._loop
    closed = asyncio.new_event_loop()
    closed.close()
    st._loop = closed
    # Deliver the real shutdown so the thread exits on its own; stop()
    # must survive its signal attempt hitting the closed loop.
    real_loop.call_soon_threadsafe(service.request_shutdown)
    st.stop(timeout=60.0)
    # And stop() stays idempotent after success.
    st.stop()


# ----------------------------------------------------------------------
# Sharded tier: a shard killed mid-request is retried transparently
# ----------------------------------------------------------------------


def test_shard_killed_mid_request_recovers_via_retry():
    """SIGKILL a shard while it is computing a request: the retry budget
    re-dispatches to the respawned worker and the client still gets its
    200, byte-identical — plus the restart shows up in /metrics."""
    from repro.dag.io_json import dag_to_json
    from repro.serve.shard import dag_shard_key

    dag = get_workload("airsn-small")
    service = PrioService(
        cache=ScheduleCache(),
        limits=make_limits(
            retry=RetryPolicy(
                max_attempts=3, base_delay=0.05, timeout=60.0,
                max_pool_rebuilds=2,
            ),
        ),
        shards=2,
        stall=1.0,  # every request stalls 1s in the worker: a kill
        #             window that needs no timing luck
    )
    with ServerThread(service) as (host, port):
        routing_body = json.dumps({"dag": dag_to_json(dag)}).encode()
        dispatcher = service.dispatcher
        index = dispatcher.ring.lookup(dag_shard_key(routing_body))
        handle = dispatcher.handles[index]
        result: dict = {}

        def issue() -> None:
            with ServeClient(host, port, timeout=120.0) as client:
                result["response"] = client.schedule(dag)

        worker = threading.Thread(target=issue)
        worker.start()
        deadline = time.time() + 30
        while not handle.pending and time.time() < deadline:
            time.sleep(0.01)
        assert handle.pending, "request never reached the shard"
        handle.process.kill()
        worker.join(timeout=120)
        response = result["response"]
        assert response.status == 200, response.body
        assert response.body == encode(schedule_payload(dag, "prio"))
        with ServeClient(host, port) as client:
            counters = client.metrics().payload["metrics"]["counters"]
            assert counters[f"serve.shard.{index}.deaths"] >= 1
            assert counters[f"serve.shard.{index}.restarts"] >= 1
            assert counters["serve.retry"] >= 1


def test_metrics_endpoint_shape(client):
    dag = get_workload("airsn-small")
    assert client.schedule(dag).status == 200
    payload = client.metrics().payload
    assert payload["kind"] == "metrics"
    counters = payload["metrics"]["counters"]
    assert counters["serve.requests./schedule"] >= 1
    assert payload["latency"]["/schedule"]["count"] >= 1
    assert payload["latency"]["/schedule"]["p95"] >= payload["latency"][
        "/schedule"
    ]["p50"] >= 0.0
    assert payload["cache"]["hits"] + payload["cache"]["misses"] >= 1
    timers = payload["metrics"]["timers"]
    assert timers["serve.latency./schedule"]["count"] >= 1
