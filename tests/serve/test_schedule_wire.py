"""``/schedule`` answered from the wire arcs, pinned to the object path.

A cache hit is answered from the decoded payload with no ``Dag`` built,
so every check ``Dag()`` makes is skipped on a hit.  These properties
hold that path to the uncached one: for a valid payload, and for every
kind of malformed one, a compute whose cache is warm with the valid dag
answers exactly what a compute with no cache answers (the same bytes, or
the same error code and message), and a malformed dag reports the
message ``dag_from_json`` gives it.  Any reordering of a cached dag's
arcs is answered as a hit with identical bytes.

A one-shard pool computes no routing key: every key maps to shard 0.
"""

from __future__ import annotations

import asyncio
import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dag.graph import Dag
from repro.dag.io_json import dag_from_json, dag_to_json
from repro.perf.cache import ScheduleCache
from repro.serve import protocol, shard
from repro.serve.app import PrioService, ServerThread
from repro.serve.client import ServeClient
from repro.serve.dispatch import compute_response
from repro.serve.errors import ServeError
from repro.serve.protocol import encode, schedule_payload
from repro.serve.shard import ShardedDispatcher

from .conftest import make_limits

ALGORITHMS = ("prio", "fifo", "topological")
#: Algorithms whose order reads each job's children in stored order.
CHILD_ORDER = ("fifo", "topological")


@st.composite
def schedule_requests(draw) -> dict:
    """A valid ``/schedule`` body: an acyclic dag over permuted ids, arcs
    in drawn order, labels or none, algorithm given or left default."""
    n = draw(st.integers(2, 9))
    ids = draw(st.permutations(range(n)))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(
        st.lists(st.sampled_from(pairs), min_size=1, max_size=14, unique=True)
    )
    dag = {
        "format": "repro-dag-v1",
        "n": n,
        "arcs": [[ids[i], ids[j]] for i, j in chosen],
    }
    if draw(st.booleans()):
        dag["labels"] = [f"job{u}" for u in range(n)]
    request = {"dag": dag}
    algorithm = draw(st.sampled_from((None, *ALGORITHMS)))
    if algorithm is not None:
        request["algorithm"] = algorithm
    return request


def _arc(request, draw) -> list:
    arcs = request["dag"]["arcs"]
    return arcs[draw(st.integers(0, len(arcs) - 1))]


def _insert(request, draw, arc) -> None:
    arcs = request["dag"]["arcs"]
    arcs.insert(draw(st.integers(0, len(arcs))), arc)


def _labels(request) -> list:
    dag = request["dag"]
    return dag.setdefault("labels", [f"job{u}" for u in range(dag["n"])])


def duplicate_arc(request, draw):
    _insert(request, draw, list(_arc(request, draw)))


def self_loop(request, draw):
    u = draw(st.integers(0, request["dag"]["n"] - 1))
    _insert(request, draw, [u, u])


def negative_id(request, draw):
    _arc(request, draw)[draw(st.integers(0, 1))] = draw(
        st.integers(-3, -1) | st.just(-(2**40))
    )


def out_of_range_id(request, draw):
    n = request["dag"]["n"]
    # Ids past int32 cannot enter the child-order digest at all.
    _arc(request, draw)[draw(st.integers(0, 1))] = draw(
        st.integers(n, n + 2) | st.sampled_from([2**31, 2**40, 2**64])
    )


def bool_id(request, draw):
    _arc(request, draw)[draw(st.integers(0, 1))] = draw(st.booleans())


def float_id(request, draw):
    arc = _arc(request, draw)
    end = draw(st.integers(0, 1))
    arc[end] = float(arc[end])


def string_id(request, draw):
    arc = _arc(request, draw)
    end = draw(st.integers(0, 1))
    arc[end] = str(arc[end])


def three_element_arc(request, draw):
    _arc(request, draw).append(draw(st.integers(0, request["dag"]["n"] - 1)))


def closing_cycle(request, draw):
    u, v = _arc(request, draw)
    _insert(request, draw, [v, u])


def duplicate_label(request, draw):
    labels = _labels(request)
    i, j = draw(st.permutations(range(len(labels))))[:2]
    labels[i] = labels[j]


def wrong_label_count(request, draw):
    labels = _labels(request)
    if draw(st.booleans()):
        labels.pop()
    else:
        labels.append("extra-job")


def non_string_label(request, draw):
    labels = _labels(request)
    labels[draw(st.integers(0, len(labels) - 1))] = draw(
        st.sampled_from([0, 1.5, None, ["job"]])
    )


def extra_field(request, draw):
    request["unexpected"] = 1


def unknown_algorithm(request, draw):
    request["algorithm"] = "no-such-algorithm"


def any_kwargs(request, draw):
    request["kwargs"] = draw(st.sampled_from(
        [{}, {"exact_bipartite_limit": 64}, {"combine": "topological"},
         [], 1, "prio", None]
    ))


MUTATIONS = (
    duplicate_arc,
    self_loop,
    negative_id,
    out_of_range_id,
    bool_id,
    float_id,
    string_id,
    three_element_arc,
    closing_cycle,
    duplicate_label,
    wrong_label_count,
    non_string_label,
    extra_field,
    unknown_algorithm,
    any_kwargs,
)


def outcome(request: dict, cache) -> tuple:
    body = json.dumps(request).encode()
    try:
        return ("ok", compute_response("/schedule", body, cache=cache))
    except ServeError as exc:
        return ("error", exc.code, exc.message)


def warm_cache(request: dict) -> ScheduleCache:
    cache = ScheduleCache()
    warm = outcome(request, cache)
    assert warm[0] == "ok"
    assert warm == outcome(request, None)
    assert (cache.hits, cache.misses) == (0, 1)
    return cache


def child_order(arcs) -> list:
    return [v for _, v in sorted(map(tuple, arcs), key=lambda arc: arc[0])]


@settings(max_examples=300, deadline=None)
@given(
    schedule_requests(),
    st.sampled_from(MUTATIONS),
    st.booleans(),
    st.data(),
)
def test_mutated_payload_answers_as_with_no_cache(
    request, mutation, bad_algorithm, data
):
    cache = warm_cache(request)
    mutated = copy.deepcopy(request)
    mutation(mutated, data.draw)
    if bad_algorithm:
        unknown_algorithm(mutated, data.draw)
    got = outcome(mutated, cache)
    assert got == outcome(mutated, None)
    assert got[0] == "error"  # every mutation breaks the request
    assert cache.hits == 0  # and a broken request never hits
    try:
        dag_from_json(mutated["dag"])
    except ValueError as exc:
        # A broken dag is reported first, as the object path words it.
        assert got == ("error", "invalid_dag", str(exc))


@settings(max_examples=200, deadline=None)
@given(schedule_requests(), st.data())
def test_reordered_arcs_answer_as_the_cached_dag(request, data):
    cache = warm_cache(request)
    reordered = copy.deepcopy(request)
    dag = reordered["dag"]
    dag["arcs"] = data.draw(st.permutations(dag["arcs"]))
    if "labels" in dag and data.draw(st.booleans()):
        dag["labels"] = [f"renamed-{name}" for name in dag["labels"]]
    got = outcome(reordered, cache)
    assert got[0] == "ok"
    assert got == outcome(reordered, None)
    same_order = child_order(dag["arcs"]) == child_order(
        request["dag"]["arcs"]
    )
    if request.get("algorithm", "prio") not in CHILD_ORDER or same_order:
        assert (cache.hits, cache.misses) == (1, 1)
        assert got == outcome(request, None)
    else:  # a different child order is a different fifo/topological key
        assert (cache.hits, cache.misses) == (0, 2)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("big", [2**31, 2**40, -(2**40), 2**64])
def test_ids_past_int32_answer_as_with_no_cache(algorithm, big):
    dag = {"format": "repro-dag-v1", "n": 3, "arcs": [[0, 1], [1, 2]]}
    cache = warm_cache({"dag": dag, "algorithm": algorithm})
    request = {
        "dag": {**dag, "arcs": [[0, 1], [1, big]]},
        "algorithm": algorithm,
    }
    got = outcome(request, cache)
    assert got == outcome(request, None)
    assert got[:2] == ("error", "invalid_dag")


def count_dag_builds(monkeypatch) -> list:
    """Record every ``Dag`` the ``/schedule`` path builds."""
    built = []
    real = protocol._build_dag
    monkeypatch.setattr(
        protocol, "_build_dag", lambda wire: built.append(1) or real(wire)
    )
    return built


def test_disk_tier_hit_needs_no_dag(tmp_path, monkeypatch):
    request = {
        "dag": {"format": "repro-dag-v1", "n": 4,
                "arcs": [[0, 1], [0, 2], [1, 3], [2, 3]]},
        "algorithm": "fifo",
    }
    expected = outcome(request, ScheduleCache(directory=tmp_path))
    cache = ScheduleCache(directory=tmp_path)  # empty LRU, warm disk
    built = count_dag_builds(monkeypatch)
    assert outcome(request, cache) == expected
    assert built == []
    assert (cache.hits, cache.disk_hits, cache.misses) == (1, 1, 0)


def test_hit_builds_no_dag_and_a_miss_hashes_once(monkeypatch):
    dag = Dag(5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)])
    request = {"dag": dag_to_json(dag)}
    expected = ("ok", encode(schedule_payload(dag, "prio")))
    cache = ScheduleCache()
    hashed = []
    real = Dag.fingerprint
    monkeypatch.setattr(
        Dag, "fingerprint", lambda self: hashed.append(1) or real(self)
    )
    built = count_dag_builds(monkeypatch)
    assert outcome(request, cache) == expected
    # The miss built its Dag once and answered with the wire key's
    # fingerprint instead of hashing the Dag's again.
    assert (built, hashed) == ([1], [])
    assert outcome(request, cache) == expected
    assert built == [1]  # the hit built none


@pytest.mark.parametrize("algorithm", ["prio", "upward-rank", "dagps"])
def test_a_miss_calls_fingerprint_arcs_once(monkeypatch, algorithm):
    """One content hash per miss: the wire key's.  The rank orders read
    the CSR arrays only, so compiling the miss's Dag hashes nothing."""
    import repro.dag.graph as graph_module
    import repro.perf.cache as cache_module

    dag = Dag(6, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (2, 5)])
    request = {"dag": dag_to_json(dag), "algorithm": algorithm}
    expected = ("ok", encode(schedule_payload(dag, algorithm)))
    calls = []
    real = graph_module.fingerprint_arcs

    def counting(n, arcs):
        calls.append(n)
        return real(n, arcs)

    monkeypatch.setattr(graph_module, "fingerprint_arcs", counting)
    monkeypatch.setattr(cache_module, "fingerprint_arcs", counting)
    cache = ScheduleCache()
    assert outcome(request, cache) == expected
    assert (cache.misses, calls) == (1, [6])
    assert outcome(request, cache) == expected  # a hit hashes once too
    assert (cache.hits, calls) == (1, [6, 6])


# ----------------------------------------------------------------------
# A one-shard pool routes nothing
# ----------------------------------------------------------------------


def test_one_shard_pool_never_computes_a_routing_key(monkeypatch):
    def refuse(path, body):
        raise AssertionError("routing_key called")

    monkeypatch.setattr(shard, "routing_key", refuse)
    # The patch is the name the dispatcher calls: two shards route.
    two = ShardedDispatcher(shards=2, limits=make_limits())
    with pytest.raises(AssertionError, match="routing_key called"):
        asyncio.run(two._compute("/schedule", b"{}"))
    dag = Dag(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    service = PrioService(
        cache=ScheduleCache(), limits=make_limits(), shards=1
    )
    with ServerThread(service) as (host, port):
        with ServeClient(host, port, timeout=120.0) as client:
            for _ in range(2):  # a miss, then a hit
                response = client.schedule(dag)
                assert response.status == 200
                assert response.body == encode(schedule_payload(dag, "prio"))
            created = client.create_session(dag)
            assert created.status == 200
            session_id = created.payload["session_id"]
            assert client.get_session(session_id).status == 200
