"""Unit tests for the two-tier schedule cache."""

from __future__ import annotations

import json
import pickle

import pytest

from repro.core.prio import prio_schedule
from repro.dag.graph import Dag
from repro.obs.metrics import MetricsRegistry
from repro.perf import ScheduleCache, cached_schedule, schedule_algorithms
from repro.sim.compile import CompiledDag


@pytest.fixture
def dag() -> Dag:
    return Dag(6, [(0, 2), (0, 3), (1, 3), (2, 4), (3, 4), (3, 5)])


def test_schedule_matches_direct_compute(dag):
    cache = ScheduleCache()
    assert cache.schedule(dag, "prio") == prio_schedule(dag).schedule
    from repro.core.fifo import fifo_schedule

    assert cache.schedule(dag, "fifo") == fifo_schedule(dag)
    assert cache.schedule(dag, "topological") == dag.topological_order()


def test_memory_hits_and_counters(dag):
    registry = MetricsRegistry()
    cache = ScheduleCache(metrics=registry)
    first = cache.schedule(dag, "prio")
    second = cache.schedule(dag, "prio")
    assert first == second
    assert (cache.hits, cache.misses, cache.disk_hits) == (1, 1, 0)
    counters = registry.snapshot()["counters"]
    assert counters["cache.hit"] == 1
    assert counters["cache.miss"] == 1


def test_returns_a_fresh_list_per_call(dag):
    cache = ScheduleCache()
    first = cache.schedule(dag, "prio")
    first.append(999)  # caller mutates its copy...
    second = cache.schedule(dag, "prio")
    assert 999 not in second  # ...the cached order stays pristine


def test_kwargs_are_part_of_the_key(dag):
    cache = ScheduleCache()
    default = cache.schedule(dag, "prio")
    topological = cache.schedule(dag, "prio", combine="topological")
    assert cache.misses == 2  # distinct variants never collide
    assert default == prio_schedule(dag).schedule
    assert topological == prio_schedule(dag, combine="topological").schedule


def test_lru_evicts_oldest(dag):
    cache = ScheduleCache(max_entries=2)
    cache.schedule(dag, "prio")
    cache.schedule(dag, "fifo")
    cache.schedule(dag, "topological")  # evicts prio
    assert len(cache) == 2
    cache.schedule(dag, "prio")
    assert cache.misses == 4  # prio recomputed after eviction


def test_lru_touch_on_hit(dag):
    cache = ScheduleCache(max_entries=2)
    cache.schedule(dag, "prio")
    cache.schedule(dag, "fifo")
    cache.schedule(dag, "prio")  # refresh prio: fifo is now oldest
    cache.schedule(dag, "topological")  # evicts fifo, not prio
    cache.schedule(dag, "prio")
    assert cache.hits == 2


def test_unknown_algorithm_raises(dag):
    cache = ScheduleCache()
    with pytest.raises(ValueError, match="unknown schedule algorithm"):
        cache.schedule(dag, "quantum")
    with pytest.raises(ValueError, match="unknown schedule algorithm"):
        cached_schedule(dag, "quantum")
    assert set(schedule_algorithms()) == {
        "prio", "fifo", "topological", "upward-rank", "dagps"
    }


def test_max_entries_validation():
    with pytest.raises(ValueError):
        ScheduleCache(max_entries=0)


def test_disk_roundtrip_across_instances(dag, tmp_path):
    writer = ScheduleCache(directory=tmp_path / "cache")
    order = writer.schedule(dag, "prio")
    entries = list((tmp_path / "cache").glob("schedule-*.json"))
    assert len(entries) == 1

    reader = ScheduleCache(directory=tmp_path / "cache")
    assert reader.schedule(dag, "prio") == order
    assert (reader.hits, reader.misses, reader.disk_hits) == (1, 0, 1)
    # Second read is served from memory, not disk.
    reader.schedule(dag, "prio")
    assert (reader.hits, reader.disk_hits) == (2, 1)


def test_damaged_disk_entry_is_a_miss(dag, tmp_path):
    cache = ScheduleCache(directory=tmp_path)
    order = cache.schedule(dag, "prio")
    [entry] = tmp_path.glob("schedule-*.json")

    for damage in (
        "not json{",
        json.dumps({"schema": 99}),
        json.dumps({"schema": 1, "fingerprint": "junk", "n": dag.n,
                    "schedule": order}),
        json.dumps({"schema": 1, "fingerprint": dag.fingerprint(),
                    "n": dag.n, "schedule": order[:-1]}),
        json.dumps([1, 2, 3]),
    ):
        entry.write_text(damage)
        fresh = ScheduleCache(directory=tmp_path)
        assert fresh.schedule(dag, "prio") == order  # recomputed, not trusted
        assert fresh.misses == 1 and fresh.disk_hits == 0
        # The damaged entry was rewritten with a good one.
        assert ScheduleCache(directory=tmp_path).schedule(dag, "prio") == order


def test_missing_directory_is_created_lazily(dag, tmp_path):
    target = tmp_path / "a" / "b" / "cache"
    cache = ScheduleCache(directory=target)
    assert not target.exists()
    cache.schedule(dag, "prio")
    assert target.is_dir()


def test_pickle_ships_configuration_only(dag, tmp_path):
    cache = ScheduleCache(max_entries=7, directory=tmp_path)
    cache.schedule(dag, "prio")
    clone = pickle.loads(pickle.dumps(cache))
    assert clone.max_entries == 7
    assert clone.directory == tmp_path
    assert len(clone) == 0 and clone.hits == clone.misses == 0
    # The clone re-reads the shared disk store instead of recomputing.
    clone.schedule(dag, "prio")
    assert clone.disk_hits == 1


def test_compiled_memo_returns_shared_instance(dag):
    cache = ScheduleCache()
    first = cache.compiled(dag)
    second = cache.compiled(dag)
    assert first is second
    assert isinstance(first, CompiledDag)
    # A compiled dag passed in is re-canonicalized against the memo.
    other = CompiledDag.from_dag(dag)
    assert cache.compiled(other) is first


def test_compiled_without_fingerprint_passes_through(dag):
    import numpy as np

    cache = ScheduleCache()
    raw = CompiledDag(
        n=1,
        indptr=np.zeros(2, dtype=np.int64),
        children=np.empty(0, dtype=np.int32),
        indegree=np.zeros(1, dtype=np.int32),
    )
    assert cache.compiled(raw) is raw
    # Nothing keys its schedules either: computed, never stored.
    assert cache.schedule(raw, "upward-rank") == [0]
    assert len(cache) == 0


def test_cached_schedule_helper(dag):
    assert cached_schedule(dag) == prio_schedule(dag).schedule
    cache = ScheduleCache()
    assert cached_schedule(dag, "fifo", cache=cache) == cached_schedule(
        dag, "fifo"
    )
    assert cache.misses == 1
