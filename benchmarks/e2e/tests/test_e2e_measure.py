"""Percentiles, load loops and span accounting of the e2e benchmark."""

import asyncio
import math
import sys
import time
import types

import pytest

from measure import (
    REFERENCE_S, Op, Speedometer, Window, closed_clients, closed_loop, nearest_rank,
    open_loop, overlap_wait, summarize, tail_quantile,
)
from run import mean_of_rounds
from spans import Tracer


def test_nearest_rank():
    values = list(range(10, 0, -1))  # order must not matter
    assert nearest_rank(values, 0.1) == 1
    assert nearest_rank(values, 0.5) == 5
    assert nearest_rank(values, 0.9) == 9
    assert nearest_rank(values, 1.0) == 10
    assert nearest_rank([7.0], 0.9) == 7.0
    with pytest.raises(ValueError):
        nearest_rank([], 0.5)


@pytest.mark.parametrize(
    "n, q",
    [(1000, 0.9), (100, 0.9), (99, 0.89), (50, 0.8), (20, 0.5), (19, None), (3, None)],
)
def test_tail_leaves_ten_samples_beyond(n, q):
    assert tail_quantile(n) == q
    summary = summarize([float(i) for i in range(n)])
    assert summary["tail_q"] == q
    if q is None:  # too few for a tail: the mean
        assert summary["tail_ms"] == pytest.approx((n - 1) / 2 * 1e3)
        return
    assert summary["beyond_tail"] >= 10
    if q < 0.9:  # the next whole percentile would leave < 10
        higher = round(q + 0.01, 2)
        assert n - math.ceil(round(higher * n, 9)) < 10


@pytest.mark.parametrize("regressed", [0, 1])
def test_short_tail_sees_every_item(regressed):
    """With two items (the churn cells of sweep-cells), a regression of
    either one -- the slower one included -- moves the tail."""
    base = [0.7, 2.1]
    slower = list(base)
    slower[regressed] *= 1.5
    assert summarize(slower)["tail_ms"] > summarize(base)["tail_ms"] * 1.1


def test_open_loop_times_from_due_time():
    """A stall on the only connection charges the requests queued
    behind it: their latency counts from when they were due."""
    rate, stall = 200.0, 0.060  # due every 5 ms; the first takes 60 ms

    async def send(conn, item):
        await asyncio.sleep(stall if item == 0 else 0.0)
        return "fast", 1

    window = asyncio.run(open_loop(list(range(8)), rate, send, connections=1))
    assert [op.key for op in window.ops] == list(range(8))
    first, second, last = window.ops[0], window.ops[1], window.ops[-1]
    assert first.seconds >= stall
    # due 5 ms after the first, answered after the stall ended
    assert second.seconds >= stall - 1 / rate
    assert second.service < second.seconds  # it waited in the queue
    assert last.seconds >= stall - 7 / rate
    assert window.wall >= stall
    assert max(op.lag for op in window.ops) < 0.05


def test_open_loop_keeps_the_schedule_with_a_free_connection():
    async def send(conn, item):
        await asyncio.sleep(0.060 if item == 0 else 0.0)
        return "fast", 1

    window = asyncio.run(open_loop(list(range(8)), 200.0, send, connections=2))
    # the second connection serves everything behind the stalled one
    assert all(op.seconds < 0.040 for op in window.ops[1:])


def test_closed_clients_wait_for_each_reply():
    async def send(client, item):
        await asyncio.sleep(0.01)
        return ("slow" if client else "fast"), 1

    began = time.perf_counter()
    window = asyncio.run(closed_clients([[1, 2, 3], [4, 5, 6]], send))
    assert len(window.ops) == 6
    assert 0.03 <= time.perf_counter() - began < 0.5  # two clients overlap
    assert sorted(op.key for op in window.ops) == [1, 2, 3, 4, 5, 6]


def _speedometer(readings):
    """A speedometer with *readings* of ``(clock, loop seconds)``."""
    speed = Speedometer()
    speed.times = [t for t, _ in readings]
    speed.loop_s = [s for _, s in readings]
    return speed


def test_scale_uses_the_readings_around_an_interval():
    speed = _speedometer([(0.0, REFERENCE_S), (1.0, 2 * REFERENCE_S), (2.0, 4 * REFERENCE_S)])
    # between the first two readings: the host ran at 2/3 of reference speed
    assert speed.scale(0.2, 0.8) == pytest.approx(1 / 1.5)
    assert speed.scale(1.2, 1.8) == pytest.approx(1 / 3)
    # an interval spanning a reading is scaled by the readings outside it
    assert speed.scale(0.5, 1.5) == pytest.approx(1 / 2.5)
    # before the first or after the last reading: the nearest one
    assert speed.scale(2.5, 3.0) == pytest.approx(1 / 4)
    with pytest.raises(ValueError):
        Speedometer().scale(0.0, 1.0)


def test_rescale_expresses_times_at_reference_speed():
    """A host running at half speed doubles every time; rescaled, the
    times read as on the reference host."""
    speed = _speedometer([(0.0, 2 * REFERENCE_S), (10.0, 2 * REFERENCE_S)])
    window = Window([Op("fast", 0.4, 1, service=0.3, start=1.1),
                     Op("slow", 2.0, 5, service=2.0, start=3.0)], wall=5.0)
    scaled = speed.rescale(window)
    assert [op.seconds for op in scaled.ops] == pytest.approx([0.2, 1.0])
    assert [op.service for op in scaled.ops] == pytest.approx([0.15, 1.0])
    assert [(op.cls, op.work, op.start) for op in scaled.ops] == [("fast", 1, 1.1), ("slow", 5, 3.0)]
    assert window.ops[0].seconds == 0.4  # the measured window is kept as measured


def test_closed_loop_reads_the_speed_between_items():
    speed = Speedometer(interval=0.0)  # a reading before every item
    window = closed_loop([1, 2, 3], lambda item: ("fast", item), speed)
    assert len(speed.loop_s) == 4  # before each item, and after the last
    assert all(s > 0 for s in speed.loop_s)
    assert speed.times == sorted(speed.times)
    for op in window.ops:  # every op lies between two readings
        assert speed.times[0] <= op.start and op.start + op.seconds <= speed.times[-1]


def test_closed_clients_read_the_speed_between_strides():
    async def send(client, item):
        await asyncio.sleep(0.001)
        return "fast", 1

    speed = Speedometer()
    window = asyncio.run(closed_clients([list(range(9)), list(range(10, 19))], send, speed))
    assert len(window.ops) == 18
    assert len(speed.loop_s) == 1 + math.ceil(9 / 4)  # at the start, after each stride


def test_mean_of_rounds_gives_one_latency_per_item():
    window = Window([Op("fast", 1.0, 3, key="a"), Op("slow", 4.0, 7, key="b"),
                     Op("fast", 2.0, 3, key="a"), Op("slow", 8.0, 7, key="b"),
                     Op("fast", 6.0, 3, key="a"), Op("fast", 5.0, 2, key="c")])
    items = mean_of_rounds(window)
    assert sorted(items["fast"]) == [(3.0, 3), (5.0, 2)]
    assert items["slow"] == [(6.0, 7)]


def test_overlap_wait_counts_time_behind_an_earlier_request():
    ops = [Op("fast", 0, 1, service=10.0, start=0.0),
           Op("fast", 0, 1, service=3.0, start=2.0),  # in flight 2..5 behind 0..10
           Op("fast", 0, 1, service=4.0, start=8.0),  # 8..12: waits 8..10
           Op("fast", 0, 1, service=1.0, start=20.0)]  # alone
    assert overlap_wait(ops) == pytest.approx(3.0 + 2.0)
    assert overlap_wait(list(reversed(ops))) == pytest.approx(5.0)


def test_self_time_subtracts_children_and_wraps_restore():
    module = types.ModuleType("e2e_fake_layer")

    def inner():
        time.sleep(0.01)

    def outer():
        time.sleep(0.01)
        module.inner()

    module.inner, module.outer = inner, outer
    sys.modules[module.__name__] = module
    try:
        tracer = Tracer()
        assert tracer.wrap(module.__name__, "inner", "fake.inner")
        assert tracer.wrap(module.__name__, "outer", "fake.outer")
        assert not tracer.wrap(module.__name__, "missing", "fake.missing")
        with tracer.span("harness.op"):
            module.outer()
        tracer.unwrap_all()
        assert module.inner is inner and module.outer is outer
    finally:
        del sys.modules[module.__name__]
    self_s = tracer.self_seconds()
    assert set(self_s) == {"harness.op", "fake.outer", "fake.inner"}
    assert 0.009 < self_s["fake.inner"] < 0.05
    assert 0.009 < self_s["fake.outer"] < 0.05  # its child is not counted
    assert self_s["harness.op"] < 0.005
    assert [span[3] for span in tracer.spans] == [-1, 0, 1]
