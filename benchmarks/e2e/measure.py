"""Measurement primitives: percentiles, load loops, host speed, process
memory.

Nothing here imports ``repro``; the self-tests exercise these functions
without a server or a workload.
"""

from __future__ import annotations

import asyncio
import bisect
import math
import os
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

#: A tail percentile must leave at least this many samples beyond it.
TAIL_MIN_BEYOND = 10

#: Iterations of the reference loop, and the seconds it takes on the
#: reference host (2-CPU x86-64 VM, Python 3.11) when that host is fast.
REFERENCE_ITERATIONS = 10_000
REFERENCE_S = 0.00060
#: Least time between two readings of the host's speed.
READ_INTERVAL = 0.1


def nearest_rank(values, q: float) -> float:
    """The nearest-rank *q*-quantile (0 < q <= 1): the smallest sample
    with at least ``q * n`` samples at or below it."""
    if not values:
        raise ValueError("no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must lie in (0, 1], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(round(q * len(ordered), 9)))
    return ordered[rank - 1]


def tail_quantile(n: int) -> float | None:
    """The highest whole percentile, at most p90, that leaves at least
    :data:`TAIL_MIN_BEYOND` of *n* samples beyond its nearest rank; None
    when *n* is too small for any percentile from p50 up."""
    for pct in range(90, 49, -1):
        q = pct / 100
        if n - math.ceil(round(q * n, 9)) >= TAIL_MIN_BEYOND:
            return q
    return None


def summarize(latencies_s) -> dict:
    """Median and tail of one latency series, in ms, with the sample
    count and the percentile the tail was taken at.

    A series too short for a tail percentile (fewer than 20 items) has
    no tail to speak of; its ``tail_ms`` is then the mean, so that every
    item -- the slowest one too -- moves it (``tail_q`` is None).
    """
    n = len(latencies_s)
    if n == 0:
        return {"n": 0, "p50_ms": None, "tail_ms": None, "tail_q": None}
    q = tail_quantile(n)
    mean_ms = statistics.fmean(latencies_s) * 1e3
    return {
        "n": n,
        "p50_ms": nearest_rank(latencies_s, 0.5) * 1e3,
        "tail_ms": mean_ms if q is None else nearest_rank(latencies_s, q) * 1e3,
        "tail_q": q,
        "beyond_tail": 0 if q is None else n - math.ceil(round(q * n, 9)),
        "mean_ms": mean_ms,
    }


@dataclass
class Op:
    """One timed operation of a workload."""

    cls: str  # "fast" / "slow": the workload's cheap and expensive path
    seconds: float  # latency (open loop: from the due time)
    work: float  # work units it completed (jobs, replications, ...)
    lag: float = 0.0  # how late the load generator issued it
    service: float = 0.0  # send to reply, without time queued in the client
    key: object = None  # the item it ran
    start: float = 0.0  # clock reading when it was sent


def overlap_wait(ops) -> float:
    """Total time ops spent in flight while an op sent before them was
    still in flight.  Against a server that computes one request at a
    time, that is how long requests waited for each other."""
    total, busy_until = 0.0, float("-inf")
    for op in sorted(ops, key=lambda op: op.start):
        done = op.start + op.service
        total += max(0.0, min(busy_until, done) - op.start)
        busy_until = max(busy_until, done)
    return total


@dataclass
class Window:
    """The ops of one measured window plus its wall-clock length."""

    ops: list[Op] = field(default_factory=list)
    wall: float = 0.0


def reference_loop(iterations: int = REFERENCE_ITERATIONS) -> int:
    """Fixed pure-Python work: its duration tracks the host's speed."""
    total = 0
    for i in range(iterations):
        total += i * i % 7
    return total


class Speedometer:
    """Readings of the host's speed, taken between work items.

    On a host shared with other tenants the same code runs slower or
    faster from one second to the next: on the reference host the 5th
    and 95th percentiles of :func:`reference_loop`'s time within one
    30-second run differed by a factor of 1.6 (median over 40 runs), and
    its median per run ranged from 0.60 to 0.98 ms.  A reading times
    :func:`reference_loop` (the fastest of three, so a preemption does
    not count); :meth:`scale` turns the readings around an interval into
    the factor that expresses a time measured in it at the reference
    host's speed.
    """

    def __init__(self, interval: float = READ_INTERVAL):
        self.interval = interval
        self.times: list[float] = []  # clock when each reading ended
        self.loop_s: list[float] = []  # the reference loop's seconds

    def read(self) -> None:
        best = math.inf
        for _ in range(3):
            began = time.perf_counter()
            reference_loop()
            best = min(best, time.perf_counter() - began)
        self.times.append(time.perf_counter())
        self.loop_s.append(best)

    def due(self) -> bool:
        """Whether *interval* has passed since the last reading."""
        return not self.times or time.perf_counter() - self.times[-1] >= self.interval

    def scale(self, began: float, ended: float) -> float:
        """``REFERENCE_S`` over the mean loop time of the last reading
        before *began* and the first after *ended*."""
        before = bisect.bisect_right(self.times, began) - 1
        after = bisect.bisect_left(self.times, ended)
        around = [self.loop_s[k] for k in (before, after) if 0 <= k < len(self.times)]
        if not around:
            raise ValueError("no reading of the host's speed")
        return REFERENCE_S / statistics.fmean(around)

    def rescale(self, window: Window) -> Window:
        """*window* with every op's times at the reference speed."""
        ops = []
        for op in window.ops:
            ended = op.start + op.service
            factor = self.scale(ended - op.seconds, ended)
            ops.append(replace(op, seconds=op.seconds * factor, service=op.service * factor))
        return Window(ops, window.wall)


def closed_loop(items, run_one, speed: Speedometer | None = None) -> Window:
    """Run ``run_one(item) -> (cls, work)`` back to back, timing each,
    and reading *speed* between items when a reading is due.

    The lag of an op is the gap since the previous op finished: the
    generator's own overhead in a closed loop.
    """
    window = Window()
    start = last = time.perf_counter()
    for item in items:
        if speed is not None and speed.due():
            speed.read()
        began = time.perf_counter()
        cls, work = run_one(item)
        ended = time.perf_counter()
        seconds = ended - began
        window.ops.append(Op(cls, seconds, work, began - last, seconds, item, began))
        last = ended
    if speed is not None:
        speed.read()
    window.wall = time.perf_counter() - start
    return window


#: An open loop reads the host's speed only when nothing is in flight
#: and the next request is due at least this far ahead.
QUIET_S = 0.010


async def open_loop(items, rate: float, send, connections: int,
                    speed: Speedometer | None = None) -> Window:
    """Issue ``items`` at a fixed *rate* regardless of completions.

    ``send(conn_index, item) -> (cls, work)`` runs on one of
    *connections* workers; an item waits in the queue while every
    worker is busy.  Each op is timed from its **due time**, so a stall
    also charges the requests queued behind it, and its lag is how late
    the generator enqueued it.  *speed* is read in quiet gaps only.
    """
    queue: asyncio.Queue = asyncio.Queue()
    ops: list[Op | None] = [None] * len(items)
    clock = time.perf_counter
    if speed is not None:
        speed.read()
    start = clock()
    pending = [0]  # enqueued and not yet answered
    next_due = [start]

    async def generate() -> None:
        for i, item in enumerate(items):
            due = next_due[0] = start + i / rate
            delay = due - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            pending[0] += 1
            queue.put_nowait((i, item, due, clock() - due))
        next_due[0] = math.inf
        for _ in range(connections):
            queue.put_nowait(None)

    async def worker(conn: int) -> None:
        while (entry := await queue.get()) is not None:
            i, item, due, lag = entry
            sent = clock()
            cls, work = await send(conn, item)
            done = clock()
            ops[i] = Op(cls, done - due, work, lag, done - sent, item, sent)
            pending[0] -= 1
            if (speed is not None and not pending[0]
                    and next_due[0] - clock() >= QUIET_S and speed.due()):
                speed.read()

    await asyncio.gather(generate(), *(worker(c) for c in range(connections)))
    wall = clock() - start
    if speed is not None:
        speed.read()
    return Window(ops=list(ops), wall=wall)


#: Closed-loop clients wait for each other every this many items, so
#: that the host's speed can be read while nothing is in flight.
CLIENT_STRIDE = 4


async def closed_clients(sequences, send, speed: Speedometer | None = None) -> Window:
    """Closed loop with one client per sequence: each client sends its
    next item only after the previous reply, ``send(client, item) ->
    (cls, work)``.  Every :data:`CLIENT_STRIDE` items the clients wait
    for each other and *speed* is read."""
    stride = CLIENT_STRIDE
    ops: list[Op] = []
    clock = time.perf_counter
    if speed is not None:
        speed.read()
    start = clock()
    last = [start] * len(sequences)

    async def client(index: int, items) -> None:
        for item in items:
            began = clock()
            cls, work = await send(index, item)
            ended = clock()
            seconds = ended - began
            ops.append(Op(cls, seconds, work, began - last[index], seconds, item, began))
            last[index] = ended

    for first in range(0, max(map(len, sequences), default=0), stride):
        await asyncio.gather(
            *(client(i, items[first:first + stride]) for i, items in enumerate(sequences))
        )
        if speed is not None:
            speed.read()
    return Window(ops=ops, wall=clock() - start)


class Workload:
    """What every workload shares: its context and failure accounting.

    Subclasses provide ``work()``, ``prepare()``, ``setup() -> seconds``,
    ``measure() -> Window`` (one round), ``replay(tracer, wraps) ->
    (untraced Window, traced Window)``, ``peak_rss_mb()``, ``digest()``,
    ``check() -> [failure]`` and ``layer_counts(ops, tracer)``.
    """

    name = ""
    wire = False  # True: measured through the server, traced by replay
    max_messages = 20  # failure messages kept; every failure is counted

    def __init__(self, ctx):
        self.ctx = ctx
        self.failed_ops = 0
        self.messages: list[str] = []
        self.speed = Speedometer()

    def fail(self, message: str) -> None:
        self.failed_ops += 1
        if len(self.messages) < self.max_messages:
            self.messages.append(message)

    def check(self) -> list[str]:
        return []

    def close(self) -> None:
        pass


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss``), in MB."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_table() -> dict[int, tuple[str, int, int]]:
    """``pid -> (state, parent pid, process group)`` of every process."""
    table = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # The command name is parenthesized and may contain spaces.
        state, ppid, pgrp = stat[stat.rindex(")") + 2:].split()[:3]
        table[int(entry.name)] = (state, int(ppid), int(pgrp))
    return table


def process_tree(pid: int) -> list[int]:
    """*pid* and all of its live descendants."""
    table = proc_table()
    tree, frontier = [pid], [pid]
    while frontier:
        current = frontier.pop()
        for child, (_, parent, _) in table.items():
            if parent == current:
                tree.append(child)
                frontier.append(child)
    return tree


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of ``VmHWM`` (peak resident set) over *pid*'s process tree."""
    total_kb = 0
    for member in process_tree(pid):
        try:
            status = Path(f"/proc/{member}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


def host_cpus() -> int:
    return len(os.sched_getaffinity(0))
