"""In-memory span recording for the traced benchmark run.

A span is ``(name, start, end, parent, request id)``.  Spans come only
from the benchmark's own code: explicit :meth:`Tracer.span` blocks around
its calls into the program, and :meth:`Tracer.wrap`, which swaps a public
function (or method) of a ``repro`` module for a timing wrapper for the
duration of the traced run and restores it afterwards.  A wrap target
that a later version of the program no longer has is skipped, and its
time then shows up as self time of the enclosing span.

A span's *self time* is its duration minus the durations of its direct
children (children nest strictly inside their parent).  The layer of a
span is the first dotted component of its name, which is the
``repro`` subpackage that was called.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

from measure import Op, Window

#: The harness's own span: time inside an op that no layer accounts for.
HARNESS = "harness.op"


class Tracer:
    def __init__(self):
        # [name, start, end, parent index, request id]
        self.spans: list[list] = []
        self.rid = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.rid])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, target: str, attr: str, name: str) -> bool:
        """Record span *name* around every call of ``target.attr``, where
        *target* is ``"module"`` or ``"module:Class"``.  Returns whether
        the target exists."""
        module_name, _, class_name = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
        except (ImportError, AttributeError):
            return False
        raw = vars(owner).get(attr)
        if raw is None:
            return False
        inner = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._open(name)
            try:
                return inner(*args, **kwargs)
            finally:
                tracer._close(index)

        # On a class, a plain function stays a method: the wrapper is a
        # function too, so `self` arrives in *args.
        setattr(owner, attr, traced)
        self._restore.append((owner, attr, raw))
        return True

    def unwrap_all(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    # -- analysis ------------------------------------------------------

    def _self_times(self) -> list[float]:
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        return [
            (end - start) - child_time[i]
            for i, (_, start, end, _, _) in enumerate(self.spans)
        ]

    def self_seconds(self, key=lambda span: span[0]) -> dict:
        """Total self time grouped by ``key(span)`` (default: name)."""
        totals: dict = defaultdict(float)
        for span, seconds in zip(self.spans, self._self_times()):
            totals[key(span)] += seconds
        return dict(totals)

    def calls(self) -> dict[str, int]:
        counts: dict[str, int] = defaultdict(int)
        for span in self.spans:
            counts[span[0]] += 1
        return dict(counts)

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line (times relative to the
        first span)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        with path.open("w") as fh:
            for i, (name, start, end, parent, rid) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": name,
                            "start": start - origin,
                            "end": end - origin,
                            "parent": parent,
                            "rid": rid,
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def spanner(tracer: Tracer | None):
    """``tracer.span``, or a no-op of the same shape for untraced runs."""
    return tracer.span if tracer is not None else (lambda name: nullcontext())


def paired_replay(items, run_one, tracer: Tracer, wraps) -> tuple[Window, Window]:
    """Run every item twice, ``run_one(item, None)`` untraced and
    ``run_one(item, tracer)`` with *wraps* installed, alternating which
    goes first.  Neighbouring runs see the same machine, so the ratio of
    the two windows' busy time is the tracing overhead, not drift."""
    base, traced = Window(), Window()
    for i, item in enumerate(items):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                for target, attr, name in wraps:
                    tracer.wrap(target, attr, name)
                tracer.rid = id(item)
            began = time.perf_counter()
            try:
                cls, work = run_one(item, tracer if with_trace else None)
            finally:
                seconds = time.perf_counter() - began
                tracer.unwrap_all()
            window = traced if with_trace else base
            window.ops.append(Op(cls, seconds, work, service=seconds, key=item))
            window.wall += seconds
    return base, traced
