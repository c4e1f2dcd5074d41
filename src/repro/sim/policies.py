"""Scheduling regimens: how the server picks among eligible jobs.

The policy zoo:

* :class:`ObliviousPolicy` — the paper's oblivious algorithm: a fixed total
  order *P* over all jobs; the server always hands out the eligible job
  smallest under *P*.  Instantiated with the PRIO schedule it **is** the
  PRIO algorithm.
* :class:`FifoPolicy` — DAGMan's behaviour: a FIFO queue of eligible jobs;
  newly eligible jobs join the tail.
* :class:`RandomPolicy` — an extra baseline (not in the paper's headline
  figures): serve a uniformly random eligible job.
* ``"prio"``, ``"upward-rank"`` (HEFT-style weighted upward rank, arXiv
  1903.01154) and ``"dagps"`` (DAGPS/Graphene-style packing, arXiv
  1604.07371) — *static* kinds: an :class:`ObliviousPolicy` over the
  order :mod:`repro.perf.cache` computes for the dag under the kind's
  name (see :func:`repro.sim.rank.upward_rank_order` and
  :func:`repro.sim.rank.dagps_order`).
* ``"prio-live"`` (:class:`repro.live.policy.LivePrioPolicy`) — PRIO
  recomputed over the remnant dag after every completion.

Every policy is registered in a :class:`PolicySpec` table;
:func:`make_policy` builds instances by name, :func:`policy_names` /
:func:`cli_policy_names` enumerate the registry (the CLI and the serving
tier derive their ``--policy`` choices from it, so registering a policy
here is the *only* step needed to expose it everywhere).

A policy instance holds the eligible-and-unassigned set for one simulation;
create a fresh one per run.  :func:`repro.sim.replication.policy_factory`
is the one place a kind plus a dag becomes a policy: it resolves static
orders (through the schedule cache when given one) and hands the dag to
the kinds that consume it.
"""

from __future__ import annotations

import heapq
import operator
from collections import deque
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Policy",
    "ObliviousPolicy",
    "FifoPolicy",
    "RandomPolicy",
    "PolicySpec",
    "UnknownPolicyError",
    "make_policy",
    "policy_names",
    "cli_policy_names",
    "policy_spec",
    "register_policy",
]


class Policy:
    """Interface: a mutable pool of eligible, unassigned jobs."""

    def push(self, job: int) -> None:
        raise NotImplementedError

    def pop(self) -> int:
        raise NotImplementedError

    def on_complete(self, job: int) -> None:
        """Observe a job completing (before its children are pushed).

        A no-op for the paper's oblivious policies; reprioritizing
        policies (:class:`repro.live.policy.LivePrioPolicy`) use it to
        track the executed set.  The batched kernel never calls this
        hook, which is safe exactly because it only runs registry kinds
        with a ``batch_kind`` (FIFO and the static-permutation orders),
        for which it is a no-op.
        """

    def __len__(self) -> int:
        raise NotImplementedError


class ObliviousPolicy(Policy):
    """Serve eligible jobs in a fixed priority order.

    ``order`` is the schedule (job ids, earliest first); internally jobs are
    ranked so ``pop`` returns the eligible job of minimum rank.
    """

    __slots__ = ("_rank", "_job_of_rank", "_heap")

    def __init__(self, order: Sequence[int]):
        n = len(order)
        self._rank = [-1] * n
        self._job_of_rank = [0] * n
        for r, job in enumerate(order):
            job = operator.index(job)
            if not 0 <= job < n:
                raise ValueError(
                    f"order entry {job} out of range for {n} jobs "
                    "(order must be a permutation of range(n))"
                )
            if self._rank[job] != -1:
                raise ValueError(
                    f"job {job} appears more than once in order "
                    "(order must be a permutation of range(n))"
                )
            self._rank[job] = r
            self._job_of_rank[r] = job
        self._heap: list[int] = []

    def push(self, job: int) -> None:
        heapq.heappush(self._heap, self._rank[job])

    def pop(self) -> int:
        return self._job_of_rank[heapq.heappop(self._heap)]

    def __len__(self) -> int:
        return len(self._heap)


class FifoPolicy(Policy):
    """Serve eligible jobs in the order they became eligible."""

    __slots__ = ("_queue",)

    def __init__(self):
        self._queue: deque[int] = deque()

    def push(self, job: int) -> None:
        self._queue.append(job)

    def pop(self) -> int:
        return self._queue.popleft()

    def __len__(self) -> int:
        return len(self._queue)


class RandomPolicy(Policy):
    """Serve a uniformly random eligible job (extension baseline)."""

    __slots__ = ("_jobs", "_rng")

    def __init__(self, rng: np.random.Generator):
        self._jobs: list[int] = []
        self._rng = rng

    def push(self, job: int) -> None:
        self._jobs.append(job)

    def pop(self) -> int:
        i = int(self._rng.integers(0, len(self._jobs)))
        self._jobs[i], self._jobs[-1] = self._jobs[-1], self._jobs[i]
        return self._jobs.pop()

    def __len__(self) -> int:
        return len(self._jobs)


# --------------------------------------------------------------------------
# Policy registry


class UnknownPolicyError(ValueError):
    """An unregistered policy name was requested.

    Subclasses :class:`ValueError` (the historical type raised by
    :func:`make_policy`); carries the offending ``kind`` and the valid
    ``choices`` so CLI/serve layers can render them without re-querying
    the registry.
    """

    def __init__(self, kind: str, choices: Sequence[str]):
        self.kind = kind
        self.choices = tuple(choices)
        super().__init__(
            f"unknown policy kind: {kind!r}; choose from {list(self.choices)}"
        )


def _build_fifo(*, order, rng, dag) -> Policy:
    return FifoPolicy()


def _build_oblivious(*, order, rng, dag) -> Policy:
    if order is None:
        raise ValueError(
            "policy needs a job order (policy_factory derives a static "
            "kind's order from the dag)"
        )
    return ObliviousPolicy(order)


def _build_random(*, order, rng, dag) -> Policy:
    if rng is None:
        raise ValueError("random policy needs an rng")
    return RandomPolicy(rng)


def _build_prio_live(*, order, rng, dag) -> Policy:
    if dag is None:
        raise ValueError("prio-live policy needs the dag")
    from ..live.policy import LivePrioPolicy

    return LivePrioPolicy(dag)


@dataclass(frozen=True)
class PolicySpec:
    """Registry entry for one policy kind.

    ``build(order=..., rng=..., dag=...)`` constructs a fresh instance
    (raising :class:`ValueError` when a required ingredient is missing).
    ``static`` marks a kind whose full priority permutation is a
    function of the dag alone — *oblivious* in the paper's sense: its
    name is a :mod:`repro.perf.cache` algorithm, so the order is
    computed once per dag, cached, and run by the batched kernel.
    ``consumes_dag`` marks a kind whose instances need the object dag
    itself (``"prio-live"`` reschedules over it).  ``batch_kind`` names
    the kernel dispatch class (``"fifo"``, ``"oblivious"``, or ``None``
    for policies the kernel cannot compile — those take the documented
    per-replication reference fallback).
    ``cli`` controls whether the name is offered as a user-facing
    ``--policy`` choice (``"oblivious"`` is builder-level: it requires an
    explicit order, so it stays out of the CLI menus).
    """

    name: str
    summary: str
    build: Callable[..., Policy]
    cli: bool = True
    static: bool = False
    consumes_dag: bool = False
    batch_kind: str | None = None


_REGISTRY: dict[str, PolicySpec] = {}


def register_policy(spec: PolicySpec) -> PolicySpec:
    """Add *spec* to the registry (name must be unused)."""
    if spec.name in _REGISTRY:
        raise ValueError(f"policy {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def policy_names() -> tuple[str, ...]:
    """Every registered policy kind, in registration order."""
    return tuple(_REGISTRY)


def cli_policy_names() -> tuple[str, ...]:
    """Registered kinds exposed as user-facing ``--policy`` choices."""
    return tuple(name for name, spec in _REGISTRY.items() if spec.cli)


def policy_spec(kind: str) -> PolicySpec:
    """The :class:`PolicySpec` for *kind*; :class:`UnknownPolicyError` if
    unregistered."""
    try:
        return _REGISTRY[kind]
    except KeyError:
        raise UnknownPolicyError(kind, policy_names()) from None


def make_policy(
    kind: str,
    *,
    order=None,
    rng: np.random.Generator | None = None,
    dag=None,
) -> Policy:
    """Fresh policy instance by registered kind.

    ``"fifo"``, ``"oblivious"`` / ``"prio"`` / ``"upward-rank"`` /
    ``"dagps"`` (need *order*; :func:`repro.sim.replication.
    policy_factory` derives a static kind's order from the dag),
    ``"random"`` (needs *rng*), or ``"prio-live"`` (needs *dag*: PRIO
    re-prioritized over the remnant after every completion).
    Unknown kinds raise :class:`UnknownPolicyError` listing the valid
    choices.
    """
    return policy_spec(kind).build(order=order, rng=rng, dag=dag)


register_policy(
    PolicySpec(
        name="prio",
        summary="the paper's PRIO schedule, served obliviously",
        build=_build_oblivious,
        static=True,
        batch_kind="oblivious",
    )
)
register_policy(
    PolicySpec(
        name="fifo",
        summary="DAGMan order: first eligible, first served",
        build=_build_fifo,
        batch_kind="fifo",
    )
)
register_policy(
    PolicySpec(
        name="random",
        summary="uniformly random eligible job (baseline)",
        build=_build_random,
    )
)
register_policy(
    PolicySpec(
        name="prio-live",
        summary="PRIO recomputed over the remnant after each completion",
        build=_build_prio_live,
        consumes_dag=True,
    )
)
register_policy(
    PolicySpec(
        name="upward-rank",
        summary="HEFT-style weighted upward rank, decreasing",
        build=_build_oblivious,
        static=True,
        batch_kind="oblivious",
    )
)
register_policy(
    PolicySpec(
        name="dagps",
        summary="DAGPS-style packing: troublesome subgraph first",
        build=_build_oblivious,
        static=True,
        batch_kind="oblivious",
    )
)
register_policy(
    PolicySpec(
        name="oblivious",
        summary="fixed caller-supplied priority order",
        build=_build_oblivious,
        cli=False,
        batch_kind="oblivious",
    )
)
