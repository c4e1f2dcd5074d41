"""Wire codec for the scheduling service — and the bit-identity contract.

The service's promise is that HTTP adds **nothing**: a ``POST /schedule``
or ``POST /simulate`` response body is byte-for-byte the canonical
encoding of the same library call.  This module is how that promise is
kept honest rather than approximately true: the *payload builders*
(:func:`schedule_payload`, :func:`simulate_payload`) are plain library
functions — callable with no server anywhere — and the server's handlers
call exactly them, then :func:`encode`.  The end-to-end suite computes
``encode(schedule_payload(...))`` in-process and compares bytes with what
came over the socket, under concurrency, cache hits and cache misses
alike.

Canonical encoding is :func:`repro.dag.io_json.dumps_canonical` (sorted
keys, no whitespace, ``allow_nan=False``) as UTF-8.  Floats are Python
``repr`` (shortest round-trip), so equal doubles always encode equally.

Request shapes (the parsers below validate them and raise
:class:`~repro.serve.errors.ServeError` on anything else)::

    POST /schedule  {"dag": <repro-dag-v1>, "algorithm": "prio"}  # optional
    POST /simulate  {"dag": <repro-dag-v1>, "params": {"mu_bit": 1.0,
                     "mu_bs": 16.0, ...}, "seed": 0,
                     "policy": "prio", "replications": 8}   # tail optional
    POST /session   {"dag": <repro-dag-v1>, "name": "run1"}  # name optional
    POST /advance   {"session": "<token>.<name>", "seq": 1,
                     "events": [{"kind": "complete", "job": 0}, ...]}
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral, Real
from typing import Any

import numpy as np

from ..dag.graph import Dag
from ..dag.io_json import decode_dag, dumps_canonical
from ..live.session import EventError, validate_events
from ..live.store import valid_session_name
from ..perf.cache import (
    ScheduleCache,
    cached_schedule,
    schedule_algorithms,
    schedule_key,
)
from ..sim.engine import SimParams, simulate
from ..sim.policies import cli_policy_names
from ..sim.replication import policy_factory, run_replications
from . import errors

__all__ = [
    "WIRE_FORMAT",
    "POLICIES",
    "SimulateRequest",
    "encode",
    "decode_body",
    "parse_schedule_request",
    "parse_simulate_request",
    "parse_session_request",
    "parse_advance_request",
    "schedule_payload",
    "simulate_payload",
    "session_payload",
    "advance_payload",
]

WIRE_FORMAT = "repro-serve-v1"

#: Policies ``POST /simulate`` accepts (mirrors ``prio simulate -a``:
#: every CLI-visible kind in the policy registry).
POLICIES = cli_policy_names()

#: ``SimParams`` fields settable over the wire, with their check.
_PARAM_FIELDS: dict[str, type] = {
    "mu_bit": Real,
    "mu_bs": Real,
    "runtime_mean": Real,
    "runtime_std": Real,
    "batch_size_dist": str,
    "failure_prob": Real,
    "failure_time_fraction": Real,
    "straggler_prob": Real,
    "straggler_factor": Real,
    "rollover": bool,
}


# ----------------------------------------------------------------------
# Encoding and decoding
# ----------------------------------------------------------------------


def encode(payload: dict) -> bytes:
    """Canonical response bytes for *payload* (the bit-identity form)."""
    return dumps_canonical(payload).encode("utf-8")


def decode_body(body: bytes) -> dict:
    """Parse a request body into a JSON object, or raise a 400."""
    import json

    try:
        payload = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise errors.bad_json(f"request body is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise errors.invalid_request(
            f"request must be a JSON object, got {type(payload).__name__}"
        )
    return payload


# ----------------------------------------------------------------------
# Request parsing
# ----------------------------------------------------------------------


def _decode_dag_field(payload: dict) -> tuple:
    """The strict wire decode of the ``dag`` field, without a ``Dag``."""
    if "dag" not in payload:
        raise errors.invalid_request("missing required field 'dag'")
    try:
        return decode_dag(payload["dag"])
    except ValueError as exc:
        raise errors.invalid_dag(str(exc)) from None


def _build_dag(wire: tuple) -> Dag:
    try:
        return Dag(*wire)
    except ValueError as exc:
        raise errors.invalid_dag(str(exc)) from None


def parse_schedule_request(payload: dict) -> tuple[tuple, str]:
    """Validate a ``POST /schedule`` body into ``(wire, algorithm)``,
    where *wire* is the ``(n, arcs, labels)`` decode of its dag
    (:func:`~repro.dag.io_json.decode_dag`).

    The ``Dag`` is not built here: :func:`schedule_payload` builds it only
    when the order must be computed.  When a later field is invalid the
    ``Dag`` is built first, so a structural dag error is reported before
    it, as for every other endpoint.
    """
    wire = _decode_dag_field(payload)
    try:
        algorithm = payload.get("algorithm", "prio")
        if algorithm not in schedule_algorithms():
            raise errors.invalid_request(
                f"unknown algorithm {algorithm!r}; "
                f"choose from {list(schedule_algorithms())}"
            )
        unknown = set(payload) - {"dag", "algorithm"}
        if unknown:
            raise errors.invalid_request(
                f"unknown request fields: {sorted(unknown)}"
            )
    except errors.ServeError:
        _build_dag(wire)
        raise
    return wire, algorithm


@dataclass(frozen=True)
class SimulateRequest:
    """A validated ``POST /simulate`` body."""

    dag: Dag
    params: SimParams
    seed: int
    policy: str
    replications: int


def parse_simulate_request(payload: dict) -> SimulateRequest:
    """Validate a ``POST /simulate`` body."""
    dag = _build_dag(_decode_dag_field(payload))
    raw_params = payload.get("params")
    if not isinstance(raw_params, dict):
        raise errors.invalid_request(
            "missing required object field 'params' "
            "(at least {'mu_bit': ..., 'mu_bs': ...})"
        )
    unknown = set(raw_params) - set(_PARAM_FIELDS)
    if unknown:
        raise errors.invalid_request(
            f"unknown simulation parameters: {sorted(unknown)}"
        )
    for name, expected in _PARAM_FIELDS.items():
        if name in raw_params:
            value = raw_params[name]
            bad_bool = expected is not bool and isinstance(value, bool)
            if bad_bool or not isinstance(value, expected):
                raise errors.invalid_request(
                    f"parameter {name!r} must be a {expected.__name__}"
                )
    try:
        params = SimParams(**raw_params)
    except (TypeError, ValueError) as exc:
        raise errors.invalid_request(f"invalid simulation params: {exc}") from None
    seed = payload.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, Integral):
        raise errors.invalid_request("'seed' must be an integer")
    if seed < 0:
        raise errors.invalid_request("'seed' must be non-negative")
    policy = payload.get("policy", "prio")
    if policy not in POLICIES:
        raise errors.invalid_request(
            f"unknown policy {policy!r}; choose from {list(POLICIES)}"
        )
    replications = payload.get("replications", 1)
    if isinstance(replications, bool) or not isinstance(replications, Integral):
        raise errors.invalid_request("'replications' must be an integer")
    if replications < 1:
        raise errors.invalid_request("'replications' must be at least 1")
    unknown = set(payload) - {"dag", "params", "seed", "policy", "replications"}
    if unknown:
        raise errors.invalid_request(
            f"unknown request fields: {sorted(unknown)}"
        )
    return SimulateRequest(dag, params, int(seed), policy, int(replications))


def parse_session_request(payload: dict) -> tuple[Any, str]:
    """Validate a ``POST /session`` body into ``(dag_payload, name)``.

    The *raw* dag payload is returned (not the parsed ``Dag``): the
    session store derives the session token and the checkpoint contents
    from the exact bytes the client sent, so routing and recovery cannot
    drift from what was requested.  The dag is checked once: the strict
    wire decode runs here, and the store's one ``Dag`` build raises
    ``ValueError``, which the dispatcher answers as ``invalid_dag``.  When
    a later field is invalid the ``Dag`` is built first, so a structural
    dag error is still reported before it.  Malformed dags answer a
    structured 400, never a 500.
    """
    wire = _decode_dag_field(payload)
    try:
        name = payload.get("name", "default")
        if not valid_session_name(name):
            raise errors.invalid_request(
                "'name' must match [A-Za-z0-9._-]{1,64}"
            )
        unknown = set(payload) - {"dag", "name"}
        if unknown:
            raise errors.invalid_request(
                f"unknown request fields: {sorted(unknown)}"
            )
    except errors.ServeError:
        _build_dag(wire)
        raise
    return payload["dag"], name


def parse_advance_request(payload: dict) -> tuple[str, int, list]:
    """Validate a ``POST /advance`` body into ``(session_id, seq, events)``.

    Event *structure* is checked here (strict: exactly ``kind``/``job``
    fields, known kinds, integer jobs); range and state checks run
    against the session inside the store and surface as 400s too.
    """
    session_id = payload.get("session")
    if not isinstance(session_id, str) or not session_id:
        raise errors.invalid_request(
            "missing required string field 'session'"
        )
    seq = payload.get("seq")
    if isinstance(seq, bool) or not isinstance(seq, Integral):
        raise errors.invalid_request("'seq' must be an integer")
    if seq < 1:
        raise errors.invalid_request("'seq' must be at least 1")
    if "events" not in payload:
        raise errors.invalid_request("missing required field 'events'")
    events = payload["events"]
    try:
        validate_events(events)
    except EventError as exc:
        raise errors.invalid_request(str(exc)) from None
    unknown = set(payload) - {"session", "seq", "events"}
    if unknown:
        raise errors.invalid_request(
            f"unknown request fields: {sorted(unknown)}"
        )
    return session_id, int(seq), events


# ----------------------------------------------------------------------
# Reference implementations (what the server serves, callable in-process)
# ----------------------------------------------------------------------


def _schedule_body(algorithm: str, fingerprint: str, n: int, order) -> dict:
    return {
        "format": WIRE_FORMAT,
        "kind": "schedule",
        "algorithm": algorithm,
        "fingerprint": fingerprint,
        "n": n,
        "schedule": [int(u) for u in order],
    }


def schedule_payload(
    dag: Dag | tuple,
    algorithm: str = "prio",
    *,
    cache: ScheduleCache | None = None,
) -> dict:
    """The ``POST /schedule`` response payload, computed in-process.

    *dag* is a :class:`~repro.dag.graph.Dag` or the ``(n, arcs, labels)``
    wire decode that :func:`parse_schedule_request` returns.  A wire
    decode is answered from its arcs when *cache* holds their key
    (:func:`~repro.perf.cache.schedule_key`); the ``Dag`` is built, and
    validated, only when the order must be computed, and the order is
    stored under the key already computed, so the fingerprint is hashed
    once per request.  A hit needs labels that ``Dag`` would accept
    (absent, or ``n`` unique strings); any other payload is built, and
    raises as it always did.  Why a hit is safe without the structural
    checks is in :mod:`repro.perf.cache`.

    Deterministic in ``(dag, algorithm)`` — the cache can only
    change *when* the order is computed, never what it is — so the
    served bytes are independent of hits and misses.
    """
    if isinstance(dag, Dag):
        order = cached_schedule(dag, algorithm, cache=cache)
        return _schedule_body(algorithm, dag.fingerprint(), dag.n, order)
    n, arcs, labels = dag
    key = None
    if cache is not None and (
        labels is None or len(labels) == n == len(set(labels))
    ):
        try:
            key = schedule_key((n, arcs), algorithm, {})
        except OverflowError:  # an id past int32 names no stored dag
            pass
    if key is None:
        return schedule_payload(_build_dag(dag), algorithm, cache=cache)
    order = cache.lookup(key, n)
    if order is None:
        order = cached_schedule(_build_dag(dag), algorithm)
        cache.store(key, n, order)
    return _schedule_body(algorithm, key[0], n, order)


def session_payload(summary: dict) -> dict:
    """The ``POST /session`` / ``GET /session/{id}`` response payload.

    *summary* is :meth:`~repro.live.session.LiveSession.state_summary` —
    the session's full observable state, including the remnant
    fingerprint the byte-identity contract is asserted on.
    """
    payload = {"format": WIRE_FORMAT, "kind": "session"}
    payload.update(summary)
    return payload


def advance_payload(delta: dict) -> dict:
    """The ``POST /advance`` response payload (the priority delta)."""
    payload = {"format": WIRE_FORMAT, "kind": "advance"}
    payload.update(delta)
    return payload


def _result_fields(result) -> dict:
    return {
        "execution_time": float(result.execution_time),
        "n_jobs": int(result.n_jobs),
        "batches_until_last_assignment": int(
            result.batches_until_last_assignment
        ),
        "stalled_batches": int(result.stalled_batches),
        "requests_until_last_assignment": int(
            result.requests_until_last_assignment
        ),
        "n_failures": int(result.n_failures),
        "unserved_workers": int(result.unserved_workers),
        "n_stragglers": int(result.n_stragglers),
        "stalling_probability": float(result.stalling_probability),
        "utilization": float(result.utilization),
    }


def simulate_payload(
    dag: Dag,
    params: SimParams,
    seed: int,
    policy: str = "prio",
    replications: int = 1,
    *,
    cache: ScheduleCache | None = None,
    jobs: int = 1,
    retry=None,
    metrics=None,
) -> dict:
    """The ``POST /simulate`` response payload, computed in-process.

    ``replications == 1`` reproduces exactly the CLI ``prio simulate``
    seeding (``default_rng(seed)`` drives policy and simulation) and
    reports the full :class:`~repro.sim.engine.SimResult`.  Batches go
    through :func:`~repro.sim.replication.run_replications` — the
    parallel executor when ``jobs > 1`` — whose metrics are bit-identical
    for any ``jobs``, so the served bytes never depend on the server's
    worker count.
    """
    head = {
        "format": WIRE_FORMAT,
        "kind": "simulate",
        "policy": policy,
        "seed": int(seed),
        "params": {"mu_bit": float(params.mu_bit), "mu_bs": float(params.mu_bs)},
        "n": dag.n,
        "fingerprint": dag.fingerprint(),
    }
    build = policy_factory(policy, dag=dag, cache=cache)
    if replications == 1:
        rng = np.random.default_rng(seed)
        compiled = cache.compiled(dag) if cache is not None else dag
        result = simulate(compiled, build(rng), params, rng, metrics=metrics)
        head["result"] = _result_fields(result)
        return head
    arrays = run_replications(
        dag,
        build,
        params,
        replications,
        seed,
        jobs=jobs,
        retry=retry,
        cache=cache,
        metrics=metrics,
    )
    head["kind"] = "replications"
    head["replications"] = int(replications)
    head["metrics"] = {
        name: [float(x) for x in arrays.metric(name)]
        for name in ("execution_time", "stalling_probability", "utilization")
    }
    head["summary"] = {
        name: {
            "mean": float(np.mean(arrays.metric(name))),
            "min": float(np.min(arrays.metric(name))),
            "max": float(np.max(arrays.metric(name))),
        }
        for name in ("execution_time", "stalling_probability", "utilization")
    }
    return head
