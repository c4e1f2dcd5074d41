"""JSON serialization of dags.

The ``repro-dag-v1`` payload that the service wire and the session
checkpoints carry (DAGMan files remain the canonical *workflow* format;
JSON carries the pure graph).
"""

from __future__ import annotations

import json
from itertools import chain
from typing import Any

from .graph import Dag

__all__ = [
    "dag_to_json",
    "dag_from_json",
    "decode_dag",
    "dumps_canonical",
]

_FORMAT = "repro-dag-v1"


def dumps_canonical(payload: Any) -> str:
    """Serialize *payload* to the canonical JSON text form.

    Sorted keys, no whitespace, ``allow_nan=False`` (NaN/Infinity are not
    JSON and would not survive a round trip).  Equal payloads always
    produce equal bytes, which is what the service layer's bit-identity
    contract is stated over.
    """
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def dag_to_json(dag: Dag) -> dict[str, Any]:
    """A JSON-ready dict describing *dag*."""
    payload: dict[str, Any] = {
        "format": _FORMAT,
        "n": dag.n,
        "arcs": [list(arc) for arc in dag.arcs()],
    }
    if dag.labels is not None:
        payload["labels"] = list(dag.labels)
    return payload


def _checked_ids(raw_arcs: list, payload: dict) -> tuple[list, int]:
    """The arc-by-arc id check: ``(arcs, n)`` with ids that are ints but
    not bools (an int subclass such as an ``IntEnum`` passes), or the
    one error every malformed arc or ``n`` raises."""

    def as_id(value):
        # Strict: bool is an int subclass and int() coerces floats and
        # strings; silently accepting any of those would let two
        # different payload bytes name the same dag (and a truncated
        # float name the wrong job).
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError
        return value

    try:
        arcs = []
        for arc in raw_arcs:
            if len(arc) != 2:
                raise ValueError
            arcs.append((as_id(arc[0]), as_id(arc[1])))
        n = as_id(payload["n"])
    except (TypeError, ValueError, IndexError, KeyError):
        raise ValueError(
            "dag payload needs integer 'n' and integer [parent, child] "
            "pairs (actual integers: booleans, floats and numeric "
            "strings are rejected)"
        ) from None
    return arcs, n


def decode_dag(
    payload: dict[str, Any],
) -> tuple[int, list[tuple[int, int]], list[str] | None]:
    """The strict wire decode of a :func:`dag_to_json` payload:
    ``(n, arcs, labels)`` with *arcs* a list of ``(parent, child)`` int
    pairs in payload order.

    Checks the payload's shape and types only — ``Dag(n, arcs, labels)``
    runs the structural checks (ranges, self-loops, duplicates, label
    count and uniqueness, acyclicity).  Every id must be an actual
    integer: booleans, floats and numeric strings are rejected, never
    coerced.  One ``type(x) is int`` pass checks well-formed input;
    only a failed pass runs the arc-by-arc check, which words the error.
    """
    if not isinstance(payload, dict):
        raise ValueError("dag payload must be a JSON object")
    if payload.get("format") != _FORMAT:
        raise ValueError(
            f"not a {_FORMAT} payload (format={payload.get('format')!r})"
        )
    raw_arcs = payload.get("arcs")
    if not isinstance(raw_arcs, list):
        raise ValueError("arcs must be a list of [parent, child] pairs")
    n = payload.get("n")
    try:
        arcs = list(map(tuple, raw_arcs))
        valid = (
            type(n) is int
            and set(map(len, arcs)) <= {2}
            and set(map(type, chain.from_iterable(arcs))) <= {int}
        )
    except TypeError:
        valid = False
    if not valid:
        arcs, n = _checked_ids(raw_arcs, payload)
    labels = payload.get("labels")
    if labels is not None and (
        not isinstance(labels, list)
        or (
            not set(map(type, labels)) <= {str}
            and any(not isinstance(name, str) for name in labels)
        )
    ):
        raise ValueError("labels must be a list of strings")
    return n, arcs, labels


def dag_from_json(payload: dict[str, Any]) -> Dag:
    """Rebuild a dag from :func:`dag_to_json` output (validates shape).

    :func:`decode_dag` followed by ``Dag(n, arcs, labels)``.  Raises
    ``ValueError`` on any malformed payload — wrong ``format`` marker,
    non-object payload, missing fields, non-integer arcs (ids must be
    actual JSON integers: booleans, floats and numeric strings are
    rejected, never coerced), self-loops, duplicate arcs, duplicate
    labels — and :class:`~repro.dag.graph.CycleError` (a ``ValueError``)
    when the arc set is not acyclic, so callers deserializing untrusted
    input need to catch only ``ValueError``.
    """
    return Dag(*decode_dag(payload))

