"""Structured service errors: every failure is a documented (status, code).

A client of :mod:`repro.serve` never sees a traceback over the wire.
Anything that goes wrong — malformed JSON, a cyclic "dag", an oversized
or truncated body, an unknown endpoint, saturation, a blown deadline —
maps to a :class:`ServeError` carrying an HTTP status plus a stable
machine-readable ``code``, and the response body is always::

    {"error": {"code": "<code>", "message": "<human text>"}}

The codes (documented in docs/API.md, "Serving") are the wire contract
the protocol-robustness suite asserts on:

=====================  ======  ==================================
code                   status  raised when
=====================  ======  ==================================
``bad_json``           400     body is not valid JSON
``invalid_request``    400     JSON but not a valid request shape
``invalid_dag``        400     dag payload malformed or cyclic
``truncated_body``     400     body shorter than Content-Length
``not_found``          404     unknown endpoint or unknown session
``method_not_allowed`` 405     known endpoint, wrong HTTP method
``conflict``           409     session already exists / stale ``seq``
``payload_too_large``  413     Content-Length over the limit, or a
                               dag's ``n`` over the job bound
``overloaded``         429     in-flight limit saturated
``internal``           500     unexpected server-side failure
``bad_gateway``        502     a scheduler shard died mid-request
``deadline_exceeded``  504     per-request timeout expired
=====================  ======  ==================================
"""

from __future__ import annotations

__all__ = [
    "ServeError",
    "bad_json",
    "invalid_request",
    "invalid_dag",
    "truncated_body",
    "not_found",
    "unknown_session",
    "method_not_allowed",
    "conflict",
    "payload_too_large",
    "dag_too_large",
    "overloaded",
    "internal",
    "bad_gateway",
    "deadline_exceeded",
    "ERROR_CODES",
]

#: code -> HTTP status, the complete wire-visible error vocabulary.
ERROR_CODES: dict[str, int] = {
    "bad_json": 400,
    "invalid_request": 400,
    "invalid_dag": 400,
    "truncated_body": 400,
    "not_found": 404,
    "method_not_allowed": 405,
    "conflict": 409,
    "payload_too_large": 413,
    "overloaded": 429,
    "internal": 500,
    "bad_gateway": 502,
    "deadline_exceeded": 504,
}


class ServeError(Exception):
    """A request failure with a documented status and error code."""

    def __init__(self, code: str, message: str, *, headers=None):
        if code not in ERROR_CODES:
            raise ValueError(f"undocumented error code {code!r}")
        super().__init__(message)
        self.code = code
        self.status = ERROR_CODES[code]
        self.message = message
        self.headers = dict(headers) if headers else {}

    def payload(self) -> dict:
        """The structured response body for this error."""
        return {"error": {"code": self.code, "message": self.message}}


def bad_json(message: str = "request body is not valid JSON") -> ServeError:
    return ServeError("bad_json", message)


def invalid_request(message: str) -> ServeError:
    return ServeError("invalid_request", message)


def invalid_dag(message: str) -> ServeError:
    return ServeError("invalid_dag", message)


def truncated_body(message: str = "request body shorter than Content-Length") -> ServeError:
    return ServeError("truncated_body", message)


def not_found(path: str) -> ServeError:
    return ServeError("not_found", f"no such endpoint: {path}")


def unknown_session(session_id: str) -> ServeError:
    return ServeError("not_found", f"no such session: {session_id}")


def method_not_allowed(method: str, path: str, allowed: str) -> ServeError:
    return ServeError(
        "method_not_allowed",
        f"{method} not allowed on {path} (allowed: {allowed})",
        headers={"Allow": allowed},
    )


def conflict(message: str) -> ServeError:
    return ServeError("conflict", message)


def payload_too_large(length: int, limit: int) -> ServeError:
    return ServeError(
        "payload_too_large",
        f"request body of {length} bytes exceeds the {limit}-byte limit",
    )


def dag_too_large(n: int, limit: int) -> ServeError:
    return ServeError(
        "payload_too_large",
        f"dag declares {n} jobs; the body limit admits at most {limit}",
    )


def overloaded(limit: int) -> ServeError:
    return ServeError(
        "overloaded",
        f"server is at its in-flight limit ({limit}); retry later",
        headers={"Retry-After": "1"},
    )


def internal(message: str = "internal server error") -> ServeError:
    return ServeError("internal", message)


def bad_gateway(message: str = "scheduler shard failed mid-request") -> ServeError:
    return ServeError("bad_gateway", message, headers={"Retry-After": "1"})


def deadline_exceeded(timeout: float) -> ServeError:
    return ServeError(
        "deadline_exceeded",
        f"request exceeded the {timeout:g}s processing deadline",
    )
