"""The gateway wire protocol: versioned JSONL over TCP.

One JSON object per ``\\n``-terminated UTF-8 line, in both directions.
The protocol is versioned by :data:`PROTOCOL_VERSION`; a client opens
with ``hello`` naming the version it speaks, and the server answers
``welcome`` (or a fatal ``error`` and closes).  The complete message
and error-code reference lives in ``docs/GATEWAY.md`` — a contract
test asserts every name declared here is documented there, so this
module is the doc's in-code twin the way ``observability.schema`` is
for docs/TELEMETRY.md.

Everything here is transport-free: pure encode/parse helpers shared
by :mod:`repro.gateway.server` and :mod:`repro.gateway.client`, plus
the type/code registries the contract test introspects.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional, Tuple

#: Protocol identifier a ``hello`` must present, bumped on any
#: incompatible wire change.
PROTOCOL_VERSION = "hyqsat-gateway/2"

#: Message types a client may send.
CLIENT_MESSAGE_TYPES: Tuple[str, ...] = (
    "hello",
    "submit",
    "cancel",
    "ping",
    "bye",
)

#: Message types the server may send.
SERVER_MESSAGE_TYPES: Tuple[str, ...] = (
    "welcome",
    "ack",
    "reject",
    "event",
    "result",
    "pong",
    "error",
    "goodbye",
)

#: Per-job progress events streamed inside ``event`` messages.
#: ``done`` precedes every ``result`` and carries ``state`` plus
#: ``cached`` (true = served from the persistent result cache, no
#: modelled QPU time billed).
STREAM_EVENTS: Tuple[str, ...] = (
    "routed",
    "started",
    "done",
)

#: Error codes carried by ``reject`` (job-level, connection stays up)
#: and ``error`` (protocol-level, connection closes).  Semantics are
#: specified in docs/GATEWAY.md.
ERROR_CODES: Tuple[str, ...] = (
    "bad_message",
    "unsupported_protocol",
    "unauthorized",
    "rate_limited",
    "quota_exhausted",
    "backpressure",
    "duplicate_id",
    "unknown_job",
    "shutting_down",
)

#: Byte cap on one wire line; a line past this is a ``bad_message``
#: (keeps a garbage peer from ballooning the read buffer).
MAX_LINE_BYTES = 4 * 1024 * 1024


class ProtocolError(Exception):
    """A malformed or out-of-contract message.

    ``code`` is one of :data:`ERROR_CODES`; the server folds it into
    an ``error`` message, the client raises it to the caller.
    """

    def __init__(self, code: str, reason: str):
        if code not in ERROR_CODES:
            raise ValueError(f"unknown error code {code!r}")
        super().__init__(f"{code}: {reason}")
        self.code = code
        self.reason = reason


def encode(message: Dict[str, Any]) -> bytes:
    """One wire line (JSON + newline) for a message dict."""
    return (json.dumps(message, sort_keys=True) + "\n").encode("utf-8")


def parse_line(line: bytes, *, from_client: bool) -> Dict[str, Any]:
    """Decode and validate one wire line.

    Checks the JSON shape and that ``type`` is a known message type
    for the sending side; field-level validation stays with the
    handler that knows the message.  Raises :class:`ProtocolError`
    (``bad_message``) otherwise.
    """
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError("bad_message", f"line exceeds {MAX_LINE_BYTES} bytes")
    try:
        payload = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError("bad_message", f"not a JSON line: {error}") from None
    if not isinstance(payload, dict):
        raise ProtocolError("bad_message", "message must be a JSON object")
    kind = payload.get("type")
    known = CLIENT_MESSAGE_TYPES if from_client else SERVER_MESSAGE_TYPES
    if kind not in known:
        raise ProtocolError("bad_message", f"unknown message type {kind!r}")
    return payload


# ---------------------------------------------------------------------------
# Message constructors (the single spelling of each wire shape)
# ---------------------------------------------------------------------------


def hello(api_key: Optional[str] = None) -> Dict[str, Any]:
    message: Dict[str, Any] = {"type": "hello", "protocol": PROTOCOL_VERSION}
    if api_key is not None:
        message["api_key"] = api_key
    return message


def welcome(fleet, limits: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "type": "welcome",
        "protocol": PROTOCOL_VERSION,
        "fleet": list(fleet),
        "limits": limits,
    }


def submit(job: Dict[str, Any]) -> Dict[str, Any]:
    return {"type": "submit", "job": job}


def ack(job_id: str, queue_depth: int) -> Dict[str, Any]:
    return {"type": "ack", "id": job_id, "queue_depth": queue_depth}


def reject(
    code: str,
    reason: str,
    job_id: Optional[str] = None,
    retry_after_s: Optional[float] = None,
) -> Dict[str, Any]:
    if code not in ERROR_CODES:
        raise ValueError(f"unknown error code {code!r}")
    message: Dict[str, Any] = {"type": "reject", "code": code, "reason": reason}
    if job_id is not None:
        message["id"] = job_id
    if retry_after_s is not None:
        message["retry_after_s"] = round(retry_after_s, 3)
    return message


def event(job_id: str, name: str, **attrs: Any) -> Dict[str, Any]:
    if name not in STREAM_EVENTS:
        raise ValueError(f"unknown stream event {name!r}")
    message: Dict[str, Any] = {"type": "event", "id": job_id, "event": name}
    if attrs:
        message["attrs"] = attrs
    return message


def result(job_id: str, outcome: Dict[str, Any]) -> Dict[str, Any]:
    return {"type": "result", "id": job_id, "outcome": outcome}


def cancel(job_id: str) -> Dict[str, Any]:
    return {"type": "cancel", "id": job_id}


def ping(nonce: int = 0) -> Dict[str, Any]:
    return {"type": "ping", "nonce": nonce}


def pong(nonce: int = 0) -> Dict[str, Any]:
    return {"type": "pong", "nonce": nonce}


def bye() -> Dict[str, Any]:
    return {"type": "bye"}


def goodbye(served: int) -> Dict[str, Any]:
    return {"type": "goodbye", "served": served}


def error(code: str, reason: str) -> Dict[str, Any]:
    if code not in ERROR_CODES:
        raise ValueError(f"unknown error code {code!r}")
    return {"type": "error", "code": code, "reason": reason}
