"""Wire protocol: framing, validation, constructors."""

from __future__ import annotations

import json

import pytest

from repro.gateway import protocol
from repro.gateway.protocol import (
    CLIENT_MESSAGE_TYPES,
    ERROR_CODES,
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    SERVER_MESSAGE_TYPES,
    STREAM_EVENTS,
    ProtocolError,
)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "message, from_client",
        [
            (protocol.hello(), True),
            (protocol.hello(api_key="team-a"), True),
            (protocol.submit({"id": "j1", "dimacs": "p cnf 1 1\n1 0\n"}), True),
            (protocol.cancel("j1"), True),
            (protocol.ping(nonce=3), True),
            (protocol.bye(), True),
            (protocol.welcome([{"device": "chimera16"}], {"burst": 40}), False),
            (protocol.ack("j1", queue_depth=2), False),
            (protocol.reject("backpressure", "full", job_id="j1", retry_after_s=0.5), False),
            (protocol.event("j1", "routed", device="chimera16"), False),
            (protocol.event("j1", "started"), False),
            (protocol.result("j1", {"state": "done"}), False),
            (protocol.pong(nonce=3), False),
            (protocol.error("bad_message", "nope"), False),
            (protocol.goodbye(served=4), False),
        ],
    )
    def test_encode_parse_identity(self, message, from_client):
        line = protocol.encode(message)
        assert line.endswith(b"\n")
        assert protocol.parse_line(line, from_client=from_client) == message

    def test_encode_is_one_json_line(self):
        line = protocol.encode(protocol.hello())
        assert line.count(b"\n") == 1
        json.loads(line.decode("utf-8"))


class TestParseValidation:
    def test_rejects_non_json(self):
        with pytest.raises(ProtocolError) as exc:
            protocol.parse_line(b"not json\n", from_client=True)
        assert exc.value.code == "bad_message"

    def test_rejects_non_object(self):
        with pytest.raises(ProtocolError):
            protocol.parse_line(b"[1, 2]\n", from_client=True)

    def test_rejects_unknown_type(self):
        with pytest.raises(ProtocolError):
            protocol.parse_line(b'{"type": "warp"}\n', from_client=True)

    def test_direction_matters(self):
        ack = protocol.encode(protocol.ack("j", 0))
        assert protocol.parse_line(ack, from_client=False)["type"] == "ack"
        with pytest.raises(ProtocolError):
            protocol.parse_line(ack, from_client=True)
        hello = protocol.encode(protocol.hello())
        with pytest.raises(ProtocolError):
            protocol.parse_line(hello, from_client=False)

    def test_rejects_oversized_line(self):
        blob = b'{"type": "ping", "pad": "' + b"x" * MAX_LINE_BYTES + b'"}\n'
        with pytest.raises(ProtocolError) as exc:
            protocol.parse_line(blob, from_client=True)
        assert "bytes" in exc.value.reason


class TestRegistries:
    def test_version_string(self):
        assert PROTOCOL_VERSION == "hyqsat-gateway/2"

    def test_no_type_overlap(self):
        assert not set(CLIENT_MESSAGE_TYPES) & set(SERVER_MESSAGE_TYPES)

    def test_stream_events_are_not_message_types(self):
        assert not set(STREAM_EVENTS) & (
            set(CLIENT_MESSAGE_TYPES) | set(SERVER_MESSAGE_TYPES)
        )

    def test_constructors_validate_codes_and_events(self):
        with pytest.raises(ValueError):
            protocol.reject("made_up_code", "no")
        with pytest.raises(ValueError):
            protocol.error("made_up_code", "no")
        with pytest.raises(ValueError):
            protocol.event("j1", "made_up_event")
        with pytest.raises(ValueError):
            ProtocolError("made_up_code", "no")
        for code in ERROR_CODES:
            assert protocol.reject(code, "r")["code"] == code
