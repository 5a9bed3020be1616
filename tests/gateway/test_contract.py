"""docs/GATEWAY.md contract: the doc must cover the whole protocol.

The protocol module is the in-code twin of docs/GATEWAY.md the way
``observability.schema`` twins docs/TELEMETRY.md: every message type,
stream event, error code, and the protocol version string declared in
:mod:`repro.gateway.protocol` must appear (backtick-quoted) in the
doc, and every ``hyqsat gateway`` / ``hyqsat connect`` flag must be
mentioned — so neither the wire surface nor the CLI can grow
undocumented.  The stream-event table's attrs must be exactly the
attrs a live round trip emits.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest

from repro.benchgen.random_ksat import random_3sat
from repro.cli import build_parser
from repro.gateway.client import GatewayClient
from repro.gateway.protocol import (
    CLIENT_MESSAGE_TYPES,
    ERROR_CODES,
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    SERVER_MESSAGE_TYPES,
    STREAM_EVENTS,
)
from repro.gateway.server import GatewayConfig
from repro.sat.dimacs import to_dimacs

REPO_ROOT = Path(__file__).resolve().parents[2]
GATEWAY_DOC = REPO_ROOT / "docs" / "GATEWAY.md"


@pytest.fixture(scope="module")
def doc_text() -> str:
    return GATEWAY_DOC.read_text(encoding="utf-8")


def _subcommand_flags(name: str):
    parser = build_parser()
    for action in parser._actions:
        choices = getattr(action, "choices", None)
        if choices and name in choices:
            return sorted(
                flag
                for sub_action in choices[name]._actions
                for flag in sub_action.option_strings
                if flag.startswith("--") and flag != "--help"
            )
    raise AssertionError(f"no {name!r} subcommand")


class TestProtocolCoverage:
    def test_doc_exists(self):
        assert GATEWAY_DOC.exists()

    def test_version_string_documented(self, doc_text):
        assert PROTOCOL_VERSION in doc_text

    @pytest.mark.parametrize("kind", CLIENT_MESSAGE_TYPES)
    def test_client_message_types_documented(self, doc_text, kind):
        assert f"`{kind}`" in doc_text, f"client message {kind!r} undocumented"

    @pytest.mark.parametrize("kind", SERVER_MESSAGE_TYPES)
    def test_server_message_types_documented(self, doc_text, kind):
        assert f"`{kind}`" in doc_text, f"server message {kind!r} undocumented"

    @pytest.mark.parametrize("name", STREAM_EVENTS)
    def test_stream_events_documented(self, doc_text, name):
        assert f"`{name}`" in doc_text, f"stream event {name!r} undocumented"

    @pytest.mark.parametrize("code", ERROR_CODES)
    def test_error_codes_documented(self, doc_text, code):
        assert f"`{code}`" in doc_text, f"error code {code!r} undocumented"

    def test_line_cap_documented(self, doc_text):
        assert f"{MAX_LINE_BYTES // (1024 * 1024)} MiB" in doc_text


def _documented_event_attrs(doc_text: str):
    """event -> attr names, read from the §1.6 stream-event table."""
    section = doc_text.split("### 1.6 Stream events", 1)[1]
    section = section.split("\n### ", 1)[0]
    attrs = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.split("|")]
        if len(cells) > 3 and re.fullmatch(r"`\w+`", cells[1]):
            attrs[cells[1].strip("`")] = set(re.findall(r"`(\w+)`", cells[2]))
    return attrs


class TestStreamEventAttrs:
    def test_documented_attrs_match_a_live_round_trip(
        self, doc_text, gateway_factory
    ):
        server = gateway_factory()
        dimacs = to_dimacs(random_3sat(8, 24, np.random.default_rng(2)))
        seen = []
        with GatewayClient(port=server.port) as client:
            client.submit({"id": "j", "dimacs": dimacs, "seed": 1})
            client.drain(["j"], on_message=seen.append)
        emitted = {
            message["event"]: set(message.get("attrs", {}))
            for message in seen
            if message["type"] == "event"
        }
        assert emitted == _documented_event_attrs(doc_text)


class TestCliCoverage:
    def test_every_gateway_flag_documented(self, doc_text):
        missing = [f for f in _subcommand_flags("gateway") if f not in doc_text]
        assert not missing, f"gateway flags undocumented in GATEWAY.md: {missing}"

    def test_every_connect_flag_documented(self, doc_text):
        missing = [f for f in _subcommand_flags("connect") if f not in doc_text]
        assert not missing, f"connect flags undocumented in GATEWAY.md: {missing}"

    def test_gateway_flags_cover_config_knobs(self):
        """Each GatewayConfig field is reachable from the CLI."""
        flags = set(_subcommand_flags("gateway"))
        expected = {
            "host": "--host",
            "port": "--port",
            "workers": "--jobs",
            "max_depth": "--max-depth",
            "fleet": "--fleet",
            "rate_per_s": "--rate-per-s",
            "burst": "--burst",
            "tenant_budget_us": "--tenant-budget-us",
            "api_keys": "--api-keys",
            "retry_after_s": "--retry-after-s",
            "drain_grace_s": "--drain-grace-s",
            "qpu_budget_us": "--qpu-budget-us",
            "cache_db": "--cache-db",
            "cache_cap": "--cache-cap",
        }
        assert set(expected) == set(GatewayConfig.__dataclass_fields__)
        missing = [flag for flag in expected.values() if flag not in flags]
        assert not missing, f"config knobs without CLI flags: {missing}"
