"""Gateway server over a real socket, plus deterministic admission
mapping driven without the network.

The socket tests run a real :class:`GatewayServer` on an ephemeral
port inside a background event loop and talk to it with the blocking
:class:`GatewayClient` — the same pairing ``hyqsat gateway`` /
``hyqsat connect`` ships.  Timing-sensitive admission outcomes
(backpressure, duplicates, draining) are driven directly against the
submit handler with a stub connection so they cannot race the
dispatcher.
"""

from __future__ import annotations

import asyncio
import socket
import sqlite3
import threading

import numpy as np
import pytest

from repro.benchgen.random_ksat import random_3sat
from repro.cache import PersistentResultStore
from repro.gateway import protocol
from repro.gateway.client import GatewayClient, GatewayError, GatewayReject
from repro.gateway.server import GatewayConfig, GatewayServer
from repro.service.jobs import JobSpec, run_job
from repro.sat.dimacs import to_dimacs

DIMACS = to_dimacs(random_3sat(8, 24, np.random.default_rng(2)))


@pytest.fixture
def gateway_factory():
    """Start real gateways on ephemeral ports; drain them at teardown."""
    created = []

    def factory(**kwargs) -> GatewayServer:
        kwargs.setdefault("port", 0)
        kwargs.setdefault("fleet", "chimera:4,chimera:8")
        kwargs.setdefault("drain_grace_s", 30.0)
        config = GatewayConfig(**kwargs)
        loop = asyncio.new_event_loop()
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()

        async def make() -> GatewayServer:
            server = GatewayServer(config)
            await server.start()
            return server

        server = asyncio.run_coroutine_threadsafe(make(), loop).result(10)
        created.append((server, loop, thread))
        return server

    yield factory
    for server, loop, thread in created:
        asyncio.run_coroutine_threadsafe(server.shutdown(), loop).result(60)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(5)
        loop.close()


class TestHandshake:
    def test_welcome_describes_fleet_and_limits(self, gateway_factory):
        server = gateway_factory(rate_per_s=5.0, burst=7)
        with GatewayClient(port=server.port) as client:
            assert client.welcome["protocol"] == protocol.PROTOCOL_VERSION
            assert [d["device"] for d in client.welcome["fleet"]] == [
                "chimera4",
                "chimera8",
            ]
            assert client.welcome["limits"] == {
                "rate_per_s": 5.0,
                "burst": 7,
                "qa_budget_us": None,
            }

    def test_wrong_protocol_version_is_fatal(self, gateway_factory):
        server = gateway_factory()
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as raw:
            raw.sendall(b'{"type": "hello", "protocol": "hyqsat-gateway/999"}\n')
            reply = protocol.parse_line(
                raw.makefile("rb").readline(), from_client=False
            )
        assert reply["type"] == "error"
        assert reply["code"] == "unsupported_protocol"

    def test_first_message_must_be_hello(self, gateway_factory):
        server = gateway_factory()
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as raw:
            raw.sendall(protocol.encode(protocol.ping()))
            reply = protocol.parse_line(
                raw.makefile("rb").readline(), from_client=False
            )
        assert reply["type"] == "error"
        assert reply["code"] == "bad_message"

    def test_api_keys_enforced(self, gateway_factory):
        server = gateway_factory(api_keys=("team-a",))
        with pytest.raises(GatewayError) as exc:
            GatewayClient(port=server.port, api_key="wrong")
        assert exc.value.code == "unauthorized"
        with pytest.raises(GatewayError):
            GatewayClient(port=server.port)  # key required, none given
        with GatewayClient(port=server.port, api_key="team-a") as client:
            assert client.welcome["type"] == "welcome"


class TestSolveRoundTrip:
    def test_submit_streams_events_then_result(self, gateway_factory):
        server = gateway_factory()
        with GatewayClient(port=server.port) as client:
            ack = client.submit({"id": "j1", "dimacs": DIMACS, "seed": 5})
            assert ack["id"] == "j1"
            seen = []
            results = client.drain(["j1"], on_message=seen.append)
        kinds = [m["event"] for m in seen if m["type"] == "event"]
        assert kinds == ["routed", "started", "done"]
        routed = next(m for m in seen if m.get("event") == "routed")
        assert routed["attrs"]["device"] in {"chimera4", "chimera8"}
        assert routed["attrs"]["fits"] in (True, False)
        done = next(m for m in seen if m.get("event") == "done")
        assert done["attrs"]["state"] == "done"
        assert done["attrs"]["cached"] is False
        outcome = results["j1"]
        assert outcome["state"] == "done"
        assert outcome["status"] in ("sat", "unsat")
        assert server.stats.jobs == {"done": 1}

    def test_gateway_solve_bit_identical_to_solo_replay(self, gateway_factory):
        server = gateway_factory()
        with GatewayClient(port=server.port) as client:
            client.submit({"id": "bit", "dimacs": DIMACS, "seed": 9})
            seen = []
            outcome = client.drain(["bit"], on_message=seen.append)["bit"]
        routed = next(m for m in seen if m.get("event") == "routed")
        solo = run_job(
            JobSpec(
                job_id="solo",
                dimacs=DIMACS,
                seed=9,
                topology=routed["attrs"]["topology"],
                grid=routed["attrs"]["grid"],
            )
        )
        for field in ("status", "iterations", "conflicts", "qa_calls", "seed"):
            assert outcome.get(field) == getattr(solo, field), field
        assert outcome.get("model") == solo.model
        assert outcome.get("qpu_time_us") == pytest.approx(solo.qpu_time_us)

    def test_tautological_clause_is_routed_and_solved(self, gateway_factory):
        server = gateway_factory()
        dimacs = DIMACS.replace("p cnf 8 24", "p cnf 8 25") + "1 -1 2 0\n"
        with GatewayClient(port=server.port) as client:
            client.submit({"id": "taut", "dimacs": dimacs, "seed": 5})
            seen = []
            outcome = client.drain(["taut"], on_message=seen.append)["taut"]
        routed = next(m for m in seen if m.get("event") == "routed")
        assert routed["attrs"]["total_clauses"] == 24
        assert outcome["state"] == "done"
        solo = run_job(
            JobSpec(
                job_id="solo",
                dimacs=dimacs,
                seed=5,
                topology=routed["attrs"]["topology"],
                grid=routed["attrs"]["grid"],
            )
        )
        assert outcome["status"] == solo.status
        assert outcome.get("model") == solo.model

    def test_pinned_placement_skips_routing(self, gateway_factory):
        server = gateway_factory()
        with GatewayClient(port=server.port) as client:
            client.submit(
                {"id": "pin", "dimacs": DIMACS, "seed": 5, "topology": "chimera", "grid": 8}
            )
            seen = []
            outcome = client.drain(["pin"], on_message=seen.append)["pin"]
        kinds = [m["event"] for m in seen if m["type"] == "event"]
        assert kinds == ["started", "done"]  # no routed event for a pinned job
        assert outcome["state"] == "done"

    def test_multiple_jobs_one_connection(self, gateway_factory):
        server = gateway_factory(workers=2)
        ids = [f"m{i}" for i in range(3)]
        with GatewayClient(port=server.port) as client:
            for index, job_id in enumerate(ids):
                client.submit({"id": job_id, "dimacs": DIMACS, "seed": index})
            results = client.drain(ids)
        assert set(results) == set(ids)
        assert all(r["state"] == "done" for r in results.values())
        assert server.stats.jobs == {"done": 3}

    def test_ping_and_clean_goodbye(self, gateway_factory):
        server = gateway_factory()
        client = GatewayClient(port=server.port)
        assert client.ping(nonce=42)["nonce"] == 42
        goodbye = client.close()
        assert goodbye is not None and goodbye["type"] == "goodbye"

    def test_rate_limit_rejects_with_retry_after(self, gateway_factory):
        server = gateway_factory(rate_per_s=0.001, burst=1)
        with GatewayClient(port=server.port) as client:
            client.submit({"id": "ok", "dimacs": DIMACS, "seed": 1})
            with pytest.raises(GatewayReject) as exc:
                client.submit({"id": "denied", "dimacs": DIMACS, "seed": 2})
            assert exc.value.code == "rate_limited"
            assert exc.value.retry_after_s > 0
            client.drain(["ok"])
        assert server.stats.rate_limited == 1

    def test_cancel_unknown_job_rejects(self, gateway_factory):
        server = gateway_factory()
        with GatewayClient(port=server.port) as client:
            with pytest.raises(GatewayReject) as exc:
                client.cancel("never-submitted")
            assert exc.value.code == "unknown_job"


class TestResultCache:
    def test_second_submit_served_from_cache(self, gateway_factory, tmp_path):
        server = gateway_factory(cache_db=str(tmp_path / "gw.sqlite"))
        with GatewayClient(port=server.port) as client:
            client.submit({"id": "c1", "dimacs": DIMACS, "seed": 5})
            first = client.drain(["c1"])["c1"]
            client.submit({"id": "c2", "dimacs": DIMACS, "seed": 5})
            seen = []
            second = client.drain(["c2"], on_message=seen.append)["c2"]
        done = next(m for m in seen if m.get("event") == "done")
        assert done["attrs"]["cached"] is True
        assert second["cached"] is True and second["cache_kind"] == "exact"
        for field in (
            "status", "model", "iterations", "conflicts",
            "qa_calls", "qpu_time_us",
        ):
            assert second.get(field) == first.get(field), field
        assert server.cache.stats.hits == 1

    def test_cache_hits_never_charge_the_ledger(
        self, gateway_factory, tmp_path
    ):
        server = gateway_factory(cache_db=str(tmp_path / "gw.sqlite"))
        with GatewayClient(port=server.port) as client:
            client.submit({"id": "b1", "dimacs": DIMACS, "seed": 5})
            client.drain(["b1"])
            spent_after_first = server.ledger.spent_us(None)
            assert spent_after_first > 0
            client.submit({"id": "b2", "dimacs": DIMACS, "seed": 5})
            client.drain(["b2"])
        assert server.ledger.spent_us(None) == spent_after_first

    def test_failing_lookup_and_record_still_answer(
        self, gateway_factory, tmp_path, monkeypatch
    ):
        def broken(*_args):
            raise sqlite3.OperationalError("disk I/O error")

        monkeypatch.setattr(PersistentResultStore, "lookup", broken)
        monkeypatch.setattr(PersistentResultStore, "record", broken)
        server = gateway_factory(cache_db=str(tmp_path / "gw.sqlite"))
        with GatewayClient(port=server.port) as client:
            client.submit({"id": "x", "dimacs": DIMACS, "seed": 9})
            seen = []
            outcome = client.drain(["x"], on_message=seen.append)["x"]
        routed = next(m for m in seen if m.get("event") == "routed")
        solo = run_job(
            JobSpec(
                job_id="solo",
                dimacs=DIMACS,
                seed=9,
                topology=routed["attrs"]["topology"],
                grid=routed["attrs"]["grid"],
            )
        )
        assert outcome["state"] == "done"
        assert "cached" not in outcome and "learned" not in outcome
        for field in ("status", "iterations", "conflicts", "qa_calls"):
            assert outcome.get(field) == getattr(solo, field), field
        assert outcome.get("model") == solo.model


class StubConnection:
    """Duck-typed _Connection capturing sends, no socket underneath."""

    def __init__(self, tenant=None):
        self.tenant = tenant
        self.job_ids = set()
        self.sent = []
        self.closed = False

    async def send(self, message):
        self.sent.append(message)


class TestAdmissionMapping:
    """AdmissionError -> wire code mapping, raced against nothing:
    the dispatcher is never started, so queue state is exactly what
    the submits left behind."""

    def make_server(self, **kwargs) -> GatewayServer:
        kwargs.setdefault("fleet", "chimera:8")
        return GatewayServer(GatewayConfig(port=0, **kwargs))

    def submit(self, server, conn, job_id, **extra):
        payload = protocol.submit({"id": job_id, "dimacs": DIMACS, **extra})
        asyncio.run(server._handle_submit(conn, payload))
        return conn.sent[-1]

    def test_full_queue_maps_to_backpressure(self):
        server = self.make_server(max_depth=1, retry_after_s=2.5)
        conn = StubConnection()
        assert self.submit(server, conn, "a")["type"] == "ack"
        reply = self.submit(server, conn, "b")
        assert reply["type"] == "reject"
        assert reply["code"] == "backpressure"
        assert reply["retry_after_s"] == 2.5
        assert server.stats.backpressure_rejects == 1

    def test_adaptive_retry_after_scales_with_depth(self):
        server = self.make_server(max_depth=2, workers=2)
        conn = StubConnection()
        self.submit(server, conn, "a")
        self.submit(server, conn, "b")
        reply = self.submit(server, conn, "c")
        assert reply["code"] == "backpressure"
        # (depth 2 + 1) * 1.0s initial EWMA / 2 workers
        assert reply["retry_after_s"] == pytest.approx(1.5)

    def test_duplicate_id_maps_to_duplicate(self):
        server = self.make_server()
        conn = StubConnection()
        self.submit(server, conn, "same")
        reply = self.submit(server, conn, "same")
        assert reply["type"] == "reject"
        assert reply["code"] == "duplicate_id"

    def test_draining_rejects_new_work(self):
        server = self.make_server()
        server._draining = True
        reply = self.submit(server, StubConnection(), "late")
        assert reply["code"] == "shutting_down"

    def test_quota_exhaustion_rejects(self):
        server = self.make_server(tenant_budget_us=10.0)
        conn = StubConnection(tenant="team-a")
        server.ledger.charge("team-a", 10.0)
        reply = self.submit(server, conn, "over")
        assert reply["code"] == "quota_exhausted"
        assert server.stats.quota_denied == 1

    def test_malformed_job_rejects_without_crashing(self):
        server = self.make_server()
        conn = StubConnection()
        asyncio.run(server._handle_submit(conn, {"type": "submit", "job": "nope"}))
        assert conn.sent[-1]["code"] == "bad_message"
        asyncio.run(
            server._handle_submit(conn, protocol.submit({"id": "x"}))
        )  # neither file nor dimacs
        assert conn.sent[-1]["type"] == "reject"

    def test_cancel_queued_job_streams_cancelled_result(self):
        server = self.make_server()
        conn = StubConnection()
        self.submit(server, conn, "doomed")
        asyncio.run(server._handle_cancel(conn, protocol.cancel("doomed")))
        result = conn.sent[-1]
        assert result["type"] == "result"
        assert result["outcome"]["state"] == "cancelled"
        assert server.stats.jobs == {"cancelled": 1}
