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
import gc
import json
import socket
import sqlite3
import sys
import threading
import time
import warnings
from collections import Counter

import numpy as np
import pytest

from repro.benchgen.random_ksat import random_3sat
from repro.cache import PersistentResultStore
from repro.cdcl.native import native_available
from repro.gateway import protocol
from repro.gateway.client import GatewayClient, GatewayError, GatewayReject
from repro.gateway.server import GatewayConfig, GatewayServer
from repro.observability import EVENT_PARENTS, SPAN_CHILDREN, Observability
from repro.service.jobs import JobSpec, run_job
from repro.sat.dimacs import to_dimacs

DIMACS = to_dimacs(random_3sat(8, 24, np.random.default_rng(2)))


def checked_spans(records) -> dict:
    """Span records by id, after asserting that every span and event
    hangs off a parent ``SPAN_CHILDREN``/``EVENT_PARENTS`` allow."""
    spans = {r["id"]: r for r in records if r["type"] == "span"}
    names = lambda span_id: spans[span_id]["name"] if span_id else None
    for span in spans.values():
        assert span["name"] in SPAN_CHILDREN[names(span["parent"])], span
    for event in (r for r in records if r["type"] == "event"):
        assert names(event["span"]) in EVENT_PARENTS[event["name"]], event
    return spans


def wait_for_connections(server, count: int, timeout_s: float = 30.0) -> None:
    """Wait until ``server`` has ``count`` open connections.  A closed
    connection's ``gateway.session`` span is recorded by then: a client
    can read ``goodbye`` before the server has ended the span."""
    deadline = time.monotonic() + timeout_s
    while server.stats.active_connections != count:
        assert time.monotonic() < deadline, server.stats.active_connections
        time.sleep(0.01)


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

    def test_a_failed_handshake_closes_the_client_socket(self, gateway_factory):
        """Every handshake failure (refused key, another protocol
        version, a first reply that is not ``welcome``) closes the
        client's socket before raising: no ResourceWarning once the
        half-built client is collected."""
        server = gateway_factory(api_keys=("team-a",))
        replies = [
            protocol.error("unsupported_protocol", "server speaks hyqsat-gateway/9"),
            protocol.pong(1),
        ]

        def answer_once(listener, reply) -> None:
            conn, _ = listener.accept()
            with conn, conn.makefile("rwb") as stream:
                stream.readline()
                stream.write(protocol.encode(reply))
                stream.flush()

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            for key in ("wrong", None):
                with pytest.raises(GatewayError, match="unauthorized"):
                    GatewayClient(port=server.port, api_key=key)
            for reply, code in zip(replies, ("unsupported_protocol", "bad_message")):
                with socket.create_server(("127.0.0.1", 0)) as listener:
                    fake = threading.Thread(target=answer_once, args=(listener, reply))
                    fake.start()
                    with pytest.raises(GatewayError, match=code):
                        GatewayClient(port=listener.getsockname()[1])
                    fake.join(10)
            gc.collect()
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert leaks == [], [str(w.message) for w in leaks]


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
        # 8 variables fit chimera4's 16 vertical lines.
        assert routed["attrs"] == {
            "device": "chimera4", "topology": "chimera", "grid": 4, "fits": True,
        }
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
        assert server.service.cache.stats.hits == 1

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
        assert server.service.cache.stats.errors == 2  # one lookup, one record


class TestReadOnce:
    """The coordinator's read of a job's instance is the only one:
    routing, the cache key, the cache and the solve share its formula
    and fingerprint."""

    def test_one_parse_and_one_fingerprint_per_job(
        self, gateway_factory, tmp_path, read_counts
    ):
        server = gateway_factory(cache_db=str(tmp_path / "gw.sqlite"))
        with GatewayClient(port=server.port) as client:
            for job_id, kind in (("miss", None), ("hit", "exact")):
                read_counts.clear()
                client.submit({"id": job_id, "dimacs": DIMACS, "seed": 5})
                outcome = client.drain([job_id])[job_id]
                assert outcome.get("cache_kind") == kind
                assert read_counts == {"parse": 1, "fingerprint": 1}, job_id

    def test_exact_hit_builds_no_clause_objects(
        self, gateway_factory, tmp_path, clause_tuple_builds
    ):
        """Parse, fingerprint, routing, the hybrid solve of a miss and
        an exact cache hit all read the formula's clause table (only
        the reference engine, the fallback without a C compiler, reads
        Clause objects)."""
        solve_builds = 0 if native_available() else 1
        server = gateway_factory(cache_db=str(tmp_path / "gw.sqlite"))
        with GatewayClient(port=server.port) as client:
            for job_id, kind, builds in (
                ("miss", None, solve_builds), ("hit", "exact", 0),
            ):
                clause_tuple_builds.clear()
                client.submit({"id": job_id, "dimacs": DIMACS, "seed": 5})
                outcome = client.drain([job_id])[job_id]
                assert outcome.get("cache_kind") == kind
                assert len(clause_tuple_builds) == builds, job_id

    @pytest.mark.parametrize(
        "placement",
        [{}, {"topology": "chimera", "grid": 8}, {"classic": True}],
        ids=["routed", "pinned", "classic"],
    )
    def test_unreadable_instance_fails_before_started(
        self, gateway_factory, placement
    ):
        server = gateway_factory()
        with GatewayClient(port=server.port) as client:
            client.submit(
                {"id": "bad", "dimacs": "p cnf 2 1\n1 x 0\n", **placement}
            )
            seen = []
            bad = client.drain(["bad"], on_message=seen.append)["bad"]
            client.submit({"id": "next", "dimacs": DIMACS, **placement})
            after = client.drain(["next"])["next"]
        assert [m["event"] for m in seen if m["type"] == "event"] == ["done"]
        assert bad["state"] == "failed"
        assert bad["error"].startswith("DimacsError")
        assert after["state"] == "done"
        assert server.stats.jobs == {"failed": 1, "done": 1}


class TestFleetMetrics:
    def test_routed_and_fallback_counters_match_the_stream(
        self, gateway_factory
    ):
        """The gateway's own ``hyqsat_fleet_*`` counters are the one
        record of routing: one ``routed`` count per placement, one
        fallback per formula with more variables than any device has
        vertical lines."""
        obs = Observability.profiling()
        server = gateway_factory(
            observability=obs, fleet="chimera:4,pegasus:4,chimera:8"
        )
        # 16, 16 and 32 vertical lines: pegasus4, chimera8, none fits.
        sizes = ((6, 12), (20, 86), (40, 170))
        jobs = {
            f"f{index}": to_dimacs(
                random_3sat(num_vars, clauses, np.random.default_rng(1))
            )
            for index, (num_vars, clauses) in enumerate(sizes)
        }
        seen = []
        with GatewayClient(port=server.port) as client:
            for job_id, dimacs in jobs.items():
                client.submit({"id": job_id, "dimacs": dimacs, "seed": 1})
            client.drain(list(jobs), on_message=seen.append)
        routed = [m["attrs"] for m in seen if m.get("event") == "routed"]
        assert len(routed) == len(jobs)
        placed = Counter(attrs["device"] for attrs in routed)
        fallbacks = sum(not attrs["fits"] for attrs in routed)
        assert len(placed) == 2 and fallbacks == 1
        counter = obs.metrics.counter("hyqsat_fleet_routed_total")
        assert {
            dict(key)["device"]: child.value
            for key, child in counter.children.items()
        } == placed
        assert (
            obs.metrics.counter("hyqsat_fleet_routing_fallbacks_total").value
            == fallbacks
        )


class StubConnection:
    """Duck-typed _Connection capturing sends, no socket underneath."""

    def __init__(self, tenant=None):
        self.tenant = tenant
        self.job_ids = set()
        self.sent = []
        self.closed = False

    def send(self, message):
        self.sent.append(message)


class TestAdmissionMapping:
    """AdmissionError -> wire code mapping, raced against nothing:
    the server is never started, so no loop pops the service's queue
    and its state is exactly what the submits left behind."""

    def make_server(self, **kwargs) -> GatewayServer:
        kwargs.setdefault("fleet", "chimera:8")
        return GatewayServer(GatewayConfig(port=0, **kwargs))

    def submit(self, server, conn, job_id, **extra):
        payload = protocol.submit({"id": job_id, "dimacs": DIMACS, **extra})
        server._handle_submit(conn, payload)
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
        server._handle_submit(conn, {"type": "submit", "job": "nope"})
        assert conn.sent[-1]["code"] == "bad_message"
        server._handle_submit(
            conn, protocol.submit({"id": "x"})
        )  # neither file nor dimacs
        assert conn.sent[-1]["type"] == "reject"

    def test_cancel_queued_job_streams_cancelled_result(self):
        server = self.make_server()
        conn = StubConnection()
        self.submit(server, conn, "doomed")
        server._handle_cancel(conn, protocol.cancel("doomed"))
        result = conn.sent[-1]
        assert result["type"] == "result"
        assert result["outcome"]["state"] == "cancelled"
        assert server.stats.jobs == {"cancelled": 1}


def per_job_state(server) -> dict:
    """Everything the service keeps per job, read on the gateway's loop
    (so after the callback that streamed the last result has run)."""

    async def read() -> dict:
        service = server.service
        return {
            "live": set(service._live),
            "queued": len(service.queue),
            "inflight": dict(service._inflight),
            "claims": dict(service._claims),
            "followers": dict(service._followers),
            "primaries": dict(service._primaries),
            "worker_retries": dict(service._worker_retries),
            "fair_share": {
                lattice: dict(scheduler.stats.spent_by_job)
                for lattice, scheduler in service.schedulers.items()
            },
        }

    return asyncio.run_coroutine_threadsafe(read(), server._loop).result(10)


class TestWireDedup:
    def test_identical_submissions_in_flight_solve_once(
        self, gateway_factory, hold, monkeypatch
    ):
        """N connections send the same spec while its first copy is
        solving: one ``run_job`` runs, the rest follow it as
        ``deduped``, only the primary is billed, and the idle service
        keeps nothing per job."""
        import repro.service.service as service_module

        runs = []

        def counting(spec, *args):
            runs.append(spec.job_id)
            return run_job(spec, *args)

        monkeypatch.setattr(service_module, "run_job", counting)
        obs = Observability.profiling()
        server = gateway_factory(observability=obs)
        ids = [f"n{i}" for i in range(4)]
        hold.ids.update(ids)
        clients = [GatewayClient(port=server.port) for _ in ids]
        seen = {job_id: [] for job_id in ids}
        try:
            for client, job_id in zip(clients, ids):
                client.submit({"id": job_id, "dimacs": DIMACS, "seed": 5})
                assert hold.started.wait(30)
            hold.release()
            results = {}
            for client, job_id in zip(clients, ids):
                results.update(
                    client.drain([job_id], on_message=seen[job_id].append)
                )
        finally:
            for client in clients:
                client.close()
        assert runs == ["n0"]
        primary = results["n0"]
        assert primary["state"] == "done" and "dedup_of" not in primary
        for job_id in ids[1:]:
            twin = results[job_id]
            assert twin["state"] == "deduped"
            assert twin["dedup_of"] == "n0"
            for field in (
                "status", "model", "iterations", "conflicts",
                "qa_calls", "qpu_time_us",
            ):
                assert twin.get(field) == primary.get(field), field
            kinds = [
                (m["event"], m.get("attrs", {}).get("state"))
                for m in seen[job_id] if m["type"] == "event"
            ]
            assert kinds == [
                ("routed", None), ("started", None), ("done", "deduped"),
            ]
        assert server.ledger.spent_us(None) == pytest.approx(
            primary["qpu_time_us"]
        )
        assert server.stats.jobs == {"done": 1, "deduped": 3}
        jobs_total = obs.metrics.counter("hyqsat_gateway_jobs_total")
        assert jobs_total.labels(state="deduped").value == 3
        assert server.service.schedulers  # the primary's lattice arbiter
        state = per_job_state(server)
        assert not any(state.pop("fair_share").values())
        assert not any(state.values()), state

    def test_a_repeat_after_the_answer_is_a_cache_hit(
        self, gateway_factory, tmp_path
    ):
        """The service is idle between the two submissions, so the done
        primary is gone and the cache answers the repeat."""
        server = gateway_factory(cache_db=str(tmp_path / "gw.sqlite"))
        with GatewayClient(port=server.port) as client:
            client.submit({"id": "first", "dimacs": DIMACS, "seed": 5})
            client.drain(["first"])
            client.submit({"id": "again", "dimacs": DIMACS, "seed": 5})
            again = client.drain(["again"])["again"]
        assert again["state"] == "done" and again["cached"] is True
        assert "dedup_of" not in again


class TestLiveIds:
    def test_a_running_id_is_refused(self, gateway_factory, hold):
        server = gateway_factory(workers=1)
        hold.ids.add("x")
        with GatewayClient(port=server.port) as first, GatewayClient(
            port=server.port
        ) as second:
            first.submit({"id": "x", "dimacs": DIMACS, "seed": 5})
            assert hold.started.wait(30)
            with pytest.raises(GatewayReject) as exc:
                second.submit({"id": "x", "dimacs": DIMACS, "seed": 6})
            assert exc.value.code == "duplicate_id"
            hold.release()
            assert first.drain(["x"])["x"]["seed"] == 5
        assert server.stats.jobs == {"done": 1}


class TestWaitingJob:
    """A job queued behind a busy worker stays in the queue: counted,
    cancellable and expirable."""

    def test_it_is_counted_and_cancellable(self, gateway_factory, hold):
        server = gateway_factory(workers=1)
        hold.ids.add("busy")
        with GatewayClient(port=server.port) as client:
            client.submit({"id": "busy", "dimacs": DIMACS, "seed": 5})
            assert hold.started.wait(30)
            client.submit({"id": "waiting", "dimacs": DIMACS, "seed": 6})
            client.ping()  # the loop has run the pump the submit queued
            cancelled = client.cancel("waiting")
            assert cancelled["outcome"]["state"] == "cancelled"
            client.submit({"id": "counted", "dimacs": DIMACS, "seed": 7})
            client.ping()
            assert len(server.service.queue) == 1
            hold.release()
            results = client.drain(["busy", "counted"])
        assert {r["state"] for r in results.values()} == {"done"}
        assert server.stats.jobs == {"done": 2, "cancelled": 1}

    def test_it_expires_once_its_deadline_passes(self, gateway_factory, hold):
        server = gateway_factory(workers=1)
        hold.ids.add("busy")
        with GatewayClient(port=server.port) as client:
            client.submit({"id": "busy", "dimacs": DIMACS, "seed": 5})
            assert hold.started.wait(30)
            client.submit(
                {"id": "late", "dimacs": DIMACS, "seed": 6, "deadline_s": 0.2}
            )
            time.sleep(0.4)
            hold.release()
            results = client.drain(["busy", "late"])
        assert results["busy"]["state"] == "done"
        assert results["late"]["state"] == "expired"
        assert server.stats.jobs == {"done": 1, "expired": 1}


class TestCancelOwnership:
    def test_only_the_submitting_connection_may_cancel(
        self, gateway_factory, hold
    ):
        server = gateway_factory(workers=1, api_keys=("team-a", "team-b"))
        hold.ids.add("busy")
        with GatewayClient(port=server.port, api_key="team-a") as owner, (
            GatewayClient(port=server.port, api_key="team-b", timeout_s=10)
        ) as other:
            owner.submit({"id": "busy", "dimacs": DIMACS, "seed": 5})
            assert hold.started.wait(30)
            for job_id, seed in (("w1", 6), ("w2", 7)):
                owner.submit({"id": job_id, "dimacs": DIMACS, "seed": seed})
            with pytest.raises(GatewayReject) as exc:
                other.cancel("w2")
            assert exc.value.code == "unknown_job"
            assert owner.cancel("w2")["outcome"]["state"] == "cancelled"
            hold.release()
            results = owner.drain(["busy", "w1"])
        assert {r["state"] for r in results.values()} == {"done"}
        assert server.stats.jobs == {"done": 2, "cancelled": 1}


class TestServiceTelemetry:
    def test_gateway_trace_follows_the_schema(self, gateway_factory, hold):
        """The service's records in a gateway trace hang off the
        connection's ``gateway.session`` span (docs/TELEMETRY.md)."""
        obs = Observability.tracing(metrics=True)
        server = gateway_factory(observability=obs)
        hold.ids.update({"a", "b"})
        with GatewayClient(port=server.port) as client:
            client.submit({"id": "a", "dimacs": DIMACS, "seed": 5})
            assert hold.started.wait(30)
            client.submit({"id": "b", "dimacs": DIMACS, "seed": 5})
            hold.release()
            client.drain(["a", "b"])
        wait_for_connections(server, 0)
        records = obs.tracer.records
        spans = checked_spans(records)
        names = lambda span_id: spans[span_id]["name"] if span_id else None
        jobs = [s for s in spans.values() if s["name"] == "service.job"]
        assert sorted(s["attrs"]["state"] for s in jobs) == ["deduped", "done"]
        assert {names(s["parent"]) for s in jobs} == {"gateway.session"}
        assert [r["attrs"]["primary"] for r in records
                if r["type"] == "event" and r["name"] == "service.dedup"] == ["a"]

    def test_overlapping_sessions_are_separate_roots(self, gateway_factory):
        """A connects, B connects, A closes, then B solves a job and
        closes: each ``gateway.session`` is a root span that ends at its
        own close with its own attributes, and B's job hangs off B."""
        obs = Observability.tracing(metrics=True)
        server = gateway_factory(observability=obs)
        first = GatewayClient(port=server.port, api_key="tenant-a")
        second = GatewayClient(port=server.port, api_key="tenant-b")
        first.close()
        wait_for_connections(server, 1)
        second.submit({"id": "b1", "dimacs": DIMACS, "seed": 5})
        assert second.drain(["b1"])["b1"]["state"] == "done"
        second.close()
        wait_for_connections(server, 0)

        spans = checked_spans(obs.tracer.records)
        sessions = {
            s["attrs"]["tenant"]: s
            for s in spans.values() if s["name"] == "gateway.session"
        }
        assert set(sessions) == {"tenant-a", "tenant-b"}
        assert all(s["parent"] is None for s in sessions.values())
        # hello aside, A sent only ``bye``; B sent ``submit`` and ``bye``.
        assert sessions["tenant-a"]["attrs"]["messages"] == 1
        assert sessions["tenant-b"]["attrs"]["messages"] == 2
        ends = {
            tenant: s["t_wall_s"] + s["wall_dur_s"]
            for tenant, s in sessions.items()
        }
        (job,) = [s for s in spans.values() if s["name"] == "service.job"]
        assert job["parent"] == sessions["tenant-b"]["id"]
        assert ends["tenant-a"] < job["t_wall_s"] <= ends["tenant-b"]


class TestConnectCli:
    def test_a_deduped_answer_counts_as_answered(
        self, gateway_factory, hold, tmp_path
    ):
        from repro.cli import main

        server = gateway_factory()
        cnf = tmp_path / "twin.cnf"
        cnf.write_text(DIMACS)
        out = tmp_path / "twin.jsonl"
        hold.ids.add("primary")
        codes = []
        with GatewayClient(port=server.port) as client:
            client.submit({"id": "primary", "dimacs": DIMACS, "seed": 5})
            assert hold.started.wait(30)
            connect = threading.Thread(
                target=lambda: codes.append(
                    main([
                        "connect", str(cnf), "--port", str(server.port),
                        "--seed", "5", "-o", str(out),
                    ])
                )
            )
            connect.start()
            deadline = time.monotonic() + 30
            while not server.service._followers and time.monotonic() < deadline:
                time.sleep(0.01)
            hold.release()
            connect.join(60)
            client.drain(["primary"])
        (line,) = [json.loads(text) for text in out.read_text().splitlines()]
        assert line["state"] == "deduped" and line["dedup_of"] == "primary"
        assert codes == [0]


class TestConcurrency:
    def test_many_connections_and_workers_under_thread_switching(
        self, gateway_factory
    ):
        """Eight connections and four workers (more than the host's
        cores) under a short switch interval: every job is answered
        exactly once, copies of one spec answer alike, every answer
        equals its solo replay, and the idle service keeps nothing."""
        server = gateway_factory(workers=4)
        texts = [
            to_dimacs(random_3sat(8, 24, np.random.default_rng(seed)))
            for seed in range(3)
        ]
        results, placements, errors = {}, {}, []

        def client_run(client_index: int) -> None:
            jobs = [
                {"id": f"c{client_index}-{k}", "dimacs": texts[k], "seed": k}
                for k in range(3)
            ]
            try:
                with GatewayClient(port=server.port) as client:
                    for job in jobs:
                        client.submit(job)

                    def watch(message):
                        if message.get("event") == "routed":
                            placements[message["id"]] = message["attrs"]

                    results.update(
                        client.drain([j["id"] for j in jobs], on_message=watch)
                    )
            except Exception as error:  # reported by the assert below
                errors.append(error)

        threads = [
            threading.Thread(target=client_run, args=(index,))
            for index in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(results) == 24
        assert sum(server.stats.jobs.values()) == 24
        for k in range(3):
            copies = [results[f"c{c}-{k}"] for c in range(8)]
            assert {o["state"] for o in copies} <= {"done", "deduped"}
            placed = placements[f"c0-{k}"]
            solo = run_job(
                JobSpec(
                    job_id="solo", dimacs=texts[k], seed=k,
                    topology=placed["topology"], grid=placed["grid"],
                )
            )
            for outcome in copies:
                for field in ("status", "iterations", "conflicts", "qa_calls"):
                    assert outcome.get(field) == getattr(solo, field), field
                assert outcome.get("model") == solo.model
        state = per_job_state(server)
        assert not any(state.pop("fair_share").values())
        assert not any(state.values()), state


class TestBilling:
    def test_a_disconnected_tenant_is_billed_for_its_job(
        self, gateway_factory, hold
    ):
        """A job outlives the connection that submitted it; its modelled
        QPU time still goes to that tenant, not to the anonymous one."""
        server = gateway_factory(api_keys=("team-a",))
        hold.ids.add("gone")
        with GatewayClient(port=server.port, api_key="team-a") as client:
            client.submit({"id": "gone", "dimacs": DIMACS, "seed": 5})
            assert hold.started.wait(30)
        hold.release()
        deadline = time.monotonic() + 60
        while not server.stats.jobs and time.monotonic() < deadline:
            time.sleep(0.01)
        assert server.stats.jobs == {"done": 1}
        assert server.ledger.spent_us("team-a") > 0
        assert server.ledger.spent_us(None) == 0
