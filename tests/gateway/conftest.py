"""Shared fixtures for the gateway tests."""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.gateway.server import GatewayConfig, GatewayServer


@pytest.fixture
def gateway_factory():
    """Start real gateways on ephemeral ports; drain them at teardown."""
    created = []

    def factory(observability=None, **kwargs) -> GatewayServer:
        kwargs.setdefault("port", 0)
        kwargs.setdefault("fleet", "chimera:4,chimera:8")
        kwargs.setdefault("drain_grace_s", 30.0)
        config = GatewayConfig(**kwargs)
        loop = asyncio.new_event_loop()
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()

        async def make() -> GatewayServer:
            server = GatewayServer(config, observability=observability)
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


class Hold:
    """Holds the solves of chosen job ids in their worker until
    :meth:`release` (one ``threading.Event`` gate for all of them)."""

    def __init__(self):
        self.ids = set()
        #: Set once a held solve has reached its worker.
        self.started = threading.Event()
        self._gate = threading.Event()

    def release(self) -> None:
        self._gate.set()


@pytest.fixture
def hold(gateway_factory, monkeypatch):
    """A :class:`Hold` over ``run_job``'s solver construction.  It
    depends on ``gateway_factory`` so it is released before the
    gateways drain at teardown."""
    import repro.service.jobs as jobs

    held = Hold()
    build_solver = jobs.build_solver

    def holding(spec, *args, **kwargs):
        if spec.job_id in held.ids:
            held.started.set()
            held._gate.wait(60)
        return build_solver(spec, *args, **kwargs)

    monkeypatch.setattr(jobs, "build_solver", holding)
    yield held
    held.release()
