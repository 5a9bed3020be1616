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
