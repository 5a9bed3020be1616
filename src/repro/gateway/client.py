"""Blocking gateway client (``hyqsat connect`` and the tests).

A deliberately small synchronous client: one socket, one JSONL
stream, no background threads.  Submissions and cancels are fire-and-
check (``submit`` returns on the matching ``ack``/``reject``), and
:meth:`GatewayClient.drain` collects streamed events and results
until every submitted job reaches a terminal state.  Anything the
server rejects fatally (protocol ``error``) raises
:class:`GatewayError` with the wire error code.
"""

from __future__ import annotations

import socket
from typing import Any, Callable, Dict, List, Optional

from repro.gateway import protocol


class GatewayError(Exception):
    """A fatal protocol ``error`` or an unexpected disconnect."""

    def __init__(self, code: str, reason: str):
        super().__init__(f"{code}: {reason}")
        self.code = code
        self.reason = reason


class GatewayReject(Exception):
    """A job-level ``reject`` (connection still healthy).

    Carries the wire code and, when the server offered one, the
    ``retry_after_s`` hint.
    """

    def __init__(self, message: Dict[str, Any]):
        code = message.get("code", "bad_message")
        reason = message.get("reason", "")
        super().__init__(f"{code}: {reason}")
        self.code = code
        self.reason = reason
        self.job_id = message.get("id")
        self.retry_after_s = message.get("retry_after_s")


class GatewayClient:
    """One authenticated gateway connection.

    Usable as a context manager; :meth:`close` says ``bye`` and waits
    for ``goodbye`` so tests can assert clean shutdown.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7465,
        api_key: Optional[str] = None,
        timeout_s: float = 60.0,
    ):
        self._sock = socket.create_connection((host, port), timeout=timeout_s)
        self._file = self._sock.makefile("rwb")
        self.welcome: Dict[str, Any] = {}
        self._closed = False
        #: Out-of-band event/result messages that arrived while a
        #: command was waiting for its reply; replayed by drain().
        self._buffer: List[Dict[str, Any]] = []
        try:
            self._send(protocol.hello(api_key))
            first = self._read()
            if first.get("type") == "error":
                raise GatewayError(
                    first.get("code", "bad_message"), first.get("reason", "")
                )
            if first.get("type") != "welcome":
                raise GatewayError("bad_message", f"expected welcome, got {first}")
        except BaseException:
            self._disconnect()
            raise
        self.welcome = first

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Wire primitives
    # ------------------------------------------------------------------

    def _send(self, message: Dict[str, Any]) -> None:
        self._file.write(protocol.encode(message))
        self._file.flush()

    def _read(self) -> Dict[str, Any]:
        line = self._file.readline()
        if not line:
            raise GatewayError("bad_message", "server closed the connection")
        return protocol.parse_line(line, from_client=False)

    def next_message(self) -> Dict[str, Any]:
        """The next server message (event/result/...); raises
        :class:`GatewayError` on a protocol ``error``."""
        message = self._read()
        if message.get("type") == "error":
            raise GatewayError(
                message.get("code", "bad_message"), message.get("reason", "")
            )
        return message

    # ------------------------------------------------------------------
    # Commands
    # ------------------------------------------------------------------

    def submit(self, job: Dict[str, Any]) -> Dict[str, Any]:
        """Submit one job dict (job-JSONL schema; ``id`` required).

        Returns the ``ack``; raises :class:`GatewayReject` on a
        job-level denial (rate limit, quota, backpressure, duplicate).
        Any event/result messages arriving before the ack are buffered
        and replayed by :meth:`drain`.
        """
        self._send(protocol.submit(job))
        while True:
            message = self.next_message()
            if message["type"] == "ack":
                return message
            if message["type"] == "reject":
                raise GatewayReject(message)
            self._buffer.append(message)

    def cancel(self, job_id: str) -> Dict[str, Any]:
        """Cancel a queued job; returns its ``result`` (state
        ``cancelled``) or raises :class:`GatewayReject`
        (``unknown_job``)."""
        self._send(protocol.cancel(job_id))
        while True:
            message = self.next_message()
            if message["type"] == "result" and message.get("id") == job_id:
                return message
            if message["type"] == "reject":
                raise GatewayReject(message)
            self._buffer.append(message)

    def ping(self, nonce: int = 7) -> Dict[str, Any]:
        self._send(protocol.ping(nonce))
        while True:
            message = self.next_message()
            if message["type"] == "pong":
                return message
            self._buffer.append(message)

    def drain(
        self,
        job_ids: List[str],
        on_message: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> Dict[str, Dict[str, Any]]:
        """Stream until every job in ``job_ids`` has a ``result``.

        Returns ``{job_id: outcome dict}``; ``on_message`` sees every
        event/result as it arrives (the CLI's progress printer).
        """
        waiting = set(job_ids)
        results: Dict[str, Dict[str, Any]] = {}

        def take(message: Dict[str, Any]) -> None:
            if on_message is not None:
                on_message(message)
            if message["type"] == "result" and message.get("id") in waiting:
                waiting.discard(message["id"])
                results[message["id"]] = message.get("outcome", {})

        for message in self._buffer:
            take(message)
        self._buffer = []
        while waiting:
            take(self.next_message())
        return results

    def close(self) -> Optional[Dict[str, Any]]:
        """Say ``bye``, wait for ``goodbye``, close the socket."""
        if self._closed:
            return None
        self._closed = True
        goodbye = None
        try:
            self._send(protocol.bye())
            while True:
                message = self._read()
                if message.get("type") == "goodbye":
                    goodbye = message
                    break
        except (GatewayError, protocol.ProtocolError, OSError):
            pass
        finally:
            self._disconnect()
        return goodbye

    def _disconnect(self) -> None:
        """Close the stream, then the socket (even if the stream's
        final flush fails)."""
        try:
            self._file.close()
        except OSError:
            pass
        self._sock.close()
