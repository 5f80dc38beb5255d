"""Client library for the simulation job server.

:class:`ServeClient` is a plain-socket synchronous client — no asyncio
on the client side, so it drops into tests, sweep worker processes
(the ``repro.verify --server`` path), and thread-based load
generators without an event loop.  One connection pipelines any
number of submits: requests carry client-chosen ``id`` values and
responses are matched back by id, so results arriving out of
submission order (cache hits answer instantly, misses later) are
reassembled transparently.
"""

from __future__ import annotations

import os
import socket
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    decode_message,
    encode_message,
    outcome_pairs,
)


class ServeClientError(RuntimeError):
    """The server reported an error, or the connection broke."""


@dataclass
class ServeResult:
    """One completed submission."""

    job: Dict[str, object]
    request_sha256: str
    cached: bool
    coalesced: bool
    result: Optional[Dict[str, object]]
    wall_seconds: float
    error: Optional[Dict[str, object]] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def outcome(self) -> Tuple[Tuple[str, int], ...]:
        """The litmus outcome in the harness's canonical tuple shape."""
        if self.result is None:
            raise ServeClientError(f"job failed: {self.error}")
        return outcome_pairs(self.result)

    @property
    def cycles(self) -> int:
        if self.result is None:
            raise ServeClientError(f"job failed: {self.error}")
        return int(self.result["cycles"])  # type: ignore[arg-type]


class ServeClient:
    """Synchronous NDJSON client over one TCP connection."""

    def __init__(self, host: str, port: int,
                 timeout: Optional[float] = 600.0) -> None:
        self.host = host
        self.port = port
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._fh = self._sock.makefile("rwb")
        self._next_id = 0

    # -- plumbing -------------------------------------------------------

    def close(self) -> None:
        try:
            self._fh.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()

    def _send(self, message: Mapping[str, object]) -> None:
        self._fh.write(encode_message(message))
        self._fh.flush()

    def _recv(self) -> Dict[str, object]:
        line = self._fh.readline(MAX_FRAME_BYTES + 2)
        if not line:
            raise ServeClientError("server closed the connection")
        return decode_message(line)

    def _take_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _request(self, op: str) -> Dict[str, object]:
        """One-shot op: send it, return the reply that carries its id."""
        msg_id = self._take_id()
        self._send({"op": op, "id": msg_id})
        while True:
            message = self._recv()
            if message.get("id") == msg_id:
                if not message.get("ok"):
                    raise ServeClientError(str(message.get("error")))
                return message

    # -- ops ------------------------------------------------------------

    def ping(self) -> str:
        return str(self._request("ping").get("protocol"))

    def stats(self) -> Dict[str, object]:
        return self._request("stats")["stats"]  # type: ignore[return-value]

    def metrics(self) -> str:
        """The server's Prometheus text exposition."""
        return str(self._request("metrics")["prometheus"])

    def shutdown(self) -> None:
        msg_id = self._take_id()
        self._send({"op": "shutdown", "id": msg_id})
        try:
            while True:
                message = self._recv()
                if message.get("event") == "shutdown":
                    return
        except (ServeClientError, ProtocolError, OSError):
            return  # server closing the socket counts as acknowledged

    # -- submission -----------------------------------------------------

    def submit(self, job: Mapping[str, object]) -> ServeResult:
        return self.submit_many([job])[0]

    def submit_many(self, jobs: Sequence[Mapping[str, object]],
                    ) -> List[ServeResult]:
        """Pipeline every job, then collect results in submission order.

        All submits go out before any result is read, so the server has
        every miss in hand at once and a pool runs them side by side.
        Jobs are sent as-is — the server canonicalizes and validates,
        and a rejected job comes back as a :class:`ServeResult` with
        ``ok == False`` rather than raising, so one bad job never sinks
        the rest.
        """
        specs = [dict(job) for job in jobs]
        pending: Dict[object, int] = {}
        for i, spec in enumerate(specs):
            msg_id = self._take_id()
            pending[msg_id] = i
            self._send({"op": "submit", "id": msg_id, "job": spec})
        results: List[Optional[ServeResult]] = [None] * len(specs)
        outstanding = len(specs)
        while outstanding:
            message = self._recv()
            event = message.get("event")
            if event == "accepted":
                continue
            if event == "result":
                slot = pending.get(message.get("id"))
                if slot is None:
                    raise ServeClientError(
                        f"result for unknown id {message.get('id')!r}")
                results[slot] = ServeResult(
                    job=specs[slot],
                    request_sha256=str(message.get("request_sha256")),
                    cached=bool(message.get("cached")),
                    coalesced=bool(message.get("coalesced")),
                    result=message.get("result"),  # type: ignore[arg-type]
                    wall_seconds=float(message.get("wall_seconds", 0.0)),  # type: ignore[arg-type]
                    error=message.get("error"),  # type: ignore[arg-type]
                )
                outstanding -= 1
                continue
            if not message.get("ok", True):
                # a submit-level rejection (bad job): attribute it
                slot = pending.get(message.get("id"))
                if slot is not None:
                    results[slot] = ServeResult(
                        job=specs[slot], request_sha256="", cached=False,
                        coalesced=False, result=None, wall_seconds=0.0,
                        error={"type": "ProtocolError",
                               "message": str(message.get("error"))})
                    outstanding -= 1
                    continue
                raise ServeClientError(str(message.get("error")))
        return results  # type: ignore[return-value]


def connect_with_retry(host: str, port: int, deadline_seconds: float = 30.0,
                       interval: float = 0.1) -> ServeClient:
    """Connect, retrying until the server comes up (CI startup races)."""
    deadline = time.monotonic() + deadline_seconds
    last: Optional[Exception] = None
    while time.monotonic() < deadline:
        try:
            client = ServeClient(host, port)
            client.ping()
            return client
        except (OSError, ServeClientError, ProtocolError) as exc:
            last = exc
            time.sleep(interval)
    raise ServeClientError(
        f"could not reach {host}:{port} within {deadline_seconds}s: {last}")


def parse_endpoint(endpoint: str) -> Tuple[str, int]:
    """``"host:port"`` (or just ``"port"``) -> ``(host, port)``."""
    host, sep, port_text = endpoint.rpartition(":")
    if not sep:
        host, port_text = "127.0.0.1", endpoint
    try:
        port = int(port_text)
    except ValueError:
        raise ServeClientError(
            f"bad server endpoint {endpoint!r}; expected host:port") from None
    return host or "127.0.0.1", port


_SHARED: Dict[Tuple[int, str, int], ServeClient] = {}


def shared_client(host: str, port: int) -> ServeClient:
    """A per-process cached connection to one endpoint.

    Keyed by pid as well as endpoint, so sweep worker processes forked
    with an inherited cache each dial their own socket instead of
    interleaving frames on the parent's.
    """
    key = (os.getpid(), host, port)
    client = _SHARED.get(key)
    if client is None:
        client = _SHARED[key] = connect_with_retry(host, port)
    return client


__all__ = [
    "ServeClient",
    "ServeClientError",
    "ServeResult",
    "connect_with_retry",
    "parse_endpoint",
    "shared_client",
]
