"""The asyncio simulation job server.

``python -m repro.serve serve`` turns the simulator into
infrastructure: an ``asyncio`` streams front end speaking the
newline-delimited JSON protocol of :mod:`repro.serve.protocol`.  The
request path for a ``submit``:

1. **canonicalize** the job (:func:`~repro.serve.protocol.normalize_job`)
   and hash it with the same :func:`~repro.obs.ledger.request_hash`
   the run ledger uses — the ledger's dedupe-hit-rate reports were
   sizing exactly this cache before it existed;
2. **coalesce** against identical requests already in flight (many
   clients asking for the same job while it runs share one execution);
3. **look up** the persistent content-addressed
   :class:`~repro.serve.store.ResultStore` — a hit answers without
   touching the simulator, forever, because determinism is pinned;
4. on a miss, **enqueue** to the dispatcher, which drains whatever is
   queued into one executor batch (serial / process-pool —
   :mod:`repro.serve.executors`), streams the sweep
   engine's :class:`~repro.sim.sweep.SweepProgress` samples to
   subscribed clients, stores the result, and resolves every waiter;
5. **append** one ledger record per completed submission, so
   ``python -m repro.obs ledger stats`` reports the server's real
   dedupe hit rate with no extra bookkeeping.

Every accepted submit also lands in a replayable request log
(``<store>/requests.jsonl``, atomic whole-line appends), so a
production traffic mix can be captured and replayed against a new
build with ``python -m repro.serve replay``.
"""

from __future__ import annotations

import asyncio
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from threading import Event as ThreadEvent
from threading import Thread
from typing import Awaitable, Callable, Dict, List, Optional, Tuple

from ..obs import ledger as ledger_mod
from ..sim.sweep import SweepProgress
from .executors import Executor, make_executor
from .protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    decode_message,
    encode_message,
    normalize_job,
)
from .store import ResultStore

#: counters the stats op reports (plain ints, authoritative; the same
#: values are mirrored into repro.obs.telemetry for Prometheus)
COUNTER_NAMES = ("requests", "cache_hits", "cache_misses", "coalesced",
                 "executed", "errors", "bad_requests")

AsyncSend = Callable[[Dict[str, object]], Awaitable[None]]


def _tm():
    from ..obs import telemetry
    return telemetry


@dataclass
class _PendingJob:
    """One queued cache miss: the future every waiter shares, plus the
    progress subscriptions to notify while its batch runs."""

    sha: str
    spec: Dict[str, object]
    future: "asyncio.Future[Dict[str, object]]"
    #: (send, client message id) pairs that asked for progress events
    subscribers: List[Tuple[AsyncSend, object]] = field(default_factory=list)


class ServeServer:
    """The simulation-as-a-service front end (one asyncio loop)."""

    def __init__(self,
                 store: ResultStore,
                 executor: Optional[Executor] = None,
                 executor_kind: str = "serial",
                 executor_jobs: int = 1,
                 host: str = "127.0.0.1",
                 port: int = 0,
                 ledger_path: Optional[str] = None,
                 ledger: bool = True,
                 request_log: bool = True,
                 max_batch: int = 256) -> None:
        self.store = store
        self.executor_kind = executor_kind
        self.executor = executor if executor is not None else make_executor(
            executor_kind, jobs=executor_jobs)
        self.host = host
        self.port = port
        self.ledger_path = ledger_path
        self.ledger_enabled = ledger
        self.request_log_path = (
            os.path.join(store.root, "requests.jsonl")
            if request_log else None)
        self.max_batch = max_batch
        self.counters: Dict[str, int] = {name: 0 for name in COUNTER_NAMES}
        self.started_at = time.time()
        self._inflight: Dict[str, _PendingJob] = {}
        self._queue: "asyncio.Queue[Optional[_PendingJob]]" = None  # type: ignore[assignment]
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._dispatcher: Optional["asyncio.Task[None]"] = None
        self._shutdown: Optional[asyncio.Event] = None
        # executor batches run on one worker thread so the asyncio loop
        # stays responsive; one thread also serializes executor access
        self._exec_threads = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-exec")
        self._prev_telemetry = False

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket and start the dispatcher; after
        this returns, :attr:`port` holds the real bound port."""
        tm = _tm()
        self._prev_telemetry = tm.enabled()
        tm.enable(True)
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue()
        self._shutdown = asyncio.Event()
        self._dispatcher = asyncio.ensure_future(self._dispatch_loop())
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_until_shutdown(self) -> None:
        """Serve until a ``shutdown`` op (or :meth:`request_shutdown`)."""
        assert self._server is not None and self._shutdown is not None
        try:
            await self._shutdown.wait()
        finally:
            await self.aclose()

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._dispatcher is not None:
            await self._queue.put(None)
            await self._dispatcher
            self._dispatcher = None
        self._exec_threads.shutdown(wait=True)
        _tm().enable(self._prev_telemetry)

    def request_shutdown(self) -> None:
        """Thread-safe shutdown trigger (used by :class:`ServerThread`)."""
        loop, shutdown = self._loop, self._shutdown
        if loop is not None and shutdown is not None:
            loop.call_soon_threadsafe(shutdown.set)

    # -- connection handling --------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        write_lock = asyncio.Lock()
        tasks: List["asyncio.Task[None]"] = []

        async def send(message: Dict[str, object]) -> None:
            async with write_lock:
                writer.write(encode_message(message))
                await writer.drain()

        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionResetError, OSError):
                    break
                if not line:
                    break
                try:
                    message = decode_message(line)
                except ProtocolError as exc:
                    self._count("bad_requests")
                    await self._safe_send(send, {"ok": False,
                                                 "error": str(exc)})
                    continue
                tasks[:] = [task for task in tasks if not task.done()]
                if not await self._handle_message(message, send, tasks):
                    break
        finally:
            # a disconnected client's pending submits still run to
            # completion (the result is cached for the next asker);
            # their sends fail silently via _safe_send
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, OSError):
                pass

    async def _handle_message(self, message: Dict[str, object],
                              send: AsyncSend,
                              tasks: List["asyncio.Task[None]"]) -> bool:
        """Dispatch one client message; returns False to close."""
        op = message.get("op")
        msg_id = message.get("id")
        if op == "submit":
            tasks.append(asyncio.ensure_future(
                self._handle_submit(message, send)))
            return True
        if op == "ping":
            await self._safe_send(send, {
                "ok": True, "event": "pong",
                "protocol": PROTOCOL_VERSION, "id": msg_id})
            return True
        if op == "stats":
            await self._safe_send(send, {
                "ok": True, "event": "stats", "id": msg_id,
                "stats": self.stats()})
            return True
        if op == "metrics":
            await self._safe_send(send, {
                "ok": True, "event": "metrics", "id": msg_id,
                "prometheus": _tm().registry().to_prometheus()})
            return True
        if op == "shutdown":
            await self._safe_send(send, {"ok": True, "event": "shutdown",
                                         "id": msg_id})
            assert self._shutdown is not None
            self._shutdown.set()
            return False
        self._count("bad_requests")
        await self._safe_send(send, {
            "ok": False, "id": msg_id,
            "error": f"unknown op {op!r}; known: submit, stats, metrics, "
                     f"ping, shutdown"})
        return True

    @staticmethod
    async def _safe_send(send: AsyncSend,
                         message: Dict[str, object]) -> bool:
        """Send, tolerating a client that already went away."""
        try:
            await send(message)
            return True
        except (ConnectionResetError, BrokenPipeError, OSError):
            return False

    # -- the submit path ------------------------------------------------

    async def _handle_submit(self, message: Dict[str, object],
                             send: AsyncSend) -> None:
        msg_id = message.get("id")
        t0 = time.perf_counter()
        try:
            spec = normalize_job(message.get("job", {}))  # type: ignore[arg-type]
        except ProtocolError as exc:
            self._count("bad_requests")
            await self._safe_send(send, {"ok": False, "id": msg_id,
                                         "error": str(exc)})
            return
        sha = ledger_mod.request_hash(spec)
        self._count("requests")
        self._log_request(sha, spec)
        await self._safe_send(send, {"ok": True, "event": "accepted",
                                     "id": msg_id, "request_sha256": sha})
        want_progress = bool(message.get("progress"))

        cached = False
        coalesced = False
        pending = self._inflight.get(sha)
        if pending is not None:
            coalesced = True
            self._count("coalesced")
            if want_progress:
                pending.subscribers.append((send, msg_id))
            result = await asyncio.shield(pending.future)
        else:
            stored = self.store.get(sha)
            if stored is not None:
                cached = True
                self._count("cache_hits")
                result = stored
            else:
                self._count("cache_misses")
                assert self._loop is not None
                pending = _PendingJob(sha=sha, spec=spec,
                                      future=self._loop.create_future())
                if want_progress:
                    pending.subscribers.append((send, msg_id))
                self._inflight[sha] = pending
                await self._queue.put(pending)
                result = await asyncio.shield(pending.future)

        wall = time.perf_counter() - t0
        if "error" in result:
            self._count("errors")
            await self._safe_send(send, {
                "ok": False, "event": "result", "id": msg_id,
                "request_sha256": sha, "cached": False,
                "coalesced": coalesced, "error": result["error"],
                "wall_seconds": round(wall, 6)})
            return
        self._append_ledger(sha, spec, result, wall, cached=cached)
        await self._safe_send(send, {
            "ok": True, "event": "result", "id": msg_id,
            "request_sha256": sha, "cached": cached,
            "coalesced": coalesced, "result": result,
            "wall_seconds": round(wall, 6)})

    # -- dispatcher -----------------------------------------------------

    async def _dispatch_loop(self) -> None:
        assert self._queue is not None
        while True:
            entry = await self._queue.get()
            if entry is None:
                return
            batch = [entry]
            while len(batch) < self.max_batch:
                try:
                    extra = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if extra is None:
                    await self._run_batch(batch)
                    return
                batch.append(extra)
            await self._run_batch(batch)

    async def _run_batch(self, batch: List[_PendingJob]) -> None:
        assert self._loop is not None
        loop = self._loop
        specs = [entry.spec for entry in batch]
        tm = _tm()
        tm.inc("serve/batches")
        tm.observe("serve/batch_jobs", len(batch),
                   buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512))

        def on_progress(sample: SweepProgress) -> None:
            # called on the executor thread; hop to the loop before
            # touching any asyncio state
            loop.call_soon_threadsafe(self._emit_progress, batch, sample)

        t0 = time.perf_counter()
        try:
            results = await loop.run_in_executor(
                self._exec_threads,
                lambda: self.executor(specs, on_progress))
        except Exception as exc:  # noqa: BLE001 - batch-level containment
            results = [{"error": {"type": type(exc).__name__,
                                  "message": str(exc)}}] * len(batch)
        tm.observe("serve/batch_seconds", time.perf_counter() - t0)
        for entry, result in zip(batch, results):
            if "error" not in result:
                self._count("executed")
                self.store.put(entry.sha, entry.spec, result)
            self._inflight.pop(entry.sha, None)
            if not entry.future.done():
                entry.future.set_result(result)

    def _emit_progress(self, batch: List[_PendingJob],
                       sample: SweepProgress) -> None:
        event = {
            "ok": True,
            "event": "progress",
            "done": sample.done,
            "total": sample.total,
            "items_per_second": round(sample.items_per_second, 3),
            "eta_seconds": (round(sample.eta_seconds, 3)
                            if sample.eta_seconds is not None else None),
            "utilization": round(sample.utilization, 4),
        }
        for entry in batch:
            for send, msg_id in entry.subscribers:
                message = dict(event)
                message["id"] = msg_id
                asyncio.ensure_future(self._safe_send(send, message))

    # -- bookkeeping ----------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        self.counters[name] += amount
        _tm().inc(f"serve/{name}", amount)

    def _log_request(self, sha: str, spec: Dict[str, object]) -> None:
        if self.request_log_path is None:
            return
        ledger_mod.append_jsonl(
            {"request_sha256": sha, "job": spec,
             "received_utc": ledger_mod._utc_timestamp()},
            self.request_log_path)

    def _append_ledger(self, sha: str, spec: Dict[str, object],
                       result: Dict[str, object], wall: float,
                       cached: bool) -> None:
        """One ledger record per completed submission.

        The record's outcome is the *result itself* (small: registers +
        cycles), never the hit/miss disposition — records sharing a
        request hash must share an outcome digest, or ``ledger stats``
        would flag every cache hit as an inconsistency instead of a
        dedupe win.  Hit/miss lives in the metrics and the request log.
        """
        if not self.ledger_enabled:
            return
        record = ledger_mod.make_record(
            kind="serve",
            request=spec,
            outcome=result,
            wall_seconds=wall,
            items=1,
        )
        assert record["request_sha256"] == sha, "canonicalization drift"
        ledger_mod.append_record(record, self.ledger_path)

    def stats(self) -> Dict[str, object]:
        return {
            "protocol": PROTOCOL_VERSION,
            "executor": self.executor_kind,
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "counters": dict(self.counters),
            "inflight": len(self._inflight),
            "store": self.store.describe(),
        }


class ServerThread:
    """Run a :class:`ServeServer` on a background thread's event loop.

    The in-process embedding used by tests, the load-generator
    benchmark cases, and anything else that wants a live server
    without a subprocess::

        handle = ServerThread(ServeServer(store=ResultStore(root)))
        host, port = handle.start()
        ...
        handle.stop()
    """

    def __init__(self, server: ServeServer) -> None:
        self.server = server
        self._ready = ThreadEvent()
        self._thread: Optional[Thread] = None
        self._startup_error: Optional[BaseException] = None

    def _main(self) -> None:
        async def body() -> None:
            try:
                await self.server.start()
            except BaseException as exc:  # noqa: BLE001 - reported to start()
                self._startup_error = exc
                self._ready.set()
                raise
            self._ready.set()
            await self.server.serve_until_shutdown()

        try:
            asyncio.run(body())
        except BaseException:  # noqa: BLE001 - surfaced via startup_error
            if not self._ready.is_set():
                self._ready.set()

    def start(self, timeout: float = 30.0) -> Tuple[str, int]:
        self._thread = Thread(target=self._main, name="serve-server",
                              daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("server failed to start within "
                               f"{timeout}s")
        if self._startup_error is not None:
            raise RuntimeError(
                f"server failed to start: {self._startup_error}")
        return self.server.host, self.server.port

    def stop(self, timeout: float = 30.0) -> None:
        self.server.request_shutdown()
        if self._thread is not None:
            self._thread.join(timeout)


__all__ = ["COUNTER_NAMES", "ServeServer", "ServerThread"]
