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
   touching the simulator, forever, because determinism is pinned.
   The lookup precedes the answer: a hit's ``accepted`` and ``result``
   frames leave in one socket write, while a coalesced request or a
   miss is told ``accepted`` at once and ``result`` when there is one;
4. on a miss, **execute**: one task per miss awaits one
   :func:`~repro.serve.executors.execute_job` future on the server's
   executor (serial / process-pool — :mod:`repro.serve.executors`),
   stores the result, and resolves every waiter.  It is the
   lockup-free cache's MSHR file (DESIGN S3): each outstanding miss
   owns one ``_inflight`` entry, later requests for the same job merge
   into it, and every miss completes on its own;
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
from concurrent.futures import BrokenExecutor
from threading import Event as ThreadEvent
from threading import Thread
from typing import Awaitable, Callable, Dict, Optional, Set, Tuple

from ..obs import ledger as ledger_mod
from ..obs.prometheus import to_prometheus
from ..sim.stats import StatsRegistry
from .executors import execute_job, make_executor
from .protocol import (
    FRAME_TOO_LONG,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_message,
    encode_message,
    normalize_job,
)
from .store import ResultStore

#: counters the stats op reports: ``serve/<name>`` of the server's registry
COUNTER_NAMES = ("requests", "cache_hits", "cache_misses", "coalesced",
                 "executed", "errors", "bad_requests")

#: ``await send(*messages)``: the frames of one call share one write
AsyncSend = Callable[..., Awaitable[None]]


async def _read_frame(reader: asyncio.StreamReader) -> bytes:
    """The next line as ``readline`` would give it (``b""`` at EOF).

    A line longer than the reader's limit is dropped through its
    newline, however many reads that takes, and reported once as a
    :class:`ProtocolError`: the connection stays in step with its
    client, and what is buffered never exceeds the limit by more than
    one read."""
    fits = True
    while True:
        try:
            line = await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as exc:
            line = exc.partial
        except asyncio.LimitOverrunError as exc:
            await reader.readexactly(exc.consumed)
            fits = False
            continue
        if not fits:
            raise ProtocolError(FRAME_TOO_LONG)
        return line


class ServeServer:
    """The simulation-as-a-service front end (one asyncio loop)."""

    def __init__(self,
                 store: ResultStore,
                 executor_kind: str = "serial",
                 executor_jobs: int = 1,
                 host: str = "127.0.0.1",
                 port: int = 0,
                 ledger_path: Optional[str] = None,
                 ledger: bool = True,
                 request_log: bool = True) -> None:
        self.store = store
        self.executor_kind = executor_kind
        self.executor_jobs = executor_jobs
        #: built once, shut down in :meth:`aclose`
        self.executor = make_executor(executor_kind, jobs=executor_jobs)
        self.host = host
        self.port = port
        self.ledger_path = ledger_path
        self.ledger_enabled = ledger
        self.request_log_path = (
            os.path.join(store.root, "requests.jsonl")
            if request_log else None)
        #: this server's own statistics: every serve event is counted
        #: here, once; ``stats`` and ``metrics`` are two views of it
        self.metrics = StatsRegistry()
        self._counters = {name: self.metrics.counter(f"serve/{name}")
                          for name in COUNTER_NAMES}
        self.started_at = time.time()
        #: request hash -> the one execution every asker of it shares
        self._inflight: Dict[str, "asyncio.Future[Dict[str, object]]"] = {}
        #: accepted submits not yet answered
        self._submits: Set["asyncio.Task[None]"] = set()
        #: open connections: handler task -> its writer
        self._connections: Dict["asyncio.Task[None]",
                                asyncio.StreamWriter] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._shutdown: Optional[asyncio.Event] = None

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket; after this returns, :attr:`port`
        holds the real bound port."""
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        # the bound the client reads with; asyncio's default of 64 KiB
        # is far below the frame the protocol documents
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=MAX_FRAME_BYTES + 2)
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
            self._server.close()  # stop listening
        # every submit accepted so far finishes: its miss runs, is
        # stored, answered and ledgered (one arriving from here on is
        # not waited for)
        if self._submits:
            await asyncio.wait(set(self._submits))
        # the clients still connected read EOF and their handlers end
        # on it; left to the loop's teardown they would be cancelled
        # mid-read, which asyncio logs
        for writer in self._connections.values():
            writer.close()
        if self._connections:
            await asyncio.wait(set(self._connections))
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None
        self.executor.shutdown(wait=True, cancel_futures=True)

    def request_shutdown(self) -> None:
        """Thread-safe shutdown trigger (used by :class:`ServerThread`)."""
        loop, shutdown = self._loop, self._shutdown
        if loop is not None and shutdown is not None:
            loop.call_soon_threadsafe(shutdown.set)

    # -- connection handling --------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        write_lock = asyncio.Lock()
        handler = asyncio.current_task()
        assert handler is not None
        self._connections[handler] = writer

        async def send(*messages: Dict[str, object]) -> None:
            async with write_lock:
                writer.write(b"".join(map(encode_message, messages)))
                await writer.drain()

        try:
            while True:
                try:
                    line = await _read_frame(reader)
                    if not line:
                        break
                    message = decode_message(line)
                except (ConnectionResetError, OSError):
                    break
                except ProtocolError as exc:
                    self._count("bad_requests")
                    await self._safe_send(send, {"ok": False,
                                                 "error": str(exc)})
                    continue
                if not await self._handle_message(message, send):
                    break
        finally:
            # a disconnected client's pending submits still run to
            # completion (the result is cached for the next asker);
            # their sends fail silently via _safe_send
            del self._connections[handler]
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, OSError):
                pass

    async def _handle_message(self, message: Dict[str, object],
                              send: AsyncSend) -> bool:
        """Dispatch one client message; returns False to close."""
        op = message.get("op")
        msg_id = message.get("id")
        if op == "submit":
            task = asyncio.ensure_future(self._handle_submit(message, send))
            self._submits.add(task)
            task.add_done_callback(self._submits.discard)
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
                "prometheus": self.prometheus()})
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
                         *messages: Dict[str, object]) -> bool:
        """Send, tolerating a client that already went away."""
        try:
            await send(*messages)
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
        accepted = {"ok": True, "event": "accepted", "id": msg_id,
                    "request_sha256": sha}

        stored = None
        execution = self._inflight.get(sha)
        coalesced = execution is not None
        if coalesced:
            self._count("coalesced")
        else:
            stored = self.store.get(sha)
            if stored is not None:
                self._count("cache_hits")
            else:
                self._count("cache_misses")
                # registered before the first await below, so an
                # identical submit arriving meanwhile merges into it
                execution = self._inflight[sha] = asyncio.ensure_future(
                    self._execute(sha, spec))
        cached = stored is not None
        if cached:
            # nothing to wait for: both frames of a hit share one write
            result, unsent = stored, (accepted,)
        else:
            await self._safe_send(send, accepted)
            result, unsent = await asyncio.shield(execution), ()

        wall = time.perf_counter() - t0
        if "error" in result:
            self._count("errors")
            await self._safe_send(send, *unsent, {
                "ok": False, "event": "result", "id": msg_id,
                "request_sha256": sha, "cached": False,
                "coalesced": coalesced, "error": result["error"],
                "wall_seconds": round(wall, 6)})
            return
        self._append_ledger(sha, spec, result, wall)
        await self._safe_send(send, *unsent, {
            "ok": True, "event": "result", "id": msg_id,
            "request_sha256": sha, "cached": cached,
            "coalesced": coalesced, "result": result,
            "wall_seconds": round(wall, 6)})

    async def _execute(self, sha: str,
                       spec: Dict[str, object]) -> Dict[str, object]:
        """One cache miss: run the job, store its result and release
        the ``_inflight`` entry.  A job that raised comes back as an
        ``{"error": ...}`` marker, which is reported and never stored."""
        self.metrics.counter("serve/simulations").inc()
        t0 = time.perf_counter()
        try:
            result = await self._run(spec)
        except Exception as exc:  # noqa: BLE001 - per-job containment
            result = {"error": {"type": type(exc).__name__,
                                "message": str(exc)}}
        else:
            self._count("executed")
            self.store.put(sha, spec, result)
        finally:
            del self._inflight[sha]
        # whole milliseconds: the range of values, not the number of
        # jobs, bounds what the exact histogram holds
        self.metrics.histogram("serve/job_ms").add(
            round((time.perf_counter() - t0) * 1e3))
        return result

    def _run(self, spec: Dict[str, object],
             ) -> "asyncio.Future[Dict[str, object]]":
        """Hand one job to the executor.

        A pool that lost a worker fails every job it held
        (``BrokenExecutor``, an error marker each) and refuses the next
        one here, before it is queued: that is where the pool is
        replaced, once, and the job runs on the new one.
        """
        loop = asyncio.get_running_loop()
        try:
            return loop.run_in_executor(self.executor, execute_job, spec)
        except BrokenExecutor:
            self.executor.shutdown(wait=False)
            self.executor = make_executor(self.executor_kind,
                                          jobs=self.executor_jobs)
            return loop.run_in_executor(self.executor, execute_job, spec)

    # -- bookkeeping ----------------------------------------------------

    def _count(self, name: str) -> None:
        self._counters[name].inc()

    @property
    def counters(self) -> Dict[str, int]:
        return {name: counter.value
                for name, counter in self._counters.items()}

    def _log_request(self, sha: str, spec: Dict[str, object]) -> None:
        if self.request_log_path is None:
            return
        ledger_mod.append_jsonl(
            {"request_sha256": sha, "job": spec,
             "received_utc": ledger_mod._utc_timestamp()},
            self.request_log_path)

    def _append_ledger(self, sha: str, spec: Dict[str, object],
                       result: Dict[str, object], wall: float) -> None:
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
            "counters": self.counters,
            "inflight": len(self._inflight),
            "store": self.store.describe(),
        }

    def prometheus(self) -> str:
        """The ``metrics`` reply: this server's registry and its store's
        four tallies in the Prometheus text exposition format."""
        view = StatsRegistry()
        view.merge_from(self.metrics)
        for name in ("hits", "misses", "puts", "poisoned"):
            view.counter(f"serve/store_{name}").inc(getattr(self.store, name))
        return to_prometheus(view)


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
