"""The long-lived optimization daemon behind ``repro serve``.

One process owns the runtime result store and absorbs a stream of
optimize jobs from local clients (:mod:`repro.serve.client`): the
architectural shape the store was built for — most real traffic is
repeated sub-structures, and a daemon answering every client from one
warm store turns the disk-warm replay win (rot 38s → ~5s) into an
*every-request* win across users.

Anatomy:

* **Listener** — a threading TCP server on loopback; each connection
  carries one JSON request (:mod:`repro.serve.protocol`).  Submit
  handlers enqueue a job and block until it finishes, so clients get
  synchronous answers over an asynchronous queue.
* **Job queue + batching** — jobs wait in a bounded FIFO.  A runner
  pops the head job and *drains every queued job with the same config
  key* (up to ``max_batch``) into one batch: batched jobs share a warm
  optimizer back-to-back, so the persistent worker pool and the hot
  in-memory store tier never cool between them.
* **Optimizer pool** — one :class:`LookaheadOptimizer` per distinct job
  config key (:meth:`repro.core.OptimizerConfig.key`), kept alive across
  jobs.  Its ``ProcessPoolExecutor`` is the persistent worker pool that
  shards per-output cone tasks; workers adopt the store through the
  picklable spec shipped in task tuples, exactly as on the CLI path.
* **Timeouts with cancellation** — each job runs under a watchdog.  On
  expiry the client is answered immediately (``code="timeout"``) and the
  optimizer instance is *poisoned*: removed from the pool so no later
  job can block behind the runaway computation, and closed by whichever
  thread touches it last.  Cancellation of the compute itself is
  cooperative (the abandoned thread finishes its current flow and its
  result is discarded) — bounded by construction because each poisoned
  run strands at most one thread and one pool.
* **Graceful drain** — SIGTERM/SIGINT (or a ``shutdown`` request) stops
  accepting, lets runners finish every queued job, answers all waiting
  clients, closes the optimizer pool and the store, removes the
  endpoint file, and exits 0.  Jobs still queued when ``drain_timeout``
  expires are failed with ``code="shutdown"`` rather than left hanging.

Telemetry: ``serve.jobs.{submitted,completed,failed,timeout,rejected}``
counters, ``serve.batches``/``serve.batch.jobs``, per-job store-delta
counters ``serve.store.{hit,miss}`` (the aggregate serve hit rate line
in ``perf.report()``), and ``serve.job.{latency,queue_wait}``
histograms; the live view (queue depth, jobs in flight, p50/p95) is the
``status`` op, surfaced by ``repro serve --status``.  Per-job store
hit-rates are exact with one runner (the default) and approximate when
several runners interleave on the shared registry.
"""

from __future__ import annotations

import io
import os
import signal
import socket
import socketserver
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from .. import perf
from ..aig import AIG, depth, read_aag, read_blif, write_aag
from ..cec import check_equivalence
from ..core.config import OptimizerConfig
from ..core.flow import (
    execute_optimize_job,
    make_job_optimizer,
    normalize_job_config,
)
from ..store import runtime as store_runtime
from .protocol import (
    DEFAULT_HOST,
    ProtocolError,
    ServeError,
    endpoint_path,
    error_response,
    recv_message,
    remove_endpoint,
    send_message,
    write_endpoint,
)

RESPONSE_GRACE_S = 30.0
"""Extra slack a submit handler waits past the job deadline before
declaring the job lost (runners always answer first in practice)."""


class Job:
    """One queued optimize request and its eventual response."""

    __slots__ = (
        "id", "config", "key", "aig", "timeout", "submitted", "deadline",
        "return_circuit", "done", "response", "_lock",
    )

    def __init__(
        self,
        job_id: int,
        config: OptimizerConfig,
        aig: AIG,
        timeout: float,
        return_circuit: bool,
    ) -> None:
        self.id = job_id
        self.config = config
        self.key = config.key()
        self.aig = aig
        self.timeout = timeout
        self.submitted = time.monotonic()
        self.deadline = self.submitted + timeout
        self.return_circuit = return_circuit
        self.done = threading.Event()
        self.response: Optional[Dict[str, Any]] = None
        self._lock = threading.Lock()

    def finish(self, response: Dict[str, Any]) -> bool:
        """Set the response exactly once; False if already finished.

        The single commit point arbitrates the watchdog/worker race: a
        late worker result after a timeout answer is simply discarded.
        """
        with self._lock:
            if self.response is not None:
                return False
            self.response = response
        self.done.set()
        return True


class _JobQueue:
    """Bounded FIFO with same-key batch extraction and drain semantics."""

    def __init__(self, limit: int) -> None:
        self._items: Deque[Job] = deque()
        self._cond = threading.Condition()
        self._closed = False
        self.limit = limit

    def put(self, job: Job) -> None:
        with self._cond:
            if self._closed:
                raise ServeError("daemon is draining", code="draining")
            if len(self._items) >= self.limit:
                raise ServeError("job queue is full", code="queue-full")
            self._items.append(job)
            self._cond.notify()

    def pop_batch(self, max_batch: int) -> Optional[List[Job]]:
        """Head job plus queued same-key jobs; ``None`` = closed and empty.

        Blocks while open and empty.  After :meth:`close`, keeps handing
        out the backlog (that *is* the drain) until empty.
        """
        with self._cond:
            while not self._items and not self._closed:
                self._cond.wait()
            if not self._items:
                return None
            head = self._items.popleft()
            batch = [head]
            if max_batch > 1:
                kept: List[Job] = []
                for job in self._items:
                    if len(batch) < max_batch and job.key == head.key:
                        batch.append(job)
                    else:
                        kept.append(job)
                self._items = deque(kept)
            return batch

    def drain_remaining(self) -> List[Job]:
        with self._cond:
            items, self._items = list(self._items), deque()
            return items

    def depth(self) -> int:
        with self._cond:
            return len(self._items)

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()


class _OptimizerEntry:
    """A pooled per-config optimizer; the lock serializes its users."""

    __slots__ = ("key", "optimizer", "poisoned", "lock")

    def __init__(self, key: Tuple, optimizer) -> None:
        self.key = key
        self.optimizer = optimizer
        self.poisoned = False
        self.lock = threading.Lock()


class _Handler(socketserver.StreamRequestHandler):
    daemon: "ReproDaemon"  # bound by _Server

    def handle(self) -> None:
        daemon = self.server.repro_daemon  # type: ignore[attr-defined]
        try:
            request = recv_message(self.rfile)
        except ProtocolError as exc:
            self._reply(error_response(str(exc), exc.code))
            return
        if request is None:
            return
        try:
            response = daemon.handle_request(request)
        except ServeError as exc:
            response = error_response(str(exc), exc.code)
        except Exception as exc:  # a bad request must never kill the daemon
            response = error_response(f"{type(exc).__name__}: {exc}")
        self._reply(response)

    def _reply(self, response: Dict[str, Any]) -> None:
        try:
            send_message(self.connection, response)
        except OSError:
            pass  # client went away; the job result stays in the store


class _Server(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True  # handler threads must never block process exit

    def __init__(self, addr, daemon: "ReproDaemon") -> None:
        super().__init__(addr, _Handler)
        self.repro_daemon = daemon


class ReproDaemon:
    """The serve daemon: listener, queue, runners, optimizer pool."""

    def __init__(
        self,
        store: Optional[str] = None,
        workers: Optional[int] = None,
        host: str = DEFAULT_HOST,
        port: int = 0,
        job_timeout: float = 600.0,
        max_batch: int = 8,
        queue_limit: int = 256,
        runners: int = 1,
        pool_limit: int = 8,
        drain_timeout: float = 120.0,
        endpoint_file: Optional[str] = None,
    ) -> None:
        if runners < 1:
            raise ValueError("runners must be >= 1")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.store_path = store
        self.workers = workers
        self.host = host
        self.port = port  # 0 = ephemeral; the bound port replaces it
        self.job_timeout = job_timeout
        self.max_batch = max_batch
        self.runners = runners
        self.pool_limit = pool_limit
        self.drain_timeout = drain_timeout
        self.endpoint_file = endpoint_file or endpoint_path(store)
        self._queue = _JobQueue(queue_limit)
        self._pool: Dict[Tuple, _OptimizerEntry] = {}
        self._pool_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._in_flight = 0
        self._next_job_id = 1
        self._draining = False
        self._started = 0.0
        self._server: Optional[_Server] = None
        self._server_thread: Optional[threading.Thread] = None
        self._runner_threads: List[threading.Thread] = []
        self._stop_requested = threading.Event()
        self._stop_event = threading.Event()  # set once teardown is done
        self._stopped = False

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Bind, configure the store, spin up runners, advertise."""
        if self.store_path is not None:
            store_runtime.configure(
                store_runtime.make_config(self.store_path)
            )
        self._server = _Server((self.host, self.port), self)
        self.port = self._server.server_address[1]
        self._server_thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-serve-listener",
            daemon=True,
        )
        self._server_thread.start()
        for i in range(self.runners):
            thread = threading.Thread(
                target=self._runner_loop,
                name=f"repro-serve-runner-{i}",
                daemon=True,
            )
            thread.start()
            self._runner_threads.append(thread)
        self._started = time.monotonic()
        write_endpoint(self.endpoint_file, self.host, self.port,
                       self.store_path)

    def request_stop(self) -> None:
        """Ask the daemon to drain and exit (signal-handler safe)."""
        self._stop_requested.set()

    def stop(self) -> None:
        """Drain and tear everything down (idempotent and blocking).

        The first caller tears down; every later or concurrent caller
        blocks until that teardown has finished, so a return from
        ``stop()`` always means the listener is closed.
        """
        with self._state_lock:
            first = not self._stopped
            self._stopped = True
            self._draining = True
        self._stop_requested.set()
        if not first:
            self._stop_event.wait()
            return
        try:
            self._teardown()
        finally:
            self._stop_event.set()

    def _teardown(self) -> None:
        remove_endpoint(self.endpoint_file)
        if self._server is not None:
            self._server.shutdown()  # no new connections dispatched
            self._server.server_close()
        self._queue.close()
        deadline = time.monotonic() + self.drain_timeout
        for thread in self._runner_threads:
            thread.join(max(0.0, deadline - time.monotonic()))
        # Anything still queued after the drain window gets an answer,
        # not an eternally blocked client.
        for job in self._queue.drain_remaining():
            if job.finish(error_response("daemon shut down", "shutdown")):
                perf.incr("serve.jobs.failed")
        with self._pool_lock:
            entries, self._pool = list(self._pool.values()), {}
        for entry in entries:
            entry.optimizer.close()

    def wait(self) -> None:
        """Block until a stop is requested (signal or shutdown op)."""
        self._stop_requested.wait()

    def serve_forever(self, on_ready=None) -> None:
        """Run until SIGTERM/SIGINT (or a shutdown request), then drain.

        Must be called from the main thread (signal handlers).
        ``on_ready`` is invoked with the daemon once the socket is bound
        and the endpoint advertised (the CLI prints the address there).
        """
        previous = {
            sig: signal.signal(sig, lambda *_: self.request_stop())
            for sig in (signal.SIGTERM, signal.SIGINT)
        }
        self.start()
        try:
            if on_ready is not None:
                on_ready(self)
            self.wait()
        finally:
            self.stop()
            for sig, handler in previous.items():
                signal.signal(sig, handler)

    # -- request handling (listener threads) --------------------------------

    def handle_request(self, request: Dict[str, Any]) -> Dict[str, Any]:
        op = request.get("op")
        if op == "ping":
            return {"ok": True, "pid": os.getpid()}
        if op == "status":
            return {"ok": True, "status": self.status()}
        if op == "shutdown":
            threading.Thread(target=self._shutdown_later, daemon=True).start()
            return {"ok": True, "draining": self._queue.depth()}
        if op == "submit":
            return self._handle_submit(request)
        raise ServeError(f"unknown op {op!r}", code="bad-request")

    def _shutdown_later(self) -> None:
        # Give the ack a moment to flush before the listener dies.
        time.sleep(0.05)
        self.stop()

    def _handle_submit(self, request: Dict[str, Any]) -> Dict[str, Any]:
        if self._draining:
            perf.incr("serve.jobs.rejected")
            raise ServeError("daemon is draining", code="draining")
        text = request.get("circuit")
        if not isinstance(text, str) or not text:
            raise ServeError("submit requires circuit text", "bad-request")
        fmt = request.get("format", "aag")
        try:
            if fmt == "blif":
                aig = read_blif(io.StringIO(text))
            elif fmt == "aag":
                aig = read_aag(io.StringIO(text))
            else:
                raise ServeError(f"unknown format {fmt!r}", "bad-request")
        except ServeError:
            raise
        except Exception as exc:
            raise ServeError(f"unreadable circuit: {exc}", "bad-request")
        try:
            config = normalize_job_config(request.get("options"))
        except ValueError as exc:
            raise ServeError(str(exc), code="bad-request")
        arrivals = config.arrival_times
        if arrivals:
            unknown = sorted(set(arrivals) - set(aig.pi_names))
            if unknown:
                raise ServeError(
                    "arrival times for unknown inputs: " + ", ".join(unknown),
                    code="bad-request",
                )
        timeout = request.get("timeout")
        timeout = float(timeout) if timeout else self.job_timeout
        if timeout <= 0:
            raise ServeError("timeout must be positive", "bad-request")
        with self._state_lock:
            job_id = self._next_job_id
            self._next_job_id += 1
        job = Job(
            job_id, config, aig, timeout,
            bool(request.get("return_circuit", True)),
        )
        try:
            self._queue.put(job)
        except ServeError:
            perf.incr("serve.jobs.rejected")
            raise
        perf.incr("serve.jobs.submitted")
        if not job.done.wait(timeout + RESPONSE_GRACE_S):
            # Runners always answer (the watchdog guarantees it); this is
            # pure belt-and-braces against a wedged runner thread.
            job.finish(error_response("job lost by daemon", "internal"))
        response = dict(job.response or error_response("job lost", "internal"))
        response.setdefault("job", job.id)
        return response

    def status(self) -> Dict[str, Any]:
        with self._state_lock:
            in_flight = self._in_flight
        store = store_runtime.get_store()
        counters = {
            name: perf.counter(f"serve.jobs.{name}")
            for name in ("submitted", "completed", "failed", "timeout",
                         "rejected")
        }
        hits = perf.counter("serve.store.hit")
        misses = perf.counter("serve.store.miss")
        return {
            "pid": os.getpid(),
            "host": self.host,
            "port": self.port,
            "store": self.store_path,
            "persistent": bool(store.persistent),
            "workers": perf.get_workers(self.workers),
            "runners": self.runners,
            "uptime_s": round(time.monotonic() - self._started, 3),
            "draining": self._draining,
            "queue_depth": self._queue.depth(),
            "in_flight": in_flight,
            "jobs": counters,
            "batches": perf.counter("serve.batches"),
            "store_hits": hits,
            "store_misses": misses,
            "store_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            "job_latency_ms": {
                "p50": perf.percentile("serve.job.latency", 0.50) * 1e3,
                "p95": perf.percentile("serve.job.latency", 0.95) * 1e3,
            },
            "store_entries": {
                ns: info.get("entries", 0)
                for ns, info in store.stats().items()
            },
        }

    # -- job execution (runner threads) -------------------------------------

    def _runner_loop(self) -> None:
        while True:
            batch = self._queue.pop_batch(self.max_batch)
            if batch is None:
                return  # drained and closed
            perf.incr("serve.batches")
            perf.incr("serve.batch.jobs", len(batch))
            entry = self._checkout(batch[0])
            try:
                for job in batch:
                    if entry.poisoned:
                        self._checkin(entry)
                        entry = self._checkout(job)
                    self._run_job(job, entry)
            finally:
                self._checkin(entry)

    def _checkout(self, job: Job) -> _OptimizerEntry:
        with self._pool_lock:
            entry = self._pool.get(job.key)
            if entry is None or entry.poisoned:
                entry = _OptimizerEntry(
                    job.key,
                    make_job_optimizer(job.config, workers=self.workers),
                )
                self._pool[job.key] = entry
                while len(self._pool) > self.pool_limit:
                    if not self._evict_one(keep=entry):
                        break  # everything else busy: run over budget
        entry.lock.acquire()  # serializes runners sharing one config
        return entry

    def _evict_one(self, keep: _OptimizerEntry) -> bool:
        """Drop one idle pooled optimizer (pool lock held).

        Returns False when every other entry is checked out — the caller
        must accept running over budget rather than spin or block a
        runner on the pool lock.
        """
        for key, entry in list(self._pool.items()):
            if entry is keep:
                continue
            if entry.lock.acquire(blocking=False):
                del self._pool[key]
                entry.lock.release()
                entry.optimizer.close()
                return True
        return False

    def _checkin(self, entry: _OptimizerEntry) -> None:
        entry.lock.release()

    def _run_job(self, job: Job, entry: _OptimizerEntry) -> None:
        now = time.monotonic()
        remaining = job.deadline - now
        if remaining <= 0:
            # Expired while queued: never start work nobody is waiting on.
            perf.incr("serve.jobs.timeout")
            self._finish_job(
                job, error_response(
                    f"job timed out after {job.timeout:.1f}s in queue",
                    "timeout",
                ),
            )
            return
        perf.observe("serve.job.queue_wait", now - job.submitted)
        with self._state_lock:
            self._in_flight += 1
        try:
            worker = threading.Thread(
                target=self._execute,
                args=(job, entry),
                name=f"repro-serve-job-{job.id}",
                daemon=True,
            )
            worker.start()
            worker.join(remaining)
            if not job.done.is_set():
                # Watchdog: answer now, poison the optimizer so the next
                # job gets a fresh one instead of queueing behind this.
                with self._pool_lock:
                    entry.poisoned = True
                    if self._pool.get(entry.key) is entry:
                        del self._pool[entry.key]
                perf.incr("serve.jobs.timeout")
                self._finish_job(
                    job, error_response(
                        f"job timed out after {job.timeout:.1f}s", "timeout"
                    ),
                )
                if not worker.is_alive():
                    # Finished in the race window; close here because the
                    # worker observed poisoned=False (close is idempotent).
                    entry.optimizer.close()
        finally:
            with self._state_lock:
                self._in_flight -= 1

    def _execute(self, job: Job, entry: _OptimizerEntry) -> None:
        hits0 = perf.counter("store.hit")
        misses0 = perf.counter("store.miss")
        start = time.perf_counter()
        response: Dict[str, Any]
        try:
            optimized = execute_optimize_job(
                job.aig, job.config, optimizer=entry.optimizer
            )
            if job.config.verify and not check_equivalence(
                job.aig, optimized
            ):
                raise AssertionError("optimized circuit is not equivalent")
            elapsed = time.perf_counter() - start
            hits = perf.counter("store.hit") - hits0
            misses = perf.counter("store.miss") - misses0
            perf.incr("serve.store.hit", hits)
            perf.incr("serve.store.miss", misses)
            result = {
                "input": {"depth": depth(job.aig),
                          "ands": job.aig.num_ands()},
                "depth": depth(optimized),
                "ands": optimized.num_ands(),
                "elapsed_s": round(elapsed, 6),
                "store": {
                    "hits": hits,
                    "misses": misses,
                    "hit_rate": (
                        hits / (hits + misses) if hits + misses else 0.0
                    ),
                },
            }
            if job.return_circuit:
                buf = io.StringIO()
                write_aag(optimized, buf)
                result["circuit"] = buf.getvalue()
            response = {"ok": True, "job": job.id, "result": result}
        except Exception as exc:  # the daemon outlives any failing job
            response = error_response(
                f"{type(exc).__name__}: {exc}", "failed"
            )
        if self._finish_job(job, response):
            # Count only the answer the client saw: a post-timeout result
            # landing here was already reported as a timeout.
            perf.incr(
                "serve.jobs.completed"
                if response.get("ok")
                else "serve.jobs.failed"
            )
        if entry.poisoned:
            # We are the abandoned post-timeout thread: the pool no
            # longer references this optimizer, so reap it here.
            entry.optimizer.close()

    def _finish_job(self, job: Job, response: Dict[str, Any]) -> bool:
        committed = job.finish(response)
        if committed:
            perf.observe(
                "serve.job.latency", time.monotonic() - job.submitted
            )
        return committed
