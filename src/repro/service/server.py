"""The simulation daemon: one warm :class:`SweepEngine`, many clients.

Every consumer of the simulator (``run_all``, DSE, the benchmark, CI)
used to cold-start its own process pool and its own trace memo, throwing
the warm state away between invocations. :class:`ServiceServer` owns
that state for as long as the daemon lives:

* one **persistent sweep engine** (``SweepEngine(persistent=True)``) —
  the process pool and the host/worker trace memos survive between
  requests;
* the **content-addressed result cache** — a resubmitted pair is a pure
  cache hit, simulated by nobody;
* **global single-flight dedup across clients** — all jobs queued at a
  scheduling instant run as *one* deduplicated engine batch, so two
  clients submitting the same (workload, config) pair share a single
  in-flight simulation (the engine's per-sweep dedup, generalised), and
  a pair submitted while an earlier client's simulation of it runs is a
  cache hit by the time its job reaches the engine;
* a **crash-safe jobs journal** (``jobs.jsonl``, whole-line ``O_APPEND``
  writes like :mod:`repro.dse.journal`) — a restarted daemon remembers
  completed jobs and serves their ``results`` straight from the result
  cache, resimulating nothing.

Scheduling is deliberately simple: one simulation thread drains the job
queue in batches (every job queued when it looks is merged into the next
batch), and the engine's longest-expected-first ordering load-balances
within a batch. Request handling is threaded and cheap, so ``status`` /
``wait`` / ``results`` stay responsive while a batch runs.

Robustness contract:

* **SIGTERM / SIGINT → graceful drain**: new submissions are refused,
  every already-accepted job runs to completion, then the daemon tears
  down (pool shut down, socket file removed);
* **idle timeout**: with ``--idle-timeout S`` the daemon drains itself
  after S seconds without requests or work;
* a failing batch falls back to per-job execution, so one job's bad
  imported trace cannot fail a neighbour's simulation.

The daemon is scale-pinned: it serves exactly the ``REPRO_SCALE`` it was
started with and rejects mismatched submissions — result identity
depends on the scale, and the warm worker memos are keyed by workload
name alone.
"""

from __future__ import annotations

import logging
import os
import secrets
import socket
import socketserver
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..errors import ConfigurationError
from ..experiments.pool import SweepEngine, pair_key
from ..experiments.runner import (RESULTS_VERSION, ResultCache,
                                  default_cache, machine_parts)
from ..obs.hooks import ProgressObs
from ..jsonl import append_record, read_records
from ..obs.spans import Tracer
from ..trace.workloads import (
    champsim_trace_path,
    is_imported_workload,
    is_smt_workload,
    scale_factor,
    smt_workload,
    workload_names,
)
from .protocol import (
    PROTOCOL_VERSION,
    Pair,
    ProtocolError,
    ServiceError,
    check_pairs,
    error_response,
    format_address,
    ok_response,
    parse_address,
)

_log = logging.getLogger(__name__)

#: Terminal job states (``results`` is answerable, ``wait`` returns).
TERMINAL = ("done", "failed", "cancelled", "lost")

#: Longest a single ``wait`` request blocks server-side before returning
#: the current (possibly non-terminal) status; clients re-issue.
WAIT_SLICE_SECONDS = 30.0


class Job:
    """One submitted batch of (workload, config) pairs."""

    __slots__ = ("job_id", "pairs", "scale", "carrier", "status", "error",
                 "completed", "simulated", "results", "journaled")

    def __init__(self, job_id: str, pairs: List[Pair], scale: float,
                 carrier: Optional[Dict[str, str]] = None,
                 journaled: bool = False, status: str = "queued") -> None:
        self.job_id = job_id
        self.pairs = pairs
        self.scale = scale
        self.carrier = carrier
        self.status = status
        self.error: Optional[str] = None
        #: Pairs simulated on this job's behalf, in completion order
        #: (cache hits never appear here — they cost nothing).
        self.completed: List[Dict[str, Any]] = []
        self.simulated = 0
        self.results: Optional[Dict[str, dict]] = None
        self.journaled = journaled

    def info(self) -> Dict[str, Any]:
        """The ``status`` / ``wait`` response payload."""
        return {
            "job_id": self.job_id,
            "status": self.status,
            "pairs": len(self.pairs),
            "simulated": self.simulated,
            "completed": list(self.completed),
            "error": self.error,
            "scale": self.scale,
        }


class _EngineObs(ProgressObs):
    """The engine-facing observer inside the daemon.

    Forwards every hook to the server's own observer (``--obs-dir``,
    may be ``None``) and tells the server about each simulated pair so
    it can update job progress and emit ``pair`` spans into the
    submitting clients' trace trees.
    """

    def __init__(self, server: "ServiceServer", inner=None) -> None:
        super().__init__(None)
        self._server = server
        self._inner = inner
        self._starts: Dict[Pair, int] = {}

    def sweep_started(self, todo, total_pairs, costs, jobs) -> None:
        if self._inner is not None:
            self._inner.sweep_started(todo, total_pairs, costs, jobs)

    def pair_started(self, workload: str, config: str) -> None:
        self._starts[(workload, config)] = time.time_ns()
        if self._inner is not None:
            self._inner.pair_started(workload, config)

    def pair_done(self, workload: str, config: str, result=None) -> None:
        start_ns = self._starts.pop((workload, config), None)
        self._server._pair_completed(
            workload, config,
            start_ns if start_ns is not None else time.time_ns(),
            time.time_ns(), result)
        if self._inner is not None:
            self._inner.pair_done(workload, config, result)

    def worker_carrier(self) -> Optional[Dict[str, str]]:
        if self._inner is not None:
            return self._inner.worker_carrier()
        return None

    def sweep_finished(self, engine=None) -> None:
        if self._inner is not None:
            self._inner.sweep_finished(engine)


class _Handler(socketserver.StreamRequestHandler):
    """One connection: any number of request lines, one response each."""

    def handle(self) -> None:
        from .protocol import decode, encode

        service: "ServiceServer" = self.server.service  # type: ignore
        for line in self.rfile:
            if not line.strip():
                continue
            try:
                message = decode(line)
            except ProtocolError as exc:
                response = error_response(str(exc))
            else:
                response = service.handle_message(message)
            try:
                self.wfile.write(encode(response))
                self.wfile.flush()
            except (BrokenPipeError, ConnectionResetError):
                return          # client went away mid-reply


class _ThreadingTCPServer(socketserver.ThreadingMixIn, socketserver.TCPServer):
    daemon_threads = True
    allow_reuse_address = True


class _ThreadingUnixServer(socketserver.ThreadingMixIn,
                           socketserver.UnixStreamServer):
    daemon_threads = True


class ServiceServer:
    """The daemon (see module docstring). Lifecycle::

        server = ServiceServer("unix:/tmp/repro.sock", jobs=2)
        server.start()          # bind + background threads
        ...                     # clients connect
        server.stop("reason")   # begin graceful drain (signal-safe)
        server.join()           # drain completes, resources released

    ``close()`` is ``stop() + join()``; :func:`serve` wraps the whole
    thing for the CLI (signals, idle timeout, exit status).
    """

    def __init__(self, address: str, jobs: int = 1,
                 cache: Optional[ResultCache] = None,
                 state_dir: Optional[str] = None,
                 idle_timeout: Optional[float] = None,
                 obs=None) -> None:
        self.address = address
        self.jobs = max(1, int(jobs))
        self.cache = cache if cache is not None else default_cache()
        self.scale = scale_factor()
        self.idle_timeout = idle_timeout
        self.obs = obs                     # the daemon's own RunObs, or None
        self.engine = SweepEngine(jobs=self.jobs, cache=self.cache,
                                  persistent=True,
                                  obs=_EngineObs(self, inner=obs))
        self.state_dir = Path(state_dir) if state_dir \
            else self.cache.root / "service"
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self._journal = self.state_dir / "jobs.jsonl"

        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._jobs: Dict[str, Job] = {}
        self._queue: List[Job] = []
        #: pair -> jobs of the batch being simulated right now.
        self._interested: Dict[Pair, List[Job]] = {}
        self._draining = False
        self._drain_reason: Optional[str] = None
        self._stop_event = threading.Event()
        self._done_event = threading.Event()
        self._last_activity = time.monotonic()
        self.stats = {
            "jobs_submitted": 0, "jobs_done": 0, "jobs_failed": 0,
            "pairs_requested": 0, "pairs_simulated": 0,
        }
        self._socket_server = None
        self._sim_thread: Optional[threading.Thread] = None
        self._threads: List[threading.Thread] = []
        self._restore_journal()

    # -- journal -------------------------------------------------------------

    def _journal_append(self, record: Dict[str, Any]) -> None:
        append_record(self._journal, record)

    def _restore_journal(self) -> None:
        """Rebuild terminal jobs from a previous daemon's journal.

        A ``submit`` record without a matching ``done`` means the
        previous daemon died mid-job: the job resurfaces as ``lost``
        (its client resubmits; pairs already simulated are cache hits).
        ``read_records`` tolerates exactly a SIGKILL-truncated last line.
        """
        path = self._journal
        try:
            records = read_records(path, "jobs journal")
        except ValueError as exc:
            _log.warning("ignoring corrupt jobs journal %s (%s)", path, exc)
            return
        for record in records:
            kind = record.get("kind")
            if kind == "submit":
                try:
                    pairs = check_pairs(record.get("pairs"))
                except ProtocolError:
                    continue
                self._jobs[record["job_id"]] = Job(
                    record["job_id"], pairs,
                    float(record.get("scale", self.scale)),
                    journaled=True, status="lost")
            elif kind == "done" and record.get("job_id") in self._jobs:
                # A terminal state this daemon does not know (an older
                # daemon's "expired") reads as lost: resubmit.
                status = record.get("status", "done")
                self._jobs[record["job_id"]].status = \
                    status if status in TERMINAL else "lost"

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Bind the socket and launch the request + simulation threads."""
        kind, where = parse_address(self.address)
        if kind == "unix":
            self._unlink_stale_socket(where)
            Path(where).parent.mkdir(parents=True, exist_ok=True)
            self._socket_server = _ThreadingUnixServer(where, _Handler)
            self._socket_path: Optional[str] = where
        else:
            self._socket_server = _ThreadingTCPServer(where, _Handler)
            self._socket_path = None
        self._socket_server.service = self      # type: ignore[attr-defined]
        self._sim_thread = threading.Thread(
            target=self._sim_loop, name="service-sim", daemon=True)
        self._sim_thread.start()
        accept = threading.Thread(
            target=self._socket_server.serve_forever,
            name="service-accept", daemon=True)
        accept.start()
        self._threads = [accept]
        if self.idle_timeout:
            monitor = threading.Thread(
                target=self._idle_monitor, name="service-idle", daemon=True)
            monitor.start()
            self._threads.append(monitor)
        _log.info("service listening on %s (jobs=%d, scale=%g)",
                  format_address(self.address), self.jobs, self.scale)

    @staticmethod
    def _unlink_stale_socket(path: str) -> None:
        """Remove a leftover socket file nobody is listening on; refuse
        to steal a live daemon's address."""
        if not os.path.exists(path):
            return
        probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            probe.settimeout(0.25)
            probe.connect(path)
        except OSError:
            os.unlink(path)      # stale: previous daemon died unclean
        else:
            probe.close()
            raise ServiceError(f"address already served: unix:{path}")
        finally:
            probe.close()

    def stop(self, reason: str = "stop requested") -> None:
        """Begin a graceful drain (signal-handler safe, idempotent)."""
        with self._cond:
            if self._draining:
                return
            self._draining = True
            self._drain_reason = reason
            self._cond.notify_all()
        self._stop_event.set()

    def join(self, timeout: Optional[float] = None) -> None:
        """Wait for a drain started by :meth:`stop` to finish, then
        release every resource (pool, socket file)."""
        self._stop_event.wait(timeout)
        if self._sim_thread is not None:
            self._sim_thread.join(timeout)
        if self._done_event.is_set():
            return
        self._done_event.set()
        if self._socket_server is not None:
            self._socket_server.shutdown()
            self._socket_server.server_close()
        self.engine.close()
        if getattr(self, "_socket_path", None):
            try:
                os.unlink(self._socket_path)
            except OSError:
                pass
        _log.info("service drained (%s)", self._drain_reason)

    def close(self) -> None:
        self.stop("close")
        self.join()

    # -- request dispatch ----------------------------------------------------

    def handle_message(self, message: Dict[str, Any]) -> Dict[str, Any]:
        op = message.get("op")
        handler = getattr(self, f"_op_{op}", None) if isinstance(op, str) \
            else None
        if handler is None or (isinstance(op, str) and op.startswith("_")):
            return error_response(f"unknown op {op!r}")
        with self._lock:
            self._last_activity = time.monotonic()
        try:
            return handler(message)
        except ProtocolError as exc:
            return error_response(str(exc))
        except Exception as exc:       # pragma: no cover - defensive
            _log.exception("internal error handling %r", op)
            return error_response(f"internal error: {exc}")

    def _op_ping(self, message: Dict[str, Any]) -> Dict[str, Any]:
        return ok_response(server={
            "pid": os.getpid(),
            "scale": self.scale,
            "jobs": self.jobs,
            "protocol": PROTOCOL_VERSION,
            "results_version": RESULTS_VERSION,
            "draining": self._draining,
        })

    def _op_peek(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Which of these pairs would a job actually simulate?"""
        pairs = check_pairs(message.get("pairs"))
        cold = [pair_key(w, c) for w, c in pairs
                if not self.cache.has(w, c)]
        return ok_response(cold=cold)

    def _op_submit(self, message: Dict[str, Any]) -> Dict[str, Any]:
        with self._cond:
            if self._draining:
                return error_response(
                    f"draining ({self._drain_reason}); not accepting jobs")
        pairs = check_pairs(message.get("pairs"))
        scale = message.get("scale")
        if scale is not None and abs(float(scale) - self.scale) > 1e-9:
            return error_response(
                f"scale mismatch: daemon pinned to REPRO_SCALE="
                f"{self.scale:g}, job asks for {float(scale):g}")
        error = self._validate_pairs(pairs)
        if error is not None:
            return error_response(error)
        carrier = message.get("carrier")
        if carrier is not None and not isinstance(carrier, dict):
            raise ProtocolError("'carrier' must be an object")
        job = Job(secrets.token_hex(8), pairs, self.scale, carrier=carrier)
        self._journal_append({"kind": "submit", "job_id": job.job_id,
                              "pairs": [list(p) for p in pairs],
                              "scale": self.scale,
                              "time_unix_nano": time.time_ns()})
        with self._cond:
            if self._draining:       # raced with a drain: refuse late
                return error_response(
                    f"draining ({self._drain_reason}); not accepting jobs")
            self._jobs[job.job_id] = job
            self._queue.append(job)
            self.stats["jobs_submitted"] += 1
            self.stats["pairs_requested"] += len(pairs)
            self._cond.notify_all()
        return ok_response(job_id=job.job_id, pairs=len(pairs))

    @staticmethod
    def _validate_pairs(pairs: List[Pair]) -> Optional[str]:
        """Cheap submit-time validation so a typo fails the submitting
        client instead of poisoning a shared batch."""
        known = None
        for workload in {w for w, _c in pairs}:
            if is_imported_workload(workload):
                path = champsim_trace_path(workload)
                if not path or not os.path.exists(path):
                    return f"imported trace not found: {workload!r}"
                continue
            if is_smt_workload(workload):
                # Parsing resolves every component workload.
                try:
                    smt_workload(workload)
                except ConfigurationError as exc:
                    return str(exc)
                continue
            if known is None:
                known = set(workload_names())
            if workload not in known:
                return f"unknown workload {workload!r}"
        for config in {c for _w, c in pairs}:
            try:
                machine_parts(config)
            except ConfigurationError as exc:
                return f"bad config {config!r}: {exc}"
        return None

    def _require_job(self, message: Dict[str, Any]) -> Job:
        job_id = message.get("job_id")
        if not isinstance(job_id, str):
            raise ProtocolError("'job_id' must be a string")
        job = self._jobs.get(job_id)
        if job is None:
            raise ProtocolError(f"unknown job {job_id!r}")
        return job

    def _op_status(self, message: Dict[str, Any]) -> Dict[str, Any]:
        with self._lock:
            return ok_response(job=self._require_job(message).info())

    def _op_wait(self, message: Dict[str, Any]) -> Dict[str, Any]:
        timeout = float(message.get("timeout", WAIT_SLICE_SECONDS))
        deadline = time.monotonic() + max(0.0,
                                          min(timeout, WAIT_SLICE_SECONDS))
        with self._cond:
            job = self._require_job(message)
            while job.status not in TERMINAL:
                left = deadline - time.monotonic()
                if left <= 0:
                    break
                self._cond.wait(left)
            return ok_response(job=job.info())

    def _op_results(self, message: Dict[str, Any]) -> Dict[str, Any]:
        with self._lock:
            job = self._require_job(message)
            if job.status != "done":
                return error_response(
                    f"job {job.job_id} is {job.status}, not done",
                    status=job.status)
            if job.results is not None:
                return ok_response(results=job.results)
        if abs(job.scale - self.scale) > 1e-9:
            return error_response(
                f"job {job.job_id} ran at scale {job.scale:g}; daemon now "
                f"pinned to {self.scale:g}")
        # A journal-restored job: its results live in the content-
        # addressed cache; serve them without simulating anything.
        results: Dict[str, dict] = {}
        for workload, config in job.pairs:
            hit = self.cache.load(workload, config)
            if hit is None:
                return error_response(
                    f"results for {pair_key(workload, config)} evicted "
                    f"from the cache; resubmit the job")
            results[pair_key(workload, config)] = hit.to_dict()
        with self._lock:
            job.results = results
        return ok_response(results=results)

    def _op_cancel(self, message: Dict[str, Any]) -> Dict[str, Any]:
        with self._cond:
            job = self._require_job(message)
            if job.status != "queued":
                return error_response(
                    f"job {job.job_id} is {job.status}; only queued jobs "
                    f"can be cancelled", status=job.status)
            self._finish_job(job, "cancelled")
        return ok_response(job=job.info())

    def _op_stats(self, message: Dict[str, Any]) -> Dict[str, Any]:
        with self._lock:
            stats = dict(self.stats)
            stats.update({
                "scale": self.scale,
                "worker_jobs": self.jobs,
                "queued": len(self._queue),
                "inflight_pairs": len(self._interested),
                "draining": self._draining,
                "cache": dict(self.cache.counters),
            })
        return ok_response(stats=stats)

    def _op_shutdown(self, message: Dict[str, Any]) -> Dict[str, Any]:
        self.stop("shutdown requested by client")
        return ok_response(draining=True)

    # -- the simulation thread -----------------------------------------------

    def _sim_loop(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._draining:
                    self._cond.wait()
                if not self._queue:
                    break              # draining and nothing left
                batch: List[Job] = []
                for job in self._queue:
                    if job.status != "queued":
                        continue
                    job.status = "running"
                    batch.append(job)
                self._queue.clear()
                self._cond.notify_all()
            if batch:
                self._run_batch(batch)

    def _run_batch(self, batch: List[Job]) -> None:
        """One deduplicated engine run covering every job in ``batch``."""
        union: List[Pair] = []
        seen = set()
        interested: Dict[Pair, List[Job]] = {}
        for job in batch:
            for pair in job.pairs:
                interested.setdefault(pair, []).append(job)
                if pair not in seen:
                    seen.add(pair)
                    union.append(pair)
        with self._lock:
            self._interested = interested
        try:
            try:
                results = self.engine.run(union)
            except Exception:
                # One bad pair must not fail its neighbours' jobs: fall
                # back to per-job runs and let only the culprit fail.
                self._run_jobs_individually(batch, interested)
                return
            with self._lock:
                self.stats["pairs_simulated"] += self.engine.pairs_simulated
            for job in batch:
                job.results = {
                    pair_key(w, c): results[(w, c)].to_dict()
                    for w, c in job.pairs
                }
                self._finish_job(job, "done")
        finally:
            with self._cond:
                self._interested = {}
                self._last_activity = time.monotonic()
                self._cond.notify_all()

    def _run_jobs_individually(self, batch: List[Job],
                               interested: Dict[Pair, List[Job]]) -> None:
        for job in batch:
            with self._lock:
                self._interested = {
                    pair: jobs for pair, jobs in interested.items()
                    if job in jobs
                }
            try:
                results = self.engine.run(job.pairs)
            except Exception as exc:
                _log.warning("job %s failed: %s: %s", job.job_id,
                             type(exc).__name__, exc)
                self._finish_job(job, "failed",
                                 f"{type(exc).__name__}: {exc}")
            else:
                with self._lock:
                    self.stats["pairs_simulated"] += \
                        self.engine.pairs_simulated
                job.results = {
                    pair_key(w, c): results[(w, c)].to_dict()
                    for w, c in job.pairs
                }
                self._finish_job(job, "done")

    def _finish_job(self, job: Job, status: str,
                    error: Optional[str] = None) -> None:
        """Move a job to a terminal state, durably ordered: the
        journal's ``done`` record hits disk *before* any waiter can
        observe the state, so a client that saw a job finish will find
        it finished again after a daemon restart (kill -9 included)."""
        self._journal_append({"kind": "done", "job_id": job.job_id,
                              "status": status,
                              "time_unix_nano": time.time_ns()})
        with self._cond:
            job.status = status
            if error is not None:
                job.error = error
            if status == "done":
                self.stats["jobs_done"] += 1
            elif status == "failed":
                self.stats["jobs_failed"] += 1
            self._cond.notify_all()

    def _pair_completed(self, workload: str, config: str, start_ns: int,
                        end_ns: int, result) -> None:
        """Engine hook: a pair finished simulating. Update every
        interested job's progress and emit a ``pair`` span into each
        submitting client's trace tree (via its carrier)."""
        key = pair_key(workload, config)
        wall = 0.0
        if result is not None:
            wall = float(result.extra.get("sim_wall_seconds") or 0.0)
        with self._cond:
            jobs = list(self._interested.get((workload, config), ()))
            for job in jobs:
                job.completed.append(
                    {"key": key, "workload": workload, "config": config,
                     "sim_wall_seconds": wall})
                job.simulated += 1
            self._last_activity = time.monotonic()
            self._cond.notify_all()
        for job in jobs:
            if not job.carrier:
                continue
            try:
                Tracer.from_carrier(job.carrier).record_span(
                    "pair", start_ns, end_ns,
                    workload=workload, config=config, key=key,
                    sim_wall_seconds=wall)
            except Exception as exc:
                _log.warning("could not record span for job %s (%s)",
                             job.job_id, exc)
                job.carrier = None     # don't retry a broken carrier

    # -- idle monitor --------------------------------------------------------

    def _idle_monitor(self) -> None:
        assert self.idle_timeout
        tick = max(0.05, min(self.idle_timeout / 4.0, 1.0))
        while not self._stop_event.wait(tick):
            with self._lock:
                busy = bool(self._queue) or bool(self._interested)
                idle_for = time.monotonic() - self._last_activity
            if not busy and idle_for > self.idle_timeout:
                _log.info("idle for %.1fs; shutting down", idle_for)
                self.stop(f"idle timeout ({self.idle_timeout:g}s)")
                return


def serve(address: str, jobs: int = 1, cache: Optional[ResultCache] = None,
          state_dir: Optional[str] = None,
          idle_timeout: Optional[float] = None, obs=None,
          ready: Optional[threading.Event] = None) -> int:
    """Run a daemon until SIGTERM/SIGINT (graceful drain), an ``op:
    shutdown`` request, or the idle timeout. Returns the exit code."""
    import signal

    server = ServiceServer(address, jobs=jobs, cache=cache,
                           state_dir=state_dir, idle_timeout=idle_timeout,
                           obs=obs)
    server.start()
    if ready is not None:
        ready.set()

    def _on_signal(signum, _frame):
        server.stop(f"signal {signal.Signals(signum).name}")

    installed = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            installed[signum] = signal.signal(signum, _on_signal)
        except ValueError:       # pragma: no cover - non-main thread
            pass
    try:
        server.join()
    finally:
        for signum, previous in installed.items():
            signal.signal(signum, previous)
    return 0
