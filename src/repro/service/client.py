"""Client side of the simulation service.

Two layers:

* :class:`ServiceClient` — a thin wire client: one persistent socket,
  one :meth:`request` per protocol op, connect retry with exponential
  backoff, transparent one-shot reconnect if the daemon bounced between
  requests. Raises :class:`~repro.service.protocol.ServiceError` for
  ``ok: false`` responses and unreachable daemons.

* :class:`RemoteEngine` — duck-types
  :class:`~repro.experiments.pool.SweepEngine` (``run(pairs)``,
  ``pairs_simulated``, ``fill_seconds``, ``pairs_per_min``) over a
  daemon, so ``run_all --server`` and ``dse --server`` route through it
  without either caller changing shape. It drives the same obs hook
  sequence the local engine does — ``sweep_started`` only when the
  daemon reports cold pairs, per-pair ``pair_started``/``pair_done`` as
  the job's ``completed`` list grows — and hands the daemon a span
  carrier so server-side ``pair`` spans land in *this* client's trace
  tree, parented under its sweep span.

The division of labour with the daemon: results always come back as
``SimResult`` dicts over the wire (no client-side cache probing), so a
client needs no shared filesystem with the daemon beyond the spans file
named in its carrier (and none at all without ``--obs-dir``).
"""

from __future__ import annotations

import logging
import socket
import time
from types import SimpleNamespace
from typing import Any, Dict, Iterable, List, Optional

from ..experiments.pool import expected_cost, pair_key
from ..stats.counters import SimResult
from ..trace.workloads import scale_factor
from .protocol import (
    PROTOCOL_VERSION,
    Pair,
    ProtocolError,
    ServiceError,
    decode,
    encode,
    parse_address,
)

_log = logging.getLogger(__name__)

#: Connect attempts before :class:`ServiceError` (with backoff between).
DEFAULT_RETRIES = 4

#: First backoff sleep; doubles per retry (0.1, 0.2, 0.4, ...).
DEFAULT_BACKOFF_SECONDS = 0.1

#: Server-side blocking slice a ``wait`` request asks for.
DEFAULT_WAIT_SLICE = 10.0


class ServiceClient:
    """A connection to one daemon; usable as a context manager.

    ``timeout`` is the per-request socket timeout (None blocks forever
    — fine for ``wait``, which the server bounds itself).
    """

    def __init__(self, address: str, retries: int = DEFAULT_RETRIES,
                 backoff: float = DEFAULT_BACKOFF_SECONDS,
                 timeout: Optional[float] = 60.0) -> None:
        self.address = address
        self.retries = max(1, int(retries))
        self.backoff = backoff
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._file = None

    # -- connection management ----------------------------------------------

    def _connect_once(self) -> None:
        kind, where = parse_address(self.address)
        if kind == "unix":
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        else:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.settimeout(self.timeout)
        sock.connect(where)
        self._sock = sock
        self._file = sock.makefile("rb")

    def connect(self) -> None:
        """Connect with retry + exponential backoff (daemon may still be
        binding its socket, or systemd may be mid-restart)."""
        if self._sock is not None:
            return
        delay = self.backoff
        for attempt in range(self.retries):
            try:
                self._connect_once()
                return
            except OSError as exc:
                last = exc
                if attempt + 1 < self.retries:
                    time.sleep(delay)
                    delay *= 2
        raise ServiceError(
            f"cannot reach simulation service at {self.address!r} "
            f"after {self.retries} attempts: {last}")

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def __enter__(self) -> "ServiceClient":
        self.connect()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- requests ------------------------------------------------------------

    def _roundtrip(self, payload: bytes) -> Dict[str, Any]:
        assert self._sock is not None and self._file is not None
        self._sock.sendall(payload)
        line = self._file.readline()
        if not line:
            raise BrokenPipeError("service closed the connection")
        return decode(line)

    def request(self, op: str, **fields: Any) -> Dict[str, Any]:
        """One request/response exchange; returns the response fields.

        A dead connection (daemon restarted between requests) gets one
        transparent reconnect-and-resend; ``ok: false`` raises
        :class:`ServiceError` carrying the server's ``error`` string.
        """
        self.connect()
        payload = encode({"op": op, **fields})
        try:
            response = self._roundtrip(payload)
        except (OSError, ProtocolError):
            self.close()
            self.connect()
            response = self._roundtrip(payload)
        version = response.get("schema_version")
        if isinstance(version, int) and version > PROTOCOL_VERSION:
            _log.warning("service speaks protocol v%s, this client v%s; "
                         "unknown fields will be ignored",
                         version, PROTOCOL_VERSION)
        if not response.get("ok"):
            raise ServiceError(
                str(response.get("error", "service request failed")))
        return response

    # -- op wrappers ---------------------------------------------------------

    def ping(self) -> Dict[str, Any]:
        return self.request("ping")["server"]

    def peek(self, pairs: Iterable[Pair]) -> List[str]:
        """The ``workload::config`` keys the daemon would simulate."""
        return self.request(
            "peek", pairs=[list(p) for p in pairs])["cold"]

    def submit(self, pairs: Iterable[Pair],
               carrier: Optional[Dict[str, str]] = None) -> str:
        message: Dict[str, Any] = {
            "pairs": [list(p) for p in pairs],
            "scale": scale_factor(),
        }
        if carrier is not None:
            message["carrier"] = carrier
        return self.request("submit", **message)["job_id"]

    def status(self, job_id: str) -> Dict[str, Any]:
        return self.request("status", job_id=job_id)["job"]

    def wait_slice(self, job_id: str,
                   timeout: float = DEFAULT_WAIT_SLICE) -> Dict[str, Any]:
        """Block up to ``timeout`` seconds server-side for the job to
        reach a terminal state; returns the (possibly running) status."""
        return self.request("wait", job_id=job_id, timeout=timeout)["job"]

    def results(self, job_id: str) -> Dict[str, dict]:
        return self.request("results", job_id=job_id)["results"]

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self.request("cancel", job_id=job_id)["job"]

    def stats(self) -> Dict[str, Any]:
        return self.request("stats")["stats"]

    def shutdown(self) -> None:
        self.request("shutdown")


def probe(address: str, timeout: float = 2.0) -> Optional[Dict[str, Any]]:
    """One cheap liveness probe: the daemon's ``ping`` info, or ``None``
    if nothing answers at ``address`` (no retries — this is the
    fall-back-to-local decision point, it must be fast)."""
    client = ServiceClient(address, retries=1, timeout=timeout)
    try:
        with client:
            return client.ping()
    except (ServiceError, OSError, ProtocolError):
        return None


class RemoteEngine:
    """A :class:`~repro.experiments.pool.SweepEngine` look-alike that
    simulates by submitting jobs to a daemon (see module docstring).

    One instance may serve many :meth:`run` calls (DSE generations);
    the connection persists across them.
    """

    def __init__(self, address: str, obs=None,
                 client: Optional[ServiceClient] = None) -> None:
        self.address = address
        self.obs = obs
        self.client = client if client is not None \
            else ServiceClient(address, timeout=None)
        self.fill_seconds = 0.0
        self.pairs_simulated = 0
        #: The daemon's worker count (for obs/progress display).
        self.jobs = 1
        self._pinged = False
        if obs is not None:
            # Tell the observer the engine is remote: the daemon emits
            # the pair spans (through our carrier), so the host-side
            # observer must not double-record them.
            obs.remote = True

    def __enter__(self) -> "RemoteEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        self.client.close()

    @property
    def pairs_per_min(self) -> float:
        if not self.fill_seconds:
            return 0.0
        return self.pairs_simulated * 60.0 / self.fill_seconds

    def run(self, pairs: Iterable[Pair]) -> Dict[Pair, SimResult]:
        """Run every pair through the daemon; mirrors
        ``SweepEngine.run`` (dedup, results for all pairs, obs hook
        sequence, ``pairs_simulated`` / ``fill_seconds``)."""
        start = time.perf_counter()
        ordered: List[Pair] = []
        seen = set()
        for pair in pairs:
            pair = (pair[0], pair[1])
            if pair not in seen:
                seen.add(pair)
                ordered.append(pair)
        if not ordered:
            self.pairs_simulated = 0
            self.fill_seconds = time.perf_counter() - start
            return {}

        if not self._pinged:
            self.jobs = int(self.client.ping().get("jobs", 1))
            self._pinged = True

        obs = self.obs
        # Matching the local engine's contract: a sweep span (and a
        # progress bar) only exists when something is cold. ``peek`` is
        # advisory — another client may fill a pair first, in which case
        # fewer ``pair_done`` events arrive than ``todo`` promised.
        cold_keys = set(self.client.peek(ordered))
        todo = [p for p in ordered if pair_key(*p) in cold_keys]
        sweeping = bool(todo) and obs is not None
        if sweeping:
            obs.sweep_started(todo, len(ordered),
                              {p: expected_cost(p) for p in todo},
                              self.jobs)
        try:
            carrier = obs.worker_carrier() if obs is not None else None
            job_id = self.client.submit(ordered, carrier=carrier)
            info = self._drain(job_id)
        finally:
            if sweeping:
                obs.sweep_finished(self)
        if info["status"] != "done":
            raise ServiceError(
                f"service job {job_id} ended {info['status']}"
                + (f": {info['error']}" if info.get("error") else ""))
        self.pairs_simulated = int(info.get("simulated", 0))
        raw = self.client.results(job_id)
        results: Dict[Pair, SimResult] = {}
        for pair in ordered:
            results[pair] = SimResult.from_dict(raw[pair_key(*pair)])
        self.fill_seconds = time.perf_counter() - start
        return results

    def _drain(self, job_id: str) -> Dict[str, Any]:
        """Poll ``wait`` until terminal, feeding each newly completed
        pair to the obs hooks."""
        obs = self.obs
        reported = 0
        while True:
            info = self.client.wait_slice(job_id)
            for entry in info.get("completed", [])[reported:]:
                reported += 1
                workload = entry.get("workload", "")
                config = entry.get("config", "")
                if obs is not None:
                    obs.pair_started(workload, config)
                    obs.pair_done(workload, config, SimpleNamespace(
                        extra={"sim_wall_seconds":
                               entry.get("sim_wall_seconds", 0.0)}))
            if info["status"] not in ("queued", "running"):
                return info
