"""One run session for the fill CLIs: observer, engine and final metrics.

``run_all``, ``smt_matrix`` and ``dse`` all fill the result cache through
one engine, with the same ``--obs-dir``/``--server`` options and the same
end of run. :class:`RunSession` is that shared part::

    with RunSession("run_all", argv, opts, jobs, config) as session:
        session.engine.run(pairs)
        session.metrics["pairs_selected"] = len(pairs)

On entry it picks the observer (:class:`~repro.obs.RunObs` with a run
directory, a progress-only :class:`~repro.obs.ProgressObs` without) and
the engine: a :class:`~repro.service.RemoteEngine` when ``--server`` (or
``REPRO_SERVER``) names a daemon that answers, else a persistent local
:class:`~repro.experiments.pool.SweepEngine`. On exit it closes the
engine and finishes the observer with ``metrics.json`` holding the
result cache's counters plus the CLI's own :attr:`metrics`.
"""

from __future__ import annotations

import argparse
import os
from typing import Any, Dict, List

from ..obs import ProgressObs, RunObs, SweepProgress, resolve_obs_dir
from .pool import SweepEngine
from .runner import default_cache


def add_session_arguments(parser: argparse.ArgumentParser) -> None:
    """The ``--obs-dir`` and ``--server`` options :class:`RunSession`
    reads."""
    parser.add_argument(
        "--obs-dir", default=None, metavar="DIR",
        help="write run observability artifacts (manifest, span trace, "
             "heartbeats, metrics) into DIR; defaults to $REPRO_OBS_DIR, "
             "off when neither is set")
    parser.add_argument(
        "--server", default=None, metavar="ADDR",
        help="route the simulations through a running simulation daemon "
             "(unix:/path or host:port; see docs/service.md); defaults "
             "to $REPRO_SERVER, local execution when neither is set or "
             "the daemon does not answer")


class RunSession:
    """The observer and engine of one CLI run (see the module docstring).

    :attr:`jobs` is the worker count the run gets: the requested one
    locally, the daemon's when routed through a service, whose address
    is then :attr:`server` (None for a local run).
    """

    def __init__(self, kind: str, argv: List[str], opts: argparse.Namespace,
                 jobs: int, config: Dict[str, Any]) -> None:
        self.obs_dir = resolve_obs_dir(opts.obs_dir)
        if self.obs_dir is not None:
            self.obs = RunObs.create(self.obs_dir, kind,
                                     argv=[kind] + list(argv), config=config)
        else:
            self.obs = ProgressObs(SweepProgress())
        self.cache = default_cache()
        self.jobs = jobs
        self.server = None
        #: The CLI's own figures, written to ``metrics.json`` after
        #: the result cache's counters.
        self.metrics: Dict[str, Any] = {}
        server = opts.server or os.environ.get("REPRO_SERVER")
        if server:
            from ..service import RemoteEngine, probe

            info = probe(server)
            if info is None:
                print(f"service at {server} not answering; "
                      f"running locally", flush=True)
            else:
                self.server = server
                self.engine = RemoteEngine(server, obs=self.obs)
                self.jobs = int(info.get("jobs", 1))
                print(f"routing through service at {server} "
                      f"(pid {info.get('pid')}, jobs={self.jobs})",
                      flush=True)
        if self.server is None:
            self.engine = SweepEngine(jobs=jobs, cache=self.cache,
                                      obs=self.obs, persistent=True)

    def __enter__(self) -> "RunSession":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        metrics = self.cache.metrics()
        metrics.update(self.metrics)
        if self.server is not None:
            metrics["server"] = self.server
        self.engine.close()
        self.obs.finish(metrics=metrics,
                        status="OK" if exc_type is None else "ERROR")
        if exc_type is None and self.obs_dir is not None:
            print(f"obs: {self.obs_dir}", flush=True)
