"""Spans around the simulator's public layer calls, recorded from outside.

The benchmark never edits the program to trace it. For a traced
repetition it swaps each public entry point listed in
:meth:`SpanRecorder.installed` for a wrapper that records one span per
call (never per cycle), then puts the originals back. The spans come
from a :class:`repro.obs.spans.Tracer` whose writer keeps them in
memory; they are written once at exit so ``python -m repro.obs report
<dir>`` can render them.

Pool workers are forked while :meth:`SweepEngine.run` is active, so they
inherit the wrappers and the open span stack: their spans parent to the
host's ``pool.run`` span. Each worker appends its spans to a side file
when a pair finishes (the host cannot see worker memory); the host reads
that file back after the repetition.
"""

from __future__ import annotations

import functools
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.obs.report import build_tree
from repro.obs.spans import SpanWriter, Tracer, read_spans

#: Span-name prefix -> the repository layer its self time is charged to.
LAYERS = (
    ("trace.", "trace"),
    ("machine.build", "precompute"),
    ("machine.run", "machine"),
    ("smt.", "smt"),
    ("cache.", "experiments"),
    ("pool.", "experiments"),
    ("dse.", "dse"),
)

#: Root spans the benchmark opens around each phase of a repetition.
ROOT_SETUP = "rep.setup"
ROOT_TIMED = "rep.timed"


def layer_of(name: str) -> Optional[str]:
    for prefix, layer in LAYERS:
        if name.startswith(prefix):
            return layer
    return None


class MemoryWriter:
    """A :class:`~repro.obs.spans.Tracer` writer that keeps each finished
    span in memory. A forked pool worker starts with a copy of the host's
    records; it drops them at its first span."""

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []
        self._pid = os.getpid()

    def write(self, record: Dict[str, Any]) -> None:
        if os.getpid() != self._pid:
            self._pid = os.getpid()
            self.records = []
        self.records.append(record)


class SpanRecorder:
    """The spans of one traced repetition, and the wrappers that make them."""

    def __init__(self, worker_path: Path) -> None:
        self.writer = MemoryWriter()
        self.tracer = Tracer(self.writer)
        self.worker_path = Path(worker_path)
        self._config: Dict[int, str] = {}     # id(machine) -> config name
        # Traces already built once, kept alive so that CPython cannot
        # hand a freed trace's id to a new one.
        self._seen_traces: Dict[int, Any] = {}

    def flush_worker(self) -> None:
        """Append this worker's spans to the side file."""
        writer = SpanWriter(self.worker_path)
        for record in self.writer.records:
            writer.write(record)
        self.writer.records = []

    def collect_workers(self) -> None:
        """Fold the workers' side-file spans into this recorder."""
        self.writer.records += read_spans(self.worker_path)
        self.worker_path.unlink(missing_ok=True)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn: Callable, name: str,
              attrs: Optional[Callable] = None) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with recorder.tracer.span(name):
                out = fn(*args, **kwargs)
            if attrs is not None:
                # The span just ended is the last one written.
                recorder.writer.records[-1]["attributes"].update(
                    attrs(out, *args, **kwargs))
            return out

        return traced

    def _build_attrs(self, machine, trace, config, *_a, **_k):
        self._config[id(machine)] = config
        first = id(trace) not in self._seen_traces
        self._seen_traces[id(trace)] = trace
        return {"config": config, "first": first}

    def _run_attrs(self, _out, machine, warmup, measure, *_a, **_k):
        return {"config": self._config.get(id(machine)),
                "cycles": machine.cycle, "instrs": warmup + measure}

    def _smt_build_attrs(self, machine, _traces, config, *_a, **_k):
        self._config[id(machine)] = config
        return {"config": config}

    def _smt_run_attrs(self, _out, machine, windows, *_a, **_k):
        return {"config": self._config.get(id(machine)),
                "cycles": machine.cycle,
                "instrs": sum(w + m for w, m in windows)}

    def _worker_pair(self, fn: Callable) -> Callable:
        recorder = self
        traced = self._wrap(fn, "pool.pair",
                            lambda _out, workload, config, *_a, **_k:
                            {"workload": workload, "config": config})

        @functools.wraps(fn)
        def flushed(*args, **kwargs):
            try:
                return traced(*args, **kwargs)
            finally:
                recorder.flush_worker()

        return flushed

    @contextmanager
    def installed(self) -> Iterator["SpanRecorder"]:
        """Swap every traced entry point in, and restore on exit."""
        from repro import smt as smt_pkg
        from repro.cpu import machine as machine_mod
        from repro.dse import search as search_mod
        from repro.dse.journal import SearchJournal
        from repro.experiments import pool as pool_mod
        from repro.experiments import runner
        from repro.smt import machine as smt_machine_mod
        from repro.trace import synthesis
        from repro.trace import workloads as workloads_mod
        from repro.trace.arrays import ArrayTrace

        n_attr = (lambda _out, _spec, n, *_a, **_k: {"n": n})
        build = machine_mod.build_machine
        # (owner, attribute, replacement). A name is patched where its
        # callers look it up: the benchmark calls through the defining
        # module, the experiment runner through its own imported names.
        targets = [
            (synthesis, "generate_trace",
             self._wrap(synthesis.generate_trace, "trace.generate", n_attr)),
            (workloads_mod, "generate_trace",
             self._wrap(workloads_mod.generate_trace, "trace.generate",
                        n_attr)),
            (ArrayTrace, "from_instructions", classmethod(self._wrap(
                ArrayTrace.__dict__["from_instructions"].__func__,
                "trace.to_array"))),
            (runner, "read_trace",
             self._wrap(runner.read_trace, "trace.read")),
            (runner, "write_trace",
             self._wrap(runner.write_trace, "trace.write")),
        ]
        for owner in (machine_mod, runner):
            targets.append((owner, "build_machine", self._wrap(
                build, "machine.build",
                lambda out, trace, config, *_a, **_k:
                self._build_attrs(out, trace, config))))
        targets += [
            (machine_mod.Machine, "run",
             self._wrap(machine_mod.Machine.run, "machine.run",
                        self._run_attrs)),
        ]
        targets += [
            (smt_pkg, "build_smt_machine", self._wrap(
                smt_pkg.build_smt_machine, "smt.build",
                lambda out, traces, config, *_a, **_k:
                self._smt_build_attrs(out, traces, config))),
            (smt_machine_mod.SMTMachine, "run",
             self._wrap(smt_machine_mod.SMTMachine.run, "smt.run",
                        self._smt_run_attrs)),
            (runner.ResultCache, "load",
             self._wrap(runner.ResultCache.load, "cache.load")),
            (runner.ResultCache, "store",
             self._wrap(runner.ResultCache.store, "cache.store")),
            (pool_mod.SweepEngine, "run",
             self._wrap(pool_mod.SweepEngine.run, "pool.run")),
            (pool_mod, "_worker_run_pair",
             self._worker_pair(pool_mod._worker_run_pair)),
            (search_mod, "run_search",
             self._wrap(search_mod.run_search, "dse.search")),
            (SearchJournal, "append_eval",
             self._wrap(SearchJournal.append_eval, "dse.journal_append")),
        ]
        saved = []
        for owner, attr, replacement in targets:
            # Read the raw attribute so class/static methods restore as
            # the descriptors they were.
            raw = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            saved.append((owner, attr, raw))
            setattr(owner, attr, replacement)
        try:
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)


# -- span arithmetic -----------------------------------------------------------


def _dur(span: Dict[str, Any]) -> float:
    return max(0, span["end_time_unix_nano"]
               - span["start_time_unix_nano"]) / 1e9


def span_metrics(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Per-layer figures of one traced repetition, all from its spans."""
    out: Dict[str, float] = {}

    def total(name: str, **match: Any) -> float:
        return sum(_dur(s) for s in spans if s["name"] == name
                   and all(s["attributes"].get(k) == v
                           for k, v in match.items()))

    synth = total("trace.generate")
    generated = sum(s["attributes"].get("n", 0) for s in spans
                    if s["name"] == "trace.generate")
    out["trace.synth_s"] = synth
    out["trace.synth_kips"] = generated / synth / 1e3 if synth else 0.0
    out["trace.to_array_s"] = total("trace.to_array")
    out["trace.atrace_write_s"] = total("trace.write")
    out["trace.atrace_read_s"] = total("trace.read")
    out["machine.build_first_s"] = total("machine.build", first=True)
    out["machine.build_s"] = total("machine.build", first=False)
    for kind in ("machine", "smt"):
        per_cfg: Dict[str, List[float]] = {}
        for s in spans:
            if s["name"] == f"{kind}.run":
                config = s["attributes"]["config"]
                # The free-form geometries a DSE search visits share one
                # figure.
                if config.startswith("ubs_v"):
                    config = "ubs_v"
                acc = per_cfg.setdefault(config, [0.0, 0])
                acc[0] += _dur(s)
                acc[1] += s["attributes"]["cycles"]
        for config, (seconds, cycles) in per_cfg.items():
            out[f"{kind}.run_s.{config}"] = seconds
            out[f"{kind}.run_ns_per_cycle.{config}"] = \
                seconds / cycles * 1e9 if cycles else 0.0
    out["smt.build_s"] = total("smt.build")
    out["pool.fill_s"] = total("pool.run")
    out["cache.store_s"] = total("cache.store")
    out["dse.journal_append_s"] = total("dse.journal_append")
    search = total("dse.search")
    if search:
        out["dse.overhead_s"] = search - out["pool.fill_s"]

    self_by_layer: Dict[str, float] = {}
    unattributed = 0.0
    stack = build_tree(spans)
    while stack:
        node = stack.pop()
        layer = layer_of(node.name)
        if layer is not None:
            self_by_layer[layer] = self_by_layer.get(layer, 0.0) + node.self_s
        elif node.name == ROOT_TIMED:
            unattributed += node.self_s
        stack.extend(node.children)
    for _prefix, layer in LAYERS:
        out[f"self_s.{layer}"] = self_by_layer.get(layer, 0.0)
    out["tracing.unattributed_s"] = unattributed
    out["tracing.spans"] = float(len(spans))
    return out


def write_spans(path: Path, spans: List[Dict[str, Any]]) -> None:
    """Write every span to a fresh ``repro.obs`` span file."""
    path.unlink(missing_ok=True)
    writer = SpanWriter(path)
    for span in spans:
        writer.write(span)
