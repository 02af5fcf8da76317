"""No exception on the cycle loop's paths.

Raising and catching an exception costs several times an ``in`` guard, so
the L1-I models and the back-end test for membership instead of catching
``ValueError`` from ``list.index`` (or ``KeyError`` from a dict) where a
miss is common, and loop instead of ending ``all(<genexpr>)`` early (which
throws ``GeneratorExit`` into the generator's frame). This guard runs each
L1-I family under ``sys.settrace`` and fails if a ``ValueError``,
``KeyError`` or ``GeneratorExit`` passes through any frame of the package
while ``Machine.run`` executes. A generator's ``StopIteration`` is how
Python ends iteration and does not count.

The ``GeneratorExit`` check takes effect on Python 3.11 and earlier only.
From 3.12 on, closing a generator paused at a ``yield`` with no handler
around it just marks it finished: nothing is thrown, so the tracer sees
no event (and the early exit costs no exception either).
"""

import sys
from pathlib import Path

import pytest

import repro
from repro.cpu.machine import build_machine
from repro.trace.synthesis import generate_trace
from repro.trace.workloads import get_workload

PACKAGE_DIR = str(Path(repro.__file__).resolve().parent)

WARMUP, MEASURE = 1000, 3000

#: One configuration per L1-I model, a 16-way DSE point, a UBS without a
#: 64-byte way (its fills split long runs) and the predictor's
#: associative victim path.
CONFIGS = ("conv32", "small16", "distill32", "ubs",
           "ubs_v4.4.8.8.8.12.12.16.24.32.36.36.52.60.64.64",
           "ubs_v8.16.24.32.48", "ubs_pred_sa8lru", "ideal")


@pytest.fixture(scope="module")
def trace():
    return generate_trace(get_workload("server_000").spec, WARMUP + MEASURE)


#: Exceptions no per-cycle path may raise.
FLAGGED = (ValueError, KeyError, GeneratorExit)


def caught_in_package(run) -> list:
    """``(exception, function, line)`` for every flagged exception seen
    by a frame of the package while ``run()`` executes."""
    seen = []

    def in_frame(frame, event, arg):
        if event == "exception" and issubclass(arg[0], FLAGGED):
            seen.append((arg[0].__name__, frame.f_code.co_name,
                         frame.f_lineno))
        return in_frame

    def on_call(frame, event, arg):
        if not frame.f_code.co_filename.startswith(PACKAGE_DIR):
            return None
        frame.f_trace_lines = False
        return in_frame

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(previous)
    return seen


def test_tracer_sees_a_caught_value_error():
    """The probe itself works: a caught ValueError in a package frame
    (a malformed way-size vector) is reported."""
    from repro.cpu.machine import build_icache
    from repro.errors import ConfigurationError

    def malformed():
        with pytest.raises(ConfigurationError):
            build_icache("ubs_vx")

    seen = caught_in_package(malformed)
    assert ("ValueError", "build_icache") in {s[:2] for s in seen}


@pytest.mark.skipif(sys.version_info >= (3, 12),
                    reason="from 3.12 on, closing a generator paused outside "
                           "any handler throws no GeneratorExit")
def test_tracer_sees_a_closed_generator():
    """A generator of the package ended early by ``all`` is reported."""
    from repro.dse import pareto

    def early_exit():
        # ``dominates`` ends ``all(<genexpr>)`` at the first failing pair.
        assert not pareto.dominates((1.0, 0.0), (0.0, 1.0))

    seen = caught_in_package(early_exit)
    assert ("GeneratorExit", "<genexpr>") in {s[:2] for s in seen}


@pytest.mark.parametrize("config", CONFIGS)
def test_machine_run_raises_nothing(trace, config):
    machine = build_machine(trace, config)
    result = []
    seen = caught_in_package(
        lambda: result.append(machine.run(WARMUP, MEASURE)))
    assert result[0].instructions == MEASURE
    assert seen == []
