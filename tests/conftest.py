"""Shared fixtures for the test suite.

Heavy machine-level tests use small synthetic programs (not the full
workload suite) so the whole suite stays fast on one core.
"""

from __future__ import annotations

import pytest

from repro.trace.synthesis import ProgramBuilder, SynthesisSpec, TraceWalker


def small_spec(**overrides) -> SynthesisSpec:
    base = dict(
        name="test_small",
        seed=42,
        n_functions=60,
        n_entry_points=8,
        units_per_function_mean=4.0,
        hot_block_instrs_mean=4.0,
        p_unit_cold=0.35,
        p_unit_call=0.18,
        p_unit_vcall=0.02,
        data_footprint=64 << 10,
    )
    base.update(overrides)
    return SynthesisSpec(**base)


@pytest.fixture(scope="session")
def tiny_program():
    return ProgramBuilder(small_spec()).build()


@pytest.fixture(scope="session")
def tiny_trace(tiny_program):
    spec = small_spec()
    return TraceWalker(tiny_program, spec).run(30_000)
