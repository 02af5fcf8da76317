"""Exact outputs of the analysis passes, pinned as literals.

The values were recorded from the per-instruction implementation of each
pass on the shared ``tiny_trace`` fixture (30,001 instructions of the
``test_small`` synthetic program) and on server_000 at REPRO_SCALE 0.05.
The columnar passes must reproduce them exactly, floats included.
"""

from repro.analysis.reuse import reuse_distance_histogram, working_set_curve
from repro.analysis.trace_stats import (
    BranchProfile,
    FootprintReport,
    branch_profile,
    footprint,
    instruction_mix,
    run_length_profile,
)

MIX = {
    "ALU": 0.4287190426985767,
    "FP": 0.05073164227859071,
    "CALL_IND": 0.0050331655611479615,
    "MUL": 0.07839738675377488,
    "BR_COND": 0.09549681677277425,
    "LOAD": 0.2101929935668811,
    "RET": 0.010832972234258859,
    "JUMP": 0.009133028899036699,
    "CALL": 0.005866471117629412,
    "STORE": 0.10559648011732942,
}

RUN_LENGTHS = {
    4: 44, 8: 145, 12: 327, 16: 277, 20: 44, 24: 1593, 28: 417, 32: 50,
    36: 237, 40: 86, 44: 17, 48: 69, 52: 30, 56: 16, 64: 49, 88: 2,
    96: 12, 152: 2, 160: 27, 328: 1, 340: 57, 380: 28,
}


class TestTinyTrace:
    def test_length(self, tiny_trace):
        assert len(tiny_trace) == 30_001

    def test_footprint(self, tiny_trace):
        assert footprint(tiny_trace) == FootprintReport(
            instructions=30_001, unique_pcs=601, unique_blocks=51)

    def test_instruction_mix(self, tiny_trace):
        assert instruction_mix(tiny_trace).fractions == MIX

    def test_branch_profile(self, tiny_trace):
        assert branch_profile(tiny_trace) == BranchProfile(
            branches=3791, taken=3530, conditional=2865,
            conditional_taken=2604, static_sites=68,
            avg_basic_block_instrs=7.913743075705619)

    def test_run_length_profile(self, tiny_trace):
        assert dict(run_length_profile(tiny_trace)) == RUN_LENGTHS

    def test_reuse_distance_histogram(self, tiny_trace):
        assert reuse_distance_histogram(tiny_trace) == {
            "cold": 51, "<8": 243, "<16": 522, "<32": 428, "<64": 513}

    def test_working_set_curve(self, tiny_trace):
        assert working_set_curve(tiny_trace) == [
            (0, 3.1875), (10000, 3.1875), (20000, 3.0625), (30000, 0.0625)]

    def test_working_set_curve_uneven_window(self, tiny_trace):
        assert working_set_curve(tiny_trace, window=7000) == [
            (0, 3.0625), (7000, 2.625), (14000, 3.0625), (21000, 2.875),
            (28000, 2.625)]


def test_contention_features_server_000(monkeypatch, tmp_path):
    import repro.experiments.runner as runner_mod
    from repro.experiments.runner import ResultCache
    from repro.smt.pairing import contention_features

    monkeypatch.setenv("REPRO_SCALE", "0.05")
    monkeypatch.setattr(runner_mod, "_default_cache", ResultCache(tmp_path))
    assert contention_features("server_000") == {
        "footprint_kib": 23.5,
        "reuse_tail": 0.2363293526084224,
    }
