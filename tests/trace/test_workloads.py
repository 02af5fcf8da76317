"""Workload suite tests."""

import pytest

from repro.errors import ConfigurationError
from repro.trace.arrays import ArrayTrace
from repro.trace.workloads import (
    PERF_FAMILIES,
    Workload,
    WorkloadFamily,
    all_families,
    get_workload,
    scale_factor,
    suite,
    workload_names,
)


class TestSuite:
    def test_default_families(self):
        names = {w.family for w in suite()}
        assert names == {"google", "server", "client", "spec"}

    def test_all_families_have_workloads(self):
        for family in all_families():
            assert workload_names(family), family

    def test_server_family_size(self):
        assert len(workload_names(WorkloadFamily.SERVER)) == 12

    def test_names_are_unique(self):
        names = workload_names()
        assert len(names) == len(set(names))

    def test_get_workload(self):
        wl = get_workload("server_003")
        assert wl.family == WorkloadFamily.SERVER
        assert wl.spec.name == "server_003"

    def test_unknown_workload(self):
        with pytest.raises(ConfigurationError, match="unknown workload"):
            get_workload("nope_001")

    def test_unknown_family(self):
        with pytest.raises(ConfigurationError, match="unknown workload family"):
            suite(["bogus"])

    def test_perf_families_exclude_google(self):
        assert WorkloadFamily.GOOGLE not in PERF_FAMILIES

    def test_specs_all_valid(self):
        # Construction alone runs SynthesisSpec validation for every preset.
        for wl in suite(all_families()):
            assert wl.spec.n_functions > 1

    def test_google_uses_variable_isa(self):
        for name in workload_names(WorkloadFamily.GOOGLE):
            assert get_workload(name).spec.isa == "variable"

    def test_ipc_families_use_fixed_isa(self):
        for family in PERF_FAMILIES:
            for name in workload_names(family):
                assert get_workload(name).spec.isa == "fixed4"

    def test_cvp_seeds_differ_from_main(self):
        cvp = get_workload("cvp_srv_000")
        srv = get_workload("server_000")
        assert cvp.spec.seed != srv.spec.seed


class TestScaling:
    def test_default_scale(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert scale_factor() == 1.0

    def test_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.5")
        assert scale_factor() == 0.5
        wl = get_workload("client_000")
        warmup, measure = wl.windows()
        assert warmup == wl.warmup // 2
        assert measure == wl.measure // 2

    def test_bad_scale(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "banana")
        with pytest.raises(ConfigurationError):
            scale_factor()

    def test_negative_scale(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "-1")
        with pytest.raises(ConfigurationError):
            scale_factor()

    def test_windows_floor(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.0001")
        warmup, measure = get_workload("client_000").windows()
        assert warmup >= 1000 and measure >= 2000


class TestGeneration:
    def test_generate_scales(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.02")
        wl = get_workload("spec_000")
        trace = wl.generate()
        warmup, measure = wl.windows()
        assert isinstance(trace, ArrayTrace)
        assert len(trace) >= warmup + measure
