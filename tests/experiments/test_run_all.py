"""Tests of the cache prefill CLI's pair enumeration and fill paths."""

import json

import pytest

import repro.experiments.run_all as run_all_mod
import repro.experiments.runner as runner_mod
from repro.experiments.run_all import all_pairs, main

from ..trace_columns import head


class TestAllPairs:
    def test_no_duplicates(self):
        pairs = all_pairs()
        assert len(pairs) == len(set(pairs))

    def test_covers_every_benchmark_config(self):
        pairs = set(all_pairs())
        needed_configs = {
            "conv16", "conv32", "conv64", "conv128", "conv192",
            "conv32_16w", "conv32_ghrp", "conv32_acic", "distill32",
            "small16", "small32", "ubs",
            "ubs_budget16", "ubs_budget20", "ubs_budget64", "ubs_budget128",
            "ubs_pred_dm128", "ubs_pred_sa8lru", "ubs_pred_sa8fifo",
            "ubs_pred_full",
            "ubs_ways10c1", "ubs_ways18c2",
        }
        present = {c for _w, c in pairs}
        assert needed_configs <= present

    def test_google_only_needs_analysis_configs(self):
        pairs = all_pairs()
        google_configs = {c for w, c in pairs if w.startswith("google_")}
        assert google_configs == {"conv32", "ubs"}

    def test_cvp_configs(self):
        pairs = all_pairs()
        cvp_configs = {c for w, c in pairs if w.startswith("cvp_")}
        assert cvp_configs == {"conv32", "conv64", "ubs"}

    def test_every_config_buildable(self):
        from repro.cpu.machine import build_icache
        for _w, config in all_pairs():
            build_icache(config)  # raises on unknown names


class TestCli:
    def test_list_prints_pairs(self, capsys):
        assert main(["--list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(all_pairs())
        assert lines[0].split() == list(all_pairs()[0])

    def test_pairs_regex_filters(self, capsys):
        assert main(["--list", "--pairs", r"^server_000::ubs$"]) == 0
        assert capsys.readouterr().out.split() == ["server_000", "ubs"]

    def test_pairs_regex_matches_config_only(self, capsys):
        assert main(["--list", "--pairs", "::ideal"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines and all(line.endswith(" ideal") for line in lines)

    def test_bad_regex_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--list", "--pairs", "("])
        assert exc.value.code == 2

    def test_unknown_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--job", "2"])  # typo must not be silently ignored
        assert exc.value.code == 2


class TestFill:
    """Serial and process-pool fills must produce identical caches."""

    PAIRS = [("client_000", "conv32"), ("client_000", "ubs"),
             ("client_001", "conv32"), ("client_001", "ubs")]

    def _fill(self, tmp_path, monkeypatch, name, argv, scale="0.03"):
        cache_dir = tmp_path / name
        monkeypatch.setenv("REPRO_SCALE", scale)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        monkeypatch.setattr(runner_mod, "_default_cache", None)
        monkeypatch.setattr(run_all_mod, "all_pairs", lambda: self.PAIRS)
        assert main(argv) == 0
        results = {}
        for path in sorted((cache_dir / "results").glob("*.json")):
            with open(path) as fh:
                data = json.load(fh)
            for key in ("sim_wall_seconds", "sim_cycles_per_sec",
                        "sim_instrs_per_sec"):
                data.get("extra", {}).pop(key, None)
            results[path.name] = data
        return results

    def test_parallel_fill_matches_serial(self, tmp_path, monkeypatch):
        serial = self._fill(tmp_path, monkeypatch, "serial", [])
        parallel = self._fill(tmp_path, monkeypatch, "parallel",
                              ["--jobs", "2"])
        assert len(serial) == len(self.PAIRS)
        assert parallel == serial

    def test_four_job_fill_matches_serial(self, tmp_path, monkeypatch):
        """The acceptance check: a --jobs 4 fill at REPRO_SCALE=0.05 is
        byte-identical (modulo host-timing extras) to a serial fill."""
        serial = self._fill(tmp_path, monkeypatch, "serial4", [],
                            scale="0.05")
        parallel = self._fill(tmp_path, monkeypatch, "parallel4",
                              ["--jobs", "4"], scale="0.05")
        assert len(serial) == len(self.PAIRS)
        assert parallel == serial

    def test_pairs_filter_limits_fill(self, tmp_path, monkeypatch):
        filled = self._fill(tmp_path, monkeypatch, "filtered",
                            ["--pairs", "client_000::"])
        assert len(filled) == 2
        assert all(name.startswith("client_000__") for name in filled)


class TestChampSimImport:
    """A real (imported) ChampSim trace round-trips through run_all:
    exported bytes -> champsim:<path> workload -> sweep engine -> cached
    result, with no synthetic-suite machinery involved."""

    def test_champsim_round_trip(self, tmp_path, monkeypatch, tiny_trace):
        from repro.trace.champsim import write_champsim

        trace_file = tmp_path / "real.champsim"
        write_champsim(trace_file, head(tiny_trace, 4000))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setattr(runner_mod, "_default_cache", None)
        monkeypatch.setattr(run_all_mod, "all_pairs", lambda: [])
        assert main(["--champsim", str(trace_file),
                     "--pairs", "::conv32"]) == 0
        name = f"champsim:{trace_file}"
        result = runner_mod.default_cache().load(name, "conv32")
        assert result is not None
        assert result.workload == name
        assert result.cycles > 0
        # The imported window covers the whole trace (1:3 split).
        assert result.instructions == 3000

    def test_champsim_list_names_import_pairs(self, tmp_path, monkeypatch,
                                              capsys):
        trace_file = tmp_path / "real.champsim"
        trace_file.write_bytes(b"\0" * 64)
        monkeypatch.setattr(run_all_mod, "all_pairs", lambda: [])
        assert main(["--list", "--champsim", str(trace_file)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [f"champsim:{trace_file} conv32",
                         f"champsim:{trace_file} ubs"]


class TestObsDir:
    """--obs-dir turns a fill into a queryable run directory."""

    PAIRS = [("client_000", "conv32"), ("client_000", "ubs"),
             ("client_001", "conv32"), ("client_001", "ubs")]

    def _fill(self, tmp_path, monkeypatch, argv):
        monkeypatch.setenv("REPRO_SCALE", "0.03")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setattr(runner_mod, "_default_cache", None)
        monkeypatch.setattr(run_all_mod, "all_pairs", lambda: self.PAIRS)
        assert main(argv) == 0

    def test_run_dir_artifacts(self, tmp_path, monkeypatch, capsys):
        obs_dir = tmp_path / "obs"
        self._fill(tmp_path, monkeypatch,
                   ["--jobs", "2", "--obs-dir", str(obs_dir)])
        assert (obs_dir / "manifest.json").exists()
        assert (obs_dir / "spans.jsonl").exists()
        assert (obs_dir / "metrics.json").exists()
        manifest = json.loads((obs_dir / "manifest.json").read_text())
        assert manifest["kind"] == "run_all"
        assert manifest["config"]["jobs"] == 2
        metrics = json.loads((obs_dir / "metrics.json").read_text())
        assert metrics["status"] == "OK"
        assert metrics["metrics"]["pairs_simulated"] == len(self.PAIRS)
        assert metrics["metrics"]["result_cache.stores"] == len(self.PAIRS)
        out = capsys.readouterr().out
        assert "cache 0 hits / 4 misses / 4 stored" in out
        assert f"obs: {obs_dir}" in out

    def test_report_covers_every_pair(self, tmp_path, monkeypatch):
        from repro.obs.report import report_data

        obs_dir = tmp_path / "obs"
        self._fill(tmp_path, monkeypatch,
                   ["--jobs", "2", "--obs-dir", str(obs_dir)])
        data = report_data(obs_dir)
        (sweep,) = data["tree"][0]["children"]
        keys = sorted(c["attributes"]["key"] for c in sweep["children"])
        assert keys == sorted(f"{w}::{c}" for w, c in self.PAIRS)
        assert data["coverage"] >= 0.95

    def test_env_var_equivalent(self, tmp_path, monkeypatch):
        obs_dir = tmp_path / "obs-env"
        monkeypatch.setenv("REPRO_OBS_DIR", str(obs_dir))
        self._fill(tmp_path, monkeypatch, [])
        assert (obs_dir / "metrics.json").exists()

    def test_no_obs_dir_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_OBS_DIR", raising=False)
        self._fill(tmp_path, monkeypatch, [])
        assert not list(tmp_path.glob("**/spans.jsonl"))
