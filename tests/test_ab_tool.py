"""``tools/ab.py``: the interleaved A/B schedule and its summary lines."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ab.py"
_spec = importlib.util.spec_from_file_location("ab_tool", TOOL)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.24},
    {"name": "sim_kips", "unit": "kinstr/s", "better": "higher",
     "bound": 0.24},
]


def _run(wall, kips, failed=0, attempted=12):
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "sim_kips": {"value": kips, "unit": "kinstr/s"}}}


def test_schedule_alternates_the_first_side():
    runs = ab.schedule(["solo_sweep", "fill_cold"], 701, 3)
    assert [(w, s) for w, s, _ in runs] == [
        ("solo_sweep", 701), ("solo_sweep", 702), ("solo_sweep", 703),
        ("fill_cold", 701), ("fill_cold", 702), ("fill_cold", 703)]
    assert [order[0] for _, _, order in runs[:3]] == \
        ["base", "change", "base"]
    assert all(sorted(order) == ["base", "change"] for _, _, order in runs)


def test_summary_counts_wins_by_direction_and_flags_spread():
    pairs = [(_run(2.0, 100), _run(1.5, 130)),
             (_run(2.1, 100), _run(1.4, 90)),
             (_run(1.9, 100), _run(2.0, 140))]
    lines, ok = ab.summarise("solo_sweep", pairs, END_TO_END)
    assert ok
    wall = next(line for line in lines if "wall_s" in line)
    assert "base 2 s" in wall and "change 1.5 s" in wall
    assert "won 2/3" in wall
    assert "differ by more than the base IQR" in wall
    assert "ratios 0.750 0.667 1.053" in wall
    kips = next(line for line in lines if "sim_kips" in line)
    assert "won 2/3" in kips and "median ratio 1.300" in kips
    assert "  base: failed operations 0/36, correct 3/3 runs" in lines
    assert "  change: failed operations 0/36, correct 3/3 runs" in lines


def test_medians_within_the_base_spread():
    pairs = [(_run(1.0, 100), _run(1.1, 100)),
             (_run(2.0, 100), _run(1.9, 100)),
             (_run(3.0, 100), _run(2.0, 100))]
    lines, _ok = ab.summarise("smt_corun", pairs, END_TO_END)
    wall = next(line for line in lines if "wall_s" in line)
    assert "base 2 s (quartiles 1-3, IQR 2)" in wall
    assert "change 1.9 s (quartiles 1.1-2)" in wall
    assert "within the base IQR" in wall


def test_summary_reports_failures():
    pairs = [(_run(2.0, 100), _run(1.5, 130, failed=2)),
             (_run(2.0, 100), {"error": "exit 1: boom"})]
    lines, ok = ab.summarise("fill_cold", pairs, END_TO_END)
    assert not ok
    assert lines[0] == "fill_cold: 1 of 2 pairs complete"
    assert ("  change: failed operations 2/12, correct 0/2 runs, "
            "1 runs failed (exit 1: boom)") in lines


def test_traced_lines_side_by_side():
    per_layer = [{"name": "trace.synth_s", "unit": "s"},
                 {"name": "absent", "unit": "s"}]
    base = {"metrics": {"trace.synth_s": {"value": 1.5, "unit": "s"}}}
    change = {"metrics": {"trace.synth_s": {"value": 0.75, "unit": "s"}}}
    lines = ab.traced_lines("solo_sweep", base, change, per_layer)
    assert len(lines) == 2
    assert "trace.synth_s" in lines[1] and "1.5" in lines[1] \
        and "0.75" in lines[1]
