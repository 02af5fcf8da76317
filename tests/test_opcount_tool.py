"""``tools/opcount.py``: the bytecode-count gate's verdicts and its
function-to-stage map."""

import ast
import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "opcount.py"
_spec = importlib.util.spec_from_file_location("opcount_tool", TOOL)
opcount = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(opcount)

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _counts(bytecodes, instructions=20_000):
    stages = dict.fromkeys(opcount.STAGES, 0)
    stages["loop"] = bytecodes
    return {"instructions": instructions, "bytecodes": bytecodes,
            "calls": instructions, "stages": stages}


def _table(python="3.11.7", **bytecodes):
    return {"python": python,
            "configs": {key: _counts(n) for key, n in bytecodes.items()}}


def test_matching_counts_pass():
    lines, status = opcount.verdict({"a": _counts(5_000_000)},
                                    _table(a=5_000_000), "3.11.9")
    assert status == 0
    assert lines == ["every count matches the table"]


def test_more_than_the_tolerance_above_the_table_fails():
    table = _table(a=5_000_000, b=5_000_000)
    counts = {"a": _counts(5_050_001), "b": _counts(5_000_000)}
    lines, status = opcount.verdict(counts, table, "3.11.7")
    assert status == 1
    assert any(line.startswith("FAIL a: 250.0 -> 252.5") for line in lines)


def test_a_rise_within_the_tolerance_passes():
    lines, status = opcount.verdict({"a": _counts(5_040_000)},
                                    _table(a=5_000_000), "3.11.7")
    assert status == 0
    assert lines == ["ok a: 250.0 -> 252.0 (+0.8%, within 1%)"]


def test_a_lower_count_passes_and_asks_for_a_re_record():
    table = _table(a=5_000_000, b=5_000_000)
    counts = {"a": _counts(4_000_000), "b": _counts(5_000_000)}
    lines, status = opcount.verdict(counts, table, "3.11.7")
    assert status == 0
    assert "lower a: 250.0 -> 200.0 (-20.0%)" in lines
    assert "re-record" in lines[-1] and "--write" in lines[-1]


def test_a_rise_elsewhere_still_fails_beside_a_lower_count():
    table = _table(a=5_000_000, b=5_000_000)
    counts = {"a": _counts(4_000_000), "b": _counts(6_000_000)}
    lines, status = opcount.verdict(counts, table, "3.11.7")
    assert status == 1
    assert not any("re-record it" in line for line in lines)


def test_a_table_from_another_minor_version_is_refused():
    lines, status = opcount.verdict({"a": _counts(5_000_000)},
                                    _table("3.12.1", a=5_000_000), "3.11.7")
    assert status == 1
    assert "3.12.1" in lines[0] and "3.11.7" in lines[0]


def test_a_table_with_other_configurations_is_refused():
    lines, status = opcount.verdict({"a": _counts(5_000_000)},
                                    _table(a=5_000_000, b=1), "3.11.7")
    assert status == 1
    assert "re-record" in lines[0]


def test_the_tolerance_is_one_percent_and_every_config_is_counted():
    assert opcount.TOLERANCE == 0.01
    keys = opcount.configs()
    assert len(keys) == 7 and len(set(keys)) == 7
    assert "server_000/conv32" in keys
    assert "server_000+client_000/ubs" in keys


def _qualnames(node, prefix=""):
    """Every function's ``__qualname__`` under ``node``, as CPython
    derives it: classes nest with ``.``, functions with ``.<locals>.``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = prefix + child.name
            yield name
            yield from _qualnames(child, name + ".<locals>.")
        elif isinstance(child, ast.ClassDef):
            yield from _qualnames(child, prefix + child.name + ".")
        else:
            yield from _qualnames(child, prefix)


def test_every_stage_map_key_names_a_repro_function():
    defined = set()
    for path in SRC.rglob("*.py"):
        defined.update(_qualnames(ast.parse(path.read_text())))
    assert "Core._simulate.<locals>.run_bpu" in defined
    stale = sorted(set(opcount.STAGE_OF) - defined)
    assert not stale, f"STAGE_OF names functions repro no longer has: {stale}"
    assert set(opcount.STAGE_OF.values()) <= set(opcount.STAGES)


def test_nested_code_counts_with_its_enclosing_function():
    assert opcount.stage_of("Core._simulate.<locals>.run_fdip") == "fdip"
    assert opcount.stage_of(
        "UBSICache._install_victim.<locals>.<listcomp>") == "fills"
    assert opcount.stage_of("Core._arbitrate.<locals>.<lambda>") == "loop"
    assert opcount.stage_of("EfficiencySampler.maybe_sample") == "other"


def test_the_synthesis_row_follows_the_simulated_configs():
    assert opcount.SYNTH_KEY == "synth/server_000"
    assert opcount.SYNTH_KEY not in opcount.configs()


def test_every_synthesis_stage_key_names_a_trace_function():
    defined = set()
    for module in opcount.SYNTH_MODULES:
        path = SRC.parent / (module.replace(".", "/") + ".py")
        defined.update(name.split(".")[0]
                       for name in _qualnames(ast.parse(path.read_text())))
    stale = sorted(set(opcount.SYNTH_STAGE_OF) - defined)
    assert not stale, f"SYNTH_STAGE_OF names no synthesis code: {stale}"
    assert set(opcount.SYNTH_STAGE_OF.values()) <= set(opcount.SYNTH_STAGES)


def test_synthesis_stages():
    stage = opcount.synth_stage_of
    assert stage("random:Random._randbelow_with_getrandbits") == "random"
    assert stage("TraceWalker.run") == "walk"
    assert stage("ProgramBuilder._build_function.<locals>.add") == "build"
    assert stage("Program.layout") == "build"
    assert stage("generate_trace") == "other"


def test_each_set_of_stages_gets_its_own_header():
    synth = {"instructions": 10, "bytecodes": 50, "calls": 10,
             "stages": dict.fromkeys(opcount.SYNTH_STAGES, 0)}
    lines = opcount.render({"a": _counts(5_000_000), "b": _counts(5_000_000),
                            opcount.SYNTH_KEY: synth})
    assert lines[0].startswith("per simulated instruction")
    assert lines[3].startswith("per synthesised instruction")
    assert lines[4].startswith(opcount.SYNTH_KEY)
    assert len(lines) == 5
