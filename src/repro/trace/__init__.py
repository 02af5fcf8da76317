"""Trace substrate: instruction records, trace I/O and synthetic workloads."""

from .record import Instruction, InstrKind, is_branch_kind, is_memory_kind
from .arrays import ArrayTrace
from .io import read_trace, write_trace
from .program import BasicBlock, Function, Program, TermKind
from .synthesis import ProgramBuilder, SynthesisSpec, TraceWalker, generate_trace
from .workloads import (
    Workload,
    WorkloadFamily,
    all_families,
    get_workload,
    suite,
    workload_names,
)

__all__ = [
    "ArrayTrace",
    "BasicBlock",
    "Function",
    "Instruction",
    "InstrKind",
    "Program",
    "ProgramBuilder",
    "SynthesisSpec",
    "TermKind",
    "TraceWalker",
    "Workload",
    "WorkloadFamily",
    "all_families",
    "generate_trace",
    "get_workload",
    "is_branch_kind",
    "is_memory_kind",
    "read_trace",
    "suite",
    "workload_names",
    "write_trace",
]
