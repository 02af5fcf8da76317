"""Experiment drivers: one per table/figure of the paper's evaluation.

Every driver builds on :mod:`repro.experiments.runner`, which caches
simulation results on disk (``.repro_cache/``) so the full benchmark suite
only ever simulates each (workload, configuration) pair once.
"""

from .runner import ResultCache, run_pair
from .pool import SweepEngine, run_pairs
from . import report

__all__ = ["ResultCache", "SweepEngine", "report", "run_pair", "run_pairs"]
