"""Decoupled front-end: branch prediction, FTQ and FDIP."""

from .perceptron import HashedPerceptron
from .btb import BTB
from .ras import ReturnAddressStack
from .bpu import BranchPredictionUnit, Resteer

__all__ = [
    "BTB",
    "BranchPredictionUnit",
    "HashedPerceptron",
    "Resteer",
    "ReturnAddressStack",
]
