"""Decoupled front-end: branch prediction, FTQ and FDIP."""

from .perceptron import HashedPerceptron
from .btb import BTB
from .ras import ReturnAddressStack
from .bpu import BranchPredictionUnit, Resteer
from .ftq import FetchRange

__all__ = [
    "BTB",
    "BranchPredictionUnit",
    "FetchRange",
    "HashedPerceptron",
    "Resteer",
    "ReturnAddressStack",
]
