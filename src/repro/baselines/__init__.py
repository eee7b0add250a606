"""Baseline competitors: filter-and-verify, MIR2-tree, LkT/IR-tree."""

from .base import BaselineIndex, FilterThenVerify
from .lkt import IRTree
from .mir2tree import MIR2Tree

__all__ = [
    "BaselineIndex",
    "FilterThenVerify",
    "IRTree",
    "MIR2Tree",
]
