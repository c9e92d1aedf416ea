"""Exact divisor calculus on rational and ruled 4-manifold lattices."""

from .lattice import (
    AmbientLattice,
    AreaVector,
    HomologyClass,
    adjunction_genus,
    area,
    canonical,
    is_exceptional_class,
    pair,
    sw_index,
)
from .divisor import DivisorConfig, check_hypothesis, smooth_all, total_class, validate

__all__ = [
    "AmbientLattice",
    "AreaVector",
    "HomologyClass",
    "adjunction_genus",
    "area",
    "canonical",
    "is_exceptional_class",
    "pair",
    "sw_index",
    "DivisorConfig",
    "check_hypothesis",
    "smooth_all",
    "total_class",
    "validate",
]
