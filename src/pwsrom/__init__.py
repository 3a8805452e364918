"""Reduced-order models of piecewise-smooth dynamical systems built on unions
of spectral submanifolds: full-model hybrid integration, analytic and
data-driven manifold construction, switched reduced dynamics, and the
validation analyses (coefficient tables, forced response curves, return maps,
limit cycles)."""

from .core import (
    BoundaryClassification,
    BoundaryKind,
    EventKind,
    HybridTrajectory,
    IntegratorOptions,
    PiecewiseSmoothSystem,
    RepellingSlidingError,
    classify_boundary,
    filippov_field,
    integrate_hybrid,
)
from .ssm_model import PeriodicCorrection, SsmModel

__version__ = "0.1.0"
