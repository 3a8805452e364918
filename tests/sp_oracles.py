"""Closed-form sticking of the friction oscillator, the tests' oracle for the
Filippov convention: while mass 1 is held on the surface dq1 = 0, it stays
held as long as the spring, damper and forcing pull on it lies strictly inside
the friction cone, and mass 2 moves as a linear oscillator."""

import math

import numpy as np

from pwsrom.shaw_pierre import SpParams, sp_elastic_term


def sp_surface_pull(params: SpParams, x, t: float = 0.0) -> float:
    """Non-friction acceleration of mass 1 on the surface, forcing included."""
    force = params.eps * math.cos(params.omega * t) / math.sqrt(2.0)
    return sp_elastic_term(params, x) + force / params.m1


def sp_sticking_test(params: SpParams, x, t: float = 0.0) -> bool:
    return abs(sp_surface_pull(params, x, t)) < params.delta


def sp_sliding_field(params: SpParams, t: float, x) -> np.ndarray:
    m2, c, k = params.m2, params.c, params.k
    force = params.eps * math.cos(params.omega * t) / math.sqrt(2.0)
    return np.array([0.0, 0.0, x[3],
                     (k * x[0] - 2 * k * x[2] - 2 * c * x[3] + force) / m2])
