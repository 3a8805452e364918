"""Two-degree-of-freedom oscillator with a cubic spring and Coulomb friction
on the first mass.

State x = (q1, dq1, q2, dq2). The friction coefficient delta is the friction
deceleration (gravity already absorbed). Branch '+' is valid for dq1 > 0 and
carries the -delta friction term; both branch fields are smooth extensions
defined on the whole state space.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from .core import PiecewiseSmoothSystem


@dataclass(frozen=True)
class SpParams:
    m1: float = 1.0
    m2: float = 1.0
    c: float = 0.3
    k: float = 1.0
    alpha: float = 0.5
    delta: float = 0.0
    eps: float = 0.0
    omega: float = 1.0

    def __post_init__(self):
        if min(self.m1, self.m2, self.k) <= 0:
            raise ValueError("masses and stiffness must be positive")
        if min(self.c, self.alpha, self.delta, self.eps) < 0:
            raise ValueError("c, alpha, delta, eps must be nonnegative")
        object.__setattr__(self, "_values", astuple(self))  # read by sp_field


@dataclass(frozen=True)
class SpFixedPoints:
    q0_plus: float
    q0_minus: float

    @property
    def x0_plus(self) -> np.ndarray:
        return np.array([self.q0_plus, 0.0, 0.5 * self.q0_plus, 0.0])

    @property
    def x0_minus(self) -> np.ndarray:
        return np.array([self.q0_minus, 0.0, 0.5 * self.q0_minus, 0.0])

    def x0(self, branch: str) -> np.ndarray:
        return self.x0_plus if branch == "+" else self.x0_minus


def sp_field(params: SpParams, branch: str, t: float, x) -> tuple:
    """Branch vector field (smooth extension, optional cosine forcing) in floats."""
    m1, m2, c, k, a, delta, eps, omega = params._values
    s = -1.0 if branch == "+" else 1.0
    x1, x2, x3, x4 = x if isinstance(x, tuple) else x.tolist()
    force = 0.0
    if eps:
        force = eps * math.cos(omega * t) / math.sqrt(2.0)
    return (
        x2,
        (-2 * k * x1 - c * x2 + k * x3 + c * x4 - a * x1 ** 3 + force) / m1 + s * delta,
        x4,
        (k * x1 + c * x2 - 2 * k * x3 - 2 * c * x4 + force) / m2,
    )


# the switching surface (index, level) of the full model and the ROM:
# sigma(x) = dq1, the velocity with which the friction force flips sign
SP_SURFACE = (1, 0.0)


def sp_elastic_term(params: SpParams, x: np.ndarray) -> float:
    """Net non-friction acceleration of mass 1 on the switching surface."""
    m1, c, k, a = params.m1, params.c, params.k, params.alpha
    return (-2 * k * x[0] + k * x[2] + c * x[3] - a * x[0] ** 3) / m1


def _cardano(p: float, q: float) -> float:
    # unique real root of t^3 + p t + q = 0 for p > 0; both cbrt arguments
    # are nonnegative, which keeps the evaluation stable
    d = np.sqrt(0.25 * q * q + p ** 3 / 27.0)
    return np.cbrt(d - 0.5 * q) - np.cbrt(d + 0.5 * q)


def sp_fixed_points(params: SpParams) -> SpFixedPoints:
    """Closed-form branch equilibria q0 of alpha q^3 + (3k/2) q +- delta m1 = 0."""
    if params.alpha == 0.0:
        q0p = -2.0 * params.delta * params.m1 / (3.0 * params.k)
        return SpFixedPoints(q0_plus=q0p, q0_minus=-q0p)
    p = 1.5 * params.k / params.alpha
    q = params.delta * params.m1 / params.alpha
    q0p = _cardano(p, q)
    return SpFixedPoints(q0_plus=q0p, q0_minus=-q0p)


@dataclass(frozen=True)
class SpShifted:
    """Shifted system around a branch fixed point.

    xi = x - x0 obeys xi' = a_tilde xi + (0, c2 xi1^2 + c3 xi1^3, 0, 0) with
    c2 = -3 alpha q0 / m1, c3 = -alpha / m1; the constant term vanishes at the
    fixed point. a_tilde does not depend on the branch (q0 enters squared).
    """

    branch: str
    q0: float
    a_tilde: np.ndarray
    c2: float
    c3: float


def sp_shifted(params: SpParams, branch: str) -> SpShifted:
    fp = sp_fixed_points(params)
    q0 = fp.q0_plus if branch == "+" else fp.q0_minus
    m1, m2, c, k, a = params.m1, params.m2, params.c, params.k, params.alpha
    a_tilde = np.array([
        [0.0, 1.0, 0.0, 0.0],
        [(-2 * k - 3 * a * q0 ** 2) / m1, -c / m1, k / m1, c / m1],
        [0.0, 0.0, 0.0, 1.0],
        [k / m2, c / m2, -2 * k / m2, -2 * c / m2],
    ])
    return SpShifted(branch=branch, q0=q0, a_tilde=a_tilde,
                     c2=-3 * a * q0 / m1, c3=-a / m1)


def sp_forcing_vector(params: SpParams) -> np.ndarray:
    """Amplitude vector of the cosine forcing in first-order form."""
    return np.array([0.0, 1.0 / params.m1, 0.0, 1.0 / params.m2]) / np.sqrt(2.0)


def make_system(params: SpParams) -> PiecewiseSmoothSystem:
    return PiecewiseSmoothSystem(
        f_plus=lambda t, x: sp_field(params, "+", t, x),
        f_minus=lambda t, x: sp_field(params, "-", t, x),
        surface=SP_SURFACE,
        delta=params.delta,
    )
