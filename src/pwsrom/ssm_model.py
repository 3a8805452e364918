"""Container for one SSM branch: chart, polynomial parametrization, reduced
dynamics and optional time-periodic forcing correction, with JSON round-trip.

The parametrization maps reduced coordinates y (dim d) to observables
x = x0 + tangent @ y + sum_p nl(p) y^p (+ eps * 2 Re[v_hat1 e^{i omega t}]);
the chart maps back through y = chart_w @ (x - x0). Reduced dynamics are a
polynomial map of y plus the periodic forcing term when a correction is set.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .poly2 import Poly2, vector_poly


@dataclass(frozen=True)
class PeriodicCorrection:
    """Order-eps time-periodic correction, truncated to the n = +-1 modes.

    h_hat_1 is the slave-coordinate Fourier amplitude (modal construction
    only); v_hat_1 and r_hat_1 are the observable-space and reduced-dynamics
    amplitudes. The n = -1 amplitudes are the complex conjugates.
    """

    omega: float
    eps: float
    r_hat_1: np.ndarray
    v_hat_1: np.ndarray
    h_hat_1: Optional[np.ndarray] = None

    @property
    def h_hat_minus_1(self):
        return None if self.h_hat_1 is None else np.conj(self.h_hat_1)

    def lift_term(self, t: float) -> np.ndarray:
        return self.eps * 2.0 * (self.v_hat_1 * np.exp(1j * self.omega * t)).real

    def forcing_term(self, t: float) -> np.ndarray:
        return self.eps * 2.0 * (self.r_hat_1 * np.exp(1j * self.omega * t)).real


@dataclass
class SsmModel:
    branch: str
    x0: np.ndarray
    tangent: np.ndarray                  # (n, d)
    chart_w: np.ndarray                  # (d, n), chart_w @ tangent = I
    nl_coeffs: dict                      # {(p1,p2): (n,) array}, orders >= 2
    rdyn: dict                           # {(p1,p2): (d,) array}, orders >= 1
    correction: Optional[PeriodicCorrection] = None
    source: str = "analytic"
    meta: dict = field(default_factory=dict)
    # polynomial models are only trusted where data constrained them; outside
    # this reduced-coordinate radius the field is evaluated on the ball and
    # pulled back inward, so transients cannot ride the extrapolation tail
    trust_radius: Optional[float] = None

    def __post_init__(self):
        self.x0 = np.asarray(self.x0, dtype=float)
        self.tangent = np.asarray(self.tangent, dtype=float)
        self.chart_w = np.asarray(self.chart_w, dtype=float)
        self._lift_poly = vector_poly(
            {(1, 0): self.tangent[:, 0], (0, 1): self.tangent[:, 1],
             **self.nl_coeffs})
        self._rdyn_poly = vector_poly(self.rdyn)
        self._jac = [self._lift_poly.diff(0), self._lift_poly.diff(1)]
        self._pull = 2.0 * np.linalg.norm(self.linear_block(), 2) if self.rdyn else 0.0

    @property
    def dim(self) -> int:
        return len(self.x0)

    @property
    def lift_poly(self) -> Poly2:
        return self._lift_poly

    def lift(self, y, t: Optional[float] = None) -> np.ndarray:
        x = self.x0 + self._lift_poly(y)
        if self.correction is not None and t is not None:
            x = x + self.correction.lift_term(t)
        return x

    def lift_jacobian(self, y) -> np.ndarray:
        return np.column_stack([self._jac[0](y), self._jac[1](y)])

    def chart(self, x) -> np.ndarray:
        return self.chart_w @ (np.asarray(x, dtype=float) - self.x0)

    def reduced_field(self, t: float, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if self.trust_radius is not None:
            r = float(np.linalg.norm(y))
            if r > self.trust_radius:
                u = y / r
                y_c = self.trust_radius * u
                dy = self._rdyn_poly(y_c)
                if self.correction is not None:
                    dy = dy + self.correction.forcing_term(t)
                return dy - self._pull * (r - self.trust_radius) * u
        dy = self._rdyn_poly(y)
        if self.correction is not None:
            dy = dy + self.correction.forcing_term(t)
        return dy

    def linear_block(self) -> np.ndarray:
        d = self.tangent.shape[1]
        A = np.zeros((d, d))
        A[:, 0] = self.rdyn.get((1, 0), np.zeros(d))
        A[:, 1] = self.rdyn.get((0, 1), np.zeros(d))
        return A

    # ---------------- serialization ----------------

    def to_dict(self) -> dict:
        def key(p):
            return f"({p[0]},{p[1]})"

        def graded_lex(kv):
            return (kv[0][0] + kv[0][1], kv[0][1])

        out = {
            "branch": self.branch,
            "fixed_point": self.x0.tolist(),
            "V": self.meta.get("V", self.tangent).tolist()
                 if isinstance(self.meta.get("V", self.tangent), np.ndarray)
                 else self.meta.get("V"),
            "tangent": self.tangent.tolist(),
            "chart_w": self.chart_w.tolist(),
            "h": {key(p): np.asarray(v).tolist() for p, v in
                  sorted(self.meta.get("h", self.nl_coeffs).items(),
                         key=graded_lex)},
            "nl": {key(p): np.asarray(v).tolist()
                   for p, v in sorted(self.nl_coeffs.items(), key=graded_lex)},
            "r": {key(p): np.asarray(v).tolist()
                  for p, v in sorted(self.rdyn.items(), key=graded_lex)},
            "source": self.source,
        }
        if self.correction is not None:
            c = self.correction
            out["correction"] = {
                "omega": c.omega,
                "eps": c.eps,
                "h_hat_1": _c2l(c.h_hat_1),
                "r_hat_1": _c2l(c.r_hat_1),
                "v_hat_1": _c2l(c.v_hat_1),
            }
        else:
            out["correction"] = None
        if self.trust_radius is not None:
            out["trust_radius"] = self.trust_radius
        return out

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1)

    @classmethod
    def from_dict(cls, d: dict) -> "SsmModel":
        def unkey(s):
            a, b = s.strip("()").split(",")
            return (int(a), int(b))
        corr = None
        if d.get("correction"):
            c = d["correction"]
            corr = PeriodicCorrection(
                omega=c["omega"], eps=c["eps"],
                r_hat_1=_l2c(c["r_hat_1"]), v_hat_1=_l2c(c["v_hat_1"]),
                h_hat_1=_l2c(c["h_hat_1"]))
        meta = {}
        if d.get("V") is not None:
            meta["V"] = np.asarray(d["V"], dtype=float)
        if d.get("h"):
            meta["h"] = {unkey(k): np.asarray(v) for k, v in d["h"].items()}
        return cls(
            branch=d["branch"],
            x0=np.asarray(d["fixed_point"], dtype=float),
            tangent=np.asarray(d["tangent"], dtype=float),
            chart_w=np.asarray(d["chart_w"], dtype=float),
            nl_coeffs={unkey(k): np.asarray(v, dtype=float)
                       for k, v in d["nl"].items()},
            rdyn={unkey(k): np.asarray(v, dtype=float)
                  for k, v in d["r"].items()},
            correction=corr,
            source=d.get("source", "analytic"),
            meta=meta,
            trust_radius=d.get("trust_radius"),
        )

    @classmethod
    def from_json(cls, path) -> "SsmModel":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def _c2l(z):
    if z is None:
        return None
    z = np.atleast_1d(z)
    return [[float(v.real), float(v.imag)] for v in z]


def _l2c(pairs):
    if pairs is None:
        return None
    return np.array([complex(re, im) for re, im in pairs])
