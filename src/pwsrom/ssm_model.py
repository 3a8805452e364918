"""Container for one SSM branch: chart, polynomial parametrization, reduced
dynamics and optional time-periodic forcing correction, with JSON round-trip.

The parametrization maps reduced coordinates y = (y1, y2) to observables
x = x0 + tangent @ y + sum_p nl(p) y^p (+ eps * 2 Re[v_hat1 e^{i omega t}]);
the chart maps back through y = chart_w @ (x - x0). Reduced dynamics are a
polynomial map of y plus the periodic forcing term when a correction is set.

The coefficient dicts are the model's data and JSON form; evaluation runs
on a dense form compiled from them at construction. phi(y, t) lists every
monomial up to the model's degree in graded-lex order, (0,0) included, then
1, cos(omega t) and sin(omega t) (zeros without a time). C and J hold the
lift (x0 against the 1) and its two partials interleaved by row over phi;
the forcing enters as the real amplitudes 2 eps Re a and -2 eps Im a against
cos and sin. A call builds the power table of y1 and y2, gathers phi from
it, and contracts. The lift adds its terms one at a time in table order, x0
last, so an unforced lift is bit-identical to the term-by-term (Poly2) sum
of the dicts and full-model runs started from lifted states do not move.

The reduced dynamics (always two coordinates) run in Python floats, which
costs less than numpy calls at this size: the model's nonzero monomials in
table order with libm powers, as the Poly2 sum takes them (so the unforced
field is bit-identical to it), then the cos/sin forcing amplitudes.
reduced_field returns the float pair (y1', y2'), which the float-pair
stepper of pwsrom.core consumes directly. trust_radius is read at every call.

An affine switching function sigma(x) = g . x + c precomposes with the lift
into one scalar polynomial in (y1, y2, cos omega t, sin omega t) whose
coefficients are C @ g (affine_switching, compiled once per (g, c)). It is
evaluated in Python floats in the lift's order: the nonzero monomials, then
x0, cos and sin, then c. For a unit g, as every shipped switching function
has, C @ g is exact and the value equals sigma(lift(y, t)) to the bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .poly2 import monomials


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
        self._compile()
        self._pull = 2.0 * np.linalg.norm(self.linear_block(), 2) if self.rdyn else 0.0

    def _compile(self) -> None:
        """Dense coefficient matrices over one exponent table (module doc)."""
        lift = {(1, 0): self.tangent[:, 0], (0, 1): self.tangent[:, 1],
                **self.nl_coeffs}
        deg = max(p1 + p2 for p1, p2 in [*lift, *self.rdyn])
        exps = monomials(0, deg)
        col = {p: k for k, p in enumerate(exps)}
        n, d, K = self.dim, self.tangent.shape[1], len(exps)
        C = np.zeros((K + 3, n))
        J = np.zeros((n, d, K + 3))
        for (i, j), v in lift.items():
            v = np.asarray(v, dtype=float)
            C[col[i, j]] += v
            if i:
                J[:, 0, col[i - 1, j]] += i * v
            if j:
                J[:, 1, col[i, j - 1]] += j * v
        C[K] = self.x0
        # reduced dynamics: (i, j, coefficient of y1', of y2') per nonzero
        # monomial in table order, and the cos/sin amplitudes of y1', y2'
        self._rterms = [(i, j, *np.asarray(self.rdyn[i, j], dtype=float).tolist())
                        for i, j in exps if np.any(self.rdyn.get((i, j), 0.0))]
        self._omega, self._rforce = 0.0, None
        if self.correction is not None:
            c = self.correction
            self._omega = c.omega
            C[K + 1] = 2.0 * c.eps * np.real(c.v_hat_1)
            C[K + 2] = -2.0 * c.eps * np.imag(c.v_hat_1)
            self._rforce = (2.0 * c.eps * np.real(c.r_hat_1)).tolist() + (
                -2.0 * c.eps * np.imag(c.r_hat_1)).tolist()
        self._deg = deg
        self._affine = {}                               # (g, c) -> sigma o lift
        self._C, self._J = C, J.reshape(n * d, K + 3)
        # phi = P[e1] * P[e2] on P = [y1^0..y1^deg, y2^0..y2^deg, cos, sin]
        one = deg + 1                                   # y2^0
        self._e1 = np.array([i for i, _ in exps] + [one, 2 * one, 2 * one + 1])
        self._e2 = np.array([one + j for _, j in exps] + [one, one, one])

    def _phi(self, y, t) -> np.ndarray:
        y1, y2 = float(y[0]), float(y[1])
        cs = [0.0, 0.0] if t is None else [math.cos(self._omega * t),
                                           math.sin(self._omega * t)]
        pows = range(self._deg + 1)
        P = np.array([y1 ** k for k in pows] + [y2 ** k for k in pows] + cs)
        return P[self._e1] * P[self._e2]

    def _reduced(self, t, y1: float, y2: float) -> tuple:
        """Reduced dynamics at (y1, y2) in Python floats (module doc)."""
        pows = range(self._deg + 1)
        p1, p2 = [y1 ** k for k in pows], [y2 ** k for k in pows]
        f1 = f2 = 0.0
        for i, j, a1, a2 in self._rterms:
            m = p1[i] * p2[j]
            f1 += a1 * m
            f2 += a2 * m
        if t is not None and self._rforce is not None:
            c1, c2, s1, s2 = self._rforce
            wt = self._omega * t
            cw, sw = math.cos(wt), math.sin(wt)
            f1 += c1 * cw + s1 * sw
            f2 += c2 * cw + s2 * sw
        return f1, f2

    @property
    def dim(self) -> int:
        return len(self.x0)

    def lift(self, y, t: Optional[float] = None) -> np.ndarray:
        """Observable state at reduced state y (forced term only with t)."""
        return np.add.reduce(self._C * self._phi(y, t)[:, None])

    def lift_many(self, Y, t=None) -> np.ndarray:
        """Lift of the rows of Y (N, d) at times t (N,), or unforced without
        t: shape (N, n), equal to row-wise lift up to round-off."""
        Y = np.asarray(Y, dtype=float)
        P = np.zeros((len(Y), 2 * self._deg + 4))
        P[:, :-2] = (Y[:, :, None] ** np.arange(self._deg + 1)).reshape(
            len(Y), 2 * self._deg + 2)
        if t is not None:
            wt = self._omega * np.asarray(t, dtype=float)
            P[:, -2] = np.cos(wt)
            P[:, -1] = np.sin(wt)
        return (P[:, self._e1] * P[:, self._e2]) @ self._C

    def affine_switching(self, g, c: float = 0.0):
        """sigma(lift(y, t)) for sigma(x) = g . x + c, as a function
        value(y, t=None) of a reduced pair, compiled once per (g, c)."""
        g = np.asarray(g, dtype=float)
        key = (g.tobytes(), float(c))
        value = self._affine.get(key)
        if value is None:
            value = self._affine[key] = self._compose_affine(g, float(c))
        return value

    def _compose_affine(self, g, c):
        s = (self._C @ g).tolist()
        K, deg, omega = len(s) - 3, self._deg, self._omega
        exps = monomials(0, deg)
        terms = [(i, j, s[k]) for k, (i, j) in enumerate(exps) if s[k]]
        s_x0, s_cos, s_sin = s[K:]
        pows = range(deg + 1)

        def value(y, t=None) -> float:
            y1, y2 = float(y[0]), float(y[1])
            p1, p2 = [y1 ** k for k in pows], [y2 ** k for k in pows]
            v = 0.0
            for i, j, a in terms:
                v += a * (p1[i] * p2[j])
            v += s_x0
            if t is not None:
                wt = omega * t
                v += s_cos * math.cos(wt)
                v += s_sin * math.sin(wt)
            return v + c

        return value

    def lift_jacobian(self, y) -> np.ndarray:
        """d lift / d y, shape (n, d)."""
        return (self._J @ self._phi(y, None)).reshape(self.dim, -1)

    def chart(self, x) -> np.ndarray:
        return self.chart_w @ (np.asarray(x, dtype=float) - self.x0)

    def reduced_field(self, t: float, y) -> tuple:
        """(y1', y2') at reduced state y as a pair of floats."""
        y1, y2 = float(y[0]), float(y[1])
        rho = self.trust_radius
        if rho is not None:
            r = math.hypot(y1, y2)
            if r > rho:
                u1, u2 = y1 / r, y2 / r
                f1, f2 = self._reduced(t, rho * u1, rho * u2)
                pull = self._pull * (r - rho)
                return f1 - pull * u1, f2 - pull * u2
        return self._reduced(t, y1, y2)

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
