"""Data-driven SSM construction: training-trajectory generation from branch
smooth extensions, constrained polynomial least squares for the manifold graph
and reduced dynamics, trajectory-error metrics, chart changes (including
physical-coordinate charts) and the forcing correction for arbitrary charts.

Both regressions stream over the dataset one trajectory at a time: each
trajectory's monomial block is folded into the normal equations and dropped,
so a fit holds one trajectory's regressors, never the stacked dataset.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .core import IntegratorOptions, _integrate_segment
from .poly2 import Poly2, invert_map, monomial_matrix, monomials, vector_poly
from .ssm_model import PeriodicCorrection, SsmModel


class ChartError(RuntimeError):
    pass


class ResonanceError(RuntimeError):
    pass


@dataclass
class TrajectoryDataset:
    """Decaying training trajectories from one branch smooth extension."""

    trajectories: list                 # [(t (N,), y (N, n)), ...]
    branch: str = "+"
    trim_fraction: float = 0.05

    def __post_init__(self):
        for t, y in self.trajectories:
            if not (np.all(np.diff(t) > 0)):
                raise ValueError("time grids must be strictly increasing")
            if not (np.isfinite(t).all() and np.isfinite(y).all()):
                raise ValueError("non-finite samples in dataset")

    def trimmed(self):
        """Trajectories with the initial transient fraction dropped."""
        out = []
        for t, y in self.trajectories:
            k = int(np.floor(self.trim_fraction * len(t)))
            out.append((t[k:], y[k:]))
        return out


def smooth_integrate(f: Callable, x0, t_span, dt: float,
                     opts: IntegratorOptions | None = None):
    """Integrate a smooth field and sample it on the uniform grid t_span[0]
    + k * dt; the last sample is the end state at t_span[1]."""
    opts = opts or IntegratorOptions(rtol=1e-9, atol=1e-11)
    t0 = float(t_span[0])
    seg, _, _ = _integrate_segment(
        f, t0, np.asarray(x0, dtype=float), float(t_span[1]),
        replace(opts, t_eval_dt=dt, record_steps=False), t0)
    return seg.t, seg.x


def generate_training(field: Callable, ics, t_span, dt: float,
                      branch: str = "+", trim_fraction: float = 0.05,
                      opts: IntegratorOptions | None = None) -> TrajectoryDataset:
    """Decaying trajectories of one branch's smooth extension (no switching)."""
    trajs = [smooth_integrate(field, ic, t_span, dt, opts) for ic in ics]
    return TrajectoryDataset(trajectories=trajs, branch=branch,
                             trim_fraction=trim_fraction)


# ---------------------------------------------------------------------------
# constrained polynomial fits


@dataclass
class ManifoldFit:
    x0: np.ndarray
    v_matrix: np.ndarray              # (n, d) parametrization linear part
    w_matrix: np.ndarray              # (d, n) chart rows, w @ v = I
    m_coeffs: np.ndarray              # (n, K) coefficients for orders 2..m
    order: int
    in_sample_nmte: float = np.nan

    @property
    def monomial_indices(self):
        return monomials(2, self.order)

    def nl_dict(self) -> dict:
        return {p: self.m_coeffs[:, i] for i, p in enumerate(self.monomial_indices)}

    def reconstruct(self, xi: np.ndarray) -> np.ndarray:
        """Observables from reduced samples xi of shape (N, d)."""
        phi = monomial_matrix(xi.T, 2, self.order)
        return self.x0 + xi @ self.v_matrix.T + phi.T @ self.m_coeffs.T


@dataclass
class DynamicsFit:
    r_coeffs: np.ndarray              # (d, K) coefficients for orders 1..r
    order: int

    @property
    def monomial_indices(self):
        return monomials(1, self.order)

    def rdyn_dict(self) -> dict:
        return {p: self.r_coeffs[:, i] for i, p in enumerate(self.monomial_indices)}


def _least_squares(blocks, ridge: float = 0.0) -> np.ndarray:
    """C (K, m) minimizing sum_b |Phi_b^T C - T_b|^2 over the blocks
    (Phi_b (K, N_b), T_b (N_b, m)), whose normal equations are added in
    order, each sum over samples by np.einsum (no BLAS, so its order does not
    depend on the BLAS thread count). ridge is a relative Tikhonov weight;
    without it a rank-deficient system gets 1e-10 and a warning."""
    A = rhs = 0.0
    for phi, target in blocks:
        A = A + np.einsum("kn,ln->kl", phi, phi)
        rhs = rhs + np.einsum("kn,jn->kj", phi, np.ascontiguousarray(target.T))
    if ridge > 0.0:
        A = A + ridge * (np.trace(A) / A.shape[0]) * np.eye(A.shape[0])
    elif np.linalg.cond(A) > 1e12:
        warnings.warn("rank-deficient regressors; adding ridge 1e-10")
        A = A + 1e-10 * np.eye(A.shape[0])
    return np.linalg.solve(A, rhs)


def fit_manifold(data: TrajectoryDataset, v_matrix: np.ndarray, order: int,
                 x0=None, w_matrix: Optional[np.ndarray] = None) -> ManifoldFit:
    """Least-squares graph coefficients over a known tangent basis.

    The tangent basis comes from the linearization; only the nonlinear
    coefficients are regressed, subject to the tangency constraint
    w_matrix @ m_coeffs = 0 (orthogonal-complement projection of the targets).
    The regression and the in-sample NMTE stream over the trimmed dataset
    one trajectory at a time.
    """
    if order < 2:
        raise ValueError("order must be at least 2")
    V = np.asarray(v_matrix, dtype=float)
    n, d = V.shape
    if w_matrix is None:
        if np.linalg.norm(V.T @ V - np.eye(d)) > 1e-10:
            raise ValueError("v_matrix must have orthonormal columns (or pass "
                             "w_matrix for an oblique chart)")
        W = V.T
    else:
        W = np.asarray(w_matrix, dtype=float)
        if np.linalg.norm(W @ V - np.eye(d)) > 1e-8:
            raise ValueError("w_matrix @ v_matrix must be the identity")
    x0 = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float)

    def blocks():
        for _, y in data.trimmed():
            Y = y - x0
            Xi = Y @ W.T                       # (N_b, d)
            # residuals off the tangent space against monomials (K, N_b)
            yield monomial_matrix(Xi.T, 2, order), Y - Xi @ V.T

    M = _least_squares(blocks()).T             # (n, K)
    M = M - V @ (W @ M)                        # exact tangency
    fit = ManifoldFit(x0=x0, v_matrix=V, w_matrix=W, m_coeffs=M, order=order)
    fit.in_sample_nmte = _nmte_blocks(
        (y, fit.reconstruct((y - x0) @ W.T)) for _, y in data.trimmed())
    return fit


def estimate_derivatives(t: np.ndarray, Y: np.ndarray):
    """4th-order central differences inside, 2nd-order one-sided at the ends.

    Returns (Y_mid, dY_mid) with 2 samples trimmed at each end.
    """
    dt_all = np.diff(t)
    dt = dt_all[0]
    if np.abs(dt_all - dt).max() > 1e-9 * dt:
        raise ValueError("derivative estimation needs a uniform grid")
    N = len(t)
    dY = np.empty_like(Y)
    dY[2:-2] = (Y[:-4] - 8 * Y[1:-3] + 8 * Y[3:-1] - Y[4:]) / (12 * dt)
    dY[0] = (-3 * Y[0] + 4 * Y[1] - Y[2]) / (2 * dt)
    dY[1] = (Y[2] - Y[0]) / (2 * dt)
    dY[-2] = (Y[-1] - Y[-3]) / (2 * dt)
    dY[-1] = (3 * Y[-1] - 4 * Y[-2] + Y[-3]) / (2 * dt)
    return Y[2: N - 2], dY[2: N - 2]


def fit_dynamics(data: TrajectoryDataset, fit: ManifoldFit, order: int,
                 known_linear: Optional[np.ndarray] = None,
                 ridge: float = 0.0) -> DynamicsFit:
    """Least-squares reduced dynamics xi' = R xi^{1:r} on the fitted chart.

    With known_linear (the d x d slow block from the linearization) the
    linear columns are pinned and only the nonlinear coefficients are
    regressed, matching the known-linear-part assumption of the method.
    ridge is a relative Tikhonov weight (times the mean regressor power);
    near-circular decay data makes high-order monomials collinear and a
    small ridge suppresses the canceling-coefficient artifact. Like
    fit_manifold it streams over the trajectories one at a time.
    """
    L = None if known_linear is None else np.asarray(known_linear, dtype=float)

    def blocks():
        for t, y in data.trimmed():
            ym, dym = estimate_derivatives(t, y)
            xi = (ym - fit.x0) @ fit.w_matrix.T
            dxi = dym @ fit.w_matrix.T
            yield (monomial_matrix(xi.T, 1 if L is None else 2, order),
                   dxi if L is None else dxi - xi @ L.T)

    R_free = _least_squares(blocks(), ridge).T
    R = R_free if L is None else np.column_stack([L, R_free])
    return DynamicsFit(r_coeffs=R, order=order)


def nmte_arrays(reference: np.ndarray, reconstruction: np.ndarray,
                normalization: Optional[np.ndarray] = None) -> float:
    """Normalized mean trajectory error between two equally long sample sets:
    the mean row error over the norm of normalization, or else of the
    reference row of largest norm."""
    return _nmte_blocks([(reference, reconstruction)], normalization)


def _nmte_blocks(pairs, normalization: Optional[np.ndarray] = None) -> float:
    """nmte_arrays over all rows of the (reference, reconstruction) pairs,
    read one pair at a time."""
    total, rows, top = 0.0, 0, None
    for ref, rec in pairs:
        ref, rec = np.asarray(ref, dtype=float), np.asarray(rec, dtype=float)
        if ref.shape != rec.shape:
            raise ValueError("trajectories must have equal shapes")
        total += np.linalg.norm(ref - rec, axis=1).sum()
        rows += len(ref)
        norms = np.linalg.norm(ref, axis=1)
        if top is None or norms.max() > top[0]:
            top = (norms.max(), ref[np.argmax(norms)])
    nv = np.linalg.norm(top[1] if normalization is None else normalization)
    if nv == 0.0:
        raise ZeroDivisionError("zero normalization vector")
    return float(total / rows / nv)


def model_from_fits(fit: ManifoldFit, dyn: DynamicsFit, branch: str,
                    correction: Optional[PeriodicCorrection] = None) -> SsmModel:
    return SsmModel(branch=branch, x0=fit.x0, tangent=fit.v_matrix,
                    chart_w=fit.w_matrix, nl_coeffs=fit.nl_dict(),
                    rdyn=dyn.rdyn_dict(), correction=correction, source="data")


def scale_dataset(data: TrajectoryDataset, x0: np.ndarray,
                  scale: np.ndarray) -> TrajectoryDataset:
    """The dataset centred on x0 and divided by the scale vector.

    Mixed physical units (displacements vs velocities) make monomial
    regressors ill-conditioned; fitting happens in y_s = (y - x0) / scale.
    """
    x0 = np.asarray(x0, dtype=float)
    scale = np.asarray(scale, dtype=float)
    return TrajectoryDataset(
        trajectories=[(t, (y - x0) / scale) for t, y in data.trajectories],
        branch=data.branch, trim_fraction=data.trim_fraction)


def unscale_model(model: SsmModel, x0: np.ndarray,
                  scale: np.ndarray) -> SsmModel:
    """Map a model fitted on (y - x0)/scale back to physical observables.

    Reduced coordinates are untouched, so the reduced dynamics carry over;
    the parametrization is stretched by the scale and shifted by x0, and the
    chart rows absorb the inverse stretch (all chart identities survive).
    """
    scale = np.asarray(scale, dtype=float)
    return SsmModel(
        branch=model.branch, x0=np.asarray(x0, dtype=float),
        tangent=model.tangent * scale[:, None],
        chart_w=model.chart_w / scale[None, :],
        nl_coeffs={p: c * scale for p, c in model.nl_coeffs.items()},
        rdyn=dict(model.rdyn), correction=model.correction,
        source=model.source, meta=dict(model.meta))


# ---------------------------------------------------------------------------
# chart changes


@dataclass(frozen=True)
class ChartChange:
    w0: np.ndarray
    p_matrix: np.ndarray
    condition_number: float


def rechart(model: SsmModel, w0: np.ndarray,
            max_degree: Optional[int] = None) -> tuple[ChartChange, SsmModel]:
    """Re-express a manifold model over reduced coordinates w0 @ (x - x0).

    The linear change is P = w0 V; the polynomial chart map is inverted order
    by order and composed into a new parametrization and reduced dynamics.
    Fails when P is singular (the manifold is not a graph over w0).
    """
    w0 = np.asarray(w0, dtype=float)
    V = model.tangent
    P = w0 @ V
    cond = np.linalg.cond(P)
    if not np.isfinite(cond) or cond > 1e8:
        raise ChartError("cannot describe the manifold as a graph over the "
                         f"requested coordinates (cond P = {cond:.3g})")
    deg = max_degree or max((sum(p) for p in model.nl_coeffs), default=1)
    deg = max(deg, max((sum(p) for p in model.rdyn), default=1))
    # chart map xi(y) = P y + w0 nl(y)
    xi_map = vector_poly({(1, 0): P[:, 0], (0, 1): P[:, 1],
                          **{p: w0 @ c for p, c in model.nl_coeffs.items()}})
    u = Poly2({p: v[0] for p, v in xi_map.terms.items()})
    v_ = Poly2({p: v[1] for p, v in xi_map.terms.items()})
    yinv1, yinv2 = invert_map(u, v_, deg)
    # new parametrization: lift(y(xi)) with the linear part factored off
    lift_nl = vector_poly(model.nl_coeffs)
    lift_lin = vector_poly({(1, 0): V[:, 0], (0, 1): V[:, 1]})
    new_lift = (lift_lin + lift_nl).compose(yinv1, yinv2, deg)
    V0 = np.column_stack([new_lift.terms.get((1, 0), np.zeros(model.dim)),
                          new_lift.terms.get((0, 1), np.zeros(model.dim))])
    nl_new = {p: c for p, c in new_lift.terms.items() if sum(p) >= 2}
    # reduced dynamics: xi' = D(xi_map)(y) r(y), evaluated at y(xi)
    r_old = vector_poly(model.rdyn)
    r1 = Poly2({p: v[0] for p, v in r_old.terms.items()})
    r2 = Poly2({p: v[1] for p, v in r_old.terms.items()})
    du = [u.diff(0), u.diff(1)]
    dv = [v_.diff(0), v_.diff(1)]
    xi_dot_1 = du[0].mul(r1, max_degree=deg) + du[1].mul(r2, max_degree=deg)
    xi_dot_2 = dv[0].mul(r1, max_degree=deg) + dv[1].mul(r2, max_degree=deg)
    new_r1 = xi_dot_1.compose(yinv1, yinv2, deg)
    new_r2 = xi_dot_2.compose(yinv1, yinv2, deg)
    rdyn_new = {}
    for p in set(new_r1.terms) | set(new_r2.terms):
        if sum(p) >= 1:
            rdyn_new[p] = np.array([float(np.atleast_1d(new_r1.terms.get(p, 0.0))[0]),
                                    float(np.atleast_1d(new_r2.terms.get(p, 0.0))[0])])
    corr = model.correction
    if corr is not None:
        corr = PeriodicCorrection(omega=corr.omega, eps=corr.eps,
                                  r_hat_1=P @ corr.r_hat_1,
                                  v_hat_1=corr.v_hat_1)
    new_model = SsmModel(branch=model.branch, x0=model.x0, tangent=V0,
                         chart_w=w0, nl_coeffs=nl_new, rdyn=rdyn_new,
                         correction=corr, source=model.source,
                         meta=dict(model.meta))
    if np.linalg.norm(w0 @ V0 - np.eye(P.shape[0])) > 1e-8:
        raise ChartError("chart identity w0 @ V0 = I violated after rechart")
    return ChartChange(w0=w0, p_matrix=P, condition_number=cond), new_model


def nonmodal_forcing_correction(a_matrix: np.ndarray, tangent: np.ndarray,
                                chart_w: np.ndarray, f_hat: np.ndarray,
                                eps: float, omega: float) -> PeriodicCorrection:
    """O(eps) periodic correction over the chart (tangent, chart_w), n = +-1.

    Solves the complement equation for the parametrization amplitude and the
    chart projection for the reduced-forcing amplitude; for a modal chart the
    result reduces to the modal construction. Raises ResonanceError when
    i omega meets the complement spectrum of a_matrix.
    """
    A = np.asarray(a_matrix, dtype=float)
    n = A.shape[0]
    Pc = np.eye(n) - tangent @ chart_w
    lam = np.linalg.eigvals(A)
    # resonance only against the complement spectrum
    slow = np.linalg.eigvals(chart_w @ A @ tangent)
    for lv in lam:
        if np.min(np.abs(lv - slow)) < 1e-9 * max(1.0, np.abs(lv)):
            continue
        if abs(1j * omega - lv) < 1e-6:
            raise ResonanceError(
                f"forcing frequency resonant with eigenvalue {lv:.6g}")
    M = 1j * omega * np.eye(n) - Pc @ A
    b = Pc @ f_hat / 2.0
    v_hat = np.linalg.solve(M, b)
    # backward error: a plain relative residual would scale with cond(M)
    bound = np.linalg.norm(M, 2) * np.linalg.norm(v_hat) + np.linalg.norm(b)
    if np.linalg.norm(M @ v_hat - b) > 1e-12 * bound:
        raise RuntimeError("forcing correction residual exceeds tolerance")
    r_hat = chart_w @ (A @ v_hat + f_hat / 2.0)
    return PeriodicCorrection(omega=omega, eps=eps, r_hat_1=r_hat,
                              v_hat_1=v_hat)
