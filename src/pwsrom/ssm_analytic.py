"""Equation-driven SSM construction for the friction oscillator branches.

The shifted branch system is split into slow (master) and fast (slave) modal
coordinates; a cubic graph z = h(y) and the reduced dynamics on it are then
solved order by order from the invariance equation. At delta = 0.1 every
entry of the published reference tables is the computed coefficient at its
printed precision: 56 of 64 rounded, the other 8 truncated. A forced model
takes its O(eps) correction from the chart-general solver of
pwsrom.ssm_data, over the modal chart. Nothing but that correction depends
on the forcing, so a sweep over frequencies builds each branch once and
forces a copy per frequency (with_analytic_forcing).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from math import floor, log10

import numpy as np

from . import spectral
from .poly2 import Poly2, vector_poly
from .shaw_pierre import SpParams, sp_fixed_points, sp_forcing_vector, sp_shifted
from .ssm_data import ResonanceError, nonmodal_forcing_correction
from .ssm_model import SsmModel


@dataclass(frozen=True)
class ModalSplit:
    """Shifted branch dynamics in real modal coordinates eta = (y, z).

    eta' = blkdiag(a_y, a_z) eta + (r_y, r_z) g(xi1) with
    g(s) = c2 s^2 + c3 s^3 and xi1 = p_master . y + p_slave . z (first row of
    the modal matrix). The quadratic scale c2 flips sign between branches.
    """

    branch: str
    q0: float
    v_matrix: np.ndarray
    v_inv: np.ndarray
    a_y: np.ndarray
    a_z: np.ndarray
    r_y: np.ndarray
    r_z: np.ndarray
    p_master: np.ndarray
    p_slave: np.ndarray
    c2: float
    c3: float

    @property
    def q_argument(self) -> np.ndarray:
        """Coefficients of xi1 ordered (z1, z2, y1, y2) for reporting."""
        return np.concatenate([self.p_slave, self.p_master])

    @property
    def lambda_slow(self) -> complex:
        return complex(self.a_y[0, 0], self.a_y[0, 1])

    @property
    def lambda_fast(self) -> complex:
        return complex(self.a_z[0, 0], self.a_z[0, 1])


def modal_split(params: SpParams, branch: str) -> ModalSplit:
    """Slow/fast modal splitting of the shifted branch system."""
    sh = sp_shifted(params, branch)
    lin = spectral.decompose(sh.a_tilde)
    V, V_inv = spectral.modal_change(lin)
    B = V_inv @ sh.a_tilde @ V
    r = V_inv[:, 1]
    return ModalSplit(
        branch=branch, q0=sh.q0, v_matrix=V, v_inv=V_inv,
        a_y=B[:2, :2], a_z=B[2:, 2:], r_y=r[:2], r_z=r[2:],
        p_master=V[0, :2], p_slave=V[0, 2:], c2=sh.c2, c3=sh.c3)


# ---------------------------------------------------------------------------
# invariance equation, order by order


def _linear_operator(a_y: np.ndarray, a_z: np.ndarray, basis) -> np.ndarray:
    """Matrix of h -> D_y h(y) a_y y - a_z h(y) on vector polynomials.

    Unknowns are ordered (h1_p, h2_p) per multi-index p of the basis, which
    makes the order-2 block the classic 6x6 system and the order-3 block the
    8x8 one.
    """
    n = 2 * len(basis)
    L = np.zeros((n, n))
    pos = {p: i for i, p in enumerate(basis)}
    for bi, (i, j) in enumerate(basis):
        for comp in range(2):
            col = 2 * bi + comp
            e = np.zeros(2)
            e[comp] = 1.0
            img = {}
            if i > 0:
                img[(i, j)] = img.get((i, j), np.zeros(2)) + i * a_y[0, 0] * e
                img[(i - 1, j + 1)] = img.get((i - 1, j + 1), np.zeros(2)) + i * a_y[0, 1] * e
            if j > 0:
                img[(i + 1, j - 1)] = img.get((i + 1, j - 1), np.zeros(2)) + j * a_y[1, 0] * e
                img[(i, j)] = img.get((i, j), np.zeros(2)) + j * a_y[1, 1] * e
            img[(i, j)] = img.get((i, j), np.zeros(2)) - a_z @ e
            for p, vec in img.items():
                if p in pos:
                    L[2 * pos[p]:2 * pos[p] + 2, col] += vec
    return L


def _check_resonance(L: np.ndarray, split: ModalSplit, order: int) -> None:
    if abs(np.linalg.det(L)) > 1e-8 * np.linalg.norm(L, ord="fro") ** L.shape[0]:
        return
    lam = split.lambda_slow
    mu = split.lambda_fast
    worst = None
    for m1 in range(order + 1):
        m2 = order - m1
        for target in (mu, np.conj(mu)):
            gap = m1 * lam + m2 * np.conj(lam) - target
            if worst is None or abs(gap) < abs(worst[0]):
                worst = (gap, m1, m2)
    raise ResonanceError(
        f"order-{order} invariance system is singular: "
        f"{worst[1]}*lambda + {worst[2]}*conj(lambda) - lambda_fast = {worst[0]:.3e}")


def _master_poly(split: ModalSplit) -> Poly2:
    return Poly2({(1, 0): split.p_master[0], (0, 1): split.p_master[1]})


def solve_invariance(split: ModalSplit, order: int = 3) -> dict:
    """Graph coefficients h_p (2-vectors) for |p| = 2..order, order in {2,3}."""
    if order not in (2, 3):
        raise ValueError("order must be 2 or 3")
    M2 = [(2, 0), (1, 1), (0, 2)]
    M3 = [(3, 0), (2, 1), (1, 2), (0, 3)]
    py = _master_poly(split)
    py2 = py.mul(py)
    rz = split.r_z

    L2 = _linear_operator(split.a_y, split.a_z, M2)
    _check_resonance(L2, split, 2)
    b2 = np.concatenate([split.c2 * py2.terms.get(p, 0.0) * rz for p in M2])
    sol = np.linalg.solve(L2, b2)
    h = {p: sol[2 * i:2 * i + 2] for i, p in enumerate(M2)}
    if order == 2:
        return h

    # cubic right-hand side: slave feedback through xi1 plus transport of the
    # quadratic graph by the quadratic part of the reduced dynamics
    py3 = py2.mul(py)
    pzh2 = Poly2({p: float(split.p_slave @ h[p]) for p in M2})
    cross = py.mul(pzh2)
    rhs = {}
    for p, c in py3.terms.items():
        rhs[p] = rhs.get(p, np.zeros(2)) + split.c3 * c * rz
    for p, c in cross.terms.items():
        rhs[p] = rhs.get(p, np.zeros(2)) + 2.0 * split.c2 * c * rz
    dh_ry = {}
    for (i, j), hv in h.items():
        if i > 0:
            dh_ry[(i - 1, j)] = dh_ry.get((i - 1, j), np.zeros(2)) + i * split.r_y[0] * hv
        if j > 0:
            dh_ry[(i, j - 1)] = dh_ry.get((i, j - 1), np.zeros(2)) + j * split.r_y[1] * hv
    for p1, vec in dh_ry.items():
        for p2, c in py2.terms.items():
            p = (p1[0] + p2[0], p1[1] + p2[1])
            rhs[p] = rhs.get(p, np.zeros(2)) - split.c2 * c * vec
    L3 = _linear_operator(split.a_y, split.a_z, M3)
    _check_resonance(L3, split, 3)
    b3 = np.concatenate([rhs.get(p, np.zeros(2)) for p in M3])
    sol3 = np.linalg.solve(L3, b3)
    h.update({p: sol3[2 * i:2 * i + 2] for i, p in enumerate(M3)})
    return h


def solve_reduced_dynamics(split: ModalSplit, h: dict) -> dict:
    """Reduced-dynamics coefficients r_p (2-vectors) for |p| = 1..3."""
    py = _master_poly(split)
    py2 = py.mul(py)
    py3 = py2.mul(py)
    pzh2 = Poly2({p: float(split.p_slave @ h[p]) for p in h if sum(p) == 2})
    cross = py.mul(pzh2)
    r = {(1, 0): split.a_y[:, 0].copy(), (0, 1): split.a_y[:, 1].copy()}
    for p, c in py2.terms.items():
        r[p] = r.get(p, np.zeros(2)) + split.c2 * c * split.r_y
    for p, c in py3.terms.items():
        r[p] = r.get(p, np.zeros(2)) + split.c3 * c * split.r_y
    for p, c in cross.terms.items():
        r[p] = r.get(p, np.zeros(2)) + 2.0 * split.c2 * c * split.r_y
    return r


def _g_of_xi(split: ModalSplit, xi1):
    return split.c2 * xi1 ** 2 + split.c3 * xi1 ** 3


def invariance_sides(split: ModalSplit, h: dict, y: np.ndarray):
    """Exact left/right sides of the invariance identity at one point y."""
    y = np.asarray(y, dtype=float)
    hp = vector_poly(h)

    def as2(v):
        v = np.atleast_1d(np.asarray(v, dtype=float))
        return v if v.shape == (2,) else np.zeros(2)

    hy = as2(hp(y))
    xi1 = split.p_master @ y + split.p_slave @ hy
    g = _g_of_xi(split, xi1)
    ydot = split.a_y @ y + split.r_y * g
    Dh = np.column_stack([as2(hp.diff(0)(y)), as2(hp.diff(1)(y))])
    lhs = Dh @ ydot
    rhs = split.a_z @ hy + split.r_z * g
    return lhs, rhs


def invariance_error(split: ModalSplit, h: dict, rho: float,
                     n_samples: int = 64) -> float:
    """Mean normalized residual of the invariance identity on |y| = rho."""
    if rho <= 0:
        raise ValueError("rho must be positive")
    vals = []
    for th in np.linspace(0.0, 2 * np.pi, n_samples, endpoint=False):
        y = rho * np.array([np.cos(th), np.sin(th)])
        lhs, rhs = invariance_sides(split, h, y)
        nr = np.linalg.norm(rhs)
        if nr < 1e-14:
            warnings.warn("invariance-error sample skipped: RHS below 1e-14")
            continue
        vals.append(np.linalg.norm(lhs - rhs) / nr)
    if not vals:
        # every sample skipped: both sides vanish identically
        return 0.0
    return float(np.mean(vals))


def build_analytic_model(params: SpParams, branch: str, order: int = 3,
                         eps: float = 0.0, omega: float = 1.0) -> SsmModel:
    """Assemble the branch SSM (graph + reduced dynamics) as an SsmModel.

    With eps the O(eps) forcing correction comes from the chart-general
    solver of pwsrom.ssm_data over the modal chart, solved before the one
    model is built.
    """
    split = modal_split(params, branch)
    h = solve_invariance(split, order=order)
    rdyn = solve_reduced_dynamics(split, h)
    x0 = sp_fixed_points(params).x0(branch)
    V = split.v_matrix
    nl = {p: V[:, 2:] @ v for p, v in h.items()}
    corr = _forcing(params, branch, V[:, :2], split.v_inv[:2, :], eps, omega)
    return SsmModel(
        branch=branch, x0=x0, tangent=V[:, :2], chart_w=split.v_inv[:2, :],
        nl_coeffs=nl, rdyn=rdyn, correction=corr, source="analytic",
        meta={"V": V, "h": h, "a_y": split.a_y, "a_z": split.a_z,
              "r_y": split.r_y, "r_z": split.r_z,
              "q_argument": split.q_argument})


def with_analytic_forcing(model: SsmModel, params: SpParams, eps: float,
                          omega: float) -> SsmModel:
    """A new model: the unforced analytic branch model of params (as
    build_analytic_model returns it) with the O(eps) forcing correction at
    omega, none at eps = 0. It equals build_analytic_model(params,
    model.branch, eps=eps, omega=omega) to the bit and shares the graph and
    reduced-dynamics arrays of `model`, which it does not solve again."""
    corr = _forcing(params, model.branch, model.tangent, model.chart_w, eps,
                    omega)
    return replace(model, correction=corr, meta=dict(model.meta))


def _forcing(params, branch, tangent, chart_w, eps, omega):
    """The O(eps) correction over the modal chart (tangent, chart_w), or None
    at eps = 0."""
    if not eps:
        return None
    return nonmodal_forcing_correction(sp_shifted(params, branch).a_tilde,
                                       tangent, chart_w,
                                       sp_forcing_vector(params), eps, omega)


# ---------------------------------------------------------------------------
# published reference coefficients at delta = 0.1 (printed significant digits
# preserved as strings; see validate-tables)

REFERENCE_PARAMETRIZATION_PLUS = {
    # (p1,p2): (h1, h2)
    (2, 0): ("8.2e-3", "1.5e-2"),
    (1, 1): ("-2.4e-2", "1.7e-2"),
    (0, 2): ("-7.3e-3", "-2.8e-3"),
    (3, 0): ("2.7e-2", "3.4e-3"),
    (2, 1): ("-1.5e-3", "4.6e-2"),
    (1, 2): ("2.3e-3", "7.2e-3"),
    (0, 3): ("-1e-3", "3.2e-2"),
}

REFERENCE_REDUCED_DYNAMICS_PLUS = {
    (1, 0): ("-0.074", "-1.004"),
    (0, 1): ("1.004", "-0.074"),
    (2, 0): ("1.4e-4", "-3.0e-5"),
    (1, 1): ("3.8e-3", "-8.1e-4"),
    (0, 2): ("2.6e-2", "-5.5e-3"),
    (3, 0): ("-1.8e-5", "3.9e-6"),
    (2, 1): ("4.5e-4", "-9.7e-5"),
    (1, 2): ("1.4e-2", "-3.1e-3"),
    (0, 3): ("6.5e-2", "-1.4e-2"),
}


def _negate_str(s: str) -> str:
    return s[1:] if s.startswith("-") else "-" + s


def reference_tables() -> dict:
    """All four published coefficient tables at delta = 0.1.

    56 of the 64 entries are the computed coefficients rounded to their
    printed digits; h+-(0,2)[2], h+-(1,2)[2], r+-(1,1)[2] and r+-(2,1)[2] are
    truncated instead (-2.85294e-3 printed as -2.8e-3), so a strict rounded
    comparison gives 56/64 and a one-ulp comparison 64/64.

    The negative-branch tables flip the sign of every quadratic entry and
    keep linear/cubic entries, mirroring the branch symmetry of the model.
    """
    minus_h = {p: (v if sum(p) != 2 else tuple(_negate_str(s) for s in v))
               for p, v in REFERENCE_PARAMETRIZATION_PLUS.items()}
    minus_r = {p: (v if sum(p) != 2 else tuple(_negate_str(s) for s in v))
               for p, v in REFERENCE_REDUCED_DYNAMICS_PLUS.items()}
    return {
        ("h", "+"): REFERENCE_PARAMETRIZATION_PLUS,
        ("h", "-"): minus_h,
        ("r", "+"): REFERENCE_REDUCED_DYNAMICS_PLUS,
        ("r", "-"): minus_r,
    }


def table_entries(params: SpParams):
    """Every published table entry recomputed at params, table by table in
    monomial order: (name like 'h+ (0, 2)', component 1 or 2, computed,
    printed)."""
    for (kind, branch), tab in reference_tables().items():
        split = modal_split(params, branch)
        h = solve_invariance(split, 3)
        vals = h if kind == "h" else solve_reduced_dynamics(split, h)
        for p, refs in sorted(tab.items()):
            for comp in (0, 1):
                yield (f"{kind}{branch} {p}", comp + 1, float(vals[p][comp]),
                       refs[comp])


def round_to_sig_digits(x: float, ref: str) -> float:
    """Round x to the significant-digit count of the printed reference."""
    mant = ref.lstrip("-").split("e")[0]
    digits = len(mant.replace(".", "").lstrip("0"))
    if x == 0.0:
        return 0.0
    expo = floor(log10(abs(x)))
    scale = 10.0 ** (digits - 1 - expo)
    return round(x * scale) / scale


def compare_to_reference(computed: float, ref: str) -> dict:
    """Strict printed-precision comparison plus a one-ulp closeness flag."""
    ref_val = float(ref)
    rounded = round_to_sig_digits(computed, ref)
    mant = ref.lstrip("-").split("e")[0]
    digits = len(mant.replace(".", "").lstrip("0"))
    ulp = 10.0 ** (floor(log10(abs(ref_val))) - digits + 1)
    return {
        "computed": computed,
        "reference": ref_val,
        "rounded": rounded,
        "strict": bool(np.isclose(rounded, ref_val, rtol=1e-9, atol=1e-300)),
        "within_one_ulp": bool(abs(rounded - ref_val) <= ulp * (1 + 1e-9)),
    }
