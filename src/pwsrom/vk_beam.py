"""Clamped-clamped geometrically nonlinear beam, 4 elements, 9 free DOFs.

Axial displacement uses linear shape functions, transverse displacement cubic
Hermite ones; the axial strain carries the quadratic transverse coupling
u' + (w')^2 / 2. The nonlinear internal force is the axial force beyond the
linear part, summed over the Gauss points from the two scalars u' = B q and
w' = G q at each; the first-order field is one product with a stacked
strain operator and one with a first-order operator that carries M^-1
(BeamAssembly). Damping is stiffness-proportional (material damping modulus
over Young modulus).

Three interchangeable non-smooth elements act at the midpoint transverse DOF:
dry friction, a one-sided linear spring (soft impact), and friction against a
belt moving at constant speed with a velocity-weakening law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import PiecewiseSmoothSystem, SwitchingFunction


@dataclass(frozen=True)
class BeamProperties:
    length: float = 1.0
    width: float = 0.05
    thickness: float = 0.02
    young_modulus: float = 70e9
    density: float = 2700.0
    poisson: float = 0.3
    damping_modulus: float = 1e6
    n_elements: int = 4

    def __post_init__(self):
        vals = (self.length, self.width, self.thickness, self.young_modulus,
                self.density, self.damping_modulus)
        if min(vals) <= 0 or self.n_elements < 2:
            raise ValueError("beam properties must be positive")

    @property
    def area(self) -> float:
        return self.width * self.thickness

    @property
    def second_moment(self) -> float:
        return self.width * self.thickness ** 3 / 12.0


# 3-point Gauss rule on [0, 1]
_GP = np.array([0.5 - np.sqrt(15) / 10, 0.5, 0.5 + np.sqrt(15) / 10])
_GW = np.array([5 / 18, 8 / 18, 5 / 18])


def _element_matrices(props: BeamProperties):
    """Element stiffness and mass, the axial strain row Bu (the same at every
    Gauss point) and the slope rows Ge, one per Gauss point."""
    E, A, I = props.young_modulus, props.area, props.second_moment
    rho = props.density
    L = props.length / props.n_elements
    Ke = np.zeros((6, 6))
    Me = np.zeros((6, 6))
    Ge = np.zeros((3, 6))
    Bu = np.array([-1.0, 0, 0, 1.0, 0, 0]) / L
    for k, (s, wgt) in enumerate(zip(_GP, _GW)):
        w = wgt * L
        Nu = np.array([1 - s, 0, 0, s, 0, 0])
        H = np.array([0, 1 - 3 * s**2 + 2 * s**3, L * (s - 2 * s**2 + s**3),
                      0, 3 * s**2 - 2 * s**3, L * (-s**2 + s**3)])
        Ge[k] = np.array([0, (-6 * s + 6 * s**2), L * (1 - 4 * s + 3 * s**2),
                          0, (6 * s - 6 * s**2), L * (-2 * s + 3 * s**2)]) / L
        Bb = np.array([0, -6 + 12 * s, L * (-4 + 6 * s),
                       0, 6 - 12 * s, L * (-2 + 6 * s)]) / L**2
        Ke += w * (E * A * np.outer(Bu, Bu) + E * I * np.outer(Bb, Bb))
        Me += w * rho * A * (np.outer(Nu, Nu) + np.outer(H, H))
    return Ke, Me, Bu, Ge


@dataclass
class BeamAssembly:
    """Condensed beam matrices and the Gauss-point factors of the strain.

    Row k of axial_strain (B) and slope (G) maps the free DOFs q to u' and w'
    at Gauss point k (m = 3 per element); gauss_weights w is E A times the
    quadrature weight. With u = B q and g = G q the nonlinear force is
    B^T (w g^2/2) + G^T (w g (u + g^2/2)). beam_field uses two derived
    operators: strain_operator S (2m x 2n, rows w B and sqrt(w/2) G, zero on
    the velocities) gives S x = (w u, gamma), gamma^2 = w g^2/2; and
    field_operator [0 I 0 0 0 0; -M^-1 K, -M^-1 D, -M^-1 B^T, -M^-1 G~^T,
    M^-1 e_mid, M^-1], G~ = G / sqrt(w/2), acts on (x, gamma^2,
    gamma (w u + gamma^2), midpoint force, forcing vector): two products
    per call in place of about a dozen small ones.
    """

    props: BeamProperties
    mass_matrix: np.ndarray
    damping_matrix: np.ndarray
    stiffness_matrix: np.ndarray
    axial_strain: np.ndarray
    slope: np.ndarray
    gauss_weights: np.ndarray
    mid_dof_index: int
    n_dof: int = field(init=False)
    minv: np.ndarray = field(init=False)
    strain_operator: np.ndarray = field(init=False)
    field_operator: np.ndarray = field(init=False)

    def __post_init__(self):
        self.n_dof = n = self.stiffness_matrix.shape[0]
        self.minv = np.linalg.inv(self.mass_matrix)
        m = len(self.gauss_weights)
        root = np.sqrt(0.5 * self.gauss_weights)[:, None]
        self.strain_operator = S = np.zeros((2 * m, 2 * n))
        S[:, :n] = np.vstack([self.gauss_weights[:, None] * self.axial_strain,
                              root * self.slope])
        self.field_operator = op = np.zeros((2 * n, 3 * n + 2 * m + 1))
        op[:n, n:2 * n] = np.eye(n)
        op[n:, :2 * n + 2 * m] = -self.minv @ np.hstack([
            self.stiffness_matrix, self.damping_matrix,
            self.axial_strain.T, (self.slope / root).T])
        op[n:, -n - 1] = self.minv[:, self.mid_dof_index]
        op[n:, -n:] = self.minv

    def nonlinear_force(self, q: np.ndarray) -> np.ndarray:
        """Quadratic-and-cubic internal force (zero value/Jacobian at rest)."""
        u, g = self.axial_strain @ q, self.slope @ q
        wg = self.gauss_weights * g
        return (self.axial_strain.T @ (0.5 * wg * g)
                + self.slope.T @ (wg * (u + 0.5 * g * g)))

    def nonlinear_jacobian(self, q: np.ndarray) -> np.ndarray:
        B, G, w = self.axial_strain, self.slope, self.gauss_weights
        u, g = B @ q, G @ q
        BG = B.T @ ((w * g)[:, None] * G)
        return BG + BG.T + G.T @ ((w * (u + 1.5 * g * g))[:, None] * G)

    def internal_force(self, q: np.ndarray) -> np.ndarray:
        return self.stiffness_matrix @ q + self.nonlinear_force(q)

    def natural_frequencies(self) -> np.ndarray:
        lam = np.linalg.eigvals(self.minv @ self.stiffness_matrix)
        return np.sort(np.sqrt(np.abs(lam.real)))


def assemble_beam(props: BeamProperties = BeamProperties()) -> BeamAssembly:
    """Assemble and condense the clamped-clamped beam to its free DOFs."""
    ne = props.n_elements
    ndof = 3 * (ne + 1)
    Ke, Me, Bu, Ge = _element_matrices(props)
    K = np.zeros((ndof, ndof))
    M = np.zeros((ndof, ndof))
    B = np.zeros((3 * ne, ndof))
    G = np.zeros((3 * ne, ndof))
    for e in range(ne):
        sl = slice(3 * e, 3 * e + 6)
        K[sl, sl] += Ke
        M[sl, sl] += Me
        B[3 * e:3 * e + 3, sl] = Bu
        G[3 * e:3 * e + 3, sl] = Ge
    free = np.arange(3, ndof - 3)
    K = K[np.ix_(free, free)]
    M = M[np.ix_(free, free)]
    if np.linalg.cond(K) > 1e14:
        raise RuntimeError("assembled stiffness matrix is singular")
    Cd = (props.damping_modulus / props.young_modulus) * K
    mid_node = ne // 2
    mid_global = 3 * mid_node + 1
    mid_free = int(np.where(free == mid_global)[0][0])
    weights = np.tile(_GW * (props.length / ne) * props.young_modulus
                      * props.area, ne)
    return BeamAssembly(props=props, mass_matrix=M, damping_matrix=Cd,
                        stiffness_matrix=K, axial_strain=B[:, free],
                        slope=G[:, free], gauss_weights=weights,
                        mid_dof_index=mid_free)


def static_deflection(assembly: BeamAssembly, load: float,
                      max_iter: int = 50) -> np.ndarray:
    """Newton solve of K q + f_nl(q) = load * e_mid."""
    f_load = np.zeros(assembly.n_dof)
    f_load[assembly.mid_dof_index] = load
    q = np.zeros(assembly.n_dof)
    tol = 1e-9 * max(np.linalg.norm(f_load), 1.0)
    for _ in range(max_iter):
        r = assembly.internal_force(q) - f_load
        if np.linalg.norm(r) <= tol:
            return q
        J = assembly.stiffness_matrix + assembly.nonlinear_jacobian(q)
        q = q - np.linalg.solve(J, r)
    raise RuntimeError(f"static Newton did not converge in {max_iter} iterations")


# ---------------------------------------------------------------------------
# non-smooth variants


@dataclass(frozen=True)
class NonsmoothVariant:
    """Midpoint non-smooth element.

    kind: 'coulomb' (sigma = dq_mid), 'soft_impact' (sigma = q_mid, one-sided
    spring on the negative side, no sticking), or 'moving_belt'
    (sigma = dq_mid - v_ground, velocity-weakening friction law).
    """

    kind: str
    delta: float
    v_ground: float = 0.1
    alpha_fric: float = 0.3
    beta_fric: float = 0.1

    def __post_init__(self):
        if self.kind not in ("coulomb", "soft_impact", "moving_belt"):
            raise ValueError(f"unknown variant kind {self.kind!r}")
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")


def belt_friction(variant: NonsmoothVariant, rel: float, branch: str) -> float:
    """Signed friction force factor of the branch smooth extension.

    On its own branch (sign(rel) matching) the magnitude is
    1 + (alpha/e) exp((beta - |rel|)/beta): 1 + alpha at zero relative speed,
    decaying to 1 as |rel| grows.
    """
    a, b = variant.alpha_fric, variant.beta_fric
    if branch == "+":
        return -(1.0 + a / math.e * math.exp((b - rel) / b))
    return 1.0 + a / math.e * math.exp((b + rel) / b)


def _branch_force(assembly, variant, branch, x):
    """Non-smooth midpoint force of the branch smooth extension."""
    if variant.kind == "coulomb":
        return -variant.delta if branch == "+" else variant.delta
    i = assembly.mid_dof_index
    if variant.kind == "soft_impact":
        if branch == "+":
            return 0.0
        return -variant.delta * x[i]
    rel = x[assembly.n_dof + i] - variant.v_ground
    return variant.delta * belt_friction(variant, rel, branch)


def beam_field(assembly: BeamAssembly, variant: Optional[NonsmoothVariant],
               branch: str, t: float, x: np.ndarray,
               forcing: Optional[Callable[[float], np.ndarray]] = None) -> np.ndarray:
    """First-order form: x = (q, dq), 18 components for the 4-element beam.
    A fresh array each call; the assembly holds no scratch state."""
    s = assembly.strain_operator @ x
    m = len(s) // 2
    gam = s[m:]
    g2 = gam * gam
    fb = 0.0 if variant is None else _branch_force(assembly, variant, branch, x)
    z = (x, g2, gam * (s[:m] + g2), (fb,))
    if forcing is None:
        return assembly.field_operator[:, :-assembly.n_dof] @ np.concatenate(z)
    return assembly.field_operator @ np.concatenate(z + (forcing(t),))


def beam_surface(assembly: BeamAssembly,
                 variant: NonsmoothVariant) -> tuple[int, float]:
    """The switching surface (index, level), sigma(x) = x[index] - level: the
    midpoint displacement for the soft impact, the midpoint velocity for
    Coulomb friction, and its speed relative to the belt for the belt."""
    i, n = assembly.mid_dof_index, assembly.n_dof
    if variant.kind == "soft_impact":
        return i, 0.0
    return n + i, variant.v_ground if variant.kind == "moving_belt" else 0.0


def beam_switching(assembly: BeamAssembly,
                   variant: NonsmoothVariant) -> SwitchingFunction:
    return SwitchingFunction.coordinate(2 * assembly.n_dof,
                                        beam_surface(assembly, variant))


def make_beam_system(assembly: BeamAssembly, variant: NonsmoothVariant,
                     forcing: Optional[Callable[[float], np.ndarray]] = None
                     ) -> PiecewiseSmoothSystem:
    return PiecewiseSmoothSystem(
        dim=2 * assembly.n_dof,
        f_plus=lambda t, x: beam_field(assembly, variant, "+", t, x, forcing),
        f_minus=lambda t, x: beam_field(assembly, variant, "-", t, x, forcing),
        switching=beam_switching(assembly, variant),
        delta=variant.delta,
    )


def mid_forcing(assembly: BeamAssembly, amplitude: float,
                omega: float) -> Callable[[float], np.ndarray]:
    """Transverse cosine force at the midpoint DOF."""
    e = np.zeros(assembly.n_dof)
    e[assembly.mid_dof_index] = amplitude

    def f(t):
        return e * np.cos(omega * t)

    return f


def branch_fixed_point(assembly: BeamAssembly, variant: NonsmoothVariant,
                       branch: str) -> np.ndarray:
    """Equilibrium of the branch smooth extension (18-vector, zero velocity)."""
    n = assembly.n_dof
    i = assembly.mid_dof_index
    q = np.zeros(n)
    for _ in range(60):
        x = np.concatenate([q, np.zeros(n)])
        r = assembly.internal_force(q)
        r[i] -= _branch_force(assembly, variant, branch, x)
        if np.linalg.norm(r) <= 1e-10 * max(1.0, abs(variant.delta)):
            break
        J = assembly.stiffness_matrix + assembly.nonlinear_jacobian(q)
        if variant.kind == "soft_impact" and branch == "-":
            J = J.copy()
            J[i, i] += variant.delta
        q = q - np.linalg.solve(J, r)
    return np.concatenate([q, np.zeros(n)])


def branch_jacobian(assembly: BeamAssembly, variant: Optional[NonsmoothVariant],
                    branch: str, x0: np.ndarray) -> np.ndarray:
    """Linearization of the branch field at a fixed point."""
    n = assembly.n_dof
    i = assembly.mid_dof_index
    q0 = x0[:n]
    Kt = assembly.stiffness_matrix + assembly.nonlinear_jacobian(q0)
    Ct = assembly.damping_matrix.copy()
    if variant is not None and variant.kind == "soft_impact" and branch == "-":
        Kt = Kt.copy()
        Kt[i, i] += variant.delta
    if variant is not None and variant.kind == "moving_belt":
        a, b = variant.alpha_fric, variant.beta_fric
        rel = x0[n + i] - variant.v_ground
        if branch == "+":
            dfd = variant.delta * (a / np.e) * np.exp((b - rel) / b) / b
        else:
            dfd = variant.delta * (a / np.e) * np.exp((b + rel) / b) / b
        # the force slope in velocity is positive on both extensions, so it
        # always weakens the damping carried by the mid DOF
        Ct[i, i] -= dfd
    A = np.zeros((2 * n, 2 * n))
    A[:n, n:] = np.eye(n)
    A[n:, :n] = -assembly.minv @ Kt
    A[n:, n:] = -assembly.minv @ Ct
    return A


def normalized_delta(assembly: BeamAssembly, variant: NonsmoothVariant,
                     reference_load: float = 12e3) -> float:
    """Normalization of delta per variant.

    coulomb/moving_belt: delta over the internal elastic force carried by the
    midpoint DOF in the reference static configuration. soft_impact: delta
    over the linear midpoint stiffness.
    """
    if variant.kind == "soft_impact":
        k_mid = assembly.stiffness_matrix[assembly.mid_dof_index,
                                          assembly.mid_dof_index]
        return variant.delta / k_mid
    q = static_deflection(assembly, reference_load)
    f_ref = abs(assembly.internal_force(q)[assembly.mid_dof_index])
    if f_ref == 0.0:
        raise ZeroDivisionError("reference elastic force is zero")
    return variant.delta / f_ref


def delta_for_normalized(assembly: BeamAssembly, kind: str, delta_tilde: float,
                         reference_load: float = 12e3, **kw) -> float:
    """Invert the normalization: raw delta achieving a target delta-tilde."""
    probe = NonsmoothVariant(kind=kind, delta=1.0, **kw)
    scale = normalized_delta(assembly, probe, reference_load)
    return delta_tilde / scale
