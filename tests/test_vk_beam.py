import numpy as np
import pytest

from pwsrom.core import (BoundaryKind, IntegratorOptions, classify_boundary,
                         integrate_hybrid)
from pwsrom import vk_beam as vkb


@pytest.fixture(scope="module")
def asm():
    return vkb.assemble_beam(vkb.BeamProperties())


def test_properties_validation():
    with pytest.raises(ValueError):
        vkb.BeamProperties(length=-1.0)
    p = vkb.BeamProperties()
    assert np.isclose(p.area, 1e-3)
    assert np.isclose(p.second_moment, 0.05 * 0.02 ** 3 / 12)


def test_first_frequency_against_closed_form(asm):
    p = asm.props
    ref = 22.373 / p.length ** 2 * np.sqrt(
        p.young_modulus * p.second_moment / (p.density * p.area))
    w1 = asm.natural_frequencies()[0]
    assert abs(w1 - ref) / ref < 0.05


def test_matrix_symmetry(asm):
    K, M, C = asm.stiffness_matrix, asm.mass_matrix, asm.damping_matrix
    assert np.abs(K - K.T).max() <= 1e-12 * np.abs(K).max()
    assert np.abs(M - M.T).max() <= 1e-12 * np.abs(M).max()
    assert np.all(np.linalg.eigvalsh(K) > 0)
    assert np.all(np.linalg.eigvalsh(M) > 0)
    assert np.all(np.linalg.eigvalsh(C) > -1e-12)


def test_nonlinear_force_zero_at_rest(asm):
    assert np.allclose(asm.nonlinear_force(np.zeros(9)), 0.0)
    # vanishing Jacobian at the origin: quadratic and higher only
    assert np.abs(asm.nonlinear_jacobian(np.zeros(9))).max() == 0.0


def test_nonlinear_jacobian_consistent(asm):
    rng = np.random.default_rng(0)
    q = rng.uniform(-1e-3, 1e-3, 9)
    J = asm.nonlinear_jacobian(q)
    for i in range(9):
        dq = np.zeros(9)
        dq[i] = 1e-8
        fd = (asm.nonlinear_force(q + dq) - asm.nonlinear_force(q - dq)) / 2e-8
        assert np.allclose(J[:, i], fd, rtol=1e-4, atol=1e-2)


def test_static_deflection_cases(asm):
    assert np.allclose(vkb.static_deflection(asm, 0.0), 0.0)
    q = vkb.static_deflection(asm, 12e3)
    assert q[asm.mid_dof_index] > 0.0
    # left-right mirror symmetry: w symmetric, u and theta antisymmetric
    assert abs(q[1] - q[7]) <= 1e-9 * abs(q[asm.mid_dof_index])
    assert abs(q[2] + q[8]) <= 1e-9 * abs(q[asm.mid_dof_index])
    assert abs(q[0] + q[6]) <= 1e-9 * abs(q[asm.mid_dof_index])
    # linear-regime doubling
    q1 = vkb.static_deflection(asm, 1.0)
    q2 = vkb.static_deflection(asm, 2.0)
    assert np.abs(q2 - 2 * q1).max() <= 1e-3 * np.abs(q2).max()


def test_static_newton_residual(asm):
    q = vkb.static_deflection(asm, 12e3)
    f = np.zeros(9)
    f[asm.mid_dof_index] = 12e3
    assert np.linalg.norm(asm.internal_force(q) - f) <= 1e-9 * 12e3


def test_variant_validation():
    with pytest.raises(ValueError):
        vkb.NonsmoothVariant(kind="bogus", delta=1.0)
    with pytest.raises(ValueError):
        vkb.NonsmoothVariant(kind="coulomb", delta=-1.0)


def test_soft_impact_positive_branch_free(asm):
    v = vkb.NonsmoothVariant(kind="soft_impact", delta=1e3)
    rng = np.random.default_rng(1)
    for _ in range(5):
        x = rng.uniform(-1e-3, 1e-3, 18)
        fp = vkb.beam_field(asm, v, "+", 0.0, x)
        f0 = vkb.beam_field(asm, None, "+", 0.0, x)
        assert np.allclose(fp, f0)


def test_soft_impact_admits_only_crossing(asm):
    v = vkb.NonsmoothVariant(kind="soft_impact", delta=1792.0)
    sys = vkb.make_beam_system(asm, v)
    rng = np.random.default_rng(2)
    for _ in range(200):
        x = rng.uniform(-1e-3, 1e-3, 18)
        x[asm.mid_dof_index] = 0.0
        cls = classify_boundary(sys, x)
        assert cls.kind in (BoundaryKind.CROSSING, BoundaryKind.TANGENTIAL)


def test_belt_friction_law_values(asm):
    v = vkb.NonsmoothVariant(kind="moving_belt", delta=1.0, v_ground=0.1,
                             alpha_fric=0.3, beta_fric=0.1)
    # at |rel| = beta the magnitude is 1 + alpha/e
    f = vkb.belt_friction(v, v.beta_fric, "+")
    assert np.isclose(abs(f), 1 + v.alpha_fric / np.e)
    # large slip approaches the kinetic level
    f_inf = vkb.belt_friction(v, 50.0, "+")
    assert abs(abs(f_inf) - 1.0) < 1e-3
    # zero relative speed: the static peak 1 + alpha on both extensions
    assert np.isclose(abs(vkb.belt_friction(v, 0.0, "+")), 1 + v.alpha_fric)
    assert np.isclose(abs(vkb.belt_friction(v, 0.0, "-")), 1 + v.alpha_fric)
    # odd symmetry between the branch extensions
    for rel in (0.03, 0.2, 1.0):
        assert np.isclose(vkb.belt_friction(v, rel, "+"),
                          -vkb.belt_friction(v, -rel, "-"))


def strain_energy(assembly, q):
    """Exact elastic energy: axial (with the quadratic coupling) plus bending."""
    props = assembly.props
    E, A, I = props.young_modulus, props.area, props.second_moment
    L = props.length / props.n_elements
    ndof = 3 * (props.n_elements + 1)
    qf = np.zeros(ndof)
    qf[3:ndof - 3] = q
    Bu = np.array([-1.0, 0, 0, 1.0, 0, 0]) / L
    total = 0.0
    for e in range(props.n_elements):
        d = qf[3 * e: 3 * e + 6]
        for s, wgt in zip(vkb._GP, vkb._GW):
            G = np.array([0, (-6 * s + 6 * s**2), L * (1 - 4 * s + 3 * s**2),
                          0, (6 * s - 6 * s**2), L * (-2 * s + 3 * s**2)]) / L
            Bb = np.array([0, -6 + 12 * s, L * (-4 + 6 * s),
                           0, 6 - 12 * s, L * (-2 + 6 * s)]) / L**2
            eps0 = Bu @ d + 0.5 * (G @ d) ** 2
            kap = Bb @ d
            total += wgt * L * (0.5 * E * A * eps0 ** 2 + 0.5 * E * I * kap ** 2)
    return total


def total_energy(assembly, x):
    n = assembly.n_dof
    q, v = x[:n], x[n:]
    return 0.5 * float(v @ assembly.mass_matrix @ v) + strain_energy(assembly, q)


def test_energy_decay_smooth_beam(asm):
    v = vkb.NonsmoothVariant(kind="coulomb", delta=0.0)
    sys = vkb.make_beam_system(asm, v)
    q0 = vkb.static_deflection(asm, 2e3)
    x0 = np.concatenate([q0, np.zeros(9)])
    traj = integrate_hybrid(sys, x0, (0.0, 0.05),
                            IntegratorOptions(rtol=1e-8, atol=1e-10,
                                              first_step=1e-6,
                                              t_eval_dt=5e-4,
                                              record_steps=False))
    E = [total_energy(asm, x) for x in traj.states()]
    diffs = np.diff(E)
    assert np.all(diffs <= 1e-9 * E[0])
    assert E[-1] < 0.9 * E[0]


def test_normalized_delta(asm):
    v0 = vkb.NonsmoothVariant(kind="coulomb", delta=0.0)
    assert vkb.normalized_delta(asm, v0) == 0.0
    # the reference elastic force at the mid DOF equals the applied load
    v = vkb.NonsmoothVariant(kind="coulomb", delta=12.0)
    assert np.isclose(vkb.normalized_delta(asm, v), 1e-3, rtol=1e-9)
    raw = vkb.delta_for_normalized(asm, "coulomb", 1e-3)
    assert np.isclose(raw, 12.0, rtol=1e-9)
    vs = vkb.NonsmoothVariant(kind="soft_impact", delta=100.0)
    k_mid = asm.stiffness_matrix[asm.mid_dof_index, asm.mid_dof_index]
    assert np.isclose(vkb.normalized_delta(asm, vs), 100.0 / k_mid)


def test_belt_instability_threshold(asm):
    # stable at small delta, unstable (limit-cycle generating) at the default
    v_lo = vkb.NonsmoothVariant(kind="moving_belt", delta=2.0)
    x_lo = vkb.branch_fixed_point(asm, v_lo, "-")
    lam_lo = np.linalg.eigvals(vkb.branch_jacobian(asm, v_lo, "-", x_lo))
    assert lam_lo.real.max() < 0.0
    v_hi = vkb.NonsmoothVariant(kind="moving_belt", delta=8.0)
    x_hi = vkb.branch_fixed_point(asm, v_hi, "-")
    lam_hi = np.linalg.eigvals(vkb.branch_jacobian(asm, v_hi, "-", x_hi))
    assert lam_hi.real.max() > 0.0


def test_branch_fixed_points(asm):
    v = vkb.NonsmoothVariant(kind="coulomb", delta=12.0)
    for b in "+-":
        x0 = vkb.branch_fixed_point(asm, v, b)
        f = vkb.beam_field(asm, v, b, 0.0, x0)
        assert np.abs(f).max() < 1e-8
    vs = vkb.NonsmoothVariant(kind="soft_impact", delta=1792.0)
    assert np.allclose(vkb.branch_fixed_point(asm, vs, "+"), 0.0)
    assert np.allclose(vkb.branch_fixed_point(asm, vs, "-"), 0.0)


def test_mid_forcing(asm):
    f = vkb.mid_forcing(asm, 35e3, 600.0)
    v = f(0.0)
    assert v[asm.mid_dof_index] == 35e3
    assert np.count_nonzero(v) == 1
    assert np.isclose(f(np.pi / 600.0)[asm.mid_dof_index], -35e3)
