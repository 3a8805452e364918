import numpy as np
import pytest

from pwsrom.core import (BoundaryKind, IntegratorOptions, classify_boundary,
                         integrate_hybrid)
from pwsrom.shaw_pierre import (SP_SURFACE, SpParams, make_system, sp_field,
                                sp_fixed_points, sp_shifted)
from sp_oracles import sp_sticking_test


def test_params_validation():
    with pytest.raises(ValueError):
        SpParams(m1=0.0)
    with pytest.raises(ValueError):
        SpParams(delta=-0.1)


def test_field_vanishes_at_fixed_point():
    params = SpParams(delta=0.2)
    fp = sp_fixed_points(params)
    assert np.allclose(sp_field(params, "+", 0.0, fp.x0_plus), 0.0, atol=1e-14)
    assert np.allclose(sp_field(params, "-", 0.0, fp.x0_minus), 0.0, atol=1e-14)


def test_field_branches_agree_without_friction():
    params = SpParams(delta=0.0)
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.normal(size=4)
        assert np.allclose(sp_field(params, "+", 0.0, x),
                           sp_field(params, "-", 0.0, x))


def test_field_hand_value():
    params = SpParams(delta=0.1)
    out = sp_field(params, "+", 0.0, np.array([1.0, 0.0, 0.0, 0.0]))
    assert np.allclose(out, [0.0, -2.6, 0.0, 1.0])


def test_field_returns_python_floats():
    # a tuple of Python floats runs on core's float stepper; no np.float64
    # may slip in from the state or the forcing
    for params in (SpParams(delta=0.1), SpParams(delta=0.1, eps=0.15, omega=1.1)):
        for branch in "+-":
            for x in (np.array([0.3, 0.1, -0.2, 0.4]), (0.3, 0.1, -0.2, 0.4)):
                out = sp_field(params, branch, 0.7, x)
                assert type(out) is tuple and len(out) == 4
                assert all(type(v) is float for v in out)


def test_switching_values():
    sys = make_system(SpParams(delta=0.1))
    assert sys.surface == SP_SURFACE == (1, 0.0)
    assert sys.sigma(np.array([5.0, 0.0, -3.0, 2.0])) == 0.0
    assert sys.sigma(np.array([0.0, -0.4, 0.0, 0.0])) == -0.4
    assert sys.sigma((0.0, -0.4, 0.0, 0.0)) == -0.4


def test_sticking_test_cases():
    # the closed-form oracle, and the system's Filippov classification agrees
    cases = [(SpParams(delta=0.05), np.zeros(4), True),
             (SpParams(delta=0.01), np.array([10.0, 0.0, 0.0, 0.0]), False),
             # boundary equality is excluded (strict inequality)
             (SpParams(delta=0.0), np.zeros(4), False)]
    for params, x, sticks in cases:
        assert sp_sticking_test(params, x) == sticks
        kind = classify_boundary(make_system(params), x).kind
        assert (kind == BoundaryKind.ATTRACTING_SLIDING) == sticks


def test_fixed_points_zero_friction():
    fp = sp_fixed_points(SpParams(delta=0.0))
    assert fp.q0_plus == fp.q0_minus == 0.0


def test_fixed_points_cardano_residual():
    params = SpParams(delta=0.1)
    fp = sp_fixed_points(params)
    assert np.isclose(fp.q0_plus, -0.0666, atol=5e-5)
    # cubic residual, unit parameters: q^3 + 3 q + 2 delta = 0 on branch +
    res = fp.q0_plus ** 3 + 3 * fp.q0_plus + 2 * params.delta
    assert abs(res) < 1e-12
    x0 = fp.x0_plus
    assert x0[2] == 0.5 * x0[0]


def test_fixed_points_odd_symmetry():
    for d in (0.0, 0.05, 0.3, 1.0):
        fp = sp_fixed_points(SpParams(delta=d))
        assert np.isclose(fp.q0_plus, -fp.q0_minus, atol=1e-15)


def _shifted_terms(sh, xi):
    """Quadratic and cubic terms of the shifted field, from c2 and c3."""
    return (np.array([0.0, sh.c2 * xi[0] ** 2, 0.0, 0.0]),
            np.array([0.0, sh.c3 * xi[0] ** 3, 0.0, 0.0]))


def test_shifted_constant_term_vanishes():
    params = SpParams(delta=0.17)
    fp = sp_fixed_points(params)
    for branch in "+-":
        sh = sp_shifted(params, branch)
        x0 = fp.x0(branch)
        # the shifted system has no constant term: the field vanishes at x0
        assert np.allclose(sp_field(params, branch, 0.0, x0), 0.0, atol=1e-15)
        # consistency of the shifted expansion against the raw field
        rng = np.random.default_rng(2)
        for _ in range(5):
            xi = rng.uniform(-0.3, 0.3, 4)
            lhs = sp_field(params, branch, 0.0, x0 + xi)
            quad, cub = _shifted_terms(sh, xi)
            rhs = sh.a_tilde @ xi + quad + cub
            assert np.allclose(lhs, rhs, atol=1e-12)


def test_shifted_matrix_branch_independent():
    pa = sp_shifted(SpParams(delta=0.1), "+")
    pb = sp_shifted(SpParams(delta=0.1), "-")
    assert np.array_equal(pa.a_tilde, pb.a_tilde)
    assert pa.a_tilde[1, 0] == -2.0 - 1.5 * pa.q0 ** 2


def test_shifted_quadratic_vanishes_at_zero_friction():
    sh = sp_shifted(SpParams(delta=0.0), "+")
    assert sh.c2 == 0.0
    assert np.allclose(_shifted_terms(sh, np.array([1.0, 0, 0, 0]))[0], 0.0)


def test_mirror_symmetry():
    params = SpParams(delta=0.23)
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.normal(size=4)
        assert np.allclose(sp_field(params, "-", 0.0, -x),
                           -np.asarray(sp_field(params, "+", 0.0, x)), atol=1e-13)


def test_repelling_sliding_never_occurs():
    params = SpParams(delta=0.08)
    sys = make_system(params)
    rng = np.random.default_rng(4)
    for _ in range(1000):
        x = rng.uniform(-2.0, 2.0, 4)
        x[1] = 0.0
        cls = classify_boundary(sys, x)
        assert cls.kind != BoundaryKind.REPELLING_SLIDING


def sp_energy(params, x):
    """Kinetic plus potential (quadratic springs + hardening quartic)."""
    m1, m2, c, k, a = params.m1, params.m2, params.c, params.k, params.alpha
    q1, v1, q2, v2 = x
    kin = 0.5 * m1 * v1 ** 2 + 0.5 * m2 * v2 ** 2
    pot = k * q1 ** 2 + k * q2 ** 2 - k * q1 * q2 + 0.25 * a * q1 ** 4
    return kin + pot


def test_energy_dissipation_along_hybrid_trajectory():
    params = SpParams(delta=0.05)
    sys = make_system(params)
    traj = integrate_hybrid(sys, [1.0, 0.5, 0.0, 0.0], (0.0, 30.0),
                            IntegratorOptions(t_eval_dt=0.25))
    energies = [sp_energy(params, x) for x in traj.states()]
    diffs = np.diff(energies)
    assert np.all(diffs <= 1e-9 * max(energies))
