"""The compiled SsmModel evaluator against the Poly2 oracle.

lift, lift_jacobian and reduced_field run on dense coefficient matrices built
at construction; Poly2 evaluation of the same coefficient dicts (and its
.diff) is the reference, with the forcing from the complex-exponential
formula eps * 2 Re[a e^{i omega t}].
"""

import dataclasses

import numpy as np
import pytest

from pwsrom import ssm_analytic as sa
from pwsrom import ssm_data as sd
from pwsrom.poly2 import monomials, vector_poly
from pwsrom.shaw_pierre import SpParams, sp_field

REL = 1e-13


def rel(a, b):
    return np.linalg.norm(np.subtract(a, b)) / np.linalg.norm(b)


def analytic_forced():
    return sa.build_analytic_model(SpParams(delta=0.1), "+", order=3,
                                   eps=0.15, omega=1.1)


def fitted_order5():
    params = SpParams(delta=0.1)
    ana = sa.build_analytic_model(params, "+")
    Vt, _ = np.linalg.qr(ana.tangent)
    angles = np.linspace(0, 2 * np.pi, 7, endpoint=False)
    ics = [ana.lift(0.35 * np.array([np.cos(a), np.sin(a)])) for a in angles]
    data = sd.generate_training(lambda t, x: sp_field(params, "+", t, x),
                                ics, (0, 30), 0.02)
    fit = sd.fit_manifold(data, Vt, order=5, x0=ana.x0)
    dyn = sd.fit_dynamics(data, fit, order=5)
    return sd.model_from_fits(fit, dyn, "+")


def order10_forced():
    """Every monomial up to order 10 in both maps, plus a forcing term."""
    base = analytic_forced()
    rng = np.random.default_rng(3)
    nl = {p: 0.5 ** sum(p) * rng.standard_normal(base.dim)
          for p in monomials(2, 10)}
    rdyn = {**base.rdyn, **{p: 0.5 ** sum(p) * rng.standard_normal(2)
                            for p in monomials(2, 10)}}
    return dataclasses.replace(base, nl_coeffs=nl, rdyn=rdyn)


MODELS = {"analytic3": analytic_forced, "fitted5": fitted_order5,
          "order10": order10_forced}


@pytest.fixture(scope="module", params=sorted(MODELS))
def model(request):
    return MODELS[request.param]()


def forcing(m, amp, t):
    c = m.correction
    if c is None or t is None:
        return 0.0
    return c.eps * 2.0 * (amp(c) * np.exp(1j * c.omega * t)).real


def lift_poly(m):
    return vector_poly({(1, 0): m.tangent[:, 0], (0, 1): m.tangent[:, 1],
                        **m.nl_coeffs})


def oracle_lift(m, y, t=None):
    return m.x0 + lift_poly(m)(y) + forcing(m, lambda c: c.v_hat_1, t)


def oracle_field(m, t, y):
    return vector_poly(m.rdyn)(y) + forcing(m, lambda c: c.r_hat_1, t)


def points(n=12, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-0.45, 0.45, size=(n, 2)), rng.uniform(0.0, 20.0, n)


def test_lift_with_and_without_time(model):
    Y, T = points()
    for y, t in zip(Y, T):
        # unforced lifts keep the term-by-term sum exactly: full-model runs
        # started from lifted states do not move
        assert np.array_equal(model.lift(y), oracle_lift(model, y))
        assert rel(model.lift(y, t), oracle_lift(model, y, t)) <= REL
    assert np.array_equal(model.lift(np.zeros(2)), model.x0)


def test_lift_jacobian_matches_diff_and_central_difference(model):
    P = lift_poly(model)
    J_ref = (P.diff(0), P.diff(1))
    h = 1e-6
    for y in points(seed=1)[0]:
        J = model.lift_jacobian(y)
        assert J.shape == (model.dim, 2)
        assert rel(J, np.column_stack([J_ref[0](y), J_ref[1](y)])) <= REL
        fd = np.column_stack([
            (model.lift(y + h * e) - model.lift(y - h * e)) / (2 * h)
            for e in np.eye(2)])
        assert rel(J, fd) <= 1e-7


def test_reduced_field_inside_and_outside_trust_radius(model):
    m = dataclasses.replace(model)
    assert m.trust_radius is None
    pull = 2.0 * np.linalg.norm(m.linear_block(), 2)
    Y, T = points(seed=2)
    for y, t in zip(Y, T):
        assert rel(m.reduced_field(t, y), oracle_field(m, t, y)) <= REL
    # a radius set after construction is honoured at the next call
    m.trust_radius = 0.3
    for y, t in zip(Y, T):
        r = np.linalg.norm(y)
        if r <= 0.3:
            ref = oracle_field(m, t, y)
        else:
            u = y / r
            ref = oracle_field(m, t, 0.3 * u) - pull * (r - 0.3) * u
        assert rel(m.reduced_field(t, y), ref) <= REL
    m.trust_radius = None
    y = np.array([0.4, 0.3])
    assert rel(m.reduced_field(1.0, y), oracle_field(m, 1.0, y)) <= REL


def test_forcing_matches_complex_exponential():
    m = analytic_forced()
    c = m.correction
    y = np.array([0.2, -0.1])
    for t in np.linspace(0.0, 2 * np.pi / c.omega, 9):
        e = np.exp(1j * c.omega * t)
        dx = m.lift(y, t) - m.lift(y)
        dy = m.reduced_field(t, y) - vector_poly(m.rdyn)(y)
        assert np.allclose(dx, c.eps * 2.0 * (c.v_hat_1 * e).real,
                           rtol=0, atol=1e-15)
        assert np.allclose(dy, c.eps * 2.0 * (c.r_hat_1 * e).real,
                           rtol=0, atol=1e-15)


def test_lift_many_matches_pointwise_lift(model):
    Y, T = points(n=40, seed=4)
    X = model.lift_many(Y, T)
    assert X.shape == (40, model.dim)
    assert rel(X, np.vstack([model.lift(y, t) for y, t in zip(Y, T)])) <= REL
    assert rel(model.lift_many(Y), np.vstack([model.lift(y) for y in Y])) <= REL
