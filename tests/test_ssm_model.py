"""The compiled SsmModel evaluator against the Poly2 oracle.

lift, lift_jacobian and reduced_field run on dense coefficient matrices built
at construction; Poly2 evaluation of the same coefficient dicts (and its
.diff) is the reference, with the forcing from the complex-exponential
formula eps * 2 Re[a e^{i omega t}].
"""

import dataclasses
import json
import math
import pickle

import numpy as np
import pytest

from pwsrom import ssm_analytic as sa
from pwsrom import ssm_data as sd
from pwsrom import ssm_model as sm
from pwsrom.poly2 import monomials, vector_poly
from pwsrom.problem import Oscillator
from pwsrom.rom import simulate_rom, switching_value
from pwsrom.shaw_pierre import SpParams, sp_field
from pwsrom.ssm_model import SsmModel

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


def test_unforced_reduced_field_is_the_term_by_term_sum(model):
    # the float evaluation takes the monomials in table order with libm
    # powers, as the Poly2 sum does
    for y in points(seed=4)[0]:
        assert np.array_equal(model.reduced_field(None, y),
                              vector_poly(model.rdyn)(y))


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


# ---------------------------------------------------------------------------
# the generated evaluators against the loops they replaced


def loop_reduced(m):
    """SsmModel._reduced as the loop over (i, j, a1, a2) terms that ran
    before its straight-line form was generated."""
    exps = monomials(0, m._deg)
    terms = [(i, j, *np.asarray(m.rdyn[i, j], dtype=float).tolist())
             for i, j in exps if np.any(m.rdyn.get((i, j), 0.0))]
    omega, rforce, c = 0.0, None, m.correction
    if c is not None:
        omega = c.omega
        rforce = (2.0 * c.eps * np.real(c.r_hat_1)).tolist() + (
            -2.0 * c.eps * np.imag(c.r_hat_1)).tolist()
    pows = range(m._deg + 1)

    def reduced(t, y1, y2):
        p1, p2 = [y1 ** k for k in pows], [y2 ** k for k in pows]
        f1 = f2 = 0.0
        for i, j, a1, a2 in terms:
            mono = p1[i] * p2[j]
            f1 += a1 * mono
            f2 += a2 * mono
        if t is not None and rforce is not None:
            c1, c2, s1, s2 = rforce
            wt = omega * t
            cw, sw = math.cos(wt), math.sin(wt)
            f1 += c1 * cw + s1 * sw
            f2 += c2 * cw + s2 * sw
        return f1, f2

    return reduced


def loop_field(m):
    """SsmModel.reduced_field on loop_reduced."""
    reduced = loop_reduced(m)

    def field(t, y):
        y1, y2 = float(y[0]), float(y[1])
        rho = m.trust_radius
        if rho is not None:
            r = math.hypot(y1, y2)
            if r > rho:
                u1, u2 = y1 / r, y2 / r
                f1, f2 = reduced(t, rho * u1, rho * u2)
                pull = m._pull * (r - rho)
                return f1 - pull * u1, f2 - pull * u2
        return reduced(t, y1, y2)

    return field


def loop_component(m, i, level):
    """lift(y, t)[i] - level as the loop over the nonzero entries of C[:, i]
    that SsmModel.lift_component composed before."""
    s = m._C[:, i].tolist()
    K, deg = len(s) - 3, m._deg
    omega = m.correction.omega if m.correction is not None else 0.0
    terms = [(i, j, s[k]) for k, (i, j) in enumerate(monomials(0, deg)) if s[k]]
    s_x0, s_cos, s_sin = s[K:]
    pows = range(deg + 1)

    def value(y, t=None):
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
        return v - level

    return value


def osc_frc_forced():
    """The forced order-3 model of the oscillator FRC (delta 1e-2, eps 0.15)."""
    return sa.build_analytic_model(SpParams(delta=1e-2), "+", order=3,
                                   eps=0.15, omega=1.0)


def reloaded(make):
    return lambda: SsmModel.from_dict(json.loads(json.dumps(make().to_dict())))


EVALUATOR_MODELS = {
    "osc_frc_forced3": osc_frc_forced,
    "fitted5_trusted": lambda: dataclasses.replace(fitted_order5(),
                                                   trust_radius=0.3),
    "order10": order10_forced,
    "reloaded": reloaded(analytic_forced),
}


def random_points(n=40_000, seed=7):
    """n reduced points around the trust ball, the four signed zeros first."""
    rng = np.random.default_rng(seed)
    Y = rng.uniform(-0.6, 0.6, size=(n, 2))
    Y[:4] = [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)]
    return Y.tolist(), rng.uniform(0.0, 40.0, n).tolist()


@pytest.mark.parametrize("name", sorted(EVALUATOR_MODELS))
def test_generated_reduced_field_is_the_loop_to_the_bit(name):
    m = EVALUATOR_MODELS[name]()
    ref = loop_field(m)
    Y, T = random_points()
    for y, t in zip(Y, T):
        for tt in (None, t):
            assert repr(m.reduced_field(tt, y)) == repr(ref(tt, y))


@pytest.mark.parametrize("name", sorted(EVALUATOR_MODELS))
def test_generated_switching_value_is_the_loop_to_the_bit(name):
    m = EVALUATOR_MODELS[name]()
    Y, T = random_points(seed=8)
    for i, level in ((1, 0.0), (m.dim - 1, 0.3)):
        value, ref = m.lift_component(i, level), loop_component(m, i, level)
        assert m.lift_component(i, level) is value
        for y, t in zip(Y, T):
            assert repr(value(y)) == repr(ref(y))
            assert repr(value(y, t)) == repr(ref(y, t))
        for y, t in zip(Y[:200], T[:200]):
            assert value(y, t) == m.lift(y, t)[i] - level


@pytest.mark.parametrize("name", sorted(EVALUATOR_MODELS))
def test_generated_slope_is_grad_sigma_times_the_lift_jacobian(name):
    # the same products as the oracle, summed left to right instead of by
    # BLAS, so they agree to round-off: the worst seen is 3e-14 at order 10
    m = EVALUATOR_MODELS[name]()
    Y, _ = random_points(seed=10)
    for i in (1, m.dim - 1):
        slope = m.component_slope(i)
        assert m.component_slope(i) is slope
        for y in Y:
            got, ref = slope(None, *y), m.lift_jacobian(y)[i]
            assert _is_float_pair(got)
            assert np.abs(np.subtract(got, ref)).max() <= REL * np.abs(ref).max()


@pytest.mark.parametrize("name", sorted(EVALUATOR_MODELS))
def test_lift_components_are_the_lift_to_the_bit(name):
    m = EVALUATOR_MODELS[name]()
    parts = [m.lift_component(i) for i in range(m.dim)]
    Y, T = random_points(n=4000, seed=13)
    for y, t in zip(Y, T):
        assert tuple(part(y, t) for part in parts) == tuple(m.lift(y, t))
        assert tuple(part(y) for part in parts) == tuple(m.lift(y))


def _is_float_pair(v):
    return type(v) is tuple and len(v) == 2 and all(type(c) is float for c in v)


def test_one_evaluator_per_monomial_structure():
    # a (4, 4) term gives a structure no other test builds
    base = analytic_forced()
    rng = np.random.default_rng(5)
    before = sm._evaluator.cache_info().currsize
    models = [dataclasses.replace(
        base, rdyn={**{p: v * (1.0 + 0.1 * rng.standard_normal(2))
                       for p, v in base.rdyn.items()},
                    (4, 4): rng.standard_normal(2)}) for _ in range(32)]
    assert sm._evaluator.cache_info().currsize == before + 1
    y = (0.2, -0.1)
    assert len({m.reduced_field(1.0, y) for m in models}) == 32


def test_used_model_round_trips_through_pickle():
    rom = Oscillator(SpParams(delta=0.05, eps=0.15, omega=1.0)).rom()
    model = rom.model("+")
    y0 = model.chart(np.array([0.5, 0.3, -0.2, 0.1]))
    simulate_rom(rom, y0, "+", (0.0, 5.0))
    value = switching_value(rom, model)
    clone = pickle.loads(pickle.dumps(model))
    clone_value = switching_value(rom, clone)
    Y, T = random_points(n=2000, seed=9)
    for y, t in zip(Y, T):
        assert repr(clone.reduced_field(t, y)) == repr(model.reduced_field(t, y))
        assert repr(clone_value(y, t)) == repr(value(y, t))
    assert clone.to_dict() == model.to_dict()
