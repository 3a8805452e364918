import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from pwsrom import ssm_analytic as sa
from pwsrom import ssm_data as sd
from pwsrom.core import IntegratorOptions
from pwsrom.shaw_pierre import SpParams, sp_field, sp_forcing_vector, sp_shifted
from pwsrom.ssm_model import SsmModel


def quad_graph_dataset(n=300, seed=0):
    rng = np.random.default_rng(seed)
    xi = rng.uniform(-0.5, 0.5, size=(n, 2))
    Y = np.column_stack([xi[:, 0], xi[:, 1], xi[:, 0] ** 2])
    t = np.arange(n) * 0.01
    return sd.TrajectoryDataset(trajectories=[(t, Y)], trim_fraction=0.0)


def test_dataset_validation():
    t = np.array([0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        sd.TrajectoryDataset(trajectories=[(t, np.zeros((3, 2)))])
    t2 = np.array([0.0, 1.0])
    with pytest.raises(ValueError):
        sd.TrajectoryDataset(trajectories=[(t2, np.array([[1.0, np.nan]] * 2))])


def test_exact_recovery_quadratic_graph():
    data = quad_graph_dataset()
    V = np.eye(3)[:, :2]
    fit = sd.fit_manifold(data, V, order=2)
    assert np.allclose(fit.nl_dict()[(2, 0)], [0, 0, 1.0], atol=1e-8)
    assert np.abs(fit.v_matrix.T @ fit.m_coeffs).max() <= 1e-8
    assert fit.in_sample_nmte < 1e-10


def test_fit_requires_orthonormal_or_oblique_pair():
    data = quad_graph_dataset()
    with pytest.raises(ValueError):
        sd.fit_manifold(data, 2.0 * np.eye(3)[:, :2], order=2)


def test_linear_dynamics_recovery():
    A = np.array([[-0.1, 1.0], [-1.0, -0.1]])
    t, Y = sd.smooth_integrate(lambda s, x: A @ x, [1.0, 0.2], (0, 20), 0.01)
    Y3 = np.column_stack([Y, np.zeros(len(Y))])
    data = sd.TrajectoryDataset(trajectories=[(t, Y3)], trim_fraction=0.0)
    fit = sd.fit_manifold(data, np.eye(3)[:, :2], order=2)
    dyn = sd.fit_dynamics(data, fit, order=1)
    assert np.abs(dyn.r_coeffs - A).max() < 1e-6


def spiral_dataset(n_traj, n_rows):
    """Decaying spirals on a quadratic graph over the first two coordinates."""
    t = np.arange(n_rows) * 0.05
    trajs = []
    for k in range(n_traj):
        r = (0.2 + 0.3 * k / n_traj) * np.exp(-0.05 * t)
        xi = np.column_stack([r * np.cos(t + k), r * np.sin(t + k)])
        trajs.append((t, np.column_stack([xi, xi[:, 0] ** 2,
                                          xi[:, 0] * xi[:, 1]])))
    return sd.TrajectoryDataset(trajectories=trajs, trim_fraction=0.05)


def test_fits_hold_one_trajectory_not_the_dataset():
    data = spiral_dataset(100, 400)
    t, y = data.trajectories[0]
    one = t.nbytes + y.nbytes
    V = np.eye(4)[:, :2]
    tracemalloc.start()
    try:
        fit = sd.fit_manifold(data, V, order=5)
        sd.fit_dynamics(data, fit, order=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one trajectory's monomial block takes about four times its bytes, the
    # stacked dataset's about 400 times
    assert peak <= 20 * one


def test_streamed_in_sample_nmte_is_the_stacked_nmte():
    data = spiral_dataset(7, 300)
    x0 = np.array([0.01, -0.02, 0.0, 0.0])
    V, _ = np.linalg.qr(np.array([[1.0, 0.1], [0.2, 1.0], [0.0, 0.1],
                                  [0.1, 0.0]]))
    fit = sd.fit_manifold(data, V, order=2, x0=x0)
    Y = np.vstack([y for _, y in data.trimmed()])
    want = sd.nmte_arrays(Y, fit.reconstruct((Y - x0) @ V))
    assert want > 1e-4
    assert abs(fit.in_sample_nmte - want) <= 1e-13 * want


def test_derivative_estimator_order():
    t = np.arange(0, 1, 0.01)
    Y = np.column_stack([np.sin(3 * t), np.cos(2 * t)])
    Ym, dY = sd.estimate_derivatives(t, Y)
    ref = np.column_stack([3 * np.cos(3 * t), -2 * np.sin(2 * t)])[2:-2]
    assert np.abs(dY - ref).max() < 1e-6


def test_nmte_examples():
    assert sd.nmte_arrays(np.ones((5, 2)), np.ones((5, 2))) == 0.0
    ref = np.array([[2.0, 0.0]])
    rec = np.array([[1.0, 0.0]])
    assert np.isclose(sd.nmte_arrays(ref, rec, normalization=np.array([2.0, 0.0])), 0.5)
    with pytest.raises(ZeroDivisionError):
        sd.nmte_arrays(ref, rec, normalization=np.zeros(2))


@pytest.fixture(scope="module")
def sp_fit_bundle():
    params = SpParams(delta=0.1)
    model = sa.build_analytic_model(params, "+")
    Vt, _ = np.linalg.qr(model.tangent)
    angles = np.linspace(0, 2 * np.pi, 7, endpoint=False)
    ics = [model.lift(0.35 * np.array([np.cos(a), np.sin(a)])) for a in angles]
    data = sd.generate_training(lambda t, x: sp_field(params, "+", t, x),
                                ics, (0, 50), 0.02)
    fit = sd.fit_manifold(data, Vt, order=3, x0=model.x0)
    dyn = sd.fit_dynamics(data, fit, order=3)
    return params, model, Vt, data, fit, dyn


def test_sp_fit_matches_analytic_after_alignment(sp_fit_bundle):
    params, model, Vt, data, fit, dyn = sp_fit_bundle
    _, ana = sd.rechart(model, Vt.T)
    for p, v in ana.nl_coeffs.items():
        err = np.linalg.norm(fit.nl_dict()[p] - v) / np.linalg.norm(v)
        assert err < 0.05, (p, err)
    for p, v in ana.rdyn.items():
        err = np.linalg.norm(dyn.rdyn_dict()[p] - v) / np.linalg.norm(v)
        assert err < 0.05, (p, err)


def test_sp_fit_eigenvalues_close_to_published(sp_fit_bundle):
    _, _, _, _, _, dyn = sp_fit_bundle
    A = np.column_stack([dyn.rdyn_dict()[(1, 0)], dyn.rdyn_dict()[(0, 1)]])
    lam = sorted(np.linalg.eigvals(A), key=lambda z: -z.imag)[0]
    assert abs(lam - (-0.0741 + 1.0027j)) / abs(lam) < 0.01


def test_fit_constraints_satisfied(sp_fit_bundle):
    _, _, Vt, _, fit, _ = sp_fit_bundle
    assert np.linalg.norm(fit.v_matrix.T @ fit.v_matrix - np.eye(2)) <= 1e-10
    assert np.linalg.norm(fit.v_matrix.T @ fit.m_coeffs) <= 1e-8


def test_rechart_modal_chart_is_identity(sp_fit_bundle):
    params, model, *_ = sp_fit_bundle
    cc, back = sd.rechart(model, model.chart_w)
    assert np.allclose(cc.p_matrix, np.eye(2), atol=1e-12)
    for p, v in model.nl_coeffs.items():
        assert np.allclose(back.nl_coeffs[p], v, atol=1e-10)
    for p, v in model.rdyn.items():
        assert np.allclose(back.rdyn.get(p, np.zeros(2)), v, atol=1e-10)


def test_rechart_equivalent_trajectories(sp_fit_bundle):
    # inverting the chart map two orders beyond the model keeps the
    # re-expansion truncation below the equivalence tolerance
    params, model, Vt, *_ = sp_fit_bundle
    _, re_model = sd.rechart(model, Vt.T, max_degree=5)
    y0 = np.array([0.25, -0.1])
    xi0 = re_model.chart(model.lift(y0))
    opts = IntegratorOptions(rtol=1e-11, atol=1e-13)
    _, ya = sd.smooth_integrate(model.reduced_field, y0, (0.0, 12.0), 1.0, opts)
    _, yb = sd.smooth_integrate(re_model.reduced_field, xi0, (0.0, 12.0), 1.0,
                                opts)
    for xa, xb in zip(model.lift_many(ya), re_model.lift_many(yb)):
        scale = max(np.linalg.norm(xa - model.x0), 1e-12)
        assert np.linalg.norm(xa - xb) / scale < 1e-6


def test_rechart_singular_chart_rejected(sp_fit_bundle):
    params, model, *_ = sp_fit_bundle
    # rows orthogonal to the tangent plane cannot chart the manifold
    U, _, _ = np.linalg.svd(model.tangent)
    w0 = U[:, 2:].T
    with pytest.raises(sd.ChartError):
        sd.rechart(model, w0[:2])


def test_ridge_fallback_warns():
    t = np.arange(4) * 0.1
    Y = np.column_stack([np.linspace(0, 1e-12, 4), np.zeros(4), np.zeros(4)])
    data = sd.TrajectoryDataset(trajectories=[(t, Y)], trim_fraction=0.0)
    with pytest.warns(UserWarning):
        sd.fit_manifold(data, np.eye(3)[:, :2], order=3)


def test_nonmodal_correction_zero_forcing(sp_fit_bundle):
    params, model, *_ = sp_fit_bundle
    sh_a = sa.modal_split(params, "+")
    A4 = np.zeros((4, 4))
    corr = sd.nonmodal_forcing_correction(sh_a.v_matrix @ np.diag([0.0] * 4)
                                          @ sh_a.v_inv, model.tangent,
                                          model.chart_w, np.zeros(4), 0.0, 1.3)
    assert np.allclose(corr.v_hat_1, 0.0)
    assert np.allclose(corr.r_hat_1, 0.0)


def _modal_correction(split, f_hat, omega):
    """The slave-mode solve: h = (i omega - a_z)^-1 c_z / 2 for the modal
    forcing c = V^-1 f_hat, then v_hat = V_z h and r_hat = c_y / 2."""
    c = split.v_inv @ f_hat
    h = np.linalg.solve(1j * omega * np.eye(2) - split.a_z, c[2:] / 2.0)
    return split.v_matrix[:, 2:] @ h, c[:2] / 2.0


def test_nonmodal_correction_reduces_to_modal():
    # with the modal chart the general construction must agree with the
    # slave-mode solve on both branches
    params = SpParams(delta=0.1)
    f_hat = sp_forcing_vector(params)
    for branch in "+-":
        split = sa.modal_split(params, branch)
        model = sa.build_analytic_model(params, branch)
        A = sp_shifted(params, branch).a_tilde
        for omega in (0.8, 1.2, 1.6):
            general = sd.nonmodal_forcing_correction(
                A, model.tangent, model.chart_w, f_hat, 0.1, omega)
            v_hat, r_hat = _modal_correction(split, f_hat, omega)
            assert np.linalg.norm(general.v_hat_1 - v_hat) \
                <= 1e-12 * np.linalg.norm(v_hat)
            assert np.linalg.norm(general.r_hat_1 - r_hat) \
                <= 1e-12 * np.linalg.norm(r_hat)


def test_data_model_json_roundtrip(tmp_path, sp_fit_bundle):
    _, _, _, _, fit, dyn = sp_fit_bundle
    model = sd.model_from_fits(fit, dyn, "+")
    p = tmp_path / "m.json"
    model.to_json(p)
    back = SsmModel.from_json(p)
    y = np.array([0.1, 0.05])
    assert np.allclose(back.lift(y), model.lift(y), atol=1e-14)
    assert back.source == "data"
    assert "trust_radius" not in model.to_dict()
    # a trust radius and terms of order >= 10 round-trip exactly too
    big = dataclasses.replace(
        model, trust_radius=1.15,
        nl_coeffs={**model.nl_coeffs, (3, 7): np.full(4, 1e-3)},
        rdyn={**model.rdyn, (10, 0): np.array([2e-4, -1e-4])})
    big.to_json(p)
    back = SsmModel.from_json(p)
    assert back.trust_radius == 1.15
    assert json.dumps(back.to_dict()) == json.dumps(big.to_dict())
    y = np.array([1.0, 0.9])
    assert np.array_equal(back.reduced_field(0.0, y), big.reduced_field(0.0, y))
