"""Fit branch manifolds of the beam variants and assemble switched reduced
models from them, unforced or under midpoint forcing, including the
physical-coordinate chart needed to track sticking, which follows the full
beam's Filippov field (rom.StickingRule)."""

from __future__ import annotations

import numpy as np

from . import spectral
from . import ssm_data as sd
from .core import IntegratorOptions
from .rom import NonsmoothRom, RomConfigurationError, StickingRule
from .ssm_model import SsmModel
from .vk_beam import (BeamAssembly, NonsmoothVariant, beam_field,
                      branch_fixed_point, branch_jacobian, make_beam_system,
                      mid_forcing)


def fit_branch_from_data(assembly: BeamAssembly, variant, branch: str,
                         data, order_m: int = 5, order_r: int = 5,
                         chart: str = "modal"):
    """Manifold + dynamics fit of one branch from a prepared dataset."""
    n = assembly.n_dof
    x0 = branch_fixed_point(assembly, variant, branch)
    A = branch_jacobian(assembly, variant, branch, x0)
    # one displacement scale and one velocity scale: balances the units
    # without distorting the eigenvector geometry
    amp_q = amp_v = 0.0
    for _, y in data.trimmed():
        amp_q = max(amp_q, np.abs(y[:, :n] - x0[:n]).max())
        amp_v = max(amp_v, np.abs(y[:, n:] - x0[n:]).max())
    block_scale = np.concatenate([np.full(n, amp_q), np.full(n, amp_v)])
    data_s, scale = sd.scale_dataset(data, x0, scale=block_scale)
    A_s = A * np.outer(1.0 / scale, scale)
    lin_s = spectral.decompose(A_s)
    sub = spectral.subspace(lin_s, [0])
    if chart == "physical":
        # reduced coordinates = midpoint pair normalized by its own data
        # extent, so the training support fills the unit square and a
        # trust radius near one bounds the fitted polynomials
        Ys = np.vstack([y for _, y in data_s.trimmed()])
        ext_q = np.abs(Ys[:, assembly.mid_dof_index]).max()
        ext_v = np.abs(Ys[:, n + assembly.mid_dof_index]).max()
        W0 = np.zeros((2, 2 * n))
        W0[0, assembly.mid_dof_index] = 1.0 / ext_q
        W0[1, n + assembly.mid_dof_index] = 1.0 / ext_v
        P = W0 @ sub.v_basis
        V0 = sub.v_basis @ np.linalg.inv(P)
        fit = sd.fit_manifold(data_s, V0, order_m, w_matrix=W0)
        A_slow = W0 @ A_s @ V0
    else:
        V0, _ = np.linalg.qr(sub.v_basis)
        fit = sd.fit_manifold(data_s, V0, order_m)
        A_slow = V0.T @ A_s @ V0
    # the slow linear block is known from the linearization
    dyn = sd.fit_dynamics(data_s, fit, order_r, known_linear=A_slow,
                          ridge=1e-7)
    model_s = sd.model_from_fits(fit, dyn, branch)
    model = sd.unscale_model(model_s, x0, scale)
    model.meta["in_sample_nmte"] = fit.in_sample_nmte
    model.meta["scale"] = scale
    return model


def belt_training_data(assembly: BeamAssembly, variant, branch: str,
                       kick: float = 2e-5, t_span=(0.0, 4.0), dt: float = 1e-4,
                       rtol: float = 1e-8):
    """Outward-growing spirals from the unstable belt equilibrium.

    The belt's velocity-weakening law destabilizes the branch fixed points,
    so training trajectories grow from a small midpoint kick instead of
    decaying from a static deflection.
    """
    n = assembly.n_dof
    x0 = branch_fixed_point(assembly, variant, branch)
    ics = []
    for sign in (1.0, -1.0):
        x = x0.copy()
        x[assembly.mid_dof_index] += sign * kick
        ics.append(x)
    opts = IntegratorOptions(rtol=rtol, atol=rtol * 1e-2, first_step=1e-6)
    return sd.generate_training(
        lambda t, x, b=branch: beam_field(assembly, variant, b, t, x),
        ics, t_span, dt, branch=branch, trim_fraction=0.02, opts=opts)


def make_beam_rom(assembly: BeamAssembly, variant: NonsmoothVariant,
                  model_plus: SsmModel, model_minus: SsmModel,
                  ic_strategy: str = "projection", omega: float = 1.0,
                  amp: float = 0.0, scale: float = 1.0) -> NonsmoothRom:
    """Switched beam ROM, forced by amp * scale * cos(omega t) at the midpoint
    when amp is nonzero: each branch model then gets the O(eps) correction of
    ssm_data.nonmodal_forcing_correction for the amplitude amp at eps = scale
    (a ramp's fraction) and a trust radius of 1.15. Sticking (Coulomb and
    belt) follows the full system's Filippov field with the midpoint velocity
    pinned to the surface value, which needs a chart on the midpoint
    displacement/velocity pair."""
    n = assembly.n_dof
    forcing = None
    if amp:
        f_hat = np.zeros(2 * n)
        f_hat[n:] = assembly.minv @ mid_forcing(assembly, amp, omega)(0.0)
        forced = []
        for b, m in (("+", model_plus), ("-", model_minus)):
            x0b = branch_fixed_point(assembly, variant, b)
            A = branch_jacobian(assembly, variant, b, x0b)
            corr = sd.nonmodal_forcing_correction(A, m.tangent, m.chart_w,
                                                  f_hat, scale, omega)
            forced.append(SsmModel(
                branch=b, x0=m.x0, tangent=m.tangent, chart_w=m.chart_w,
                nl_coeffs=m.nl_coeffs, rdyn=m.rdyn, correction=corr,
                source=m.source, meta=dict(m.meta), trust_radius=1.15))
        model_plus, model_minus = forced
        forcing = mid_forcing(assembly, amp * scale, omega)
    system = make_beam_system(assembly, variant, forcing)
    i_vel = n + assembly.mid_dof_index
    sticking = None
    if variant.kind != "soft_impact":
        # verify that each chart pins the velocity coordinate exactly, with
        # the model's scale read off its tangent
        rng = np.random.default_rng(0)
        for model in (model_plus, model_minus):
            s_v = float(model.tangent[i_vel, 1])
            for _ in range(3):
                y = rng.uniform(-1e-2, 1e-2, 2)
                err = abs(model.lift(y)[i_vel] - (s_v * y[1] + model.x0[i_vel]))
                if err > 1e-6 * max(abs(s_v), 1.0):
                    raise RomConfigurationError(
                        "sticking requires the physical midpoint chart; "
                        "rechart the fitted models onto (q_mid, dq_mid)")
        v_hold = variant.v_ground if variant.kind == "moving_belt" else 0.0
        sticking = StickingRule(system=system, pin=(i_vel, v_hold))
    return NonsmoothRom(model_plus=model_plus, model_minus=model_minus,
                        switching=system.switching, ic_strategy=ic_strategy,
                        sticking=sticking,
                        coord_indices={"q1": assembly.mid_dof_index,
                                       "q2": i_vel})

