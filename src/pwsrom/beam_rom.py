"""Assemble switched reduced models for the beam variants from fitted branch
manifolds, including the physical-coordinate chart needed to track sticking."""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from . import spectral
from .rom import NonsmoothRom, StickingRule
from .ssm_model import SsmModel
from .vk_beam import (BeamAssembly, NonsmoothVariant, beam_field,
                      beam_switching, branch_fixed_point, branch_jacobian)


def fit_branch_models(assembly: BeamAssembly, variant, order_m: int = 5,
                      order_r: int = 5, chart: str = "modal",
                      static_load: float = 12e3, t_span=(0.0, 0.35),
                      dt: float = 1e-4, trim_fraction: float = 0.05):
    """Per-branch manifold + dynamics fits from decaying training data.

    Training starts at the +-1, +-0.65 and +-0.4 times static-load
    deflections; fitting runs on per-coordinate scaled observables.
    chart='physical' recharts onto the (scaled) midpoint displacement/velocity
    pair. Returns ({branch: SsmModel}, {branch: TrainingData}): the models,
    with fit diagnostics in model.meta, and the decays they were fitted on.
    """
    from . import ssm_data as sd
    from .core import IntegratorOptions
    from .vk_beam import static_deflection

    n = assembly.n_dof
    # decays from several load levels fill the reduced disc radially, which
    # keeps the high-order regression away from collinear blow-up
    ics = []
    for frac in (1.0, 0.65, 0.4):
        for sign in (1.0, -1.0):
            q = static_deflection(assembly, sign * frac * static_load)
            ics.append(np.concatenate([q, np.zeros(n)]))
    opts = IntegratorOptions(rtol=1e-8, atol=1e-10, first_step=1e-6)
    models, datasets = {}, {}
    for branch in ("+", "-"):
        data = sd.generate_training(
            lambda t, x, b=branch: beam_field(assembly, variant, b, t, x),
            ics, t_span, dt, branch=branch, trim_fraction=trim_fraction,
            opts=opts)
        models[branch] = fit_branch_from_data(
            assembly, variant, branch, data, order_m=order_m, order_r=order_r,
            chart=chart)
        datasets[branch] = data
    return models, datasets


def fit_branch_from_data(assembly: BeamAssembly, variant, branch: str,
                         data, order_m: int = 5, order_r: int = 5,
                         chart: str = "modal"):
    """Manifold + dynamics fit of one branch from a prepared dataset."""
    from . import ssm_data as sd

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
    from . import ssm_data as sd
    from .core import IntegratorOptions
    from .vk_beam import beam_field

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
                  ic_strategy: str = "projection",
                  forcing: Optional[Callable[[float], np.ndarray]] = None
                  ) -> NonsmoothRom:
    """Switched beam ROM; sticking decisions evaluate the full branch fields
    on reconstructed states (the condition lives in physical variables)."""
    switching = beam_switching(assembly, variant)
    n = assembly.n_dof
    i_q = assembly.mid_dof_index
    i_vel = n + assembly.mid_dof_index
    v_hold = variant.v_ground if variant.kind == "moving_belt" else 0.0

    def a_pm(t, x):
        g = switching.grad_sigma(x)
        ap = float(g @ beam_field(assembly, variant, "+", t, x, forcing))
        am = float(g @ beam_field(assembly, variant, "-", t, x, forcing))
        return ap, am

    def condition(t, x):
        ap, am = a_pm(t, x)
        return ap < 0.0 < am

    def exit_branch(t, x):
        # the sign of the Filippov coefficient (ap + am) / (am - ap): the
        # release state may lie on either side of the vanishing component
        ap, am = a_pm(t, x)
        return "+" if ap + am > 0.0 else "-"

    sticking = None
    if variant.kind != "soft_impact":
        # the in-surface field presumes a chart whose coordinates are the
        # (possibly scaled) midpoint displacement/velocity pair; read each
        # model's scales off its tangent and verify the chart pins the
        # velocity coordinate exactly
        rng = np.random.default_rng(0)
        for model in (model_plus, model_minus):
            s_v = float(model.tangent[i_vel, 1])
            for _ in range(3):
                y = rng.uniform(-1e-2, 1e-2, 2)
                err = abs(model.lift(y)[i_vel] - (s_v * y[1] + model.x0[i_vel]))
                if err > 1e-6 * max(abs(s_v), 1.0):
                    from .rom import RomConfigurationError
                    raise RomConfigurationError(
                        "sticking requires the physical midpoint chart; "
                        "rechart the fitted models onto (q_mid, dq_mid)")

        def reduced_field(t, y, model):
            return float(v_hold) / float(model.tangent[i_q, 0]), 0.0

        sticking = StickingRule(condition=condition, reduced_field=reduced_field,
                                exit_branch=exit_branch, pin=(i_vel, v_hold))
    return NonsmoothRom(model_plus=model_plus, model_minus=model_minus,
                        switching=switching, ic_strategy=ic_strategy,
                        sticking=sticking,
                        coord_indices={"q1": assembly.mid_dof_index,
                                       "q2": n + assembly.mid_dof_index})
