"""One interface over the friction oscillator (analytic branch SSMs) and the
von Karman beam (branch SSMs fitted to decays, or on the moving belt to
spirals), built once from a config section. A problem supplies what the
commands and analysis.frc_sweep share: the full system and the switched ROM
at a forcing (omega, amplitude), the per-branch fit, and defaults: initial
state, amplitude coordinate, options and cold start of the forced response.
Problems pickle for sweep workers."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import spectral
from . import ssm_data as sd
from . import vk_beam as vkb
from .core import IntegratorOptions
from .rom import NonsmoothRom, RomConfigurationError, StickingRule
from .shaw_pierre import SpParams, make_system, sp_field
from .ssm_analytic import build_analytic_model


class ConfigError(ValueError):
    """A config that a command cannot run, with the reason."""


class Problem:
    def fit(self, fc: dict):
        """({branch: SsmModel}, {branch: TrajectoryDataset}) of fit_branch."""
        models, datasets = zip(*(self.fit_branch(b, fc) for b in "+-"))
        return dict(zip("+-", models)), dict(zip("+-", datasets))


@dataclass(frozen=True)
class Oscillator(Problem):
    """The friction oscillator. Amplitudes are SpParams.eps; an omega or amp
    of None keeps the configured forcing."""

    params: SpParams

    dim = 4
    amp_coord = 0
    analytic_rom = True
    default_x0 = (0.5, 0.3, -0.2, 0.1)
    frc_defaults = {"omega_min": 0.8, "omega_max": 1.2, "eps": 0.15}
    full_options = rom_options = IntegratorOptions(rtol=1e-8, atol=1e-10)
    rom_branch0 = "+"
    rom_ramp = 0

    @classmethod
    def from_config(cls, section: dict) -> "Oscillator":
        return cls(SpParams(**section))

    def _at(self, omega, amp) -> SpParams:
        p = self.params
        return replace(p, omega=p.omega if omega is None else omega,
                       eps=p.eps if amp is None else amp)

    def system(self, omega=None, amp=None):
        return make_system(self._at(omega, amp))

    def rom(self, omega=None, amp=None, models: Optional[dict] = None,
            order: int = 3, ic_strategy: str = "projection",
            scale: float = 1.0) -> NonsmoothRom:
        """The ROM on the analytic SSMs of `order` at the forcing amp * scale,
        sticking through the modal chart with dq1 pinned to zero, or on given
        branch models (from files) as they are."""
        if models is not None:
            return NonsmoothRom(models["+"], models["-"],
                                switching=self.system().switching,
                                ic_strategy=ic_strategy)
        p = self._at(omega, None if amp is None else amp * scale)
        system = make_system(p)
        return NonsmoothRom(*[build_analytic_model(p, b, order=order, eps=p.eps,
                                                   omega=p.omega) for b in "+-"],
                            switching=system.switching, ic_strategy=ic_strategy,
                            sticking=StickingRule(system=system, pin=(1, 0.0)))

    def fit_branch(self, branch: str, fc: dict):
        """(model, data): decays from a circle on the analytic SSM, fitted in
        its tangent space."""
        base = build_analytic_model(self.params, branch)
        Vt, _ = np.linalg.qr(base.tangent)
        angles = np.linspace(0, 2 * np.pi, fc.get("n_ic", 7), endpoint=False)
        ics = [base.lift(fc.get("radius", 0.35)
                         * np.array([np.cos(a), np.sin(a)])) for a in angles]
        data = sd.generate_training(
            lambda t, x: sp_field(self.params, branch, t, x), ics,
            fc.get("t_span", [0.0, 50.0]), fc.get("dt", 0.02), branch=branch,
            trim_fraction=fc.get("trim_fraction", 0.05))
        fit = sd.fit_manifold(data, Vt, fc.get("order_m", 3), x0=base.x0)
        dyn = sd.fit_dynamics(data, fit, fc.get("order_r", 3))
        model = sd.model_from_fits(fit, dyn, branch)
        model.meta["in_sample_nmte"] = fit.in_sample_nmte
        return model, data


@dataclass(frozen=True, eq=False)
class Beam(Problem):
    """The beam with its midpoint element; amplitudes are midpoint forces in
    N. Forced-response options and the ROM's cold start (at rest on '-',
    forcing ramped up over 20 periods) are criterion 12's; the belt's
    training recipe is criterion 13's."""

    assembly: vkb.BeamAssembly
    variant: vkb.NonsmoothVariant

    analytic_rom = False
    frc_defaults = {}
    full_options = IntegratorOptions(rtol=1e-6, atol=1e-9, first_step=1e-6)
    rom_options = IntegratorOptions(rtol=1e-8, atol=1e-11, first_step=1e-5)
    rom_branch0 = "-"
    rom_ramp = 20
    training_options = IntegratorOptions(rtol=1e-8, atol=1e-10, first_step=1e-6)
    # belt spirals: midpoint kick (m) and span (s) per branch; the '+' span
    # ends before its spiral leaves the region the fit can follow
    belt_kick = {"+": 2e-5, "-": 5e-5}
    belt_span = {"+": (0.0, 0.105), "-": (0.0, 1.5)}

    @classmethod
    def from_config(cls, section: dict) -> "Beam":
        bc = dict(section)
        kind, delta = bc.pop("variant", "coulomb"), bc.pop("delta", 0.0)
        delta_tilde = bc.pop("delta_tilde", None)
        vkw = {k: bc.pop(k) for k in ("v_ground", "alpha_fric", "beta_fric")
               if k in bc}
        asm = vkb.assemble_beam(vkb.BeamProperties(**bc))
        if delta_tilde is not None:
            delta = vkb.delta_for_normalized(asm, kind, delta_tilde, **vkw)
        return cls(asm, vkb.NonsmoothVariant(kind=kind, delta=delta, **vkw))

    dim = property(lambda self: 2 * self.assembly.n_dof)
    amp_coord = property(lambda self: self.assembly.mid_dof_index)
    default_x0 = property(lambda self: np.zeros(self.dim))

    def system(self, omega=None, amp=None):
        forcing = vkb.mid_forcing(self.assembly, amp, omega) if amp else None
        return vkb.make_beam_system(self.assembly, self.variant, forcing)

    def rom(self, omega=None, amp=None, models: Optional[dict] = None,
            order: int = 3, ic_strategy: str = "projection",
            scale: float = 1.0) -> NonsmoothRom:
        """The ROM on fitted branch models, forced by amp * scale * cos(omega
        t) at the midpoint when amp is nonzero: each model then gets the
        O(eps) correction of ssm_data.nonmodal_forcing_correction for the
        amplitude amp at eps = scale (a ramp's fraction) and a trust radius
        of 1.15. Sticking (Coulomb and belt) follows the full system's
        Filippov field with the midpoint velocity pinned to the surface
        value, which needs a chart on the midpoint displacement/velocity
        pair. order is the oscillator's."""
        if models is None:
            raise ConfigError("the beam ROM runs on fitted branch models: "
                              "write them with fit and name them in "
                              "simulate.rom_models")
        asm, n = self.assembly, self.assembly.n_dof
        forcing = None
        if amp:
            f_hat = np.zeros(2 * n)
            f_hat[n:] = asm.minv @ vkb.mid_forcing(asm, amp, omega)(0.0)
            forced = {}
            for b, m in models.items():
                x0b = vkb.branch_fixed_point(asm, self.variant, b)
                A = vkb.branch_jacobian(asm, self.variant, b, x0b)
                corr = sd.nonmodal_forcing_correction(A, m.tangent, m.chart_w,
                                                      f_hat, scale, omega)
                forced[b] = replace(m, correction=corr, trust_radius=1.15)
            models = forced
            forcing = vkb.mid_forcing(asm, amp * scale, omega)
        system = vkb.make_beam_system(asm, self.variant, forcing)
        i_vel = n + asm.mid_dof_index
        sticking = None
        if self.variant.kind != "soft_impact":
            # verify that each chart pins the velocity coordinate exactly,
            # with the model's scale read off its tangent
            rng = np.random.default_rng(0)
            for model in (models["+"], models["-"]):
                s_v = float(model.tangent[i_vel, 1])
                for _ in range(3):
                    y = rng.uniform(-1e-2, 1e-2, 2)
                    err = abs(model.lift(y)[i_vel]
                              - (s_v * y[1] + model.x0[i_vel]))
                    if err > 1e-6 * max(abs(s_v), 1.0):
                        raise RomConfigurationError(
                            "sticking requires the physical midpoint chart; "
                            "rechart the fitted models onto (q_mid, dq_mid)")
            v_hold = (self.variant.v_ground
                      if self.variant.kind == "moving_belt" else 0.0)
            sticking = StickingRule(system=system, pin=(i_vel, v_hold))
        return NonsmoothRom(model_plus=models["+"], model_minus=models["-"],
                            switching=system.switching,
                            ic_strategy=ic_strategy, sticking=sticking,
                            coord_indices={"q1": asm.mid_dof_index,
                                           "q2": i_vel})

    def fit_branch(self, branch: str, fc: dict):
        """(model, data): the branch manifold and reduced dynamics fitted to
        trajectories of the branch's smooth extension, centred on the branch
        fixed point, over the slow subspace with the linear part known.

        Coulomb and soft impact train on decays from +-1, +-0.65 and +-0.4
        times the static deflection under fc['static_load'] (several load
        levels fill the reduced disc radially, which keeps the high-order
        regression away from collinear blow-up) and chart by fc['chart'].
        The belt's velocity-weakening law destabilizes the branch fixed
        points, so it trains on two spirals growing from a midpoint kick
        (belt_kick, belt_span) on the physical chart with a trust radius of
        1.15, reads fc['order_m'] and fc['order_r'] only, and refuses the
        keys it would ignore."""
        asm, n = self.assembly, self.assembly.n_dof
        x0 = vkb.branch_fixed_point(asm, self.variant, branch)
        if self.variant.kind == "moving_belt":
            unread = [k for k in fc if k not in ("order_m", "order_r", "chart")]
            if fc.get("chart", "physical") != "physical":
                unread.append("chart")
            if unread:
                raise ConfigError(
                    f"the belt fit does not read fit.{unread[0]}: it trains "
                    "on fixed spirals from the unstable branch equilibria on "
                    "the physical chart and reads fit.order_m and "
                    "fit.order_r only")
            ics = []
            for sign in (1.0, -1.0):
                x = x0.copy()
                x[asm.mid_dof_index] += sign * self.belt_kick[branch]
                ics.append(x)
            t_span, dt, trim = self.belt_span[branch], 1e-4, 0.02
            chart, trust_radius = "physical", 1.15
        else:
            load = fc.get("static_load", 12e3)
            ics = [np.concatenate([vkb.static_deflection(asm, s * f * load),
                                   np.zeros(n)])
                   for f in (1.0, 0.65, 0.4) for s in (1.0, -1.0)]
            t_span, dt = fc.get("t_span", (0.0, 0.35)), fc.get("dt", 1e-4)
            trim = fc.get("trim_fraction", 0.05)
            chart, trust_radius = fc.get("chart", "modal"), None
        data = sd.generate_training(
            lambda t, x: vkb.beam_field(asm, self.variant, branch, t, x), ics,
            t_span, dt, branch=branch, trim_fraction=trim,
            opts=self.training_options)
        A = vkb.branch_jacobian(asm, self.variant, branch, x0)
        # one displacement scale and one velocity scale: balances the units
        # without distorting the eigenvector geometry
        amp_q = amp_v = 0.0
        for _, y in data.trimmed():
            amp_q = max(amp_q, np.abs(y[:, :n] - x0[:n]).max())
            amp_v = max(amp_v, np.abs(y[:, n:] - x0[n:]).max())
        scale = np.concatenate([np.full(n, amp_q), np.full(n, amp_v)])
        data_s = sd.scale_dataset(data, x0, scale)
        A_s = A * np.outer(1.0 / scale, scale)
        sub = spectral.subspace(spectral.decompose(A_s), [0])
        order_m, order_r = fc.get("order_m", 5), fc.get("order_r", 5)
        if chart == "physical":
            # reduced coordinates = midpoint pair normalized by its own data
            # extent, so the training support fills the unit square and a
            # trust radius near one bounds the fitted polynomials
            Ys = np.vstack([y for _, y in data_s.trimmed()])
            W0 = np.zeros((2, 2 * n))
            for row, i in enumerate((asm.mid_dof_index,
                                     n + asm.mid_dof_index)):
                W0[row, i] = 1.0 / np.abs(Ys[:, i]).max()
            V0 = sub.v_basis @ np.linalg.inv(W0 @ sub.v_basis)
            fit = sd.fit_manifold(data_s, V0, order_m, w_matrix=W0)
            A_slow = W0 @ A_s @ V0
        else:
            V0, _ = np.linalg.qr(sub.v_basis)
            fit = sd.fit_manifold(data_s, V0, order_m)
            A_slow = V0.T @ A_s @ V0
        # the slow linear block is known from the linearization
        dyn = sd.fit_dynamics(data_s, fit, order_r, known_linear=A_slow,
                              ridge=1e-7)
        model = sd.unscale_model(sd.model_from_fits(fit, dyn, branch), x0,
                                 scale)
        model.meta["in_sample_nmte"] = fit.in_sample_nmte
        model.meta["scale"] = scale
        model.trust_radius = trust_radius
        return model, data
