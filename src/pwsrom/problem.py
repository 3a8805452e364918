"""One interface over the friction oscillator (analytic branch SSMs) and the
von Karman beam (branch SSMs fitted to decays, or on the moving belt to
spirals), built once from a config section. A problem supplies what the
commands and analysis.frc_sweep share: the full system and the switched ROM
at a forcing (omega, amplitude), the per-branch fit, and defaults: initial
state, amplitude coordinate, options and cold start of the forced response.
The oscillator solves its unforced branch SSMs once per problem and forces a
copy per frequency. Problems pickle for sweep workers."""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np

from . import spectral
from . import ssm_data as sd
from . import vk_beam as vkb
from .core import IntegratorOptions, StiffnessError
from .rom import NonsmoothRom, RomConfigurationError
from .shaw_pierre import SP_SURFACE, SpParams, make_system, sp_field
from .ssm_analytic import build_analytic_model, with_analytic_forcing


class ConfigError(ValueError):
    """A config that a command cannot run, with the reason."""


class Problem:
    fit_choices = {}

    def fit_config(self, fc: dict) -> dict:
        """fc over fit_defaults, the keys this model's fit reads; fit_branch
        starts here, so any other key, or a value outside fit_choices,
        raises a ConfigError before training."""
        for key in fc:
            if key not in self.fit_defaults:
                raise ConfigError(
                    f"the {self.fit_recipe} fit does not read fit.{key}: it "
                    f"reads {', '.join('fit.' + k for k in self.fit_defaults)}")
        fc = {**self.fit_defaults, **fc}
        for key, values in self.fit_choices.items():
            if fc[key] not in values:
                raise ConfigError(
                    f"the {self.fit_recipe} fit reads fit.{key} "
                    f"{' or '.join(map(repr, values))} only")
        return fc

    def fit(self, fc: dict):
        """({branch: SsmModel}, {branch: TrajectoryDataset}) of fit_branch."""
        models, datasets = zip(*(self.fit_branch(b, fc) for b in "+-"))
        return dict(zip("+-", models)), dict(zip("+-", datasets))

    def _check_models(self, models: dict) -> None:
        """Refuse branch models of another state dimension than the problem's."""
        for branch, model in models.items():
            if model.dim != self.dim:
                raise ConfigError(
                    f"the '{branch}' branch model has {model.dim} states, but "
                    f"the {self.fit_recipe} problem has {self.dim}")


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
    fit_recipe = "oscillator"
    fit_defaults = {"n_ic": 7, "radius": 0.35, "t_span": [0.0, 50.0],
                    "dt": 0.02, "trim_fraction": 0.05, "order_m": 3,
                    "order_r": 3}

    @classmethod
    def from_config(cls, section: dict) -> "Oscillator":
        return cls(SpParams(**section))

    def _at(self, omega, amp) -> SpParams:
        p = self.params
        return replace(p, omega=p.omega if omega is None else omega,
                       eps=p.eps if amp is None else amp)

    def system(self, omega=None, amp=None):
        return make_system(self._at(omega, amp))

    @cached_property
    def branch_models(self) -> dict:
        """The unforced order-3 analytic SSM of each branch, solved once per
        problem: no part of it depends on the forcing."""
        return {b: build_analytic_model(self.params, b) for b in "+-"}

    def rom(self, omega=None, amp=None, models: Optional[dict] = None,
            ic_strategy: str = "projection", scale: float = 1.0) -> NonsmoothRom:
        """The ROM on the order-3 analytic SSMs at the forcing amp * scale
        (branch_models, each forced in a new model), sticking through the
        modal chart with dq1 pinned to zero, or on given branch models (from
        files) as they are."""
        if models is not None:
            self._check_models(models)
            return NonsmoothRom(models["+"], models["-"], surface=SP_SURFACE,
                                ic_strategy=ic_strategy)
        p = self._at(omega, None if amp is None else amp * scale)
        return NonsmoothRom(*[with_analytic_forcing(self.branch_models[b], p,
                                                    p.eps, p.omega)
                              for b in "+-"],
                            surface=SP_SURFACE, ic_strategy=ic_strategy,
                            sticking=make_system(p))

    def fit_branch(self, branch: str, fc: dict):
        """(model, data): decays from a circle on the analytic SSM, fitted in
        its tangent space."""
        fc = self.fit_config(fc)
        base = self.branch_models[branch]
        Vt, _ = np.linalg.qr(base.tangent)
        angles = np.linspace(0, 2 * np.pi, fc["n_ic"], endpoint=False)
        ics = [base.lift(fc["radius"] * np.array([np.cos(a), np.sin(a)]))
               for a in angles]
        data = sd.generate_training(
            lambda t, x: sp_field(self.params, branch, t, x), ics,
            fc["t_span"], fc["dt"], branch=branch,
            trim_fraction=fc["trim_fraction"])
        fit = sd.fit_manifold(data, Vt, fc["order_m"], x0=base.x0)
        dyn = sd.fit_dynamics(data, fit, fc["order_r"])
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
    decay_fit_defaults = {"static_load": 12e3, "t_span": (0.0, 0.35),
                          "dt": 1e-4, "trim_fraction": 0.05, "chart": "modal",
                          "order_m": 5, "order_r": 5}
    belt_fit_defaults = {"chart": "physical", "order_m": 5, "order_r": 5}

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
    belt = property(lambda self: self.variant.kind == "moving_belt")
    fit_recipe = property(lambda self: "belt" if self.belt
                          else f"{self.variant.kind} beam")
    fit_defaults = property(lambda self: self.belt_fit_defaults if self.belt
                            else self.decay_fit_defaults)
    # the belt trains on the physical chart only
    fit_choices = property(lambda self: {"chart": ("physical",) if self.belt
                                         else ("modal", "physical")})

    def system(self, omega=None, amp=None):
        forcing = vkb.mid_forcing(self.assembly, amp, omega) if amp else None
        return vkb.make_beam_system(self.assembly, self.variant, forcing)

    def rom(self, omega=None, amp=None, models: Optional[dict] = None,
            ic_strategy: str = "projection", scale: float = 1.0) -> NonsmoothRom:
        """The ROM on fitted branch models, forced by amp * scale * cos(omega
        t) at the midpoint when amp is nonzero: each model then gets the
        O(eps) correction of ssm_data.nonmodal_forcing_correction for the
        amplitude amp at eps = scale (a ramp's fraction) and a trust radius
        of 1.15. Sticking (Coulomb and belt) follows the full system's
        Filippov field with the midpoint velocity pinned to the surface
        value, which needs a chart on the midpoint displacement/velocity
        pair."""
        if models is None:
            raise ConfigError("the beam ROM runs on fitted branch models: "
                              "write them with fit and name them in "
                              "simulate.rom_models")
        self._check_models(models)
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
        i_vel = n + asm.mid_dof_index
        sticking = None
        if self.variant.kind != "soft_impact":
            # each chart must lift the pinned velocity as x0 + s_v * y[1]
            for model in (models["+"], models["-"]):
                tol = 1e-6 * max(abs(model.tangent[i_vel, 1]), 1.0)
                off = [model.tangent[i_vel, 0]] + [
                    c[i_vel] for c in model.nl_coeffs.values()]
                if max(abs(v) for v in off) > tol:
                    raise RomConfigurationError(
                        "sticking requires the physical midpoint chart; "
                        "rechart the fitted models onto (q_mid, dq_mid)")
            sticking = vkb.make_beam_system(asm, self.variant, forcing)
        return NonsmoothRom(model_plus=models["+"], model_minus=models["-"],
                            surface=vkb.beam_surface(asm, self.variant),
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
        1.15. Each reads the keys of its fit_defaults only."""
        fc = self.fit_config(fc)
        asm, n = self.assembly, self.assembly.n_dof
        x0 = vkb.branch_fixed_point(asm, self.variant, branch)
        if self.belt:
            ics = []
            for sign in (1.0, -1.0):
                x = x0.copy()
                x[asm.mid_dof_index] += sign * self.belt_kick[branch]
                ics.append(x)
            t_span, dt, trim = self.belt_span[branch], 1e-4, 0.02
        else:
            load = fc["static_load"]
            ics = [np.concatenate([vkb.static_deflection(asm, s * f * load),
                                   np.zeros(n)])
                   for f in (1.0, 0.65, 0.4) for s in (1.0, -1.0)]
            t_span, dt, trim = fc["t_span"], fc["dt"], fc["trim_fraction"]
        try:
            data = sd.generate_training(
                lambda t, x: vkb.beam_field(asm, self.variant, branch, t, x),
                ics, t_span, dt, branch=branch, trim_fraction=trim,
                opts=self.training_options)
        except StiffnessError as exc:
            span = "belt_span (set on 4 elements)" if self.belt else "t_span"
            raise StiffnessError(
                f"the '{branch}' branch training failed inside {span} {t_span}"
                f" with n_elements={asm.props.n_elements}: {exc}") from exc
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
        if fc["chart"] == "physical":
            # reduced coordinates = midpoint pair normalized by its own data
            # extent, so the training support fills the unit square and a
            # trust radius near one bounds the fitted polynomials
            W0 = np.zeros((2, 2 * n))
            for row, i in enumerate((asm.mid_dof_index,
                                     n + asm.mid_dof_index)):
                W0[row, i] = 1.0 / max(np.abs(y[:, i]).max()
                                       for _, y in data_s.trimmed())
            V0 = sub.v_basis @ np.linalg.inv(W0 @ sub.v_basis)
            fit = sd.fit_manifold(data_s, V0, fc["order_m"], w_matrix=W0)
            A_slow = W0 @ A_s @ V0
        else:
            V0, _ = np.linalg.qr(sub.v_basis)
            fit = sd.fit_manifold(data_s, V0, fc["order_m"])
            A_slow = V0.T @ A_s @ V0
        # the slow linear block is known from the linearization
        dyn = sd.fit_dynamics(data_s, fit, fc["order_r"], known_linear=A_slow,
                              ridge=1e-7)
        model = sd.unscale_model(sd.model_from_fits(fit, dyn, branch), x0,
                                 scale)
        model.meta["in_sample_nmte"] = fit.in_sample_nmte
        model.meta["scale"] = scale
        model.trust_radius = 1.15 if self.belt else None
        return model, data
