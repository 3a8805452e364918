import json
import os
import subprocess
import sys

import numpy as np
import pytest

import pwsrom
from pwsrom import analysis, cli
from pwsrom import ssm_data as sd
from pwsrom import vk_beam as vkb
from pwsrom.ssm_model import SsmModel


# The child runs in a temporary cwd, where a relative PYTHONPATH (such as
# "src") no longer resolves; put the directory holding the imported package
# first so the child runs the same code as the test process.
PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(pwsrom.__file__)))
README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "README.md")


def run_cli(args, cwd, **env_vars):
    path = [PKG_ROOT] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p),
               **env_vars)
    return subprocess.run([sys.executable, "-m", "pwsrom.cli"] + args,
                          cwd=cwd, env=env, capture_output=True, text=True)


def write_cfg(path, cfg):
    with open(path, "w") as fh:
        json.dump(cfg, fh)


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "bad.json"
    write_cfg(cfg, {"model": "shaw_pierre", "bogus": 1})
    r = run_cli(["simulate", "--config", str(cfg)], tmp_path)
    assert r.returncode != 0
    assert "unknown config key" in r.stderr


def test_unknown_nested_key_rejected(tmp_path):
    with pytest.raises(cli.ConfigError):
        cli.validate_config({"shaw_pierre": {"zeta": 1.0}})
    # nothing forces the limit-cycle run, so forcing keys must not pass
    with pytest.raises(cli.ConfigError,
                       match="unknown key limitcycle.forcing_amp"):
        cli.validate_config({"limitcycle": {"forcing_amp": 50.0}})
    # the ROM order, the start branch, the amplitude coordinate, the reduced
    # edge span and the limit cycle's fit orders are not settable
    for key in ("simulate.order", "simulate.branch0", "frc.order",
                "frc.amp_coord", "poincare.span", "limitcycle.order_m",
                "limitcycle.order_r"):
        section, sub = key.split(".")
        with pytest.raises(cli.ConfigError, match=f"unknown key {key}$"):
            cli.validate_config({section: {sub: 3}})


def test_readme_config_skeleton_is_accepted():
    # the skeleton passes the schema, and its fit section the fit-key check
    # of the model it names
    with open(README) as fh:
        text = fh.read().split("Config skeleton", 1)[1]
    cfg = cli.validate_config(json.loads(
        text.split("```json\n", 1)[1].split("```", 1)[0]))
    cli.problem_from(cfg).fit_config(cfg["fit"])


def test_validate_tables_known_state(tmp_path):
    cfg = tmp_path / "c.json"
    write_cfg(cfg, {"model": "shaw_pierre", "shaw_pierre": {"delta": 0.1}})
    r = run_cli(["validate-tables", "--config", str(cfg)], tmp_path)
    # 8 of 64 printed entries are the computed value truncated (not rounded)
    # at the printed precision, so the strict gate reports failure while the
    # one-ulp tally is complete
    assert r.returncode == 1
    assert "strict: 56/64" in r.stdout
    assert "within-one-ulp: 64/64" in r.stdout


def test_validate_tables_zero_friction_skips(tmp_path):
    cfg = tmp_path / "c.json"
    write_cfg(cfg, {"model": "shaw_pierre", "shaw_pierre": {"delta": 0.0}})
    r = run_cli(["validate-tables", "--config", str(cfg)], tmp_path)
    assert r.returncode == 0
    assert "skipped" in r.stdout


def test_validate_tables_self_test_flip(tmp_path):
    cfg = tmp_path / "c.json"
    write_cfg(cfg, {"model": "shaw_pierre", "shaw_pierre": {"delta": 0.1}})
    r = run_cli(["validate-tables", "--config", str(cfg), "--self-test-flip"],
                tmp_path)
    assert r.returncode == 1
    assert "self-test flip applied to h+ (0, 2) component 1" in r.stdout
    assert "FAIL" in r.stdout


def test_simulate_zero_span_header_only(tmp_path):
    cfg = tmp_path / "c.json"
    write_cfg(cfg, {"model": "shaw_pierre",
                    "shaw_pierre": {"delta": 0.05},
                    "simulate": {"x0": [1, 0.5, 0, 0], "t_span": [0.0, 0.0]}})
    r = run_cli(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)],
                tmp_path)
    assert r.returncode == 0
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines == ["t,x1,x2,x3,x4,branch"]


def test_frc_roundtrip_determinism(tmp_path):
    cfg = tmp_path / "c.json"
    write_cfg(cfg, {"model": "shaw_pierre", "shaw_pierre": {"delta": 0.001},
                    "frc": {"omega_min": 1.0, "omega_max": 1.04,
                            "n_points": 2, "eps": 0.15, "max_periods": 60,
                            "chunk": 2}})
    outs = []
    for d in ("a", "b"):
        od = tmp_path / d
        od.mkdir()
        r = run_cli(["frc", "--config", str(cfg), "--out-dir", str(od)],
                    tmp_path)
        assert r.returncode == 0, r.stderr
        outs.append((od / "frc.csv").read_bytes())
    assert outs[0] == outs[1]


def test_fit_emits_loadable_models_and_datasets(tmp_path):
    cfg = tmp_path / "c.json"
    write_cfg(cfg, {"model": "shaw_pierre", "shaw_pierre": {"delta": 0.01},
                    "fit": {"order_m": 3, "order_r": 3, "t_span": [0, 30.0],
                            "dt": 0.05, "n_ic": 5, "radius": 0.3}})
    r = run_cli(["fit", "--config", str(cfg), "--out-dir", str(tmp_path)],
                tmp_path)
    assert r.returncode == 0, r.stderr
    model = SsmModel.from_json(tmp_path / "ssm_model_plus.json")
    assert model.source == "data"
    assert model.lift(np.zeros(2)).shape == (4,)
    dd = tmp_path / "dataset_plus"
    man = json.loads((dd / "manifest.json").read_text())
    assert man["branch"] == "+"
    first = (dd / "traj_00.csv").read_text().splitlines()
    assert first[0] == "t,y1,y2,y3,y4"
    # the fitted models drive the reduced simulation command
    cfg2 = tmp_path / "c2.json"
    write_cfg(cfg2, {"model": "shaw_pierre", "shaw_pierre": {"delta": 0.01},
                     "simulate": {"x0": [0.3, 0.2, 0.0, 0.0],
                                  "t_span": [0.0, 5.0], "use_rom": True,
                                  "rom_models": {
                                      "plus": str(tmp_path / "ssm_model_plus.json"),
                                      "minus": str(tmp_path / "ssm_model_minus.json")}}})
    r2 = run_cli(["simulate", "--config", str(cfg2), "--out-dir",
                  str(tmp_path)], tmp_path)
    assert r2.returncode == 0, r2.stderr
    header = (tmp_path / "trajectory_rom.csv").read_text().splitlines()[0]
    assert header == "t,x1,x2,x3,x4,branch,xi1,xi2"


def test_fit_repeats_to_the_byte_on_one_blas_thread(tmp_path):
    # the oscillator fit of the benchmark's switching workload; with two BLAS
    # threads its coefficients differ in the last digits from those at one,
    # but at a fixed thread count two runs write the same model files
    cfg = tmp_path / "c.json"
    write_cfg(cfg, {"model": "shaw_pierre", "shaw_pierre": {"delta": 1e-2},
                    "fit": {"order_m": 5, "order_r": 5, "t_span": [0.0, 50.0]}})
    outs = []
    for d in ("a", "b"):
        r = run_cli(["fit", "--config", str(cfg), "--out-dir", str(tmp_path / d)],
                    tmp_path, OPENBLAS_NUM_THREADS="1")
        assert r.returncode == 0, r.stderr
        outs.append([(tmp_path / d / f"ssm_model_{b}.json").read_bytes()
                     for b in ("plus", "minus")])
    assert outs[0] == outs[1]


def test_fit_bytes_do_not_depend_on_blas_threads(tmp_path):
    # the same oscillator fit at one and two BLAS threads: the regressions
    # fix their own summation order over the samples
    cfg = tmp_path / "c.json"
    write_cfg(cfg, {"model": "shaw_pierre", "shaw_pierre": {"delta": 1e-2},
                    "fit": {"order_m": 5, "order_r": 5, "t_span": [0.0, 50.0]}})
    outs = []
    for threads in ("1", "2"):
        od = tmp_path / threads
        r = run_cli(["fit", "--config", str(cfg), "--out-dir", str(od)],
                    tmp_path, OPENBLAS_NUM_THREADS=threads)
        assert r.returncode == 0, r.stderr
        outs.append([(od / f"ssm_model_{b}.json").read_bytes()
                     for b in ("plus", "minus")])
    assert outs[0] == outs[1]


def test_poincare_outputs(tmp_path):
    cfg = tmp_path / "c.json"
    write_cfg(cfg, {"model": "shaw_pierre", "shaw_pierre": {"delta": 0.01},
                    "poincare": {"n_ic": 2, "radius": 0.45,
                                 "t_span": [0.0, 150.0], "skip": 2},
                    "seed": 7})
    r = run_cli(["poincare", "--config", str(cfg), "--out-dir", str(tmp_path)],
                tmp_path)
    assert r.returncode == 0, r.stderr
    head = (tmp_path / "poincare.csv").read_text().splitlines()
    assert head[0] == "iter,q1,q2,dq2,direction"
    assert len(head) > 3
    edges = json.loads((tmp_path / "edges.json").read_text())
    assert edges["reduced_edge_plus"] is not None


def test_frc_chunks_share_configured_tolerances(monkeypatch, tmp_path):
    # both sweeps integrate at frc.rtol/frc.atol (defaults 1e-8/1e-10) with
    # the same options at each frequency; the period steppers are stubbed,
    # only the options they receive are checked
    def full_stepper(make_system, omega, amp_index, opts):
        seen["full"].append(opts)
        return (lambda t0, x: (x, 1.0)), 2 * np.pi / omega

    def rom_stepper(rom, amp_index, opts):
        seen["rom"].append(opts)
        return lambda t0, state: (state, 1.0)

    monkeypatch.setattr(analysis, "hybrid_period_stepper", full_stepper)
    monkeypatch.setattr(analysis, "rom_period_stepper", rom_stepper)
    omegas = [0.95, 1.05]
    for frc, tols in (({"rtol": 1e-7, "atol": 1e-9}, (1e-7, 1e-9)),
                      ({}, (1e-8, 1e-10))):
        seen = {"full": [], "rom": []}
        cfg = {"model": "shaw_pierre", "shaw_pierre": {"delta": 0.01},
               "frc": {"eps": 0.15, "omega_min": omegas[0],
                       "omega_max": omegas[1], "n_points": 2, **frc}}
        assert cli.cmd_frc(cfg, str(tmp_path)) == 0
        assert [(o.rtol, o.atol) for o in seen["rom"]] == [tols] * 2
        assert seen["rom"] == seen["full"]
        assert [o.max_step for o in seen["rom"]] == [2 * np.pi / om / 64
                                                     for om in omegas]


def test_frc_does_not_depend_on_threads(tmp_path):
    # each chunk integrates its own periods from its own warm start, so the
    # worker count cannot move a result
    cfg = tmp_path / "c.json"
    write_cfg(cfg, {"model": "shaw_pierre", "shaw_pierre": {"delta": 0.01},
                    "frc": {"omega_min": 0.95, "omega_max": 1.05,
                            "n_points": 4, "eps": 0.15, "max_periods": 40,
                            "chunk": 2}})
    outs = []
    for threads in ("1", "2"):
        od = tmp_path / f"threads{threads}"
        od.mkdir()
        r = run_cli(["frc", "--config", str(cfg), "--out-dir", str(od),
                     "--threads", threads], tmp_path)
        assert r.returncode == 0, r.stderr
        outs.append((od / "frc.csv").read_bytes())
    assert outs[0] == outs[1]


def test_frc_bytes_do_not_depend_on_blas_threads(tmp_path):
    # the same FRC at one and two BLAS threads: the mixing's least squares
    # must not bring in a dependence on the thread count; the manifest
    # lists each point's periods and final residual for both models
    cfg = tmp_path / "c.json"
    write_cfg(cfg, {"model": "shaw_pierre", "shaw_pierre": {"delta": 0.01},
                    "frc": {"omega_min": 0.95, "omega_max": 1.05,
                            "n_points": 3, "eps": 0.15, "max_periods": 100}})
    outs = []
    for threads in ("1", "2"):
        od = tmp_path / threads
        r = run_cli(["frc", "--config", str(cfg), "--out-dir", str(od)],
                    tmp_path, OPENBLAS_NUM_THREADS=threads)
        assert r.returncode == 0, r.stderr
        outs.append((od / "frc.csv").read_bytes())
        points = json.loads((od / "frc_manifest.json").read_text())["points"]
        for model in ("full", "rom"):
            assert len(points[model]) == 3
            assert all(p["n_periods"] < 100 and p["residual"] <= 1e-6
                       for p in points[model])
    assert outs[0] == outs[1]
    assert outs[0].decode().splitlines()[0] == ("omega,amp_full,amp_rom,"
                                                "converged_full,converged_rom")


_OSC = {"model": "shaw_pierre", "shaw_pierre": {"delta": 0.01}}
_BEAM = {"model": "vk_beam", "vk_beam": {"n_elements": 2, "variant": "coulomb",
                                         "delta_tilde": 1e-3}}
_W1 = vkb.assemble_beam(vkb.BeamProperties(n_elements=2)).natural_frequencies()[0]
_BAND = {"omega_min": 0.97 * _W1, "omega_max": _W1, "n_points": 2, "eps": 35e3,
         "max_periods": 6}
_FIT = {"order_m": 2, "order_r": 3, "t_span": [0.0, 0.02], "chart": "physical"}
_TRAJ = ["trajectory.csv", "events.csv"]
_MODELS = ["ssm_model_plus.json", "ssm_model_minus.json"]
_BELT = {"model": "vk_beam", "vk_beam": {"variant": "moving_belt", "delta": 8.0}}
_NOT_BELT = "it needs model vk_beam with variant moving_belt"
# id: (command, config, the outputs it writes or the reason it refuses: a
# ConfigError's, or an (error, reason) pair)
_MATRIX = {
    "simulate-osc": ("simulate", {**_OSC, "simulate": {"t_span": [0, 2.0]}}, _TRAJ),
    "simulate-beam": ("simulate", {**_BEAM, "simulate": {"t_span": [0, 5e-3]}},
                      _TRAJ),
    "simulate-osc-short-x0": (
        "simulate", {**_OSC, "simulate": {"t_span": [0, 2.0],
                                          "x0": [0.5, 0.3, -0.2]}},
        "simulate.x0 needs 4 entries, one per state, not 3"),
    "simulate-osc-rom-short-x0": (
        "simulate", {**_OSC, "simulate": {"t_span": [0, 2.0], "use_rom": True,
                                          "x0": [0.5, 0.3, -0.2]}},
        "simulate.x0 needs 4 entries, one per state, not 3"),
    "simulate-beam-unread-fit-key": (
        "simulate", {**_BEAM, "fit": {"n_ic": 4}, "simulate": {"t_span": [0, 5e-3]}},
        "the coulomb beam fit does not read fit.n_ic"),
    "simulate-beam-rom-unfitted": (
        "simulate", {**_BEAM, "simulate": {"t_span": [0, 5e-3], "use_rom": True}},
        "the beam ROM runs on fitted branch models"),
    "fit-osc": ("fit", {**_OSC, "fit": {"order_m": 2, "order_r": 2, "n_ic": 4,
                                        "t_span": [0.0, 5.0]}}, _MODELS),
    "fit-beam": ("fit", {**_BEAM, "fit": _FIT}, _MODELS),
    "fit-belt": ("fit", _BELT, _MODELS),
    "fit-osc-unread-key": ("fit", {**_OSC, "fit": {"chart": "modal"}},
                           "the oscillator fit does not read fit.chart"),
    "fit-beam-unread-key": ("fit", {**_BEAM, "fit": {"n_ic": 4}},
                            "the coulomb beam fit does not read fit.n_ic"),
    "fit-belt-unread-key": ("fit", {**_BELT, "fit": {"static_load": 60e3}},
                            "the belt fit does not read fit.static_load"),
    "fit-belt-two-elements": (
        "fit", {**_BELT, "vk_beam": {**_BELT["vk_beam"], "n_elements": 2}},
        ("StiffnessError", "belt_span")),
    "fit-belt-modal-chart": ("fit", {**_BELT, "fit": {"chart": "modal"}},
                             "the belt fit reads fit.chart 'physical' only"),
    "fit-beam-chart-typo": ("fit", {**_BEAM, "fit": {**_FIT, "chart": "physcial"}},
                            "the coulomb beam fit reads fit.chart 'modal' or "
                            "'physical' only"),
    "frc-osc": ("frc", {**_OSC, "frc": {"omega_min": 1.0, "omega_max": 1.05,
                                        "n_points": 2, "max_periods": 8}},
                ["frc.csv"]),
    "frc-osc-unread-fit-key": ("frc", {**_OSC, "fit": {"static_load": 1}, "frc": {
        "omega_min": 1.0, "omega_max": 1.05, "n_points": 2, "max_periods": 8}},
        "the oscillator fit does not read fit.static_load"),
    "frc-beam-full": ("frc", {**_BEAM, "frc": {**_BAND, "with_rom": False}},
                      ["frc.csv"]),
    "frc-beam-rom": ("frc", {**_BEAM, "frc": _BAND, "fit": _FIT}, ["frc.csv"]),
    "frc-beam-rom-modal-chart": (
        "frc", {**_BEAM, "frc": _BAND, "fit": {**_FIT, "chart": "modal"}},
        ("RomConfigurationError", "sticking requires the physical midpoint chart")),
    "frc-beam-no-band": ("frc", _BEAM,
                         "frc needs frc.omega_min, frc.omega_max, frc.eps"),
    "poincare-osc": ("poincare", {**_OSC, "poincare": {
        "n_ic": 1, "t_span": [0.0, 60.0], "skip": 1}}, ["poincare.csv", "edges.json"]),
    "poincare-beam": ("poincare", _BEAM, "poincare runs on the oscillator"),
    "limitcycle-osc": ("limitcycle", _OSC, _NOT_BELT),
    "limitcycle-beam-coulomb": ("limitcycle", _BEAM, _NOT_BELT),
    "limitcycle-belt": ("limitcycle", _BELT, ["limitcycle.json"]),
    "limitcycle-belt-unread-key": ("limitcycle", {**_BELT, "fit": {"dt": 1e-5}},
                                   "the belt fit does not read fit.dt"),
    "validate-tables-beam": ("validate-tables", _BEAM,
                             "checks the oscillator's published"),
}


@pytest.mark.parametrize("command,config,expect", list(_MATRIX.values()),
                         ids=list(_MATRIX))
def test_each_command_runs_or_refuses_each_model(tmp_path, capsys, monkeypatch,
                                                 command, config, expect):
    full_steppers, trainings = [], []
    stepper = analysis.hybrid_period_stepper
    monkeypatch.setattr(analysis, "hybrid_period_stepper",
                        lambda *a: full_steppers.append(a) or stepper(*a))
    train = sd.smooth_integrate
    monkeypatch.setattr(sd, "smooth_integrate",
                        lambda *a, **k: trainings.append(a) or train(*a, **k))
    write_cfg(tmp_path / "c.json", config)
    out = tmp_path / "out"
    rc = cli.main([command, "--config", str(tmp_path / "c.json"),
                   "--out-dir", str(out)])
    err = capsys.readouterr().err
    if isinstance(expect, str):
        expect = ("ConfigError", expect)
    if isinstance(expect, tuple):
        error, reason = expect
        assert rc == 2 and f"{error}: " in err and reason in err, err
        # a refusal comes before any full-model period, and a config's
        # before any training integration
        assert not full_steppers
        assert not (error == "ConfigError" and trainings)
        return
    assert rc == 0, err
    man = json.loads((out / f"{command}_manifest.json").read_text())
    assert set(man["outputs"]) == set(expect) and "pwsrom" in man["versions"]
    belt = config.get("vk_beam", {}).get("variant") == "moving_belt"
    for tag in ("plus", "minus") if command == "fit" else ():
        # the datasets are the trajectories the models were fitted on: two
        # spirals per branch for the belt, six decays for the other beams,
        # fit.n_ic decays for the oscillator
        data = json.loads((out / f"dataset_{tag}" / "manifest.json").read_text())
        assert data["n_trajectories"] == (2 if belt else
                                          config["fit"].get("n_ic", 6))
        assert len(list((out / f"dataset_{tag}").glob("traj_*.csv"))) == \
            data["n_trajectories"]
        assert SsmModel.from_json(out / f"ssm_model_{tag}.json").source == "data"
    if command == "frc":
        # the ROM column is nan without the reduced model, finite with it
        rows = (out / "frc.csv").read_text().splitlines()[1:]
        finite = [np.isfinite(float(r.split(",")[2])) for r in rows]
        assert finite == [config["frc"].get("with_rom", True)] * 2
    if command == "limitcycle":
        # the ROM's stick-slip cycle has the full model's frequency
        cycles = json.loads((out / "limitcycle.json").read_text())
        assert cycles["full"] and cycles["rom"]
        f_full, f_rom = cycles["full"]["frequency"], cycles["rom"]["frequency"]
        assert abs(f_rom - f_full) <= 0.01 * f_full


@pytest.mark.parametrize("config,n_model", [(_OSC, 18), (_BEAM, 4)],
                         ids=["osc-18", "beam-4"])
def test_rom_models_of_another_dimension_are_refused(tmp_path, capsys, config,
                                                     n_model):
    # linear branch models of the wrong state count, named in rom_models
    tangent = np.zeros((n_model, 2))
    tangent[0, 0] = tangent[1, 1] = 1.0
    paths = {}
    for branch, tag in (("+", "plus"), ("-", "minus")):
        paths[tag] = str(tmp_path / f"ssm_model_{tag}.json")
        SsmModel(branch=branch, x0=np.zeros(n_model), tangent=tangent,
                 chart_w=tangent.T, nl_coeffs={},
                 rdyn={(1, 0): np.array([0.0, -1.0]),
                       (0, 1): np.array([1.0, 0.0])}).to_json(paths[tag])
    write_cfg(tmp_path / "c.json", {**config, "simulate": {
        "t_span": [0.0, 1e-3], "use_rom": True, "rom_models": paths}})
    rc = cli.main(["simulate", "--config", str(tmp_path / "c.json"),
                   "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    n_problem = cli.problem_from(config).dim
    assert rc == 2 and "ConfigError: " in err, err
    assert f"has {n_model} states" in err and f"problem has {n_problem}" in err
