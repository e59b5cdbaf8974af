import gc
import json
import os

import numpy as np
import pytest
from galerkin_reference import galerkin_matrix
from solver_reference import snapshots_reference

from haarsg import (ConfigError, build_canonical_haar, build_classical_haar, build_dct,
                    build_piecewise_linear, build_tensors, parse_config, render_config)
from haarsg.cli import main
from haarsg.config import RunConfig, with_level
from haarsg.experiments import build_grid
from haarsg.models import PRESETS
from haarsg.output import read_field_csv, write_field_csv
from haarsg.solver import Grid, GpcField

MINIMAL = """
[run]
preset = scalar-oleinik
"""

FULL = """
[run]
preset = scalar-oleinik
t_final = 0.1
cfl = 0.4
seed = 9

[basis]
kind = classical-haar
level = 1

[grid]
nx = 40
x_min = -2.0
x_max = 2.0
boundary = transmissive

[output]
directory = out
stride = 0

[reference]
kind = exact
"""


def test_parse_minimal_applies_defaults():
    config = parse_config(MINIMAL)
    assert config.preset == "scalar-oleinik"
    assert config.cfl == 0.45
    assert config.basis_kind == "classical-haar"
    assert config.stride == 0


def test_parse_full():
    config = parse_config(FULL)
    assert config.t_final == 0.1
    assert config.nx == 40
    assert config.seed == 9
    assert config.reference == "exact"


def test_cfl_range_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + "\n[run]\ncfl = 1.5\n")
    assert "cfl" in str(err.value)


def test_unknown_key_named():
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + "\n[grid]\ngird_nx = 4\n")
    assert "`grid.gird_nx`" in str(err.value)


def test_unknown_section_and_syntax_errors_carry_line_numbers():
    with pytest.raises(ConfigError) as err:
        parse_config("[nosuch]\nx = 1\n")
    assert err.value.line == 1
    with pytest.raises(ConfigError) as err:
        parse_config("[run]\npreset scalar\n")
    assert err.value.line == 2
    with pytest.raises(ConfigError):
        parse_config("preset = scalar-oleinik\n")  # key outside a section


def test_bad_value_type():
    with pytest.raises(ConfigError) as err:
        parse_config("[run]\npreset = scalar-oleinik\n\n[grid]\nnx = forty\n")
    assert "grid.nx" in str(err.value)


def test_missing_preset():
    with pytest.raises(ConfigError):
        parse_config("[run]\ncfl = 0.4\n")
    with pytest.raises(ConfigError):
        parse_config("[run]\npreset = unknown-preset\n")


def test_validation_ranges():
    base = "[run]\npreset = scalar-oleinik\n"
    for snippet in ("[grid]\nnx = 4\n", "[output]\nstride = -1\n",
                    "[reference]\nkind = psychic\n", "[grid]\nboundary = magic\n",
                    "[run]\nt_final = -1.0\n", "[basis]\nlevel = 13\n",
                    "[basis]\nkind = dct\nsize = 40000\n",
                    "[basis]\nkind = canonical-haar\nsize = 8193\n",
                    "[basis]\nkind = piecewise-linear\nsubdomains = 4097\n"):
        with pytest.raises(ConfigError):
            parse_config(base + snippet)
    # every kind reaches the K+1 = 8192 of the finest classical Haar level
    for snippet in ("[basis]\nlevel = 12\n", "[basis]\nkind = dct\nsize = 8192\n",
                    "[basis]\nkind = canonical-haar\nsize = 8192\n",
                    "[basis]\nkind = piecewise-linear\nsubdomains = 4096\n"):
        parse_config(base + snippet)


def test_render_roundtrip():
    config = parse_config(FULL)
    assert parse_config(render_config(config)) == config
    minimal = parse_config(MINIMAL)
    assert parse_config(render_config(minimal)) == minimal


def test_with_level_variants():
    config = parse_config(MINIMAL)
    assert with_level(config, 3).basis_level == 3
    dct = RunConfig(preset="scalar-oleinik", basis_kind="dct", basis_size=4)
    assert with_level(dct, 3).basis_size == 16
    for too_fine in (config, dct):
        with pytest.raises(ConfigError):
            with_level(too_fine, 13)


def test_write_field_csv_modes(tmp_path):
    grid = Grid(nx=1, x_bounds=(0.0, 1.0))
    field = GpcField(grid, np.array([[[2.0, 1.0]]]), 0.0)
    path = tmp_path / "field.csv"
    write_field_csv(field, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x,component,kind,index,value"
    assert lines[1] == "0,0.5,0,mode,0,2"
    assert lines[2] == "0,0.5,0,mode,1,1"
    assert len(lines) == 3


def test_write_field_csv_stats(tmp_path):
    grid = Grid(nx=1, x_bounds=(0.0, 1.0))
    field = GpcField(grid, np.array([[[2.0, 1.0]]]), 0.0)
    path = tmp_path / "stats.csv"
    write_field_csv(field, str(path), kinds=("mean", "std"), basis=build_classical_haar(0))
    lines = path.read_text().splitlines()
    assert lines[1].endswith("mean,0,2")
    assert lines[2].endswith("std,0,1")


def test_field_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    grid = Grid(nx=3, x_bounds=(0.0, 1.0), ny=2, y_bounds=(0.0, 1.0))
    data = rng.normal(size=(3, 2, 2, 4))
    field = GpcField(grid, data, 0.25)
    path = tmp_path / "f.csv"
    write_field_csv(field, str(path))
    t, xs, ys, back = read_field_csv(str(path))
    assert t == 0.25
    assert np.array_equal(back, data)


def _write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


#: one basis of every kind a config can name, as [basis] lines and as built
BASIS_DUMPS = [
    ("kind = classical-haar\nlevel = 1", build_classical_haar(1)),
    ("kind = canonical-haar\nsize = 5", build_canonical_haar(5)),
    ("kind = dct\nsize = 6", build_dct(6)),
    ("kind = piecewise-linear\nsubdomains = 3", build_piecewise_linear(3)),
]


def test_cli_basis_dump(tmp_path):
    """``haarsg basis`` writes H and the two eigenframe maps, and no dense
    M_k: each M_k rebuilt from the maps equals the test-side Galerkin
    matrix of the unit vector e_k exactly."""
    for lines, basis in BASIS_DUMPS:
        cfg = _write_config(tmp_path, f"[run]\npreset = scalar-oleinik\n[basis]\n{lines}\n")
        out = tmp_path / basis.kind.value
        assert main(["basis", "--config", cfg, "--out", str(out)]) == 0
        assert sorted(os.listdir(out)) == ["H.csv", "eig_inv.csv", "eig_map.csv"]
        H, eig_map, eig_inv = (np.loadtxt(out / f"{name}.csv", delimiter=",", ndmin=2)
                               for name in ("H", "eig_map", "eig_inv"))
        assert np.array_equal(H, basis.H)
        tensors = build_tensors(basis)
        for k, e_k in enumerate(np.eye(basis.size)):
            m_k = (eig_inv * eig_map[:, k]) @ eig_map
            assert np.array_equal(m_k, galerkin_matrix(tensors, e_k)), (basis.kind, k)


@pytest.mark.parametrize("flag", [["--threads", "2"], ["--seed", "3"]])
@pytest.mark.parametrize("command", [["basis"], ["project", "--expr", "xi"],
                                     ["mse", "--field", "field.csv"]])
def test_cli_seed_and_threads_only_where_read(tmp_path, capsys, command, flag):
    """Only run and reference draw samples or start threads; the other
    subcommands reject the flags as usage errors (exit 2) before reading
    the config."""
    cfg = _write_config(tmp_path, FULL)
    with pytest.raises(SystemExit) as exc:
        main(command + ["--config", cfg, "--out", str(tmp_path / "out")] + flag)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_project(tmp_path):
    cfg = _write_config(tmp_path, FULL)
    out = str(tmp_path / "proj_out")
    code = main(["project", "--config", cfg, "--out", out,
                 "--expr", "sign(xi-0.5)", "--breakpoints", "0.5"])
    assert code == 0
    rows = np.loadtxt(os.path.join(out, "modes.csv"), delimiter=",", skiprows=1)
    assert rows[0, 1] == pytest.approx(0.0, abs=1e-14)
    assert rows[1, 1] == pytest.approx(-1.0, abs=1e-14)


def test_cli_project_rejects_unknown_names(tmp_path):
    cfg = _write_config(tmp_path, FULL)
    assert main(["project", "--config", cfg, "--expr", "__import__('os')"]) == 2


@pytest.mark.parametrize("flags", [["--expr", "xi +"], ["--expr", "where"],
                                   ["--expr", "log(xi-2)"],
                                   ["--expr", "xi", "--breakpoints", "0.5,abc"],
                                   ["--expr", "xi", "--breakpoints", "nan"]],
                         ids=["syntax", "not-a-number", "non-finite", "breakpoint-text",
                              "breakpoint-nan"])
def test_cli_project_bad_input_is_a_config_error(tmp_path, flags):
    cfg = _write_config(tmp_path, FULL)
    out = tmp_path / "proj_out"
    with np.errstate(invalid="ignore"):
        assert main(["project", "--config", cfg, "--out", str(out)] + flags) == 2
    assert not (out / "modes.csv").exists()


def test_cli_run_tiny_experiment(tmp_path):
    cfg = _write_config(tmp_path, FULL.replace("t_final = 0.1", "t_final = 0.02"))
    out = str(tmp_path / "run_out")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "field_final.csv"))
    assert os.path.exists(os.path.join(out, "stats_final.csv"))
    assert os.path.exists(os.path.join(out, "error_metrics.csv"))
    with open(os.path.join(out, "run_manifest.json")) as handle:
        manifest = json.load(handle)
    assert manifest["steps"] > 0
    assert manifest["mse"] is not None


@pytest.mark.parametrize("preset, watched", [("scalar-oleinik", False),
                                             ("psystem-riemann", True)])
def test_admissibility_monitor_transforms_only_when_watching(tmp_path, monkeypatch,
                                                             preset, watched):
    from haarsg.experiments import run_experiment
    from haarsg.solver import SemiDiscreteSystem
    config = parse_config(f"[run]\npreset = {preset}\nt_final = 0.05\n"
                          "[basis]\nkind = classical-haar\nlevel = 1\n[grid]\nnx = 40\n"
                          f"[reference]\nkind = none\n[output]\ndirectory = {tmp_path}\n")
    calling = []  # the solver methods being run, innermost last
    transforms = []  # per transform, the method that makes it, or its shape
    for name in ("rhs", "compute_dt"):
        def wrapped(self, *args, method=getattr(SemiDiscreteSystem, name), name=name,
                    **kwargs):
            calling.append(name)
            try:
                return method(self, *args, **kwargs)
            finally:
                calling.pop()
        monkeypatch.setattr(SemiDiscreteSystem, name, wrapped)
    to_values = SemiDiscreteSystem._to_values

    def counting(self, modes, out=None):
        transforms.append(calling[-1] if calling else modes.shape)
        return to_values(self, modes, out=out)

    monkeypatch.setattr(SemiDiscreteSystem, "_to_values", counting)
    result = run_experiment(config, write_outputs=False)
    # compute_dt transforms the field once per step and watches the
    # admissibility on the way; only the final state, which no step
    # checks, is transformed once more, and only when there is a constraint
    assert transforms.count("compute_dt") == result.steps
    assert [t for t in transforms if t not in ("rhs", "compute_dt")] == (
        [(40, 2, 4)] if watched else [])
    assert np.isfinite(result.admissibility_min) == watched


@pytest.mark.parametrize("preset, watched", [("scalar-oleinik", False),
                                             ("psystem-riemann", True)])
def test_t0_run_transforms_the_field_only_for_a_model_with_a_constraint(
        tmp_path, monkeypatch, preset, watched):
    from haarsg.experiments import run_experiment
    from haarsg.solver import SemiDiscreteSystem
    config = parse_config(f"[run]\npreset = {preset}\nt_final = 0\n"
                          "[basis]\nkind = classical-haar\nlevel = 1\n[grid]\nnx = 40\n"
                          f"[reference]\nkind = none\n[output]\ndirectory = {tmp_path}\n")
    transforms = []
    to_values = SemiDiscreteSystem._to_values

    def counting(self, modes, out=None):
        transforms.append(modes.shape)
        return to_values(self, modes, out=out)

    monkeypatch.setattr(SemiDiscreteSystem, "_to_values", counting)
    result = run_experiment(config, write_outputs=False)
    assert result.steps == 0
    assert transforms == ([(40, 2, 4)] if watched else [])
    assert np.isfinite(result.admissibility_min) == watched


@pytest.mark.parametrize("preset, grid, t_final", [
    ("psystem-riemann", "nx = 40", 0.05),  # lowest at the final state
    ("psystem-riemann", "nx = 40", 0.0),
    ("euler-box", "nx = 24\nny = 24", 0.05),  # lowest at an intermediate state
    ("scalar-oleinik", "nx = 40", 0.05),  # no constraint
])
def test_admissibility_min_equals_the_per_step_monitor(preset, grid, t_final):
    from haarsg.experiments import run_experiment
    from solver_reference import admissibility_monitor_reference
    config = parse_config(f"[run]\npreset = {preset}\nt_final = {t_final}\n"
                          "[basis]\nkind = classical-haar\nlevel = 1\n"
                          f"[grid]\n{grid}\n[reference]\nkind = none\n")
    result = run_experiment(config, write_outputs=False)
    assert result.admissibility_min == admissibility_monitor_reference(config)
    assert np.isfinite(result.admissibility_min) == (preset != "scalar-oleinik")


def test_cli_run_t_final_zero_dumps_initial_data(tmp_path):
    cfg = _write_config(tmp_path, FULL.replace("t_final = 0.1", "t_final = 0.0"))
    out = str(tmp_path / "dump_out")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    t, xs, _, data = read_field_csv(os.path.join(out, "field_final.csv"))
    assert t == 0.0 and len(xs) == 40


def test_cli_run_level_sweep(tmp_path):
    cfg = _write_config(tmp_path, FULL.replace("t_final = 0.1", "t_final = 0.02"))
    out = str(tmp_path / "sweep_out")
    assert main(["run", "--config", cfg, "--out", out, "--level-sweep", "0..1"]) == 0
    table = (tmp_path / "sweep_out" / "mse_vs_level.csv").read_text().splitlines()
    assert table[0].startswith("level,size,mse")
    assert len(table) == 3
    assert os.path.isdir(os.path.join(out, "level_0"))


def test_monte_carlo_level_sweep_builds_its_reference_once(tmp_path, monkeypatch):
    """Every member of a sweep is measured against one Monte Carlo envelope,
    solved once for the whole sweep, not once per level."""
    from haarsg import experiments
    calls = []
    build = experiments.monte_carlo_reference

    def counting(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(experiments, "monte_carlo_reference", counting)
    config = parse_config("[run]\npreset = scalar-oleinik\nt_final = 0.02\n"
                          "[grid]\nnx = 16\n[reference]\nkind = monte-carlo\nsamples = 3\n"
                          f"[output]\ndirectory = {tmp_path}\n")
    results = experiments.run_level_sweep(config, 0, 2)
    assert len(calls) == 1
    envelopes = {(tmp_path / f"level_{j}" / "mc_envelope.csv").read_bytes() for j in range(3)}
    assert len(envelopes) == 1
    assert all(res.reference is results[0].reference for res in results)


def test_monte_carlo_reference_runs_at_the_configured_cfl():
    """The Monte Carlo samples are solved at `run.cfl`, as the Galerkin
    field is.  Four steps at t 0.2: at t 0.01 the one step is clipped to
    t_final, and the CFL number enters no result."""
    from haarsg.experiments import run_experiment
    from haarsg.models import get_preset
    from haarsg.reference import monte_carlo_reference
    config = parse_config("[run]\npreset = euler-box\nt_final = 0.2\ncfl = 0.3\n"
                          "[basis]\nkind = classical-haar\nlevel = 1\n[grid]\nnx = 8\nny = 8\n"
                          "[reference]\nkind = monte-carlo\nsamples = 2\n")
    result = run_experiment(config, write_outputs=False)
    preset, grid = get_preset("euler-box"), build_grid(config)
    expected = monte_carlo_reference(preset, 2, grid, 0.2, config.seed, cfl=0.3)
    for name in ("x", "minimum", "maximum", "mean"):
        assert np.array_equal(getattr(result.reference, name), getattr(expected, name)), name
    default = monte_carlo_reference(preset, 2, grid, 0.2, config.seed, cfl=0.45)
    assert not np.array_equal(expected.mean, default.mean)


def test_cli_bad_config_exit_code(tmp_path):
    cfg = _write_config(tmp_path, "[run]\npreset = scalar-oleinik\ncfl = 2.0\n")
    assert main(["run", "--config", cfg]) == 2
    assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == 2
    huge = _write_config(tmp_path, MINIMAL + "[basis]\nkind = dct\nsize = 40000\n")
    assert main(["basis", "--config", huge]) == 2
    assert main(["run", "--config", cfg, "--level-sweep", "0..13"]) == 2


def test_negative_seed_is_a_config_error_before_the_solve(tmp_path):
    text = ("[run]\npreset = euler-box\nt_final = 0.01\nseed = -1\n"
            "[basis]\nlevel = 1\n[grid]\nnx = 8\nny = 8\n"
            "[reference]\nkind = monte-carlo\nsamples = 2\n")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.key == "run.seed"
    out = tmp_path / "negative_seed_out"
    assert main(["run", "--config", _write_config(tmp_path, text), "--out", str(out)]) == 2
    cfg = _write_config(tmp_path, text.replace("seed = -1", "seed = 3"))
    assert main(["run", "--config", cfg, "--out", str(out), "--seed", "-1"]) == 2
    assert not out.exists()


@pytest.mark.parametrize("preset, run, grid, key", [
    ("scalar-oleinik", "t_final = nan", "", "run.t_final"),
    ("scalar-oleinik", "t_final = inf", "", "run.t_final"),
    ("scalar-oleinik", "", "x_min = 3.0", "grid.x_min"),  # the preset's x_max is 2.0
    ("scalar-oleinik", "", "x_min = nan", "grid.x_min"),
    ("euler-box", "", "ny = 8\ny_max = -inf", "grid.y_max"),
    ("euler-box", "", "ny = 8\ny_min = 1.0\ny_max = 1.0", "grid.y_min"),
], ids=["t-nan", "t-inf", "x-reversed", "x-nan", "y-inf", "y-empty"])
def test_cli_non_finite_or_non_increasing_values_exit_before_any_output(tmp_path, preset,
                                                                        run, grid, key):
    text = f"[run]\npreset = {preset}\n{run}\n[grid]\nnx = 8\n{grid}\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.key == key
    cfg = _write_config(tmp_path, text)
    out = tmp_path / "out"
    out.mkdir()
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("grid, key", [
    ("ny = 12", "grid.ny"),
    ("y_min = 5.0", "grid.y_min"),
    ("y_max = 1.0", "grid.y_max"),
    ("ny = 12\ny_min = 5.0\ny_max = 1.0", "grid.ny"),
])
def test_cli_y_axis_of_a_1d_preset_exits_before_any_output(tmp_path, grid, key):
    text = f"[run]\npreset = scalar-oleinik\nt_final = 0.01\n[grid]\nnx = 8\n{grid}\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.key == key
    out = tmp_path / "out"
    out.mkdir()
    assert main(["run", "--config", _write_config(tmp_path, text), "--out", str(out)]) == 2
    assert list(out.iterdir()) == []


#: what a run with each reference kind writes besides its field, stats and manifest
REFERENCE_ARTIFACTS = {"exact": ["error_metrics.csv"], "collocation": ["error_metrics.csv"],
                       "monte-carlo": ["mc_envelope.csv"], "none": []}


@pytest.mark.parametrize("kind", sorted(REFERENCE_ARTIFACTS))
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_cli_runs_exactly_the_reference_kinds_of_its_preset(tmp_path, capsys, preset, kind):
    """A preset runs every reference kind it lists; any other kind is a
    configuration error (exit 2) before any output."""
    spec = PRESETS[preset]
    grid = "nx = 8\nny = 8" if spec.space_dim == 2 else "nx = 16"
    text = (f"[run]\npreset = {preset}\nt_final = 0.01\n[basis]\nlevel = 0\n"
            f"[grid]\n{grid}\n[reference]\nkind = {kind}\nsamples = 2\nrefine = 1\n")
    out = tmp_path / "out"
    out.mkdir()
    code = main(["run", "--config", _write_config(tmp_path, text), "--out", str(out)])
    if kind not in spec.references:
        assert code == 2
        assert "`reference.kind`" in capsys.readouterr().err
        assert list(out.iterdir()) == []
        return
    assert code == 0
    written = sorted(os.listdir(out))
    assert written == sorted(["field_final.csv", "stats_final.csv", "run_manifest.json"]
                             + REFERENCE_ARTIFACTS[kind]
                             + (["profile_x2_0.csv"] if spec.space_dim == 2 else []))


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_manifest_names_the_settings_the_run_used(tmp_path, preset):
    """At the preset's default grid, boundary and reference the manifest's
    config text parses back to the run's config and names those values."""
    spec = PRESETS[preset]
    text = f"[run]\npreset = {preset}\nt_final = 0\n[basis]\nlevel = 0\n"
    out = tmp_path / "out"
    assert main(["run", "--config", _write_config(tmp_path, text), "--out", str(out)]) == 0
    rendered = json.loads((out / "run_manifest.json").read_text())["config"]
    assert parse_config(rendered) == RunConfig(preset=preset, t_final=0.0, basis_level=0,
                                               out_dir=str(out))
    lines = rendered.splitlines()
    for line in (f"nx = {spec.nx}", "t_final = 0.0", f"boundary = {spec.boundary}",
                 f"kind = {spec.references[0]}"):
        assert line in lines
    assert (f"ny = {spec.ny}" in lines) == (spec.space_dim == 2)
    default = render_config(parse_config(f"[run]\npreset = {preset}\n")).splitlines()
    assert f"t_final = {spec.t_final!r}" in default


@pytest.mark.parametrize("sweep", ["3..1", "-1..1", "-2..-1"])
def test_cli_reversed_or_negative_level_sweep_is_a_config_error(tmp_path, sweep):
    cfg = _write_config(tmp_path, FULL)
    assert main(["run", "--config", cfg, f"--level-sweep={sweep}"]) == 2


def test_cli_snapshots_with_stride(tmp_path):
    text = FULL.replace("t_final = 0.1", "t_final = 0.02").replace(
        "stride = 0", "stride = 2")
    cfg = _write_config(tmp_path, text)
    out = str(tmp_path / "snap_out")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    snaps = [f for f in os.listdir(out) if f.startswith("snapshot_")]
    assert snaps


def _held_arrays(obj, depth: int = 4) -> list:
    """Arrays reachable from ``obj`` through at most ``depth`` references,
    not counting classes and modules."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if depth == 0 or isinstance(obj, (type, type(os))):
        return []
    return [a for ref in gc.get_referents(obj) for a in _held_arrays(ref, depth - 1)]


def test_snapshots_are_written_when_taken_and_not_kept(tmp_path, monkeypatch):
    """Streamed snapshots are byte-identical to the old list-then-write
    order, and the callback that wrote them holds no state afterwards."""
    from haarsg import experiments
    config = parse_config("[run]\npreset = scalar-oleinik\nt_final = 0.05\n"
                          "[basis]\nkind = classical-haar\nlevel = 2\n[grid]\nnx = 40\n"
                          "[reference]\nkind = none\n[output]\nstride = 2\n")
    seen = []
    advance = experiments.advance

    def spy(system, field, t_final, cfl, callbacks=()):
        seen.extend(callbacks)
        return advance(system, field, t_final, cfl=cfl, callbacks=callbacks)

    monkeypatch.setattr(experiments, "advance", spy)
    streamed = tmp_path / "streamed"
    result = experiments.run_experiment(config, out_dir=str(streamed))
    expected = snapshots_reference(config, str(tmp_path / "listed"))
    names = [os.path.basename(p) for p in expected]
    assert len(names) == result.steps // 2 >= 2
    assert sorted(p for p in os.listdir(streamed) if p.startswith("snapshot_")) == names
    assert [os.path.basename(p) for p in result.artifacts[:len(names)]] == names
    for path, name in zip(expected, names):
        with open(path, "rb") as listed:
            assert (streamed / name).read_bytes() == listed.read()
    [snapshotter] = seen
    assert not [a for cell in snapshotter.__closure__ for a in _held_arrays(cell.cell_contents)]


def test_cli_mse_roundtrip(tmp_path):
    cfg = _write_config(tmp_path, FULL.replace("t_final = 0.1", "t_final = 0.02"))
    out = str(tmp_path / "mse_out")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    field_csv = os.path.join(out, "field_final.csv")
    assert main(["mse", "--config", cfg, "--field", field_csv]) == 0


def test_psystem_run_and_mse_measure_the_same_component(tmp_path, capsys):
    cfg = _write_config(tmp_path, "[run]\npreset = psystem-riemann\nt_final = 0.1\n"
                                  "[basis]\nlevel = 1\n[grid]\nnx = 40\n"
                                  "[reference]\nkind = collocation\nrefine = 2\n")
    out = str(tmp_path / "ps_out")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    with open(os.path.join(out, "run_manifest.json")) as handle:
        manifest = json.load(handle)
    capsys.readouterr()
    field_csv = os.path.join(out, "field_final.csv")
    assert main(["mse", "--config", cfg, "--field", field_csv]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(manifest["mse"], rel=1e-12)


def test_reference_level_gives_run_and_mse_the_same_reference(tmp_path, capsys):
    cfg = _write_config(tmp_path, "[run]\npreset = psystem-riemann\nt_final = 0.1\n"
                                  "[basis]\nlevel = 1\n[grid]\nnx = 40\n"
                                  "[reference]\nkind = collocation\nrefine = 2\n"
                                  "level = 3\n")
    out = str(tmp_path / "ref_level_out")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    with open(os.path.join(out, "run_manifest.json")) as handle:
        manifest = json.load(handle)
    capsys.readouterr()
    field_csv = os.path.join(out, "field_final.csv")
    assert main(["mse", "--config", cfg, "--field", field_csv]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(manifest["mse"], rel=1e-12)
    ref_out = str(tmp_path / "ref_dump")
    assert main(["reference", "--config", cfg, "--out", ref_out]) == 0
    rows = np.loadtxt(os.path.join(ref_out, "reference_collocation.csv"),
                      delimiter=",", skiprows=1)
    assert np.unique(rows[:, 1]).size == 16  # the level-3 nodes, not the run's 4


@pytest.mark.parametrize("level", [13, -1])
def test_cli_reference_level_out_of_range_exits_before_the_solve(tmp_path, level):
    text = ("[run]\npreset = psystem-riemann\nt_final = 0.1\n"
            "[basis]\nlevel = 1\n[grid]\nnx = 40\n"
            f"[reference]\nkind = collocation\nrefine = 2\nlevel = {level}\n")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.key == "reference.level"
    cfg = _write_config(tmp_path, text)
    out = tmp_path / "bad_ref_level_out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert not (out / "field_final.csv").exists()


def test_cli_reference_exact(tmp_path):
    cfg = _write_config(tmp_path, FULL)
    out = str(tmp_path / "ref_out")
    assert main(["reference", "--config", cfg, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "reference_exact.csv"))


def test_cli_reference_exact_writes_the_per_point_values(tmp_path):
    """The exact reference is evaluated once on the (x, xi) grid; the CSV is
    the one that a call per point writes."""
    from haarsg import build_classical_haar
    from haarsg.output import write_table_csv
    from haarsg.reference import exact_scalar
    text = FULL.replace("nx = 40", "nx = 12")
    out = tmp_path / "ref_grid_out"
    assert main(["reference", "--config", _write_config(tmp_path, text), "--out", str(out)]) == 0
    xs = build_grid(parse_config(text)).x_centers
    nodes = build_classical_haar(1).cell_midpoints()
    expected = tmp_path / "per_point.csv"
    write_table_csv(str(expected), ["x", "xi", "value"],
                    ([float(x), float(xi), float(exact_scalar(0.1, x, xi))]
                     for x in xs for xi in nodes))
    assert (out / "reference_exact.csv").read_bytes() == expected.read_bytes()


def test_cli_reference_at_time_zero_writes_the_initial_data(tmp_path):
    cfg = _write_config(tmp_path, FULL.replace("t_final = 0.1", "t_final = 0"))
    out = tmp_path / "ref0_out"
    assert main(["reference", "--config", cfg, "--out", str(out)]) == 0
    rows = np.loadtxt(out / "reference_exact.csv", delimiter=",", skiprows=1)
    assert np.array_equal(rows[:, 2], np.sign(rows[:, 0] - (rows[:, 1] - 0.5)))


def test_cli_mse_at_time_zero(tmp_path, capsys):
    """`run` reports no error at t = 0, so `mse` refuses that run's field."""
    cfg = _write_config(tmp_path, FULL.replace("t_final = 0.1", "t_final = 0"))
    out = tmp_path / "run0_out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads((out / "run_manifest.json").read_text())["mse"] is None
    capsys.readouterr()
    assert main(["mse", "--config", cfg, "--field", str(out / "field_final.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "configuration error: --field has time 0" in captured.err


SCALAR_L1 = ("[run]\npreset = scalar-oleinik\nt_final = 0.05\n"
             "[basis]\nkind = classical-haar\nlevel = 1\n[grid]\nnx = 16\n")


def _two_component_field(path, config_text):
    grid = Grid(nx=16, x_bounds=build_grid(parse_config(config_text)).x_bounds)
    write_field_csv(GpcField(grid, np.zeros((16, 2, 4)), 0.05), path)


@pytest.mark.parametrize("config_text, field_name", [
    (SCALAR_L1.replace("nx = 16", "nx = 16\nx_min = -1\nx_max = 1"), "field_final.csv"),
    (SCALAR_L1.replace("nx = 16", "nx = 20"), "field_final.csv"),
    (SCALAR_L1.replace("level = 1", "level = 2"), "field_final.csv"),
    (SCALAR_L1, "two_components.csv"),
    (SCALAR_L1, "stats_final.csv"),
    (SCALAR_L1, "short_row.csv"),
], ids=["x-range", "nx", "level", "components", "no-mode-rows", "short-row"])
def test_cli_mse_rejects_a_field_that_does_not_match_the_config(tmp_path, capsys,
                                                                config_text, field_name):
    out = tmp_path / "run"
    assert main(["run", "--config", _write_config(tmp_path, SCALAR_L1), "--out", str(out)]) == 0
    _two_component_field(str(out / "two_components.csv"), SCALAR_L1)
    (out / "short_row.csv").write_text("t,x,component,kind,index,value\n0.05,0.1\n")
    capsys.readouterr()
    # the run's own config reads its field
    assert main(["mse", "--config", _write_config(tmp_path, SCALAR_L1),
                 "--field", str(out / "field_final.csv")]) == 0
    assert float(capsys.readouterr().out) > 0.0
    cfg = _write_config(tmp_path, config_text)
    assert main(["mse", "--config", cfg, "--field", str(out / field_name)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "configuration error: --field" in captured.err


@pytest.mark.parametrize("time", [-0.05, float("nan")], ids=["negative", "nan"])
@pytest.mark.parametrize("reference", ["exact", "collocation"])
def test_cli_mse_rejects_a_field_time_that_is_not_finite_and_non_negative(tmp_path, capsys,
                                                                          reference, time):
    text = SCALAR_L1 + f"[reference]\nkind = {reference}\nrefine = 1\n"
    cfg = _write_config(tmp_path, text)
    out = tmp_path / "run"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    _, _, _, data = read_field_csv(str(out / "field_final.csv"))
    field_csv = str(out / "shifted.csv")
    write_field_csv(GpcField(build_grid(parse_config(text)), data, time), field_csv)
    capsys.readouterr()
    assert main(["mse", "--config", cfg, "--field", field_csv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "configuration error: --field has time" in captured.err
