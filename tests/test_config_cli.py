import json
import os

import numpy as np
import pytest

from haarsg import ConfigError, parse_config, render_config
from haarsg.cli import main
from haarsg.config import RunConfig, with_level
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
    write_field_csv(field, str(path), kinds=("mean", "std"))
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


def test_cli_basis_dump(tmp_path):
    cfg = _write_config(tmp_path, FULL)
    out = str(tmp_path / "basis_out")
    assert main(["basis", "--config", cfg, "--out", out]) == 0
    H = np.loadtxt(os.path.join(out, "H.csv"), delimiter=",")
    assert H.shape == (4, 4)
    assert os.path.exists(os.path.join(out, "M_003.csv"))


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


def test_cli_bad_config_exit_code(tmp_path):
    cfg = _write_config(tmp_path, "[run]\npreset = scalar-oleinik\ncfl = 2.0\n")
    assert main(["run", "--config", cfg]) == 2
    assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == 2
    huge = _write_config(tmp_path, MINIMAL + "[basis]\nkind = dct\nsize = 40000\n")
    assert main(["basis", "--config", huge]) == 2
    assert main(["run", "--config", cfg, "--level-sweep", "0..13"]) == 2


def test_cli_snapshots_with_stride(tmp_path):
    text = FULL.replace("t_final = 0.1", "t_final = 0.02").replace(
        "stride = 0", "stride = 2")
    cfg = _write_config(tmp_path, text)
    out = str(tmp_path / "snap_out")
    assert main(["run", "--config", cfg, "--out", out]) == 0
    snaps = [f for f in os.listdir(out) if f.startswith("snapshot_")]
    assert snaps


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


def test_cli_reference_exact(tmp_path):
    cfg = _write_config(tmp_path, FULL)
    out = str(tmp_path / "ref_out")
    assert main(["reference", "--config", cfg, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "reference_exact.csv"))
