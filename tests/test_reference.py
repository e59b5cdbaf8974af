import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from haarsg import (ExactScalarReference, Grid, GpcField, build_classical_haar,
                    build_dct, build_piecewise_linear, build_tensors, exact_scalar, expansion_values, get_preset,
                    initial_data, l1_distance, mean_std, monte_carlo_reference,
                    mse, parse_config, collocation_reference, SemiDiscreteSystem, advance,
                    project, run_experiment, to_spectrum)
from haarsg import reference
from haarsg.experiments import build_grid
from haarsg.reference import _uniform_samples, solve_deterministic_batch

T2 = build_tensors(build_classical_haar(2))


def test_exact_scalar_branch_values():
    assert exact_scalar(1.0, 0.5, 0.5) == 0.0  # xhat/t = 0.5 in [-1, 1)
    assert exact_scalar(1.0, -4.0, 0.5) == -1.0
    assert exact_scalar(1.0, 2.0, 0.5) == pytest.approx(0.5)
    assert exact_scalar(0.5, 10.0, 0.5) == 1.0
    with pytest.raises(ValueError):
        exact_scalar(-1e-3, 0.0, 0.5)


def test_exact_scalar_at_time_zero_is_the_initial_data():
    """The limit t -> 0+ of every branch: sign(x - (xi - 1/2)), 0 at the jump."""
    x = np.array([-1.0, -0.25, 0.0, 0.1, 2.0])
    assert np.array_equal(exact_scalar(0.0, x, 0.25), [-1.0, 0.0, 1.0, 1.0, 1.0])
    assert np.array_equal(exact_scalar(0.0, x, 0.75), [-1.0, -1.0, -1.0, -1.0, 1.0])
    assert exact_scalar(0.0, 0.5, 1.0) == 0.0


def test_exact_scalar_continuous_at_branch_joins():
    t = 0.2
    for r in (-3.0, -1.0, 1.0, 3.0):
        x = r * t + 0.0
        below = exact_scalar(t, x - 1e-12, 0.5)
        above = exact_scalar(t, x + 1e-12, 0.5)
        assert abs(above - below) < 1e-11


def test_expansion_values_reproduces_realizations():
    rng = np.random.default_rng(31)
    modes = rng.normal(size=8)
    mids = T2.basis.cell_midpoints()
    from haarsg import to_spectrum
    assert np.allclose(expansion_values(T2, modes, mids), to_spectrum(T2, modes),
                       atol=1e-13)


def test_mean_std_examples():
    data = np.zeros((1, 1, 8))
    data[0, 0, 0] = 4.0
    mean, std = mean_std(data, T2.basis)
    assert mean[0, 0] == 4.0 and std[0, 0] == 0.0
    data2 = np.zeros((1, 1, 8))
    data2[0, 0, 1] = 1.0
    mean, std = mean_std(data2, T2.basis)
    assert mean[0, 0] == 0.0 and std[0, 0] == 1.0
    # (2, 1) has realizations (3, 1): mean 2, std 1
    t0 = build_tensors(build_classical_haar(0))
    mean, std = mean_std(np.array([[[2.0, 1.0]]]), t0.basis)
    assert mean[0, 0] == pytest.approx(2.0) and std[0, 0] == pytest.approx(1.0)
    from haarsg import to_spectrum
    real = to_spectrum(t0, np.array([2.0, 1.0]))
    assert real.mean() == pytest.approx(2.0)
    assert real.std() == pytest.approx(1.0)


def test_mse_zero_for_matching_field():
    grid = Grid(nx=20, x_bounds=(-2.0, 2.0))
    data = np.zeros((20, 1, 8))
    t_final = 0.2

    class SelfReference(ExactScalarReference):
        def value(self, t, x, xi):
            return np.zeros(np.broadcast(x, xi).shape)

    field = GpcField(grid, data, t_final)
    assert mse(field, T2, SelfReference()) == 0.0


def test_mse_constant_offset():
    grid = Grid(nx=25, x_bounds=(-1.0, 3.0))
    data = np.zeros((25, 1, 8))

    class OffsetReference(ExactScalarReference):
        def value(self, t, x, xi):
            return np.broadcast_to(0.5, np.broadcast(x, xi).shape)

    field = GpcField(grid, data, 1.0)
    # constant offset c over length L: mse = c^2 L
    assert mse(field, T2, OffsetReference()) == pytest.approx(0.25 * 4.0, abs=1e-12)


def _exact_mse_per_cell(field, t, reference):
    """The exact-reference mse one stochastic cell at a time (oracle)."""
    xs = field.grid.x_centers
    ncell = t.basis.cells
    xg, wg = np.polynomial.legendre.leggauss(5)
    exp_err = np.zeros(xs.size)
    for c in range(ncell):
        a, b = c / ncell, (c + 1) / ncell
        nodes = 0.5 * (b - a) * xg + 0.5 * (a + b)
        weights = 0.5 * (b - a) * wg
        vals = expansion_values(t, field.data[:, 0, :], nodes)
        ref = reference.value(field.time, xs[:, None], nodes[None, :])
        exp_err += ((vals - ref) ** 2) @ weights
    return float(exp_err.sum() * field.grid.dx)


@pytest.mark.parametrize("basis", [build_classical_haar(5), build_dct(40),
                                   build_piecewise_linear(20)],
                         ids=lambda b: f"{b.kind.value}-{b.size}")
def test_exact_mse_matches_per_cell_sum(basis):
    # 64, 40 and 20 stochastic cells: whole blocks, and blocks with a tail
    t = build_tensors(basis)
    grid = Grid(nx=30, x_bounds=(-2.0, 2.0))
    data = np.random.default_rng(3).normal(size=(30, 1, t.size))
    field = GpcField(grid, data, 0.2)
    reference = ExactScalarReference()
    expected = _exact_mse_per_cell(field, t, reference)
    assert mse(field, t, reference) == pytest.approx(expected, rel=1e-13)


def test_mean_std_matches_cell_statistics():
    rng = np.random.default_rng(32)
    data = rng.normal(size=(3, 2, 8))
    mean, std = mean_std(data, T2.basis)
    from haarsg import to_spectrum
    real = to_spectrum(T2, data)
    assert np.allclose(mean, real.mean(axis=-1), atol=1e-12)
    assert np.allclose(std, real.std(axis=-1), atol=1e-12)


def test_collocation_reference_deterministic_data_identical_nodes():
    preset = get_preset("psystem-riemann")
    grid = Grid(nx=40, x_bounds=(-3.0, 3.0))
    # deterministic pressure: fix v* by replacing the sampled nodes
    ref = collocation_reference(preset, build_tensors(build_classical_haar(0)),
                                refine=2, t_final=0.05, grid=grid, cfl=0.45)
    assert ref.values.shape == (80, 2, 2)
    # initial data is xi-independent and v* barely matters by t=0.05 away
    # from the kink region, but the runs share dt: just check finiteness here
    assert np.all(np.isfinite(ref.values))


def test_collocation_reference_matches_exact_scalar():
    preset = get_preset("scalar-oleinik")
    grid = Grid(nx=400, x_bounds=(-2.0, 2.0))
    tensors = build_tensors(build_classical_haar(1))

    def l1_vs_exact(refine):
        ref = collocation_reference(preset, tensors, refine=refine, t_final=0.2,
                                    grid=grid, cfl=0.45)
        xs = ref.grid.x_centers
        err = 0.0
        for j, xi in enumerate(ref.xi_nodes):
            err += np.abs(ref.values[:, 0, j] - exact_scalar(0.2, xs, xi)).sum() \
                * ref.grid.dx
        return err / ref.xi_nodes.size

    coarse = l1_vs_exact(1)
    fine = l1_vs_exact(4)
    # frozen from the derived oracle runs: 1.35e-2 at nx=400, 2.71e-3 at nx=1600
    assert fine < 3e-3, fine
    assert fine < 0.25 * coarse, (coarse, fine)


def test_monte_carlo_single_sample_and_deterministic_envelope():
    preset = get_preset("psystem-riemann")
    grid = Grid(nx=60, x_bounds=(-3.0, 3.0))
    env = monte_carlo_reference(preset, 1, grid, 0.05, seed=7, cfl=0.45)
    assert np.array_equal(env.minimum, env.maximum)
    assert np.array_equal(env.minimum, env.mean)
    assert env.failed == 0
    # scalar preset likewise has xi-dependent data; a 3-sample envelope with
    # deterministic (xi-independent) physics collapses to zero width
    pre2 = get_preset("levelset-box")
    grid2 = Grid(nx=20, x_bounds=(-4.0, 4.0), ny=20, y_bounds=(-4.0, 4.0))
    sub = monte_carlo_reference(pre2, 3, grid2, 0.0 + 0.05, seed=1, cfl=0.45)
    assert np.all(sub.maximum - sub.minimum >= 0.0)


def test_monte_carlo_reproducible_and_thread_invariant(monkeypatch):
    preset = get_preset("scalar-oleinik")
    grid = Grid(nx=50, x_bounds=(-2.0, 2.0))
    monkeypatch.setattr(reference, "MC_CHUNK", 2)
    a = monte_carlo_reference(preset, 6, grid, 0.05, seed=42, cfl=0.45)
    b = monte_carlo_reference(preset, 6, grid, 0.05, seed=42, cfl=0.45, threads=3)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.minimum, b.minimum)
    c = monte_carlo_reference(preset, 6, grid, 0.05, seed=43, cfl=0.45)
    assert not np.array_equal(a.mean, c.mean)


@pytest.mark.parametrize("n", [1, 8, 200])
def test_uniform_samples_match_numpy_default_generator(n):
    for seed in list(range(300)) + [2**32, 2**64 + 5, 2**200]:
        expected = np.random.default_rng(seed).uniform(0.0, 1.0, n)
        assert np.array_equal(_uniform_samples(seed, n), expected), seed


def test_uniform_samples_of_seed_zero():
    assert _uniform_samples(0, 4).tolist() == [
        0.6369616873214543, 0.2697867137638703, 0.04097352393619469, 0.016527635528529094]


def test_uniform_samples_reject_a_negative_seed():
    with pytest.raises(ValueError, match="non-negative"):
        _uniform_samples(-1, 3)


def test_monte_carlo_run_does_not_import_numpy_random():
    """A fresh process: this one imports ``numpy.random`` through other tests."""
    script = textwrap.dedent(r"""
        import sys
        from haarsg import parse_config
        from haarsg.experiments import run_experiment
        config = parse_config("[run]\npreset = euler-box\nt_final = 0.01\n"
                              "[basis]\nlevel = 1\n[grid]\nnx = 8\nny = 8\n"
                              "[reference]\nkind = monte-carlo\nsamples = 2\n")
        result = run_experiment(config, write_outputs=False)
        assert result.reference.failed == 0
        print("numpy.random" in sys.modules)
        """)
    src = str(Path(reference.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_l1_distance_self_is_small():
    preset = get_preset("psystem-riemann")
    grid = Grid(nx=60, x_bounds=(-3.0, 3.0))
    tensors = build_tensors(build_classical_haar(0))
    ref = collocation_reference(preset, tensors, refine=1, t_final=0.05, grid=grid, cfl=0.45)
    model = preset.galerkin_model(tensors)
    field = initial_data(model, preset, tensors, grid)
    system = SemiDiscreteSystem(model, grid, tensors=tensors)
    out = advance(system, field, 0.05, cfl=0.45)
    # same scheme, same grid, collocation vs intrusive: near-identical here
    assert l1_distance(out, tensors, ref, component=1) < 5e-3


@pytest.mark.parametrize("metric", [mse, l1_distance], ids=["mse", "l1"])
def test_collocation_metrics_refuse_a_field_at_another_time(metric):
    preset = get_preset("psystem-riemann")
    grid = Grid(nx=20, x_bounds=(-3.0, 3.0))
    tensors = build_tensors(build_classical_haar(0))
    ref = collocation_reference(preset, tensors, refine=1, t_final=0.05, grid=grid, cfl=0.45)
    field = initial_data(preset.galerkin_model(tensors), preset, tensors, grid)
    with pytest.raises(ValueError, match="reference time"):
        metric(field, tensors, ref, component=1)


def test_piecewise_linear_mean_std_are_those_of_the_expansion():
    """Mode 0 is not the mean of a piecewise-linear expansion: the mean is
    the spectrum's average (two Gauss points per subdomain, exact on linear
    and quadratic pieces), the std that of the spectrum and Parseval's."""
    tensors = build_tensors(build_piecewise_linear(4))
    modes = project(tensors, lambda xi: 2.0 + np.sin(3.0 * xi) + xi ** 2)
    mean, std = mean_std(modes, tensors.basis)
    spectrum = to_spectrum(tensors, modes)
    assert mean == pytest.approx(spectrum.mean(), rel=1e-14)
    assert std == pytest.approx(spectrum.std(), rel=1e-12)
    assert std ** 2 == pytest.approx(np.sum(modes ** 2) - spectrum.mean() ** 2, rel=1e-12)
    # E[2 + sin 3xi + xi^2] = 2 + (1 - cos 3) / 3 + 1 / 3; mode 0 reads 1.189
    assert mean == pytest.approx(2.0 + (1.0 - np.cos(3.0)) / 3.0 + 1.0 / 3.0, abs=1e-3)
    assert std == pytest.approx(0.397, abs=1e-3)
    assert modes[0] == pytest.approx(1.189, abs=1e-3)


def test_monte_carlo_envelope_and_sg_profile_read_the_same_row(tmp_path):
    """On an odd ny the profile row ny // 2 is y = 0, the one row without a
    mirror image; both the SG profile and the MC envelope must read it."""
    ny = 9
    config = parse_config("[run]\npreset = euler-box\nt_final = 0.05\n"
                          "[basis]\nkind = classical-haar\nlevel = 1\n"
                          f"[grid]\nnx = 9\nny = {ny}\n"
                          "[reference]\nkind = monte-carlo\nsamples = 8\n")
    result = run_experiment(config, out_dir=str(tmp_path))
    grid = result.grid
    assert grid.y_centers[ny // 2] == pytest.approx(0.0, abs=1e-15)
    profile = np.loadtxt(tmp_path / "profile_x2_0.csv", delimiter=",", skiprows=1)
    mean, _ = mean_std(result.field.data, result.tensors.basis)
    sg_rows = [r for r in range(ny) if np.array_equal(mean[:, r, 0], profile[:, 1])]
    samples = solve_deterministic_batch(get_preset("euler-box"),
                                        _uniform_samples(config.seed, 8), grid,
                                        config.t_final, config.cfl)
    mc_rows = [r for r in range(ny) if np.allclose(samples[:, r, 0, :].mean(axis=-1),
                                                   result.reference.mean, rtol=0.0,
                                                   atol=1e-12)]
    assert sg_rows == mc_rows == [ny // 2]


def test_preset_grid_defaults():
    g1 = build_grid(parse_config("[run]\npreset = scalar-oleinik\n"))
    assert g1.nx == 400 and g1.space_dim == 1
    g2 = build_grid(parse_config("[run]\npreset = euler-box\n"))
    assert g2.space_dim == 2 and g2.ny == 100


def test_solve_deterministic_batch_shapes():
    preset = get_preset("euler-box")
    grid = Grid(nx=16, x_bounds=(-2.0, 2.0), ny=16, y_bounds=(-2.0, 2.0))
    data = solve_deterministic_batch(preset, np.array([0.25, 0.75]), grid, 0.02, cfl=0.45)
    assert data.shape == (16, 16, 3, 2)
    assert np.all(np.isfinite(data))
