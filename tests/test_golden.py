"""Golden values, cut down to run in tier-1, and the paper's claims as properties.

The scalar MSE-vs-level table was recorded from ``run_level_sweep`` on
``scalar-oleinik`` (t = 0.2, exact reference) with nx = 64, levels 0-2,
before the dense triple-product tensor was removed.  The 2D values were
recorded from ``run_experiment`` on ``euler-box`` and ``levelset-box`` at
level 1 on a 24x24 grid, without a reference, before the 2D reconstruction
and the LLF flux were run in strips.  A change that moves any of them by
more than 1e-12 relative changes the paper's numbers and must be declared.
"""

import numpy as np
import pytest

from haarsg import parse_config, run_experiment, run_level_sweep

#: level-0 basis size of each kind; the sweep derives the finer ones
LEVEL0 = {"classical-haar": "level = 0", "dct": "size = 2",
          "piecewise-linear": "subdomains = 1"}
GOLDEN_MSE = {
    "classical-haar": [0.12124731513926587, 0.040389670919778, 0.017038493652545235],
    "dct": [0.1212473151392659, 0.039837798819178066, 0.01634352275417328],
    "piecewise-linear": [0.09123063817966176, 0.028412558589846447, 0.011887523241318447],
}


@pytest.fixture(scope="module")
def scalar_sweeps(tmp_path_factory):
    """kind -> MSE at levels 0-2, each sweep run once for the module."""
    sweeps = {}
    for kind in GOLDEN_MSE:
        config = parse_config(
            "[run]\npreset = scalar-oleinik\nt_final = 0.2\n"
            f"[basis]\nkind = {kind}\n{LEVEL0[kind]}\n[grid]\nnx = 64\n"
            f"[reference]\nkind = exact\n[output]\ndirectory = {tmp_path_factory.mktemp(kind)}\n")
        sweeps[kind] = [result.mse_value for result in run_level_sweep(config, 0, 2)]
    return sweeps


@pytest.mark.parametrize("kind", GOLDEN_MSE)
def test_scalar_mse_vs_level(scalar_sweeps, kind):
    assert scalar_sweeps[kind] == pytest.approx(GOLDEN_MSE[kind], rel=1e-12, abs=0.0)


# The paper's claims, stated as properties so that they still hold, and are
# still checked, after a declared change re-records the golden values.

@pytest.mark.parametrize("kind", GOLDEN_MSE)
def test_scalar_mse_falls_with_level(scalar_sweeps, kind):
    """Each level halves the width of the stochastic cells.  At t 0.2 the
    solution is continuous in ξ, so the stochastic part of the MSE would
    fall about 4x per level; the spatial error at nx 64, the same at every
    level, slows that.  The golden values fall by 3.00/2.37
    (classical-haar), 3.04/2.44 (dct) and 3.21/2.39 (piecewise-linear); a
    floor of 2x keeps a margin below those and far above the 1x of a level
    that adds nothing."""
    mse = scalar_sweeps[kind]
    for coarse, fine in zip(mse, mse[1:]):
        assert coarse >= 2.0 * fine


def test_piecewise_linear_not_above_classical_haar(scalar_sweeps):
    """With the same 2^(J+1) modes, piecewise-linear follows the ξ-slope of
    the rarefaction inside each of its 2^J subdomains, where classical Haar
    has constants on twice as many cells: the golden values put it 25-30 %
    lower at every level."""
    for linear, haar in zip(scalar_sweeps["piecewise-linear"], scalar_sweeps["classical-haar"]):
        assert linear <= haar


@pytest.fixture(scope="module")
def euler_mc_runs(tmp_path_factory):
    """level -> euler-box at classical-haar, 32x32, t 0.5, with a
    16-sample Monte Carlo reference."""
    runs = {}
    for level in (1, 2):
        config = parse_config(
            "[run]\npreset = euler-box\nt_final = 0.5\n"
            f"[basis]\nkind = classical-haar\nlevel = {level}\n[grid]\nnx = 32\nny = 32\n"
            "[reference]\nkind = monte-carlo\nsamples = 16\n"
            f"[output]\ndirectory = {tmp_path_factory.mktemp('euler')}\n")
        runs[level] = run_experiment(config, write_outputs=False)
    return runs


@pytest.mark.parametrize("level", [1, 2])
def test_euler_sg_mean_inside_mc_envelope(euler_mc_runs, level):
    """The SG mean density on the middle row lies inside the min/max
    envelope of the Monte Carlo samples on that row.  No tolerance: the
    mean clears both edges by at least 0.033 at both levels."""
    result = euler_mc_runs[level]
    envelope = result.reference
    assert envelope.failed == 0
    mean = result.field.data[:, result.grid.ny // 2, 0, 0]  # mode 0 is the mean
    assert np.all(envelope.minimum <= mean)
    assert np.all(mean <= envelope.maximum)


@pytest.mark.parametrize("level", [1, 2])
def test_euler_density_floor(euler_mc_runs, level):
    """Density, which the SG system needs positive to stay hyperbolic,
    starts at 1 outside the box and 2 + ξ inside it.  The rarefaction from
    the box takes its minimum over all stochastic cells to 0.99272 (L1) and
    0.99190 (L2).  The floor of 0.98 allows twice that undershoot, and is
    far above a loss of positivity."""
    assert euler_mc_runs[level].admissibility_min > 0.98


def test_psystem_v_floor(tmp_path):
    """The specific volume v must stay positive.  It starts at 1 left of
    the jump and 3 right of it, and its minimum at classical-haar L2, nx 100,
    t 1 is 0.99727.  The floor of 0.99 allows over three times that
    undershoot below the smaller state."""
    config = parse_config(
        "[run]\npreset = psystem-riemann\nt_final = 1\n"
        "[basis]\nkind = classical-haar\nlevel = 2\n[grid]\nnx = 100\n"
        f"[reference]\nkind = none\n[output]\ndirectory = {tmp_path}\n")
    assert run_experiment(config, write_outputs=False).admissibility_min > 0.99


#: preset -> (t_final, steps, admissibility_min, per-component sum of mode 0
#: times cell area, per-component sum of squared modes)
GOLDEN_2D = {
    "euler-box": (0.1, 4, 0.9960935511308527,
                  [21.999958148500234, 9.868649107779169e-17, -2.6225645883343812e-17],
                  [1282.2396654952533, 14.169355981089705, 14.169355981089705]),
    "levelset-box": (0.6, 5, None,
                     [-31.99985704323883, -5.7824115865893565e-18],
                     [513.1019154944252, 1.2285321585717468]),
}


@pytest.mark.parametrize("preset", GOLDEN_2D)
def test_2d_golden_field(tmp_path, preset):
    t_final, steps, amin, mode0, squares = GOLDEN_2D[preset]
    config = parse_config(
        f"[run]\npreset = {preset}\nt_final = {t_final}\n"
        "[basis]\nkind = classical-haar\nlevel = 1\n[grid]\nnx = 24\nny = 24\n"
        f"[reference]\nkind = none\n[output]\ndirectory = {tmp_path}\n")
    result = run_experiment(config, write_outputs=False)
    data, grid = result.field.data, result.grid
    assert result.steps == steps
    if amin is None:
        assert result.admissibility_min == float("inf")
    else:
        assert result.admissibility_min == pytest.approx(amin, rel=1e-12, abs=0.0)
    # momentum sums are zero up to rounding: compare relative to the largest
    scale = max(abs(v) for v in mode0)
    got = [float(data[..., c, 0].sum() * grid.dx * grid.dy) for c in range(len(mode0))]
    assert got == pytest.approx(mode0, rel=0.0, abs=1e-12 * scale)
    got = [float((data[..., c, :] ** 2).sum()) for c in range(len(squares))]
    assert got == pytest.approx(squares, rel=1e-12, abs=0.0)
