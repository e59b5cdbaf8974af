"""Golden values, cut down to run in tier-1.

The scalar MSE-vs-level table was recorded from ``run_level_sweep`` on
``scalar-oleinik`` (t = 0.2, exact reference) with nx = 64, levels 0-2,
before the dense triple-product tensor was removed.  The 2D values were
recorded from ``run_experiment`` on ``euler-box`` and ``levelset-box`` at
level 1 on a 24x24 grid, without a reference, before the 2D reconstruction
and the LLF flux were run in strips.  A change that moves any of them by
more than 1e-12 relative changes the paper's numbers and must be declared.
"""

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


@pytest.mark.parametrize("kind", GOLDEN_MSE)
def test_scalar_mse_vs_level(tmp_path, kind):
    config = parse_config(
        "[run]\npreset = scalar-oleinik\nt_final = 0.2\n"
        f"[basis]\nkind = {kind}\n{LEVEL0[kind]}\n[grid]\nnx = 64\n"
        f"[reference]\nkind = exact\n[output]\ndirectory = {tmp_path}\n")
    got = [result.mse_value for result in run_level_sweep(config, 0, 2)]
    assert got == pytest.approx(GOLDEN_MSE[kind], rel=1e-12, abs=0.0)


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
