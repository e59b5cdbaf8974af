"""Golden scalar MSE-vs-level table, cut down to run in tier-1.

The values were recorded from ``run_level_sweep`` on ``scalar-oleinik``
(t = 0.2, exact reference) with nx = 64, levels 0-2, before the dense
triple-product tensor was removed.  A change that moves any of them by more
than 1e-12 relative changes the paper's numbers and must be declared.
"""

import pytest

from haarsg import parse_config, run_level_sweep

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
