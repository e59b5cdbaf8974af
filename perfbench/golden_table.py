"""One-shot, untimed check of the golden scalar MSE-vs-level table.

    python3 perfbench/golden_table.py

Runs ``run_level_sweep`` on ``scalar-oleinik`` (nx = 400, t = 0.2, exact
reference) for levels 0-4 of the classical-haar, dct and piecewise-linear
bases and compares each MSE with ``mse_vs_level`` in ``golden.json`` to
1e-12 relative.  Exits 1 on any mismatch.  Takes about 20 s.
"""

from __future__ import annotations

import sys
import tempfile

import workloads
from sample import ROOT, load_haarsg

#: level-0 size of each basis kind; run_level_sweep sets the others
LEVEL0 = {"classical-haar": "level = 0", "dct": "size = 2",
          "piecewise-linear": "subdomains = 1"}


def main() -> int:
    load_haarsg()
    from haarsg.config import parse_config
    from haarsg.experiments import run_level_sweep

    table = workloads.GOLDEN["mse_vs_level"]
    levels = table["levels"]
    work_dir = ROOT / ".perfbench_out"
    work_dir.mkdir(exist_ok=True)
    bad = 0
    for kind, basis_size in LEVEL0.items():
        with tempfile.TemporaryDirectory(dir=work_dir) as out_dir:
            config = parse_config(
                "[run]\npreset = scalar-oleinik\nt_final = 0.2\n"
                f"[basis]\nkind = {kind}\n{basis_size}\n"
                f"[grid]\nnx = 400\n[reference]\nkind = exact\n"
                f"[output]\ndirectory = {out_dir}\n")
            results = run_level_sweep(config, levels[0], levels[-1])
        for level, result, want in zip(levels, results, table[kind]):
            ok = workloads.close(result.mse_value, want)
            bad += not ok
            print(f"{kind:<17} level {level}  mse {result.mse_value!r:<24} "
                  f"golden {want!r:<24} {'ok' if ok else 'MISMATCH'}")
    print(f"{bad} mismatches in {len(levels) * len(LEVEL0)} values")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
