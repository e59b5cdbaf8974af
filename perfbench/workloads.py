"""The benchmark's workloads and the golden values their outputs must match.

Each workload is one ``run_experiment`` call on a configuration parsed by
``parse_config``; the seed only reaches the Monte Carlo reference.  The
golden values in ``golden.json`` were recorded from the same calls and are
compared to 1e-12 relative; seed-dependent values exist for seed 0 only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

GOLDEN = json.loads((Path(__file__).with_name("golden.json")).read_text())
REL_TOL = GOLDEN["rel_tol"]

#: spans every traced run of every workload must contain
COMMON_SPANS = ("galerkin.build_tensors", "models.initial_data", "galerkin.project",
                "solver.advance", "solver.ssprk3", "solver.rhs", "solver.fill_ghosts",
                "solver.compute_dt", "solver.llf", "solver.transform", "models.flux",
                "models.speed_bound", "models.admissibility", "output.write")


@dataclass(frozen=True)
class Workload:
    config: str  # parse_config text with a {seed} field
    spans: tuple[str, ...]  # spans a traced run must contain besides COMMON_SPANS


WORKLOADS = {
    # K+1 = 128: projection, tensor build and dense transforms dominate
    "scalar-L6": Workload(
        config="[run]\npreset = scalar-oleinik\nt_final = 0.2\nseed = {seed}\n"
               "[basis]\nkind = classical-haar\nlevel = 6\n"
               "[grid]\nnx = 400\n[reference]\nkind = exact\n",
        spans=("cweno.edges", "reference.mse")),
    # K+1 = 8; most of the time is the uncoupled collocation batch
    # (8 nodes x 1600 cells), so the solver runs mostly without tensors
    "psystem-colloc": Workload(
        config="[run]\npreset = psystem-riemann\nt_final = 1.0\nseed = {seed}\n"
               "[basis]\nkind = classical-haar\nlevel = 2\n"
               "[grid]\nnx = 400\n[reference]\nkind = collocation\nrefine = 4\n",
        spans=("cweno.edges", "reference.collocation", "reference.det_batch",
               "reference.mse")),
    # the only 2D workload: coupled SG solve and an uncoupled 8-sample Monte
    # Carlo batch at the same trailing size 8, reduced from t = 0.5 and 200
    # samples so that a run fits the benchmark's time budget
    "euler-mc": Workload(
        config="[run]\npreset = euler-box\nt_final = 0.1\nseed = {seed}\n"
               "[basis]\nkind = classical-haar\nlevel = 2\n"
               "[grid]\nnx = 100\nny = 100\n[reference]\nkind = monte-carlo\nsamples = 8\n",
        spans=("cweno.face_values", "reference.monte_carlo", "reference.det_batch")),
}


def observe(result) -> dict:
    """Quantities of a finished run that the golden gate compares.

    Against an exact or collocation reference: ``mse.c<i>`` per component,
    from ``haarsg.reference.mse``.  Against a Monte Carlo envelope: the
    per-component sum of mode 0 times cell area, and the sum of the MC mean
    profile.
    """
    from haarsg.reference import MonteCarloEnvelope, mse
    amin = result.admissibility_min
    observed = {"steps": result.steps,
                "admissibility_min": float(amin) if np.isfinite(amin) else None}
    reference = result.reference
    data = result.field.data
    if isinstance(reference, MonteCarloEnvelope):
        grid = result.grid
        area = grid.dx * (grid.dy if grid.space_dim == 2 else 1.0)
        for c in range(data.shape[-2]):
            observed[f"mode0_area.c{c}"] = float(data[..., c, 0].sum() * area)
        observed["mc_mean_profile_sum"] = float(reference.mean.sum())
    else:
        for c in range(data.shape[-2]):
            observed[f"mse.c{c}"] = mse(result.field, result.tensors, reference, component=c)
    return observed


def close(got, want, scale: float | None = None) -> bool:
    """Equal to ``REL_TOL`` relative to ``scale`` (default ``|want|``);
    ``None`` stands for "no value" and only matches itself."""
    if got is None or want is None:
        return got is None and want is None
    return abs(got - want) <= REL_TOL * (abs(want) if scale is None else scale)


def check(name: str, seed: int, observed: dict) -> list[str]:
    """Mismatches between a run's observed values and the golden ones."""
    golden = dict(GOLDEN["workloads"][name]["seed_free"])
    golden.update(GOLDEN["workloads"][name]["seeded"].get(str(seed), {}))
    # the momentum sums are zero up to rounding, so mode-0 sums are compared
    # relative to the largest of them
    mode0 = [abs(v) for k, v in golden.items() if k.startswith("mode0_area.")]
    mismatches = []
    for key, want in golden.items():
        scale = max(mode0) if key.startswith("mode0_area.") else None
        got = observed.get(key, "absent")
        if got == "absent" or not close(got, want, scale):
            mismatches.append(f"{name} {key}: got {got!r}, golden {want!r}")
    return mismatches
