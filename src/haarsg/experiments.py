"""Experiment orchestration: presets, level sweeps, artifacts on disk."""

from __future__ import annotations

import json
import os
import time
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from . import output
from .basis import HaarTypeBasis, build_classical_haar
from .config import BASIS_KINDS, RunConfig, render_config, with_level
from .galerkin import GalerkinTensor, build_tensors
from .models import LowestAdmissibility, get_preset, initial_data
from .reference import (CollocationReference, ExactScalarReference,
                        collocation_reference, l1_distance, mean_std,
                        monte_carlo_reference, mse, x_profile)
from .solver import Grid, GpcField, SemiDiscreteSystem, advance
from .workspace import Workspace


def build_basis(config: RunConfig) -> HaarTypeBasis:
    sizing = BASIS_KINDS[config.basis_kind]
    return sizing.build(getattr(config, sizing.attr))


def build_grid(config: RunConfig) -> Grid:
    return Grid(nx=config.nx, x_bounds=(config.x_min, config.x_max), ny=config.ny,
                y_bounds=None if config.ny is None else (config.y_min, config.y_max),
                boundary=config.boundary)


def build_reference(config: RunConfig, tensors: GalerkinTensor | None, grid: Grid,
                    t_final: float):
    """The reference a configuration asks for at ``t_final``; None for "none".

    A collocation reference solves at the stochastic nodes of the classical
    Haar basis of `reference.level` when that is set, else at those of
    ``tensors`` (read only then), on ``grid`` refined by `reference.refine`.
    """
    preset = get_preset(config.preset)
    if config.reference == "exact":
        return ExactScalarReference()
    if config.reference == "collocation":
        if config.ref_level is not None:
            tensors = build_tensors(build_classical_haar(config.ref_level))
        return collocation_reference(preset, tensors, refine=config.ref_refine,
                                     t_final=t_final, grid=grid, cfl=config.cfl)
    if config.reference == "monte-carlo":
        return monte_carlo_reference(preset, config.ref_samples, grid, t_final,
                                     config.seed, cfl=config.cfl)
    return None


@dataclass
class ExperimentResult:
    config: RunConfig
    out_dir: str
    field: GpcField
    tensors: GalerkinTensor
    grid: Grid
    steps: int = 0
    admissibility_min: float = np.inf
    mse_value: float | None = None
    l1_value: float | None = None
    reference: object = None
    artifacts: list = None
    seconds: float = 0.0


def run_experiment(config: RunConfig, threads: int = 1, out_dir: str | None = None,
                   reference_override=None, write_outputs: bool = True) -> ExperimentResult:
    """Run one configured experiment and write its artifacts.

    ``reference_override`` injects a precomputed reference (used by level
    sweeps so every member is compared against the same one).  ``threads``
    must be 1: a run uses one thread.
    """
    # only perfbench passes threads (=1); ROADMAP direction 7 drops it there first, then here
    if threads != 1:
        raise ValueError(f"a run uses one thread, got threads={threads}")
    started = time.perf_counter()
    preset = get_preset(config.preset)
    basis = build_basis(config)
    tensors = build_tensors(basis)
    grid = build_grid(config)
    model = preset.galerkin_model(tensors)
    out_dir = out_dir or config.out_dir
    artifacts = []
    result = ExperimentResult(config=config, out_dir=out_dir, field=None,
                              tensors=tensors, grid=grid, artifacts=artifacts)

    field = initial_data(model, preset, tensors, grid)
    system = SemiDiscreteSystem(model, grid, tensors=tensors)

    if write_outputs:
        os.makedirs(out_dir, exist_ok=True)
    step_count = [0]

    def snapshotter(t, current):
        # every stride-th state is written when it is taken and kept by no one
        step_count[0] += 1
        if write_outputs and config.stride and step_count[0] % config.stride == 0:
            path = os.path.join(out_dir, f"snapshot_{step_count[0] // config.stride - 1:04d}.csv")
            output.write_field_csv(GpcField(grid=grid, data=current.data, time=t), path,
                                   kinds=("mode",))
            artifacts.append(path)

    if config.t_final > 0.0:
        field = advance(system, field, config.t_final, cfl=config.cfl,
                        callbacks=(snapshotter,))
    result.field = field
    result.steps = step_count[0]
    # compute_dt has checked every state but the last (none if no step ran);
    # the last is read in its strips, for a model with a constraint (which the
    # model tells from no values at all), and a violation or NaN is not raised
    result.admissibility_min = system.admissibility_min
    if model.admissibility_values(field.data[:0]) is not None:
        lowest = LowestAdmissibility(model, axis=0)
        deque(system.value_strips(field.data, Workspace(), lowest), maxlen=0)  # keeps no strip
        result.admissibility_min = min(result.admissibility_min, float(lowest.value))

    if write_outputs:
        final_path = os.path.join(out_dir, "field_final.csv")
        output.write_field_csv(field, final_path, kinds=("mode",))
        stats_path = os.path.join(out_dir, "stats_final.csv")
        output.write_field_csv(field, stats_path, kinds=("mean", "std"), basis=basis)
        result.artifacts += [final_path, stats_path]

    reference = reference_override
    if config.t_final > 0.0 and reference is None:
        reference = build_reference(config, tensors, grid, config.t_final)
    result.reference = reference

    qoi = preset.qoi_component
    if config.t_final > 0.0 and reference is not None:
        if isinstance(reference, (ExactScalarReference, CollocationReference)):
            result.mse_value = mse(field, tensors, reference, component=qoi)
            if isinstance(reference, CollocationReference):
                result.l1_value = l1_distance(field, tensors, reference, component=qoi)
            if write_outputs:
                path = os.path.join(out_dir, "error_metrics.csv")
                row = [basis.kind.value, basis.size, float(result.mse_value)]
                header = ["basis", "size", "mse"]
                if result.l1_value is not None:
                    header.append("l1")
                    row.append(float(result.l1_value))
                output.write_table_csv(path, header, [row])
                result.artifacts.append(path)
        elif write_outputs:  # Monte Carlo envelope
            env_path = os.path.join(out_dir, "mc_envelope.csv")
            output.write_envelope_csv(reference, env_path)
            result.artifacts.append(env_path)

    if write_outputs and grid.space_dim == 2:
        mean, std = mean_std(x_profile(field.data, grid, qoi), basis)
        prof_path = os.path.join(out_dir, "profile_x2_0.csv")
        output.write_profile_csv(prof_path, grid.x_centers, {"mean": mean, "std": std})
        result.artifacts.append(prof_path)

    result.seconds = time.perf_counter() - started
    if write_outputs:
        manifest = {
            "config": render_config(config),
            "preset": preset.name,
            "basis": {"kind": basis.kind.value, "size": basis.size},
            "t_final": config.t_final,
            "steps": result.steps,
            "seconds": result.seconds,
            "admissibility_min": (None if not np.isfinite(result.admissibility_min)
                                  else result.admissibility_min),
            "mse": result.mse_value,
            "l1": result.l1_value,
            "mc_failed_samples": getattr(reference, "failed", None),
            "artifacts": [os.path.basename(a) for a in result.artifacts],
        }
        with open(os.path.join(out_dir, "run_manifest.json"), "w") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
    return result


def run_level_sweep(config: RunConfig, level_lo: int, level_hi: int) -> list[ExperimentResult]:
    """Run the experiment over a range of levels and tabulate the errors.

    The reference is built once, from the finest level's configuration, so
    all members are measured against the same one: a collocation reference
    solves at the nodes of the finest level's basis (or `reference.level`),
    and the exact and Monte Carlo references do not depend on the level.
    """
    if level_hi < level_lo:
        raise ValueError("level sweep needs level_lo <= level_hi")
    levels = list(range(level_lo, level_hi + 1))
    finest = with_level(config, level_hi)
    if finest.ref_level is None:
        finest = replace(finest, ref_level=level_hi)
    reference_override = None
    if config.t_final > 0.0:
        reference_override = build_reference(finest, None, build_grid(finest), config.t_final)
    results = [run_experiment(with_level(config, j),
                              out_dir=os.path.join(config.out_dir, f"level_{j}"),
                              reference_override=reference_override) for j in levels]

    rows = []
    for level, res in zip(levels, results):
        row = [level, res.tensors.size,
               float(res.mse_value) if res.mse_value is not None else float("nan")]
        if res.l1_value is not None:
            row.append(float(res.l1_value))
        rows.append(row)
    header = ["level", "size", "mse"] + (["l1"] if len(rows[0]) == 4 else [])
    os.makedirs(config.out_dir, exist_ok=True)
    output.write_table_csv(os.path.join(config.out_dir, "mse_vs_level.csv"), header, rows)
    return results
