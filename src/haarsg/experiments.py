"""Experiment orchestration: presets, level sweeps, artifacts on disk."""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import output
from .basis import (HaarTypeBasis, build_canonical_haar, build_classical_haar,
                    build_dct, build_piecewise_linear)
from .config import RunConfig, render_config, with_level
from .galerkin import GalerkinTensor, build_tensors
from .models import get_preset, initial_data
from .reference import (CollocationReference, ExactScalarReference,
                        collocation_reference, l1_distance, mean_std,
                        monte_carlo_reference, mse)
from .solver import Grid, GpcField, SemiDiscreteSystem, advance


def build_basis(config: RunConfig) -> HaarTypeBasis:
    kind = config.basis_kind
    if kind == "classical-haar":
        return build_classical_haar(config.basis_level)
    if kind == "canonical-haar":
        return build_canonical_haar(config.basis_size)
    if kind == "dct":
        return build_dct(config.basis_size)
    return build_piecewise_linear(config.basis_subdomains)


def build_grid(config: RunConfig) -> Grid:
    preset = get_preset(config.preset)
    (x0, x1) = preset.domain[0]
    x_bounds = (config.x_min if config.x_min is not None else x0,
                config.x_max if config.x_max is not None else x1)
    boundary = config.boundary or preset.boundary
    if preset.space_dim == 1:
        return Grid(nx=config.nx or preset.nx, x_bounds=x_bounds, boundary_x=boundary)
    (y0, y1) = preset.domain[1]
    y_bounds = (config.y_min if config.y_min is not None else y0,
                config.y_max if config.y_max is not None else y1)
    return Grid(nx=config.nx or preset.nx, x_bounds=x_bounds,
                ny=config.ny or preset.ny, y_bounds=y_bounds,
                boundary_x=boundary, boundary_y=boundary)


@dataclass
class ExperimentResult:
    config: RunConfig
    out_dir: str
    field: GpcField
    tensors: GalerkinTensor
    model: object
    grid: Grid
    steps: int = 0
    admissibility_min: float = np.inf
    mse_value: float | None = None
    l1_value: float | None = None
    envelope: object = None
    reference: object = None
    artifacts: list = None
    seconds: float = 0.0


def run_experiment(config: RunConfig, threads: int = 1, out_dir: str | None = None,
                   reference_override=None, write_outputs: bool = True) -> ExperimentResult:
    """Run one configured experiment and write its artifacts.

    ``reference_override`` injects a precomputed reference (used by level
    sweeps so every member is compared against the same one).
    """
    started = time.perf_counter()
    preset = get_preset(config.preset)
    basis = build_basis(config)
    tensors = build_tensors(basis)
    grid = build_grid(config)
    model = preset.make_model(tensors)
    t_final = config.t_final if config.t_final is not None else preset.t_final
    out_dir = out_dir or config.out_dir
    result = ExperimentResult(config=config, out_dir=out_dir, field=None,
                              tensors=tensors, model=model, grid=grid, artifacts=[])

    field = initial_data(model, preset, tensors, grid)
    system = SemiDiscreteSystem(model, grid, tensors=tensors)

    admissibility_min = [np.inf]
    snapshots = []

    def monitor(t, current):
        vals = model.admissibility_values(system._to_values(current.data))
        if vals is not None:
            admissibility_min[0] = min(admissibility_min[0], float(vals.min()))

    step_count = [0]

    def snapshotter(t, current):
        step_count[0] += 1
        if config.stride and step_count[0] % config.stride == 0:
            snapshots.append(GpcField(grid=grid, data=current.data.copy(), time=t))

    monitor(0.0, field)
    if t_final > 0.0:
        field = advance(system, field, t_final, cfl=config.cfl,
                        callbacks=(snapshotter, monitor))
    result.field = field
    result.steps = step_count[0]
    result.admissibility_min = admissibility_min[0]

    if write_outputs:
        os.makedirs(out_dir, exist_ok=True)
        for i, snap in enumerate(snapshots):
            path = os.path.join(out_dir, f"snapshot_{i:04d}.csv")
            output.write_field_csv(snap, path, kinds=("mode",))
            result.artifacts.append(path)
        final_path = os.path.join(out_dir, "field_final.csv")
        output.write_field_csv(field, final_path, kinds=("mode",))
        stats_path = os.path.join(out_dir, "stats_final.csv")
        output.write_field_csv(field, stats_path, kinds=("mean", "std"))
        result.artifacts += [final_path, stats_path]

    reference = reference_override
    ref_kind = config.reference if config.reference is not None else preset.reference
    if t_final > 0.0 and reference is None and ref_kind != "none":
        if ref_kind == "exact":
            reference = ExactScalarReference()
        elif ref_kind == "collocation":
            ref_level = config.ref_level
            ref_tensors = tensors
            if ref_level is not None:
                ref_tensors = build_tensors(build_classical_haar(ref_level))
            reference = collocation_reference(preset, ref_tensors, refine=config.ref_refine,
                                              t_final=t_final, grid=grid, cfl=config.cfl)
        elif ref_kind == "monte-carlo":
            reference = monte_carlo_reference(preset, config.ref_samples, grid,
                                              t_final, config.seed, threads=threads)
    result.reference = reference

    qoi = preset.qoi_component
    if t_final > 0.0 and reference is not None:
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
        else:  # Monte Carlo envelope
            result.envelope = reference
            if write_outputs:
                env_path = os.path.join(out_dir, "mc_envelope.csv")
                output.write_envelope_csv(reference, env_path)
                result.artifacts.append(env_path)

    if write_outputs and grid.space_dim == 2:
        mean, std = mean_std(field)
        row = grid.ny // 2
        prof_path = os.path.join(out_dir, "profile_x2_0.csv")
        output.write_profile_csv(prof_path, grid.x_centers,
                                 {"mean": mean[:, row, qoi], "std": std[:, row, qoi]})
        result.artifacts.append(prof_path)

    result.seconds = time.perf_counter() - started
    if write_outputs:
        manifest = {
            "config": render_config(config),
            "preset": preset.name,
            "basis": {"kind": basis.kind.value, "size": basis.size},
            "t_final": t_final,
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


def run_level_sweep(config: RunConfig, level_lo: int, level_hi: int,
                    threads: int = 1) -> list[ExperimentResult]:
    """Run the experiment over a range of levels and tabulate the errors.

    A collocation reference is built once from the finest level's basis so
    all members are measured against the same reference.
    """
    if level_hi < level_lo:
        raise ValueError("level sweep needs level_lo <= level_hi")
    preset = get_preset(config.preset)
    levels = list(range(level_lo, level_hi + 1))
    reference_override = None
    ref_kind = config.reference if config.reference is not None else preset.reference
    if ref_kind == "collocation":
        finest = with_level(config, level_hi)
        ref_level = config.ref_level if config.ref_level is not None else level_hi
        ref_tensors = build_tensors(build_classical_haar(ref_level))
        t_final = config.t_final if config.t_final is not None else preset.t_final
        reference_override = collocation_reference(
            preset, ref_tensors, refine=config.ref_refine, t_final=t_final,
            grid=build_grid(finest), cfl=config.cfl)

    member_configs = [with_level(config, j) for j in levels]
    results: list[ExperimentResult | None] = [None] * len(levels)

    def run_member(i: int) -> None:
        sub_dir = os.path.join(config.out_dir, f"level_{levels[i]}")
        results[i] = run_experiment(member_configs[i], out_dir=sub_dir,
                                    reference_override=reference_override)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run_member, range(len(levels))))
    else:
        for i in range(len(levels)):
            run_member(i)

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
    return list(results)
