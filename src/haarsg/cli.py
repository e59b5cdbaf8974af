"""Command-line interface.

Subcommands: ``basis`` (dump matrices/tensors), ``project`` (project an
initial-data expression), ``run`` (full experiment, optionally a level
sweep), ``reference`` (build and dump a reference), ``mse`` (compare a field
CSV against a reference).  Exit codes: 0 success, 2 configuration error,
3 solver abort, 4 I/O error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import output
from .config import parse_config
from .errors import ConfigError, SolverAbort
from .experiments import build_basis, build_grid, run_experiment, run_level_sweep
from .galerkin import build_tensors, galerkin_matrix, project
from .models import get_preset
from .reference import (ExactScalarReference, collocation_reference,
                        monte_carlo_reference, mse)
from .solver import GpcField

_EXPR_NAMES = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp, "log": np.log,
    "sqrt": np.sqrt, "abs": np.abs, "sign": np.sign, "where": np.where,
    "minimum": np.minimum, "maximum": np.maximum, "pi": np.pi, "e": np.e,
}


def _load_config(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            return parse_config(handle.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def _apply_overrides(config, args):
    updates = {}
    if getattr(args, "out", None):
        updates["out_dir"] = args.out
    if getattr(args, "seed", None) is not None:
        updates["seed"] = args.seed
    return replace(config, **updates) if updates else config


def _cmd_basis(args) -> int:
    config = _apply_overrides(_load_config(args.config), args)
    basis = build_basis(config)
    tensors = build_tensors(basis)
    out_dir = config.out_dir
    output.write_matrix_csv(basis.H, os.path.join(out_dir, "H.csv"))
    for k, e_k in enumerate(np.eye(tensors.size)):
        output.write_matrix_csv(galerkin_matrix(tensors, e_k),
                                os.path.join(out_dir, f"M_{k:03d}.csv"))
    print(f"wrote H.csv and {tensors.size} tensor matrices to {out_dir}")
    return 0


def _cmd_project(args) -> int:
    config = _apply_overrides(_load_config(args.config), args)
    tensors = build_tensors(build_basis(config))
    code = compile(args.expr, "<expr>", "eval")
    for name in code.co_names:
        if name != "xi" and name not in _EXPR_NAMES:
            raise ConfigError(f"unknown name {name!r} in --expr")

    def f(xi):
        return np.broadcast_to(
            np.asarray(eval(code, {"__builtins__": {}}, {**_EXPR_NAMES, "xi": xi}),
                       dtype=float), xi.shape)

    breakpoints = tuple(float(b) for b in args.breakpoints.split(",")) \
        if args.breakpoints else ()
    modes = project(tensors, f, breakpoints=breakpoints)
    path = os.path.join(config.out_dir, "modes.csv")
    output.write_table_csv(path, ["index", "value"],
                           [[k, float(v)] for k, v in enumerate(modes)])
    print(f"wrote {path}")
    return 0


def _parse_sweep(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("..")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise ConfigError(f"--level-sweep expects J0..J1, got {text!r}") from None


def _cmd_run(args) -> int:
    config = _apply_overrides(_load_config(args.config), args)
    if args.level_sweep:
        lo, hi = _parse_sweep(args.level_sweep)
        results = run_level_sweep(config, lo, hi, threads=args.threads)
        for res in results:
            print(f"level dir {res.out_dir}: steps={res.steps} mse={res.mse_value}")
    else:
        res = run_experiment(config, threads=args.threads)
        print(f"wrote {len(res.artifacts) + 1} artifacts to {res.out_dir} "
              f"(steps={res.steps})")
    return 0


def _cmd_reference(args) -> int:
    config = _apply_overrides(_load_config(args.config), args)
    preset = get_preset(config.preset)
    tensors = build_tensors(build_basis(config))
    grid = build_grid(config)
    t_final = config.t_final if config.t_final is not None else preset.t_final
    kind = config.reference if config.reference is not None else preset.reference
    out_dir = config.out_dir
    os.makedirs(out_dir, exist_ok=True)
    if kind == "exact":
        ref = ExactScalarReference()
        nodes = tensors.basis.cell_midpoints()
        rows = [[float(x), float(xi), float(ref.value(t_final, x, xi))]
                for x in grid.x_centers for xi in nodes]
        path = os.path.join(out_dir, "reference_exact.csv")
        output.write_table_csv(path, ["x", "xi", "value"], rows)
    elif kind == "collocation":
        ref = collocation_reference(preset, tensors, refine=config.ref_refine,
                                    t_final=t_final, grid=grid, cfl=config.cfl)
        qoi = ref.values[:, preset.qoi_component, :]
        rows = [[float(x), float(xi), float(qoi[i, j])]
                for i, x in enumerate(ref.grid.x_centers)
                for j, xi in enumerate(ref.xi_nodes)]
        path = os.path.join(out_dir, "reference_collocation.csv")
        output.write_table_csv(path, ["x", "xi", "value"], rows)
    elif kind == "monte-carlo":
        env = monte_carlo_reference(preset, config.ref_samples, grid, t_final,
                                    config.seed)
        path = os.path.join(out_dir, "mc_envelope.csv")
        output.write_envelope_csv(env, path)
    else:
        raise ConfigError(f"preset {preset.name} has no reference configured")
    print(f"wrote {path}")
    return 0


def _cmd_mse(args) -> int:
    config = _apply_overrides(_load_config(args.config), args)
    preset = get_preset(config.preset)
    tensors = build_tensors(build_basis(config))
    grid = build_grid(config)
    t, xs, ys, data = output.read_field_csv(args.field)
    if ys is not None:
        raise ConfigError("mse comparison is defined for 1D fields")
    field = GpcField(grid=grid, data=data, time=t)
    kind = config.reference if config.reference is not None else preset.reference
    if kind == "exact":
        reference = ExactScalarReference()
    elif kind == "collocation":
        reference = collocation_reference(preset, tensors, refine=config.ref_refine,
                                          t_final=t, grid=grid, cfl=config.cfl)
    else:
        raise ConfigError(f"reference kind {kind!r} does not support mse")
    value = mse(field, tensors, reference, component=preset.qoi_component)
    print(format(value, ".17g"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="haarsg",
                                     description="Haar-type stochastic Galerkin solvers")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="path to a run configuration")
        p.add_argument("--out", help="output directory (overrides the config)")
        p.add_argument("--seed", type=int, help="seed override")
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads for sweeps and sampling")

    p_basis = sub.add_parser("basis", help="dump H and the Galerkin tensors as CSV")
    common(p_basis)
    p_basis.set_defaults(func=_cmd_basis)

    p_proj = sub.add_parser("project", help="project an expression in xi, dump modes")
    common(p_proj)
    p_proj.add_argument("--expr", required=True, help="expression in xi, e.g. 'sign(xi-0.5)'")
    p_proj.add_argument("--breakpoints", help="comma-separated discontinuity locations")
    p_proj.set_defaults(func=_cmd_project)

    p_run = sub.add_parser("run", help="run a full experiment")
    common(p_run)
    p_run.add_argument("--level-sweep", help="run levels J0..J1 and tabulate errors")
    p_run.set_defaults(func=_cmd_run)

    p_ref = sub.add_parser("reference", help="build and dump a reference solution")
    common(p_ref)
    p_ref.set_defaults(func=_cmd_reference)

    p_mse = sub.add_parser("mse", help="compare a field CSV against a reference")
    common(p_mse)
    p_mse.add_argument("--field", required=True, help="path to a mode-field CSV")
    p_mse.set_defaults(func=_cmd_mse)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SolverAbort as exc:
        print(f"solver abort: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
