"""Command-line interface.

Subcommands: ``basis`` (dump ``H`` and the eigenframe maps ``eig_map`` and
``eig_inv``; each Galerkin matrix is M_k = (eig_inv * eig_map[:, k]) @ eig_map),
``project`` (project an initial-data expression), ``run`` (full experiment,
optionally a level sweep), ``reference`` (build and dump a reference), ``mse``
(compare a field CSV at t > 0 against a reference).  Exit codes: 0 success, 2
configuration error, 3 solver abort, 4 I/O error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import output
from .config import RunConfig, parse_config
from .errors import ConfigError, SolverAbort
from .experiments import (build_basis, build_grid, build_reference, run_experiment,
                          run_level_sweep)
from .galerkin import build_tensors, project
from .models import get_preset
from .reference import CollocationReference, ExactScalarReference, mse
from .solver import GpcField

_EXPR_NAMES = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp, "log": np.log,
    "sqrt": np.sqrt, "abs": np.abs, "sign": np.sign, "where": np.where,
    "minimum": np.minimum, "maximum": np.maximum, "pi": np.pi, "e": np.e,
}


def _load_config(args) -> RunConfig:
    """The configuration at ``--config``, with ``--out`` and ``--seed`` applied."""
    try:
        with open(args.config, encoding="utf-8") as handle:
            config = parse_config(handle.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    updates = {}
    if args.out:
        updates["out_dir"] = args.out
    if getattr(args, "seed", None) is not None:
        updates["seed"] = args.seed
    return replace(config, **updates)


def _cmd_basis(config, args) -> int:
    tensors = build_tensors(build_basis(config))
    out_dir = config.out_dir
    for name, matrix in (("H", tensors.basis.H), ("eig_map", tensors.eig_map),
                         ("eig_inv", tensors.eig_inv)):
        output.write_matrix_csv(matrix, os.path.join(out_dir, f"{name}.csv"))
    print(f"wrote H.csv, eig_map.csv and eig_inv.csv to {out_dir}")
    return 0


def _cmd_project(config, args) -> int:
    tensors = build_tensors(build_basis(config))
    try:
        code = compile(args.expr, "<expr>", "eval")
    except SyntaxError as exc:
        raise ConfigError(f"--expr {args.expr!r} is not an expression: {exc.msg}") from None
    for name in code.co_names:
        if name != "xi" and name not in _EXPR_NAMES:
            raise ConfigError(f"unknown name {name!r} in --expr")

    def f(xi):
        try:
            vals = np.broadcast_to(
                np.asarray(eval(code, {"__builtins__": {}}, {**_EXPR_NAMES, "xi": xi}),
                           dtype=float), xi.shape)
        except (ArithmeticError, TypeError, ValueError) as exc:
            raise ConfigError(f"cannot evaluate --expr {args.expr!r}: {exc}") from None
        if not np.all(np.isfinite(vals)):
            raise ConfigError(f"--expr {args.expr!r} is not finite on [0, 1]")
        return vals

    try:
        breakpoints = tuple(float(b) for b in args.breakpoints.split(",")) \
            if args.breakpoints else ()
        if not np.all(np.isfinite(breakpoints)):
            raise ValueError
    except ValueError:
        raise ConfigError(f"--breakpoints expects comma-separated finite numbers, "
                          f"got {args.breakpoints!r}") from None
    modes = project(tensors, [(f, breakpoints)])[0]
    path = os.path.join(config.out_dir, "modes.csv")
    output.write_table_csv(path, ["index", "value"],
                           ([k, float(v)] for k, v in enumerate(modes)))
    print(f"wrote {path}")
    return 0


def _parse_sweep(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("..")
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise ConfigError(f"--level-sweep expects J0..J1, got {text!r}") from None
    if not 0 <= lo <= hi:
        raise ConfigError(f"--level-sweep needs 0 <= J0 <= J1, got {text!r}")
    return lo, hi


def _cmd_run(config, args) -> int:
    if args.level_sweep:
        lo, hi = _parse_sweep(args.level_sweep)
        results = run_level_sweep(config, lo, hi)
        for res in results:
            print(f"level dir {res.out_dir}: steps={res.steps} mse={res.mse_value}")
    else:
        res = run_experiment(config)
        print(f"wrote {len(res.artifacts) + 1} artifacts to {res.out_dir} "
              f"(steps={res.steps})")
    return 0


def _cmd_reference(config, args) -> int:
    preset = get_preset(config.preset)
    if config.reference == "none":
        raise ConfigError(f"preset {preset.name} has no reference configured")
    tensors = build_tensors(build_basis(config))
    grid = build_grid(config)
    ref = build_reference(config, tensors, grid, config.t_final)
    out_dir = config.out_dir
    os.makedirs(out_dir, exist_ok=True)
    if isinstance(ref, (ExactScalarReference, CollocationReference)):
        if isinstance(ref, ExactScalarReference):
            xs, nodes = grid.x_centers, tensors.basis.cell_midpoints()
            values = ref.value(config.t_final, xs[:, None], nodes[None, :])
        else:
            xs, nodes = ref.grid.x_centers, ref.xi_nodes
            values = ref.values[:, preset.qoi_component, :]
        rows = ([float(x), float(xi), float(values[i, j])]
                for i, x in enumerate(xs) for j, xi in enumerate(nodes))
        path = os.path.join(out_dir, f"reference_{ref.kind}.csv")
        output.write_table_csv(path, ["x", "xi", "value"], rows)
    else:
        path = os.path.join(out_dir, "mc_envelope.csv")
        output.write_envelope_csv(ref, path)
    print(f"wrote {path}")
    return 0


def _cmd_mse(config, args) -> int:
    preset = get_preset(config.preset)
    if config.reference not in ("exact", "collocation"):
        raise ConfigError(f"reference kind {config.reference!r} does not support mse")
    tensors = build_tensors(build_basis(config))
    grid = build_grid(config)
    try:
        t, xs, ys, data = output.read_field_csv(args.field)
    except (ValueError, IndexError) as exc:  # no mode rows, a short row, a bad number
        raise ConfigError(f"--field is not a mode field CSV: {exc}") from None
    if ys is not None:
        raise ConfigError("mse comparison is defined for 1D fields")
    if not (np.isfinite(t) and t > 0.0):
        raise ConfigError(f"--field has time {t}; mse is defined at a finite time > 0")
    centers = grid.x_centers
    if xs.shape != centers.shape or not np.allclose(xs, centers, rtol=0.0, atol=1e-12):
        raise ConfigError(f"--field has {xs.size} x centres in [{xs[0]:.6g}, {xs[-1]:.6g}]; "
                          f"the config grid has {centers.size} in "
                          f"[{centers[0]:.6g}, {centers[-1]:.6g}]")
    if data.shape[1:] != (preset.components, tensors.size):
        raise ConfigError(f"--field has {data.shape[1]} components of {data.shape[2]} modes; "
                          f"the config asks for {preset.components} of {tensors.size}")
    field = GpcField(grid=grid, data=data, time=t)
    reference = build_reference(config, tensors, grid, t)
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

    def solving(p):
        common(p)
        p.add_argument("--seed", type=int, help="seed override")

    p_basis = sub.add_parser("basis", help="dump H and the eigenframe maps eig_map, "
                             "eig_inv as CSV")
    common(p_basis)
    p_basis.set_defaults(func=_cmd_basis)

    p_proj = sub.add_parser("project", help="project an expression in xi, dump modes")
    common(p_proj)
    p_proj.add_argument("--expr", required=True, help="expression in xi, e.g. 'sign(xi-0.5)'")
    p_proj.add_argument("--breakpoints", help="comma-separated discontinuity locations")
    p_proj.set_defaults(func=_cmd_project)

    p_run = sub.add_parser("run", help="run a full experiment")
    solving(p_run)
    p_run.add_argument("--level-sweep", help="run levels J0..J1 and tabulate errors")
    p_run.set_defaults(func=_cmd_run)

    p_ref = sub.add_parser("reference", help="build and dump a reference solution")
    solving(p_ref)
    p_ref.set_defaults(func=_cmd_reference)

    p_mse = sub.add_parser("mse", help="compare a field CSV at t > 0 against a reference")
    common(p_mse)
    p_mse.add_argument("--field", required=True, help="path to a mode-field CSV at t > 0")
    p_mse.set_defaults(func=_cmd_mse)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(_load_config(args), args)
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
