"""Test-only oracles for the solver's work-array and striped forms.

These are the allocating, whole-array forms that the solver replaced,
kept as its oracles: ``edges_reference`` of the striped ``cweno3_edges``,
``face_values_reference`` of the striped ``cweno3_face_values``,
``llf_reference`` of ``SemiDiscreteSystem._llf``, ``rhs_reference`` of
``SemiDiscreteSystem.rhs``, ``compute_dt_reference`` of
``SemiDiscreteSystem.compute_dt`` and ``ssprk3_reference`` of
``ssprk3_step``, and ``flux_reference`` and
``speed_bound_reference`` of the models' ``values_flux`` and
``values_speed_bound``.  The replacements do the same elementwise operations
in the same order, only in strips or into work arrays, so the two must agree
bit for bit.  Oracles that stand in for a function or method accept its
``work`` argument (and the LLF's admissibility accumulators and their
first row) and ignore them; ``edges_reference`` writes into ``out`` when
given one, as ``cweno3_edges`` does.  ``llf_reference`` works on
realization values, as ``_llf`` does; ``rhs_reference`` maps its interface
modes to values and its flux back to modes around it.

``new_flux`` and ``new_speed_bound`` call a model's two maps into fresh arrays.
``transform_reference`` is the stacked product that the mode/value
transforms replaced; the merged product agrees with it bit for bit for
states of several components and to rounding for one component.
``snapshots_reference`` writes a run's snapshots in the order
``run_experiment`` used before it streamed them.

A ``SemiDiscreteSystem`` has no source term.  ``SourcedSystem`` adds one,
the cell averages of a callback by ``source_quadrature``, so that tests
can check that a term added to ``rhs`` enters once per call; ``preset_grid``
is a preset's default grid with optional overrides.
"""

import os
from typing import Callable

import numpy as np
from model_reference import LinearAdvection

from haarsg.cweno import D_CENTRAL_1D, D_CENTRAL_2D, D_SECTOR_2D, D_SIDE_1D, GAUSS_OFFSET
from haarsg.models import (Euler2D, ExperimentPreset, LevelSet2D, PSystem1D,
                           ScalarLipschitz, check_admissible_values)
from haarsg.solver import GHOST, Grid, SemiDiscreteSystem, _apply_boundary


def _weight(d: float, beta: np.ndarray, eps: float) -> np.ndarray:
    """Unnormalized nonlinear weight d / (eps + beta)^3."""
    t = eps + beta
    return d / (t * t * t)


def edges_reference(u: np.ndarray, eps: float, work=None, out=None):
    """Edge values (at the left/right cell faces) from 3-cell stencils.

    ``u`` is indexed by cell along axis 0 and may carry trailing axes; the
    result drops one cell on each end: entry i corresponds to cell i+1 of
    the input.  Returns ``(left, right)`` evaluated at x_{i-1/2}, x_{i+1/2},
    or ``out`` holding them in ``out[0]`` and ``out[1]`` if given.
    """
    um, u0, up = u[:-2], u[1:-1], u[2:]
    dl = u0 - um
    dr = up - u0
    curv = um - 2.0 * u0 + up

    sum_lr = dl + dr
    beta_c = (13.0 / 12.0) * curv * curv + 0.25 * sum_lr * sum_lr

    al = _weight(D_SIDE_1D, dl * dl, eps)
    ar = _weight(D_SIDE_1D, dr * dr, eps)
    ac = _weight(D_CENTRAL_1D, beta_c, eps)
    inv = 1.0 / (al + ar + ac)
    wl, wr, wc = al * inv, ar * inv, ac * inv

    # candidates: one-sided linears and the central polynomial
    # P_opt = 2 P_parab - (P_L + P_R)/2, a parabola with coefficients
    # a = u0 - curv/12, b = (up - um)/2, c = curv (in normalized coordinates)
    b = 0.5 * (up - um)
    a_opt = u0 - curv / 12.0
    pl_left, pl_right = u0 - 0.5 * dl, u0 + 0.5 * dl
    pr_left, pr_right = u0 - 0.5 * dr, u0 + 0.5 * dr
    pc_right = a_opt + 0.5 * b + 0.25 * curv
    pc_left = a_opt - 0.5 * b + 0.25 * curv

    left = wl * pl_left + wr * pr_left + wc * pc_left
    right = wl * pl_right + wr * pr_right + wc * pc_right
    if out is None:
        return left, right
    out[0], out[1] = left, right
    return out


def fill_ghosts_reference(data: np.ndarray, grid) -> np.ndarray:
    """Pad with 2 ghost cells per side and apply the boundary conditions."""
    dim = grid.space_dim
    pad = [(GHOST, GHOST)] * dim + [(0, 0)] * (data.ndim - dim)
    out = np.pad(data, pad)
    for axis in range(dim):
        _apply_boundary(out, axis, grid.boundary)
    return out


def rhs_reference(self, data: np.ndarray, t: float, work=None,
                  source: Callable | None = None) -> np.ndarray:
    """Semi-discrete right-hand side, called as a method of a
    ``SemiDiscreteSystem`` (``self``), from the allocating oracles, plus
    the cell averages of ``source`` if given."""
    padded = fill_ghosts_reference(data, self.grid)
    if self.grid.space_dim == 1:
        left, right = edges_reference(padded, self.eps)
        flux = _modal_llf(self, right[:-1], left[1:], axis=0)
        out = -(flux[1:] - flux[:-1]) / self.grid.dx
    else:
        west, east, south, north = face_values_reference(padded, self.eps)
        # x-faces: gauss-node fluxes averaged with equal weights
        fx = _modal_llf(self, east[:, :-1, 1:-1], west[:, 1:, 1:-1], axis=0)
        fx = 0.5 * (fx[0] + fx[1])
        fy = _modal_llf(self, north[:, 1:-1, :-1], south[:, 1:-1, 1:], axis=1)
        fy = 0.5 * (fy[0] + fy[1])
        out = (-(fx[1:] - fx[:-1]) / self.grid.dx
               - (fy[:, 1:] - fy[:, :-1]) / self.grid.dy)
    if source is not None:
        out = out + source_quadrature(source, t, self.grid)
    return out


def source_quadrature(source: Callable, t: float, grid: Grid) -> np.ndarray:
    """Cell averages of a source callback by 2-point (tensor) Gauss rules.

    1D sources are called as ``source(t, x)`` with an ``(n,)`` node array
    and must return ``(n, components, K+1)``; 2D sources are called as
    ``source(t, X, Y)`` on meshgrid-style arrays.
    """
    g = 0.5 / np.sqrt(3.0)
    if grid.space_dim == 1:
        xs = grid.x_centers
        off = g * grid.dx
        return 0.5 * (np.asarray(source(t, xs - off)) + np.asarray(source(t, xs + off)))
    xs, ys = grid.x_centers, grid.y_centers
    ox, oy = g * grid.dx, g * grid.dy
    acc = None
    for sx in (-ox, ox):
        for sy in (-oy, oy):
            X, Y = np.meshgrid(xs + sx, ys + sy, indexing="ij")
            term = np.asarray(source(t, X, Y))
            acc = term if acc is None else acc + term
    return 0.25 * acc


class SourcedSystem(SemiDiscreteSystem):
    """A ``SemiDiscreteSystem`` whose right-hand side adds the cell
    averages of ``source(t, x)`` (1D) or ``source(t, X, Y)`` (2D)."""

    def __init__(self, model, grid: Grid, source: Callable):
        super().__init__(model, grid)
        self.source = source

    def rhs(self, data: np.ndarray, t: float, work) -> np.ndarray:
        out = super().rhs(data, t, work)
        out += source_quadrature(self.source, t, self.grid)
        return out


def ssprk3_reference(rhs, u: np.ndarray, t: float, dt: float) -> np.ndarray:
    """One step of the three-stage third-order SSP Runge-Kutta scheme."""
    u1 = u + dt * rhs(u, t)
    u2 = 0.75 * u + 0.25 * (u1 + dt * rhs(u1, t + dt))
    return u / 3.0 + (2.0 / 3.0) * (u2 + dt * rhs(u2, t + 0.5 * dt))


def compute_dt_reference(self, data: np.ndarray, cfl: float) -> tuple[float, float]:
    """CFL time step and admissibility minimum of ``data``, called as a
    method of a ``SemiDiscreteSystem`` (``self``), from the whole field at
    once."""
    vals = self._to_values(data)
    lowest = check_admissible_values(self.model, vals)
    sx = new_speed_bound(self.model, vals, 0).max(axis=-1)
    if self.grid.space_dim == 1:
        smax = float(sx.max())
        return (np.inf if smax == 0.0 else cfl * self.grid.dx / smax), lowest
    sy = new_speed_bound(self.model, vals, 1).max(axis=-1)
    rate = float((sx / self.grid.dx + sy / self.grid.dy).max())
    return (np.inf if rate == 0.0 else cfl / rate), lowest


def face_values_reference(u: np.ndarray, eps: float, work=None, out=None) -> np.ndarray:
    """Truly-2D reconstruction at the 2 Gauss points of each of the 4 faces.

    ``u`` is indexed (x-cell, y-cell, ...) and the result drops one cell per
    side in both directions; output shape is (4, 2, nx-2, ny-2, ...) with
    face order (west, east, south, north) and Gauss points ordered by
    increasing tangential coordinate.  Every stage is a vectorized numpy
    pass over the whole array, trailing axes included; the result is
    copied into ``out`` if given.
    """
    uc = u[1:-1, 1:-1]
    uw, ue = u[:-2, 1:-1], u[2:, 1:-1]
    us, un = u[1:-1, :-2], u[1:-1, 2:]

    # one-sided slopes feed both the sectorial planes and the central betas
    bxw = uc - uw
    bxe = ue - uc
    bys = uc - us
    byn = un - uc
    b = 0.5 * (bxw + bxe)
    c = 0.5 * (bys + byn)
    dxx = 0.5 * (bxe - bxw)
    dyy = 0.5 * (byn - bys)
    f = 0.25 * ((u[2:, 2:] - u[:-2, 2:]) - (u[2:, :-2] - u[:-2, :-2]))

    # optimal central candidate P_opt = 2 Q - mean(planes): quadratic terms
    # double, linear terms stay, constant a_opt = uc - (dxx + dyy)/6
    beta_c = (b * b + c * c
              + (52.0 / 3.0) * (dxx * dxx + dyy * dyy)
              + (26.0 / 3.0) * f * f)
    bxw2 = bxw * bxw
    bxe2 = bxe * bxe
    bys2 = bys * bys
    byn2 = byn * byn
    a_c = _weight(D_CENTRAL_2D, beta_c, eps)
    a_sw = _weight(D_SECTOR_2D, bxw2 + bys2, eps)
    a_se = _weight(D_SECTOR_2D, bxe2 + bys2, eps)
    a_nw = _weight(D_SECTOR_2D, bxw2 + byn2, eps)
    a_ne = _weight(D_SECTOR_2D, bxe2 + byn2, eps)
    inv = 1.0 / (a_c + a_sw + a_se + a_nw + a_ne)
    wc = a_c * inv
    wsw = a_sw * inv
    wse = a_se * inv
    wnw = a_nw * inv
    wne = a_ne * inv

    # blended polynomial coefficients (planes share the constant uc)
    A = uc - wc * ((dxx + dyy) / 6.0)
    B = wc * b + (wsw + wnw) * bxw + (wse + wne) * bxe
    C = wc * c + (wsw + wse) * bys + (wnw + wne) * byn
    DXX = (2.0 * wc) * dxx
    DYY = (2.0 * wc) * dyy
    F = (2.0 * wc) * f

    g = GAUSS_OFFSET
    given, out = out, np.empty((4, 2) + uc.shape, dtype=u.dtype)
    # west/east faces: xi = -+1/2, eta = -+g
    for fi, xi in ((0, -0.5), (1, 0.5)):
        base = A + B * xi + DXX * (xi * xi) + DYY * (g * g)
        slope = (C + F * xi) * g
        np.subtract(base, slope, out=out[fi, 0])
        np.add(base, slope, out=out[fi, 1])
    # south/north faces: eta = -+1/2, xi = -+g
    for fi, eta in ((2, -0.5), (3, 0.5)):
        base = A + C * eta + DYY * (eta * eta) + DXX * (g * g)
        slope = (B + F * eta) * g
        np.subtract(base, slope, out=out[fi, 0])
        np.add(base, slope, out=out[fi, 1])
    if given is not None:
        given[...] = out
        return given
    return out


def llf_reference(self, vl: np.ndarray, vr: np.ndarray, axis: int, work=None,
                  lowest=None, first=None) -> np.ndarray:
    """Local Lax-Friedrichs flux values from the realization values of the
    interface states.

    Called as a method of a ``SemiDiscreteSystem`` (``self``), over the
    whole interface arrays at once.
    """
    check_admissible_values(self.model, vl)
    check_admissible_values(self.model, vr)
    fl = new_flux(self.model, vl, axis)
    fr = new_flux(self.model, vr, axis)
    alpha = np.maximum(new_speed_bound(self.model, vl, axis),
                       new_speed_bound(self.model, vr, axis))
    if self.coupled:
        alpha = alpha.max(axis=-1)[..., None, None]
    else:
        alpha = alpha[..., None, :]
    return 0.5 * (fl + fr) - 0.5 * alpha * (vr - vl)


def _modal_llf(self, left_modes: np.ndarray, right_modes: np.ndarray,
               axis: int) -> np.ndarray:
    """``llf_reference`` between interface modes: the flux modes."""
    return self._from_values(llf_reference(
        self, self._to_values(left_modes), self._to_values(right_modes), axis))


def new_flux(model, vals: np.ndarray, axis: int) -> np.ndarray:
    """The model's ``values_flux`` at ``vals`` into a fresh array."""
    return model.values_flux(vals, axis, np.empty_like(vals))


def new_speed_bound(model, vals: np.ndarray, axis: int) -> np.ndarray:
    """The model's ``values_speed_bound`` at ``vals`` into a fresh array."""
    return model.values_speed_bound(vals, axis, np.empty(vals.shape[:-2] + vals.shape[-1:]))


def flux_reference(model, vals: np.ndarray, axis: int) -> np.ndarray:
    """The model's flux at realization values ``vals``, allocated."""
    if isinstance(model, ScalarLipschitz):
        u = vals[..., 0, :]
        return (u * u + np.abs(u))[..., None, :]
    if isinstance(model, LinearAdvection):
        return model.speed[axis] * vals
    if isinstance(model, LevelSet2D):
        out = np.zeros_like(vals)
        out[..., axis, :] = model.v_values * np.hypot(vals[..., 0, :], vals[..., 1, :])
        return out
    if isinstance(model, PSystem1D):
        # both branches blended by the sign of v - v*, the form that one
        # power per value replaced
        v = vals[..., 1, :]
        s = np.sign(v - model.vstar_values)
        left = v ** (-model.gamma1)
        right = v ** (-model.gamma2) + model.delta_values
        p = 0.5 * (1.0 - s) * left + 0.5 * (1.0 + s) * right
        return np.stack([p, -vals[..., 0, :]], axis=-2)
    if isinstance(model, Euler2D):
        rho = vals[..., 0, :]
        qa = vals[..., 1 + axis, :]
        qb = vals[..., 2 - axis, :]
        p = rho ** model.gamma
        out = np.empty_like(vals)
        out[..., 0, :] = qa
        out[..., 1 + axis, :] = qa * qa / rho + p
        out[..., 2 - axis, :] = qa * qb / rho
        return out
    raise TypeError(f"no flux oracle for {model.name}")


def speed_bound_reference(model, vals: np.ndarray, axis: int) -> np.ndarray:
    """The speed bound at ``vals`` of the four models whose form changed:
    both endpoints of the scalar kink's subdifferential, the
    normal-weighted |nu| + c form of Euler, the largest |speed| of the
    stacked families of linear advection, and both p-system branches
    selected by the sign of v - v*."""
    if isinstance(model, LinearAdvection):
        normal = [0.0] * model.space_dim
        normal[axis] = 1.0
        a = sum(n * s for n, s in zip(normal, model.speed))
        speeds = [np.full(vals.shape[:-2] + vals.shape[-1:], a)]
        return np.max(np.stack([np.abs(s) for s in speeds]), axis=0)
    if isinstance(model, ScalarLipschitz):
        u = vals[..., 0, :]
        return np.maximum(np.abs(2.0 * u - 1.0), np.abs(2.0 * u + 1.0))
    if isinstance(model, Euler2D):
        normal = (1.0, 0.0) if axis == 0 else (0.0, 1.0)
        rho = vals[..., 0, :]
        nu = (normal[0] * vals[..., 1, :] + normal[1] * vals[..., 2, :]) / rho
        c = np.sqrt(model.gamma) * rho ** ((model.gamma - 1.0) / 2.0)
        return np.abs(nu) + c
    if isinstance(model, PSystem1D):
        v = vals[..., 1, :]
        s = np.sign(v - model.vstar_values)
        c1 = np.sqrt(model.gamma1 * v ** (-model.gamma1 - 1.0))
        c2 = np.sqrt(model.gamma2 * v ** (-model.gamma2 - 1.0))
        return np.where(s < 0, c1, np.where(s > 0, c2, np.maximum(c1, c2)))
    raise TypeError(f"no speed-bound oracle for {model.name}")


def transform_reference(a: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """``a @ matrix`` over the last axis as numpy stacks it: one product per
    (components, K+1) block, a vector-matrix product for one component."""
    return np.matmul(a, matrix)


def _galerkin_run(config):
    """System, initial field and final time of a run of ``config``."""
    from haarsg.experiments import build_basis, build_grid
    from haarsg.galerkin import build_tensors
    from haarsg.models import get_preset, initial_data
    from haarsg.solver import SemiDiscreteSystem

    preset = get_preset(config.preset)
    tensors = build_tensors(build_basis(config))
    grid = build_grid(config)
    model = preset.galerkin_model(tensors)
    field = initial_data(model, preset, tensors, grid)
    return SemiDiscreteSystem(model, grid, tensors=tensors), field, config.t_final


def snapshots_reference(config, out_dir: str) -> list[str]:
    """Snapshot files of a run of ``config`` as ``run_experiment`` wrote them
    before it streamed them: a copy of every ``output.stride``-th state kept
    in a list during the solve, the list written after it."""
    from haarsg import output
    from haarsg.solver import GpcField, advance

    system, field, t_final = _galerkin_run(config)
    snapshots = []
    step_count = [0]

    def snapshotter(t, current):
        step_count[0] += 1
        if config.stride and step_count[0] % config.stride == 0:
            snapshots.append(GpcField(grid=field.grid, data=current.data.copy(), time=t))

    advance(system, field, t_final, cfl=config.cfl, callbacks=(snapshotter,))
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for i, snap in enumerate(snapshots):
        path = os.path.join(out_dir, f"snapshot_{i:04d}.csv")
        output.write_field_csv(snap, path, kinds=("mode",))
        paths.append(path)
    return paths


def admissibility_monitor_reference(config) -> float:
    """Admissibility minimum of a run of ``config`` as ``run_experiment``
    took it before ``compute_dt`` reported it: the whole field transformed
    once more for the initial state and after every step; inf for a model
    without a constraint."""
    from haarsg.solver import advance

    system, field, t_final = _galerkin_run(config)
    model = system.model
    lowest = [np.inf]

    def monitor(t, current):
        vals = model.admissibility_values(system._to_values(current.data))
        if vals is not None:
            lowest[0] = min(lowest[0], float(vals.min()))

    monitor(0.0, field)
    if t_final > 0.0:
        advance(system, field, t_final, cfl=config.cfl, callbacks=(monitor,))
    return lowest[0]


def preset_grid(preset: ExperimentPreset, nx: int | None = None, ny: int | None = None,
                boundary: str | None = None) -> Grid:
    """Default grid of a preset with optional overrides."""
    from haarsg.config import RunConfig
    from haarsg.experiments import build_grid
    return build_grid(RunConfig(preset=preset.name, nx=nx, ny=ny, boundary=boundary))
