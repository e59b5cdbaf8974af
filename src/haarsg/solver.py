"""Third-order method-of-lines finite-volume integrator.

Uniform 1D/2D grids with two ghost cells per side, CWENO3 reconstruction,
local Lax-Friedrichs numerical fluxes with generalized-spectrum viscosity
bounds, and SSPRK3 time stepping.  The same machinery integrates either the
intrusive Galerkin system (a ``GalerkinTensor`` supplies the mode/value
transforms; one scalar viscosity per face) or batches of independent
deterministic problems (no tensors; the trailing axis enumerates samples and
the viscosity is applied per sample).

All operations are plain numpy array transformations with a fixed evaluation
order, so results are bitwise reproducible and independent of any outer
parallelism.  The 2D reconstruction and the LLF flux run in strips of rows
along x, about ``cweno.STRIP_BYTES`` each, so that their temporaries stay in
cache; the operations are elementwise, so the strips change no result bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import cweno
from .errors import AdmissibilityError, SolverAbort
from .galerkin import GalerkinTensor

GHOST = 2
TRANSMISSIVE = "transmissive"
PERIODIC = "periodic"
BOUNDARY_KINDS = (TRANSMISSIVE, PERIODIC)


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered grid, 1D or 2D, with ghost width 2."""

    nx: int
    x_bounds: tuple[float, float]
    ny: int | None = None
    y_bounds: tuple[float, float] | None = None
    boundary_x: str = TRANSMISSIVE
    boundary_y: str = TRANSMISSIVE

    def __post_init__(self):
        if self.nx < 1 or self.x_bounds[1] <= self.x_bounds[0]:
            raise ValueError("grid needs nx >= 1 and increasing x bounds")
        if (self.ny is None) != (self.y_bounds is None):
            raise ValueError("ny and y_bounds must be given together")
        if self.ny is not None and (self.ny < 1 or self.y_bounds[1] <= self.y_bounds[0]):
            raise ValueError("grid needs ny >= 1 and increasing y bounds")
        for kind in (self.boundary_x, self.boundary_y):
            if kind not in BOUNDARY_KINDS:
                raise ValueError(f"unknown boundary kind {kind!r}")

    @property
    def space_dim(self) -> int:
        return 1 if self.ny is None else 2

    @property
    def dx(self) -> float:
        return (self.x_bounds[1] - self.x_bounds[0]) / self.nx

    @property
    def dy(self) -> float:
        return (self.y_bounds[1] - self.y_bounds[0]) / self.ny

    @property
    def x_centers(self) -> np.ndarray:
        return self.x_bounds[0] + self.dx * (np.arange(self.nx) + 0.5)

    @property
    def y_centers(self) -> np.ndarray:
        return self.y_bounds[0] + self.dy * (np.arange(self.ny) + 0.5)


@dataclass
class GpcField:
    """Solver state: per grid cell one (components, K+1) block of modes."""

    grid: Grid
    data: np.ndarray
    time: float = 0.0


def fill_ghosts(data: np.ndarray, grid: Grid) -> np.ndarray:
    """Pad with 2 ghost cells per side and apply the boundary conditions."""
    dim = grid.space_dim
    pad = [(GHOST, GHOST)] * dim + [(0, 0)] * (data.ndim - dim)
    out = np.pad(data, pad)
    _apply_boundary(out, 0, grid.boundary_x)
    if grid.space_dim == 2:
        _apply_boundary(out, 1, grid.boundary_y)
    return out


def _apply_boundary(padded: np.ndarray, axis: int, kind: str) -> None:
    view = np.moveaxis(padded, axis, 0)
    n = view.shape[0] - 2 * GHOST
    if kind == PERIODIC:
        view[:GHOST] = view[n:n + GHOST]
        view[n + GHOST:] = view[GHOST:2 * GHOST]
    else:  # transmissive: copy the adjacent interior cell
        view[:GHOST] = view[GHOST]
        view[n + GHOST:] = view[n + GHOST - 1]


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


class SemiDiscreteSystem:
    """Spatial operator: ghost fill, CWENO3, LLF fluxes, flux divergence."""

    def __init__(self, model, grid: Grid, tensors: GalerkinTensor | None = None,
                 source: Callable | None = None,
                 eps: float | None = None, power: int | None = None):
        if model.space_dim != grid.space_dim:
            raise ValueError(f"model {model.name} is {model.space_dim}D, "
                             f"grid is {grid.space_dim}D")
        self.model = model
        self.grid = grid
        self.tensors = tensors
        self.source = source
        # grid-scaled regularization keeps the weights optimal at smooth
        # critical points while power 3 still pins them one-sided at jumps
        if eps is None:
            h = grid.dx if grid.space_dim == 1 else min(grid.dx, grid.dy)
            eps = h * h
        self.eps = eps
        self.power = 3 if power is None else power
        if tensors is not None:
            self._map_t = np.ascontiguousarray(tensors.eig_map.T)
            self._inv_t = np.ascontiguousarray(tensors.eig_inv.T)

    @property
    def coupled(self) -> bool:
        return self.tensors is not None

    def _to_values(self, modes: np.ndarray) -> np.ndarray:
        if self.coupled:
            return modes @ self._map_t
        return modes

    def _from_values(self, values: np.ndarray) -> np.ndarray:
        if self.coupled:
            return values @ self._inv_t
        return values

    def _llf(self, left_modes: np.ndarray, right_modes: np.ndarray, axis: int) -> np.ndarray:
        """Local Lax-Friedrichs flux from reconstructed interface states.

        Interface arrays are shaped (..., x, [y,] components, m).  The
        admissibility checks see every state at once, so a violation is
        reported at the global minimum; flux, speed bound and the flux
        combination then run in strips along the x axis.
        """
        vl = self._to_values(left_modes)
        vr = self._to_values(right_modes)
        from .models import check_admissible_values
        check_admissible_values(self.model, vl)
        check_admissible_values(self.model, vr)
        flux_vals = np.empty(vl.shape)
        for strip in self._x_strips(vl):
            sl, sr, out = vl[strip], vr[strip], flux_vals[strip]
            fl = self.model.values_flux(sl, axis)
            fr = self.model.values_flux(sr, axis)
            alpha = np.maximum(self.model.values_speed_bound(sl, axis),
                               self.model.values_speed_bound(sr, axis))
            if self.coupled:
                alpha = alpha.max(axis=-1)[..., None, None]
            else:
                alpha = alpha[..., None, :]
            # 0.5 * (fl + fr) - (0.5 * alpha) * (vr - vl), written into out
            np.add(fl, fr, out=out)
            out *= 0.5
            jump = np.subtract(sr, sl)
            jump *= 0.5 * alpha
            out -= jump
        return self._from_values(flux_vals)

    def _x_strips(self, values: np.ndarray) -> list[tuple]:
        """Index tuples of strips of whole rows along the x axis of an
        interface array; a single state without an x axis is one strip."""
        x_axis = values.ndim - 2 - self.grid.space_dim
        if x_axis < 0:
            return [()]
        n = values.shape[x_axis]
        lead = (slice(None),) * x_axis
        return [lead + (slice(i, j),)
                for i, j in cweno.strips(n, values.nbytes // max(n, 1))]

    def rhs(self, data: np.ndarray, t: float) -> np.ndarray:
        if self.grid.space_dim == 1:
            out = self._rhs_1d(data)
        else:
            out = self._rhs_2d(data)
        if self.source is not None:
            out = out + source_quadrature(self.source, t, self.grid)
        return out

    def _rhs_1d(self, data: np.ndarray) -> np.ndarray:
        padded = fill_ghosts(data, self.grid)
        left, right = cweno.cweno3_edges(padded, self.eps, self.power)
        flux = self._llf(right[:-1], left[1:], axis=0)
        return -(flux[1:] - flux[:-1]) / self.grid.dx

    def _rhs_2d(self, data: np.ndarray) -> np.ndarray:
        padded = fill_ghosts(data, self.grid)
        west, east, south, north = cweno.cweno3_face_values(padded, self.eps, self.power)
        # x-faces: gauss-node fluxes averaged with equal weights
        fx = self._llf(east[:, :-1, 1:-1], west[:, 1:, 1:-1], axis=0)
        fx = 0.5 * (fx[0] + fx[1])
        fy = self._llf(north[:, 1:-1, :-1], south[:, 1:-1, 1:], axis=1)
        fy = 0.5 * (fy[0] + fy[1])
        return (-(fx[1:] - fx[:-1]) / self.grid.dx
                - (fy[:, 1:] - fy[:, :-1]) / self.grid.dy)

    def compute_dt(self, data: np.ndarray, cfl: float) -> float:
        """CFL time step from per-cell generalized speed bounds."""
        from .models import check_admissible_values
        vals = self._to_values(data)
        check_admissible_values(self.model, vals)
        sx = self.model.values_speed_bound(vals, 0).max(axis=-1)
        if self.grid.space_dim == 1:
            smax = float(sx.max())
            if smax == 0.0:
                return np.inf
            return cfl * self.grid.dx / smax
        sy = self.model.values_speed_bound(vals, 1).max(axis=-1)
        rate = float((sx / self.grid.dx + sy / self.grid.dy).max())
        if rate == 0.0:
            return np.inf
        return cfl / rate


def ssprk3_step(rhs: Callable[[np.ndarray, float], np.ndarray],
                u: np.ndarray, t: float, dt: float) -> np.ndarray:
    """One step of the three-stage third-order SSP Runge-Kutta scheme."""
    if dt <= 0.0:
        raise ValueError(f"time step must be positive, got {dt}")

    def stage(index, state, time):
        try:
            return rhs(state, time)
        except AdmissibilityError as exc:
            raise SolverAbort(f"RHS failed in SSPRK3 stage {index}: {exc}",
                              time=time, stage=index, cause=exc) from exc

    u1 = u + dt * stage(1, u, t)
    u2 = 0.75 * u + 0.25 * (u1 + dt * stage(2, u1, t + dt))
    return u / 3.0 + (2.0 / 3.0) * (u2 + dt * stage(3, u2, t + 0.5 * dt))


def advance(system: SemiDiscreteSystem, field: GpcField, t_final: float,
            cfl: float = 0.45, callbacks: Sequence[Callable] = (),
            max_steps: int = 10_000_000) -> GpcField:
    """Integrate to ``t_final``, invoking callbacks after each accepted step.

    The last step is clipped to land exactly on ``t_final``.  Admissibility
    loss aborts with time/stage diagnostics; non-finite states abort too.
    """
    t = field.time
    if t_final < t:
        raise ValueError("t_final lies before the field time")
    if t_final == t:
        return field
    data = np.array(field.data, dtype=float)
    span = max(abs(t_final), 1.0)
    steps = 0
    while t < t_final - 1e-14 * span:
        if steps >= max_steps:
            raise SolverAbort(f"exceeded {max_steps} steps", time=t)
        try:
            dt = min(system.compute_dt(data, cfl), t_final - t)
        except AdmissibilityError as exc:
            raise SolverAbort(f"inadmissible state at t={t:.6g}: {exc}",
                              time=t, cause=exc) from exc
        data = ssprk3_step(system.rhs, data, t, dt)
        t = t_final if t_final - (t + dt) <= 1e-14 * span else t + dt
        steps += 1
        if not np.all(np.isfinite(data)):
            raise SolverAbort(f"non-finite state after step {steps} at t={t:.6g}", time=t)
        current = GpcField(grid=field.grid, data=data, time=t)
        for cb in callbacks:
            cb(t, current)
    return GpcField(grid=field.grid, data=data, time=t)
