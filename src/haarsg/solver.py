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
parallelism.  The reconstructions, the LLF flux, the 2D flux divergence and
the time step run in strips of rows along x, about ``cweno.STRIP_BYTES``
each, so that their temporaries stay in cache; the operations are
elementwise, so the strips change no result bit.  The 2D right-hand side is
one pass over such strips: each reconstructs its faces, transforms them,
runs the x and y LLF fluxes and writes its part of the flux divergence
before the next strip starts.

The mode/value transforms are one matrix product per block of rows that
merge without a copy: one block for a 1D interface array or a whole field,
one per Gauss node and x row for a 2D face slice.  For a state of several
components the result is bitwise that of one product per (components, K+1)
cell block, because a row of a product of two or more rows does not depend
on the rows around it; a one-component state changes from vector-matrix to
matrix products and moves by rounding only (below 1e-14 relative).

Within a strip the LLF works on copies of its interface values laid out
(components, rows..., K+1) in memory, so that the model's maps run over
contiguous component slices instead of one short inner loop per K+1
values; one copy per strip writes the flux back.  Galerkin fields and
deterministic batches take the same path: they differ only in the
transform, which a batch skips, and in the viscosity, one maximum over the
stochastic axis per face or one per sample.

Work arrays: each ``advance`` call owns one ``Workspace``, created when it
starts and dropped when it returns, never kept by a module or by the
``SemiDiscreteSystem``, so concurrent calls on other threads share nothing.
It passes the workspace to ``compute_dt`` (one strip's values and speed
bounds), ``ssprk3_step`` (the stage states, alternating between two arrays
from step to step) and ``rhs``.  Of the right-hand side's arrays only the
padded state and the flux divergence are full size.  In 2D the face
values, the interface values, the LLF's strip copies, fluxes and speed
bounds and the mean face fluxes all hold one strip; two one-row arrays
carry over from a strip to the next, the east faces of its last
reconstructed row and the mean flux of its last x face, so no row is
reconstructed or transformed twice.  A deterministic batch has no
transform and maps no array for transformed values.  Every operation
writes into those arrays with ``out=`` in the order of the allocating
form, so results are bitwise the same; what still allocates is a
strip-sized temporary or two inside a model's maps.
A function called without a workspace makes a fresh one and so allocates
as before.  The state a callback sees as ``current.data`` is a work array:
it is valid only until the next step.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import cweno
from .errors import AdmissibilityError, SolverAbort
from .galerkin import GalerkinTensor
from .workspace import Workspace

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


def fill_ghosts(data: np.ndarray, grid: Grid, work: Workspace | None = None) -> np.ndarray:
    """Pad with 2 ghost cells per side and apply the boundary conditions.

    The padded state is an array of ``work``.  The boundary conditions
    write every ghost cell, corners included, so nothing is left over from
    an earlier call.
    """
    if work is None:
        work = Workspace()
    dim = grid.space_dim
    shape = tuple(n + 2 * GHOST for n in data.shape[:dim]) + data.shape[dim:]
    out = work.array("ghosts", shape)
    out[(slice(GHOST, -GHOST),) * dim] = data
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


def _component_first(work: Workspace, name: str, shape: tuple,
                     values: np.ndarray | None = None) -> np.ndarray:
    """Work array ``name`` seen with ``shape`` (..., components, m) but laid
    out (components, ..., m) in memory, holding a copy of ``values`` if
    given."""
    n = len(shape)
    out = work.array(name, shape[-2:-1] + shape[:-2] + shape[-1:]).transpose(
        tuple(range(1, n - 1)) + (0, n - 1))
    if values is not None:
        out[...] = values
    return out


def _row_blocks(a: np.ndarray) -> np.ndarray:
    """``a`` (..., m) seen as (lead..., rows, m) without a copy, with the
    fewest leading axes that allow it: one block for a contiguous array,
    one per Gauss node and x row of a 2D face slice."""
    for lead in range(a.ndim):
        try:
            return a.reshape(a.shape[:lead] + (-1, a.shape[-1]), copy=False)
        except ValueError:
            pass  # lead max(a.ndim - 2, 0) always reshapes


def _transform(a: np.ndarray, matrix: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """``a @ matrix`` over the last axis as one matrix product per block of
    ``_row_blocks``, written into ``out`` if given.  ``out`` must take the
    blocks' shape without a copy; if it cannot, reshape raises instead of
    the product landing in a copy."""
    rows = _row_blocks(a)
    if out is None:
        return np.matmul(rows, matrix).reshape(a.shape)
    np.matmul(rows, matrix, out=out.reshape(rows.shape, copy=False))
    return out


#: largest K+1 whose maximum over the stochastic axis runs as one
#: ``np.maximum`` per column.  numpy's reduction runs one inner loop per K+1
#: values: on a 2-core x86-64 machine (numpy 2.4.6) the speeds of a 100x100
#: Euler LLF strip took 36 us by reduction and 21 us by columns at K+1 = 8,
#: about 42 us either way at 16, and a 128-row strip at K+1 = 128 took
#: 20 us by reduction against 152 us by columns
MAX_COLUMNS = 16


def _stochastic_max(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Maximum of ``a`` over its last axis, written into ``out``; exact, so
    either way of computing it gives the same bits."""
    if a.shape[-1] > MAX_COLUMNS:
        return np.max(a, axis=-1, out=out)
    out[...] = a[..., 0]
    for k in range(1, a.shape[-1]):
        np.maximum(out, a[..., k], out=out)
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


class SemiDiscreteSystem:
    """Spatial operator: ghost fill, CWENO3, LLF fluxes, flux divergence."""

    def __init__(self, model, grid: Grid, tensors: GalerkinTensor | None = None,
                 source: Callable | None = None):
        if model.space_dim != grid.space_dim:
            raise ValueError(f"model {model.name} is {model.space_dim}D, "
                             f"grid is {grid.space_dim}D")
        self.model = model
        self.grid = grid
        self.tensors = tensors
        self.source = source
        # grid-scaled regularization keeps the weights optimal at smooth
        # critical points while power 3 still pins them one-sided at jumps
        h = grid.dx if grid.space_dim == 1 else min(grid.dx, grid.dy)
        self.eps = h * h
        self.power = 3
        #: lowest admissibility value that ``compute_dt`` has checked; inf
        #: while none was checked or the model has no constraint
        self.admissibility_min = np.inf
        if tensors is not None:
            self._map_t = np.ascontiguousarray(tensors.eig_map.T)
            self._inv_t = np.ascontiguousarray(tensors.eig_inv.T)

    @property
    def coupled(self) -> bool:
        return self.tensors is not None

    def _to_values(self, modes: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Realization values of ``modes``, written into ``out`` if given; an
        uncoupled system returns ``modes`` itself."""
        if self.coupled:
            return _transform(modes, self._map_t, out)
        return modes

    def _from_values(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Modes of realization ``values``, the inverse of ``_to_values``."""
        if self.coupled:
            return _transform(values, self._inv_t, out)
        return values

    def _llf(self, left_modes: np.ndarray, right_modes: np.ndarray, axis: int,
             work: Workspace | None = None) -> np.ndarray:
        """Local Lax-Friedrichs flux from reconstructed interface states.

        Interface arrays are shaped (..., x, [y,] components, m).  The
        admissibility checks see every state at once, so a violation is
        reported at the global minimum; flux, speed bound and the flux
        combination then run in strips along the x axis.  Each strip copies
        its left and right values into work arrays laid out (components,
        rows..., m), so that every component slice the model's maps touch
        is contiguous; a one-component state is contiguous already and is
        not copied.  The fluxes, speed bounds and the combination are work
        arrays in that layout too, and one copy per strip writes the result
        back into the spent left values.  The flux modes then go into the
        spent right values.  An uncoupled system has no transform, so its
        left values are ``left_modes`` itself and the flux overwrites them;
        ``rhs`` reads no interface value twice.
        """
        if work is None:
            work = Workspace()
        shape = left_modes.shape
        coupled = self.coupled
        vl = self._to_values(left_modes, out=work.array("llf.left", shape) if coupled else None)
        vr = self._to_values(right_modes, out=work.array("llf.right", shape) if coupled else None)
        from .models import check_admissible_values
        check_admissible_values(self.model, vl)
        check_admissible_values(self.model, vr)
        copy = self.model.components > 1
        for strip in self._x_strips(vl):
            out = vl[strip]
            sl, sr = out, vr[strip]
            if copy:
                sl = _component_first(work, "llf.strip.left", sl.shape, sl)
                sr = _component_first(work, "llf.strip.right", sr.shape, sr)
            fl = self.model.values_flux(
                sl, axis, out=_component_first(work, "llf.flux.left", sl.shape))
            fr = self.model.values_flux(
                sr, axis, out=_component_first(work, "llf.flux.right", sl.shape))
            speeds = sl.shape[:-2] + sl.shape[-1:]
            alpha = self.model.values_speed_bound(
                sl, axis, out=work.array("llf.speed.left", speeds))
            np.maximum(alpha, self.model.values_speed_bound(
                sr, axis, out=work.array("llf.speed.right", speeds)), out=alpha)
            if coupled:
                alpha = _stochastic_max(alpha, work.array("llf.alpha", speeds[:-1]))
                alpha = alpha[..., None, None]
            else:
                alpha = alpha[..., None, :]
            # 0.5 * (fl + fr) - (0.5 * alpha) * (vr - vl), into the left flux,
            # or straight into the left values once they are read
            alpha *= 0.5
            jump = np.subtract(sr, sl, out=_component_first(work, "llf.jump", sl.shape))
            jump *= alpha
            combined = fl if copy else out
            np.add(fl, fr, out=combined)
            combined *= 0.5
            combined -= jump
            if copy:
                out[...] = combined
        return self._from_values(vl, out=vr)

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

    def rhs(self, data: np.ndarray, t: float, work: Workspace | None = None) -> np.ndarray:
        """Semi-discrete right-hand side of ``data`` at time ``t``: an array
        of ``work``, overwritten by the next call with the same workspace."""
        if work is None:
            work = Workspace()
        if self.grid.space_dim == 1:
            out = self._rhs_1d(data, work)
        else:
            out = self._rhs_2d(data, work)
        if self.source is not None:
            out += source_quadrature(self.source, t, self.grid)
        return out

    def _rhs_1d(self, data: np.ndarray, work: Workspace) -> np.ndarray:
        padded = fill_ghosts(data, self.grid, work)
        left, right = cweno.cweno3_edges(padded, self.eps, self.power, work=work)
        flux = self._llf(right[:-1], left[1:], axis=0, work=work)
        # -(flux[1:] - flux[:-1]) / dx
        out = np.subtract(flux[1:], flux[:-1], out=work.array("rhs", data.shape))
        np.negative(out, out=out)
        out /= self.grid.dx
        return out

    def _rhs_2d(self, data: np.ndarray, work: Workspace) -> np.ndarray:
        padded = fill_ghosts(data, self.grid, work)
        rows = data.shape[0] + 2  # reconstructed rows: cells -1 .. nx
        try:
            return self._rhs_2d_strips(padded, cweno.strips(rows, padded[0].nbytes), work)
        except AdmissibilityError:
            # a strip checks only its own interface values; one strip of all
            # rows checks each set of them at once, in the order of the
            # whole-array pass, so the error names the global minimum
            return self._rhs_2d_strips(padded, [(0, rows)], work)

    def _rhs_2d_strips(self, padded: np.ndarray, strips: list[tuple[int, int]],
                       work: Workspace) -> np.ndarray:
        """-(fx[1:] - fx[:-1]) / dx - (fy[:, 1:] - fy[:, :-1]) / dy, each face
        flux the mean 0.5 * (f[0] + f[1]) of its two Gauss-node fluxes, as
        one pass over ``strips`` of reconstructed rows.

        Reconstructed row r holds the faces of cell r - 1.  Each strip
        reconstructs its rows, runs the LLF on its x faces, stores the y
        part of the divergence of its interior cells in ``out`` and
        finishes every cell whose two x faces are known.  Two rows carry
        over from one strip to the next: the east faces of its last row
        (the left states of the next strip's first x face) and the mean
        flux of its last x face.  So no face or interface array is larger
        than one strip, and no row is reconstructed or transformed twice.
        """
        nx, ny = padded.shape[0] - 4, padded.shape[1] - 4
        cell = padded.shape[2:]
        out = work.array("rhs", (nx, ny) + cell)
        most = max(j - i for i, j in strips)
        # row r of the strip starting at r0 sits at index r - r0 + 1; index
        # 0 holds the east faces of row r0 - 1, and means[0] the mean flux
        # of x face r0 - 2, carried from the strip before
        faces = work.array("rhs.faces", (4, 2, most + 1, ny + 2) + cell)
        means = work.array("rhs.mean", (most + 1, ny) + cell)
        for r0, r1 in strips:
            n = r1 - r0
            cweno.cweno3_face_values(padded[r0:r1 + 2], self.eps, self.power, work=work,
                                     out=faces[:, :, 1:n + 1])
            # x faces r0 - 1 + lo .. r1 - 2: east of indices lo..n-1, west of
            # lo+1..n; row 0 has no face on its left.  Their LLF runs before
            # the y faces', as it must in one strip of all rows.
            lo = 0 if r0 > 0 else 1
            m = n - lo
            if m > 0:
                f = self._llf(faces[1, :, lo:n, 1:-1], faces[0, :, lo + 1:n + 1, 1:-1],
                              axis=0, work=work)
                fx = np.add(f[0], f[1], out=means[1:m + 1])
                fx *= 0.5
            # y faces of the interior rows at indices a..b-1: dfy into out
            a, b = max(r0, 1) - r0 + 1, min(r1, nx + 1) - r0 + 1
            if a < b:
                f = self._llf(faces[3, :, a:b, :-1], faces[2, :, a:b, 1:], axis=1, work=work)
                fy = np.add(f[0], f[1], out=work.array("rhs.mean.y", f.shape[1:]))
                fy *= 0.5
                dfy = np.subtract(fy[:, 1:], fy[:, :-1], out=out[r0 + a - 2:r0 + b - 2])
                dfy /= self.grid.dy
            # cells max(r0 - 2, 0) .. r1 - 3 now have both x faces, out =
            # part - dfy; means[0] holds face r0 - 2 once there is one
            first = 0 if r0 > 1 else 1
            if first < m:
                part = np.subtract(means[first + 1:m + 1], means[first:m],
                                   out=work.array("rhs.dx", (m - first, ny) + cell))
                np.negative(part, out=part)
                part /= self.grid.dx
                rest = out[max(r0 - 2, 0):r1 - 2]
                np.subtract(part, rest, out=rest)
            faces[1, :, 0] = faces[1, :, n]
            means[0] = means[m]
        return out

    def compute_dt(self, data: np.ndarray, cfl: float, work: Workspace | None = None) -> float:
        """CFL time step from per-cell generalized speed bounds.

        The admissibility minimum of ``data``, checked on the way, lowers
        ``admissibility_min``.  Values and speed bounds are work arrays of
        one strip of x rows; a strip's matrix block has at least two rows,
        since a one-row product rounds differently from a taller one.
        """
        if work is None:
            work = Workspace()
        n = data.shape[0]
        one_row_per_cell = data[0].size == data.shape[-1]
        try:
            lowest, top = self._dt_strips(
                data, cweno.strips(n, data[0].nbytes, min_rows=2 if one_row_per_cell else 1),
                work)
        except AdmissibilityError:
            # one strip checks the whole field at once: the global minimum
            lowest, top = self._dt_strips(data, [(0, n)], work)
        self.admissibility_min = min(self.admissibility_min, lowest)
        if top == 0.0:
            return np.inf
        if self.grid.space_dim == 1:
            return cfl * self.grid.dx / top
        return cfl / top

    def _dt_strips(self, data: np.ndarray, strips: list[tuple[int, int]],
                   work: Workspace) -> tuple[float, float]:
        """Admissibility minimum of ``data`` and its largest speed bound (1D)
        or rate sx / dx + sy / dy (2D), both NaN when any strip's is."""
        from .models import check_admissible_values
        lowest = top = None
        for i, j in strips:
            block = data[i:j]
            vals = self._to_values(
                block, out=work.array("dt.values", block.shape) if self.coupled else None)
            low = check_admissible_values(self.model, vals)
            speeds = block.shape[:-2] + block.shape[-1:]
            rate = _stochastic_max(
                self.model.values_speed_bound(vals, 0, out=work.array("dt.speed", speeds)),
                work.array("dt.rate", speeds[:-1]))
            if self.grid.space_dim == 2:
                rate /= self.grid.dx
                sy = _stochastic_max(
                    self.model.values_speed_bound(vals, 1, out=work.array("dt.speed", speeds)),
                    work.array("dt.rate.y", speeds[:-1]))
                sy /= self.grid.dy
                rate += sy
            high = rate.max()
            # np.minimum and np.maximum keep a NaN, as one whole-array reduction does
            lowest = low if lowest is None else np.minimum(lowest, low)
            top = high if top is None else np.maximum(top, high)
        return float(lowest), float(top)


def ssprk3_step(rhs: Callable[[np.ndarray, float], np.ndarray],
                u: np.ndarray, t: float, dt: float,
                work: Workspace | None = None) -> np.ndarray:
    """One step of the three-stage third-order SSP Runge-Kutta scheme.

    ``u`` is left untouched.  The stage states and the result are two
    arrays of ``work`` that alternate from step to step, so the result may
    be passed back in as ``u`` of the next step; the array it replaces is
    overwritten by the step after that.
    """
    if dt <= 0.0:
        raise ValueError(f"time step must be positive, got {dt}")
    if work is None:
        work = Workspace()
    state = work.array("rk.state", u.shape)
    if np.may_share_memory(state, u):
        state = work.array("rk.next", u.shape)
    scratch = work.array("rk.scratch", u.shape)

    def stage(index, state, time):
        try:
            return rhs(state, time)
        except AdmissibilityError as exc:
            raise SolverAbort(f"RHS failed in SSPRK3 stage {index}: {exc}",
                              time=time, stage=index, cause=exc) from exc

    # u1 = u + dt * L(u)
    np.multiply(stage(1, u, t), dt, out=state)
    np.add(u, state, out=state)
    # u2 = 0.75 * u + 0.25 * (u1 + dt * L(u1))
    np.multiply(stage(2, state, t + dt), dt, out=scratch)
    np.add(state, scratch, out=scratch)
    scratch *= 0.25
    np.multiply(u, 0.75, out=state)
    state += scratch
    # u / 3 + (2/3) * (u2 + dt * L(u2))
    np.multiply(stage(3, state, t + 0.5 * dt), dt, out=scratch)
    np.add(state, scratch, out=scratch)
    scratch *= 2.0 / 3.0
    np.divide(u, 3.0, out=state)
    state += scratch
    return state


def advance(system: SemiDiscreteSystem, field: GpcField, t_final: float,
            cfl: float = 0.45, callbacks: Sequence[Callable] = (),
            max_steps: int = 10_000_000) -> GpcField:
    """Integrate to ``t_final``, invoking callbacks after each accepted step.

    The last step is clipped to land exactly on ``t_final``.  Admissibility
    loss aborts with time/stage diagnostics; non-finite states abort too.
    The call owns one ``Workspace`` for all its steps and drops it on
    return.  A callback's ``current.data`` is one of its arrays and is
    valid only until the next step; a callback that keeps it must copy it.
    """
    t = field.time
    if t_final < t:
        raise ValueError("t_final lies before the field time")
    if t_final == t:
        return field
    data = np.asarray(field.data, dtype=float)
    work = Workspace()
    rhs = functools.partial(system.rhs, work=work)
    span = max(abs(t_final), 1.0)
    steps = 0
    while t < t_final - 1e-14 * span:
        if steps >= max_steps:
            raise SolverAbort(f"exceeded {max_steps} steps", time=t)
        try:
            dt = min(system.compute_dt(data, cfl, work), t_final - t)
        except AdmissibilityError as exc:
            raise SolverAbort(f"inadmissible state at t={t:.6g}: {exc}",
                              time=t, cause=exc) from exc
        data = ssprk3_step(rhs, data, t, dt, work)
        t = t_final if t_final - (t + dt) <= 1e-14 * span else t + dt
        steps += 1
        if not np.all(np.isfinite(data)):
            raise SolverAbort(f"non-finite state after step {steps} at t={t:.6g}", time=t)
        current = GpcField(grid=field.grid, data=data, time=t)
        for cb in callbacks:
            cb(t, current)
    return GpcField(grid=field.grid, data=data, time=t)
