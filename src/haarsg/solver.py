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
before the next strip starts.  Each LLF strip adds its interface values
to admissibility accumulators that its caller owns and checks after its
last strip, so a violation is reported where one check of all rows finds
it; a strip that violates runs no model map.

In 1D the work follows the data.  The right-hand side compares each pair
of neighbouring cells of the padded state through its int64 view, so
+0.0 and -0.0 differ; with periodic boundaries the ghost cells carry the
wrap-around pair.  A cell whose 5-cell neighbourhood holds no differing
pair lies in a uniform run, and so do both its faces: their fluxes are
equal bit for bit and its right-hand side is -(f - f) / dx, -0.0 for a
finite f.  So the reconstruction, the LLF and the transforms run only over
the cells within two of the outermost differing pairs, at least two cells,
and every other cell takes -(f - f) / dx from the span's outer face on its
side.  ``compute_dt`` transforms and checks only from the first cell of
the first differing pair to the last cell of the last one; every uniform
run keeps a cell there, so the minimum and the maximum do not change.
Admissibility is checked on the span or range alone.  The rows before it
repeat its first row bit for bit, whose stencil lies in the uniform run,
so a violation in that row is reported at row 0, where one check of the
whole line finds it first (the ``lead`` of ``models.LowestAdmissibility``);
the rows after it repeat its last row, which a check finds first anyway.
The span's work arrays are made for the whole line, so a span that widens
from step to step maps none anew.  2D runs on the whole grid: on the Euler
box, rounding-level differences reach nearly every cell.

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
padded state and the flux divergence are full size, and SSPRK3 combines
its later stages in the divergence itself, so a solve maps four full-size
arrays: those two and the two stage states.  In 2D the face
values, the interface values, the LLF's strip copies, fluxes and speed
bounds and the mean face fluxes all hold one strip; two one-row arrays
carry over from a strip to the next, the east faces of its last
reconstructed row and the mean flux of its last x face, so no row is
reconstructed or transformed twice.  A deterministic batch has no
transform and maps no array for transformed values.  What still allocates
is a strip-sized temporary or two inside a model's maps.  The state a
callback sees as ``current.data`` is a work array: it is valid only until
the next step.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import cweno
from .errors import AdmissibilityError, SolverAbort
from .galerkin import GalerkinTensor
from .models import LowestAdmissibility
from .workspace import Workspace

GHOST = 2
TRANSMISSIVE = "transmissive"
PERIODIC = "periodic"
BOUNDARY_KINDS = (TRANSMISSIVE, PERIODIC)
#: steps after which ``advance`` gives up
MAX_STEPS = 10_000_000


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered grid, 1D or 2D, with ghost width 2 and one
    boundary kind on every axis."""

    nx: int
    x_bounds: tuple[float, float]
    ny: int | None = None
    y_bounds: tuple[float, float] | None = None
    boundary: str = TRANSMISSIVE

    def __post_init__(self):
        if self.nx < 1 or self.x_bounds[1] <= self.x_bounds[0]:
            raise ValueError("grid needs nx >= 1 and increasing x bounds")
        if (self.ny is None) != (self.y_bounds is None):
            raise ValueError("ny and y_bounds must be given together")
        if self.ny is not None and (self.ny < 1 or self.y_bounds[1] <= self.y_bounds[0]):
            raise ValueError("grid needs ny >= 1 and increasing y bounds")
        if self.boundary not in BOUNDARY_KINDS:
            raise ValueError(f"unknown boundary kind {self.boundary!r}")

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


def fill_ghosts(data: np.ndarray, grid: Grid, work: Workspace) -> np.ndarray:
    """Pad with 2 ghost cells per side and apply the boundary conditions.

    The padded state is an array of ``work``.  The boundary conditions
    write every ghost cell, corners included, so nothing is left over from
    an earlier call.
    """
    dim = grid.space_dim
    shape = tuple(n + 2 * GHOST for n in data.shape[:dim]) + data.shape[dim:]
    out = work.array("ghosts", shape)
    out[(slice(GHOST, -GHOST),) * dim] = data
    for axis in range(dim):
        _apply_boundary(out, axis, grid.boundary)
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
                     values: np.ndarray | None = None, reserve: int = 0) -> np.ndarray:
    """Work array ``name`` seen with ``shape`` (..., components, m) but laid
    out (components, ..., m) in memory, holding a copy of ``values`` if
    given."""
    n = len(shape)
    out = work.array(name, shape[-2:-1] + shape[:-2] + shape[-1:], reserve).transpose(
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


class SemiDiscreteSystem:
    """Spatial operator: ghost fill, CWENO3, LLF fluxes, flux divergence.

    The system has no source term: the right-hand side is the flux
    divergence alone, as every preset's conservation law asks.
    """

    def __init__(self, model, grid: Grid, tensors: GalerkinTensor | None = None):
        if model.space_dim != grid.space_dim:
            raise ValueError(f"model {model.name} is {model.space_dim}D, "
                             f"grid is {grid.space_dim}D")
        self.model = model
        self.grid = grid
        self.tensors = tensors
        # grid-scaled regularization keeps the weights optimal at smooth
        # critical points while power 3 still pins them one-sided at jumps
        h = grid.dx if grid.space_dim == 1 else min(grid.dx, grid.dy)
        self.eps = h * h
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
             work: Workspace, lowest: Sequence, first: int,
             rows: int | None = None) -> np.ndarray:
        """Local Lax-Friedrichs flux from reconstructed interface states.

        Interface arrays are shaped (..., x, [y,] components, m).  Flux,
        speed bound and the flux combination run in strips along the x
        axis.  Each strip copies its left and right values into work arrays
        laid out (components, rows..., m), so that every component slice
        the model's maps touch is contiguous; a one-component state is
        contiguous already and is not copied.  The copies go to the
        caller's two ``models.LowestAdmissibility`` accumulators ``lowest``
        (left, right), whose blocks start at x index ``first`` of the
        caller's arrays; the caller checks them after its last strip.  A
        strip whose lowest value is not positive, or NaN, which may hide a
        non-positive one, runs no map and gets a NaN flux.  The fluxes,
        speed bounds and the combination are work arrays in that layout
        too, and one copy per strip writes the result back into the spent
        left values.  The flux modes then go into the spent right values.
        An uncoupled system has no transform, so its left values are
        ``left_modes`` itself and the flux overwrites them; ``rhs`` reads no
        interface value twice.

        ``rows``, when the interface arrays (faces, components, m) are a
        span of a 1D line, is the line's face count: every work array is
        made for the line, so that a widening span maps none anew.
        """
        shape = left_modes.shape
        coupled = self.coupled
        line = 0 if rows is None else rows * math.prod(shape[1:])
        vl = self._to_values(
            left_modes, out=work.array("llf.left", shape, line) if coupled else None)
        vr = self._to_values(
            right_modes, out=work.array("llf.right", shape, line) if coupled else None)
        copy = self.model.components > 1
        strip_rows = 0 if rows is None else min(rows, cweno.strip_rows(vl[0].nbytes))

        def reserve(strip_shape):  # elements of the line's largest strip
            return strip_rows * math.prod(strip_shape[1:])

        for start, strip in self._x_strips(vl):
            out = vl[strip]
            sl, sr = out, vr[strip]
            size = reserve(sl.shape)
            if copy:
                sl = _component_first(work, "llf.strip.left", sl.shape, sl, size)
                sr = _component_first(work, "llf.strip.right", sr.shape, sr, size)
            low_left = lowest[0].add(sl, first + start)
            low_right = lowest[1].add(sr, first + start)
            if not (low_left > 0.0 and low_right > 0.0):
                out[...] = np.nan
                continue
            fl = self.model.values_flux(
                sl, axis, out=_component_first(work, "llf.flux.left", sl.shape, None, size))
            fr = self.model.values_flux(
                sr, axis, out=_component_first(work, "llf.flux.right", sl.shape, None, size))
            speeds = sl.shape[:-2] + sl.shape[-1:]
            alpha = self.model.values_speed_bound(
                sl, axis, out=work.array("llf.speed.left", speeds, reserve(speeds)))
            np.maximum(alpha, self.model.values_speed_bound(
                sr, axis, out=work.array("llf.speed.right", speeds, reserve(speeds))),
                out=alpha)
            if coupled:
                alpha = _stochastic_max(
                    alpha, work.array("llf.alpha", speeds[:-1], reserve(speeds[:-1])))
                alpha = alpha[..., None, None]
            else:
                alpha = alpha[..., None, :]
            # 0.5 * (fl + fr) - (0.5 * alpha) * (vr - vl), into the left flux,
            # or straight into the left values once they are read
            alpha *= 0.5
            jump = np.subtract(
                sr, sl, out=_component_first(work, "llf.jump", sl.shape, None, size))
            jump *= alpha
            combined = fl if copy else out
            np.add(fl, fr, out=combined)
            combined *= 0.5
            combined -= jump
            if copy:
                out[...] = combined
        return self._from_values(vl, out=vr)

    def _x_strips(self, values: np.ndarray) -> list[tuple[int, tuple]]:
        """(first x row, index tuple) of strips of whole rows along the x
        axis of an interface array."""
        x_axis = values.ndim - 2 - self.grid.space_dim
        n = values.shape[x_axis]
        lead = (slice(None),) * x_axis
        return [(i, lead + (slice(i, j),))
                for i, j in cweno.strips(n, values.nbytes // max(n, 1))]

    def rhs(self, data: np.ndarray, t: float, work: Workspace) -> np.ndarray:
        """Semi-discrete right-hand side of ``data``: an array of ``work``,
        overwritten by the next call with the same workspace.  ``t`` is the
        time of ``data``; with no source term it enters no value."""
        if self.grid.space_dim == 1:
            return self._rhs_1d(data, work)
        return self._rhs_2d(data, work)

    def _rhs_1d(self, data: np.ndarray, work: Workspace) -> np.ndarray:
        """-(flux[1:] - flux[:-1]) / dx, with the reconstruction, the LLF and
        the transforms only over the span of cells whose 5-cell
        neighbourhood holds a differing pair (``_span_1d``).

        Every other cell lies in a uniform run of the padded state, and so
        do both its faces, whose flux is bit for bit that of the span's
        outer face on its side: the full pass gives it -(f - f) / dx, -0.0
        for a finite f, and so does this one, from that face.  The four
        stencil cells of face ``lo`` lie in the uniform run, so its
        interface values and their transform are those of faces 0..lo-1
        too: the admissibility accumulators take ``lead=lo`` and report a
        violation there at face 0, as one check of the whole line does.
        """
        nx = data.shape[0]
        padded = fill_ghosts(data, self.grid, work)
        lo, hi = _span_1d(padded)
        left, right = cweno.cweno3_edges(padded[lo:hi + 4], self.eps, work, rows=nx + 2)
        lowest = [LowestAdmissibility(self.model, axis=0, lead=lo) for _ in range(2)]
        flux = self._llf(right[:-1], left[1:], 0, work, lowest, lo, rows=nx + 1)
        for side in lowest:
            side.check()
        out = work.array("rhs", data.shape)
        np.subtract(flux[1:], flux[:-1], out=out[lo:hi])
        np.subtract(flux[0], flux[0], out=out[:lo])
        np.subtract(flux[-1], flux[-1], out=out[hi:])
        np.negative(out, out=out)
        out /= self.grid.dx
        return out

    def _face_strips(self, padded: np.ndarray, strips: list[tuple[int, int]],
                     work: Workspace):
        """Reconstruct the faces of ``strips`` of rows in turn, into one
        strip-sized array, and yield per strip (r0, r1, x, y): the (left,
        right) interface values of its x faces, or None, and those of the
        y faces of its interior cells, or None.

        Reconstructed row r of the strip starting at r0 sits at index
        r - r0 + 1 of ``faces``; index 0 holds the east faces of row r0 - 1,
        carried from the strip before once the caller is done with a strip.
        Row 0 has no face on its left, so the x faces are r0 - 1 + lo ..
        r1 - 2, with lo = 1 for the first strip and 0 after it; in one strip
        of all rows, index 0 of either interface array is face (x) or cell
        (y) max(r0 - 1, 0).
        """
        nx, ny = padded.shape[0] - 4, padded.shape[1] - 4
        most = max(j - i for i, j in strips)
        faces = work.array("rhs.faces", (4, 2, most + 1, ny + 2) + padded.shape[2:])
        for r0, r1 in strips:
            n = r1 - r0
            cweno.cweno3_face_values(padded[r0:r1 + 2], self.eps, work, faces[:, :, 1:n + 1])
            lo = 0 if r0 > 0 else 1
            # interior rows 1..nx at indices a..b-1
            a, b = max(r0, 1) - r0 + 1, min(r1, nx + 1) - r0 + 1
            yield (r0, r1,
                   (faces[1, :, lo:n, 1:-1], faces[0, :, lo + 1:n + 1, 1:-1]) if lo < n else None,
                   (faces[3, :, a:b, :-1], faces[2, :, a:b, 1:]) if a < b else None)
            faces[1, :, 0] = faces[1, :, n]

    def _rhs_2d(self, data: np.ndarray, work: Workspace) -> np.ndarray:
        """-(fx[1:] - fx[:-1]) / dx - (fy[:, 1:] - fy[:, :-1]) / dy, each face
        flux the mean 0.5 * (f[0] + f[1]) of its two Gauss-node fluxes, as
        one pass over strips of reconstructed rows.

        Reconstructed row r holds the faces of cell r - 1.  Each strip
        reconstructs its rows (``_face_strips``), runs the LLF on its x
        faces, stores the y part of the divergence of its interior cells in
        ``out`` and finishes every cell whose two x faces are known.  Two
        rows carry over from one strip to the next: the east faces of its
        last row (the left states of the next strip's first x face) and the
        mean flux of its last x face.  So no face or interface array is
        larger than one strip, and no row is reconstructed or transformed
        twice.  The x-left, x-right, y-left and y-right interface values of
        every strip go to one accumulator each, checked in that order after
        the pass: one strip of all rows runs the x faces' LLF first.
        """
        padded = fill_ghosts(data, self.grid, work)
        nx, ny = data.shape[:2]
        cell = data.shape[2:]
        strips = cweno.strips(nx + 2, padded[0].nbytes)  # rows -1 .. nx
        out = work.array("rhs", data.shape)
        # means[0] holds the mean flux of x face r0 - 2, carried from the
        # strip before
        means = work.array("rhs.mean", (max(j - i for i, j in strips) + 1, ny) + cell)
        lowest = [LowestAdmissibility(self.model, axis=1) for _ in range(4)]
        for r0, r1, x_faces, y_faces in self._face_strips(padded, strips, work):
            base = max(r0 - 1, 0)  # the face (x) or cell (y) at index 0
            m = 0 if x_faces is None else x_faces[0].shape[1]
            if m > 0:
                f = self._llf(*x_faces, 0, work, lowest[:2], base)
                fx = np.add(f[0], f[1], out=means[1:m + 1])
                fx *= 0.5
            if y_faces is not None:  # dfy of the interior cells into out
                f = self._llf(*y_faces, 1, work, lowest[2:], base)
                fy = np.add(f[0], f[1], out=work.array("rhs.mean.y", f.shape[1:]))
                fy *= 0.5
                dfy = np.subtract(fy[:, 1:], fy[:, :-1],
                                  out=out[max(r0, 1) - 1:min(r1, nx + 1) - 1])
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
            means[0] = means[m]
        for side in lowest:
            side.check()
        return out

    def compute_dt(self, data: np.ndarray, cfl: float, work: Workspace) -> float:
        """CFL time step from per-cell generalized speed bounds.

        The admissibility minimum of ``data``, checked on the way, lowers
        ``admissibility_min``.  Values and speed bounds are work arrays of
        one strip of x rows; a strip's matrix block has at least two rows,
        since a one-row product rounds differently from a taller one.  In
        1D only the cells from the first cell of the first pair of
        neighbours that differ in any bit to the last cell of the last such
        pair (at least two) are transformed and checked: every uniform run
        outside keeps a cell there, so the maximum and the minimum are
        unchanged.  The cells before that range hold the values of its
        first cell, so the accumulator takes ``lead=lo``: a violation there
        is reported at cell 0, as one check of the whole field reports it.
        A strip that violates, or holds a NaN, computes no speed bound, and
        the rate is NaN.
        """
        n = data.shape[0]
        lo, hi = _range_1d(data) if self.grid.space_dim == 1 else (0, n)
        lowest = LowestAdmissibility(self.model, axis=0, lead=lo)
        top = None
        for i, j in cweno.strips(hi - lo, data[0].nbytes,
                                 min_rows=2 if data[0].size == data.shape[-1] else 1):
            block = data[lo + i:lo + j]
            vals = self._to_values(
                block, out=work.array("dt.values", block.shape) if self.coupled else None)
            if not lowest.add(vals, lo + i) > 0.0:
                top = np.nan
                continue
            speeds = block.shape[:-2] + block.shape[-1:]
            speed = work.array("dt.speed", speeds)
            rate = _stochastic_max(self.model.values_speed_bound(vals, 0, out=speed),
                                   work.array("dt.rate", speeds[:-1]))
            if self.grid.space_dim == 2:
                rate /= self.grid.dx
                sy = _stochastic_max(self.model.values_speed_bound(vals, 1, out=speed),
                                     work.array("dt.rate.y", speeds[:-1]))
                sy /= self.grid.dy
                rate += sy
            high = rate.max()
            # np.maximum keeps a NaN, as one whole-array reduction does
            top = high if top is None else np.maximum(top, high)
        lowest.check()
        self.admissibility_min = min(self.admissibility_min, float(lowest.value))
        top = float(top)
        if top == 0.0:
            return np.inf
        if self.grid.space_dim == 1:
            return cfl * self.grid.dx / top
        return cfl / top


def _differing_pairs(a: np.ndarray) -> np.ndarray:
    """Indices j at which rows j and j + 1 of ``a`` differ in any bit, so
    that +0.0 and -0.0 differ and identical NaNs do not."""
    bits = a.reshape(a.shape[0], -1).view(np.int64)
    return np.flatnonzero((bits[1:] != bits[:-1]).any(axis=1))


def _at_least_two(lo: int, hi: int, n: int) -> tuple[int, int]:
    """Rows ``lo:hi`` widened to two of ``n``, or all ``n`` if fewer, as
    Python ints, so that a location offset by them prints as written."""
    lo, hi = int(lo), int(hi)
    hi = min(max(hi, lo + 2), n)
    return max(min(lo, hi - 2), 0), hi


def _span_1d(padded: np.ndarray) -> tuple[int, int]:
    """The cells ``lo:hi`` of a padded 1D state whose rhs needs the
    reconstruction: those within two cells of the outermost differing pairs
    of the padded state, whose 5-cell neighbourhood holds a differing pair.
    With periodic boundaries the ghost cells carry the wrap-around pair."""
    nx = padded.shape[0] - 2 * GHOST
    pairs = _differing_pairs(padded)  # pair j: padded cells j, j + 1
    if len(pairs) == 0:
        return _at_least_two(0, 0, nx)
    return _at_least_two(max(pairs[0] - 3, 0), min(pairs[-1], nx - 1) + 1, nx)


def _range_1d(data: np.ndarray) -> tuple[int, int]:
    """Cells from the first cell of the first differing pair of ``data`` to
    the last cell of the last one, at least two."""
    pairs = _differing_pairs(data)
    if len(pairs) == 0:
        return _at_least_two(0, 0, data.shape[0])
    return _at_least_two(pairs[0], pairs[-1] + 2, data.shape[0])


def ssprk3_step(rhs: Callable[[np.ndarray, float], np.ndarray],
                u: np.ndarray, t: float, dt: float,
                work: Workspace) -> np.ndarray:
    """One step of the three-stage third-order SSP Runge-Kutta scheme.

    ``u`` is left untouched.  The stage states and the result are two
    arrays of ``work`` that alternate from step to step, so the result may
    be passed back in as ``u`` of the next step; the array it replaces is
    overwritten by the step after that.  Stages 2 and 3 combine in the
    right-hand side's own output, which the next stage overwrites anyway;
    only an output that shares memory with the stage's state is copied
    first.
    """
    if dt <= 0.0:
        raise ValueError(f"time step must be positive, got {dt}")
    state = work.array("rk.state", u.shape)
    if np.may_share_memory(state, u):
        state = work.array("rk.next", u.shape)

    def stage(index, state, time):
        try:
            r = rhs(state, time)
        except AdmissibilityError as exc:
            raise SolverAbort(f"RHS failed in SSPRK3 stage {index}: {exc}",
                              time=time, stage=index, cause=exc) from exc
        return r.copy() if np.may_share_memory(r, state) else r

    # u1 = u + dt * L(u)
    np.multiply(stage(1, u, t), dt, out=state)
    np.add(u, state, out=state)
    # u2 = 0.75 * u + 0.25 * (u1 + dt * L(u1))
    r = stage(2, state, t + dt)
    r *= dt
    np.add(state, r, out=r)
    r *= 0.25
    np.multiply(u, 0.75, out=state)
    state += r
    # u / 3 + (2/3) * (u2 + dt * L(u2))
    r = stage(3, state, t + 0.5 * dt)
    r *= dt
    np.add(state, r, out=r)
    r *= 2.0 / 3.0
    np.divide(u, 3.0, out=state)
    state += r
    return state


def advance(system: SemiDiscreteSystem, field: GpcField, t_final: float,
            cfl: float, callbacks: Sequence[Callable] = ()) -> GpcField:
    """Integrate to ``t_final``, invoking callbacks after each accepted step.

    The last step is clipped to land exactly on ``t_final``.  Admissibility
    loss aborts with time/stage diagnostics; non-finite states abort too,
    and a time step that is not positive (NaN from a NaN in the state)
    aborts before the step, at the time of the state.
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
        if steps >= MAX_STEPS:
            raise SolverAbort(f"exceeded {MAX_STEPS} steps", time=t)
        try:
            dt = min(system.compute_dt(data, cfl, work), t_final - t)
        except AdmissibilityError as exc:
            raise SolverAbort(f"inadmissible state at t={t:.6g}: {exc}",
                              time=t, cause=exc) from exc
        if not dt > 0.0:  # a NaN rate, from a NaN in the state
            raise SolverAbort(f"time step {dt} is not positive at t={t:.6g}", time=t)
        data = ssprk3_step(rhs, data, t, dt, work)
        t = t_final if t_final - (t + dt) <= 1e-14 * span else t + dt
        steps += 1
        if not np.all(np.isfinite(data)):
            raise SolverAbort(f"non-finite state after step {steps} at t={t:.6g}", time=t)
        current = GpcField(grid=field.grid, data=data, time=t)
        for cb in callbacks:
            cb(t, current)
    return GpcField(grid=field.grid, data=data, time=t)
