"""Four hyperbolic model systems as pointwise maps on realization values.

Every Haar-type basis shares one eigenvector frame, so the stochastic
Galerkin (SG) formulation of a flux is the flux applied pointwise to the
spectrum of the expansion (the realization values), conjugated with that
frame.  A model therefore supplies only what the solver calls, three maps
on realization values:

- ``values_flux(vals, axis, out)``, the flux in direction ``axis``;
- ``values_speed_bound(vals, axis, out)``, a per-value upper bound on
  |characteristic speed| that also covers the generalized Jacobians at a
  kink of the flux;
- ``admissibility_values(vals)``, an array that must stay strictly
  positive, or None for a model without a constraint (the default);

plus its ``name``, ``components`` and ``space_dim``.  The Galerkin-level
flux, wave speeds and the dense flux Jacobian, with the hyperbolicity check
that the Jacobian's spectrum equals the deterministic speeds, are theory
checks that the solver never runs; they live in ``tests/model_reference.py``.

Value arrays have shape (..., components, m) where m is the number of
stochastic cells for an SG model, or the number of samples for a
deterministic batch.  The first two maps write their result into ``out``
and return it; ``out`` is shaped like ``vals`` for the flux and like
``vals`` without its component axis for the speed bound, and shares no
memory with ``vals``.  Every map is elementwise per component: entry
(..., c, j) of a result depends only on entries (..., :, j) of ``vals``,
through the same operations in the same order wherever it sits in memory.
So any memory layout of ``vals`` and ``out`` gives the same bits; the
solver's LLF passes views laid out (components, ..., m), in which every
component slice is contiguous.

Each experiment preset defines its initial data u0(x, xi) once, as one
``pieces(grid)`` function that the SG solve and the deterministic batches
both read (see :class:`ExperimentPreset`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import AdmissibilityError
from .galerkin import GalerkinTensor, from_spectrum, project, to_spectrum

#: below this norm of the gradient the level-set speed falls back to signs
DEGENERATE_NORM_TOL = 1e-12


# ---------------------------------------------------------------------------
# model definitions (pointwise, on realization values)

@dataclass(frozen=True)
class ModelSystem:
    """Base descriptor; concrete models implement the flux and speed bound."""

    name: str
    components: int
    space_dim: int

    def values_flux(self, vals: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def values_speed_bound(self, vals: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
        """Per-cell upper bound on |speed| covering generalized Jacobians."""
        raise NotImplementedError

    def admissibility_values(self, vals: np.ndarray) -> np.ndarray | None:
        """Array that must be strictly positive, or None if unconstrained."""
        return None


@dataclass(frozen=True)
class ScalarLipschitz(ModelSystem):
    """Scalar law with flux u^2 + |u| (Lipschitz, kinked at u = 0)."""

    name: str = "scalar-lipschitz"
    components: int = 1
    space_dim: int = 1

    def values_flux(self, vals, axis, out):
        u = vals[..., 0, :]
        f = np.multiply(u, u, out=out[..., 0, :])
        f += np.abs(u)
        return out

    def values_speed_bound(self, vals, axis, out):
        # subdifferential of |u| at 0 is [-1, 1]; the bound of both endpoints,
        # max(|2u - 1|, |2u + 1|), is 2|u| + 1 bit for bit: negation and
        # doubling are exact and rounding is monotone
        bound = np.abs(vals[..., 0, :], out=out)
        bound *= 2.0
        bound += 1.0
        return bound


@dataclass(frozen=True)
class LevelSet2D(ModelSystem):
    """2D level-set transport: flux_i = v ||grad phi||_2 in component i.

    ``v_values`` holds the realizations of the random speed.
    """

    v_values: np.ndarray = field(default_factory=lambda: np.array([1.0]))
    name: str = "level-set-2d"
    components: int = 2
    space_dim: int = 2

    def values_flux(self, vals, axis, out):
        out[..., 1 - axis, :] = 0.0
        moving = np.hypot(vals[..., 0, :], vals[..., 1, :], out=out[..., axis, :])
        moving *= self.v_values
        return out

    def values_speed_bound(self, vals, axis, out):
        u1, u2 = vals[..., 0, :], vals[..., 1, :]
        norm = np.hypot(u1, u2)
        degenerate = norm < DEGENERATE_NORM_TOL
        ui = vals[..., axis, :]
        # |v (n.u)/||u||| <= |v|; at the kink the subgradient ball gives |v|
        exact = np.abs(ui) / np.where(degenerate, 1.0, norm)
        return np.multiply(np.abs(self.v_values), np.where(degenerate, 1.0, exact), out=out)


@dataclass(frozen=True)
class PSystem1D(ModelSystem):
    """p-system with a Lipschitz pressure kinked at a random volume v*.

    State components are (u, v): velocity and specific volume; the flux is
    (p(v), -u) so the eigenvalues +-sqrt(-p'(v)) are real for p' < 0.
    p(v) = v^(-gamma1) left of v*, v^(-gamma2) + dv* right of it, with
    dv* = v*^(-gamma1) - v*^(-gamma2) enforcing continuity per realization.
    """

    gamma1: float = 5.0 / 3.0
    gamma2: float = 4.0 / 3.0
    vstar_values: np.ndarray = field(default_factory=lambda: np.array([1.25]))
    name: str = "p-system-1d"
    components: int = 2
    space_dim: int = 1

    @property
    def delta_values(self) -> np.ndarray:
        vs = self.vstar_values
        return vs ** (-self.gamma1) - vs ** (-self.gamma2)

    def pressure(self, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """p(v) with one power per value, written into ``out`` if given
        (sharing no memory with ``v``); at v = v* exactly the mean of the
        two one-sided values."""
        above = v > self.vstar_values
        p = np.power(v, np.where(above, -self.gamma2, -self.gamma1), out=out)
        np.add(p, self.delta_values, out=p, where=above)
        kink = v == self.vstar_values
        if kink.any():
            at_kink = v[kink]
            delta = np.broadcast_to(self.delta_values, v.shape)[kink]
            p[kink] = (0.5 * at_kink ** (-self.gamma1)
                       + 0.5 * (at_kink ** (-self.gamma2) + delta))
        return p

    def sound_speed(self, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """sqrt(-p'(v)) with one power per value, written into ``out`` if
        given; at the kink the larger one-sided value."""
        gamma = np.where(v > self.vstar_values, self.gamma2, self.gamma1)
        c = np.power(v, -gamma - 1.0, out=out)
        c *= gamma
        np.sqrt(c, out=c)
        kink = v == self.vstar_values
        if kink.any():
            at_kink, g1, g2 = v[kink], self.gamma1, self.gamma2
            c[kink] = np.maximum(np.sqrt(g1 * at_kink ** (-g1 - 1.0)),
                                 np.sqrt(g2 * at_kink ** (-g2 - 1.0)))
        return c

    def values_flux(self, vals, axis, out):
        self.pressure(vals[..., 1, :], out=out[..., 0, :])
        np.negative(vals[..., 0, :], out=out[..., 1, :])
        return out

    def values_speed_bound(self, vals, axis, out):
        return self.sound_speed(vals[..., 1, :], out=out)

    def admissibility_values(self, vals):
        return vals[..., 1, :]


@dataclass(frozen=True)
class Euler2D(ModelSystem):
    """2D isentropic Euler equations with pressure law rho^gamma.

    State components are (rho, q1, q2).  The auxiliary velocities
    nu_i = q_i / rho make every flux entry a pointwise map of realizations.
    """

    gamma: float = 4.0 / 3.0
    name: str = "euler-2d"
    components: int = 3
    space_dim: int = 2

    def values_flux(self, vals, axis, out):
        rho = vals[..., 0, :]
        qa = vals[..., 1 + axis, :]
        qb = vals[..., 2 - axis, :]
        # (qa, qa * qa / rho + rho ** gamma, qa * qb / rho), the mass row
        # holding the pressure until it is added
        mass, normal, tangential = out[..., 0, :], out[..., 1 + axis, :], out[..., 2 - axis, :]
        np.multiply(qa, qb, out=tangential)
        tangential /= rho
        np.multiply(qa, qa, out=normal)
        normal /= rho
        normal += np.power(rho, self.gamma, out=mass)
        mass[...] = qa
        return out

    def values_speed_bound(self, vals, axis, out):
        # |nu| + c with nu = q_axis / rho and c = sqrt(gamma) rho^((gamma-1)/2),
        # the largest |speed| of the families nu - c, nu, nu + c
        rho = vals[..., 0, :]
        bound = np.divide(vals[..., 1 + axis, :], rho, out=out)
        np.abs(bound, out=bound)
        c = rho ** ((self.gamma - 1.0) / 2.0)
        c *= np.sqrt(self.gamma)
        bound += c
        return bound

    def admissibility_values(self, vals):
        return vals[..., 0, :]


def check_admissible_values(model, values: np.ndarray) -> float:
    """Raise AdmissibilityError with cell diagnostics if the model's
    admissibility values at realization ``values`` are not all positive.

    Returns the minimum admissibility value, inf for a model without a
    constraint.
    """
    vals = model.admissibility_values(values)
    if vals is None:
        return np.inf
    vmin = vals.min()
    if vmin <= 0.0:
        where = np.unravel_index(int(np.argmin(vals)), vals.shape)
        raise _inadmissible(model, vmin, tuple(int(i) for i in where))
    return float(vmin)


def _inadmissible(model, vmin, where: tuple[int, ...]) -> AdmissibilityError:
    return AdmissibilityError(
        f"{model.name}: inadmissible state, min positivity value {vmin:.6e} "
        f"at cell {where[:-1]}, stochastic cell {where[-1]}",
        index=where[-1], where=where[:-1])


class LowestAdmissibility:
    """What one ``check_admissible_values`` of a whole array finds, taken
    from blocks of it along ``axis``: ``value``, the lowest admissibility
    value (inf without a constraint, NaN once a block holds a NaN, which
    hides every violation from the whole array's minimum), and ``where``,
    the first location in C order of a non-positive one.

    The blocks need not cover the rows before ``lead``: those rows hold the
    values of row ``lead`` bit for bit, as the uniform run before the 1D
    solver's span or range does, so the blocks start at row ``lead`` and a
    location found in it is reported at row 0, where one check of the whole
    array finds it first."""

    def __init__(self, model, axis: int, lead: int = 0):
        self.model = model
        self.axis = axis
        self.lead = lead
        self.value = np.inf
        self.where = None

    def add(self, values: np.ndarray, offset: int) -> float:
        """Take the block of realization ``values`` that starts at index
        ``offset`` of the whole array's ``axis`` and return its lowest
        admissibility value, which ``check_admissible_values`` finds."""
        where = None
        try:
            low = check_admissible_values(self.model, values)
        except AdmissibilityError as err:
            where = err.where + (err.index,)
            low = self.model.admissibility_values(values)[where]
            row = where[self.axis] + offset
            where = where[:self.axis] + (0 if row == self.lead else row,) + where[self.axis + 1:]
        if low < self.value or (low == self.value and where is not None and where < self.where):
            self.where = where
        self.value = np.minimum(self.value, low)  # keeps a NaN
        return low

    def check(self) -> None:
        """Raise the whole array's AdmissibilityError, if it has one."""
        if self.value <= 0.0:
            raise _inadmissible(self.model, self.value, self.where)


def constant_modes(t: GalerkinTensor, value: float) -> np.ndarray:
    """Modes of the deterministic constant ``value``."""
    return from_spectrum(t, np.full(t.size, float(value)))


# ---------------------------------------------------------------------------
# experiment presets

@dataclass(frozen=True)
class ExperimentPreset:
    """One of the paper-style experiments: model, domain and initial data.

    The model is defined once.  ``parameter`` is its random parameter as a
    pointwise function of xi, or None for a model without one, and
    ``model`` builds the model from that parameter's realization values
    (from no argument when there is no parameter).  The SG solve realizes
    the parameter on the spectrum of its basis (:meth:`galerkin_model`), a
    deterministic batch at its samples (:meth:`batch_model`).

    The initial data is defined once too.  ``pieces(grid)`` returns the
    index of each grid cell's piece, shaped like the grid, and a table that
    holds per piece and per component either a float constant or a pair
    (function of xi, breakpoints of its jumps in xi).  The SG solve
    projects all functions of the table in one call (:meth:`galerkin_initial`),
    a deterministic batch evaluates each at its samples (:meth:`det_initial`).

    ``qoi_component`` is the state component that errors and Monte Carlo
    envelopes are measured on.  ``references`` lists the reference kinds the
    preset can be compared against, its default first; ``nx``, ``ny``,
    ``domain``, ``t_final`` and ``boundary`` are its default grid and horizon.
    """

    name: str
    space_dim: int
    components: int
    domain: tuple
    nx: int
    t_final: float
    references: tuple[str, ...]
    ny: int | None = None
    boundary: str = "transmissive"
    qoi_component: int = 0
    model: Callable[..., ModelSystem] = None
    parameter: Callable[[np.ndarray], np.ndarray] | None = None
    pieces: Callable[..., tuple[np.ndarray, list[tuple]]] = None

    def galerkin_model(self, t: GalerkinTensor) -> ModelSystem:
        """The model of the SG solve in the basis of ``t``."""
        if self.parameter is None:
            return self.model()
        return self.model(to_spectrum(t, project(t, [(self.parameter, ())])[0]))

    def batch_model(self, xi: np.ndarray) -> ModelSystem:
        """The model of a deterministic batch at the samples ``xi``."""
        if self.parameter is None:
            return self.model()
        return self.model(self.parameter(np.asarray(xi)))

    def galerkin_initial(self, t: GalerkinTensor, grid) -> np.ndarray:
        """Initial modes in the basis of ``t``, shape (cells..., components,
        K+1): ``constant_modes`` of a constant, and of the functions one
        ``project`` call for all of them."""
        index, table = self.pieces(grid)
        functions = [p for piece in table for p in piece if not isinstance(p, float)]
        projected = iter(project(t, functions) if functions else ())
        modes = np.array([[constant_modes(t, p) if isinstance(p, float) else next(projected)
                           for p in piece] for piece in table])
        return modes[index]

    def det_initial(self, xi: np.ndarray, grid) -> np.ndarray:
        """Initial values at the samples ``xi``, shape (cells...,
        components, len(xi))."""
        xi = np.asarray(xi)
        index, table = self.pieces(grid)
        values = np.array([[np.full(xi.shape, p) if isinstance(p, float) else p[0](xi)
                            for p in piece] for piece in table])
        return values[index]


def _flat(value: float):
    return lambda xi: np.full(np.shape(xi), value)


def _scalar_pieces(grid):
    # u0 = sign(x - (xi - 1/2)) jumps at xi = x + 1/2.  A cell with its jump
    # in [0, 1) is a piece of its own (at a jump of exactly 0, u0 is 0 at
    # xi = 0).  Left of those cells u0 is -1 on all of [0, 1), right of them
    # +1, and each side shares one piece.  These are projected like the
    # cells' own functions, which take exactly -1 or +1 at every projection
    # node, so the grouping changes no bit.
    xs = grid.x_centers
    jump = xs + 0.5
    own = (0.0 <= jump) & (jump < 1.0)
    index = np.where(jump < 0.0, 0, 1)
    index[own] = 2 + np.arange(np.count_nonzero(own))
    table = [((_flat(-1.0), ()),), ((_flat(1.0), ()),)]
    table += [((lambda xi, x=x: np.sign(x - (xi - 0.5)), (b,)),)
              for x, b in zip(xs[own], jump[own])]
    return index, table


def _box_pieces(half_width: float, inside: tuple, outside: tuple):
    """Pieces of 2D data that is ``inside`` on the box |x|, |y| <= half_width
    and ``outside`` elsewhere."""
    def pieces(grid):
        xs, ys = grid.x_centers, grid.y_centers
        box = (np.abs(xs)[:, None] <= half_width) & (np.abs(ys)[None, :] <= half_width)
        return np.where(box, 0, 1), [inside, outside]
    return pieces


def _levelset_speed(xi):
    return 0.5 + 0.5 * xi  # v ~ U[1/2, 1]


def _psystem_vstar(xi):
    return 1.0 + 0.5 * xi  # v* ~ U[1, 1.5]


PRESETS: dict[str, ExperimentPreset] = {
    "scalar-oleinik": ExperimentPreset(
        name="scalar-oleinik", space_dim=1, components=1,
        domain=((-2.0, 2.0),), nx=400, t_final=0.2,
        references=("exact", "collocation", "monte-carlo", "none"),
        model=ScalarLipschitz, pieces=_scalar_pieces),
    "levelset-box": ExperimentPreset(
        name="levelset-box", space_dim=2, components=2,
        domain=((-4.0, 4.0), (-4.0, 4.0)), nx=100, ny=100, t_final=1.0,
        references=("none", "monte-carlo"),
        model=lambda v: LevelSet2D(v_values=v), parameter=_levelset_speed,
        pieces=_box_pieces(2.0, inside=(1.0, 0.0), outside=(-1.0, 0.0))),
    "psystem-riemann": ExperimentPreset(
        name="psystem-riemann", space_dim=1, components=2,
        domain=((-3.0, 3.0),), nx=400, t_final=1.0,
        references=("collocation", "monte-carlo", "none"),
        qoi_component=1,  # specific volume: the pressure kink sits at v = v*
        model=lambda vstar: PSystem1D(vstar_values=vstar), parameter=_psystem_vstar,
        pieces=lambda grid: (np.where(grid.x_centers < 0.0, 0, 1), [(0.0, 1.0), (0.0, 3.0)])),
    "euler-box": ExperimentPreset(
        name="euler-box", space_dim=2, components=3,
        domain=((-2.0, 2.0), (-2.0, 2.0)), nx=100, ny=100, t_final=0.5,
        references=("monte-carlo", "none"),
        model=Euler2D,
        pieces=_box_pieces(1.0, inside=((lambda xi: 2.0 + xi, ()), 0.0, 0.0),
                           outside=(1.0, 0.0, 0.0))),
}


def get_preset(name: str) -> ExperimentPreset:
    try:
        return PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown experiment preset {name!r}; "
                       f"choose from {sorted(PRESETS)}") from None


def initial_data(model, preset: ExperimentPreset, t: GalerkinTensor, grid):
    """Galerkin initial field of the preset: its xi-dependent initial data
    projected onto the basis of ``t``, with one ``project`` call for all
    distinct pieces of :meth:`ExperimentPreset.pieces`, not one per cell."""
    from .solver import GpcField
    if preset.space_dim != grid.space_dim:
        raise ValueError(f"preset {preset.name} needs a {preset.space_dim}D grid")
    if model.components != preset.components:
        raise ValueError(f"model {model.name} does not match preset {preset.name}")
    return GpcField(grid=grid, data=preset.galerkin_initial(t, grid), time=0.0)
