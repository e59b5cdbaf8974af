"""Reference solutions, Monte Carlo envelopes, and error/statistics metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .basis import HaarTypeBasis, evaluate_wavelet
from .errors import SolverAbort
from .galerkin import GalerkinTensor
from .models import ExperimentPreset
from .solver import Grid, GpcField, SemiDiscreteSystem, advance


def exact_scalar(t: float, x, xi):
    """Pointwise entropy solution of the scalar experiment.

    Five branches in the similarity variable (x - (xi - 1/2)) / t; the middle
    branch is the intermediate constant state caused by the jump of the
    characteristic speed at u = 0.
    """
    if t <= 0.0:
        raise ValueError(f"exact solution requires t > 0, got {t}")
    r = (np.asarray(x, dtype=float) - (np.asarray(xi, dtype=float) - 0.5)) / t
    return np.select(
        [r < -3.0, r < -1.0, r < 1.0, r < 3.0],
        [-1.0, 0.5 * (r + 1.0), 0.0, 0.5 * (r - 1.0)],
        default=1.0,
    )


@dataclass(frozen=True)
class ExactScalarReference:
    """Closed-form reference for the scalar experiment."""

    kind: str = "exact"

    def value(self, t, x, xi):
        return exact_scalar(t, x, xi)


def basis_matrix(basis: HaarTypeBasis, xi: np.ndarray) -> np.ndarray:
    """Matrix of wavelet values phi_k(xi_j), shape (K+1, len(xi))."""
    return np.stack([evaluate_wavelet(basis, k, xi) for k in range(basis.size)])


def expansion_values(t: GalerkinTensor, modes: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Evaluate the truncated expansion of ``modes`` at points ``xi``."""
    return np.asarray(modes) @ basis_matrix(t.basis, np.asarray(xi, dtype=float))


def solve_deterministic_batch(preset: ExperimentPreset, xi: np.ndarray, grid: Grid,
                              t_final: float, cfl: float = 0.45) -> np.ndarray:
    """Run the deterministic solver for each xi sample (batched, per-sample
    viscosity and admissibility; the batch shares one CFL time grid)."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    model = preset.make_det_model(xi)
    init = preset.det_initial(xi, grid)
    system = SemiDiscreteSystem(model, grid, tensors=None)
    return advance(system, GpcField(grid, init, 0.0), t_final, cfl=cfl).data


@dataclass(frozen=True)
class CollocationReference:
    """Per-stochastic-node deterministic solves on a refined grid.

    Piecewise constant in x (fine-cell lookup) and in xi (node cells of the
    generating basis).
    """

    kind: str
    basis: HaarTypeBasis
    xi_nodes: np.ndarray
    grid: Grid
    values: np.ndarray  # (nfine[, nfine_y], components, len(xi_nodes))
    t_final: float

    def x_index(self, x) -> np.ndarray:
        r = (np.asarray(x, dtype=float) - self.grid.x_bounds[0]) / self.grid.dx
        return np.clip(np.floor(r + 1e-12).astype(int), 0, self.grid.nx - 1)

    def profile(self, x, component: int = 0) -> np.ndarray:
        """Values at positions ``x`` for all xi nodes, shape (len(x), nodes)."""
        return self.values[self.x_index(x), component, :]


def collocation_reference(preset: ExperimentPreset, tensors: GalerkinTensor,
                          refine: int = 4, t_final: float | None = None,
                          grid: Grid | None = None, cfl: float = 0.45) -> CollocationReference:
    """Reference by independent deterministic solves at the stochastic nodes
    of ``tensors``'s basis, on a grid refined by ``refine`` in each axis."""
    if grid is None:
        grid = preset_grid(preset)
    if t_final is None:
        t_final = preset.t_final
    if grid.space_dim != 1:
        raise ValueError("collocation references are implemented for 1D presets")
    fine = Grid(nx=grid.nx * refine, x_bounds=grid.x_bounds,
                boundary_x=grid.boundary_x)
    xi_nodes = tensors.basis.cell_midpoints()
    values = solve_deterministic_batch(preset, xi_nodes, fine, t_final, cfl)
    return CollocationReference(kind="collocation", basis=tensors.basis,
                                xi_nodes=xi_nodes, grid=fine, values=values,
                                t_final=t_final)


@dataclass(frozen=True)
class MonteCarloEnvelope:
    """Pointwise min/max/mean over Monte Carlo samples along a profile."""

    x: np.ndarray
    minimum: np.ndarray
    maximum: np.ndarray
    mean: np.ndarray
    samples: np.ndarray  # (n_valid, len(x)) per-sample profiles
    xi: np.ndarray
    failed: int = 0


def monte_carlo_reference(preset: ExperimentPreset, n_samples: int, grid: Grid,
                          t_final: float, seed: int, chunk: int = 8, cfl: float = 0.45,
                          threads: int = 1) -> MonteCarloEnvelope:
    """Seeded Monte Carlo envelope of the preset's quantity of interest
    along the x-profile (y = 0 row in 2D).

    Samples are drawn up front from one seeded generator so the set is
    reproducible; failing samples are excluded and counted.  Chunks of
    samples are solved as batches (optionally on worker threads); results
    land in per-sample slots, so the output does not depend on the thread
    count or chunk completion order.
    """
    if n_samples < 1:
        raise ValueError("need at least one Monte Carlo sample")
    rng = np.random.default_rng(seed)
    xi = rng.uniform(0.0, 1.0, n_samples)
    profiles = np.empty((n_samples, grid.nx))
    valid = np.ones(n_samples, dtype=bool)
    row = grid.ny // 2 if grid.space_dim == 2 else None
    component = preset.qoi_component

    def extract(data):
        if row is None:
            return data[:, component, :].T  # (samples, nx)
        return data[:, row, component, :].T

    def run_chunk(start: int) -> None:
        idx = np.arange(start, min(start + chunk, n_samples))
        try:
            data = solve_deterministic_batch(preset, xi[idx], grid, t_final, cfl)
            profiles[idx] = extract(data)
        except SolverAbort:
            for i in idx:  # isolate the failing samples
                try:
                    data = solve_deterministic_batch(preset, xi[i:i + 1], grid,
                                                     t_final, cfl)
                    profiles[i] = extract(data)[0]
                except SolverAbort:
                    valid[i] = False

    starts = range(0, n_samples, chunk)
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run_chunk, starts))
    else:
        for start in starts:
            run_chunk(start)
    if not valid.any():
        raise SolverAbort("all Monte Carlo samples failed")
    good = profiles[valid]
    return MonteCarloEnvelope(
        x=grid.x_centers, minimum=good.min(axis=0), maximum=good.max(axis=0),
        mean=good.mean(axis=0), samples=good, xi=xi[valid],
        failed=int(n_samples - valid.sum()))


# ---------------------------------------------------------------------------
# metrics

def mean_std(field: GpcField) -> tuple[np.ndarray, np.ndarray]:
    """Per cell and component: mean = mode 0, std = 2-norm of the details."""
    mean = field.data[..., 0]
    std = np.sqrt(np.sum(field.data[..., 1:] ** 2, axis=-1))
    return mean, std


def mse(field: GpcField, tensors: GalerkinTensor, reference, component: int = 0) -> float:
    """Integrated mean squared error against a reference random field.

    The xi-expectation is an exact sum over stochastic cells with 5-point
    Gauss quadrature inside each cell (the reference may vary there); the
    spatial integral uses the midpoint rule on the solver cells.
    """
    xs = field.grid.x_centers
    if isinstance(reference, ExactScalarReference):
        ncell = tensors.size if tensors.basis.is_piecewise_constant \
            else tensors.basis.subdomains
        xg, wg = leggauss(5)
        exp_err = np.zeros(xs.size)
        for c in range(ncell):
            a, b = c / ncell, (c + 1) / ncell
            nodes = 0.5 * (b - a) * xg + 0.5 * (a + b)
            weights = 0.5 * (b - a) * wg
            vals = expansion_values(tensors, field.data[:, component, :], nodes)
            ref = reference.value(field.time, xs[:, None], nodes[None, :])
            exp_err += ((vals - ref) ** 2) @ weights
        return float(exp_err.sum() * field.grid.dx)
    if isinstance(reference, CollocationReference):
        if not np.isclose(reference.t_final, field.time):
            raise ValueError("reference time does not match the field time")
        vals = expansion_values(tensors, field.data[:, component, :], reference.xi_nodes)
        ref = reference.profile(xs, component)
        weight = 1.0 / reference.xi_nodes.size
        return float(np.sum((vals - ref) ** 2) * weight * field.grid.dx)
    raise TypeError(f"unsupported reference type {type(reference).__name__}")


def l1_distance(field: GpcField, tensors: GalerkinTensor,
                reference: CollocationReference, component: int = 0) -> float:
    """L1 distance in (x, xi) against a collocation reference."""
    xs = field.grid.x_centers
    vals = expansion_values(tensors, field.data[:, component, :], reference.xi_nodes)
    ref = reference.profile(xs, component)
    return float(np.sum(np.abs(vals - ref)) * field.grid.dx / reference.xi_nodes.size)


def preset_grid(preset: ExperimentPreset, nx: int | None = None, ny: int | None = None,
                boundary: str | None = None) -> Grid:
    """Default grid of a preset with optional overrides."""
    bx = boundary or preset.boundary
    if preset.space_dim == 1:
        return Grid(nx=nx or preset.nx, x_bounds=preset.domain[0], boundary_x=bx)
    return Grid(nx=nx or preset.nx, x_bounds=preset.domain[0],
                ny=ny or preset.ny or preset.nx, y_bounds=preset.domain[1],
                boundary_x=bx, boundary_y=bx)
