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

#: stochastic cells per pass of the exact-reference ``mse``
MSE_BLOCK_CELLS = 16
#: Monte Carlo samples solved as one deterministic batch
MC_CHUNK = 8
_GAUSS_NODES, _GAUSS_WEIGHTS = leggauss(5)


def exact_scalar(t: float, x, xi):
    """Pointwise entropy solution of the scalar experiment.

    Five branches in the similarity variable (x - (xi - 1/2)) / t; the middle
    branch is the intermediate constant state caused by the jump of the
    characteristic speed at u = 0.  At t = 0 it is the initial data
    sign(x - (xi - 1/2)), the pointwise limit t -> 0+, 0 at the jump as the
    middle branch gives.
    """
    if t < 0.0:
        raise ValueError(f"exact solution requires t >= 0, got {t}")
    shift = np.asarray(x, dtype=float) - (np.asarray(xi, dtype=float) - 0.5)
    if t == 0.0:
        return np.sign(shift)
    r = shift / t
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
                              t_final: float, cfl: float) -> np.ndarray:
    """Run the deterministic solver for each xi sample (batched, per-sample
    viscosity and admissibility; the batch shares one CFL time grid)."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    init = preset.det_initial(xi, grid)
    system = SemiDiscreteSystem(preset.batch_model(xi), grid, tensors=None)
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
                          t_final: float, grid: Grid, refine: int,
                          cfl: float) -> CollocationReference:
    """Reference by independent deterministic solves at the stochastic nodes
    of ``tensors``'s basis, on ``grid`` refined by ``refine`` in each axis."""
    if grid.space_dim != 1:
        raise ValueError("collocation references are implemented for 1D presets")
    fine = Grid(nx=grid.nx * refine, x_bounds=grid.x_bounds, boundary=grid.boundary)
    xi_nodes = tensors.basis.cell_midpoints()
    values = solve_deterministic_batch(preset, xi_nodes, fine, t_final, cfl)
    return CollocationReference(kind="collocation", basis=tensors.basis,
                                xi_nodes=xi_nodes, grid=fine, values=values,
                                t_final=t_final)


_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
#: PCG64's 128-bit LCG multiplier
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _uniform_samples(seed: int, n: int) -> np.ndarray:
    """``n`` uniform draws in [0, 1), bit for bit those of
    ``np.random.default_rng(seed).uniform(0.0, 1.0, n)``, without importing
    ``numpy.random``.

    The seed is hashed into 128 bits of state and increment as numpy's
    ``SeedSequence`` does (pool of 4 uint32 words, ``generate_state`` of 4
    uint64 words); the stream is PCG64 XSL-RR 128/64 (O'Neill 2014), and a
    double is the top 53 bits of one output times 2**-53.
    """
    if seed < 0:
        raise ValueError(f"expected a non-negative seed, got {seed}")
    words = [0] if seed == 0 else []
    while seed:
        words.append(seed & _MASK32)
        seed >>= 32
    hash_const = 0x43b0d7e5  # INIT_A

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * 0x931e8875) & _MASK32  # MULT_A
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x, y):
        result = (0xca01f9dd * x - 0x4973f715 * y) & _MASK32  # MIX_MULT_L, _R
        return result ^ (result >> 16)

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    state_words = []
    hash_const = 0x8b51f9dd  # INIT_B
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = (hash_const * 0x58f38ded) & _MASK32  # MULT_B
        value = (value * hash_const) & _MASK32
        state_words.append(value ^ (value >> 16))
    s = [state_words[2 * k] | state_words[2 * k + 1] << 32 for k in range(4)]
    inc = (((s[2] << 64 | s[3]) << 1) | 1) & _MASK128
    state = (inc + (s[0] << 64 | s[1])) & _MASK128
    state = (state * _PCG_MULT + inc) & _MASK128
    draws = np.empty(n)
    for i in range(n):
        state = (state * _PCG_MULT + inc) & _MASK128
        rot = state >> 122
        x = ((state >> 64) ^ state) & _MASK64
        out = ((x >> rot) | (x << (64 - rot))) & _MASK64
        draws[i] = (out >> 11) * 2.0 ** -53
    return draws


@dataclass(frozen=True)
class MonteCarloEnvelope:
    """Pointwise min/max/mean over Monte Carlo samples along a profile."""

    x: np.ndarray
    minimum: np.ndarray
    maximum: np.ndarray
    mean: np.ndarray
    failed: int = 0


def monte_carlo_reference(preset: ExperimentPreset, n_samples: int, grid: Grid,
                          t_final: float, seed: int, cfl: float,
                          threads: int = 1) -> MonteCarloEnvelope:
    """Seeded Monte Carlo envelope of the preset's quantity of interest
    along the x-profile (y = 0 row in 2D).

    Samples are drawn up front from one seeded stream so the set is
    reproducible: ``_uniform_samples``, the stream of numpy's default
    generator (``SeedSequence`` and PCG64) computed here, so that it cannot
    change with numpy and no run imports ``numpy.random``.  A negative seed
    raises ``ValueError``.  Failing samples are excluded and counted.
    Chunks of ``MC_CHUNK`` samples are solved as batches (optionally on
    worker threads); results land in per-sample slots, so the output does
    not depend on the thread count or chunk completion order.
    """
    if n_samples < 1:
        raise ValueError("need at least one Monte Carlo sample")
    xi = _uniform_samples(seed, n_samples)
    profiles = np.empty((n_samples, grid.nx))
    valid = np.ones(n_samples, dtype=bool)
    row = grid.ny // 2 if grid.space_dim == 2 else None
    component = preset.qoi_component

    def extract(data):
        if row is None:
            return data[:, component, :].T  # (samples, nx)
        return data[:, row, component, :].T

    def run_chunk(start: int) -> None:
        idx = np.arange(start, min(start + MC_CHUNK, n_samples))
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

    starts = range(0, n_samples, MC_CHUNK)
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
        mean=good.mean(axis=0), failed=int(n_samples - valid.sum()))


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
    Gauss quadrature inside each cell (the reference may vary there),
    evaluated ``MSE_BLOCK_CELLS`` cells at a time so the temporaries stay
    (nx, 5 * MSE_BLOCK_CELLS); the spatial integral uses the midpoint rule
    on the solver cells.
    """
    xs = field.grid.x_centers
    if isinstance(reference, ExactScalarReference):
        ncell = tensors.basis.cells
        modes = field.data[:, component, :]
        exp_err = np.zeros(xs.size)
        for first in range(0, ncell, MSE_BLOCK_CELLS):
            cells = np.arange(first, min(first + MSE_BLOCK_CELLS, ncell))[:, None]
            a, b = cells / ncell, (cells + 1) / ncell
            nodes = (0.5 * (b - a) * _GAUSS_NODES + 0.5 * (a + b)).ravel()
            weights = (0.5 * (b - a) * _GAUSS_WEIGHTS).ravel()
            vals = expansion_values(tensors, modes, nodes)
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
