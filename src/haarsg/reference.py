"""Reference solutions, Monte Carlo envelopes, and error/statistics metrics.

Runs are scored on the spectrum, the expansion at ``cell_midpoints``."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import HaarTypeBasis
from .errors import SolverAbort
from .galerkin import GalerkinTensor, gauss_rule, to_spectrum
from .models import ExperimentPreset
from .solver import Grid, GpcField, SemiDiscreteSystem, advance

#: stochastic cells per pass of the exact-reference ``mse``
MSE_BLOCK_CELLS = 16
#: Monte Carlo samples solved as one deterministic batch
MC_CHUNK = 8


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
    xi_nodes: np.ndarray
    grid: Grid
    values: np.ndarray  # (nfine[, nfine_y], components, len(xi_nodes))
    t_final: float

    def profile(self, x, component: int = 0) -> np.ndarray:
        """Values in the fine cells of positions ``x`` for all xi nodes, shape
        (len(x), nodes).  A position within 1e-12 cells of a fine-cell edge
        reads the cell to its right, so the centre of coarse cell i of a grid
        refined by ``refine`` reads fine cell ``refine * i + refine // 2``: at
        an even refine the centre is an edge and that cell lies right of it."""
        r = (np.asarray(x, dtype=float) - self.grid.x_bounds[0]) / self.grid.dx
        return self.values[np.clip(np.floor(r + 1e-12).astype(int), 0, self.grid.nx - 1),
                           component, :]


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
    return CollocationReference(kind="collocation", xi_nodes=xi_nodes, grid=fine,
                                values=values, t_final=t_final)


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


def x_profile(values: np.ndarray, grid: Grid, component: int) -> np.ndarray:
    """The x-profile of ``component`` in per-cell ``values``: the whole line
    in 1D, row ``ny // 2`` (y = 0 on an odd ``ny`` and symmetric bounds) in
    2D.  Axes after the component axis are kept."""
    return values[:, grid.ny // 2, component] if grid.space_dim == 2 else values[:, component]


@dataclass(frozen=True)
class MonteCarloEnvelope:
    """Pointwise min/max/mean over Monte Carlo samples along a profile."""

    x: np.ndarray
    minimum: np.ndarray
    maximum: np.ndarray
    mean: np.ndarray
    failed: int = 0


def monte_carlo_reference(preset: ExperimentPreset, n_samples: int, grid: Grid,
                          t_final: float, seed: int, cfl: float) -> MonteCarloEnvelope:
    """Seeded Monte Carlo envelope of the preset's quantity of interest
    along ``x_profile`` (row ``ny // 2`` in 2D, whose centre lies at
    y = +dy/2 on an even ``ny`` and symmetric bounds).

    Samples are drawn up front from one seeded stream so the set is
    reproducible: ``_uniform_samples``, the stream of numpy's default
    generator (``SeedSequence`` and PCG64) computed here, so that it cannot
    change with numpy and no run imports ``numpy.random``.  A negative seed
    raises ``ValueError``.  Failing samples are excluded and counted.

    Chunks of ``MC_CHUNK`` samples are solved in draw order, each as one
    batch.  A batch shares one CFL time grid, set by its fastest sample, so
    the envelope depends on ``MC_CHUNK``: at t 0.1 and 6 samples (seeds 0
    and 42), chunks of 1 or 2 against one of 6 move the mean by up to 1.9e-5
    on the euler-box at 12x12 and 1.1e-7 on the p-system at nx 50; the
    scalar and level-set envelopes do not move.  A chunk that aborts is
    solved again one sample at a time, so only its failing samples drop
    out.
    """
    if n_samples < 1:
        raise ValueError("need at least one Monte Carlo sample")
    xi = _uniform_samples(seed, n_samples)
    profiles = np.empty((n_samples, grid.nx))
    valid = np.ones(n_samples, dtype=bool)
    qoi = preset.qoi_component

    for start in range(0, n_samples, MC_CHUNK):
        idx = np.arange(start, min(start + MC_CHUNK, n_samples))
        try:
            data = solve_deterministic_batch(preset, xi[idx], grid, t_final, cfl)
            profiles[idx] = x_profile(data, grid, qoi).T
        except SolverAbort:
            for i in idx:  # isolate the failing samples
                try:
                    data = solve_deterministic_batch(preset, xi[i:i + 1], grid, t_final, cfl)
                    profiles[i] = x_profile(data, grid, qoi)[:, 0]
                except SolverAbort:
                    valid[i] = False
    if not valid.any():
        raise SolverAbort("all Monte Carlo samples failed")
    good = profiles[valid]
    return MonteCarloEnvelope(
        x=grid.x_centers, minimum=good.min(axis=0), maximum=good.max(axis=0),
        mean=good.mean(axis=0), failed=int(n_samples - valid.sum()))


# ---------------------------------------------------------------------------
# metrics

def mean_std(modes: np.ndarray, basis: HaarTypeBasis) -> tuple[np.ndarray, np.ndarray]:
    """Mean and std over xi of the expansions of ``modes`` (modes on the last
    axis): mode 0 and the 2-norm of the details for piecewise-constant kinds;
    for piecewise-linear, the sum of the subdomain constants u_2b / sqrt(N)
    and by Parseval sqrt(sum u_k^2 - mean^2)."""
    if basis.is_piecewise_constant:
        return modes[..., 0], np.sqrt(np.sum(modes[..., 1:] ** 2, axis=-1))
    mean = np.sum(modes[..., 0::2], axis=-1) / np.sqrt(basis.subdomains)
    return mean, np.sqrt(np.maximum(np.sum(modes ** 2, axis=-1) - mean ** 2, 0.0))


def _node_values(basis: HaarTypeBasis, spectrum: np.ndarray, xi: np.ndarray,
                 cell: np.ndarray) -> np.ndarray:
    """The expansion whose node values are ``spectrum`` (x rows, K+1) at
    points ``xi`` in stochastic cells ``cell``: the cell's value for
    piecewise-constant kinds; for piecewise-linear the line through the
    subdomain's (upper, lower) Gauss-point pair, at tau = 2 N xi - 2 b - 1."""
    if basis.is_piecewise_constant:
        return spectrum[:, cell]
    upper, lower = spectrum[:, 2 * cell], spectrum[:, 2 * cell + 1]
    tau = 2.0 * basis.subdomains * xi - 2 * cell - 1
    return 0.5 * (upper + lower) + (0.5 * math.sqrt(3.0) * tau) * (upper - lower)


def _errors(field: GpcField, tensors: GalerkinTensor, reference, component: int):
    """Blocks of (SG minus reference at the x centres and xi nodes, xi weights)
    of the xi-expectation.  The SG expansion at the nodes is read from one
    ``to_spectrum`` of ``component`` per call (:func:`_node_values`).  An
    exact reference is taken at :func:`gauss_rule` in each stochastic cell,
    ``MSE_BLOCK_CELLS`` cells per block so the temporaries stay
    (nx, 5 * MSE_BLOCK_CELLS); a collocation reference at its own time and
    nodes, with equal weights, each node in cell min(int(cells xi), cells - 1)."""
    xs = field.grid.x_centers
    basis = tensors.basis
    ncell = basis.cells
    spectrum = to_spectrum(tensors, field.data[:, component, :])
    if isinstance(reference, ExactScalarReference):
        for first in range(0, ncell, MSE_BLOCK_CELLS):
            cells = np.arange(first, min(first + MSE_BLOCK_CELLS, ncell))
            nodes, weights = gauss_rule(cells / ncell, (cells + 1) / ncell)
            cell = np.repeat(cells, nodes.size // cells.size)
            yield (_node_values(basis, spectrum, nodes, cell)
                   - reference.value(field.time, xs[:, None], nodes[None, :])), weights
    elif isinstance(reference, CollocationReference):
        if reference.t_final != field.time:
            raise ValueError("reference time does not match the field time")
        nodes = reference.xi_nodes
        cell = np.minimum((ncell * nodes).astype(int), ncell - 1)
        yield (_node_values(basis, spectrum, nodes, cell) - reference.profile(xs, component),
               np.full(nodes.size, 1.0 / nodes.size))
    else:
        raise TypeError(f"unsupported reference type {type(reference).__name__}")


def mse(field: GpcField, tensors: GalerkinTensor, reference, component: int = 0) -> float:
    """Mean squared error against an exact or collocation reference: the
    xi-expectation of :func:`_errors`, then the midpoint rule in x."""
    exp_err = sum((diff ** 2) @ w for diff, w in _errors(field, tensors, reference, component))
    return float(exp_err.sum() * field.grid.dx)


def l1_distance(field: GpcField, tensors: GalerkinTensor, reference,
                component: int = 0) -> float:
    """L1 distance in (x, xi), on the quadrature of :func:`mse`."""
    exp_err = sum(np.abs(diff) @ w for diff, w in _errors(field, tensors, reference, component))
    return float(exp_err.sum() * field.grid.dx)
