"""Stochastic Galerkin formulations of four hyperbolic model systems.

Each model implements its flux, characteristic speeds and admissibility as
pointwise maps on realization values (the spectrum of the expansion).  The
Galerkin operations are obtained by conjugating those maps with the shared
eigenvector frame, which keeps the intrusive formulation collocation
consistent: fluxes and characteristic speeds evaluated through the frame
coincide with the deterministic ones at the stochastic quadrature points.

Value arrays have shape (..., components, m) where m is the number of
stochastic cells for a Galerkin model, or the number of samples for a
deterministic batch.
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
    """Base descriptor; concrete models override the pointwise maps."""

    name: str
    components: int
    space_dim: int

    def values_flux(self, vals: np.ndarray, axis: int) -> np.ndarray:
        raise NotImplementedError

    def values_speeds(self, vals: np.ndarray, normal) -> list[np.ndarray]:
        """Characteristic families at realization values, one array each."""
        raise NotImplementedError

    def values_speed_bound(self, vals: np.ndarray, axis: int) -> np.ndarray:
        """Per-cell upper bound on |speed| covering generalized Jacobians."""
        n = [0.0] * self.space_dim
        n[axis] = 1.0
        speeds = self.values_speeds(vals, n)
        return np.max(np.stack([np.abs(s) for s in speeds]), axis=0)

    def admissibility_values(self, vals: np.ndarray) -> np.ndarray | None:
        """Array that must be strictly positive, or None if unconstrained."""
        return None

    def jacobian_blocks(self, vals: np.ndarray, normal) -> list[list]:
        """Per-cell diagonal entries of the directional flux Jacobian.

        Entry [i][j] is an (m,) array (or scalar) holding the diagonal of
        block (i, j) in spectral coordinates; ``vals`` is a single state
        of shape (components, m).
        """
        raise NotImplementedError


@dataclass(frozen=True)
class ScalarLipschitz(ModelSystem):
    """Scalar law with flux u^2 + |u| (Lipschitz, kinked at u = 0)."""

    name: str = "scalar-lipschitz"
    components: int = 1
    space_dim: int = 1

    def values_flux(self, vals, axis):
        u = vals[..., 0, :]
        return (u * u + np.abs(u))[..., None, :]

    def values_speeds(self, vals, normal):
        u = vals[..., 0, :]
        return [2.0 * u + np.sign(u)]

    def values_speed_bound(self, vals, axis):
        # subdifferential of |u| at 0 is [-1, 1]; bound both endpoints
        u = vals[..., 0, :]
        return np.maximum(np.abs(2.0 * u - 1.0), np.abs(2.0 * u + 1.0))

    def jacobian_blocks(self, vals, normal):
        u = vals[0]
        return [[2.0 * u + np.sign(u)]]


@dataclass(frozen=True)
class LinearAdvection(ModelSystem):
    """Constant-speed advection, the smooth convergence test model."""

    speed: tuple[float, ...] = (1.0,)
    name: str = "linear-advection"
    components: int = 1
    space_dim: int = 1

    def __post_init__(self):
        object.__setattr__(self, "space_dim", len(self.speed))

    def values_flux(self, vals, axis):
        return self.speed[axis] * vals

    def values_speeds(self, vals, normal):
        a = sum(n * s for n, s in zip(normal, self.speed))
        return [np.full(vals.shape[:-2] + vals.shape[-1:], a)]

    def jacobian_blocks(self, vals, normal):
        a = sum(n * s for n, s in zip(normal, self.speed))
        return [[np.full(vals.shape[-1], a)]]


@dataclass(frozen=True)
class LevelSet2D(ModelSystem):
    """2D level-set transport: flux_i = v ||grad phi||_2 in component i.

    ``v_values`` holds the realizations of the random speed.
    """

    v_values: np.ndarray = field(default_factory=lambda: np.array([1.0]))
    name: str = "level-set-2d"
    components: int = 2
    space_dim: int = 2

    def values_flux(self, vals, axis):
        u1, u2 = vals[..., 0, :], vals[..., 1, :]
        out = np.zeros_like(vals)
        out[..., axis, :] = self.v_values * np.hypot(u1, u2)
        return out

    def values_speeds(self, vals, normal):
        u1, u2 = vals[..., 0, :], vals[..., 1, :]
        norm = np.hypot(u1, u2)
        degenerate = norm < DEGENERATE_NORM_TOL
        proj = normal[0] * u1 + normal[1] * u2
        fallback = normal[0] * np.sign(u1) + normal[1] * np.sign(u2)
        moving = self.v_values * np.where(degenerate, fallback,
                                          proj / np.where(degenerate, 1.0, norm))
        return [moving, np.zeros_like(moving)]

    def values_speed_bound(self, vals, axis):
        u1, u2 = vals[..., 0, :], vals[..., 1, :]
        norm = np.hypot(u1, u2)
        degenerate = norm < DEGENERATE_NORM_TOL
        ui = vals[..., axis, :]
        # |v (n.u)/||u||| <= |v|; at the kink the subgradient ball gives |v|
        exact = np.abs(ui) / np.where(degenerate, 1.0, norm)
        return np.abs(self.v_values) * np.where(degenerate, 1.0, exact)

    def jacobian_blocks(self, vals, normal):
        u1, u2 = vals[0], vals[1]
        norm = np.hypot(u1, u2)
        a = self.v_values / norm
        return [[normal[0] * a * u1, normal[0] * a * u2],
                [normal[1] * a * u1, normal[1] * a * u2]]


def _psystem_branch_sign(v, vstar):
    return np.sign(v - vstar)


@dataclass(frozen=True)
class PSystem1D:
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

    def pressure(self, v: np.ndarray) -> np.ndarray:
        s = _psystem_branch_sign(v, self.vstar_values)
        left = v ** (-self.gamma1)
        right = v ** (-self.gamma2) + self.delta_values
        return 0.5 * (1.0 - s) * left + 0.5 * (1.0 + s) * right

    def _branch_char_speeds(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        c1 = np.sqrt(self.gamma1 * v ** (-self.gamma1 - 1.0))
        c2 = np.sqrt(self.gamma2 * v ** (-self.gamma2 - 1.0))
        return c1, c2

    def sound_speed(self, v: np.ndarray) -> np.ndarray:
        """sqrt(-p'(v)); at the kink the larger one-sided value."""
        s = _psystem_branch_sign(v, self.vstar_values)
        c1, c2 = self._branch_char_speeds(v)
        return np.where(s < 0, c1, np.where(s > 0, c2, np.maximum(c1, c2)))

    def values_flux(self, vals, axis):
        u, v = vals[..., 0, :], vals[..., 1, :]
        return np.stack([self.pressure(v), -u], axis=-2)

    def values_speeds(self, vals, normal):
        c = self.sound_speed(vals[..., 1, :])
        return [-c, c]

    def values_speed_bound(self, vals, axis):
        return self.sound_speed(vals[..., 1, :])

    def admissibility_values(self, vals):
        return vals[..., 1, :]

    def jacobian_blocks(self, vals, normal):
        v = vals[1]
        s = _psystem_branch_sign(v, self.vstar_values)
        pprime = -(0.5 * (1.0 - s) * self.gamma1 * v ** (-self.gamma1 - 1.0)
                   + 0.5 * (1.0 + s) * self.gamma2 * v ** (-self.gamma2 - 1.0))
        zero = np.zeros_like(v)
        return [[zero, pprime], [-np.ones_like(v), zero]]


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

    def values_flux(self, vals, axis):
        rho = vals[..., 0, :]
        qa = vals[..., 1 + axis, :]
        qb = vals[..., 2 - axis, :]
        p = rho ** self.gamma
        out = np.empty_like(vals)
        out[..., 0, :] = qa
        out[..., 1 + axis, :] = qa * qa / rho + p
        out[..., 2 - axis, :] = qa * qb / rho
        return out

    def _nu_c(self, vals, normal):
        rho = vals[..., 0, :]
        nu = (normal[0] * vals[..., 1, :] + normal[1] * vals[..., 2, :]) / rho
        c = np.sqrt(self.gamma) * rho ** ((self.gamma - 1.0) / 2.0)
        return nu, c

    def values_speeds(self, vals, normal):
        nu, c = self._nu_c(vals, normal)
        return [nu - c, nu, nu + c]

    def values_speed_bound(self, vals, axis):
        n = (1.0, 0.0) if axis == 0 else (0.0, 1.0)
        nu, c = self._nu_c(vals, n)
        return np.abs(nu) + c

    def admissibility_values(self, vals):
        return vals[..., 0, :]

    def jacobian_blocks(self, vals, normal):
        rho, q1, q2 = vals
        nu1, nu2 = q1 / rho, q2 / rho
        c2 = self.gamma * rho ** (self.gamma - 1.0)
        one = np.ones_like(rho)
        zero = np.zeros_like(rho)
        n1, n2 = normal
        j1 = [[zero, one, zero],
              [c2 - nu1 * nu1, 2.0 * nu1, zero],
              [-nu1 * nu2, nu2, nu1]]
        j2 = [[zero, zero, one],
              [-nu1 * nu2, nu2, nu1],
              [c2 - nu2 * nu2, zero, 2.0 * nu2]]
        return [[n1 * a + n2 * b for a, b in zip(ra, rb)] for ra, rb in zip(j1, j2)]


# ---------------------------------------------------------------------------
# Galerkin-level operations

def flux(model, t: GalerkinTensor, state: np.ndarray, axis: int = 0) -> np.ndarray:
    """Galerkin flux of a state (..., components, K+1) in the given axis."""
    check_admissible(model, t, state)
    return from_spectrum(t, model.values_flux(to_spectrum(t, state), axis))


def wave_speeds(model, t: GalerkinTensor, state: np.ndarray, normal) -> list[np.ndarray]:
    """Characteristic families as per-stochastic-cell speed arrays."""
    check_admissible(model, t, state)
    return model.values_speeds(to_spectrum(t, state), normal)


def max_wave_speed(model, t: GalerkinTensor, state: np.ndarray, axis: int = 0) -> np.ndarray:
    """Max |speed| over families and stochastic cells (kink-safe bound)."""
    check_admissible(model, t, state)
    return model.values_speed_bound(to_spectrum(t, state), axis).max(axis=-1)


def is_admissible_state(model, t: GalerkinTensor, state: np.ndarray) -> tuple[bool, float]:
    """Whether the model's positivity constraint holds; returns min value."""
    vals = model.admissibility_values(to_spectrum(t, state))
    if vals is None:
        return True, np.inf
    return bool(vals.min() > 0.0), float(vals.min())


def check_admissible(model, t: GalerkinTensor, state: np.ndarray) -> None:
    """Raise AdmissibilityError with cell diagnostics on violation."""
    check_admissible_values(model, to_spectrum(t, state))


def check_admissible_values(model, values: np.ndarray) -> None:
    """Like :func:`check_admissible` but on realization values directly."""
    vals = model.admissibility_values(values)
    if vals is None:
        return
    vmin = vals.min()
    if vmin <= 0.0:
        where = np.unravel_index(int(np.argmin(vals)), vals.shape)
        raise AdmissibilityError(
            f"{model.name}: inadmissible state, min positivity value {vmin:.6e} "
            f"at cell {where[:-1]}, stochastic cell {where[-1]}",
            index=int(where[-1]), where=where[:-1])


def jacobian(model, t: GalerkinTensor, state: np.ndarray, normal) -> np.ndarray:
    """Dense directional flux Jacobian of one cell state (components, K+1)."""
    vals = to_spectrum(t, np.asarray(state))
    if vals.ndim != 2:
        raise ValueError("jacobian expects a single cell state (components, K+1)")
    if model.space_dim == 1:
        normal = (normal if np.ndim(normal) else [float(normal)])
    blocks = model.jacobian_blocks(vals, normal)
    n = t.size
    ncomp = model.components
    out = np.zeros((ncomp * n, ncomp * n))
    for i in range(ncomp):
        for j in range(ncomp):
            d = np.broadcast_to(np.asarray(blocks[i][j], dtype=float), (n,))
            out[i * n:(i + 1) * n, j * n:(j + 1) * n] = (t.Hn * d) @ t.Hn.T
    return out


def constant_modes(t: GalerkinTensor, value: float) -> np.ndarray:
    """Modes of the deterministic constant ``value``."""
    return from_spectrum(t, np.full(t.size, float(value)))


# ---------------------------------------------------------------------------
# experiment presets

def _centers(lo: float, hi: float, n: int) -> np.ndarray:
    dx = (hi - lo) / n
    return lo + dx * (np.arange(n) + 0.5)


@dataclass(frozen=True)
class ExperimentPreset:
    """One of the paper-style experiments: model, domain and initial data.

    ``qoi_component`` is the state component that errors and Monte Carlo
    envelopes are measured on.
    """

    name: str
    space_dim: int
    components: int
    domain: tuple
    nx: int
    t_final: float
    reference: str
    ny: int | None = None
    boundary: str = "transmissive"
    qoi_component: int = 0
    make_model: Callable[[GalerkinTensor], object] = None
    make_det_model: Callable[[np.ndarray], object] = None
    galerkin_initial: Callable = None
    det_initial: Callable = None


def _scalar_initial(t: GalerkinTensor, xs: np.ndarray) -> np.ndarray:
    out = np.empty((xs.size, 1, t.size))
    for i, x in enumerate(xs):
        brk = x + 0.5
        bps = (brk,) if 0.0 < brk < 1.0 else ()
        out[i, 0] = project(t, lambda xi: np.sign(x - (xi - 0.5)), breakpoints=bps)
    return out


def _scalar_det_initial(xi: np.ndarray, xs: np.ndarray) -> np.ndarray:
    return np.sign(xs[:, None] - (xi[None, :] - 0.5))[:, None, :]


def _box_mask(xs, ys, half_width):
    return (np.abs(xs)[:, None] <= half_width) & (np.abs(ys)[None, :] <= half_width)


def _levelset_initial(t: GalerkinTensor, xs, ys) -> np.ndarray:
    inside = _box_mask(xs, ys, 2.0)
    out = np.zeros((xs.size, ys.size, 2, t.size))
    out[..., 0, :] = np.where(inside, 1.0, -1.0)[..., None] * constant_modes(t, 1.0)
    return out


def _euler_initial(t: GalerkinTensor, xs, ys, gamma) -> np.ndarray:
    inside = _box_mask(xs, ys, 1.0)
    rho_in = project(t, lambda xi: 2.0 + xi)
    rho_out = constant_modes(t, 1.0)
    out = np.zeros((xs.size, ys.size, 3, t.size))
    out[..., 0, :] = np.where(inside[..., None], rho_in, rho_out)
    return out


def _euler_det_initial(xi: np.ndarray, xs, ys) -> np.ndarray:
    inside = _box_mask(xs, ys, 1.0)
    out = np.zeros((xs.size, ys.size, 3, xi.size))
    out[..., 0, :] = np.where(inside[..., None], 2.0 + xi, 1.0)
    return out


def _psystem_initial(t: GalerkinTensor, xs) -> np.ndarray:
    out = np.zeros((xs.size, 2, t.size))
    vleft = constant_modes(t, 1.0)
    vright = constant_modes(t, 3.0)
    out[:, 1, :] = np.where(xs[:, None] < 0.0, vleft, vright)
    return out


def _psystem_det_initial(xi: np.ndarray, xs) -> np.ndarray:
    out = np.zeros((xs.size, 2, xi.size))
    out[:, 1, :] = np.where(xs[:, None] < 0.0, 1.0, 3.0)
    return out


def _levelset_speed(xi):
    return 0.5 + 0.5 * xi  # v ~ U[1/2, 1]


def _psystem_vstar(xi):
    return 1.0 + 0.5 * xi  # v* ~ U[1, 1.5]


def make_scalar_model(t: GalerkinTensor) -> ScalarLipschitz:
    return ScalarLipschitz()


def make_levelset_model(t: GalerkinTensor) -> LevelSet2D:
    return LevelSet2D(v_values=to_spectrum(t, project(t, _levelset_speed)))


def make_psystem_model(t: GalerkinTensor, gamma1=5.0 / 3.0, gamma2=4.0 / 3.0) -> PSystem1D:
    return PSystem1D(gamma1=gamma1, gamma2=gamma2,
                     vstar_values=to_spectrum(t, project(t, _psystem_vstar)))


def make_euler_model(t: GalerkinTensor, gamma=4.0 / 3.0) -> Euler2D:
    return Euler2D(gamma=gamma)


PRESETS: dict[str, ExperimentPreset] = {
    "scalar-oleinik": ExperimentPreset(
        name="scalar-oleinik", space_dim=1, components=1,
        domain=((-2.0, 2.0),), nx=400, t_final=0.2, reference="exact",
        make_model=make_scalar_model,
        make_det_model=lambda xi: ScalarLipschitz(),
        galerkin_initial=lambda t, grid: _scalar_initial(t, grid.x_centers),
        det_initial=lambda xi, grid: _scalar_det_initial(xi, grid.x_centers)),
    "levelset-box": ExperimentPreset(
        name="levelset-box", space_dim=2, components=2,
        domain=((-4.0, 4.0), (-4.0, 4.0)), nx=100, ny=100, t_final=1.0, reference="none",
        make_model=make_levelset_model,
        make_det_model=lambda xi: LevelSet2D(v_values=_levelset_speed(np.asarray(xi))),
        galerkin_initial=lambda t, grid: _levelset_initial(t, grid.x_centers, grid.y_centers),
        det_initial=lambda xi, grid: _levelset_initial_det(np.asarray(xi), grid)),
    "psystem-riemann": ExperimentPreset(
        name="psystem-riemann", space_dim=1, components=2,
        domain=((-3.0, 3.0),), nx=400, t_final=1.0, reference="collocation",
        qoi_component=1,  # specific volume: the pressure kink sits at v = v*
        make_model=make_psystem_model,
        make_det_model=lambda xi: PSystem1D(vstar_values=_psystem_vstar(np.asarray(xi))),
        galerkin_initial=lambda t, grid: _psystem_initial(t, grid.x_centers),
        det_initial=lambda xi, grid: _psystem_det_initial(np.asarray(xi), grid.x_centers)),
    "euler-box": ExperimentPreset(
        name="euler-box", space_dim=2, components=3,
        domain=((-2.0, 2.0), (-2.0, 2.0)), nx=100, ny=100, t_final=0.5,
        reference="monte-carlo",
        make_model=make_euler_model,
        make_det_model=lambda xi: Euler2D(),
        galerkin_initial=lambda t, grid: _euler_initial(t, grid.x_centers, grid.y_centers,
                                                        4.0 / 3.0),
        det_initial=lambda xi, grid: _euler_det_initial(np.asarray(xi), grid.x_centers,
                                                        grid.y_centers)),
}


def _levelset_initial_det(xi: np.ndarray, grid) -> np.ndarray:
    inside = _box_mask(grid.x_centers, grid.y_centers, 2.0)
    out = np.zeros((grid.nx, grid.ny, 2, xi.size))
    out[..., 0, :] = np.where(inside, 1.0, -1.0)[..., None]
    return out


def get_preset(name: str) -> ExperimentPreset:
    try:
        return PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown experiment preset {name!r}; "
                       f"choose from {sorted(PRESETS)}") from None


def initial_data(model, preset: ExperimentPreset, t: GalerkinTensor, grid):
    """Project the preset's xi-dependent initial condition cell by cell."""
    from .solver import GpcField
    if preset.space_dim != grid.space_dim:
        raise ValueError(f"preset {preset.name} needs a {preset.space_dim}D grid")
    if model.components != preset.components:
        raise ValueError(f"model {model.name} does not match preset {preset.name}")
    return GpcField(grid=grid, data=preset.galerkin_initial(t, grid), time=0.0)
