"""Theory-only model checks: the SG flux, wave speeds, admissibility and the
dense flux Jacobian of a Galerkin state.

The solver needs only each model's pointwise maps on realization values.
The Galerkin-level forms here conjugate them with the shared eigenvector
frame: a state's realization values are ``to_spectrum`` of its modes, and a
pointwise map d -> g(d) acts on modes as Hn diag(g(d)) Hn.T.  The
characteristic speeds and the blocks of the directional flux Jacobian are
written out per model, so that the hyperbolicity check (the Jacobian's
spectrum equals the deterministic speeds) compares two independent forms.

``LinearAdvection`` is a model no preset uses: the smooth, constant-speed
law on which the order, conservation and time-step tests run.

``INITIAL_ORACLES`` writes each preset's initial data twice, cell by cell:
once projected for the SG solve and once evaluated for a deterministic
batch.  The presets define it once, as pieces; these are the oracles that
both of their readings are compared with.
"""

from dataclasses import dataclass

import numpy as np
from galerkin_reference import _conjugate

from haarsg.galerkin import from_spectrum, project, to_spectrum
from haarsg.models import (DEGENERATE_NORM_TOL, Euler2D, LevelSet2D, ModelSystem, PSystem1D,
                           ScalarLipschitz, check_admissible_values, constant_modes)


@dataclass(frozen=True)
class LinearAdvection(ModelSystem):
    """Constant-speed advection, the smooth convergence test model."""

    speed: tuple[float, ...] = (1.0,)
    name: str = "linear-advection"
    components: int = 1
    space_dim: int = 1

    def __post_init__(self):
        object.__setattr__(self, "space_dim", len(self.speed))

    def values_flux(self, vals, axis, out):
        return np.multiply(self.speed[axis], vals, out=out)

    def values_speed_bound(self, vals, axis, out):
        out[...] = abs(self.speed[axis])
        return out


def values_speeds(model, vals, normal) -> list[np.ndarray]:
    """Characteristic families at realization values, one array each."""
    if isinstance(model, ScalarLipschitz):
        u = vals[..., 0, :]
        return [2.0 * u + np.sign(u)]
    if isinstance(model, LevelSet2D):
        u1, u2 = vals[..., 0, :], vals[..., 1, :]
        norm = np.hypot(u1, u2)
        degenerate = norm < DEGENERATE_NORM_TOL
        proj = normal[0] * u1 + normal[1] * u2
        fallback = normal[0] * np.sign(u1) + normal[1] * np.sign(u2)
        moving = model.v_values * np.where(degenerate, fallback,
                                           proj / np.where(degenerate, 1.0, norm))
        return [moving, np.zeros_like(moving)]
    if isinstance(model, PSystem1D):
        c = model.sound_speed(vals[..., 1, :])
        return [-c, c]
    if isinstance(model, Euler2D):
        rho = vals[..., 0, :]
        nu = (normal[0] * vals[..., 1, :] + normal[1] * vals[..., 2, :]) / rho
        c = np.sqrt(model.gamma) * rho ** ((model.gamma - 1.0) / 2.0)
        return [nu - c, nu, nu + c]
    raise TypeError(f"no speeds for {model.name}")


def jacobian_blocks(model, vals, normal) -> list[list]:
    """Diagonals (m,) of the blocks of the directional flux Jacobian in
    spectral coordinates, at one state's values (components, m)."""
    if isinstance(model, ScalarLipschitz):
        return [[2.0 * vals[0] + np.sign(vals[0])]]
    if isinstance(model, LevelSet2D):
        u1, u2 = vals
        a = model.v_values / np.hypot(u1, u2)
        return [[normal[0] * a * u1, normal[0] * a * u2],
                [normal[1] * a * u1, normal[1] * a * u2]]
    if isinstance(model, PSystem1D):
        v = vals[1]
        s = np.sign(v - model.vstar_values)
        g1, g2 = model.gamma1, model.gamma2
        pprime = -(0.5 * (1.0 - s) * g1 * v ** (-g1 - 1.0)
                   + 0.5 * (1.0 + s) * g2 * v ** (-g2 - 1.0))
        return [[0.0, pprime], [-1.0, 0.0]]
    if isinstance(model, Euler2D):
        rho, q1, q2 = vals
        nu1, nu2 = q1 / rho, q2 / rho
        c2 = model.gamma * rho ** (model.gamma - 1.0)
        n1, n2 = normal
        j1 = [[0.0, 1.0, 0.0], [c2 - nu1 * nu1, 2.0 * nu1, 0.0], [-nu1 * nu2, nu2, nu1]]
        j2 = [[0.0, 0.0, 1.0], [-nu1 * nu2, nu2, nu1], [c2 - nu2 * nu2, 0.0, 2.0 * nu2]]
        return [[n1 * a + n2 * b for a, b in zip(ra, rb)] for ra, rb in zip(j1, j2)]
    raise TypeError(f"no Jacobian for {model.name}")


def check_admissible(model, t, state) -> None:
    """Raise AdmissibilityError with cell diagnostics on violation."""
    check_admissible_values(model, to_spectrum(t, state))


def flux(model, t, state, axis=0) -> np.ndarray:
    """Galerkin flux of a state (..., components, K+1) in the given axis."""
    check_admissible(model, t, state)
    vals = to_spectrum(t, state)
    return from_spectrum(t, model.values_flux(vals, axis, np.empty_like(vals)))


def wave_speeds(model, t, state, normal) -> list[np.ndarray]:
    """Characteristic families as per-stochastic-cell speed arrays."""
    check_admissible(model, t, state)
    return values_speeds(model, to_spectrum(t, state), normal)


def max_wave_speed(model, t, state, axis=0) -> np.ndarray:
    """Max |speed| over families and stochastic cells (kink-safe bound)."""
    check_admissible(model, t, state)
    vals = to_spectrum(t, state)
    return model.values_speed_bound(vals, axis, np.empty(vals.shape[:-2] + vals.shape[-1:])
                                    ).max(axis=-1)


def is_admissible_state(model, t, state) -> tuple[bool, float]:
    """Whether the model's positivity constraint holds; returns min value."""
    vals = model.admissibility_values(to_spectrum(t, state))
    if vals is None:
        return True, np.inf
    return bool(vals.min() > 0.0), float(vals.min())


def jacobian(model, t, state, normal) -> np.ndarray:
    """Dense directional flux Jacobian of one cell state (components, K+1)."""
    vals = to_spectrum(t, np.asarray(state))
    if vals.ndim != 2:
        raise ValueError("jacobian expects a single cell state (components, K+1)")
    normal = normal if np.ndim(normal) else [float(normal)]
    return np.block([[_conjugate(t, np.broadcast_to(d, (t.size,))) for d in row]
                     for row in jacobian_blocks(model, vals, normal)])


# ---------------------------------------------------------------------------
# per-cell initial data of the presets, SG modes and batch values

def scalar_initial(t, xs):
    out = np.empty((xs.size, 1, t.size))
    for i, x in enumerate(xs):
        brk = x + 0.5
        bps = (brk,) if 0.0 < brk < 1.0 else ()
        out[i, 0] = project(t, [(lambda xi: np.sign(x - (xi - 0.5)), bps)])[0]
    return out


def scalar_det_initial(xi, xs):
    return np.sign(xs[:, None] - (xi[None, :] - 0.5))[:, None, :]


def box_mask(xs, ys, half_width):
    return (np.abs(xs)[:, None] <= half_width) & (np.abs(ys)[None, :] <= half_width)


def levelset_initial(t, xs, ys):
    inside = box_mask(xs, ys, 2.0)
    out = np.zeros((xs.size, ys.size, 2, t.size))
    out[..., 0, :] = np.where(inside, 1.0, -1.0)[..., None] * constant_modes(t, 1.0)
    return out


def levelset_det_initial(xi, xs, ys):
    inside = box_mask(xs, ys, 2.0)
    out = np.zeros((xs.size, ys.size, 2, xi.size))
    out[..., 0, :] = np.where(inside, 1.0, -1.0)[..., None]
    return out


def euler_initial(t, xs, ys):
    inside = box_mask(xs, ys, 1.0)
    rho_in = project(t, [(lambda xi: 2.0 + xi, ())])[0]
    rho_out = constant_modes(t, 1.0)
    out = np.zeros((xs.size, ys.size, 3, t.size))
    out[..., 0, :] = np.where(inside[..., None], rho_in, rho_out)
    return out


def euler_det_initial(xi, xs, ys):
    inside = box_mask(xs, ys, 1.0)
    out = np.zeros((xs.size, ys.size, 3, xi.size))
    out[..., 0, :] = np.where(inside[..., None], 2.0 + xi, 1.0)
    return out


def psystem_initial(t, xs):
    out = np.zeros((xs.size, 2, t.size))
    vleft = constant_modes(t, 1.0)
    vright = constant_modes(t, 3.0)
    out[:, 1, :] = np.where(xs[:, None] < 0.0, vleft, vright)
    return out


def psystem_det_initial(xi, xs):
    out = np.zeros((xs.size, 2, xi.size))
    out[:, 1, :] = np.where(xs[:, None] < 0.0, 1.0, 3.0)
    return out


#: preset name -> (SG modes from (t, grid), batch values from (xi, grid))
INITIAL_ORACLES = {
    "scalar-oleinik": (lambda t, g: scalar_initial(t, g.x_centers),
                       lambda xi, g: scalar_det_initial(xi, g.x_centers)),
    "levelset-box": (lambda t, g: levelset_initial(t, g.x_centers, g.y_centers),
                     lambda xi, g: levelset_det_initial(xi, g.x_centers, g.y_centers)),
    "psystem-riemann": (lambda t, g: psystem_initial(t, g.x_centers),
                        lambda xi, g: psystem_det_initial(xi, g.x_centers)),
    "euler-box": (lambda t, g: euler_initial(t, g.x_centers, g.y_centers),
                  lambda xi, g: euler_det_initial(xi, g.x_centers, g.y_centers)),
}
