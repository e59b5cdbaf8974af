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
bit for bit.  Oracles that stand in for a method accept its ``work``
argument and ignore it.

``transform_reference`` is the stacked product that the mode/value
transforms replaced; the merged product agrees with it bit for bit for
states of several components and to rounding for one component.
``snapshots_reference`` writes a run's snapshots in the order
``run_experiment`` used before it streamed them.
"""

import os

import numpy as np

from haarsg.cweno import (D_CENTRAL_1D, D_CENTRAL_2D, D_SECTOR_2D, D_SIDE_1D, EPS_DEFAULT,
                          GAUSS_OFFSET, POWER_DEFAULT)
from haarsg.models import (Euler2D, LevelSet2D, LinearAdvection, PSystem1D,
                           ScalarLipschitz, check_admissible_values)
from haarsg.solver import GHOST, _apply_boundary, source_quadrature


def _weight(d: float, beta: np.ndarray, eps: float, power: int) -> np.ndarray:
    """Unnormalized nonlinear weight d / (eps + beta)^power."""
    t = eps + beta
    if power == 2:
        den = t * t
    elif power == 3:
        den = t * t * t
    elif power == 4:
        t2 = t * t
        den = t2 * t2
    else:
        den = t ** power
    return d / den


def edges_reference(u: np.ndarray, eps: float = EPS_DEFAULT,
                    power: int = POWER_DEFAULT, work=None) -> tuple[np.ndarray, np.ndarray]:
    """Edge values (at the left/right cell faces) from 3-cell stencils.

    ``u`` is indexed by cell along axis 0 and may carry trailing axes; the
    result drops one cell on each end: entry i corresponds to cell i+1 of
    the input.  Returns ``(left, right)`` evaluated at x_{i-1/2}, x_{i+1/2}.
    """
    um, u0, up = u[:-2], u[1:-1], u[2:]
    dl = u0 - um
    dr = up - u0
    curv = um - 2.0 * u0 + up

    sum_lr = dl + dr
    beta_c = (13.0 / 12.0) * curv * curv + 0.25 * sum_lr * sum_lr

    al = _weight(D_SIDE_1D, dl * dl, eps, power)
    ar = _weight(D_SIDE_1D, dr * dr, eps, power)
    ac = _weight(D_CENTRAL_1D, beta_c, eps, power)
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
    return left, right


def fill_ghosts_reference(data: np.ndarray, grid) -> np.ndarray:
    """Pad with 2 ghost cells per side and apply the boundary conditions."""
    dim = grid.space_dim
    pad = [(GHOST, GHOST)] * dim + [(0, 0)] * (data.ndim - dim)
    out = np.pad(data, pad)
    _apply_boundary(out, 0, grid.boundary_x)
    if grid.space_dim == 2:
        _apply_boundary(out, 1, grid.boundary_y)
    return out


def rhs_reference(self, data: np.ndarray, t: float, work=None) -> np.ndarray:
    """Semi-discrete right-hand side, called as a method of a
    ``SemiDiscreteSystem`` (``self``), from the allocating oracles."""
    padded = fill_ghosts_reference(data, self.grid)
    if self.grid.space_dim == 1:
        left, right = edges_reference(padded, self.eps, self.power)
        flux = llf_reference(self, right[:-1], left[1:], axis=0)
        out = -(flux[1:] - flux[:-1]) / self.grid.dx
    else:
        west, east, south, north = face_values_reference(padded, self.eps, self.power)
        # x-faces: gauss-node fluxes averaged with equal weights
        fx = llf_reference(self, east[:, :-1, 1:-1], west[:, 1:, 1:-1], axis=0)
        fx = 0.5 * (fx[0] + fx[1])
        fy = llf_reference(self, north[:, 1:-1, :-1], south[:, 1:-1, 1:], axis=1)
        fy = 0.5 * (fy[0] + fy[1])
        out = (-(fx[1:] - fx[:-1]) / self.grid.dx
               - (fy[:, 1:] - fy[:, :-1]) / self.grid.dy)
    if self.source is not None:
        out = out + source_quadrature(self.source, t, self.grid)
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
    sx = self.model.values_speed_bound(vals, 0).max(axis=-1)
    if self.grid.space_dim == 1:
        smax = float(sx.max())
        return (np.inf if smax == 0.0 else cfl * self.grid.dx / smax), lowest
    sy = self.model.values_speed_bound(vals, 1).max(axis=-1)
    rate = float((sx / self.grid.dx + sy / self.grid.dy).max())
    return (np.inf if rate == 0.0 else cfl / rate), lowest


def face_values_reference(u: np.ndarray, eps: float = EPS_DEFAULT,
                          power: int = POWER_DEFAULT, work=None, out=None) -> np.ndarray:
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
    a_c = _weight(D_CENTRAL_2D, beta_c, eps, power)
    a_sw = _weight(D_SECTOR_2D, bxw2 + bys2, eps, power)
    a_se = _weight(D_SECTOR_2D, bxe2 + bys2, eps, power)
    a_nw = _weight(D_SECTOR_2D, bxw2 + byn2, eps, power)
    a_ne = _weight(D_SECTOR_2D, bxe2 + byn2, eps, power)
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


def llf_reference(self, left_modes: np.ndarray, right_modes: np.ndarray,
                  axis: int, work=None) -> np.ndarray:
    """Local Lax-Friedrichs flux from reconstructed interface states.

    Called as a method of a ``SemiDiscreteSystem`` (``self``), over the
    whole interface arrays at once.
    """
    vl = self._to_values(left_modes)
    vr = self._to_values(right_modes)
    check_admissible_values(self.model, vl)
    check_admissible_values(self.model, vr)
    fl = self.model.values_flux(vl, axis)
    fr = self.model.values_flux(vr, axis)
    alpha = np.maximum(self.model.values_speed_bound(vl, axis),
                       self.model.values_speed_bound(vr, axis))
    if self.coupled:
        alpha = alpha.max(axis=-1)[..., None, None]
    else:
        alpha = alpha[..., None, :]
    flux_vals = 0.5 * (fl + fr) - 0.5 * alpha * (vr - vl)
    return self._from_values(flux_vals)


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
        return np.stack([model.pressure(vals[..., 1, :]), -vals[..., 0, :]], axis=-2)
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
    """The speed bound at ``vals`` of the three models whose form changed:
    both endpoints of the scalar kink's subdifferential, the
    normal-weighted |nu| + c form of Euler, and the largest |speed| of the
    stacked families of linear advection."""
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
    t_final = config.t_final if config.t_final is not None else preset.t_final
    return SemiDiscreteSystem(model, grid, tensors=tensors), field, t_final


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
