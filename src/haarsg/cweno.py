"""Third-order central WENO reconstructions, 1D and genuinely 2D.

The 1D reconstruction blends the exact-averages parabola with two one-sided
linear polynomials; the 2D one blends a full quadratic with four sectorial
planes and is evaluated at the two Gauss points of every face, so that face
flux integrals retain third order without dimensional splitting.  Nonlinear
weights use Jiang-Shu style smoothness indicators.
"""

from __future__ import annotations

import math

import numpy as np

EPS_DEFAULT = 1e-6
POWER_DEFAULT = 2
#: optimal linear weights: central / one-sided
D_CENTRAL_1D = 0.5
D_SIDE_1D = 0.25
D_CENTRAL_2D = 0.5
D_SECTOR_2D = 0.125

GAUSS_OFFSET = 0.5 / math.sqrt(3.0)  # face Gauss points at +- this, cell widths normalized


def _weight(d: float, beta: np.ndarray, eps: float, power: int) -> np.ndarray:
    """Unnormalized nonlinear weight d / (eps + beta)^power.

    Integer powers are expanded by hand; float pow on full arrays costs
    roughly 8x an elementwise multiply.
    """
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


def cweno3_edges(u: np.ndarray, eps: float = EPS_DEFAULT,
                 power: int = POWER_DEFAULT) -> tuple[np.ndarray, np.ndarray]:
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


def cweno3_face_values(u: np.ndarray, eps: float = EPS_DEFAULT,
                       power: int = POWER_DEFAULT) -> np.ndarray:
    """Truly-2D reconstruction at the 2 Gauss points of each of the 4 faces.

    ``u`` is indexed (x-cell, y-cell, ...) and the result drops one cell per
    side in both directions; output shape is (4, 2, nx-2, ny-2, ...) with
    face order (west, east, south, north) and Gauss points ordered by
    increasing tangential coordinate.  Every stage is a vectorized numpy
    pass over the whole array, trailing axes included.
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
    out = np.empty((4, 2) + uc.shape, dtype=u.dtype)
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
    return out

