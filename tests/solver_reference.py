"""Test-only oracles for the striped 2D reconstruction and LLF flux.

``face_values_reference`` and ``llf_reference`` are the whole-array forms
that ``haarsg.cweno.cweno3_face_values`` and ``SemiDiscreteSystem._llf``
replaced with strips along the x axis, kept as their oracles: the striped
forms do the same elementwise operations in the same order, so the two
must agree bit for bit.
"""

import numpy as np

from haarsg.cweno import (D_CENTRAL_2D, D_SECTOR_2D, EPS_DEFAULT, GAUSS_OFFSET,
                          POWER_DEFAULT, _weight)
from haarsg.models import check_admissible_values


def face_values_reference(u: np.ndarray, eps: float = EPS_DEFAULT,
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


def llf_reference(self, left_modes: np.ndarray, right_modes: np.ndarray,
                  axis: int) -> np.ndarray:
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
