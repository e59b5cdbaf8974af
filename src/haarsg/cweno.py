"""Third-order central WENO reconstructions, 1D and genuinely 2D.

The 1D reconstruction blends the exact-averages parabola with two one-sided
linear polynomials; the 2D one blends a full quadratic with four sectorial
planes and is evaluated at the two Gauss points of every face, so that face
flux integrals retain third order without dimensional splitting.  Nonlinear
weights d / (eps + beta)^3 use Jiang-Shu style smoothness indicators beta.

The 1D edges cut strips of whole rows along the x axis, each strip about
``STRIP_BYTES`` of input, so that their intermediates stay in a core's
cache; the 2D faces take the rows the pass hands them, which the solver's
2D right-hand side cuts in the same strips.  Every operation is
elementwise, so the result does not depend on where the strips are cut.

Work arrays: both reconstructions write every intermediate into arrays of
the ``Workspace`` they are given (seven arrays of one strip's size for the
1D edges, sixteen of the rows handed over for the 2D faces) and allocate
nothing else.  The 1D edges go into full-size arrays of the workspace.
The 2D faces go into ``out``: the solver's 2D right-hand side calls
``cweno3_face_values`` once per strip of x rows, into a strip-sized array
that keeps one more row in front for the east faces of the strip before,
so the face values never exist for the whole grid at once.
"""

from __future__ import annotations

import math

import numpy as np

from .workspace import Workspace

#: optimal linear weights: central / one-sided
D_CENTRAL_1D = 0.5
D_SIDE_1D = 0.25
D_CENTRAL_2D = 0.5
D_SECTOR_2D = 0.125

GAUSS_OFFSET = 0.5 / math.sqrt(3.0)  # face Gauss points at +- this, cell widths normalized

#: byte budget of one strip of rows in the reconstructions, the LLF flux, the
#: 2D right-hand side and the time step.  With the reconstruction in work
#: arrays, 128 KiB gave the fastest 100x100 Euler right-hand side (about
#: 85 ms against 100 ms at 512 KiB) and the smallest set of strip-sized
#: arrays; it also keeps the
#: temporaries of the model's flux and speed bound in the 1D LLF (400 cells x
#: 128 modes, four strips) small enough that the allocator reuses their pages
#: instead of returning and re-faulting them (a scalar level-6 run: 26k minor
#: page faults at 128 KiB, 200k at 256 KiB, 360k at 512 KiB).
STRIP_BYTES = 128 * 1024


def strip_rows(row_bytes: int, min_rows: int = 1) -> int:
    """Rows of a full strip: as many rows of ``row_bytes`` bytes as fit in
    ``STRIP_BYTES``, at least ``min_rows``."""
    return max(min_rows, STRIP_BYTES // max(row_bytes, 1))


def strips(n: int, row_bytes: int, min_rows: int = 1) -> list[tuple[int, int]]:
    """(start, stop) of consecutive strips covering ``n`` rows of ``row_bytes``
    bytes each: ``strip_rows`` rows per strip; a last strip shorter than
    ``min_rows`` joins the one before it."""
    rows = strip_rows(row_bytes, min_rows)
    bounds = list(range(0, n, rows)) + [n]
    if len(bounds) > 2 and n - bounds[-2] < min_rows:
        del bounds[-2]
    return list(zip(bounds[:-1], bounds[1:]))


def _weight(d: float, beta: np.ndarray, eps: float, out: np.ndarray,
            tmp: np.ndarray) -> np.ndarray:
    """Unnormalized nonlinear weight d / (eps + beta)^3, into ``out`` (which
    may be ``beta``), with the cube in ``tmp``; the cube is two multiplies,
    where float pow on full arrays costs roughly 8x an elementwise multiply."""
    t = np.add(beta, eps, out=out)
    den = np.multiply(t, t, out=tmp)
    den *= t
    return np.divide(d, den, out=out)


def cweno3_edges(u: np.ndarray, eps: float, work: Workspace,
                 rows: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Edge values (at the left/right cell faces) from 3-cell stencils.

    ``u`` is indexed by cell along axis 0 and may carry trailing axes; the
    result drops one cell on each end: entry i corresponds to cell i+1 of
    the input.  Returns ``(left, right)`` evaluated at x_{i-1/2}, x_{i+1/2}.
    Both are arrays of ``work``, filled strip by strip: output rows ``i:j``
    come from input rows ``i:j+2``, with about ``STRIP_BYTES`` of input
    rows per strip.  ``rows``, when ``u`` is a span of a longer line, is
    the line's output row count: the work arrays are made for that line,
    so that a widening span maps none anew.
    """
    n = u.shape[0] - 2
    line = n if rows is None else rows
    per_row = math.prod(u.shape[1:])
    left = work.array("edges.left", (n,) + u.shape[1:], reserve=line * per_row)
    right = work.array("edges.right", (n,) + u.shape[1:], reserve=line * per_row)
    strip_size = min(line, strip_rows(u[0].nbytes)) * per_row
    for i, j in strips(n, u[0].nbytes):
        _edges_strip(u[i:j + 2], eps, left[i:j], right[i:j], work, strip_size)
    return left, right


def _edges_strip(u: np.ndarray, eps: float, left: np.ndarray, right: np.ndarray,
                 work: Workspace, reserve: int) -> None:
    """Edge values of the interior rows of ``u`` into ``left`` and ``right``;
    every intermediate goes into one of seven strip-sized scratch arrays of
    ``work``, made with ``reserve`` elements."""
    s = [work.array(f"edges.{i}", left.shape, reserve) for i in range(7)]
    um, u0, up = u[:-2], u[1:-1], u[2:]
    dl = np.subtract(u0, um, out=s[0])
    dr = np.subtract(up, u0, out=s[1])
    curv = np.multiply(u0, 2.0, out=s[2])
    np.subtract(um, curv, out=curv)
    curv += up

    # beta_c = (13/12) curv^2 + 0.25 (dl + dr)^2
    sum_lr = np.add(dl, dr, out=s[3])
    quarter = np.multiply(sum_lr, 0.25, out=s[4])
    quarter *= sum_lr
    beta_c = np.multiply(curv, 13.0 / 12.0, out=s[3])
    beta_c *= curv
    beta_c += quarter

    # s[5] holds the cubes of the weights, then 1 / (al + ar + ac)
    wl = _weight(D_SIDE_1D, np.multiply(dl, dl, out=s[4]), eps, out=s[4], tmp=s[5])
    wr = _weight(D_SIDE_1D, np.multiply(dr, dr, out=s[6]), eps, out=s[6], tmp=s[5])
    wc = _weight(D_CENTRAL_1D, beta_c, eps, out=beta_c, tmp=s[5])
    inv = np.add(wl, wr, out=s[5])
    inv += wc
    np.divide(1.0, inv, out=inv)
    wl *= inv
    wr *= inv
    wc *= inv

    # candidates: one-sided linears and the central polynomial
    # P_opt = 2 P_parab - (P_L + P_R)/2, a parabola with coefficients
    # a = u0 - curv/12, b = (up - um)/2, c = curv (in normalized coordinates);
    # left = wl pl_left + wr pr_left + wc pc_left, and the same on the right
    half_dl, half_dr = dl, dr
    half_dl *= 0.5
    half_dr *= 0.5
    np.subtract(u0, half_dl, out=left)
    left *= wl
    np.add(u0, half_dl, out=right)
    right *= wl
    term = s[0]  # half_dl is spent
    np.subtract(u0, half_dr, out=term)
    term *= wr
    left += term
    np.add(u0, half_dr, out=term)
    term *= wr
    right += term
    half_b = np.subtract(up, um, out=s[1])  # half_dr is spent
    half_b *= 0.5
    half_b *= 0.5
    a_opt = np.divide(curv, 12.0, out=s[4])  # wl is spent
    np.subtract(u0, a_opt, out=a_opt)
    quarter_curv = curv
    quarter_curv *= 0.25
    # pc_left = a_opt - b/2 + curv/4, pc_right = a_opt + b/2 + curv/4
    for side, sign in ((left, np.subtract), (right, np.add)):
        sign(a_opt, half_b, out=term)
        term += quarter_curv
        term *= wc
        side += term


def cweno3_face_values(u: np.ndarray, eps: float, work: Workspace,
                       out: np.ndarray) -> np.ndarray:
    """Truly-2D reconstruction at the 2 Gauss points of each of the 4 faces.

    ``u`` is indexed (x-cell, y-cell, ...) and the result drops one cell per
    side in both directions; output shape is (4, 2, nx-2, ny-2, ...) with
    face order (west, east, south, north) and Gauss points ordered by
    increasing tangential coordinate; trailing axes are carried along.  All
    rows of ``u`` are one strip: every intermediate goes into one of sixteen
    arrays of ``work`` of the output's rows, so the caller cuts ``u`` in
    strips of rows to keep them in cache.
    """
    shape = (u.shape[0] - 2, u.shape[1] - 2) + u.shape[2:]
    s = [work.array(f"faces.{i}", shape) for i in range(16)]
    uc = u[1:-1, 1:-1]
    uw, ue = u[:-2, 1:-1], u[2:, 1:-1]
    us, un = u[1:-1, :-2], u[1:-1, 2:]

    # one-sided slopes feed both the sectorial planes and the central betas
    bxw = np.subtract(uc, uw, out=s[0])
    bxe = np.subtract(ue, uc, out=s[1])
    bys = np.subtract(uc, us, out=s[2])
    byn = np.subtract(un, uc, out=s[3])
    b = np.add(bxw, bxe, out=s[4])
    b *= 0.5
    c = np.add(bys, byn, out=s[5])
    c *= 0.5
    dxx = np.subtract(bxe, bxw, out=s[6])
    dxx *= 0.5
    dyy = np.subtract(byn, bys, out=s[7])
    dyy *= 0.5
    # f = 0.25 * ((u[2:, 2:] - u[:-2, 2:]) - (u[2:, :-2] - u[:-2, :-2]))
    f = np.subtract(u[2:, 2:], u[:-2, 2:], out=s[8])
    t = np.subtract(u[2:, :-2], u[:-2, :-2], out=s[9])
    f -= t
    f *= 0.25

    # optimal central candidate P_opt = 2 Q - mean(planes): quadratic terms
    # double, linear terms stay, constant a_opt = uc - (dxx + dyy)/6;
    # beta_c = b^2 + c^2 + (52/3) (dxx^2 + dyy^2) + (26/3) f^2
    beta_c = np.multiply(b, b, out=s[10])
    beta_c += np.multiply(c, c, out=t)
    np.multiply(dxx, dxx, out=t)
    t += np.multiply(dyy, dyy, out=s[11])
    t *= 52.0 / 3.0
    beta_c += t
    np.multiply(f, 26.0 / 3.0, out=t)
    t *= f
    beta_c += t
    bxw2 = np.multiply(bxw, bxw, out=s[9])
    bxe2 = np.multiply(bxe, bxe, out=s[11])
    bys2 = np.multiply(bys, bys, out=s[12])
    byn2 = np.multiply(byn, byn, out=s[13])
    # s[14] holds the cubes of the weights; each square is overwritten by
    # the last weight that needs it
    pw = s[14]
    a_c = _weight(D_CENTRAL_2D, beta_c, eps, out=beta_c, tmp=pw)
    a_sw = _weight(D_SECTOR_2D, np.add(bxw2, bys2, out=s[15]), eps, out=s[15], tmp=pw)
    a_se = _weight(D_SECTOR_2D, np.add(bxe2, bys2, out=bys2), eps, out=bys2, tmp=pw)
    a_nw = _weight(D_SECTOR_2D, np.add(bxw2, byn2, out=bxw2), eps, out=bxw2, tmp=pw)
    a_ne = _weight(D_SECTOR_2D, np.add(bxe2, byn2, out=byn2), eps, out=byn2, tmp=pw)
    inv = np.add(a_c, a_sw, out=pw)
    inv += a_se
    inv += a_nw
    inv += a_ne
    np.divide(1.0, inv, out=inv)
    wc, wsw, wse, wnw, wne = a_c, a_sw, a_se, a_nw, a_ne
    for w in (wc, wsw, wse, wnw, wne):
        w *= inv

    # blended polynomial coefficients (planes share the constant uc):
    # A = uc - wc (dxx + dyy) / 6
    A = np.add(dxx, dyy, out=s[14])  # inv is spent
    A /= 6.0
    A *= wc
    np.subtract(uc, A, out=A)
    # B = wc b + (wsw + wnw) bxw + (wse + wne) bxe, C likewise along y
    t = s[11]  # bxe2 is spent
    B, C = b, c
    for coef, (w1, w2, slope1), (w3, w4, slope2) in (
            (B, (wsw, wnw, bxw), (wse, wne, bxe)),
            (C, (wsw, wse, bys), (wnw, wne, byn))):
        coef *= wc
        np.add(w1, w2, out=t)
        t *= slope1
        coef += t
        np.add(w3, w4, out=t)
        t *= slope2
        coef += t
    # DXX = (2 wc) dxx, DYY = (2 wc) dyy, F = (2 wc) f
    wc *= 2.0
    DXX, DYY, F = dxx, dyy, f
    for coef in (DXX, DYY, F):
        coef *= wc

    g = GAUSS_OFFSET
    base, slope = s[0], s[1]  # bxw and bxe are spent
    # west/east faces: xi = -+1/2, eta = -+g; south/north: eta = -+1/2, xi = -+g.
    # base = A + normal * h + normal2 * h^2 + tangent2 * g^2,
    # slope = (tangent + F * h) * g
    for fi, h, (normal, tangent, normal2, tangent2) in (
            (0, -0.5, (B, C, DXX, DYY)), (1, 0.5, (B, C, DXX, DYY)),
            (2, -0.5, (C, B, DYY, DXX)), (3, 0.5, (C, B, DYY, DXX))):
        np.multiply(normal, h, out=base)
        np.add(A, base, out=base)
        base += np.multiply(normal2, h * h, out=slope)
        base += np.multiply(tangent2, g * g, out=slope)
        np.multiply(F, h, out=slope)
        np.add(tangent, slope, out=slope)
        slope *= g
        np.subtract(base, slope, out=out[fi, 0])
        np.add(base, slope, out=out[fi, 1])
    return out
