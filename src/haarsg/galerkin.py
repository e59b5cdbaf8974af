"""Galerkin eigenframe, spectral transforms and the projection of initial data.

Every Haar-type basis shares one constant eigenvector frame Hn, so the
Galerkin matrix of any mode vector u is P(u) = Hn diag(d) Hn.T where the
spectrum d depends linearly on u.  Because all P(u) are diagonal in the same
frame they commute by construction, and only the frame and the two linear
maps u <-> d are stored; no (K+1)^3 triple-product tensor is built.  For
piecewise-constant bases d holds the realizations of the expansion on the
stochastic cells; every nonlinear Galerkin operation is an entrywise map on
d followed by the inverse transform, which is how the solver applies the
model maps.  The named closed-form operations (powers, roots, |u|, p-norms,
moments, the Galerkin product) are that one map with a fixed function; no
run calls them, and they live in ``tests/galerkin_reference.py`` as oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .basis import HaarTypeBasis

PROJECT_PANELS = 8
PROJECT_GAUSS_POINTS = 5
_GAUSS_NODES, _GAUSS_WEIGHTS = leggauss(PROJECT_GAUSS_POINTS)


def gauss_rule(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 5-point Gauss-Legendre rule on each interval
    [lo, hi], the five of an interval contiguous in the flat arrays."""
    half, mid = 0.5 * (hi - lo)[..., None], 0.5 * (lo + hi)[..., None]
    return (half * _GAUSS_NODES + mid).ravel(), (half * _GAUSS_WEIGHTS).ravel()


@dataclass(frozen=True)
class GalerkinTensor:
    """The shared eigenvector frame of all Galerkin matrices of a basis.

    ``eig_map`` is the linear map modes -> spectrum (eigenvalues of P,
    indexed by stochastic cell) and ``eig_inv`` its closed-form inverse.
    The Galerkin matrix of any mode vector u follows from these as
    eig_inv diag(eig_map u) eig_map, and M_k is that matrix for the unit
    vector e_k, so the (K+1)^3 triple products are never stored.
    """

    basis: HaarTypeBasis
    eig_map: np.ndarray
    eig_inv: np.ndarray

    @property
    def size(self) -> int:
        return self.basis.size


def build_tensors(basis: HaarTypeBasis) -> GalerkinTensor:
    """Assemble the eigenframe of a basis in O((K+1)^2) memory.

    Piecewise-constant kinds have M_k = Hn diag(H[k]) Hn.T with Hn = H / sqrt(K+1),
    so every M_k is diagonalized by the same orthogonal Hn and the spectrum
    of P(u) is H.T u, the realizations on the stochastic cells.  The
    piecewise-linear kind has one 2x2 block sqrt(N) [[a, b], [b, a]] per
    subdomain, all diagonalized by the block eigenvectors (1, +-1)/sqrt(2).
    Commutation therefore holds by construction for every basis of
    :mod:`haarsg.basis`.
    """
    n = basis.size
    if basis.is_piecewise_constant:
        eig_map = basis.H.T.copy()
        eig_inv = basis.H / n
    else:
        root = np.sqrt(float(basis.subdomains))
        block = np.array([[1.0, 1.0], [1.0, -1.0]])
        eye = np.eye(basis.subdomains)
        eig_map = np.kron(eye, root * block) + 0.0  # clear kron's negative zeros
        eig_inv = np.kron(eye, block / (2.0 * root))
    for a in (eig_map, eig_inv):
        a.setflags(write=False)
    return GalerkinTensor(basis, eig_map, eig_inv)


# ---------------------------------------------------------------------------
# spectral transforms

def to_spectrum(t: GalerkinTensor, modes: np.ndarray) -> np.ndarray:
    """Diagonal of Hn.T P(u) Hn, applied along the last axis."""
    return np.asarray(modes) @ t.eig_map.T


def from_spectrum(t: GalerkinTensor, spectrum: np.ndarray) -> np.ndarray:
    """Exact inverse of :func:`to_spectrum`, applied along the last axis."""
    return np.asarray(spectrum) @ t.eig_inv.T


# ---------------------------------------------------------------------------
# projection

def _pieces(ncell: int, breakpoints) -> tuple[np.ndarray, np.ndarray]:
    """Left ends and stochastic cells of the pieces between breakpoints.

    A breakpoint splits only the cell it lies strictly inside, and is
    dropped within 1e-15 of the previous edge of that cell.  The pieces
    come out in ascending order, so each cell's pieces are contiguous.
    """
    cell_edges = np.arange(ncell + 1) / ncell
    lo, cells = [cell_edges[:-1]], [np.arange(ncell)]
    last_edge = {}
    for brk in sorted(breakpoints):
        # cell_edges[c] <= brk < cell_edges[c + 1]; the 1e-15 rule drops brk
        # on the left edge, NaN and values outside [0, 1) get no cell
        c = int(np.searchsorted(cell_edges, brk, side="right")) - 1
        if 0 <= c < ncell and brk - last_edge.get(c, cell_edges[c]) > 1e-15:
            last_edge[c] = brk
            lo.append([brk])
            cells.append([c])
    lo, cells = np.concatenate(lo), np.concatenate(cells)
    order = np.argsort(lo)
    return lo[order], cells[order]


def project(t: GalerkinTensor, f: Callable[[np.ndarray], np.ndarray],
            breakpoints: Sequence[float] = ()) -> np.ndarray:
    """gPC modes of a function of xi: u_k = <f, phi_k> under the uniform law.

    One pass: ``f`` is evaluated once, on the composite nodes of
    :func:`gauss_rule` (computed once, at import) on 8 panels per piece of every
    stochastic cell.  ``breakpoints`` cut a cell into pieces exactly at
    known discontinuities of ``f`` so piecewise-smooth data projects
    exactly; only breakpoints strictly inside a cell split it, and one
    within 1e-15 of the previous edge is dropped.  The per-cell integrals
    come from one segmented sum and are mapped to modes by one product
    with ``H`` (piecewise-constant kinds) or the per-subdomain pair of
    local modes (piecewise-linear).
    """
    basis = t.basis
    lo, cells = _pieces(basis.cells, breakpoints)
    hi = np.append(lo[1:], 1.0)
    panel_edges = np.linspace(lo, hi, PROJECT_PANELS + 1, axis=1)
    nodes, weights = gauss_rule(panel_edges[:, :-1], panel_edges[:, 1:])
    vals = np.asarray(f(nodes), dtype=float)
    if vals.shape != nodes.shape:
        vals = np.broadcast_to(vals, nodes.shape)
    if not np.all(np.isfinite(vals)):
        raise ValueError("projected function returned non-finite values")
    # each cell's pieces are contiguous: segment starts where the cell changes
    per_piece = PROJECT_PANELS * PROJECT_GAUSS_POINTS
    starts = np.flatnonzero(np.diff(cells, prepend=-1)) * per_piece
    weighted = weights * vals
    if basis.is_piecewise_constant:
        return basis.H @ np.add.reduceat(weighted, starts)
    n = basis.subdomains
    node_cells = np.repeat(cells, per_piece)
    modes = np.empty(basis.size)
    modes[0::2] = np.add.reduceat(weighted * np.sqrt(n), starts)
    modes[1::2] = np.add.reduceat(
        weighted * (np.sqrt(3 * n) * (2 * n * nodes - 2 * node_cells - 1)), starts)
    return modes
