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

Initial data is projected by one :func:`project` call for all the pieces
of a preset: the Gauss nodes of the stochastic cells that no breakpoint
splits are built once per call, and each piece's row is bit for bit the
one that a call with that piece alone gives.
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
_PANEL_INDEX = np.arange(PROJECT_PANELS + 1, dtype=float)


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

def _panel_rule(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of :func:`gauss_rule` on ``PROJECT_PANELS`` equal
    panels of each interval [lo, hi], the nodes of an interval contiguous.

    The panel edges are ``np.linspace(lo, hi, PROJECT_PANELS + 1, axis=1)``
    by its own arithmetic, k * ((hi - lo) / PROJECT_PANELS) + lo and hi at
    the end, without its overhead per call: no interval is empty, so no
    step is zero, which is the one case where linspace computes otherwise.
    An interval's nodes do not depend on the intervals beside it.
    """
    panel_edges = _PANEL_INDEX * ((hi - lo) / PROJECT_PANELS)[:, None] + lo[:, None]
    panel_edges[:, -1] = hi
    return gauss_rule(panel_edges[:, :-1], panel_edges[:, 1:])


def _cuts(cell_edges: np.ndarray, breakpoints) -> dict[int, list]:
    """The breakpoints that split a stochastic cell, by cell in ascending
    order.

    A breakpoint splits only the cell it lies strictly inside, and is
    dropped within 1e-15 of the previous edge of that cell.
    """
    ncell = len(cell_edges) - 1
    cuts = {}
    for brk in sorted(breakpoints):
        # cell_edges[c] <= brk < cell_edges[c + 1]; the 1e-15 rule drops brk
        # on the left edge, NaN and values outside [0, 1) get no cell
        c = int(np.searchsorted(cell_edges, brk, side="right")) - 1
        if 0 <= c < ncell and brk - (cuts[c][-1] if c in cuts else cell_edges[c]) > 1e-15:
            cuts.setdefault(c, []).append(brk)
    return cuts


def project(t: GalerkinTensor,
            pieces: Sequence[tuple[Callable[[np.ndarray], np.ndarray], Sequence[float]]]
            ) -> np.ndarray:
    """gPC modes of functions of xi: u_k = <f, phi_k> under the uniform law,
    one row per ``(f, breakpoints)`` piece.

    Each ``f`` is evaluated once, on the composite nodes of
    :func:`gauss_rule` (computed once, at import) on 8 panels per piece of
    every stochastic cell.  ``breakpoints`` cut a cell into pieces exactly
    at known discontinuities of ``f`` so piecewise-smooth data projects
    exactly; only breakpoints strictly inside a cell split it, and one
    within 1e-15 of the previous edge is dropped.  The nodes of the cells
    that no breakpoint splits are built once per call and shared by every
    piece; a split cell's nodes are spliced in for its piece alone.  The
    per-cell integrals of a piece come from one segmented sum and are mapped
    to modes by one product with ``H`` (piecewise-constant kinds) or the
    per-subdomain pair of local modes (piecewise-linear).  So each row is
    bit for bit what a call with that piece alone gives: nodes and weights
    are elementwise in the interval ends, and the product has one row.
    """
    basis = t.basis
    ncell = basis.cells
    per_piece = PROJECT_PANELS * PROJECT_GAUSS_POINTS
    cell_edges = np.arange(ncell + 1) / ncell
    shared_nodes, shared_weights = _panel_rule(cell_edges[:-1], cell_edges[1:])
    shared_starts = np.arange(ncell) * per_piece
    modes = np.empty((len(pieces), basis.size))
    for row, (f, breakpoints) in zip(modes, pieces):
        # each cell's pieces are contiguous: one segment per cell
        nodes, weights, starts = shared_nodes, shared_weights, shared_starts
        cuts = _cuts(cell_edges, breakpoints)
        if cuts:
            node_parts, weight_parts, done = [], [], 0
            starts = shared_starts.copy()
            for c, brks in cuts.items():
                lo = np.array([cell_edges[c], *brks])
                split_nodes, split_weights = _panel_rule(lo, np.append(lo[1:], cell_edges[c + 1]))
                node_parts += [shared_nodes[done:c * per_piece], split_nodes]
                weight_parts += [shared_weights[done:c * per_piece], split_weights]
                done = (c + 1) * per_piece
                starts[c + 1:] += len(brks) * per_piece
            nodes = np.concatenate(node_parts + [shared_nodes[done:]])
            weights = np.concatenate(weight_parts + [shared_weights[done:]])
        vals = np.asarray(f(nodes), dtype=float)
        if vals.shape != nodes.shape:
            vals = np.broadcast_to(vals, nodes.shape)
        if not np.all(np.isfinite(vals)):
            raise ValueError("projected function returned non-finite values")
        weighted = weights * vals
        if basis.is_piecewise_constant:
            row[:] = basis.H @ np.add.reduceat(weighted, starts)
            continue
        n = basis.subdomains
        node_cells = np.repeat(np.arange(ncell), np.diff(starts, append=nodes.size))
        row[0::2] = np.add.reduceat(weighted * np.sqrt(n), starts)
        row[1::2] = np.add.reduceat(
            weighted * (np.sqrt(3 * n) * (2 * n * nodes - 2 * node_cells - 1)), starts)
    return modes
