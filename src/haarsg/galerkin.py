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

The frame is stored once per basis, as two C-contiguous matrices laid out
for a product from the right (spectrum = modes @ eig_map.T); for
piecewise-constant kinds the first is the basis matrix ``H`` itself.
:func:`to_spectrum` and :func:`from_spectrum`, the solver's transforms
too, run one matrix product per block of rows that merge without a copy:
one block for a 1D interface array or a whole field, one per Gauss node
and x row for a 2D face slice.  For a state of several components that is
bitwise one product per (components, K+1) cell block, because a row of a
product of two or more rows does not depend on the rows around it; a
one-row product rounds differently, below 1e-14 relative.

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
    indexed by stochastic cell) and ``eig_inv`` its closed-form inverse,
    each the transposed view of a C-contiguous matrix that multiplies from
    the right.  The Galerkin matrix of any mode vector u follows from these
    as eig_inv diag(eig_map u) eig_map, and M_k is that matrix for the unit
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
    of P(u) is H.T u, the realizations on the stochastic cells: ``eig_map``
    is a view of ``H`` itself.  The piecewise-linear kind has one 2x2 block
    sqrt(N) [[a, b], [b, a]] per subdomain, all diagonalized by the block
    eigenvectors (1, +-1)/sqrt(2).  Commutation therefore holds by
    construction for every basis of :mod:`haarsg.basis`.
    """
    if basis.is_piecewise_constant:
        forward = basis.H
        inverse = np.ascontiguousarray(basis.H.T) / basis.size
    else:  # both maps are symmetric
        root = np.sqrt(float(basis.subdomains))
        block = np.array([[1.0, 1.0], [1.0, -1.0]])
        eye = np.eye(basis.subdomains)
        forward = np.kron(eye, root * block) + 0.0  # clear kron's negative zeros
        inverse = np.kron(eye, block / (2.0 * root))
    for a in (forward, inverse):
        a.setflags(write=False)
    return GalerkinTensor(basis, forward.T, inverse.T)


# ---------------------------------------------------------------------------
# spectral transforms

def _row_blocks(a: np.ndarray) -> np.ndarray:
    """``a`` (..., m) seen as (lead..., rows, m) without a copy, with the
    fewest leading axes that allow it: one block for a contiguous array,
    one per Gauss node and x row of a 2D face slice."""
    for lead in range(a.ndim):
        try:
            return a.reshape(a.shape[:lead] + (-1, a.shape[-1]), copy=False)
        except ValueError:
            pass  # lead max(a.ndim - 2, 0) always reshapes


def _transform(a: np.ndarray, matrix: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """``a @ matrix`` over the last axis as one matrix product per block of
    ``_row_blocks``, written into ``out`` if given.  ``out`` must take the
    blocks' shape without a copy; if it cannot, reshape raises instead of
    the product landing in a copy."""
    a = np.asarray(a)
    rows = _row_blocks(a)
    if out is None:
        return np.matmul(rows, matrix).reshape(a.shape)
    np.matmul(rows, matrix, out=out.reshape(rows.shape, copy=False))
    return out


def to_spectrum(t: GalerkinTensor, modes: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
    """Diagonal of Hn.T P(u) Hn, applied along the last axis, written into
    ``out`` if given."""
    return _transform(modes, t.eig_map.T, out)


def from_spectrum(t: GalerkinTensor, spectrum: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Exact inverse of :func:`to_spectrum`, applied along the last axis."""
    return _transform(spectrum, t.eig_inv.T, out)


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
