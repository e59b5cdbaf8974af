"""Test-only oracles for the Galerkin eigenframe and the projection.

They compute from the wavelets themselves what ``haarsg.galerkin`` derives
from the shared eigenframe, so tests can check the one against the other.
``project_reference`` is the cell-by-cell projection that the vectorized
``haarsg.project`` replaced, kept as its oracle.
"""

import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from haarsg import evaluate_wavelet, galerkin_matrix, to_spectrum
from haarsg.galerkin import PROJECT_GAUSS_POINTS, PROJECT_PANELS


def triple_products(basis) -> np.ndarray:
    """E[phi_k phi_i phi_j] under the uniform law, indexed [k, i, j].

    Piecewise-constant wavelets are sampled at the cell midpoints (the
    product is constant on each cell); piecewise-linear ones with 2-point
    Gauss per subdomain, which is exact for their cubic products.
    """
    if basis.is_piecewise_constant:
        n = basis.size
        nodes = (np.arange(n) + 0.5) / n
        weights = np.full(n, 1.0 / n)
    else:
        n = basis.subdomains
        mids = (np.arange(n) + 0.5) / n
        offset = 0.5 / (n * math.sqrt(3.0))
        nodes = np.concatenate([mids - offset, mids + offset])
        weights = np.full(2 * n, 0.5 / n)
    phi = np.stack([evaluate_wavelet(basis, k, nodes) for k in range(basis.size)])
    return np.einsum("kq,iq,jq,q->kij", phi, phi, phi, weights)


def worst_commutator(matrices: np.ndarray) -> float:
    """Largest entry of any pairwise commutator of a stack of matrices."""
    worst = 0.0
    for i in range(len(matrices) - 1):
        rest = matrices[i + 1:]
        comm = matrices[i] @ rest - rest @ matrices[i]
        worst = max(worst, float(np.abs(comm).max()))
    return worst


def eigen_derivative_check(t, u: np.ndarray, q: np.ndarray, step: float = 1e-6) -> float:
    """Residual of the eigenvalue-derivative identity.

    The left side differentiates alpha -> D(alpha) (Hn.T q) by central finite
    differences per coordinate; the right side is Hn.T P(q) exactly.
    """
    u = np.asarray(u, dtype=float)
    q = np.asarray(q, dtype=float)
    w = t.Hn.T @ q
    n = t.size
    lhs = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = step
        lhs[:, j] = (to_spectrum(t, u + e) - to_spectrum(t, u - e)) / (2.0 * step) * w
    rhs = t.Hn.T @ galerkin_matrix(t, q)
    return float(np.abs(lhs - rhs).max())


def _cell_quadrature(a: float, b: float, breakpoints) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss nodes/weights on [a, b], panels split at breakpoints."""
    xg, wg = leggauss(PROJECT_GAUSS_POINTS)
    edges = [a]
    for brk in sorted(breakpoints):
        if a < brk < b and brk - edges[-1] > 1e-15:
            edges.append(brk)
    edges.append(b)
    nodes, weights = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        panel_edges = np.linspace(lo, hi, PROJECT_PANELS + 1)
        for p0, p1 in zip(panel_edges[:-1], panel_edges[1:]):
            half = 0.5 * (p1 - p0)
            nodes.append(half * xg + 0.5 * (p0 + p1))
            weights.append(half * wg)
    return np.concatenate(nodes), np.concatenate(weights)


def project_reference(t, f, breakpoints=()) -> np.ndarray:
    """gPC modes of a function of xi, one stochastic cell at a time."""
    basis = t.basis
    ncell = basis.size if basis.is_piecewise_constant else basis.subdomains
    modes = np.zeros(basis.size)
    for c in range(ncell):
        a, b = c / ncell, (c + 1) / ncell
        nodes, weights = _cell_quadrature(a, b, breakpoints)
        vals = np.asarray(f(nodes), dtype=float)
        if vals.shape != nodes.shape:
            vals = np.broadcast_to(vals, nodes.shape)
        if not np.all(np.isfinite(vals)):
            raise ValueError("projected function returned non-finite values")
        if basis.is_piecewise_constant:
            modes += basis.H[:, c] * np.sum(weights * vals)
        else:
            n = basis.subdomains
            p0 = np.sqrt(n) * np.ones_like(nodes)
            p1 = np.sqrt(3 * n) * (2 * n * nodes - 2 * c - 1)
            modes[2 * c] = np.sum(weights * vals * p0)
            modes[2 * c + 1] = np.sum(weights * vals * p1)
    return modes
