"""Test-only oracles for the Galerkin eigenframe.

They compute from the wavelets themselves what ``haarsg.galerkin`` derives
from the shared eigenframe, so tests can check the one against the other.
"""

import math

import numpy as np

from haarsg import evaluate_wavelet, galerkin_matrix, to_spectrum


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
