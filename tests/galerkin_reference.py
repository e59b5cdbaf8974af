"""Test-only oracles for the Galerkin eigenframe and the projection.

They compute from the wavelets themselves what ``haarsg.galerkin`` derives
from the shared eigenframe, so tests can check the one against the other.
``evaluate_wavelet`` and ``expansion_values`` give the wavelets and the
truncated expansion pointwise: the oracle of the node read-out that
``haarsg.reference`` scores runs with.
The dense Galerkin matrix P(u), the orthogonal eigenvector matrix Hn and
the custom bases (a user matrix, or canonical Haar with its wavelet rows
rotated by an orthogonal block) live here too: no run builds them.
``check_rows`` is the row check that a custom matrix must pass and that
the tests run on the builders' closed forms.
``project_reference`` is the cell-by-cell projection that the vectorized
``haarsg.project`` replaced, kept as its oracle.

The closed-form nonlinear gPC operations below (the Galerkin product,
powers, roots, sign and |u|, p-norms, moments, their Jacobians and the
admissibility class) are the paper's spectrum map with a fixed pointwise
function: each maps the spectrum ``to_spectrum(t, u)`` entrywise and
transforms back.  No run calls them; the tests check them against finite
differences, triple products and a quadrature projection of the pointwise
map.
"""

import math
from enum import Enum
from typing import Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from haarsg import (AdmissibilityError, BasisError, BasisKind, GalerkinTensor,
                    HaarTypeBasis, build_canonical_haar, from_spectrum, to_spectrum)
from haarsg.galerkin import PROJECT_GAUSS_POINTS, PROJECT_PANELS

ORTHOGONALITY_TOL = 1e-12


def check_rows(H: np.ndarray, size: int) -> None:
    """Raise BasisError unless the rows of ``H`` are orthogonal with norm
    sqrt(``size``), to ``ORTHOGONALITY_TOL`` in H @ H.T / size."""
    resid = np.abs(H @ H.T / size - np.eye(size)).max()
    if resid > ORTHOGONALITY_TOL:
        raise BasisError(f"rows are not orthogonal with norm sqrt({size}): residual {resid:.3e}")


def evaluate_wavelet(basis: HaarTypeBasis, k: int, xi) -> float | np.ndarray:
    """Value of wavelet ``k`` at points ``xi`` in [0, 1)."""
    if not 0 <= k < basis.size:
        raise BasisError(f"wavelet index {k} out of range for size {basis.size}")
    xi_arr = np.asarray(xi, dtype=float)
    if np.any(xi_arr < 0.0) or np.any(xi_arr >= 1.0):
        raise BasisError("wavelet argument must lie in [0, 1)")
    if basis.is_piecewise_constant:
        cell = np.minimum((basis.size * xi_arr).astype(int), basis.size - 1)
        out = basis.H[k][cell]
    else:
        n = basis.subdomains
        block, local = divmod(k, 2)
        inside = (xi_arr >= block / n) & (xi_arr < (block + 1) / n)
        if local == 0:
            vals = math.sqrt(n) * np.ones_like(xi_arr)
        else:
            vals = math.sqrt(3 * n) * (2 * n * xi_arr - 2 * block - 1)
        out = np.where(inside, vals, 0.0)
    return float(out) if np.isscalar(xi) else out


def expansion_values(t: GalerkinTensor, modes: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Evaluate the truncated expansion of ``modes`` at points ``xi``: one
    product with the (K+1, len(xi)) matrix of wavelet values phi_k(xi_j)."""
    xi = np.asarray(xi, dtype=float)
    return np.asarray(modes) @ np.stack([evaluate_wavelet(t.basis, k, xi) for k in range(t.size)])


def custom_basis(H: np.ndarray) -> HaarTypeBasis:
    """Wrap a matrix as a piecewise-constant Haar-type basis.

    The matrix must have an all-ones first row and orthogonal rows of norm
    sqrt(K+1).  These row checks suffice: every Galerkin matrix of the basis
    is then diagonal in the frame H / sqrt(K+1), so they all commute.  The
    basis is labelled canonical Haar: ``haarsg`` branches on the kind only
    to tell piecewise-linear apart, so any piecewise-constant kind serves.
    """
    H = np.array(H, dtype=float)
    if H.ndim != 2 or H.shape[0] != H.shape[1] or H.shape[0] < 2:
        raise BasisError("custom basis must be a square matrix of size >= 2")
    size = H.shape[0]
    if np.abs(H[0] - 1.0).max() > ORTHOGONALITY_TOL:
        raise BasisError("custom basis must have an all-ones first row")
    check_rows(H, size)
    H.setflags(write=False)
    return HaarTypeBasis(BasisKind.CANONICAL_HAAR, size, H)


def rotated_canonical_haar(size: int, block: np.ndarray) -> HaarTypeBasis:
    """Canonical Haar with its K wavelet rows rotated by an orthogonal K x K block."""
    block = np.asarray(block, dtype=float)
    if block.shape != (size - 1, size - 1):
        raise BasisError(f"orthogonal block must be {size - 1}x{size - 1}")
    if np.abs(block @ block.T - np.eye(size - 1)).max() > ORTHOGONALITY_TOL:
        raise BasisError("supplied block is not orthogonal")
    H = build_canonical_haar(size).H.copy()
    H[1:] = block @ H[1:]
    return custom_basis(H)


def normalized(basis: HaarTypeBasis) -> np.ndarray:
    """Orthogonal eigenvector matrix Hn (Hn @ Hn.T == I)."""
    if basis.kind is BasisKind.PIECEWISE_LINEAR:
        return basis.H
    return basis.H / math.sqrt(basis.size)


def galerkin_matrix(t: GalerkinTensor, modes: np.ndarray) -> np.ndarray:
    """P(u) = sum_k u_k M_k = Hn diag(d(u)) Hn.T.

    Assembled as eig_inv diag(d) eig_map, the matrix of the Galerkin
    product v -> u * v; the unnormalized maps keep exact entries exact.
    """
    return (t.eig_inv * to_spectrum(t, modes)) @ t.eig_map


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
    w = normalized(t.basis).T @ q
    n = t.size
    lhs = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = step
        lhs[:, j] = (to_spectrum(t, u + e) - to_spectrum(t, u - e)) / (2.0 * step) * w
    rhs = normalized(t.basis).T @ galerkin_matrix(t, q)
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
    ncell = basis.cells
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


# ---------------------------------------------------------------------------
# closed-form nonlinear operations

#: spectrum values above this (tiny negative) threshold count as nonnegative
SEMI_POSITIVE_TOL = -1e-13


class Admissibility(Enum):
    STRICTLY_POSITIVE = "strictly-positive"
    SEMI_POSITIVE = "semi-positive"
    INDEFINITE = "indefinite"


def galerkin_product(t: GalerkinTensor, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Galerkin product a * b, evaluated through the shared eigenframe.

    The spectral route makes the symmetry in the arguments exact.
    """
    return from_spectrum(t, to_spectrum(t, a) * to_spectrum(t, b))


def _require_nonnegative(d: np.ndarray, what: str) -> np.ndarray:
    bad = np.flatnonzero(d < SEMI_POSITIVE_TOL)
    if bad.size:
        i = int(bad[np.argmin(d[bad])])
        raise AdmissibilityError(
            f"{what}: negative spectrum value {d[i]:.6e} in stochastic cell {i}", index=i)
    return np.maximum(d, 0.0)


def _require_positive(d: np.ndarray, what: str) -> np.ndarray:
    bad = np.flatnonzero(d <= 0.0)
    if bad.size:
        i = int(bad[np.argmin(d[bad])])
        raise AdmissibilityError(
            f"{what}: non-positive spectrum value {d[i]:.6e} in stochastic cell {i}", index=i)
    return d


def _conjugate(t: GalerkinTensor, diag: np.ndarray) -> np.ndarray:
    """Hn diag(d) Hn.T."""
    hn = normalized(t.basis)
    return (hn * diag) @ hn.T


def power_modes(t: GalerkinTensor, u: np.ndarray, gamma: float) -> np.ndarray:
    """Modes of u^gamma for gamma >= 1 and a nonnegative expansion."""
    d = _require_nonnegative(to_spectrum(t, u), f"power_modes(gamma={gamma})")
    return from_spectrum(t, d ** gamma)


def jacobian_power(t: GalerkinTensor, u: np.ndarray, gamma: float) -> np.ndarray:
    """Jacobian gamma Hn D^(gamma-1) Hn.T of :func:`power_modes`."""
    d = to_spectrum(t, u)
    if gamma < 1.0:
        d = _require_positive(d, f"jacobian_power(gamma={gamma})")
    else:
        d = _require_nonnegative(d, f"jacobian_power(gamma={gamma})")
    return gamma * _conjugate(t, d ** (gamma - 1.0))


def sign_modes(t: GalerkinTensor, u: np.ndarray) -> np.ndarray:
    """Modes of sign(u), with sign(0) := 0."""
    return from_spectrum(t, np.sign(to_spectrum(t, u)))


def abs_modes(t: GalerkinTensor, u: np.ndarray) -> np.ndarray:
    """Modes of |u|; coincides with sign_modes(u) * u."""
    return from_spectrum(t, np.abs(to_spectrum(t, u)))


def jacobian_abs(t: GalerkinTensor, u: np.ndarray) -> np.ndarray:
    """Generalized Jacobian Hn sign(D) Hn.T of :func:`abs_modes`."""
    return _conjugate(t, np.sign(to_spectrum(t, u)))


def pnorm_modes(t: GalerkinTensor, components: Sequence[np.ndarray], p: float) -> np.ndarray:
    """Modes of the p-norm of a vector-valued expansion, p >= 1."""
    if len(components) < 1:
        raise ValueError("pnorm_modes needs at least one component")
    if p < 1.0:
        raise ValueError(f"p-norm exponent must be >= 1, got {p}")
    spectra = np.stack([to_spectrum(t, c) for c in components])
    if len(components) == 1:
        return from_spectrum(t, np.abs(spectra[0]))
    if p == 2.0:
        norm = np.sqrt(np.sum(spectra * spectra, axis=0))
    else:
        norm = np.sum(np.abs(spectra) ** p, axis=0) ** (1.0 / p)
    return from_spectrum(t, norm)


def jacobian_pnorm(t: GalerkinTensor, components: Sequence[np.ndarray], p: float,
                   i: int) -> np.ndarray:
    """Jacobian of the p-norm modes with respect to component ``i``."""
    spectra = np.stack([to_spectrum(t, c) for c in components])
    c = np.sum(np.abs(spectra) ** p, axis=0)
    c = _require_positive(c, "jacobian_pnorm")
    entries = c ** (1.0 / p - 1.0) * np.abs(spectra[i]) ** (p - 1.0) * np.sign(spectra[i])
    return _conjugate(t, entries)


def nth_root_modes(t: GalerkinTensor, rho: np.ndarray, n: int) -> np.ndarray:
    """Modes of the n-th root of a nonnegative expansion, n >= 2."""
    if n < 2:
        raise ValueError(f"root order must be >= 2, got {n}")
    d = _require_nonnegative(to_spectrum(t, rho), f"nth_root_modes(n={n})")
    return from_spectrum(t, d ** (1.0 / n))


def convex_root_objective(t: GalerkinTensor, rho: np.ndarray, alpha: np.ndarray,
                          n: int) -> tuple[float, np.ndarray]:
    """Value and gradient of the convex n-th-root objective.

    eta(alpha) = e1.T P^{n+1}(alpha) e1 / (n+1) - rho.T alpha, with gradient
    P^n(alpha) e1 - rho.  For Haar-type bases the eigenvector-derivative
    error term vanishes; the gradient must be zero at nth_root_modes(rho, n).
    """
    d = to_spectrum(t, alpha)
    value = float(from_spectrum(t, d ** (n + 1))[0] / (n + 1) - np.dot(rho, alpha))
    gradient = from_spectrum(t, d ** n) - np.asarray(rho, dtype=float)
    return value, gradient


def moment_modes(t: GalerkinTensor, u: np.ndarray, m: int) -> np.ndarray:
    """Modes of the m-th Galerkin moment P^m(u) e1."""
    if m < 1:
        raise ValueError(f"moment order must be >= 1, got {m}")
    return from_spectrum(t, to_spectrum(t, u) ** m)


def is_admissible(t: GalerkinTensor, u: np.ndarray) -> tuple[Admissibility, float]:
    """Classify u by the minimum spectrum value of P(u)."""
    dmin = float(to_spectrum(t, u).min())
    if dmin > 0.0:
        return Admissibility.STRICTLY_POSITIVE, dmin
    if dmin >= SEMI_POSITIVE_TOL:
        return Admissibility.SEMI_POSITIVE, dmin
    return Admissibility.INDEFINITE, dmin

