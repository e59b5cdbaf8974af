"""Galerkin eigenframe, spectral transforms and closed-form nonlinear gPC operations.

Every Haar-type basis shares one constant eigenvector frame Hn, so the
Galerkin matrix of any mode vector u is P(u) = Hn diag(d) Hn.T where the
spectrum d depends linearly on u.  Because all P(u) are diagonal in the same
frame they commute by construction, and only the frame and the two linear
maps u <-> d are stored; no (K+1)^3 triple-product tensor is built.  For
piecewise-constant bases d holds the realizations of the expansion on the
stochastic cells; all nonlinear operations reduce to entrywise maps on d
followed by the inverse transform.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .basis import HaarTypeBasis
from .errors import AdmissibilityError

#: spectrum values above this (tiny negative) threshold count as nonnegative
SEMI_POSITIVE_TOL = -1e-13

PROJECT_PANELS = 8
PROJECT_GAUSS_POINTS = 5


class Admissibility(Enum):
    STRICTLY_POSITIVE = "strictly-positive"
    SEMI_POSITIVE = "semi-positive"
    INDEFINITE = "indefinite"


@dataclass(frozen=True)
class GalerkinTensor:
    """The shared eigenvector frame of all Galerkin matrices of a basis.

    ``Hn`` is the orthogonal eigenvector matrix; ``eig_map`` the linear map
    modes -> spectrum (eigenvalues of P, indexed by stochastic cell) and
    ``eig_inv`` its closed-form inverse.  The Galerkin matrix of any mode
    vector follows from these as Hn diag(eig_map u) Hn.T, so the (K+1)^3
    triple products are never stored.
    """

    basis: HaarTypeBasis
    Hn: np.ndarray
    eig_map: np.ndarray
    eig_inv: np.ndarray

    @property
    def size(self) -> int:
        return self.basis.size


def build_tensors(basis: HaarTypeBasis) -> GalerkinTensor:
    """Assemble the eigenframe of a basis in O((K+1)^2) memory.

    Piecewise-constant kinds (custom included) have M_k = Hn diag(H[k]) Hn.T,
    so every M_k is diagonalized by the same orthogonal Hn and the spectrum
    of P(u) is H.T u, the realizations on the stochastic cells.  The
    piecewise-linear kind has one 2x2 block sqrt(N) [[a, b], [b, a]] per
    subdomain, all diagonalized by the block eigenvectors (1, +-1)/sqrt(2).
    Commutation therefore holds by construction for every basis that passes
    the row checks of :mod:`haarsg.basis`.
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
    return GalerkinTensor(basis, basis.normalized, eig_map, eig_inv)


# ---------------------------------------------------------------------------
# spectral transforms

def to_spectrum(t: GalerkinTensor, modes: np.ndarray) -> np.ndarray:
    """Diagonal of Hn.T P(u) Hn, applied along the last axis."""
    return np.asarray(modes) @ t.eig_map.T


def from_spectrum(t: GalerkinTensor, spectrum: np.ndarray) -> np.ndarray:
    """Exact inverse of :func:`to_spectrum`, applied along the last axis."""
    return np.asarray(spectrum) @ t.eig_inv.T


def galerkin_matrix(t: GalerkinTensor, modes: np.ndarray) -> np.ndarray:
    """P(u) = sum_k u_k M_k = Hn diag(d(u)) Hn.T.

    Assembled as eig_inv diag(d) eig_map, the matrix of v -> u * v under
    :func:`galerkin_product`; the unnormalized maps keep exact entries exact.
    """
    return (t.eig_inv * to_spectrum(t, modes)) @ t.eig_map


def galerkin_product(t: GalerkinTensor, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Galerkin product a * b, evaluated through the shared eigenframe.

    The spectral route makes the symmetry in the arguments exact.
    """
    return from_spectrum(t, to_spectrum(t, a) * to_spectrum(t, b))


# ---------------------------------------------------------------------------
# projection

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


def project(t: GalerkinTensor, f: Callable[[np.ndarray], np.ndarray],
            breakpoints: Sequence[float] = ()) -> np.ndarray:
    """gPC modes of a function of xi: u_k = <f, phi_k> under the uniform law.

    Cell integrals use composite 5-point Gauss-Legendre with 8 panels per
    stochastic cell; ``breakpoints`` splits panels exactly at known
    discontinuities of ``f`` so piecewise-smooth data projects exactly.
    """
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


# ---------------------------------------------------------------------------
# closed-form nonlinear operations

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
    return (t.Hn * diag) @ t.Hn.T


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

