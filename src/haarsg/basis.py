"""Construction of Haar-type wavelet bases.

A Haar-type basis of size K+1 is described by a matrix ``H`` whose first row
is all ones and whose rows are mutually orthogonal with Euclidean norm
sqrt(K+1), so that (1/sqrt(K+1)) * H is orthogonal.  Row k holds the values
of the wavelet ``phi_k`` on the K+1 equal subintervals of [0, 1); the
wavelets are orthonormal under the uniform law.  The piecewise-linear kind
is the exception: it stores the block eigenvector matrix of its Galerkin
blocks directly, with orthonormal rows.  The four kinds here are those a
run configuration can name, built from closed forms that no run checks
again; the tests check their rows, build their custom matrices and
evaluate wavelets pointwise in ``tests/galerkin_reference.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import BasisError

MAX_HAAR_LEVEL = 12
#: largest basis size K+1 of any kind: that of the finest classical Haar level
MAX_BASIS_SIZE = 2 ** (MAX_HAAR_LEVEL + 1)


class BasisKind(Enum):
    CLASSICAL_HAAR = "classical-haar"
    CANONICAL_HAAR = "canonical-haar"
    DCT = "dct"
    PIECEWISE_LINEAR = "piecewise-linear"


@dataclass(frozen=True)
class HaarTypeBasis:
    """A wavelet system generated by a Haar-type matrix.

    ``size`` is K+1.  For piecewise-constant kinds ``H[k, l]`` is the value
    of wavelet k on stochastic cell l and every row has norm sqrt(size); for
    the piecewise-linear kind ``H`` is the orthonormal block eigenvector
    matrix and ``subdomains`` holds N (size == 2 N).
    """

    kind: BasisKind
    size: int
    H: np.ndarray
    subdomains: int | None = None

    @property
    def is_piecewise_constant(self) -> bool:
        return self.kind is not BasisKind.PIECEWISE_LINEAR

    @property
    def cells(self) -> int:
        """Stochastic cells: the K+1 equal cells, or the N subdomains."""
        return self.size if self.is_piecewise_constant else self.subdomains

    def cell_midpoints(self) -> np.ndarray:
        """Stochastic quadrature points carrying the spectrum values.

        Piecewise-constant kinds: midpoints of the K+1 cells of [0, 1).
        Piecewise-linear: the two Gauss points of each of the N subdomains,
        ordered (upper, lower) per subdomain to match the spectrum layout.
        """
        if self.is_piecewise_constant:
            return (np.arange(self.size) + 0.5) / self.size
        n = self.subdomains
        h = 1.0 / n
        mids = (np.arange(n) + 0.5) * h
        offs = h / (2.0 * math.sqrt(3.0))
        return np.stack([mids + offs, mids - offs], axis=1).ravel()


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


def build_classical_haar(level: int) -> HaarTypeBasis:
    """Recursive Haar matrix on `level` J, rescaled to uniform row norms.

    The raw recursion H_J = [H_{J-1} (x) (1,1); I (x) (1,-1)] produces rows
    of unequal norm; each wavelet row is rescaled by 2^(j/2) so that all rows
    have norm sqrt(K+1) with K+1 = 2^(J+1).
    """
    if not 0 <= level <= MAX_HAAR_LEVEL:
        raise BasisError(f"classical Haar level must be in [0, {MAX_HAAR_LEVEL}], got {level}")
    H = np.array([[1.0, 1.0], [1.0, -1.0]])
    for _ in range(level):
        n = H.shape[0]
        top = np.kron(H, np.array([[1.0, 1.0]]))
        bottom = np.kron(np.eye(n), np.array([[1.0, -1.0]]))
        H = np.vstack([top, bottom])
    size = H.shape[0]
    norms = np.sqrt((H * H).sum(axis=1))
    H = H * (math.sqrt(size) / norms)[:, None]
    H += 0.0  # clear negative zeros produced by the recursion
    return HaarTypeBasis(BasisKind.CLASSICAL_HAAR, size, _freeze(H))


def build_canonical_haar(size: int) -> HaarTypeBasis:
    """Canonical Haar matrix H_c.

    Row i >= 1 (1-based) is (0, ..., 0, h_d, h_r, ..., h_r) with h_d in
    column i, where s_i = -(K+1-i), h_r = sqrt((K+1)/(s_i^2 - s_i)) and
    h_d = s_i h_r.  The denominator s_i^2 - s_i is what row orthogonality
    against the all-ones row forces.
    """
    if size < 2:
        raise BasisError(f"canonical Haar size must be >= 2, got {size}")
    H = np.ones((size, size))
    for i in range(1, size):
        s = -(size - i)
        hr = math.sqrt(size / (s * s - s))
        H[i, :i - 1] = 0.0
        H[i, i - 1] = s * hr
        H[i, i:] = hr
    return HaarTypeBasis(BasisKind.CANONICAL_HAAR, size, _freeze(H))


def build_dct(size: int) -> HaarTypeBasis:
    """Orthogonal DCT-II matrix scaled to row norm sqrt(K+1).

    Row 0 is all ones; row i > 0 has entries sqrt(2) cos(pi i (2j+1)/(2(K+1)))
    for columns j = 0..K.
    """
    if size < 2:
        raise BasisError(f"DCT size must be >= 2, got {size}")
    j = np.arange(size)
    H = np.ones((size, size))
    for i in range(1, size):
        H[i] = math.sqrt(2.0) * np.cos(np.pi * i * (2 * j + 1) / (2.0 * size))
    return HaarTypeBasis(BasisKind.DCT, size, _freeze(H))


def build_piecewise_linear(subdomains: int) -> HaarTypeBasis:
    """Piecewise-linear system: per subdomain a constant and a linear mode.

    On subdomain k the local pair is psi_{k,0} = sqrt(N) chi and
    psi_{k,1} = sqrt(3N) (2N xi - 2k - 1) chi, orthonormal under the uniform
    law.  The stored matrix is the block-diagonal eigenvector frame of the
    resulting 2x2 Galerkin blocks (orthonormal rows).
    """
    if subdomains < 1:
        raise BasisError(f"subdomain count must be >= 1, got {subdomains}")
    v = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    H = np.kron(np.eye(subdomains), v)
    return HaarTypeBasis(BasisKind.PIECEWISE_LINEAR, 2 * subdomains, _freeze(H),
                         subdomains=subdomains)

