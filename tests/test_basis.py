import numpy as np
import pytest

from galerkin_reference import triple_products, worst_commutator
from haarsg import (BasisError, build_canonical_haar, build_classical_haar,
                    build_dct, build_piecewise_linear, build_tensors,
                    custom_basis, evaluate_wavelet, galerkin_matrix)

ALL_BASES = (
    [build_classical_haar(j) for j in range(5)]
    + [build_dct(n) for n in (2, 4, 8, 16)]
    + [build_canonical_haar(n) for n in range(2, 9)]
    + [build_piecewise_linear(n) for n in (1, 2, 3, 4)]
)


def test_classical_haar_level0_matrix():
    basis = build_classical_haar(0)
    assert np.array_equal(basis.H, [[1.0, 1.0], [1.0, -1.0]])


def test_classical_haar_level1_rows():
    basis = build_classical_haar(1)
    s = np.sqrt(2.0)
    expected = np.array([
        [1, 1, 1, 1],
        [1, 1, -1, -1],
        [s, -s, 0, 0],
        [0, 0, s, -s],
    ])
    assert np.allclose(basis.H, expected, atol=1e-15)


def test_classical_haar_level2_orthogonality():
    basis = build_classical_haar(2)
    assert basis.size == 8
    assert np.abs(basis.H @ basis.H.T - 8 * np.eye(8)).max() < 1e-12


def test_classical_haar_level_bounds():
    with pytest.raises(BasisError):
        build_classical_haar(-1)
    with pytest.raises(BasisError):
        build_classical_haar(13)


def test_canonical_haar_size2():
    basis = build_canonical_haar(2)
    assert np.allclose(basis.H, [[1.0, 1.0], [-1.0, 1.0]])


def test_canonical_haar_size3_norms_and_orthogonality():
    basis = build_canonical_haar(3)
    norms = np.linalg.norm(basis.H, axis=1)
    assert np.allclose(norms, np.sqrt(3.0), atol=1e-14)
    gram = basis.H @ basis.H.T
    assert np.abs(gram - np.diag(np.diag(gram))).max() < 1e-13


def test_canonical_haar_size8_commutes():
    worst = worst_commutator(triple_products(build_canonical_haar(8)))
    assert worst < 1e-10, worst


def test_canonical_block_rotation():
    theta = 0.3
    rot = np.eye(3)
    rot[:2, :2] = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    basis = build_canonical_haar(4, block=rot)
    assert np.abs(basis.H @ basis.H.T - 4 * np.eye(4)).max() < 1e-12
    with pytest.raises(BasisError):
        build_canonical_haar(4, block=np.ones((3, 3)))


def test_dct_first_row_ones():
    for n in (2, 5, 8):
        assert np.allclose(build_dct(n).H[0], 1.0)


def test_dct_orthogonality_size4():
    basis = build_dct(4)
    assert np.abs(basis.H @ basis.H.T - 4 * np.eye(4)).max() < 1e-12


def test_dct_size8_tensors_commute():
    assert worst_commutator(triple_products(build_dct(8))) < 1e-10


def test_size_validation():
    for build in (build_canonical_haar, build_dct):
        with pytest.raises(BasisError):
            build(1)
    with pytest.raises(BasisError):
        build_piecewise_linear(0)


def test_piecewise_linear_orthonormal_rows():
    for n in (1, 2, 3):
        basis = build_piecewise_linear(n)
        assert basis.size == 2 * n
        assert np.abs(basis.H @ basis.H.T - np.eye(2 * n)).max() < 1e-14


def test_custom_basis_validation():
    custom_basis(build_classical_haar(1).H)  # valid matrix passes
    with pytest.raises(BasisError):
        custom_basis(np.array([[1.0, 1.0], [0.5, -0.5]]))  # bad row norm
    with pytest.raises(BasisError):
        custom_basis(np.array([[1.0, -1.0], [1.0, 1.0]]))  # first row not ones


@pytest.mark.parametrize("basis", ALL_BASES, ids=lambda b: f"{b.kind.value}-{b.size}")
def test_normalized_matrix_is_orthogonal(basis):
    hn = basis.normalized
    assert np.abs(hn @ hn.T - np.eye(basis.size)).max() < 1e-12


@pytest.mark.parametrize("basis", ALL_BASES, ids=lambda b: f"{b.kind.value}-{b.size}")
def test_tensors_commute(basis):
    worst = worst_commutator(triple_products(basis))
    assert worst < 1e-10, f"worst commutator {worst:.3e}"


@pytest.mark.parametrize("basis", ALL_BASES, ids=lambda b: f"{b.kind.value}-{b.size}")
def test_galerkin_matrix_matches_triple_products(basis):
    tensors = build_tensors(basis)
    for k, m in enumerate(triple_products(basis)):
        assert np.abs(galerkin_matrix(tensors, np.eye(basis.size)[k]) - m).max() < 1e-12


def test_evaluate_wavelet_examples():
    b0 = build_classical_haar(0)
    assert evaluate_wavelet(b0, 0, 0.3) == 1.0
    assert evaluate_wavelet(b0, 1, 0.7) == -1.0
    b1 = build_classical_haar(1)
    assert evaluate_wavelet(b1, 2, 0.1) == pytest.approx(np.sqrt(2.0), abs=1e-15)


def test_evaluate_wavelet_bounds():
    basis = build_classical_haar(0)
    with pytest.raises(BasisError):
        evaluate_wavelet(basis, 2, 0.5)
    with pytest.raises(BasisError):
        evaluate_wavelet(basis, 0, 1.0)
    with pytest.raises(BasisError):
        evaluate_wavelet(basis, 0, -0.1)


@pytest.mark.parametrize("basis", [b for b in ALL_BASES if b.is_piecewise_constant],
                         ids=lambda b: f"{b.kind.value}-{b.size}")
def test_wavelet_midpoints_reproduce_rows(basis):
    n = basis.size
    mids = (np.arange(n) + 0.5) / n
    for k in range(n):
        assert np.array_equal(evaluate_wavelet(basis, k, mids), basis.H[k])


@pytest.mark.parametrize("basis", ALL_BASES, ids=lambda b: f"{b.kind.value}-{b.size}")
def test_wavelet_orthonormality_under_uniform_law(basis):
    # dense quadrature of <phi_i, phi_j>: piecewise-polynomial, exact per cell
    ncell = basis.size if basis.is_piecewise_constant else basis.subdomains
    from numpy.polynomial.legendre import leggauss
    xg, wg = leggauss(4)
    nodes = np.concatenate([(xg * 0.5 + c + 0.5) / ncell for c in range(ncell)])
    weights = np.tile(wg * 0.5 / ncell, ncell)
    phi = np.stack([evaluate_wavelet(basis, k, nodes) for k in range(basis.size)])
    gram = (phi * weights) @ phi.T
    assert np.abs(gram - np.eye(basis.size)).max() < 1e-12


def test_piecewise_linear_wavelet_values():
    basis = build_piecewise_linear(2)
    # constant mode of subdomain 1 is sqrt(2) on [1/2, 1), zero before
    assert evaluate_wavelet(basis, 2, 0.25) == 0.0
    assert evaluate_wavelet(basis, 2, 0.75) == pytest.approx(np.sqrt(2.0))
    # linear mode vanishes at the subdomain midpoint
    assert evaluate_wavelet(basis, 3, 0.75) == pytest.approx(0.0, abs=1e-14)


def test_cell_midpoints_layout():
    basis = build_classical_haar(1)
    assert np.allclose(basis.cell_midpoints(), [0.125, 0.375, 0.625, 0.875])
    pl = build_piecewise_linear(1)
    g = 0.5 / np.sqrt(3.0)
    assert np.allclose(pl.cell_midpoints(), [0.5 + g / 1, 0.5 - g / 1])
