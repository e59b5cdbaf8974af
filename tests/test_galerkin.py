import numpy as np
import pytest

from galerkin_reference import (eigen_derivative_check, triple_products,
                                worst_commutator)
from haarsg import (Admissibility, AdmissibilityError, abs_modes,
                    build_classical_haar, build_dct, build_piecewise_linear,
                    build_tensors, convex_root_objective, evaluate_wavelet,
                    from_spectrum, galerkin_matrix, galerkin_product,
                    is_admissible, jacobian_abs, jacobian_pnorm, jacobian_power,
                    moment_modes, nth_root_modes, pnorm_modes, power_modes,
                    project, sign_modes, to_spectrum)

T0 = build_tensors(build_classical_haar(0))
T2 = build_tensors(build_classical_haar(2))
TD = build_tensors(build_dct(4))
TP = build_tensors(build_piecewise_linear(2))
PC_TENSORS = (T0, T2, TD, build_tensors(build_dct(8)))


def spectral_projection(t, func, modes):
    """Independent oracle: quadrature projection of the pointwise map."""
    ncell = t.size if t.basis.is_piecewise_constant else t.basis.subdomains
    breaks = tuple(np.arange(1, ncell) / ncell)

    def f(xi):
        vals = sum(modes[k] * evaluate_wavelet(t.basis, k, xi) for k in range(t.size))
        return func(vals)

    return project(t, f, breakpoints=breaks)


def test_build_tensors_level0():
    M = triple_products(T0.basis)
    assert np.array_equal(M[0], np.eye(2))
    assert np.allclose(M[1], [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)


def test_m0_is_identity_for_piecewise_constant():
    for t in PC_TENSORS:
        assert np.abs(triple_products(t.basis)[0] - np.eye(t.size)).max() < 1e-15
        assert np.abs(galerkin_matrix(t, np.eye(t.size)[0]) - np.eye(t.size)).max() < 1e-15


def test_tensors_symmetric_and_diagonalized():
    for t in PC_TENSORS + (TP,):
        for m in triple_products(t.basis):
            assert np.abs(m - m.T).max() < 1e-15
            d = t.Hn.T @ m @ t.Hn
            assert np.abs(d - np.diag(np.diag(d))).max() < 1e-12


def test_piecewise_linear_blocks():
    M = triple_products(build_piecewise_linear(1))
    assert np.abs(M[0] - np.eye(2)).max() < 1e-15
    m1 = M[1]
    assert np.abs(m1 - m1.T).max() < 1e-15
    w, v = np.linalg.eigh(m1)
    assert np.abs(v @ v.T - np.eye(2)).max() < 1e-14
    assert worst_commutator(triple_products(build_piecewise_linear(2))) < 1e-10


def test_galerkin_matrix_examples():
    assert np.array_equal(galerkin_matrix(T0, [1.0, 0.0]), np.eye(2))
    assert np.allclose(galerkin_matrix(T0, [2.0, 1.0]), [[2.0, 1.0], [1.0, 2.0]])
    assert np.array_equal(galerkin_matrix(T0, [0.0, 0.0]), np.zeros((2, 2)))


def test_galerkin_product_examples():
    q = np.array([2.0, -1.0])
    assert np.allclose(galerkin_product(T0, [1.0, 0.0], q), q, atol=1e-15)
    assert np.allclose(galerkin_product(T0, [2.0, 1.0], [2.0, -1.0]), [3.0, 0.0])
    assert np.allclose(galerkin_product(T0, [2.0, 1.0], [2.0, 1.0]), [5.0, 4.0])


def test_galerkin_product_symmetry_is_exact():
    rng = np.random.default_rng(7)
    for t in PC_TENSORS + (TP,):
        a = rng.normal(size=t.size)
        b = rng.normal(size=t.size)
        assert np.array_equal(galerkin_product(t, a, b), galerkin_product(t, b, a))


def test_galerkin_product_matches_matrix_route():
    rng = np.random.default_rng(8)
    for t in PC_TENSORS + (TP,):
        a = rng.normal(size=t.size)
        b = rng.normal(size=t.size)
        assert np.allclose(galerkin_product(t, a, b), galerkin_matrix(t, a) @ b,
                           atol=1e-12)


def test_product_associativity():
    rng = np.random.default_rng(9)
    for t in PC_TENSORS:
        a, b, c = rng.normal(size=(3, t.size))
        left = galerkin_product(t, galerkin_product(t, a, b), c)
        right = galerkin_product(t, a, galerkin_product(t, b, c))
        assert np.allclose(left, right, atol=1e-12)


def test_spectrum_examples_and_roundtrip():
    assert np.allclose(to_spectrum(T0, [2.0, 1.0]), [3.0, 1.0])
    c = 2.5
    assert np.allclose(to_spectrum(T2, c * np.eye(8)[0]), np.full(8, c))
    rng = np.random.default_rng(11)
    for t in PC_TENSORS + (TP,):
        u = rng.normal(size=t.size)
        assert np.allclose(from_spectrum(t, to_spectrum(t, u)), u, atol=1e-12)


def test_spectral_identity_against_eigensolver():
    rng = np.random.default_rng(12)
    for t in PC_TENSORS:
        for _ in range(20):
            u = rng.normal(size=t.size)
            ev = np.sort(np.linalg.eigvalsh(galerkin_matrix(t, u)))
            assert np.abs(ev - np.sort(to_spectrum(t, u))).max() < 1e-10


def test_project_examples():
    assert np.allclose(project(T2, lambda xi: np.full_like(xi, 3.25)),
                       3.25 * np.eye(8)[0], atol=1e-14)
    assert np.allclose(project(T0, lambda xi: np.sign(xi - 0.5)), [0.0, -1.0],
                       atol=1e-15)
    for t in PC_TENSORS:
        assert project(t, lambda xi: xi)[0] == pytest.approx(0.5, abs=1e-14)


def test_project_breakpoints_make_discontinuity_exact():
    brk = 0.3125  # interior to a stochastic cell of T2
    modes = project(T2, lambda xi: np.where(xi < brk, -1.0, 1.0), breakpoints=(brk,))
    exact = np.array([evaluate_wavelet(T2.basis, k, np.array([brk / 2]))[0]
                      for k in range(8)])  # unused; direct integral below
    cell = int(8 * brk)
    avg = np.full(8, 1.0)
    avg[:cell] = -1.0
    avg[cell] = ((brk - cell / 8) * (-1.0) + ((cell + 1) / 8 - brk) * 1.0) * 8
    expected = T2.basis.H @ avg / 8
    assert np.allclose(modes, expected, atol=1e-14)


def test_project_rejects_non_finite():
    with pytest.raises(ValueError):
        project(T0, lambda xi: np.where(xi > 0.4, np.inf, 1.0))


def test_power_examples():
    u = np.array([2.0, 1.0])
    assert np.allclose(power_modes(T0, u, 1.0), u, atol=1e-15)
    assert np.allclose(power_modes(T0, [3.0, 0.0], 2.0), [9.0, 0.0], atol=1e-14)
    assert np.allclose(power_modes(T0, u, 2.0), galerkin_product(T0, u, u), atol=1e-13)


def test_power_rejects_negative_spectrum():
    with pytest.raises(AdmissibilityError) as err:
        power_modes(T0, [0.0, 1.0], 1.5)  # spectrum (1, -1)
    assert err.value.index == 1


def test_sign_examples():
    assert np.allclose(sign_modes(T2, 4.0 * np.eye(8)[0]), np.eye(8)[0], atol=1e-15)
    assert np.allclose(sign_modes(T0, [-2.0, 1.0]), [-1.0, 0.0], atol=1e-15)
    assert np.array_equal(sign_modes(T0, [0.0, 0.0]), [0.0, 0.0])


def test_abs_examples():
    assert np.allclose(abs_modes(T0, [-2.0, 1.0]), [2.0, -1.0], atol=1e-15)
    u = np.array([5.0, 1.0])  # spectrum (6, 4) all positive
    assert np.allclose(abs_modes(T0, u), u, atol=1e-15)
    assert np.allclose(jacobian_abs(T0, [-5.0, 1.0]), -np.eye(2), atol=1e-14)


def test_abs_equals_sign_product():
    rng = np.random.default_rng(13)
    for t in PC_TENSORS:
        u = rng.normal(size=t.size)
        assert np.allclose(abs_modes(t, u),
                           galerkin_product(t, sign_modes(t, u), u), atol=1e-13)


def test_pnorm_examples():
    u1 = np.array([3.0, 1.0])
    assert np.allclose(pnorm_modes(T0, [u1], 2.0), abs_modes(T0, u1), atol=1e-14)
    assert np.allclose(pnorm_modes(T0, [u1, np.zeros(2)], 2.0), u1, atol=1e-14)
    out = pnorm_modes(T0, [np.array([0.0, 1.0]), np.array([1.0, 0.0])], 2.0)
    assert np.allclose(out, [np.sqrt(2.0), 0.0], atol=1e-14)


def test_nth_root_examples():
    assert np.allclose(nth_root_modes(T0, [5.0, 4.0], 2), [2.0, 1.0], atol=1e-14)
    assert np.allclose(nth_root_modes(T2, 4.0 * np.eye(8)[0], 2), 2.0 * np.eye(8)[0],
                       atol=1e-14)
    u = np.array([2.0, 2.0])  # spectrum (4, 0): vanishing eigenvalue allowed
    assert np.allclose(to_spectrum(T0, nth_root_modes(T0, u, 2)), [2.0, 0.0],
                       atol=1e-14)
    assert np.allclose(power_modes(T0, nth_root_modes(T0, [5.0, 4.0], 2), 2.0),
                       [5.0, 4.0], atol=1e-12)


def test_convex_root_objective_examples():
    value, grad = convex_root_objective(T0, [1.0, 0.0], [1.0, 0.0], 2)
    assert np.allclose(grad, 0.0, atol=1e-15)
    _, grad = convex_root_objective(T0, [5.0, 4.0], [2.0, 1.0], 2)
    assert np.allclose(grad, 0.0, atol=1e-13)
    rng = np.random.default_rng(14)
    for n in (2, 3):
        rho = from_spectrum(T2, rng.uniform(0.1, 4.0, 8))
        _, grad = convex_root_objective(T2, rho, nth_root_modes(T2, rho, n), n)
        assert np.linalg.norm(grad) < 1e-8


def test_moment_examples():
    u = np.array([2.0, 1.0])
    assert np.array_equal(moment_modes(T0, u, 1), u)
    assert np.allclose(moment_modes(T0, u, 3), [14.0, 13.0], atol=1e-13)
    rng = np.random.default_rng(15)
    w = rng.normal(size=8)
    m2 = moment_modes(T2, w, 2)
    assert np.allclose(moment_modes(T2, w, 4), galerkin_product(T2, m2, m2),
                       atol=1e-10)


def test_is_admissible_examples():
    kind, mn = is_admissible(T0, [2.0, 1.0])
    assert kind is Admissibility.STRICTLY_POSITIVE and mn == pytest.approx(1.0)
    kind, mn = is_admissible(T0, [1.0, 1.0])
    assert kind is Admissibility.SEMI_POSITIVE and mn == pytest.approx(0.0)
    kind, mn = is_admissible(T0, [0.0, 1.0])
    assert kind is Admissibility.INDEFINITE and mn == pytest.approx(-1.0)


def test_eigen_derivative_check():
    rng = np.random.default_rng(16)
    u, q = rng.normal(size=(2, 8))
    assert eigen_derivative_check(T2, u, q) < 1e-6
    assert eigen_derivative_check(T2, u, np.zeros(8)) == 0.0
    # q = e1 makes the right side Hn.T exactly
    assert eigen_derivative_check(T2, u, np.eye(8)[0]) < 1e-9


POWERS = (4.0 / 3.0, 2.0, 3.0)


def test_ops_match_quadrature_projection():
    rng = np.random.default_rng(17)
    for t in PC_TENSORS:
        pos = from_spectrum(t, rng.uniform(0.2, 3.0, t.size))
        anyu = from_spectrum(t, rng.uniform(-2.0, 2.0, t.size))
        for gamma in POWERS:
            assert np.allclose(power_modes(t, pos, gamma),
                               spectral_projection(t, lambda v: v ** gamma, pos),
                               atol=1e-12)
        assert np.allclose(sign_modes(t, anyu),
                           spectral_projection(t, np.sign, anyu), atol=1e-12)
        assert np.allclose(abs_modes(t, anyu),
                           spectral_projection(t, np.abs, anyu), atol=1e-12)
        for n in (2, 3):
            assert np.allclose(nth_root_modes(t, pos, n),
                               spectral_projection(t, lambda v: v ** (1.0 / n), pos),
                               atol=1e-12)


def central_difference_jacobian(op, u, h=1e-6):
    n = len(u)
    jac = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        jac[:, j] = (op(u + e) - op(u - e)) / (2.0 * h)
    return jac


def test_jacobians_match_finite_differences():
    rng = np.random.default_rng(18)
    t = T2
    pos = from_spectrum(t, rng.uniform(0.5, 2.0, t.size))
    for gamma in POWERS:
        jac = jacobian_power(t, pos, gamma)
        fd = central_difference_jacobian(lambda v: power_modes(t, v, gamma), pos)
        assert np.abs(jac - fd).max() / np.abs(jac).max() < 1e-5
    signed = from_spectrum(t, rng.uniform(0.3, 2.0, t.size)
                           * rng.choice([-1.0, 1.0], t.size))
    fd = central_difference_jacobian(lambda v: abs_modes(t, v), signed)
    assert np.abs(jacobian_abs(t, signed) - fd).max() < 1e-5
    comps = [from_spectrum(t, rng.uniform(0.3, 2.0, t.size)
                           * rng.choice([-1.0, 1.0], t.size)) for _ in range(2)]
    for i in range(2):
        fd = central_difference_jacobian(
            lambda v: pnorm_modes(t, [v if i == 0 else comps[0],
                                      comps[1] if i == 0 else v], 2.0), comps[i])
        jac = jacobian_pnorm(t, comps, 2.0, i)
        assert np.abs(jac - fd).max() / max(np.abs(jac).max(), 1.0) < 1e-5


def test_jacobian_power_zero_spectrum_rules():
    u_semi = np.array([1.0, 1.0])  # spectrum (2, 0)
    jacobian_power(T0, u_semi, 2.0)  # gamma >= 1 tolerates zero eigenvalues
    with pytest.raises(AdmissibilityError):
        jacobian_power(T0, u_semi, 0.5)


def test_power_consistency_decay():
    gamma = 4.0 / 3.0
    errors = []
    for level in range(5):
        t = build_tensors(build_classical_haar(level))
        modes = power_modes(t, project(t, lambda xi: 1.0 + xi), gamma)
        nodes = np.linspace(0.0, 1.0, 4001)[:-1] + 0.5 / 4000
        approx = sum(modes[k] * evaluate_wavelet(t.basis, k, nodes)
                     for k in range(t.size))
        errors.append(np.sqrt(np.mean((approx - (1.0 + nodes) ** gamma) ** 2)))
    assert all(errors[i] > errors[i + 1] for i in range(4)), errors
