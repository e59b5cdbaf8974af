"""Property tests of the algebraic identities, over every basis kind.

Examples are derandomized and kept few, so the file runs in about a second
and gives the same result on every run.
"""

import numpy as np
from galerkin_reference import (abs_modes, galerkin_matrix, galerkin_product, power_modes,
                                rotated_canonical_haar, sign_modes)
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from haarsg import (build_canonical_haar, build_classical_haar, build_dct,
                    build_piecewise_linear, build_tensors, from_spectrum,
                    parse_config, render_config, to_spectrum)
from haarsg.config import BASIS_KINDS, BOUNDARY_NAMES, RunConfig
from haarsg.models import PRESETS

SETTINGS = settings(max_examples=40, deadline=None, database=None, derandomize=True)


def _custom(size: int, seed: int):
    """Canonical Haar rotated by a random orthogonal block, wrapped as custom."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(size - 1, size - 1)))
    return rotated_canonical_haar(size, q)


bases = st.one_of(
    st.integers(0, 4).map(build_classical_haar),
    st.integers(2, 24).map(build_dct),
    st.integers(2, 24).map(build_canonical_haar),
    st.integers(1, 12).map(build_piecewise_linear),
    st.builds(_custom, st.integers(2, 16), st.integers(0, 2 ** 32 - 1)),
)
values = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


@st.composite
def tensors_and_modes(draw, count: int, nonnegative_spectrum: bool = False):
    """A basis's tensors and ``count`` mode vectors of it."""
    tensors = build_tensors(draw(bases))
    if nonnegative_spectrum:
        spectra = [draw(arrays(np.float64, tensors.size, elements=st.floats(0.0, 2.0)))
                   for _ in range(count)]
        return (tensors, *(from_spectrum(tensors, d) for d in spectra))
    return (tensors, *(draw(arrays(np.float64, tensors.size, elements=values))
                       for _ in range(count)))


def assert_close(t, got, want, *operands):
    """Equal up to the rounding of K+1-term sums of products of the operands."""
    scale = np.prod([max(1.0, np.abs(to_spectrum(t, u)).max()) for u in operands])
    assert np.abs(got - want).max() <= 1e-13 * t.size * scale


@SETTINGS
@given(tensors_and_modes(1))
def test_spectrum_round_trip(case):
    t, u = case
    assert_close(t, from_spectrum(t, to_spectrum(t, u)), u, u)


@SETTINGS
@given(tensors_and_modes(3))
def test_galerkin_product_commutative_and_associative(case):
    t, a, b, c = case
    assert np.array_equal(galerkin_product(t, a, b), galerkin_product(t, b, a))
    assert_close(t, galerkin_product(t, galerkin_product(t, a, b), c),
                 galerkin_product(t, a, galerkin_product(t, b, c)), a, b, c)


@SETTINGS
@given(tensors_and_modes(2))
def test_galerkin_matrix_applies_the_product(case):
    t, a, b = case
    assert_close(t, galerkin_matrix(t, a) @ b, galerkin_product(t, a, b), a, b)


@SETTINGS
@given(tensors_and_modes(1, nonnegative_spectrum=True))
def test_square_is_self_product(case):
    t, u = case
    assert_close(t, power_modes(t, u, 2.0), galerkin_product(t, u, u), u, u)


@SETTINGS
@given(tensors_and_modes(1))
def test_abs_is_sign_times_value(case):
    t, u = case
    assert_close(t, abs_modes(t, u), galerkin_product(t, sign_modes(t, u), u), u)


def _basis_fields(kind: str):
    if kind == "classical-haar":
        return st.fixed_dictionaries({"basis_level": st.integers(0, 12)})
    if kind == "piecewise-linear":
        return st.fixed_dictionaries({"basis_subdomains": st.integers(1, 4096)})
    return st.fixed_dictionaries({"basis_size": st.integers(2, 8192)})


finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def grid_bounds(draw, domain):
    """(min, max) overrides of one axis, each None or finite, such that the
    bounds the grid is built from (override, else ``domain``) increase."""
    lo, hi = sorted(draw(st.lists(finite, min_size=2, max_size=2, unique=True)))
    if draw(st.booleans()) and domain[0] < hi:
        lo = None
    if draw(st.booleans()) and (domain[0] if lo is None else lo) < domain[1]:
        hi = None
    return lo, hi


def _config(kind, preset, basis, x_bounds, y_bounds=(None, None), **kw):
    (x_min, x_max), (y_min, y_max) = x_bounds, y_bounds
    return RunConfig(basis_kind=kind, preset=preset, **basis, x_min=x_min, x_max=x_max,
                     y_min=y_min, y_max=y_max, **kw)


def _configs(kind: str, preset: str):
    # a 1D preset has no y axis: no ny and no y bounds are drawn for it
    spec = PRESETS[preset]
    y_axis = {}
    if spec.space_dim == 2:
        y_axis = {"ny": st.none() | st.integers(8, 10 ** 5),
                  "y_bounds": grid_bounds(spec.domain[1])}
    return st.builds(
        _config, st.just(kind), st.just(preset), _basis_fields(kind),
        x_bounds=grid_bounds(spec.domain[0]),
        **y_axis,
        t_final=st.none() | st.floats(0.0, 10.0),
        cfl=st.floats(0.01, 0.99),
        seed=st.integers(0, 2 ** 40),
        nx=st.none() | st.integers(8, 10 ** 5),
        boundary=st.none() | st.sampled_from(BOUNDARY_NAMES),
        out_dir=st.text("abcXYZ019_./-", min_size=1, max_size=24),
        stride=st.integers(0, 1000),
        reference=st.none() | st.sampled_from(spec.references),
        ref_samples=st.integers(1, 10 ** 4),
        ref_refine=st.integers(1, 16),
        ref_level=st.none() | st.integers(0, 12),
    )


configs = st.tuples(st.sampled_from(tuple(BASIS_KINDS)),
                    st.sampled_from(sorted(PRESETS))).flatmap(lambda pair: _configs(*pair))


@SETTINGS
@given(configs)
def test_config_render_parse_round_trip(config):
    assert parse_config(render_config(config)) == config
