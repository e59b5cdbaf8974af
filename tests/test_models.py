import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from model_reference import (INITIAL_ORACLES, LinearAdvection, check_admissible, flux,
                             is_admissible_state, jacobian, max_wave_speed, values_speeds,
                             wave_speeds)
from solver_reference import flux_reference, new_flux, new_speed_bound, speed_bound_reference
from test_basis import ALL_BASES

from haarsg import (AdmissibilityError, Euler2D, Grid, LevelSet2D, PSystem1D,
                    ScalarLipschitz, SemiDiscreteSystem, build_canonical_haar,
                    build_classical_haar, build_dct, build_piecewise_linear, build_tensors,
                    from_spectrum, get_preset, initial_data, project, to_spectrum)
from haarsg import models
from haarsg.workspace import Workspace

T0 = build_tensors(build_classical_haar(0))
T2 = build_tensors(build_classical_haar(2))
TD = build_tensors(build_dct(8))
E1 = np.eye(2)[0]


def det_state(t, *components):
    return np.stack([c * np.ones(t.size) * np.eye(t.size)[0] for c in components])


def test_scalar_flux_and_speeds():
    m = ScalarLipschitz()
    state = E1[None, :]
    assert np.allclose(flux(m, T0, state), 2.0 * state, atol=1e-15)
    (fam,) = wave_speeds(m, T0, state, [1.0])
    assert np.allclose(fam, 3.0)
    assert max_wave_speed(m, T0, state) == pytest.approx(3.0)
    assert max_wave_speed(m, T0, np.zeros((1, 2))) == pytest.approx(1.0)
    assert is_admissible_state(m, T0, state) == (True, np.inf)


def test_euler_deterministic_state():
    m = Euler2D(gamma=4.0 / 3.0)
    state = det_state(T0, 1.0, 0.0, 0.0)
    fx = flux(m, T0, state, 0)
    assert np.allclose(fx[0], 0.0, atol=1e-15)
    assert np.allclose(fx[1], E1, atol=1e-15)
    assert np.allclose(fx[2], 0.0, atol=1e-15)
    fams = wave_speeds(m, T0, state, (1.0, 0.0))
    sound = np.sqrt(4.0 / 3.0)
    assert np.allclose(fams[0], -sound) and np.allclose(fams[2], sound)
    assert np.allclose(fams[1], 0.0)
    assert max_wave_speed(m, T0, state, 0) == pytest.approx(sound)


def test_euler_admissibility():
    m = Euler2D()
    ok, mn = is_admissible_state(m, T0, det_state(T0, 1.0, 0.0, 0.0) * 0.5)
    assert ok and mn == pytest.approx(0.5)
    bad = np.stack([np.array([1.0, 1.0]), np.zeros(2), np.zeros(2)])
    ok, mn = is_admissible_state(m, T0, bad)
    assert not ok and mn == pytest.approx(0.0)
    with pytest.raises(AdmissibilityError):
        check_admissible(m, T0, bad)


def test_psystem_pressure_and_speeds():
    m = PSystem1D(vstar_values=np.full(2, 1.25))
    state = np.stack([np.zeros(2), E1])  # u = 0, v = 1 < v*
    fx = flux(m, T0, state)
    assert np.allclose(fx[0], E1, atol=1e-14)  # p(1) = 1
    assert np.allclose(fx[1], 0.0, atol=1e-15)
    fams = wave_speeds(m, T0, state, [1.0])
    assert np.allclose(fams[1], np.sqrt(5.0 / 3.0))
    # flux really is (p(v), -u)
    state2 = np.stack([E1, 2.0 * E1])
    assert np.allclose(flux(m, T0, state2)[1], -E1, atol=1e-15)


def test_psystem_pressure_continuous_at_kink():
    m = get_preset("psystem-riemann").galerkin_model(T2)
    vs = m.vstar_values
    below = m.pressure(vs * (1.0 - 1e-13))
    above = m.pressure(vs * (1.0 + 1e-13))
    assert np.abs(below - above).max() < 1e-12


def test_psystem_admissibility():
    m = PSystem1D(vstar_values=np.full(2, 1.25))
    ok, _ = is_admissible_state(m, T0, np.stack([np.zeros(2), E1]))
    assert ok
    ok, mn = is_admissible_state(m, T0, np.stack([np.zeros(2), np.array([1.0, 1.0])]))
    assert not ok and mn == pytest.approx(0.0)


def test_levelset_speeds_and_degeneracy():
    m = LevelSet2D(v_values=np.ones(2))
    state = np.stack([E1, np.zeros(2)])
    fams = wave_speeds(m, T0, state, (1.0, 0.0))
    assert np.allclose(fams[0], 1.0)
    assert np.allclose(fams[1], 0.0)
    # degenerate gradient: fallback keeps speeds finite and bounded by |v|
    fams = wave_speeds(m, T0, np.zeros((2, 2)), (1.0, 0.0))
    assert np.all(np.isfinite(fams[0]))
    assert max_wave_speed(m, T0, np.zeros((2, 2)), 0) == pytest.approx(1.0)


def test_levelset_flux_structure():
    m = LevelSet2D(v_values=np.full(2, 0.75))
    state = np.stack([det_state(T0, 0.6)[0], det_state(T0, 0.8)[0]])
    f1 = flux(m, T0, state, 0)
    f2 = flux(m, T0, state, 1)
    assert np.allclose(f1[0], 0.75 * 1.0 * E1, atol=1e-14)
    assert np.allclose(f1[1], 0.0, atol=1e-15)
    assert np.allclose(f2[0], 0.0, atol=1e-15)
    assert np.allclose(f2[1], 0.75 * E1, atol=1e-14)


def random_admissible(model, t, rng):
    if isinstance(model, Euler2D):
        d = [rng.uniform(0.5, 2.5, t.size), rng.uniform(-1.0, 1.0, t.size),
             rng.uniform(-1.0, 1.0, t.size)]
    elif isinstance(model, PSystem1D):
        v = rng.uniform(0.6, 2.5, t.size)
        v[np.abs(v - model.vstar_values) < 0.05] += 0.1  # stay off the kink
        d = [rng.uniform(-1.0, 1.0, t.size), v]
    elif isinstance(model, LevelSet2D):
        d = [rng.uniform(0.3, 2.0, t.size) * rng.choice([-1.0, 1.0], t.size),
             rng.uniform(0.3, 2.0, t.size) * rng.choice([-1.0, 1.0], t.size)]
    else:
        d = [rng.uniform(0.3, 2.0, t.size) * rng.choice([-1.0, 1.0], t.size)]
    return np.stack([from_spectrum(t, di) for di in d])


def make_models(t):
    return [ScalarLipschitz(),
            LevelSet2D(v_values=to_spectrum(t, project(t, [(lambda x: 0.5 + 0.5 * x, ())])[0])),
            get_preset("psystem-riemann").galerkin_model(t),
            Euler2D()]


@pytest.mark.parametrize("tensors", [T2, TD], ids=["haar-j2", "dct-8"])
def test_flux_collocation_consistency(tensors):
    rng = np.random.default_rng(21)
    for model in make_models(tensors):
        for _ in range(10):
            state = random_admissible(model, tensors, rng)
            for axis in range(model.space_dim):
                fx = flux(model, tensors, state, axis)
                direct = new_flux(model, to_spectrum(tensors, state), axis)
                assert np.abs(to_spectrum(tensors, fx) - direct).max() < 1e-12


@pytest.mark.parametrize("tensors", [T2, TD], ids=["haar-j2", "dct-8"])
def test_jacobian_spectrum_matches_deterministic_speeds(tensors):
    rng = np.random.default_rng(22)
    normals = {1: ([1.0],), 2: ((1.0, 0.0), (0.0, 1.0), (0.6, 0.8))}
    for model in make_models(tensors):
        for _ in range(10):
            state = random_admissible(model, tensors, rng)
            for n in normals[model.space_dim]:
                jac = jacobian(model, tensors, state, n)
                ev = np.sort(np.linalg.eigvals(jac).real)
                det = np.sort(np.concatenate(
                    values_speeds(model, to_spectrum(tensors, state), n)))
                assert np.abs(ev - det).max() < 1e-10


def test_speeds_finite_whenever_admissible():
    rng = np.random.default_rng(23)
    for model in make_models(T2):
        for _ in range(20):
            state = random_admissible(model, T2, rng)
            for n in ([1.0],) if model.space_dim == 1 else ((1.0, 0.0), (0.0, 1.0)):
                for fam in wave_speeds(model, T2, state, n):
                    assert np.all(np.isfinite(fam))


MAP_MODELS = [ScalarLipschitz(), LinearAdvection(speed=(1.0,)),
              LinearAdvection(speed=(0.7, -1.3)),
              LevelSet2D(v_values=np.linspace(0.5, 1.0, 8)),
              PSystem1D(vstar_values=np.linspace(1.0, 1.5, 8)),
              Euler2D(), Euler2D(gamma=2.0)]


def _map_values(model, rng):
    """Admissible values (5, 4, components, 8), with the models' kinks."""
    vals = rng.uniform(-2.0, 2.0, size=(5, 4, model.components, 8))
    if isinstance(model, Euler2D):
        vals[..., 0, :] = rng.uniform(0.2, 3.0, size=(5, 4, 8))
    elif isinstance(model, PSystem1D):
        vals[..., 1, :] = rng.uniform(0.6, 2.5, size=(5, 4, 8))
        vals[0, 0, 1] = model.vstar_values
    elif isinstance(model, LevelSet2D):
        vals[0, 0] = 0.0  # a degenerate gradient
    elif isinstance(model, ScalarLipschitz):
        vals[0, 0, 0, :2] = (0.0, -0.0)
    return vals


def _component_first(a):
    """A copy of ``a`` (..., components, m) laid out (components, ..., m)."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(a, -2, 0)), 0, -2)


@pytest.mark.parametrize("model", MAP_MODELS,
                         ids=lambda m: f"{m.name}-{m.space_dim}d-{getattr(m, 'gamma', '')}")
def test_model_maps_write_into_out_bit_for_bit(model):
    vals = _map_values(model, np.random.default_rng(31))
    for axis in range(model.space_dim):
        flux_expected = flux_reference(model, vals, axis)
        bound_expected = new_speed_bound(model, vals, axis)
        for view in (vals, _component_first(vals)):
            out = np.full_like(view, np.nan)  # keeps the layout of ``view``
            assert model.values_flux(view, axis, out=out) is out
            assert np.array_equal(out, flux_expected)
            bound = np.full(bound_expected.shape, np.nan)
            assert model.values_speed_bound(view, axis, out=bound) is bound
            assert np.array_equal(bound, bound_expected)


MAP_SETTINGS = settings(max_examples=60, deadline=None, database=None, derandomize=True)
SPECIAL = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308,
                           np.inf, -np.inf, np.nan, 1e17, -1e-17])


@MAP_SETTINGS
@given(arrays(np.float64, st.integers(1, 64), elements=st.floats() | SPECIAL))
def test_scalar_speed_bound_is_the_bound_of_both_kink_endpoints(u):
    vals = u[None, :]
    model = ScalarLipschitz()
    with np.errstate(over="ignore", invalid="ignore"):
        expected = speed_bound_reference(model, vals, 0)
        assert np.array_equal(new_speed_bound(model, vals, 0), expected, equal_nan=True)


@st.composite
def euler_states(draw):
    """Finite admissible Euler values (3, m): rho > 0, any finite momenta."""
    m = draw(st.integers(1, 16))
    rho = draw(arrays(np.float64, m, elements=st.floats(0.0, 1e300, exclude_min=True)))
    q = draw(arrays(np.float64, (2, m), elements=st.floats(-1e300, 1e300)))
    return np.concatenate([rho[None], q])


@MAP_SETTINGS
@given(euler_states(), st.sampled_from([4.0 / 3.0, 1.4, 5.0 / 3.0, 2.0]))
def test_euler_speed_bound_matches_the_nu_c_form(vals, gamma):
    model = Euler2D(gamma=gamma)
    with np.errstate(over="ignore"):
        for axis in (0, 1):
            assert np.array_equal(new_speed_bound(model, vals, axis),
                                  speed_bound_reference(model, vals, axis))


@MAP_SETTINGS
@given(st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=2),
       st.sampled_from([(1, 1, 4), (3, 1, 8), (2, 5, 1, 2)]))
def test_advection_speed_bound_matches_the_stacked_speeds_form(speed, shape):
    model = LinearAdvection(speed=tuple(speed))
    vals = np.zeros(shape)
    for axis in range(model.space_dim):
        expected = speed_bound_reference(model, vals, axis)
        assert np.array_equal(new_speed_bound(model, vals, axis), expected)


@MAP_SETTINGS
@given(arrays(np.float64, (4, 8), elements=st.floats(1e-3, 1e3)))
def test_psystem_one_power_per_value_matches_the_sign_blend(v):
    # kinks on both sides of v = 1.25**3, where the larger one-sided sound
    # speed changes branch, and far enough from 1 that the pressure blend
    # at a kink is not its left branch
    model = PSystem1D(vstar_values=np.geomspace(0.01, 100.0, 8))
    vs = model.vstar_values
    v = np.concatenate([v, [np.nextafter(vs, 0.0), vs, np.nextafter(vs, np.inf)]])
    vals = np.stack([np.zeros_like(v), v], axis=-2)
    assert np.array_equal(new_flux(model, vals, 0), flux_reference(model, vals, 0))
    assert np.array_equal(new_speed_bound(model, vals, 0), speed_bound_reference(model, vals, 0))


@pytest.mark.parametrize("bad", [0.0, -0.5])
def test_psystem_maps_never_see_a_non_positive_volume(monkeypatch, bad):
    """``check_admissible_values`` runs on every value array before the
    p-system's maps, which would raise 0 or a negative v to a negative
    power."""
    seen = []
    for name in ("values_flux", "values_speed_bound"):
        def spy(self, vals, axis, out, mapped=getattr(PSystem1D, name)):
            seen.append(vals[..., 1, :].min())
            return mapped(self, vals, axis, out)
        monkeypatch.setattr(PSystem1D, name, spy)
    preset = get_preset("psystem-riemann")
    grid = Grid(nx=64, x_bounds=preset.domain[0])
    xi = np.linspace(0.05, 0.95, 4)
    system = SemiDiscreteSystem(preset.batch_model(xi), grid)
    data = preset.det_initial(xi, grid)
    system.compute_dt(data, 0.45, Workspace())
    system.rhs(data, 0.0, Workspace())
    assert seen and min(seen) > 0.0
    seen.clear()
    data[40, 1, 2] = bad
    with pytest.raises(AdmissibilityError):
        system.compute_dt(data, 0.45, Workspace())
    try:  # the maps see interface values, which the reconstruction may keep positive
        system.rhs(data, 0.0, Workspace())
    except AdmissibilityError:
        pass
    assert all(low > 0.0 for low in seen)


#: the field of each preset's model that holds its random parameter
PARAMETER_FIELDS = {"scalar-oleinik": None, "levelset-box": "v_values",
                    "psystem-riemann": "vstar_values", "euler-box": None}


@pytest.mark.parametrize("basis", [b for b in ALL_BASES if b.is_piecewise_constant],
                         ids=lambda b: f"{b.kind.value}-{b.size}")
@pytest.mark.parametrize("name", sorted(PARAMETER_FIELDS))
def test_sg_solve_and_batches_read_the_same_preset_model(name, basis):
    """The SG model's parameter realizations are the batch model's
    parameter at the stochastic cell midpoints; every other field agrees."""
    preset = get_preset(name)
    sg = preset.galerkin_model(build_tensors(basis))
    batch = preset.batch_model(basis.cell_midpoints())
    assert type(sg) is type(batch)
    assert (preset.parameter is None) == (PARAMETER_FIELDS[name] is None)
    for f in dataclasses.fields(sg):
        a, b = getattr(sg, f.name), getattr(batch, f.name)
        if f.name == PARAMETER_FIELDS[name]:
            assert a.shape == b.shape == (basis.size,)
            assert np.abs(a - b).max() <= 1e-14
        else:
            assert a == b


def test_initial_data_scalar():
    preset = get_preset("scalar-oleinik")
    grid = Grid(nx=8, x_bounds=(-2.25, 2.25))
    model = preset.galerkin_model(T2)
    field = initial_data(model, preset, T2, grid)
    xs = grid.x_centers
    left = np.flatnonzero(xs < -1.0)[-1]
    assert np.allclose(field.data[left, 0], -np.eye(8)[0], atol=1e-14)
    # at x = 0 the mean vanishes by symmetry
    grid0 = Grid(nx=9, x_bounds=(-2.25, 2.25))
    field0 = initial_data(model, preset, T2, grid0)
    assert abs(field0.data[4, 0, 0]) < 1e-14
    assert abs(xs := grid0.x_centers[4]) < 1e-12


def test_initial_data_euler_mean():
    preset = get_preset("euler-box")
    grid = Grid(nx=10, x_bounds=(-2.0, 2.0), ny=10, y_bounds=(-2.0, 2.0))
    model = preset.galerkin_model(T2)
    field = initial_data(model, preset, T2, grid)
    centre = field.data[5, 5]  # inside the box
    assert centre[0, 0] == pytest.approx(2.5, abs=1e-12)
    assert np.allclose(centre[1:], 0.0)
    corner = field.data[0, 0]
    assert corner[0, 0] == pytest.approx(1.0, abs=1e-14)


def test_initial_data_levelset_deterministic():
    preset = get_preset("levelset-box")
    grid = Grid(nx=10, x_bounds=(-4.0, 4.0), ny=10, y_bounds=(-4.0, 4.0))
    model = preset.galerkin_model(T2)
    field = initial_data(model, preset, T2, grid)
    assert np.abs(field.data[..., 1:]).max() < 1e-14  # no details at t = 0
    assert field.data[5, 5, 0, 0] == pytest.approx(1.0)
    assert field.data[0, 0, 0, 0] == pytest.approx(-1.0)


ORACLE_BASES = ([(build_classical_haar, j) for j in range(7)]
                + [(build_dct, n) for n in (2, 3, 8, 100)]
                + [(build_canonical_haar, n) for n in (2, 7, 128)]
                + [(build_piecewise_linear, n) for n in (1, 3, 64)])
ORACLE_XI = np.array([0.0, 0.1, 0.25, 0.5, 0.77, 0.999])


@functools.cache
def _oracle_tensors(build, n):
    return build_tensors(build(n))


@pytest.mark.parametrize("nx", (8, 37, 100, 400))
@pytest.mark.parametrize("basis", ORACLE_BASES,
                         ids=lambda b: f"{b[0].__name__.removeprefix('build_')}-{b[1]}")
@pytest.mark.parametrize("name", sorted(INITIAL_ORACLES))
def test_initial_data_pieces_match_the_per_cell_oracles(name, basis, nx):
    """Both readings of a preset's one definition of its initial data equal
    the per-cell forms bit for bit.  nx = 100 puts a scalar jump exactly at
    xi = 0 and one exactly at xi = 1; 2D grids have ny != nx."""
    preset, t = get_preset(name), _oracle_tensors(*basis)
    (x0, x1), *y_bounds = preset.domain
    grid = Grid(nx=nx, x_bounds=(x0, x1)) if preset.space_dim == 1 else \
        Grid(nx=nx, x_bounds=(x0, x1), ny=13, y_bounds=y_bounds[0])
    galerkin, det = INITIAL_ORACLES[name]
    modes, expected_modes = preset.galerkin_initial(t, grid), galerkin(t, grid)
    values, expected_values = preset.det_initial(ORACLE_XI, grid), det(ORACLE_XI, grid)
    assert np.array_equal(modes, expected_modes)
    assert np.array_equal(values, expected_values)
    assert np.array_equal(np.signbit(values), np.signbit(expected_values))
    if name != "levelset-box":  # its oracle writes -1 * (+0.0) = -0.0 outside the box
        assert np.array_equal(np.signbit(modes), np.signbit(expected_modes))


@pytest.mark.parametrize("name, calls", [("scalar-oleinik", 1), ("euler-box", 1),
                                         ("psystem-riemann", 0), ("levelset-box", 0)])
def test_galerkin_initial_projects_every_function_in_one_call(monkeypatch, name, calls):
    """scalar-oleinik at nx 400 has 102 function pieces; presets whose
    initial data is constant in xi project none."""
    preset, seen = get_preset(name), []
    grid = (Grid(nx=400, x_bounds=preset.domain[0]) if preset.space_dim == 1 else
            Grid(nx=8, x_bounds=preset.domain[0], ny=8, y_bounds=preset.domain[1]))
    project_all = models.project
    monkeypatch.setattr(models, "project",
                        lambda t, pieces: seen.append(len(pieces)) or project_all(t, pieces))
    preset.galerkin_initial(T2, grid)
    assert len(seen) == calls
    if name == "scalar-oleinik":
        assert seen == [102]


def test_initial_data_dimension_mismatch():
    preset = get_preset("euler-box")
    with pytest.raises(ValueError):
        initial_data(Euler2D(), preset, T2, Grid(nx=8, x_bounds=(0.0, 1.0)))


def test_preset_lookup():
    with pytest.raises(KeyError):
        get_preset("no-such-preset")
