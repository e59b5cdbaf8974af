import functools

import numpy as np
import pytest
from model_reference import LinearAdvection
from solver_reference import SourcedSystem, source_quadrature

from haarsg import (Grid, GpcField, ScalarLipschitz, SemiDiscreteSystem, SolverAbort,
                    advance, build_classical_haar, build_piecewise_linear, build_tensors,
                    fill_ghosts, get_preset, initial_data, ssprk3_step)
from haarsg import solver
from haarsg.cweno import cweno3_edges, cweno3_face_values
from haarsg.models import LowestAdmissibility
from haarsg.workspace import Workspace


def faces(u, eps=1e-6):
    """2D face values of ``u`` into a fresh array."""
    out = np.empty((4, 2, u.shape[0] - 2, u.shape[1] - 2) + u.shape[2:])
    return cweno3_face_values(u, eps, Workspace(), out)


def test_grid_properties_and_validation():
    g = Grid(nx=10, x_bounds=(0.0, 1.0))
    assert g.dx == pytest.approx(0.1)
    assert g.space_dim == 1
    assert np.allclose(g.x_centers, np.arange(10) * 0.1 + 0.05)
    with pytest.raises(ValueError):
        Grid(nx=0, x_bounds=(0.0, 1.0))
    with pytest.raises(ValueError):
        Grid(nx=4, x_bounds=(1.0, 0.0))
    with pytest.raises(ValueError):
        Grid(nx=4, x_bounds=(0.0, 1.0), boundary="clamped")
    with pytest.raises(ValueError):
        Grid(nx=4, x_bounds=(0.0, 1.0), ny=4)


def test_fill_ghosts_transmissive_and_periodic():
    g = Grid(nx=4, x_bounds=(0.0, 1.0))
    data = np.arange(4.0)[:, None, None]
    padded = fill_ghosts(data, g, Workspace())
    assert np.allclose(padded[:, 0, 0], [0, 0, 0, 1, 2, 3, 3, 3])
    gp = Grid(nx=4, x_bounds=(0.0, 1.0), boundary="periodic")
    padded = fill_ghosts(data, gp, Workspace())
    assert np.allclose(padded[:, 0, 0], [2, 3, 0, 1, 2, 3, 0, 1])


def test_cweno_1d_constants_and_linears_exact():
    const = np.full(7, 3.7)
    left, right = cweno3_edges(const, 1e-6, Workspace(), np.empty((2,) + const[2:].shape))
    assert np.allclose(left, 3.7, atol=1e-15) and np.allclose(right, 3.7, atol=1e-15)
    lin = 2.0 * np.arange(9.0) + 1.0
    left, right = cweno3_edges(lin, 1e-6, Workspace(), np.empty((2,) + lin[2:].shape))
    assert np.allclose(right, lin[1:-1] + 1.0, atol=1e-12)
    assert np.allclose(left, lin[1:-1] - 1.0, atol=1e-12)


def test_cweno_1d_third_order_on_smooth_data():
    errs = []
    for nx in (40, 80, 160):
        dx = 1.0 / nx
        edges = np.linspace(0.0, 1.0, nx + 1)
        avg = (np.cos(2 * np.pi * edges[:-1]) - np.cos(2 * np.pi * edges[1:])) \
            / (2 * np.pi * dx)
        u = np.concatenate([avg[-2:], avg, avg[:2]])
        _, right = cweno3_edges(u, dx * dx, Workspace(), np.empty((2,) + u[2:].shape))
        errs.append(np.abs(right[1:-1] - np.sin(2 * np.pi * edges[1:])).sum() * dx)
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) > 2.5, (errs, orders)


def test_cweno_2d_constants_and_planes_exact():
    const = np.full((6, 6, 2), -1.25)
    vals = faces(const)
    assert np.allclose(vals, -1.25, atol=1e-15)
    x = np.arange(7.0)[:, None] * 2.0
    y = np.arange(7.0)[None, :] * -3.0
    plane = (x + y + 0.5)[..., None]
    vals = faces(plane)
    g = 0.5 / np.sqrt(3.0)
    # west face of interior cell (i, j): value at (i - 1/2, j -+ g)
    i, j = 2, 3
    expected = 2.0 * (i + 1 - 0.5) + -3.0 * (j + 1 - g) + 0.5
    assert vals[0, 0, i, j, 0] == pytest.approx(expected, abs=1e-12)


def _llf(system, left, right):
    """The LLF flux modes of one pair of modal states, its admissibility
    checked: the states mapped to values, the flux mapped back."""
    lowest = [LowestAdmissibility(system.model, axis=0) for _ in range(2)]
    flux = system._llf(system._to_values(left), system._to_values(right), 0, Workspace(),
                       lowest, 0)
    for side in lowest:
        side.check()
    return system._from_values(flux)


def test_llf_consistency_and_antisymmetry():
    t = build_tensors(build_classical_haar(0))
    grid = Grid(nx=8, x_bounds=(0.0, 1.0))
    system = SemiDiscreteSystem(ScalarLipschitz(), grid, tensors=t)
    u = np.array([[[0.7, 0.2]]])  # one face
    vals = system._to_values(u)
    assert np.allclose(_llf(system, u, u),
                       system._from_values(
                           ScalarLipschitz().values_flux(vals, 0, np.empty_like(vals))),
                       atol=1e-14)
    # spec example: u_L = e1, u_R = -e1 gives flux 5 in mode 0
    ul = np.array([[[1.0, 0.0]]])
    ur = np.array([[[-1.0, 0.0]]])
    fx = _llf(system, ul, ur)
    assert fx[0, 0, 0] == pytest.approx(5.0)
    # dissipative part flips sign when the states swap
    fxr = _llf(system, ur, ul)
    central = 0.5 * (fx + fxr)
    assert np.allclose(fx - central, -(fxr - central), atol=1e-14)


@pytest.mark.parametrize("m", [1, 2, 3, 7, 8, 16, 128])
@pytest.mark.parametrize("lead", [(), (5,), (2, 3, 4)], ids=["no-lead", "one-axis", "three-axes"])
def test_stochastic_max_is_np_max_bit_for_bit(m, lead):
    """Column by column below the crossover and by ``np.max`` above it, the
    shared maximum is ``np.max(a, axis=-1)`` in every bit: a NaN is kept,
    +-inf and ties, signed zeros included, give the reduction's value."""
    assert 1 <= solver.MAX_LOOPED_COLUMNS < 128
    rng = np.random.default_rng(m * 10 + len(lead))
    a = rng.normal(size=lead + (6, m))
    a[..., 0, :] = rng.choice([0.0, -0.0], size=lead + (m,))  # signed zero ties
    a[..., 1, :] = 2.5  # equal values
    a[..., 2, -1] = np.inf
    a[..., 3, 0] = -np.inf
    a[..., 4, :] = -np.inf
    a[..., 5, 0] = np.inf
    a[..., 5, m // 2] = np.nan
    got = solver._stochastic_max(a, out=np.empty(a.shape[:-1]))
    expected = np.max(a, axis=-1)
    assert got.view(np.int64).tolist() == expected.view(np.int64).tolist()
    assert np.isnan(got[..., 5]).all()


def test_ssprk3_properties():
    u = np.array([1.0, -2.0])
    assert np.allclose(ssprk3_step(lambda v, t: 0.0 * v, u, 0.0, 0.1, Workspace()), u)
    lam = 1.0
    dt = 0.1
    out = ssprk3_step(lambda v, t: lam * v, u, 0.0, dt, Workspace())
    taylor_gap = abs(out[0] / u[0] - np.exp(lam * dt))
    assert taylor_gap < 5e-6
    rng = np.random.default_rng(2)
    mat = rng.normal(size=(2, 2))
    a, b = rng.normal(size=(2, 2))
    la = ssprk3_step(lambda v, t: mat @ v, a, 0.0, dt, Workspace())
    lb = ssprk3_step(lambda v, t: mat @ v, b, 0.0, dt, Workspace())
    lab = ssprk3_step(lambda v, t: mat @ v, 2.0 * a + 3.0 * b, 0.0, dt, Workspace())
    assert np.allclose(lab, 2.0 * la + 3.0 * lb, atol=1e-13)
    with pytest.raises(ValueError):
        ssprk3_step(lambda v, t: v, u, 0.0, 0.0, Workspace())


def test_compute_dt_examples():
    t = build_tensors(build_classical_haar(0))
    grid = Grid(nx=400, x_bounds=(0.0, 4.0))
    system = SemiDiscreteSystem(ScalarLipschitz(), grid, tensors=t)
    data = np.broadcast_to(np.array([1.0, 0.0]), (400, 1, 2)).copy()
    assert system.compute_dt(data, 0.45, Workspace()) == pytest.approx(0.45 * 0.01 / 3.0)
    grid2 = Grid(nx=10, x_bounds=(0.0, 1.0), ny=20, y_bounds=(0.0, 1.0))
    system2 = SemiDiscreteSystem(LinearAdvection(speed=(2.0, 1.0)), grid2)
    data2 = np.ones((10, 20, 1, 1))
    expected = 0.45 / (2.0 / grid2.dx + 1.0 / grid2.dy)
    assert system2.compute_dt(data2, 0.45, Workspace()) == pytest.approx(expected)
    still = SemiDiscreteSystem(LinearAdvection(speed=(0.0,)),
                               Grid(nx=8, x_bounds=(0.0, 1.0)))
    assert still.compute_dt(np.ones((8, 1, 1)), 0.45, Workspace()) == np.inf


def test_advance_identity_and_final_time():
    grid = Grid(nx=16, x_bounds=(0.0, 1.0), boundary="periodic")
    system = SemiDiscreteSystem(LinearAdvection(speed=(1.0,)), grid)
    field = GpcField(grid, np.sin(2 * np.pi * grid.x_centers)[:, None, None], 0.0)
    assert advance(system, field, 0.0, cfl=0.45) is field
    out = advance(system, field, 0.3, cfl=0.45)
    assert out.time == 0.3
    times = []
    advance(system, field, 0.1, cfl=0.45, callbacks=(lambda t, f: times.append(t),))
    assert times and times[-1] == 0.1


def test_advance_zero_speed_clips_to_final_time():
    grid = Grid(nx=8, x_bounds=(0.0, 1.0), boundary="periodic")
    system = SemiDiscreteSystem(LinearAdvection(speed=(0.0,)), grid)
    field = GpcField(grid, np.ones((8, 1, 1)), 0.0)
    out = advance(system, field, 2.0, cfl=0.45)
    assert out.time == 2.0
    assert np.allclose(out.data, field.data)


def test_conservation_periodic():
    t = build_tensors(build_classical_haar(1))
    grid = Grid(nx=64, x_bounds=(0.0, 1.0), boundary="periodic")
    system = SemiDiscreteSystem(ScalarLipschitz(), grid, tensors=t)
    rng = np.random.default_rng(3)
    data = rng.normal(size=(64, 1, 4))
    total0 = data.sum(axis=0)
    work = Workspace()
    rhs = functools.partial(system.rhs, work=work)
    dt = system.compute_dt(data, 0.45, work)
    for _ in range(5):
        data = ssprk3_step(rhs, data, 0.0, dt, work)
        assert np.abs(data.sum(axis=0) - total0).max() < 1e-12


def test_conservation_periodic_2d():
    grid = Grid(nx=12, x_bounds=(0.0, 1.0), ny=10, y_bounds=(0.0, 1.0),
                boundary="periodic")
    system = SemiDiscreteSystem(LinearAdvection(speed=(1.0, -0.5)), grid)
    rng = np.random.default_rng(4)
    data = rng.normal(size=(12, 10, 1, 1))
    total0 = data.sum(axis=(0, 1))
    work = Workspace()
    dt = system.compute_dt(data, 0.45, work)
    data = ssprk3_step(functools.partial(system.rhs, work=work), data, 0.0, dt, work)
    assert np.abs(data.sum(axis=(0, 1)) - total0).max() < 1e-12


@pytest.mark.parametrize("name, basis, nx, ny", [
    ("scalar-oleinik", build_classical_haar(2), 100, None),
    ("psystem-riemann", build_classical_haar(2), 100, None),
    ("levelset-box", build_classical_haar(2), 24, 20),
    ("euler-box", build_classical_haar(2), 24, 20),
    ("euler-box", build_piecewise_linear(2), 24, 20),
], ids=lambda p: p.kind.value if hasattr(p, "kind") else None)
def test_conservation_periodic_preset_models(name, basis, nx, ny):
    """Every preset's SG model, from its initial data on a periodic grid,
    keeps the cell sum of every mode to t = 0.2.  The face fluxes cancel
    in the sums, so only rounding moves them: at most 2e-15 of the largest
    sum was measured (3.4e-13 on Euler's 660 at level 2), and a bound of
    1e-12 of it keeps a margin of 500 while a lost face flux, of order dt
    times a flux, is far above it."""
    preset = get_preset(name)
    t = build_tensors(basis)
    (x0, x1), *y_bounds = preset.domain
    grid = Grid(nx=nx, x_bounds=(x0, x1), boundary="periodic") if ny is None else \
        Grid(nx=nx, x_bounds=(x0, x1), ny=ny, y_bounds=y_bounds[0],
             boundary="periodic")
    model = preset.galerkin_model(t)
    field = initial_data(model, preset, t, grid)
    cells = tuple(range(grid.space_dim))
    total0 = field.data.sum(axis=cells)
    out = advance(SemiDiscreteSystem(model, grid, tensors=t), field, 0.2, cfl=0.45)
    assert out.time == 0.2
    drift = np.abs(out.data.sum(axis=cells) - total0).max()
    assert drift <= 1e-12 * np.abs(total0).max()


def test_monotonicity_surrogate_forward_euler():
    # first explicit stage from Riemann data: no new extrema beyond 1e-12
    t = build_tensors(build_classical_haar(0))
    grid = Grid(nx=400, x_bounds=(-2.0, 2.0))
    system = SemiDiscreteSystem(ScalarLipschitz(), grid, tensors=t)
    data = np.where(grid.x_centers < 0.0, -1.0, 1.0)[:, None, None] \
        * np.array([1.0, 0.0])
    work = Workspace()
    dt = system.compute_dt(data, 0.45, work)
    stage = data + dt * system.rhs(data, 0.0, work)
    means = stage[:, 0, 0]
    assert means.max() <= 1.0 + 1e-12
    assert means.min() >= -1.0 - 1e-12


def test_determinism_bitwise():
    t = build_tensors(build_classical_haar(2))
    grid = Grid(nx=50, x_bounds=(-1.0, 1.0))
    system = SemiDiscreteSystem(ScalarLipschitz(), grid, tensors=t)
    rng = np.random.default_rng(5)
    data = rng.normal(scale=0.3, size=(50, 1, 8))
    field = GpcField(grid, data, 0.0)
    a = advance(system, field, 0.05, cfl=0.45)
    b = advance(system, field, 0.05, cfl=0.45)
    assert np.array_equal(a.data, b.data)


def test_admissibility_abort_diagnostics():
    from haarsg.models import get_preset
    t = build_tensors(build_classical_haar(0))
    model = get_preset("psystem-riemann").galerkin_model(t)
    grid = Grid(nx=16, x_bounds=(0.0, 1.0))
    system = SemiDiscreteSystem(model, grid, tensors=t)
    data = np.zeros((16, 2, 2))
    data[:, 1, 0] = 1.0
    data[7, 1, 0] = -0.5  # negative volume in one cell
    with pytest.raises(SolverAbort) as err:
        advance(system, GpcField(grid, data, 0.0), 0.1, cfl=0.45)
    assert err.value.time == 0.0


def test_source_quadrature():
    grid = Grid(nx=10, x_bounds=(0.0, 1.0))
    zero = source_quadrature(lambda t, x: np.zeros((x.size, 1, 1)), 0.0, grid)
    assert np.array_equal(zero, np.zeros((10, 1, 1)))
    const = source_quadrature(lambda t, x: np.full((x.size, 1, 1), 2.5), 0.0, grid)
    assert np.allclose(const, 2.5, atol=1e-15)
    # quadratic integrates exactly with 2-point Gauss
    quad = source_quadrature(lambda t, x: (x * x)[:, None, None], 0.0, grid)
    edges = np.linspace(0.0, 1.0, 11)
    exact = (edges[1:] ** 3 - edges[:-1] ** 3) / (3.0 * grid.dx)
    assert np.allclose(quad[:, 0, 0], exact, atol=1e-14)


def test_source_enters_rhs():
    grid = Grid(nx=10, x_bounds=(0.0, 1.0), boundary="periodic")
    system = SourcedSystem(LinearAdvection(speed=(0.0,)), grid,
                           source=lambda t, x: np.ones((x.size, 1, 1)))
    data = np.zeros((10, 1, 1))
    assert np.allclose(system.rhs(data, 0.0, Workspace()), 1.0, atol=1e-14)


def test_advection_order_1d():
    errs = []
    for nx in (50, 100, 200):
        grid = Grid(nx=nx, x_bounds=(0.0, 1.0), boundary="periodic")
        system = SemiDiscreteSystem(LinearAdvection(speed=(1.0,)), grid)
        edges = np.linspace(0.0, 1.0, nx + 1)
        avg = (np.cos(2 * np.pi * edges[:-1]) - np.cos(2 * np.pi * edges[1:])) \
            / (2 * np.pi * grid.dx)
        out = advance(system, GpcField(grid, avg[:, None, None], 0.0), 0.5, cfl=0.45)
        shifted = (np.cos(2 * np.pi * (edges[:-1] - 0.5))
                   - np.cos(2 * np.pi * (edges[1:] - 0.5))) / (2 * np.pi * grid.dx)
        errs.append(np.abs(out.data[:, 0, 0] - shifted).sum() * grid.dx)
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 2.5, (errs, orders)


def _sine_averages(x_edges: np.ndarray, y_edges: np.ndarray, shift: tuple[float, float]):
    """Cell averages of sin 2 pi (x - sx + y - sy) on the grid of the edges."""
    a = 2 * np.pi
    x = x_edges[:, None] - shift[0]
    y = y_edges[None, :] - shift[1]
    s = np.sin(a * (x + y))
    area = (x_edges[1] - x_edges[0]) * (y_edges[1] - y_edges[0])
    return -(s[1:, 1:] - s[:-1, 1:] - s[1:, :-1] + s[:-1, :-1]) / (a * a * area)


def test_advection_order_2d():
    """The genuinely 2D CWENO3 reconstruction keeps third order on smooth
    periodic advection along the diagonal."""
    speed = (1.0, 0.5)
    t_final = 0.5
    errs = []
    for n in (40, 80):
        grid = Grid(nx=n, x_bounds=(0.0, 1.0), ny=n, y_bounds=(0.0, 1.0),
                    boundary="periodic")
        system = SemiDiscreteSystem(LinearAdvection(speed=speed), grid)
        edges = np.linspace(0.0, 1.0, n + 1)
        avg = _sine_averages(edges, edges, (0.0, 0.0))
        out = advance(system, GpcField(grid, avg[:, :, None, None], 0.0), t_final, cfl=0.45)
        exact = _sine_averages(edges, edges, (speed[0] * t_final, speed[1] * t_final))
        errs.append(np.abs(out.data[:, :, 0, 0] - exact).sum() * grid.dx * grid.dy)
    order = np.log2(errs[0] / errs[1])
    assert order >= 2.5, (errs, order)
