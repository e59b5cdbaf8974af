"""The solver writes into the work arrays of one ``advance`` call; every
result must equal the allocating oracles in ``solver_reference`` bit for
bit, and no array may be overwritten while someone still reads it."""

import functools
import tracemalloc

import numpy as np
import pytest
from model_reference import LinearAdvection
from solver_reference import (SourcedSystem, edges_reference, preset_grid, rhs_reference,
                              ssprk3_reference)

from haarsg import (AdmissibilityError, Grid, GpcField, SemiDiscreteSystem, advance,
                    build_classical_haar, build_tensors, parse_config, ssprk3_step)
from haarsg import cweno, solver
from haarsg.cweno import cweno3_edges
from haarsg.config import with_level
from haarsg.experiments import run_experiment, run_level_sweep
from haarsg.models import PRESETS, get_preset, initial_data
from haarsg import workspace
from haarsg.workspace import Workspace

CFL = 0.45


class _Stop(Exception):
    pass


def _preset_system(name: str, coupled: bool, level: int = 3, nx: int | None = None):
    """A Galerkin system of a preset, or its deterministic batch at 7 samples."""
    preset = get_preset(name)
    grid = (preset_grid(preset, nx=48, ny=40) if preset.space_dim == 2
            else preset_grid(preset, nx=nx or 96))
    if coupled:
        tensors = build_tensors(build_classical_haar(level))
        model = preset.galerkin_model(tensors)
        field = initial_data(model, preset, tensors, grid)
        return SemiDiscreteSystem(model, grid, tensors=tensors), field
    xi = np.linspace(0.05, 0.95, 7)
    system = SemiDiscreteSystem(preset.batch_model(xi), grid)
    return system, GpcField(grid, preset.det_initial(xi, grid), 0.0)


def _euler_100(coupled: bool):
    """The 100x100 Euler system at level 2, or its batch at 8 samples, and
    its initial state."""
    preset = get_preset("euler-box")
    grid = preset_grid(preset, nx=100, ny=100)
    if coupled:
        tensors = build_tensors(build_classical_haar(2))
        model = preset.galerkin_model(tensors)
        system = SemiDiscreteSystem(model, grid, tensors=tensors)
        return system, initial_data(model, preset, tensors, grid).data
    xi = np.linspace(0.05, 0.95, 8)
    return SemiDiscreteSystem(preset.batch_model(xi), grid), preset.det_initial(xi, grid)


def _advance_steps(system, field, steps: int) -> list[np.ndarray]:
    """Copies of the states after each of the first ``steps`` steps of
    ``advance``."""
    states = []

    def record(t, current):
        states.append(current.data.copy())
        if len(states) == steps:
            raise _Stop

    with pytest.raises(_Stop):
        advance(system, field, 1e9, cfl=CFL, callbacks=(record,))
    return states


@pytest.mark.parametrize("coupled", [True, False], ids=["galerkin", "batch"])
@pytest.mark.parametrize("name", sorted(PRESETS))
def test_four_steps_match_allocating_oracles(name, coupled):
    system, field = _preset_system(name, coupled)
    got = _advance_steps(system, field, 4)
    rhs = functools.partial(rhs_reference, system)
    data, t = field.data, 0.0
    for step in range(4):
        dt = system.compute_dt(data, CFL, Workspace())
        data = ssprk3_reference(rhs, data, t, dt)
        t += dt
        assert np.array_equal(got[step], data), f"step {step + 1}"


@pytest.mark.parametrize("trailing", [(), (2,), (3, 8), (1, 128)])
def test_edges_match_allocating_oracle(trailing):
    rng = np.random.default_rng(len(trailing))
    work = Workspace()
    for n in (12, 7):  # a second, smaller call on the same work arrays
        u = rng.normal(size=(n,) + trailing)
        u[n // 2:] += 3.0  # a jump, so the nonlinear weights differ from cell to cell
        for eps in (1e-6, 0.01, 0.1):
            expected = edges_reference(u, eps)
            got = cweno3_edges(u, eps, work, np.empty((2,) + u[2:].shape))
            assert np.array_equal(got[0], expected[0])
            assert np.array_equal(got[1], expected[1])


#: the work arrays that hold transformed values: the 1D line of edge values,
#: the 2D face strips' left and right values and the time step's strip
TRANSFORMED = {"rhs.values", "rhs.values.left", "rhs.values.right", "dt.values"}


def test_batch_maps_no_arrays_for_transformed_values():
    """A deterministic batch has no transform, so its right-hand side and
    time step map no work array for transformed values, in 1D (the
    p-system) as in 2D (Euler), while the Galerkin systems map every one of
    them.  On the 48x40 Euler batch of 7 samples the workspace then maps
    17.1 field sizes, 14.7 of them before every buffer mapped at least one
    strip budget; at this size one strip holds 17 of the 50 reconstructed
    rows, so the strip's face values alone are 3.2 of them."""
    made = set()
    for name in ("psystem-riemann", "euler-box"):
        for coupled in (True, False):
            system, field = _preset_system(name, coupled=coupled)
            work = Workspace()
            system.rhs(field.data, 0.0, work)
            system.compute_dt(field.data, CFL, work)
            if coupled:
                made |= TRANSFORMED & set(work._buffers)
            else:
                assert not TRANSFORMED & set(work._buffers), name
    assert made == TRANSFORMED
    mapped = sum(buf.nbytes for buf in work._buffers.values())
    assert mapped <= 21 * field.data.nbytes


def test_ssprk3_step_leaves_its_input_untouched():
    system, field = _preset_system("psystem-riemann", coupled=True)
    work = Workspace()
    rhs = functools.partial(system.rhs, work=work)
    u0 = field.data.copy()
    dt = system.compute_dt(u0, CFL, work)
    u1 = ssprk3_step(rhs, u0, 0.0, dt, work)
    kept = u1.copy()
    u2 = ssprk3_step(rhs, u1, dt, dt, work)
    assert np.array_equal(u0, field.data)
    assert np.array_equal(u1, kept)
    assert not np.shares_memory(u1, u2)
    # a right-hand side that returns its argument must not write into it
    u = np.arange(6.0)
    assert np.array_equal(ssprk3_step(lambda v, t: v, u, 0.0, 0.5, work),
                          ssprk3_reference(lambda v, t: v, u, 0.0, 0.5))
    assert np.array_equal(u, np.arange(6.0))


def test_successive_advance_calls_leave_the_first_result_unchanged():
    system, field = _preset_system("euler-box", coupled=True, level=1)
    first = advance(system, field, 0.002, cfl=CFL)
    kept = first.data.copy()
    second = advance(system, first, 0.004, cfl=CFL)
    assert np.array_equal(first.data, kept)
    assert not np.shares_memory(first.data, second.data)


def test_source_term_enters_rhs_once_per_call():
    grid = Grid(nx=10, x_bounds=(0.0, 1.0), boundary="periodic")
    system = SourcedSystem(LinearAdvection(speed=(1.0,)), grid,
                           source=lambda t, x: np.sin(x + t)[:, None, None])
    data = np.cos(2 * np.pi * grid.x_centers)[:, None, None]
    work = Workspace()
    for t in (0.0, 0.3):  # the second call reuses the arrays of the first
        expected = rhs_reference(system, data, t, source=system.source)
        assert np.array_equal(system.rhs(data, t, work), expected)
    plain = SemiDiscreteSystem(LinearAdvection(speed=(1.0,)), grid)
    assert not np.allclose(system.rhs(data, 0.3, Workspace()), plain.rhs(data, 0.3, Workspace()))


def test_level_sweep_members_equal_single_runs(tmp_path):
    """A sweep member is the run of its level's config, bit for bit."""
    config = parse_config(
        "[run]\npreset = psystem-riemann\nt_final = 0.05\n"
        "[basis]\nkind = classical-haar\nlevel = 0\n[grid]\nnx = 40\n"
        f"[reference]\nkind = none\n[output]\ndirectory = {tmp_path}\n")
    for j, member in enumerate(run_level_sweep(config, 0, 2)):
        alone = run_experiment(with_level(config, j), write_outputs=False)
        assert np.array_equal(member.field.data, alone.field.data), j


def test_second_step_allocates_at_most_eight_field_sizes(monkeypatch):
    """After a warm-up step, an SSPRK3 step of the scalar L6 system (nx 400)
    allocates only the model maps' temporaries and maps only its second
    state array."""
    system, field = _preset_system("scalar-oleinik", coupled=True, level=6, nx=400)
    work = Workspace()
    rhs = functools.partial(system.rhs, work=work)
    dt = system.compute_dt(field.data, CFL, work)
    u1 = ssprk3_step(rhs, field.data, 0.0, dt, work)
    maps = []
    new_map = workspace.mmap.mmap
    monkeypatch.setattr(workspace.mmap, "mmap", lambda *args: maps.append(args) or new_map(*args))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ssprk3_step(rhs, u1, dt, dt, work)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 8 * field.data.nbytes
    assert maps == [(-1, field.data.nbytes)]


@pytest.mark.parametrize("coupled", [True, False], ids=["galerkin", "batch"])
def test_second_euler_rhs_allocates_at_most_two_strips(coupled):
    """On a warmed workspace, a right-hand side of the 100x100 Euler system
    at level 2 (or its 8-sample batch) allocates only strip-sized
    temporaries of the model maps: the LLF's interface values, fluxes and
    their combination are work arrays."""
    system, data = _euler_100(coupled)
    work = Workspace()
    system.rhs(data, 0.0, work)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        system.rhs(data, 0.0, work)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 2 * cweno.STRIP_BYTES


@pytest.mark.parametrize("coupled", [True, False], ids=["galerkin", "batch"])
def test_euler_step_maps_at_most_eight_field_sizes(coupled):
    """The 2D right-hand side is one pass over strips of x rows, so no face
    or interface array is larger than a strip, and ``compute_dt`` maps only
    strip-sized values and speed bounds.  On the 100x100 Euler system at
    level 2 (or its 8-sample batch), two SSPRK3 steps then map the padded
    state, the divergence and the two stage states besides strips: 6.5
    (6.2) field sizes here, against 19.9 (14.9) when the face values, the
    interface values and the time step's values were full size and a third
    stage state was kept."""
    system, data = _euler_100(coupled)
    work = Workspace()
    rhs = functools.partial(system.rhs, work=work)
    dt = system.compute_dt(data, CFL, work)
    ssprk3_step(rhs, ssprk3_step(rhs, data, 0.0, dt, work), dt, dt, work)
    mapped = sum(buf.nbytes for buf in work._buffers.values())
    assert mapped <= 8 * data.nbytes


@pytest.mark.parametrize("coupled", [True, False], ids=["galerkin", "batch"])
def test_inadmissible_euler_state_maps_no_field_sized_face_array(coupled):
    """A strip that finds a negative density adds it to the pass's
    accumulators, which find the global minimum with strip-sized arrays: no
    face, interface or time-step array grows to a field size, as one strip
    of all rows made them."""
    system, data = _euler_100(coupled)
    values = system._to_values(data).copy()
    values[60, 40, 0, 3] = -0.5
    data = system._from_values(values) if coupled else values
    work = Workspace()
    with pytest.raises(AdmissibilityError):
        system.rhs(data, 0.0, work)
    with pytest.raises(AdmissibilityError):
        system.compute_dt(data, CFL, work)
    full = {name for name, buf in work._buffers.items() if buf.nbytes >= data.nbytes}
    assert full == {"ghosts", "rhs"}


@pytest.mark.parametrize("coupled", [True, False], ids=["galerkin", "batch"])
def test_advance_maps_four_full_size_arrays(monkeypatch, coupled):
    """After steps of the 100x100 Euler system at level 2 (or its 8-sample
    batch), the workspace's only arrays of a field size or more are the
    padded state, the divergence and the two stage states: SSPRK3 combines
    its stages in the right-hand side's output, with no scratch state."""
    system, data = _euler_100(coupled)
    made = []
    monkeypatch.setattr(solver, "Workspace", lambda: made.append(Workspace()) or made[-1])
    _advance_steps(system, GpcField(system.grid, data, 0.0), 2)
    buffers = made[0]._buffers
    full = {name for name, buf in buffers.items() if buf.nbytes >= data.nbytes}
    assert full == {"ghosts", "rhs", "rk.state", "rk.next"}
    assert "rk.scratch" not in buffers
