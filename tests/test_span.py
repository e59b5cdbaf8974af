"""The 1D right-hand side reconstructs only the span of cells whose
neighbourhood holds a differing pair, and ``compute_dt`` checks only the
range between the outermost differing pairs; both must equal the full-grid
oracles in ``solver_reference`` bit for bit, -0.0 included."""

import numpy as np
import pytest
from solver_reference import (compute_dt_reference, fill_ghosts_reference, preset_grid,
                              rhs_reference)

from haarsg import (AdmissibilityError, Grid, PSystem1D, ScalarLipschitz, SemiDiscreteSystem,
                    build_classical_haar, build_tensors, from_spectrum, get_preset)
from haarsg import cweno, solver, workspace
from haarsg.workspace import Workspace

NX = 24


def _system(name: str, coupled: bool, boundary: str = "transmissive"):
    """A 1D system, the stochastic size m of its states and a function that
    turns realization values (cells, components, m) into a state."""
    grid = Grid(nx=NX, x_bounds=(-1.0, 1.0), boundary=boundary)
    tensors = build_tensors(build_classical_haar(2 if name == "scalar" else 1))
    m = tensors.size if coupled else 5
    model = (ScalarLipschitz() if name == "scalar"
             else PSystem1D(vstar_values=np.linspace(1.1, 1.4, m)))
    if not coupled:
        return SemiDiscreteSystem(model, grid), m, lambda values: values
    return (SemiDiscreteSystem(model, grid, tensors=tensors), m,
            lambda values: from_spectrum(tensors, values))


def _state(system, m: int, to_state, runs: tuple[int, int], rng, zeros: bool = False):
    """A state that is uniform, bit for bit, on cells :runs[0] and
    runs[1]: and varies between; with ``zeros`` the left run mixes +0.0
    and -0.0 in its first component."""
    low = -1.0 if isinstance(system.model, ScalarLipschitz) else 0.8
    values = rng.uniform(low, 1.6, size=(NX, system.model.components, m))
    left, right = runs
    data = to_state(values)
    data[:left] = to_state(values[:1])
    data[right:] = to_state(values[-1:])
    if zeros:
        data[:left, 0] = 0.0
        data[1:left:2, 0] = -0.0
    return data


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.int64)


CASES = {  # uniform runs (left cells, first cell of the right run)
    "both-ends": (8, 16),
    "left-end": (9, NX),    # the span touches the right boundary
    "right-end": (0, 12),   # the span touches the left boundary
    "neither": (0, NX),
    "all-uniform": (NX, NX),
    "mixed-zeros": (10, 18),
}
SYSTEMS = [("scalar", True), ("scalar", False), ("psystem", True), ("psystem", False)]


def _recording_edges(monkeypatch) -> list[int]:
    """Rows of every state that ``cweno3_edges`` sees from now on."""
    seen = []
    edges = cweno.cweno3_edges

    def recording(u, eps, work, out):
        seen.append(u.shape[0])
        return edges(u, eps, work, out)

    monkeypatch.setattr(cweno, "cweno3_edges", recording)
    return seen


@pytest.mark.parametrize("budget", [1, cweno.STRIP_BYTES], ids=["row-strips", "default"])
@pytest.mark.parametrize("name, coupled", SYSTEMS,
                         ids=[f"{n}-{'galerkin' if c else 'batch'}" for n, c in SYSTEMS])
@pytest.mark.parametrize("case", sorted(CASES))
def test_span_rhs_and_dt_match_the_full_grid_oracles(monkeypatch, case, name, coupled, budget):
    monkeypatch.setattr(cweno, "STRIP_BYTES", budget)
    system, m, to_state = _system(name, coupled)
    runs = CASES[case]
    data = _state(system, m, to_state, runs, np.random.default_rng(len(case)),
                  zeros=case == "mixed-zeros")
    rows = _recording_edges(monkeypatch)
    work = Workspace()
    for _ in range(2):  # a fresh and a used workspace
        got = system.rhs(data, 0.0, work)
        assert np.array_equal(_bits(got), _bits(rhs_reference(system, data, 0.0)))
    if runs[0] > 3 or runs[1] < NX - 3:  # some cell has a uniform neighbourhood
        assert max(rows) < NX + 4
    dt, lowest = compute_dt_reference(system, data, 0.45)
    system.admissibility_min = np.inf
    assert system.compute_dt(data, 0.45, work) == dt
    assert system.admissibility_min == lowest


@pytest.mark.parametrize("name, coupled", SYSTEMS,
                         ids=[f"{n}-{'galerkin' if c else 'batch'}" for n, c in SYSTEMS])
def test_periodic_span_carries_the_wrap_around_pair(monkeypatch, name, coupled):
    """Two uniform halves: one differing pair inside, one across the wrap,
    which the ghost cells carry to both ends of the span."""
    system, m, to_state = _system(name, coupled, boundary="periodic")
    data = _state(system, m, to_state, (NX // 2, NX // 2), np.random.default_rng(3))
    assert len(solver._differing_pairs(data)) == 1
    rows = _recording_edges(monkeypatch)
    got = system.rhs(data, 0.0, Workspace())
    assert rows == [NX + 4]
    assert np.array_equal(_bits(got), _bits(rhs_reference(system, data, 0.0)))
    dt, lowest = compute_dt_reference(system, data, 0.45)
    assert system.compute_dt(data, 0.45, Workspace()) == dt
    assert system.admissibility_min == lowest


def test_uniform_cells_get_negative_zero():
    """Cells 0..5 and 18.. have a uniform 5-cell neighbourhood: the runs are
    cells :8 and 16:, their pairs with the cells between lie two cells
    further out in each direction."""
    system, m, to_state = _system("scalar", True)
    data = _state(system, m, to_state, (8, 16), np.random.default_rng(5))
    got = system.rhs(data, 0.0, Workspace())
    negative_zero = _bits(np.array(-0.0))
    assert np.all(_bits(got[:6]) == negative_zero)
    assert np.all(_bits(got[18:]) == negative_zero)
    assert not np.any(_bits(got[6:18]) == negative_zero)


@pytest.mark.parametrize("coupled", [True, False], ids=["galerkin", "batch"])
def test_uniform_run_with_an_infinite_flux_matches_the_full_grid(coupled):
    """u^2 overflows on a run at 1e200: the full pass writes -(f - f) / dx =
    NaN there, not -0.0, and so must the cells outside the span."""
    system, m, to_state = _system("scalar", coupled)
    data = _state(system, m, to_state, (8, 16), np.random.default_rng(6))
    data[:8] = to_state(np.full((1, 1, m), 1e200))
    with np.errstate(over="ignore", invalid="ignore"):
        got = system.rhs(data, 0.0, Workspace())
        expected = rhs_reference(system, data, 0.0)
    assert np.isnan(expected[0]).all()
    assert np.array_equal(_bits(got), _bits(expected))


def test_span_rhs_maps_no_new_array_as_it_widens():
    """The span's work arrays are made for the whole line, so a wider span
    on the same workspace maps nothing new."""
    system, m, to_state = _system("psystem", True)
    rng = np.random.default_rng(9)
    work = Workspace()
    system.rhs(_state(system, m, to_state, (10, 12), rng), 0.0, work)
    sizes = {name: buf.nbytes for name, buf in work._buffers.items()}
    for runs in ((8, 14), (4, 20), (0, NX)):
        system.rhs(_state(system, m, to_state, runs, rng), 0.0, work)
        assert {name: buf.nbytes for name, buf in work._buffers.items()} == sizes


@pytest.mark.parametrize("rows", [None, 3], ids=["one-strip", "3-row-strips"])
@pytest.mark.parametrize("name", ["scalar", "psystem"])
def test_compute_dt_maps_no_new_array_as_its_range_widens(monkeypatch, name, rows):
    """``compute_dt``'s strip arrays fit in the smallest buffer a workspace
    maps, so a wider range on the same workspace maps nothing new.  In
    3-row strips the scalar's range of 4 rows is two strips of 2, its short
    tail taking a row from the strip before."""
    system, m, to_state = _system(name, True)
    rng = np.random.default_rng(10)
    states = [_state(system, m, to_state, runs, rng)
              for runs in ((10, 11), (10, 12), (8, 14), (7, 16), (4, 20), (0, NX))]
    if rows is not None:
        monkeypatch.setattr(cweno, "STRIP_BYTES", rows * states[0][0].nbytes)
    work = Workspace()
    system.compute_dt(states[0], 0.45, work)
    sizes = {key: buf.nbytes for key, buf in work._buffers.items()}
    for data in states[1:]:
        system.compute_dt(data, 0.45, work)
        assert {key: buf.nbytes for key, buf in work._buffers.items()} == sizes


@pytest.mark.parametrize("coupled", [True, False], ids=["galerkin", "batch"])
def test_inadmissible_uniform_run_is_reported_where_the_full_grid_finds_it(coupled):
    """A negative specific volume all along the left run: its first cell,
    outside the span and the range, holds the global minimum."""
    system, m, to_state = _system("psystem", coupled)
    values = np.random.default_rng(4).uniform(0.8, 1.6, size=(NX, 2, m))
    values[:10, 1, 2] = -0.5
    values[:10] = values[0]
    data = to_state(values)
    data[:10] = to_state(values[:1])
    for call, oracle in ((lambda: system.rhs(data, 0.0, Workspace()),
                          lambda: rhs_reference(system, data, 0.0)),
                         (lambda: system.compute_dt(data, 0.45, Workspace()),
                          lambda: compute_dt_reference(system, data, 0.45))):
        with pytest.raises(AdmissibilityError) as expected:
            oracle()
        with pytest.raises(AdmissibilityError) as err:
            call()
        assert str(err.value) == str(expected.value)
        assert (err.value.where, err.value.index) == (expected.value.where,
                                                      expected.value.index)


@pytest.mark.parametrize("coupled", [True, False], ids=["galerkin", "batch"])
def test_inadmissible_span_reconstructs_once(monkeypatch, coupled):
    """The state above: one ``rhs`` reconstructs its span once, not the
    whole line after it, and still names the whole line's minimum."""
    system, m, to_state = _system("psystem", coupled)
    values = np.random.default_rng(4).uniform(0.8, 1.6, size=(NX, 2, m))
    values[:10, 1, 2] = -0.5
    values[:10] = values[0]
    data = to_state(values)
    data[:10] = to_state(values[:1])
    with pytest.raises(AdmissibilityError) as expected:
        rhs_reference(system, data, 0.0)
    seen = _recording_edges(monkeypatch)
    with pytest.raises(AdmissibilityError) as err:
        system.rhs(data, 0.0, Workspace())
    assert len(seen) == 1 and seen[0] < NX + 4
    assert str(err.value) == str(expected.value)
    assert (err.value.where, err.value.index) == (expected.value.where, expected.value.index)


def test_span_error_location_holds_python_ints():
    """A violation inside the span and the range is located in plain
    integers, offset by the span's first row."""
    system, m, to_state = _system("psystem", False)
    data = _state(system, m, to_state, (8, 20), np.random.default_rng(5))
    data[14, 1, 3] = -0.5
    for call in (lambda: system.rhs(data, 0.0, Workspace()),
                 lambda: system.compute_dt(data, 0.45, Workspace())):
        with pytest.raises(AdmissibilityError) as err:
            call()
        assert all(type(i) is int for i in err.value.where + (err.value.index,))
        assert f"at cell {err.value.where}, stochastic cell 3" in str(err.value)


def test_scalar_level_6_maps_no_new_array_at_the_default_budget(monkeypatch):
    """Scalar-oleinik at level 6, nx 400: 1 KiB rows, 128-row strips.  The
    one-row tail of a 129-row range takes a row from the strip before, where
    joining it would make a strip of 129 rows, more than one budget.  On one
    workspace, ranges and spans of 120, 129, 130 and 257 rows map nothing
    after the first."""
    preset = get_preset("scalar-oleinik")
    tensors = build_tensors(build_classical_haar(6))
    system = SemiDiscreteSystem(preset.galerkin_model(tensors), preset_grid(preset),
                                tensors=tensors)
    values = np.random.default_rng(12).uniform(-1.0, 1.0, size=(400, 1, tensors.size))
    base = from_spectrum(tensors, values)
    assert cweno.strips(129, base[0].nbytes, min_rows=2) == [(0, 127), (127, 129)]

    def state(first: int, stop: int) -> np.ndarray:
        """Uniform on cells :first + 1 and stop - 1:, so that its range is
        cells first:stop and its span cells first - 1:stop + 1."""
        data = base.copy()
        data[:first] = data[first]
        data[stop:] = data[stop - 1]
        return data

    work = Workspace()
    maps = []
    for count, rows in enumerate((120, 129, 130, 257)):
        if count == 1:
            new_map = workspace.mmap.mmap
            monkeypatch.setattr(workspace.mmap, "mmap",
                                lambda *args: maps.append(args) or new_map(*args))
        for first, stop in ((50, 50 + rows), (50, 48 + rows)):  # range, span of rows
            data = state(first, stop)
            assert solver._range_1d(data) == (first, stop)
            assert solver._span_1d(fill_ghosts_reference(data, system.grid)) == (
                first - 1, stop + 1)
            system.compute_dt(data, 0.45, work)
            system.rhs(data, 0.0, work)
    assert maps == []
