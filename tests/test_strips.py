"""The reconstructions, the LLF flux and the 2D flux divergence run in
strips along x; the result must not depend on where the strips are cut, and
must equal the whole-array oracles in ``solver_reference`` bit for bit."""

import numpy as np
import pytest
from solver_reference import (compute_dt_reference, edges_reference, face_values_reference,
                              llf_reference, preset_grid, rhs_reference)

from haarsg import (AdmissibilityError, Euler2D, GpcField, Grid, ScalarLipschitz,
                    SemiDiscreteSystem, SolverAbort, advance, build_classical_haar,
                    build_tensors, from_spectrum)
from haarsg.models import (LowestAdmissibility, check_admissible_values, get_preset,
                           initial_data)
from haarsg import cweno, solver
from haarsg.workspace import Workspace

HUGE = 1 << 40


def _face_values_in_strips(u: np.ndarray, eps: float, out: np.ndarray) -> np.ndarray:
    """``cweno3_face_values`` over the strips of ``cweno.strips``, as the 2D
    right-hand side cuts them: output rows ``i:j`` from input rows
    ``i:j + 2``, all in one workspace."""
    work = Workspace()
    for i, j in cweno.strips(u.shape[0] - 2, u[0].nbytes):
        cweno.cweno3_face_values(u[i:j + 2], eps, work, out[:, :, i:j])
    return out


@pytest.mark.parametrize("trailing", [(), (2,), (3, 8), (1, 128)])
@pytest.mark.parametrize("rows_out, rows_per_strip",
                         [(6, 8), (6, 2), (7, 3), (5, 1)],
                         ids=["one-strip", "even-strips", "ragged-strip", "row-strips"])
def test_face_values_match_whole_array_oracle(monkeypatch, trailing, rows_out,
                                              rows_per_strip):
    rng = np.random.default_rng(rows_out * 10 + len(trailing))
    u = rng.normal(size=(rows_out + 2, 9) + trailing)
    u[rows_out // 2:] += 3.0  # a jump, so the nonlinear weights differ from cell to cell
    # a budget between two whole rows still gives rows_per_strip rows
    monkeypatch.setattr(cweno, "STRIP_BYTES", rows_per_strip * u[0].nbytes + u[0].nbytes // 2)
    starts = [i for i, _ in cweno.strips(rows_out, u[0].nbytes)]
    assert starts == list(range(0, rows_out, rows_per_strip))
    for eps in (1e-6, 0.01):
        out = np.empty((4, 2, rows_out, 7) + trailing)
        got = _face_values_in_strips(u, eps, out)
        assert np.array_equal(got, face_values_reference(u, eps))


def test_face_values_default_budget_gives_several_strips():
    u = np.random.default_rng(7).normal(size=(104, 104, 3, 8))
    assert len(cweno.strips(102, u[0].nbytes)) > 1
    assert np.array_equal(_face_values_in_strips(u, 0.01, np.empty((4, 2, 102, 102, 3, 8))),
                          face_values_reference(u, 0.01))


def _euler_system(coupled: bool):
    grid = Grid(nx=13, x_bounds=(-1.0, 1.0), ny=10, y_bounds=(-1.0, 1.5))
    rng = np.random.default_rng(11 if coupled else 12)
    m = 8 if coupled else 5
    values = np.empty((13, 10, 3, m))
    values[..., 0, :] = rng.uniform(0.5, 2.0, size=(13, 10, m))
    values[..., 1:, :] = rng.normal(scale=0.3, size=(13, 10, 2, m))
    if not coupled:
        return SemiDiscreteSystem(Euler2D(), grid), values
    tensors = build_tensors(build_classical_haar(2))
    return SemiDiscreteSystem(Euler2D(), grid, tensors=tensors), from_spectrum(tensors, values)


def _scalar_system(coupled: bool):
    grid = Grid(nx=40, x_bounds=(-1.0, 1.0))
    rng = np.random.default_rng(13)
    tensors = build_tensors(build_classical_haar(3))
    data = rng.normal(size=(40, 1, tensors.size))
    return SemiDiscreteSystem(ScalarLipschitz(), grid, tensors=tensors), data


def _psystem_system(coupled: bool):
    preset = get_preset("psystem-riemann")
    grid = preset_grid(preset, nx=40)
    if not coupled:
        xi = np.linspace(0.05, 0.95, 5)
        return SemiDiscreteSystem(preset.batch_model(xi), grid), preset.det_initial(xi, grid)
    tensors = build_tensors(build_classical_haar(2))
    model = preset.galerkin_model(tensors)
    data = initial_data(model, preset, tensors, grid).data
    return SemiDiscreteSystem(model, grid, tensors=tensors), data


@pytest.mark.parametrize("make, coupled", [(_euler_system, True), (_euler_system, False),
                                           (_scalar_system, True), (_psystem_system, True),
                                           (_psystem_system, False)],
                         ids=["euler-galerkin", "euler-batch", "scalar-galerkin",
                              "psystem-galerkin", "psystem-batch"])
def test_rhs_is_strip_invariant_and_matches_whole_array_oracle(monkeypatch, make, coupled):
    system, data = make(coupled)
    got = {}
    for budget in (1, HUGE):
        monkeypatch.setattr(cweno, "STRIP_BYTES", budget)
        got[budget] = system.rhs(data, 0.0, Workspace())
    assert np.array_equal(got[1], got[HUGE])
    monkeypatch.setattr(cweno, "cweno3_edges", edges_reference)
    monkeypatch.setattr(cweno, "cweno3_face_values", face_values_reference)
    monkeypatch.setattr(SemiDiscreteSystem, "_llf", llf_reference)
    assert np.array_equal(got[1], system.rhs(data, 0.0, Workspace()))


def test_admissibility_error_names_the_global_minimum(monkeypatch):
    system, _ = _euler_system(coupled=False)
    states = np.ones((2, 14, 10, 3, 4))
    states[0, 1, 2, 0, 3] = -0.5   # first strip
    states[1, 9, 5, 0, 1] = -2.0   # a later strip, and lower
    monkeypatch.setattr(cweno, "STRIP_BYTES", 1)
    assert len(system._x_strips(states)) == 14
    lowest = [LowestAdmissibility(system.model, axis=1) for _ in range(2)]
    system._llf(states, np.ones_like(states), 0, Workspace(), lowest, 0)
    with pytest.raises(AdmissibilityError) as err:
        for side in lowest:
            side.check()
    assert err.value.where == (1, 9, 5)
    assert err.value.index == 1


def _euler_with_two_negative_densities(coupled: bool):
    """The Euler system with two negative densities in different x strips,
    the later one lower."""
    system, data = _euler_system(coupled)
    values = system._to_values(data).copy()
    values[2, 3, 0, 1] = -0.5
    values[9, 5, 0, 6 if coupled else 3] = -2.0
    return system, system._from_values(values) if coupled else values


@pytest.mark.parametrize("coupled", [True, False], ids=["galerkin", "batch"])
def test_rhs_admissibility_error_names_the_global_minimum(monkeypatch, coupled):
    """The strip pass checks each strip's interface values as it goes; the
    error it raises must still be the whole-array pass's, in global face
    indices."""
    system, data = _euler_with_two_negative_densities(coupled)
    with pytest.raises(AdmissibilityError) as expected:
        rhs_reference(system, data, 0.0)
    assert expected.value.where[1] > 2  # the later, lower density
    for budget in (1, HUGE):
        monkeypatch.setattr(cweno, "STRIP_BYTES", budget)
        with pytest.raises(AdmissibilityError) as err:
            system.rhs(data, 0.0, Workspace())
        assert err.value.where == expected.value.where
        assert err.value.index == expected.value.index
        assert str(err.value) == str(expected.value)


@pytest.mark.parametrize("coupled", [True, False], ids=["galerkin", "batch"])
def test_compute_dt_admissibility_error_names_the_global_minimum(monkeypatch, coupled):
    system, data = _euler_with_two_negative_densities(coupled)
    with pytest.raises(AdmissibilityError) as expected:
        compute_dt_reference(system, data, 0.45)
    monkeypatch.setattr(cweno, "STRIP_BYTES", 1)
    with pytest.raises(AdmissibilityError) as err:
        system.compute_dt(data, 0.45, Workspace())
    assert (err.value.where, err.value.index) == (expected.value.where, expected.value.index)
    assert err.value.where[0] == 9


def _euler_with_nan_then_negative_density(coupled: bool):
    """The Euler system with a NaN density in one x strip and a negative
    one in a later strip."""
    system, data = _euler_system(coupled)
    values = system._to_values(data).copy()
    values[2, 3, 0, 1] = np.nan
    values[9, 5, 0, 3] = -2.0
    return system, system._from_values(values) if coupled else values


@pytest.mark.parametrize("budget", [1, cweno.STRIP_BYTES], ids=["row-strips", "default"])
@pytest.mark.parametrize("coupled", [True, False], ids=["galerkin", "batch"])
def test_nan_hides_a_later_violation_as_one_whole_array_check_does(monkeypatch, coupled,
                                                                   budget):
    """A NaN density in one x strip and a negative one in a later strip:
    one check of the whole array finds a NaN minimum and raises nothing, and
    neither do ``rhs`` and ``compute_dt``.  No model map sees the negative
    density, the right-hand side is not finite next to the NaN, and
    ``advance`` ends in SolverAbort for its NaN time step."""
    system, data = _euler_with_nan_then_negative_density(coupled)
    assert np.isnan(check_admissible_values(system.model, system._to_values(data)))
    seen = []
    for name in ("values_flux", "values_speed_bound"):
        def spy(self, vals, axis, out, mapped=getattr(Euler2D, name)):
            seen.append(vals[..., 0, :].min())
            return mapped(self, vals, axis, out)
        monkeypatch.setattr(Euler2D, name, spy)
    monkeypatch.setattr(cweno, "STRIP_BYTES", budget)
    rhs = system.rhs(data, 0.0, Workspace())
    for i, j in ((2, 3), (1, 3), (3, 3), (2, 2), (2, 4)):
        assert not np.isfinite(rhs[i, j]).all()
    assert np.isnan(system.compute_dt(data, 0.45, Workspace()))
    assert all(low > 0.0 for low in seen)
    with pytest.raises(SolverAbort) as err:
        advance(system, GpcField(system.grid, data, 0.0), 0.1, cfl=0.45)
    assert err.value.cause is None


@pytest.mark.parametrize("coupled", [True, False], ids=["galerkin", "batch"])
def test_nan_time_step_aborts_before_the_step(monkeypatch, coupled):
    """The NaN state above gives a NaN time step: ``advance`` aborts at the
    state's time and runs no right-hand side on it."""
    system, data = _euler_with_nan_then_negative_density(coupled)
    calls = []
    rhs = SemiDiscreteSystem.rhs

    def counting(self, *args, **kwargs):
        calls.append(1)
        return rhs(self, *args, **kwargs)

    monkeypatch.setattr(SemiDiscreteSystem, "rhs", counting)
    with pytest.raises(SolverAbort) as err:
        advance(system, GpcField(system.grid, data, 0.0), 0.1, cfl=0.45)
    assert err.value.time == 0.0
    assert calls == []


def test_lowest_admissibility_over_blocks_equals_one_whole_array_check():
    """Blocks along the x axis (axis 1 of 2D interface values, after the
    Gauss node): a tie goes to the first location in C order, which may
    lie in a later block, and a NaN anywhere hides every violation."""
    model = Euler2D()
    values = np.random.default_rng(21).uniform(0.5, 2.0, size=(2, 9, 4, 3, 5))
    values[1, 2, 1, 0, 3] = -1.0  # an earlier block, the second Gauss node
    values[0, 7, 0, 0, 2] = -1.0  # a later block, the first Gauss node: first in C order
    values[0, 5, 2, 0, 4] = -0.5
    with pytest.raises(AdmissibilityError) as expected:
        check_admissible_values(model, values)
    assert expected.value.where == (0, 7, 0)
    for cuts in ([0, 9], [0, 3, 9], list(range(10))):
        lowest = LowestAdmissibility(model, axis=1)
        for i, j in zip(cuts[:-1], cuts[1:]):
            lowest.add(values[:, i:j], i)
        with pytest.raises(AdmissibilityError) as err:
            lowest.check()
        assert str(err.value) == str(expected.value)
        assert (err.value.where, err.value.index) == (expected.value.where, expected.value.index)
    values[1, 8, 3, 0, 0] = np.nan
    assert np.isnan(check_admissible_values(model, values))
    lowest = LowestAdmissibility(model, axis=1)
    for i in range(9):
        lowest.add(values[:, i:i + 1], i)
    lowest.check()


@pytest.mark.parametrize("make, coupled", [(_euler_system, True), (_euler_system, False),
                                           (_scalar_system, True), (_psystem_system, True),
                                           (_psystem_system, False)],
                         ids=["euler-galerkin", "euler-batch", "scalar-galerkin",
                              "psystem-galerkin", "psystem-batch"])
def test_compute_dt_is_strip_invariant_and_matches_whole_field_oracle(monkeypatch, make,
                                                                      coupled):
    system, data = make(coupled)
    dt, lowest = compute_dt_reference(system, data, 0.45)
    for budget in (1, 3 * data[0].nbytes, HUGE):  # one row, three rows, one strip
        monkeypatch.setattr(cweno, "STRIP_BYTES", budget)
        system.admissibility_min = np.inf
        assert system.compute_dt(data, 0.45, Workspace()) == dt
        assert system.admissibility_min == lowest


def test_strips_keep_min_rows_and_join_a_short_tail():
    assert cweno.strips(7, cweno.STRIP_BYTES) == [(i, i + 1) for i in range(7)]
    assert cweno.strips(7, cweno.STRIP_BYTES, min_rows=2) == [(0, 2), (2, 4), (4, 7)]
    assert cweno.strips(6, cweno.STRIP_BYTES, min_rows=2) == [(0, 2), (2, 4), (4, 6)]
    assert cweno.strips(1, cweno.STRIP_BYTES, min_rows=2) == [(0, 1)]
    assert cweno.strips(0, 8) == []


@pytest.mark.parametrize("m", [1, 2, 8, 16, 17, 128])
def test_stochastic_max_equals_the_reduction(m):
    a = np.random.default_rng(m).normal(size=(2, 5, 7, m))
    a[1, 2, 3, m // 2] = np.nan
    a[0, 1, 1, :] = -np.inf
    got = solver._stochastic_max(a, np.empty(a.shape[:-1]))
    assert np.array_equal(got, np.max(a, axis=-1), equal_nan=True)


def test_compute_dt_never_transforms_a_one_row_block(monkeypatch):
    """A one-row matrix product rounds differently from a taller one (by up
    to 7e-15 at level 6), so the strips of a field with one matrix row per
    x cell keep two rows at least, a short last one joining the strip
    before it."""
    system, data = _scalar_system(coupled=True)
    shapes = []
    to_values = SemiDiscreteSystem._to_values

    def recording(self, modes, out=None):
        shapes.append(modes.shape)
        return to_values(self, modes, out=out)

    monkeypatch.setattr(SemiDiscreteSystem, "_to_values", recording)
    monkeypatch.setattr(cweno, "STRIP_BYTES", 1)
    for rows in (40, 39):
        shapes.clear()
        system.compute_dt(data[:rows], 0.45, Workspace())
        assert sum(shape[0] for shape in shapes) == rows
        assert min(shape[0] for shape in shapes) >= 2
