"""The mode/value transforms run one matrix product per block of interface
rows that merge without a copy, and the 1D reconstruction runs in strips;
both must agree with the oracles in ``solver_reference``."""

import functools
import tracemalloc

import numpy as np
import pytest
from solver_reference import edges_reference, transform_reference
from test_basis import ALL_BASES

from haarsg import (Grid, ScalarLipschitz, SemiDiscreteSystem, build_classical_haar, build_tensors,
                    from_spectrum, to_spectrum)
from haarsg import cweno
from haarsg.galerkin import _row_blocks
from haarsg.workspace import Workspace

BASES = ALL_BASES + [build_classical_haar(j) for j in (5, 6)]
HUGE = 1 << 40


def _system(basis):
    grid = Grid(nx=8, x_bounds=(0.0, 1.0))
    return SemiDiscreteSystem(ScalarLipschitz(), grid, tensors=build_tensors(basis))


def _interface_slices(rng, comps: int, size: int) -> dict:
    """The interface arrays the LLF transforms: the 1D edges of 9 cells and
    the x and y faces of a 6x5 grid, as slices of the reconstructions'
    results."""
    edges = rng.normal(size=(2, 10, comps, size))
    faces = rng.normal(size=(4, 2, 8, 7, comps, size))
    west, east, south, north = faces
    return {"edge.right": edges[1, :-1], "edge.left": edges[0, 1:],
            "face.east": east[:, :-1, 1:-1], "face.west": west[:, 1:, 1:-1],
            "face.north": north[:, 1:-1, :-1], "face.south": south[:, 1:-1, 1:],
            "field": rng.normal(size=(9, comps, size))}


def _maps(system):
    tensors = system.tensors
    return ((system._to_values, np.ascontiguousarray(tensors.eig_map.T)),
            (system._from_values, np.ascontiguousarray(tensors.eig_inv.T)))


def test_row_blocks_merge_every_row_that_needs_no_copy():
    rng = np.random.default_rng(0)
    slices = _interface_slices(rng, comps=3, size=8)
    assert _row_blocks(slices["edge.left"]).shape == (27, 8)
    assert _row_blocks(slices["field"]).shape == (27, 8)
    assert _row_blocks(slices["face.east"]).shape == (2, 7, 15, 8)
    assert _row_blocks(slices["face.north"]).shape == (2, 6, 18, 8)
    assert _row_blocks(np.ones(8)).shape == (1, 8)
    for view in slices.values():
        assert np.shares_memory(_row_blocks(view), view)


def test_coupled_system_keeps_no_matrix_of_its_own():
    """The system maps through its tensors' eigenframe, not a copy of it."""
    system = _system(build_classical_haar(3))
    assert not [name for name, v in vars(system).items() if isinstance(v, np.ndarray)]


@pytest.mark.parametrize("basis", BASES, ids=lambda b: f"{b.kind.value}-{b.size}")
def test_one_component_transforms_match_stacked_product_to_rounding(basis):
    system = _system(basis)
    rng = np.random.default_rng(basis.size)
    for name, a in _interface_slices(rng, comps=1, size=basis.size).items():
        for transform, matrix in _maps(system):
            expected = transform_reference(a, matrix)
            out = np.full(a.shape, np.nan)
            for got in (transform(a), transform(a, out=out)):
                assert got.shape == a.shape
                assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(a)), name
            assert np.array_equal(out, transform(a))


@pytest.mark.parametrize("comps", [2, 4])
@pytest.mark.parametrize("level", [0, 3, 6])
def test_multi_component_transforms_equal_stacked_product(level, comps):
    system = _system(build_classical_haar(level))
    rng = np.random.default_rng(level * 10 + comps)
    for name, a in _interface_slices(rng, comps, system.tensors.size).items():
        for transform, matrix in _maps(system):
            expected = transform_reference(a, matrix)
            assert np.array_equal(transform(a), expected), name
            assert np.array_equal(transform(a, out=np.empty(a.shape)), expected), name


def test_face_slice_transform_makes_no_copy():
    """Into a work array, transforming the x faces of a 40x40 grid allocates
    less than a quarter of the field: no copy of the slice or the result."""
    system = _system(build_classical_haar(2))
    field_bytes = 40 * 40 * 3 * 8 * 8
    east = np.random.default_rng(1).normal(size=(2, 42, 42, 3, 8))[:, :-1, 1:-1]
    values, modes = np.empty(east.shape), np.empty(east.shape)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        system._to_values(east, out=values)
        system._from_values(values, out=modes)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < field_bytes / 4


@pytest.mark.parametrize("bad", ["skips-components", "transposed"])
def test_out_that_cannot_take_the_blocks_raises_untouched(bad):
    system = _system(build_classical_haar(2))
    a = np.random.default_rng(2).normal(size=(9, 3, 8))
    if bad == "skips-components":
        out = np.full((9, 4, 8), np.nan)[:, :3]
    else:
        out = np.full((8, 3, 9), np.nan).T
    direct = [functools.partial(f, system.tensors) for f in (to_spectrum, from_spectrum)]
    for transform in [t for t, _ in _maps(system)] + direct:
        with pytest.raises(ValueError):
            transform(a, out=out)
        assert np.isnan(out).all()


@pytest.mark.parametrize("trailing", [(), (2,), (3, 8), (1, 128)])
@pytest.mark.parametrize("budget", ["row-strips", "ragged-strip", "one-strip"])
def test_edges_match_oracle_at_any_strip_budget(monkeypatch, trailing, budget):
    rng = np.random.default_rng(len(trailing))
    u = rng.normal(size=(9,) + trailing)
    u[4:] += 3.0  # a jump, so the nonlinear weights differ from cell to cell
    row = u[0].nbytes
    # 7 output rows: strips of 1, of 3 (3 + 3 + 1), or a single strip
    monkeypatch.setattr(cweno, "STRIP_BYTES",
                        {"row-strips": 1, "ragged-strip": 3 * row + row // 2,
                         "one-strip": HUGE}[budget])
    expected_strips = {"row-strips": 7, "ragged-strip": 3, "one-strip": 1}[budget]
    assert len(cweno.strips(7, row)) == expected_strips
    for eps in (1e-6, 0.01):
        left, right = cweno.cweno3_edges(u, eps, Workspace(), np.empty((2,) + u[2:].shape))
        ref_left, ref_right = edges_reference(u, eps)
        assert np.array_equal(left, ref_left)
        assert np.array_equal(right, ref_right)
