"""The CSV writers stream their lines to the file; the bytes must be those
of the list-then-write oracles in ``output_reference``, and a writer must
hold only a small part of the file's text at a time."""

import itertools
import tracemalloc

import numpy as np
import pytest
from output_reference import (write_field_csv_reference, write_matrix_csv_reference,
                              write_profile_csv_reference, write_table_csv_reference)

from haarsg import output
from haarsg.output import write_field_csv
from haarsg.solver import Grid, GpcField

KINDS = [combo for r in range(4) for combo in itertools.combinations(("mode", "mean", "std"), r)]
SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072e-309, -1e-310,
                    1e300, -1e300, np.nan, np.inf, -np.inf, 1.0 / 3.0, -2.5, 1e-5])


def _field(two_d: bool, comps: int, modes: int, seed: int) -> GpcField:
    rng = np.random.default_rng(seed)
    if two_d:
        grid = Grid(nx=7, x_bounds=(-1.0, 1.0), ny=5, y_bounds=(0.0, 0.3))
    else:
        grid = Grid(nx=11, x_bounds=(-2.0, 2.0 / 3.0))
    shape = (grid.nx,) + ((grid.ny,) if two_d else ()) + (comps, modes)
    data = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
    flat = data.reshape(-1)
    flat[rng.choice(flat.size, size=3 * SPECIAL.size, replace=False)] = np.tile(SPECIAL, 3)
    return GpcField(grid, data, time=float(rng.uniform(0.0, 1.0)))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("kinds", KINDS, ids=["+".join(k) or "none" for k in KINDS])
@pytest.mark.parametrize("two_d, comps, modes", [(False, 1, 8), (False, 2, 5), (True, 3, 8),
                                                  (True, 2, 1)],
                         ids=["1d-scalar", "1d-system", "2d-euler", "2d-one-mode"])
def test_streamed_field_csv_is_byte_identical(tmp_path, monkeypatch, kinds, two_d, comps,
                                              modes):
    field = _field(two_d, comps, modes, seed=len(kinds) + 10 * comps + modes)
    expected = tmp_path / "reference.csv"
    write_field_csv_reference(field, str(expected), kinds)
    # the default chunk, one cell per chunk and chunks that end inside a row of cells
    for lines in (output.CHUNK_LINES, 1, 3 * comps * modes + 1):
        monkeypatch.setattr(output, "CHUNK_LINES", lines)
        got = tmp_path / f"streamed_{lines}.csv"
        write_field_csv(field, str(got), kinds)
        assert got.read_bytes() == expected.read_bytes()


def test_writing_a_field_holds_a_small_part_of_it(tmp_path):
    """A 100x100 Euler field at K+1 = 8 is 240,000 lines; the writer that
    listed them first held about 18 times the field's bytes."""
    grid = Grid(nx=100, x_bounds=(0.0, 1.0), ny=100, y_bounds=(0.0, 1.0))
    field = GpcField(grid, np.random.default_rng(3).normal(size=(100, 100, 3, 8)), 0.1)
    for kinds in (("mode",), ("mean", "std")):
        tracemalloc.start()
        try:
            write_field_csv(field, str(tmp_path / "field.csv"), kinds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= field.data.nbytes / 4, kinds


def test_streamed_matrix_table_and_profile_csv_are_byte_identical(tmp_path):
    rng = np.random.default_rng(5)
    matrix = rng.normal(size=(6, 5)) * 10.0 ** rng.integers(-300, 300, size=(6, 5))
    matrix.reshape(-1)[:SPECIAL.size] = SPECIAL[:matrix.size]
    rows = [[k, "dct", float(v), int(k) * 2] for k, v in enumerate(SPECIAL)]
    columns = {"min": SPECIAL, "max": SPECIAL[::-1], "mean": np.arange(SPECIAL.size)}
    x = np.linspace(-1.0, 1.0, SPECIAL.size)
    for name, write, reference, args in (
            ("matrix", output.write_matrix_csv, write_matrix_csv_reference, (matrix,)),
            ("vector", output.write_matrix_csv, write_matrix_csv_reference, (SPECIAL,))):
        write(*args, str(tmp_path / f"{name}.csv"))
        reference(*args, str(tmp_path / f"{name}.ref.csv"))
    for name, write, reference, args in (
            ("table", output.write_table_csv, write_table_csv_reference,
             (["index", "basis", "value", "twice"], rows)),
            ("empty", output.write_table_csv, write_table_csv_reference, (["a", "b"], [])),
            ("profile", output.write_profile_csv, write_profile_csv_reference, (x, columns))):
        write(str(tmp_path / f"{name}.csv"), *args)
        reference(str(tmp_path / f"{name}.ref.csv"), *args)
    for name in ("matrix", "vector", "table", "empty", "profile"):
        got = (tmp_path / f"{name}.csv").read_bytes()
        assert got == (tmp_path / f"{name}.ref.csv").read_bytes(), name


def test_writing_a_matrix_holds_a_small_part_of_it(tmp_path):
    """A 512x512 matrix is a 5.3 MB file; the writer that listed its lines
    first peaked at 5.36 MB of Python objects, about the whole file."""
    matrix = np.random.default_rng(4).normal(size=(512, 512))
    tracemalloc.start()
    try:
        output.write_matrix_csv(matrix, str(tmp_path / "M.csv"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "M.csv").stat().st_size > 5_000_000
    assert peak < 1_000_000
