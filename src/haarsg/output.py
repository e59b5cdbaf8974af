"""Structured CSV output with byte-reproducible formatting.

All values are written with 17 significant digits; row order is fixed
(y-major, then x, then component, then mode index) so identical runs produce
identical files.  A field is streamed to its file a chunk of cells at a
time instead of being held as a list of lines; the bytes are those of the
list-then-write form, and so are the lines of every other writer, which
are generated one at a time while the file is written.
"""

from __future__ import annotations

import itertools
import os

import numpy as np

from .basis import HaarTypeBasis
from .reference import MonteCarloEnvelope, mean_std
from .solver import GpcField


#: lines whose values ``write_field_csv`` reads at a time
CHUNK_LINES = 4096


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _open_csv(path: str):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    return open(path, "w", encoding="ascii", newline="\n")


def _write_lines(path: str, lines) -> None:
    with _open_csv(path) as handle:
        for line in lines:
            handle.write(line + "\n")


def write_field_csv(field: GpcField, path: str, kinds: tuple[str, ...] = ("mode",),
                    basis: HaarTypeBasis | None = None) -> None:
    """Dump a field (and/or its statistics) as CSV.

    Header is ``t,x[,y],component,kind,index,value``; ``kind`` is one of
    mode, mean, std (mean/std always carry index 0, and need the field's
    ``basis``).  The values are read about ``CHUNK_LINES`` lines at a time,
    and each cell's lines are formatted from one template straight into the
    file's buffer, so no list of the file's lines is ever built.
    """
    grid = field.grid
    two_d = grid.space_dim == 2
    header = "t,x,y,component,kind,index,value" if two_d else "t,x,component,kind,index,value"
    # the line suffixes of one cell, in file order
    suffixes = []
    for comp in range(field.data.shape[-2]):
        if "mode" in kinds:
            suffixes += [f",{comp},mode,{k},%.17g\n" for k in range(field.data.shape[-1])]
        suffixes += [f",{comp},{kind},0,%.17g\n" for kind in ("mean", "std") if kind in kinds]
    cells = max(1, CHUNK_LINES // max(len(suffixes), 1))
    tstr = _fmt(field.time)
    xs = [_fmt(x) for x in grid.x_centers]
    rows = ([(iy, f",{_fmt(y)}") for iy, y in enumerate(grid.y_centers)] if two_d
            else [(None, "")])
    with _open_csv(path) as handle:
        handle.write(header + "\n")
        if not suffixes:
            return
        for iy, ystr in rows:
            for i in range(0, grid.nx, cells):
                block = field.data[i:i + cells] if iy is None else field.data[i:i + cells, iy]
                values = _line_values(block, kinds, basis).reshape(len(block), -1).tolist()
                handle.writelines(
                    (prefix + prefix.join(suffixes)) % tuple(cell)
                    for prefix, cell in zip((f"{tstr},{x}{ystr}" for x in xs[i:i + cells]),
                                            values))


def _line_values(block: np.ndarray, kinds: tuple[str, ...],
                 basis: HaarTypeBasis | None) -> np.ndarray:
    """Values of the lines of ``block`` (cells, components, K+1) in file
    order: per component its modes, mean and std, as ``kinds`` asks."""
    parts = [block] if "mode" in kinds else []
    if "mean" in kinds or "std" in kinds:
        mean, std = mean_std(block, basis)
        parts += [stat[..., None] for kind, stat in (("mean", mean), ("std", std))
                  if kind in kinds]
    return np.concatenate(parts, axis=-1)


def read_field_csv(path: str):
    """Read a mode-kind field CSV back into (t, xs[, ys], data)."""
    with open(path, encoding="ascii") as handle:
        header = handle.readline().strip().split(",")
        two_d = "y" in header
        rows = [line.rstrip("\n").split(",") for line in handle if line.strip()]
    if not rows:
        raise ValueError(f"{path} holds no data rows")
    t = float(rows[0][0])
    mode_rows = [r for r in rows if r[3 + two_d] == "mode"]
    if not mode_rows:
        raise ValueError(f"{path} holds no mode rows")
    xs = sorted({float(r[1]) for r in mode_rows})
    ys = sorted({float(r[2]) for r in mode_rows}) if two_d else None
    ncomp = 1 + max(int(r[2 + two_d]) for r in mode_rows)
    nmode = 1 + max(int(r[4 + two_d]) for r in mode_rows)
    xi = {x: i for i, x in enumerate(xs)}
    shape = (len(xs), len(ys), ncomp, nmode) if two_d else (len(xs), ncomp, nmode)
    data = np.zeros(shape)
    if two_d:
        yi = {y: i for i, y in enumerate(ys)}
        for r in mode_rows:
            data[xi[float(r[1])], yi[float(r[2])], int(r[3]), int(r[5])] = float(r[6])
    else:
        for r in mode_rows:
            data[xi[float(r[1])], int(r[2]), int(r[4])] = float(r[5])
    return t, np.asarray(xs), ys if ys is None else np.asarray(ys), data


def write_matrix_csv(matrix: np.ndarray, path: str) -> None:
    """Row-major dump of one dense matrix."""
    _write_lines(path, (",".join(_fmt(v) for v in row) for row in np.atleast_2d(matrix)))


def write_table_csv(path: str, header: list[str], rows) -> None:
    """A header line, then one line per row of ``rows`` (any iterable)."""
    _write_lines(path, itertools.chain(
        [",".join(header)],
        (",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) for row in rows)))


def write_profile_csv(path: str, x: np.ndarray, columns: dict[str, np.ndarray]) -> None:
    write_table_csv(path, ["x"] + list(columns),
                    ([float(x[i])] + [float(col[i]) for col in columns.values()]
                     for i in range(len(x))))


def write_envelope_csv(envelope: MonteCarloEnvelope, path: str) -> None:
    write_profile_csv(path, envelope.x, {
        "min": envelope.minimum, "max": envelope.maximum, "mean": envelope.mean})
