"""Test-only oracle for ``output.write_field_csv``: the writer it replaced,
which builds every line as a string first and then writes them all.  The
streamed writer must produce the same bytes."""

import os

from haarsg.reference import mean_std


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_field_csv_reference(field, path: str, kinds: tuple[str, ...] = ("mode",)) -> None:
    """Dump a field (and/or its statistics) as CSV, one line at a time."""
    grid = field.grid
    two_d = grid.space_dim == 2
    header = "t,x,y,component,kind,index,value" if two_d else "t,x,component,kind,index,value"
    mean = std = None
    if "mean" in kinds or "std" in kinds:
        mean, std = mean_std(field)
    xs = grid.x_centers
    ys = grid.y_centers if two_d else None
    tstr = _fmt(field.time)
    lines = [header]

    def cell_rows(ix, iy, prefix):
        block = field.data[(ix, iy) if two_d else (ix,)]
        for comp in range(block.shape[0]):
            if "mode" in kinds:
                for k in range(block.shape[1]):
                    lines.append(f"{prefix},{comp},mode,{k},{_fmt(block[comp, k])}")
            if "mean" in kinds:
                m = mean[(ix, iy) if two_d else (ix,)][comp]
                lines.append(f"{prefix},{comp},mean,0,{_fmt(m)}")
            if "std" in kinds:
                s = std[(ix, iy) if two_d else (ix,)][comp]
                lines.append(f"{prefix},{comp},std,0,{_fmt(s)}")

    if two_d:
        for iy in range(grid.ny):
            for ix in range(grid.nx):
                cell_rows(ix, iy, f"{tstr},{_fmt(xs[ix])},{_fmt(ys[iy])}")
    else:
        for ix in range(grid.nx):
            cell_rows(ix, None, f"{tstr},{_fmt(xs[ix])}")
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="ascii", newline="\n") as handle:
        for line in lines:
            handle.write(line + "\n")
