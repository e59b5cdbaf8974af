"""Work arrays that the solver's stages write into instead of fresh arrays.

One calling convention holds for every numerical kernel: the ghost fill,
the reconstructions, the LLF flux, the right-hand side, the time step and
the Runge-Kutta step take the ``Workspace`` to write into, and a model's
flux and speed bound take the ``out`` array to write into; neither is
optional, and none of them has a form that allocates its result.

``solver.advance`` creates one ``Workspace`` per call and drops it when it
returns, so its arrays live exactly as long as one integration: every RK
stage of every step reuses them, and nothing outlives the call.
"""

from __future__ import annotations

import math
import mmap

import numpy as np

#: byte budget of one strip of rows in the reconstructions, the LLF flux, the
#: 2D right-hand side and the time step, and the smallest buffer a
#: ``Workspace`` maps.  With the reconstruction in work arrays, 128 KiB gave
#: the fastest 100x100 Euler right-hand side (about 85 ms against 100 ms at
#: 512 KiB) and the smallest set of strip-sized arrays; it also keeps the
#: temporaries of the model's flux and speed bound in the 1D LLF (400 cells x
#: 128 modes, four strips) small enough that the allocator reuses their pages
#: instead of returning and re-faulting them (a scalar level-6 run: 26k minor
#: page faults at 128 KiB, 200k at 256 KiB, 360k at 512 KiB).  With the 2D
#: LLF taking each face strip, both Gauss points, in one pass, it still gives
#: the fastest 100x100 Euler Galerkin right-hand side (96 KiB 3 % slower,
#: 192 KiB 2 %, 256 KiB 9 %; best of 32 calls in one process).
STRIP_BYTES = 128 * 1024


class Workspace:
    """Named work arrays, allocated on first use and reused after that.

    ``array(name, shape)`` is a view of the first elements of one flat
    float64 buffer per name, which grows when a request does not fit, so a
    name serves requests of different shapes (the x and y faces of a 2D
    grid, the ragged last strip) without allocating again.  The contents are
    valid only until the next request for the same name.

    Each buffer is an anonymous memory map of its own, so its pages leave
    the process when the workspace is dropped.  Taken from the heap, the
    freed buffers of a level-6 scalar solve (about 7 MB) stayed resident
    behind the returned state and raised the peak RSS of the output
    written after the solve above that of the solve itself.

    A buffer maps at least ``STRIP_BYTES``, so any strip of
    ``cweno.strips`` fits in it however the strips of the 1D span and range
    fall from call to call, and no caller says how large a name will grow;
    a page never written is never resident.
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def array(self, name: str, shape: tuple) -> np.ndarray:
        """Work array ``name`` with ``shape``."""
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            count = max(size, STRIP_BYTES // 8)  # 8 bytes per float64
            buf = self._buffers[name] = np.frombuffer(
                mmap.mmap(-1, 8 * count), np.float64, count=count)
        return buf[:size].reshape(shape)
