"""Work arrays that the solver's stages write into instead of fresh arrays.

One calling convention holds for every numerical kernel: the ghost fill,
the reconstructions, the LLF flux, the right-hand side, the time step and
the Runge-Kutta step take the ``Workspace`` to write into, and a model's
flux and speed bound take the ``out`` array to write into; neither is
optional, and none of them has a form that allocates its result.

``solver.advance`` creates one ``Workspace`` per call and drops it when it
returns, so its arrays live exactly as long as one integration: every RK
stage of every step reuses them, and nothing outlives the call or is shared
between threads.
"""

from __future__ import annotations

import math
import mmap

import numpy as np


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
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def array(self, name: str, shape: tuple, reserve: int = 0) -> np.ndarray:
        """Work array ``name`` with ``shape``.  A buffer that has to be made
        holds at least ``reserve`` elements, so that a caller which will ask
        for more under the same name (the widening span of the 1D
        right-hand side) maps it once."""
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            count = max(size, reserve)
            pages = mmap.mmap(-1, max(8 * count, 1))  # 8 bytes per float64
            buf = self._buffers[name] = np.frombuffer(pages, np.float64, count=count)
        return buf[:size].reshape(shape)
