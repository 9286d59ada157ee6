"""Host-speed calibration for the benchmark's timings.

The machines the benchmark runs on are shared: their speed drifts by
tens of percent over minutes, and a run's wall times drift with it. A
fixed calibration kernel, which uses no det3d code, is timed all through
a run, next to the measured calls. The median of its times over
`REFERENCE_MS` is the run's slowdown, and the gated timings are divided by
it: they read as times on a host where the kernel takes `REFERENCE_MS`. A
change to det3d moves them; a change in the host's speed mostly does not.
The raw wall times are printed next to them.
"""

import time

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

REFERENCE_MS = 4.0


class HostSpeed:
    """Times the calibration kernel: a windowed max over a float32 plane,
    a sort of Python floats and a loop of small numpy calls, the mix of
    work det3d's frames do."""

    def __init__(self):
        rng = np.random.default_rng(20240917)
        self._plane = rng.random((120, 160)).astype(np.float32)
        self._values = rng.random(4000).tolist()
        self._kernel()

    def _kernel(self):
        padded = np.pad(self._plane, 1, constant_values=-np.inf)
        sliding_window_view(padded, (3, 3)).max(axis=(2, 3))
        sorted(self._values)
        for row in range(60):
            np.argwhere(self._plane[row : row + 3, 0:3] > 0.5)

    def factor(self):
        """The host's slowdown now: kernel time over the reference time."""
        start = time.perf_counter()
        self._kernel()
        return (time.perf_counter() - start) * 1000.0 / REFERENCE_MS
