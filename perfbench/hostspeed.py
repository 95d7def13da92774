"""Host speed, measured with a fixed calibration loop.

The shared host this benchmark was built on (2 vCPUs) changes speed by up
to 1.4x within seconds to minutes, in process CPU time as much as in wall
time, so op times from two runs differ by that much with no change to the
program. The calibration loop does a fixed amount of work of the kind the
program does: interpreted Python arithmetic and small stacked complex
solves. A run calls it between ops, outside the timed region, and scales
its gated times to the host speed at which one loop takes ``REF_S``.
"""

from __future__ import annotations

import time

import numpy as np

# the loop's time on an unloaded moment of the build host, rounded; any
# fixed value works, since the metrics compare runs scaled by the same one
REF_S = 0.025

_RNG = np.random.default_rng(0)
_A = _RNG.standard_normal((16, 15, 15)) + 1j * _RNG.standard_normal((16, 15, 15))
_B = np.ones((16, 15, 1), dtype=complex)


def calibration_loop() -> float:
    """Seconds the fixed calibration work took."""
    t0 = time.perf_counter()
    z = 0j
    for i in range(30000):
        z = z * 0.5 + complex(i % 7, i % 3)
    for _ in range(120):
        np.linalg.solve(_A, _B)
    return time.perf_counter() - t0
