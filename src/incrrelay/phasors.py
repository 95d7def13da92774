"""Three-phase phasor values, measurement windows, and fault-loop selectors."""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

# Fault-loop row selectors, phase order (a, b, c). Line-to-line selectors for
# bc and ca are cyclic permutations of ab.
PSI = {
    "ag": np.array([1.0, 0.0, 0.0]),
    "bg": np.array([0.0, 1.0, 0.0]),
    "cg": np.array([0.0, 0.0, 1.0]),
    "ab": np.array([1.0, -1.0, 0.0]),
    "bc": np.array([0.0, 1.0, -1.0]),
    "ca": np.array([-1.0, 0.0, 1.0]),
}

GROUND_LOOPS = ("ag", "bg", "cg")


@dataclass(frozen=True)
class Phasor3:
    """One complex phasor per phase; the unit of all measurements."""

    a: complex
    b: complex
    c: complex

    def __post_init__(self):
        for name in ("a", "b", "c"):
            v = complex(getattr(self, name))
            if not cmath.isfinite(v):
                raise ValueError(f"phase {name} is not finite: {v!r}")

    def as_array(self) -> np.ndarray:
        return np.array([self.a, self.b, self.c], dtype=complex)

    @classmethod
    def from_array(cls, arr) -> "Phasor3":
        a, b, c = np.asarray(arr, dtype=complex).reshape(3)
        return cls(a, b, c)


@dataclass(frozen=True)
class MeasurementWindow:
    """Relay measurements one cycle apart: (t - p*delta) and t.

    Functions that say so also take a stacked window, whose fields are
    phase arrays: (3,) for one value and (N, 3) for one row per fault point.
    """

    v_prev: Phasor3
    i_prev: Phasor3
    v_now: Phasor3
    i_now: Phasor3
    p: int = 1

    def __post_init__(self):
        if self.p < 1:
            raise ValueError(f"cycle offset p must be >= 1, got {self.p}")


def phase_array(x) -> np.ndarray:
    """Phase values of a Phasor3 or of a (..., 3) phase array, as an array."""
    return x.as_array() if isinstance(x, Phasor3) else np.asarray(x)
