"""Three-phase phasor values, incremental quantities, and loop projections."""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

# Rotation operator for balanced sets: phase b lags a by 120 degrees.
ALPHA = cmath.exp(2j * cmath.pi / 3)

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

LOOPS = tuple(PSI)
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

    @classmethod
    def balanced(cls, ref: complex) -> "Phasor3":
        """Positive-sequence set with phase a equal to ``ref``."""
        return cls(ref, ref * ALPHA**2, ref * ALPHA)

    @classmethod
    def zero(cls) -> "Phasor3":
        return cls(0j, 0j, 0j)

    def __add__(self, other: "Phasor3") -> "Phasor3":
        return Phasor3(self.a + other.a, self.b + other.b, self.c + other.c)

    def __sub__(self, other: "Phasor3") -> "Phasor3":
        return Phasor3(self.a - other.a, self.b - other.b, self.c - other.c)

    def __mul__(self, scale: complex) -> "Phasor3":
        return Phasor3(self.a * scale, self.b * scale, self.c * scale)

    __rmul__ = __mul__

    def norm(self) -> float:
        return float(np.linalg.norm(self.as_array()))


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


def incremental(now: Phasor3, prev: Phasor3) -> Phasor3:
    """Incremental quantity: the phasor now minus the same phasor p cycles ago."""
    return now - prev


def zero_sequence(i: Phasor3) -> complex:
    """Zero-sequence component (i.a + i.b + i.c) / 3."""
    return (i.a + i.b + i.c) / 3.0


def loop_projection(psi: np.ndarray, x: Phasor3) -> complex:
    """Apply a fault-loop row selector to a three-phase value."""
    return complex(np.asarray(psi) @ x.as_array())
