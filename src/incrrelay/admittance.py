"""Fault types, fault realizations, and fault-resistor stamps.

A fault of type eta at the virtual fault bus F is a network of equal
resistors m_F * R_F: phases shorted to ground and phase-to-phase pairs. Its
3x3 admittance is the normalized stamp scaled by 1 / (m_F * R_F).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FAULT_TYPES = (
    "ag",
    "bg",
    "cg",
    "ab",
    "ac",
    "bc",
    "abg",
    "acg",
    "bcg",
    "abc",
    "abcg",
)

_PH = {"a": 0, "b": 1, "c": 2}

# Resistor branches per fault type: phases shorted to ground, and
# phase-to-phase pairs. Every branch carries the same resistance m_F * R_F.
FAULT_BRANCHES: dict[str, tuple[tuple[int, ...], tuple[tuple[int, int], ...]]] = {
    "ag": ((0,), ()),
    "bg": ((1,), ()),
    "cg": ((2,), ()),
    "ab": ((), ((0, 1),)),
    "ac": ((), ((0, 2),)),
    "bc": ((), ((1, 2),)),
    "abg": ((0, 1), ((0, 1),)),
    "acg": ((0, 2), ((0, 2),)),
    "bcg": ((1, 2), ((1, 2),)),
    "abc": ((), ((0, 1), (0, 2), (1, 2))),
    "abcg": ((0, 1, 2), ((0, 1), (0, 2), (1, 2))),
}


class SingularSystemError(np.linalg.LinAlgError):
    """The incremental network or a fault system is singular."""


@dataclass(frozen=True)
class FaultSpec:
    """One fault realization: type, location, resistance fraction, max ohms."""

    eta: str
    m_t: float
    m_f: float
    r_f: float

    def __post_init__(self):
        if self.eta not in FAULT_TYPES:
            raise ValueError(
                f"unknown fault type {self.eta!r}; expected one of {FAULT_TYPES}"
            )
        # the comparisons are false for NaN, so NaN is rejected too
        if not 0.0 <= self.m_t <= 1.0:
            raise ValueError(f"m_t must lie in [0, 1], got {self.m_t}")
        if not 0.0 <= self.m_f <= 1.0:
            raise ValueError(f"m_f must lie in [0, 1], got {self.m_f}")
        if not 0.0 < self.r_f < float("inf"):
            raise ValueError(f"r_f must be finite and positive, got {self.r_f}")


def normalized_stamp(eta: str) -> np.ndarray:
    """Fault stamp with unit conductance per branch (dimensionless)."""
    grounds, pairs = FAULT_BRANCHES[eta]
    m = np.zeros((3, 3), dtype=complex)
    for x in grounds:
        m[x, x] += 1.0
    for x, y in pairs:
        m[x, x] += 1.0
        m[y, y] += 1.0
        m[x, y] -= 1.0
        m[y, x] -= 1.0
    return m
