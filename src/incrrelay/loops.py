"""Fault-loop quantities and apparent impedance.

Each fault type is measured on one of six loops. For ground loops the loop
current carries zero-sequence compensation so that a bolted fault reads
m_T * z1 exactly. The fault-resistance term projects the fault-bus voltage
onto the loop through the pseudoinverse of the normalized fault stamp; for
single-phase-to-ground and two-phase faults this reduces to the familiar
closed forms, and it stays exact for the multi-branch fault types.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import config
from .admittance import FAULT_TYPES, normalized_stamp
from .network import Line
from .phasors import GROUND_LOOPS, PSI, MeasurementWindow, phase_array

# Loop used to measure each fault type. Multi-phase faults (with or without
# ground) are measured on the line-to-line loop of the involved phase pair;
# three-phase faults use the ab loop by convention.
LOOP_FOR_FAULT = {
    "ag": "ag",
    "bg": "bg",
    "cg": "cg",
    "ab": "ab",
    "ac": "ca",
    "bc": "bc",
    "abg": "ab",
    "acg": "ca",
    "bcg": "bc",
    "abc": "ab",
    "abcg": "ab",
}


class UnenergizedLoopError(ValueError):
    """The loop current denominator is below the floor; loop not energized."""


@dataclass(frozen=True)
class LoopQuantities:
    """During-fault and incremental apparent voltage/current for one loop."""

    v_a: complex
    i_a: complex
    v_a_inc: complex
    i_a_inc: complex
    k: complex  # zero-sequence compensation factor of the protected line


def compensation_factor(line: Line) -> complex:
    return line.z0 / line.z1 - 1.0


def _loop_current(loop: str, i: np.ndarray, k: complex):
    cur = i @ PSI[loop]
    if loop in GROUND_LOOPS:
        cur = cur + k * (i.sum(axis=-1) / 3.0)
    return cur


def loop_quantities(eta: str, w: MeasurementWindow, line: Line) -> LoopQuantities:
    """Apparent voltage/current for the loop matched to fault type ``eta``.

    ``w`` may be a stacked window; the loop values are then (N,) arrays.
    """
    loop = LOOP_FOR_FAULT[eta]
    psi = PSI[loop]
    k = compensation_factor(line)
    v_prev, i_prev, v_now, i_now = (
        phase_array(x) for x in (w.v_prev, w.i_prev, w.v_now, w.i_now)
    )
    return LoopQuantities(
        v_a=v_now @ psi,
        i_a=_loop_current(loop, i_now, k),
        v_a_inc=(v_now - v_prev) @ psi,
        i_a_inc=_loop_current(loop, i_now - i_prev, k),
        k=k,
    )


# Row c per fault type with psi_loop . v_F = m_f*r_f * (c . i_F): i_F is the
# total current into the fault network, and c projects it back to the loop
# voltage through the pseudoinverse of the normalized stamp. The loop selector
# lies in the stamp's range for the matching loop, so the projection is well
# defined.
_FAULT_VOLTAGE_ROWS = {
    eta: PSI[LOOP_FOR_FAULT[eta]] @ np.linalg.pinv(normalized_stamp(eta))
    for eta in FAULT_TYPES
}


def apparent_impedances(
    eta: str,
    w: MeasurementWindow,
    line: Line,
    sigma: np.ndarray,
    m_t: np.ndarray,
    m_f: np.ndarray,
    r_f: float,
) -> np.ndarray:
    """Apparent impedance of the matched loop at N fault points.

    ``sigma`` is the (N, 3) stack of remote currents, one row per point
    (m_t[k], m_f[k]), or the (3,) remote current of scalar m_t and m_f. The
    window is shared, or a stacked window with one during-fault row per
    point. A bolted point (m_f = 0) reads m_t * z1.
    """
    lq = loop_quantities(eta, w, line)
    i_a = np.ravel(lq.i_a)
    low = np.abs(i_a) <= config.I_MIN
    if low.any():
        raise UnenergizedLoopError(
            f"loop {LOOP_FOR_FAULT[eta]} current |{i_a[np.argmax(low)]:.3e}| below floor"
        )
    phi = (phase_array(w.i_now) - phase_array(w.i_prev)) + sigma
    num = phi @ _FAULT_VOLTAGE_ROWS[eta]
    return m_t * line.z1 + m_f * r_f * num / lq.i_a
