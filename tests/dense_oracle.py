"""Dense reference path: the full 3(n+1) faulted nodal system.

The library reduces the network once to the relay terminals and adds the
fault by 3x3 algebra. This module solves the whole faulted network instead,
as an independent oracle for the reduced Omega: the faulted bus admittance
matrix with the virtual fault bus F, the incremental left- and right-hand
sides, their refined dense solve, and the KCL rows giving the remote current.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from incrrelay import config
from incrrelay.admittance import SingularSystemError
from incrrelay.network import BusRole, NetworkModel, phase_impedance

# The segment stamps are 1/m_t and 1/(1-m_t), so this formulation needs the
# fault location kept this far from both line ends.
EPS = 1e-6


@dataclass(frozen=True)
class FaultedSystem:
    """Bus admittance matrix with the virtual fault bus at block offset 0."""

    y: np.ndarray  # 3(n+1) x 3(n+1), siemens
    m_t: float
    offsets: dict[str, int] = field(compare=False)  # bus id -> row offset; "F" = 0
    order: tuple[str, ...] = ()  # bus ids in block order after F

    def block(self, bus_id: str) -> slice:
        off = 0 if bus_id == "F" else self.offsets[bus_id]
        return slice(off, off + 3)


@dataclass(frozen=True)
class IncrementalSystem:
    """Left- and right-hand sides of the incremental solve.

    Unknown ordering follows the faulted system blocks: incremental voltages
    at F, junctions, and IBRs, then incremental SG currents in the SG slots.
    """

    y_lhs: np.ndarray
    y_rhs: np.ndarray  # 3(n+1) x 3
    m_t: float
    offsets: dict[str, int] = field(compare=False)


def block_order(net: NetworkModel) -> tuple[str, ...]:
    """Bus ordering used in all stacked vectors: junctions, IBRs, then SGs."""
    order = []
    for role in (BusRole.JUNCTION, BusRole.IBR, BusRole.SG):
        order.extend(b.id for b in net.buses if b.role == role)
    return tuple(order)


def assemble_y(net: NetworkModel, m_t: float) -> FaultedSystem:
    """Series-only nodal admittance matrix with the virtual fault bus.

    Every line stamps the inverse of its 3x3 phase-impedance matrix; the
    protected line stamps two segments, local--F and F--remote. Shunt terms
    are deliberately absent (they enter the incremental left-hand side).
    """
    if not EPS <= m_t <= 1.0 - EPS:
        raise ValueError(f"m_t={m_t} outside the clamped range [{EPS}, {1.0 - EPS}]")
    order = block_order(net)
    offsets = {bus_id: 3 * (k + 1) for k, bus_id in enumerate(order)}
    offsets["F"] = 0
    n = len(net.buses)
    y = np.zeros((3 * (n + 1), 3 * (n + 1)), dtype=complex)

    def stamp(off_i: int, off_j: int, y_blk: np.ndarray):
        y[off_i : off_i + 3, off_i : off_i + 3] += y_blk
        y[off_j : off_j + 3, off_j : off_j + 3] += y_blk
        y[off_i : off_i + 3, off_j : off_j + 3] -= y_blk
        y[off_j : off_j + 3, off_i : off_i + 3] -= y_blk

    for line in net.lines:
        z = phase_impedance(line)
        if line.id == net.protected_line:
            # from/to may be (local, remote) or (remote, local); segments are
            # anchored to the relay's local bus
            y_local = np.linalg.inv(m_t * z)
            y_remote = np.linalg.inv((1.0 - m_t) * z)
            stamp(offsets[net.local_bus], 0, y_local)
            stamp(0, offsets[net.remote_bus], y_remote)
        else:
            stamp(offsets[line.from_bus], offsets[line.to_bus], np.linalg.inv(z))
    return FaultedSystem(y=y, m_t=m_t, offsets=offsets, order=order)


def assemble_incremental(
    net: NetworkModel,
    faulted: FaultedSystem,
    stamp: np.ndarray,
    m_t: float,
) -> IncrementalSystem:
    """Build the incremental left- and right-hand sides.

    The left-hand side adds the fault stamp at F, junction shunts, and the
    negated IBR Norton admittances to the bus admittance matrix; the SG
    voltage columns are zeroed out and replaced with -I so the incremental SG
    currents take the SG slots of the unknown vector.
    """
    if faulted.m_t != m_t:
        raise ValueError("faulted system was assembled for a different m_t")
    y_lhs = faulted.y.copy()
    y_lhs[0:3, 0:3] += stamp
    for bus in net.buses:
        blk = faulted.block(bus.id)
        if bus.role is BusRole.JUNCTION:
            y_lhs[blk, blk] += bus.shunt()
        elif bus.role is BusRole.IBR:
            y_lhs[blk, blk] -= bus.shunt()
    for bus in net.buses_with_role(BusRole.SG):
        blk = faulted.block(bus.id)
        y_lhs[:, blk] = 0.0
        y_lhs[blk, blk] = -np.eye(3)

    y_rhs = np.zeros((y_lhs.shape[0], 3), dtype=complex)
    y_rhs[0:3, :] = -stamp

    cond = np.linalg.cond(y_lhs)
    if not np.isfinite(cond):
        raise SingularSystemError(
            f"incremental system singular at m_t={m_t}"
        )
    if cond > config.COND_WARN:
        warnings.warn(
            f"incremental system ill-conditioned at m_t={m_t}: cond={cond:.3e}",
            RuntimeWarning,
            stacklevel=2,
        )
    return IncrementalSystem(y_lhs=y_lhs, y_rhs=y_rhs, m_t=m_t, offsets=faulted.offsets)


def _refined_solve(a: np.ndarray, b: np.ndarray, iters: int = 2) -> np.ndarray:
    """Solve a x = b (both 2-D) with iterative refinement.

    The clamped locations put admittances of order 1/EPS into ``a``, so a
    plain double-precision solve loses about cond * ulp; two refinement
    steps with the residual in extended precision recover the digits.
    """
    a_hi = np.asarray(a, dtype=np.clongdouble)
    b_hi = np.asarray(b, dtype=np.clongdouble)
    x = np.linalg.solve(a, b)
    for _ in range(iters):
        r = b_hi - a_hi @ x.astype(np.clongdouble)
        x = x + np.linalg.solve(a, r.astype(complex))
    return x


def solve_omega(sys: IncrementalSystem) -> np.ndarray:
    """Dense solve mapping the prefault fault-bus voltage to the incremental state."""
    try:
        return _refined_solve(sys.y_lhs, sys.y_rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            f"incremental system singular at m_t={sys.m_t}"
        ) from exc


def selector(net: NetworkModel, offsets: dict[str, int], bus_id: str) -> np.ndarray:
    """Row selector extracting bus ``bus_id``'s 3-block from the stacked state.

    Defined only for the virtual fault bus and non-SG buses: the SG slots of
    the stacked vector hold currents, not voltages.
    """
    if bus_id != "F" and net.bus(bus_id).role is BusRole.SG:
        raise ValueError(f"bus {bus_id!r} is an SG; its slot holds a current")
    size = 3 * (len(net.buses) + 1)
    d = np.zeros((3, size))
    off = 0 if bus_id == "F" else offsets[bus_id]
    d[:, off : off + 3] = np.eye(3)
    return d


def remote_kcl_rows(net: NetworkModel, offsets: dict[str, int]) -> np.ndarray:
    """Row operator giving the incremental current into the protected line at R.

    Equivalent to dividing the voltage difference across the remote segment
    by its impedance, but expressed through the KCL balance at the remote
    bus: that form stays accurate when the segment shrinks to the clamp
    width and the voltage difference cancels catastrophically.
    """
    size = 3 * (len(net.buses) + 1)
    rows = np.zeros((3, size), dtype=complex)
    r_id = net.remote_bus
    bus = net.bus(r_id)
    d_r = selector(net, offsets, r_id)
    if bus.role is BusRole.JUNCTION:
        rows -= bus.shunt() @ d_r
    else:  # IBR: incremental source current is zero, Norton term remains
        rows += bus.shunt() @ d_r
    for line in net.lines:
        if line.id == net.protected_line:
            continue
        if line.from_bus == r_id:
            other = line.to_bus
        elif line.to_bus == r_id:
            other = line.from_bus
        else:
            continue
        w = np.linalg.inv(phase_impedance(line))
        rows -= w @ d_r
        if net.bus(other).role is not BusRole.SG:
            # SG incremental voltage is zero; its term drops
            rows += w @ selector(net, offsets, other)
    return rows
