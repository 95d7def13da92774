"""Full-network fault simulator used as the brute-force oracle.

Solves the prefault and during-fault nodal equations directly, with SG
voltages and IBR source currents held at their prefault values. The nodal
system here is assembled by its own naive element loop, independent of the
admittance module, so agreement between the two paths is evidence rather
than tautology.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import config
from .admittance import FAULT_BRANCHES, FaultSpec
from .linalg import refined_solve
from .incremental import build_omega_map, remote_current
from .loops import LOOP_FOR_FAULT, apparent_impedance, loop_quantities
from .network import BusRole, Line, NetworkModel
from .phasors import MeasurementWindow, Phasor3, incremental


@dataclass(frozen=True)
class NetworkState:
    """Solved bus voltages (plus the fault bus) and SG terminal currents."""

    voltages: dict[str, Phasor3]  # bus id -> voltage; "F" = virtual fault bus
    sg_currents: dict[str, Phasor3]

    def v(self, bus_id: str) -> Phasor3:
        return self.voltages[bus_id]


@dataclass(frozen=True)
class ScenarioResult:
    prefault: NetworkState
    fault: NetworkState
    window: MeasurementWindow  # at the local bus
    remote_window: MeasurementWindow  # at the remote bus
    fault_current: Phasor3  # total current into the fault at F
    kcl_residual_prefault: float  # relative KCL residual of the solve
    kcl_residual_fault: float


@dataclass(frozen=True)
class VerificationReport:
    """Residuals comparing the incremental pipeline against direct solves."""

    fault: FaultSpec
    sigma_rel_err: float
    z_a_rel_err: float
    sg_voltage_inc_norm: float
    prefault_fault_current_norm: float
    prefault_balance_residual: float


def _segment_zabc(z1: complex, z0: complex) -> np.ndarray:
    # own copy of the circulant construction, kept separate from network.py
    zself = (z0 + 2.0 * z1) / 3.0
    zmut = (z0 - z1) / 3.0
    out = np.empty((3, 3), dtype=complex)
    for r in range(3):
        for c in range(3):
            out[r, c] = zself if r == c else zmut
    return out


def _naive_y(
    net: NetworkModel, m_t: float, split: bool = True
) -> tuple[np.ndarray, dict[str, int]]:
    """Element-by-element series stamping with the fault bus at offset 0.

    With ``split=False`` the protected line is stamped whole and the fault
    bus block is pinned to zero; used for the prefault solve, where keeping
    the huge clamped-segment admittances out of the matrix matters.

    Stamps accumulate in extended precision: at a clamped location the
    segment admittance is ~1/eps times the rest, and a double sum would
    round away the low digits of every other admittance at that bus (a
    relative error of ~1e-9 in the remote current at eps = 1e-6).
    """
    offsets = {"F": 0}
    nxt = 3
    for role in (BusRole.JUNCTION, BusRole.IBR, BusRole.SG):
        for bus in net.buses:
            if bus.role == role:
                offsets[bus.id] = nxt
                nxt += 3
    y = np.zeros((nxt, nxt), dtype=np.clongdouble)

    segments: list[tuple[str, str, np.ndarray]] = []
    for line in net.lines:
        zabc = _segment_zabc(line.z1, line.z0)
        if line.id == net.protected_line and split:
            segments.append((net.local_bus, "F", m_t * zabc))
            segments.append(("F", net.remote_bus, (1.0 - m_t) * zabc))
        elif line.id == net.protected_line:
            segments.append((net.local_bus, net.remote_bus, zabc))
        else:
            segments.append((line.from_bus, line.to_bus, zabc))
    for end_i, end_j, zseg in segments:
        yblk = np.linalg.inv(zseg)
        oi, oj = offsets[end_i], offsets[end_j]
        for r in range(3):
            for c in range(3):
                y[oi + r, oi + c] += yblk[r, c]
                y[oj + r, oj + c] += yblk[r, c]
                y[oi + r, oj + c] -= yblk[r, c]
                y[oj + r, oi + c] -= yblk[r, c]
    if not split:
        y[0:3, 0:3] = np.eye(3)
    return y, offsets


def _bolted_constraints(eta: str) -> list[np.ndarray]:
    """Independent constraint rows on the fault-bus voltage for m_f = 0.

    Built from the connected components of the fault graph over the three
    phases and ground: phases tied to ground are pinned to zero, phase
    groups without ground are pinned equal.
    """
    grounds, pairs = FAULT_BRANCHES[eta]
    parent = list(range(4))  # 0..2 phases, 3 = ground

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        parent[find(x)] = find(y)

    for ph in grounds:
        union(ph, 3)
    for x, y in pairs:
        union(x, y)

    rows: list[np.ndarray] = []
    groups: dict[int, list[int]] = {}
    for ph in range(3):
        groups.setdefault(find(ph), []).append(ph)
    ground_root = find(3)
    for root, phases in groups.items():
        if root == ground_root:
            for ph in phases:
                row = np.zeros(3)
                row[ph] = 1.0
                rows.append(row)
        elif len(phases) > 1:
            first = phases[0]
            for ph in phases[1:]:
                row = np.zeros(3)
                row[first] = 1.0
                row[ph] = -1.0
                rows.append(row)
    return rows


def _solve_state(
    net: NetworkModel,
    y: np.ndarray,
    offsets: dict[str, int],
    fault: FaultSpec | None,
) -> tuple[NetworkState, float]:
    """Solve one nodal system; ``fault=None`` means the unfaulted network."""
    size = y.shape[0]
    a = y.copy()
    b = np.zeros(size, dtype=np.clongdouble)

    for bus in net.buses:
        off = offsets[bus.id]
        blk = slice(off, off + 3)
        if bus.role is BusRole.JUNCTION:
            a[blk, blk] += bus.shunt()
        elif bus.role is BusRole.IBR:
            a[blk, blk] -= bus.shunt()
            b[blk] += bus.ibr_current.as_array()
        else:  # SG: voltage known, terminal current unknown
            v_s = bus.sg_voltage.as_array()
            b -= a[:, blk] @ v_s
            a[:, blk] = 0.0
            a[blk, blk] = -np.eye(3)

    n_con = 0
    if fault is not None:
        if fault.m_f > 0.0:
            g = 1.0 / (fault.m_f * fault.r_f)
            grounds, pairs = FAULT_BRANCHES[fault.eta]
            for ph in grounds:
                a[ph, ph] += g
            for x, yy in pairs:
                a[x, x] += g
                a[yy, yy] += g
                a[x, yy] -= g
                a[yy, x] -= g
        else:
            rows = _bolted_constraints(fault.eta)
            n_con = len(rows)
            aug = np.zeros((size + n_con, size + n_con), dtype=a.dtype)
            aug[:size, :size] = a
            for k, row in enumerate(rows):
                aug[size + k, 0:3] = row
                aug[0:3, size + k] = row
            b = np.concatenate([b, np.zeros(n_con, dtype=b.dtype)])
            a = aug

    x = refined_solve(a, b)
    residual = float(np.linalg.norm(a @ x - b) / max(np.linalg.norm(b), 1.0))
    x = x[: size] if n_con else x

    voltages: dict[str, Phasor3] = {"F": Phasor3.from_array(x[0:3])}
    sg_currents: dict[str, Phasor3] = {}
    for bus in net.buses:
        off = offsets[bus.id]
        if bus.role is BusRole.SG:
            voltages[bus.id] = bus.sg_voltage
            sg_currents[bus.id] = Phasor3.from_array(x[off : off + 3])
        else:
            voltages[bus.id] = Phasor3.from_array(x[off : off + 3])
    return NetworkState(voltages=voltages, sg_currents=sg_currents), residual


def _terminal_line_current(
    net: NetworkModel, state: NetworkState, bus_id: str
) -> Phasor3:
    """Current flowing into the protected line at one of its terminal buses.

    Recovered through KCL at the terminal instead of dividing the tiny
    voltage drop across a clamped segment, which cancels catastrophically
    for fault locations near the terminals.
    """
    bus = net.bus(bus_id)
    v = state.v(bus_id).as_array()
    total = np.zeros(3, dtype=complex)
    if bus.role is BusRole.JUNCTION:
        total -= bus.shunt() @ v
    elif bus.role is BusRole.IBR:
        total += bus.ibr_current.as_array() + bus.shunt() @ v
    else:
        raise ValueError(f"bus {bus_id!r} is an SG; not a relay terminal")
    for line in net.lines:
        if line.id == net.protected_line:
            continue
        if line.from_bus == bus_id:
            other = line.to_bus
        elif line.to_bus == bus_id:
            other = line.from_bus
        else:
            continue
        zabc = _segment_zabc(line.z1, line.z0)
        total -= refined_solve(zabc, v - state.v(other).as_array())
    return Phasor3.from_array(total)


def simulate(net: NetworkModel, fault: FaultSpec | None) -> ScenarioResult:
    """Direct prefault and during-fault solve; ``fault=None`` is a healthy pair."""
    m_t = fault.m_t if fault is not None else 0.5
    e = config.eps()
    if not e <= m_t <= 1.0 - e:
        raise ValueError(f"m_t={m_t} outside the clamped range [{e}, {1.0 - e}]")
    y, offsets = _naive_y(net, m_t)
    y_pre, _ = _naive_y(net, m_t, split=False)
    pre, res_pre = _solve_state(net, y_pre, offsets, None)
    post, res_post = _solve_state(net, y, offsets, fault)

    i_l_pre = _terminal_line_current(net, pre, net.local_bus)
    i_r_pre = _terminal_line_current(net, pre, net.remote_bus)
    # prefault fault-bus voltage, interpolated along the (healthy) line
    zabc = _segment_zabc(net.protected.z1, net.protected.z0)
    v_f_pre = pre.v(net.local_bus).as_array() - m_t * (zabc @ i_l_pre.as_array())
    pre = NetworkState(
        voltages={**pre.voltages, "F": Phasor3.from_array(v_f_pre)},
        sg_currents=pre.sg_currents,
    )
    i_l_post = _terminal_line_current(net, post, net.local_bus)
    i_r_post = _terminal_line_current(net, post, net.remote_bus)

    window = MeasurementWindow(
        v_prev=pre.v(net.local_bus),
        i_prev=i_l_pre,
        v_now=post.v(net.local_bus),
        i_now=i_l_post,
    )
    remote_window = MeasurementWindow(
        v_prev=pre.v(net.remote_bus),
        i_prev=i_r_pre,
        v_now=post.v(net.remote_bus),
        i_now=i_r_post,
    )
    return ScenarioResult(
        prefault=pre,
        fault=post,
        window=window,
        remote_window=remote_window,
        fault_current=i_l_post + i_r_post,
        kcl_residual_prefault=res_pre,
        kcl_residual_fault=res_post,
    )


def verify_pipeline(net: NetworkModel, fault: FaultSpec) -> VerificationReport:
    """Cross-check the incremental pipeline against the direct solves."""
    if fault.m_f < 0.0:
        raise ValueError("m_f must be non-negative")
    sim = simulate(net, fault)
    line = net.protected

    sigma_direct = incremental(sim.remote_window.i_now, sim.remote_window.i_prev)
    i_f_pre = sim.window.i_prev + sim.remote_window.i_prev
    i_f_pre_norm = i_f_pre.norm()
    balance = i_f_pre_norm / max(sim.window.i_prev.norm(), 1e-300)

    sg_inc = 0.0
    for bus in net.buses_with_role(BusRole.SG):
        sg_inc = max(
            sg_inc,
            incremental(sim.fault.v(bus.id), sim.prefault.v(bus.id)).norm(),
        )

    if fault.m_f > 0.0:
        rc_map = build_omega_map(net, fault)
        sigma = remote_current(rc_map, sim.window)
        sigma_err = (sigma - sigma_direct).norm() / max(
            sigma_direct.norm(), 1e-300
        )
        z_formula = apparent_impedance(fault.eta, sim.window, line, sigma, fault)
    else:
        sigma_err = 0.0
        z_formula = apparent_impedance(fault.eta, sim.window, line, None, fault)

    lq = loop_quantities(fault.eta, sim.window, line)
    if abs(lq.i_a) <= config.I_MIN:
        raise ValueError(f"loop not energized by fault {fault}")
    z_measured = lq.v_a / lq.i_a
    z_err = abs(z_formula - z_measured) / max(abs(z_measured), 1e-300)

    return VerificationReport(
        fault=fault,
        sigma_rel_err=sigma_err,
        z_a_rel_err=z_err,
        sg_voltage_inc_norm=sg_inc,
        prefault_fault_current_norm=i_f_pre_norm,
        prefault_balance_residual=balance,
    )
