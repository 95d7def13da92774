"""Full-network fault simulator used as the brute-force oracle.

Solves the prefault and during-fault nodal equations directly, with SG
voltages and IBR source currents held at their prefault values. The nodal
system here is assembled by its own element stamping, independent of the
incremental module's terminal reduction, so agreement between the two paths
is evidence rather than tautology.

The systems are in modified nodal form (Ho, Ruehli & Brennan 1975): the
currents of the protected line's two segments, local bus to F and F to the
remote bus, are unknowns with one branch row each, so every matrix entry
stays of order one for every fault location and the currents into the line
are read from the solution.

A bolted fault (m_F = 0) has no conductance to stamp. It is a change of
the fault bus's three unknowns instead: each phase the fault ties to ground
or to another phase trades its voltage for its fault current, so the tied
voltages hold exactly and every system, healthy, resistive or bolted, has
the same n + 6 unknowns.

A call simulates N fault points, of any fault types, at once. Only the
protected line's split and the fault stamp differ between them, so the rest
of the network is stamped once, and the healthy prefault state (the line
split at 0.5, no fault) is row 0 of the stack of N + 1 systems. Each system
is one double-precision solve plus one refinement step with an
extended-precision residual.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import config
from .admittance import FAULT_BRANCHES, FaultSpec
from .incremental import OmegaCache
from .loops import apparent_impedances, loop_quantities
from .network import BusRole, NetworkModel
from .phasors import MeasurementWindow, Phasor3


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
    kcl_residual_prefault: float  # relative residual of the solve, branch rows included
    kcl_residual_fault: float


@dataclass(frozen=True)
class ScenarioStack:
    """N simulated scenarios of one network, sharing one prefault state.

    Row k of every stacked array belongs to the k-th fault simulated. Node
    rows follow ``nodes``: the virtual fault bus "F" first, then every bus;
    SG rows hold the fixed source voltages. The residuals are relative
    residuals of the modified nodal systems: the KCL rows and the two
    branch rows of the protected line.
    """

    nodes: tuple[str, ...]
    terminals: tuple[str, str]  # (local, remote) bus ids
    sg_ids: tuple[str, ...]
    v_pre: np.ndarray  # (K, 3) healthy node voltages; the F row is the line's midpoint
    v_f_pre: np.ndarray  # (N, 3) healthy voltage at each fault location
    i_sg_pre: np.ndarray  # (S, 3) healthy SG terminal currents
    i_line_pre: np.ndarray  # (2, 3) currents into the protected line at (L, R)
    v_post: np.ndarray  # (N, K, 3)
    i_sg_post: np.ndarray  # (N, S, 3)
    i_line_post: np.ndarray  # (N, 2, 3)
    kcl_residual_prefault: float
    kcl_residual_fault: np.ndarray  # (N,)

    def scenario(self, k: int) -> ScenarioResult:
        """The k-th scenario as phasor values."""
        v_pre = self.v_pre.copy()
        v_pre[0] = self.v_f_pre[k]
        pre = self._state(v_pre, self.i_sg_pre)
        post = self._state(self.v_post[k], self.i_sg_post[k])
        i_pre = [Phasor3.from_array(i) for i in self.i_line_pre]
        i_post = [Phasor3.from_array(i) for i in self.i_line_post[k]]
        windows = [
            MeasurementWindow(
                v_prev=pre.v(bus_id), i_prev=i_prev, v_now=post.v(bus_id), i_now=i_now
            )
            for bus_id, i_prev, i_now in zip(self.terminals, i_pre, i_post)
        ]
        return ScenarioResult(
            prefault=pre,
            fault=post,
            window=windows[0],
            remote_window=windows[1],
            fault_current=Phasor3.from_array(self.i_line_post[k].sum(axis=0)),
            kcl_residual_prefault=self.kcl_residual_prefault,
            kcl_residual_fault=float(self.kcl_residual_fault[k]),
        )

    def _state(self, v: np.ndarray, i_sg: np.ndarray) -> NetworkState:
        return NetworkState(
            voltages={node: Phasor3.from_array(x) for node, x in zip(self.nodes, v)},
            sg_currents={bus_id: Phasor3.from_array(i) for bus_id, i in zip(self.sg_ids, i_sg)},
        )


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


def _unit_stamp(eta: str) -> np.ndarray:
    """Conductance pattern of the fault resistors, one siemens per branch."""
    grounds, pairs = FAULT_BRANCHES[eta]
    s = np.zeros((3, 3))
    for ph in grounds:
        s[ph, ph] += 1.0
    for x, y in pairs:
        s[x, x] += 1.0
        s[y, y] += 1.0
        s[x, y] -= 1.0
        s[y, x] -= 1.0
    return s


# the unit stamps by fault-type index; the last one, zero, is for healthy
# points, which have no fault
_ETA_INDEX = {eta: k for k, eta in enumerate(FAULT_BRANCHES)}
_NO_FAULT = len(_ETA_INDEX)
_STAMP_STACK = np.array([_unit_stamp(eta) for eta in _ETA_INDEX] + [np.zeros((3, 3))])


def _stamp(y: np.ndarray, oi: int, oj: int, yblk: np.ndarray):
    """Series stamp of one 3x3 branch admittance between two block offsets."""
    i, j = slice(oi, oi + 3), slice(oj, oj + 3)
    y[i, i] += yblk
    y[j, j] += yblk
    y[i, j] -= yblk
    y[j, i] -= yblk


def _base_system(
    net: NetworkModel,
) -> tuple[np.ndarray, np.ndarray, dict[str, int]]:
    """Nodal system of everything except the protected line.

    Block offsets put the fault bus F at 0, then junctions, IBRs and SGs.
    Every other line is a series stamp; junction shunts enter as +Y, IBR
    Norton admittances as -Y with their source currents on the right; an
    SG's voltage is known, so its columns move to the right-hand side and
    its slot holds the unknown terminal current. The protected line never
    touches an SG bus, so its segments can be added afterwards.
    """
    offsets = {"F": 0}
    nxt = 3
    for role in (BusRole.JUNCTION, BusRole.IBR, BusRole.SG):
        for bus in net.buses:
            if bus.role == role:
                offsets[bus.id] = nxt
                nxt += 3
    y = np.zeros((nxt, nxt), dtype=complex)
    for line in net.lines:
        if line.id != net.protected_line:
            yblk = np.linalg.inv(_segment_zabc(line.z1, line.z0))
            _stamp(y, offsets[line.from_bus], offsets[line.to_bus], yblk)

    b = np.zeros(nxt, dtype=complex)
    for bus in net.buses:
        blk = slice(offsets[bus.id], offsets[bus.id] + 3)
        if bus.role is BusRole.JUNCTION:
            y[blk, blk] += bus.shunt()
        elif bus.role is BusRole.IBR:
            y[blk, blk] -= bus.shunt()
            b[blk] += bus.ibr_current.as_array()
        else:  # SG: voltage known, terminal current unknown
            b -= y[:, blk] @ bus.sg_voltage.as_array()
            y[:, blk] = 0.0
            y[blk, blk] = -np.eye(3)
    return y, b, offsets


def _bolted_basis(eta: str) -> tuple[np.ndarray, np.ndarray]:
    """A bolted fault as a change of the fault bus's unknowns x, for m_f = 0.

    The fault bus voltage is v_F = V x and the current into the fault is
    R x. Each tied phase trades its voltage for its fault current: a
    grounded fault ties every faulted phase to ground, an ungrounded one
    ties the others to the first faulted phase, whose current they return.
    """
    grounds, pairs = FAULT_BRANCHES[eta]
    phases = sorted(set(grounds).union(*pairs))
    tied = phases if grounds else phases[1:]
    v, r = np.eye(3), np.zeros((3, 3))
    v[:, tied] = 0.0
    r[tied, tied] = 1.0
    if not grounds:
        v[tied, phases[0]] = 1.0
        r[phases[0], tied] = -1.0
    return v, r


# V and R of each fault type's bolted basis, by fault-type index
_BOLTED_V, _BOLTED_R = map(np.array, zip(*(_bolted_basis(eta) for eta in _ETA_INDEX)))

# The systems are solved in blocks of at most this many matrix entries
# (256 KiB in double precision: 37 systems of the four-bus network, 2 of a
# 24-bus one), so a call's memory does not grow with the number of points.
# Each point is solved on its own, so the block size does not change any
# result.
_BLOCK_ENTRIES = 1 << 14


def _systems(
    y0: np.ndarray,
    b0: np.ndarray,
    inc: np.ndarray,
    zabc: np.ndarray,
    m_t: np.ndarray,
    g: np.ndarray,
    kind: np.ndarray,
    bolted: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(N, n + 6, n + 6) modified nodal systems and their right-hand sides.

    Unknowns: the n node entries of the base system, then the segment
    currents I_LF (local bus to F) and I_FR (F to the remote bus). ``inc``
    (n, 6) is the segments' incidence: it puts the currents into the KCL
    rows of their end buses and, transposed, gives the branch rows
    v_L - v_F - m Z_l I_LF = 0 and v_F - v_R - (1-m) Z_l I_FR = 0. A
    resistive point adds its fault conductance g times the unit stamp of its
    fault type ``kind`` at F. A point marked ``bolted`` has no conductance:
    F's three unknowns are the coordinates x of its fault type's bolted
    basis, so F's columns are multiplied by V and the fault current R x
    enters F's KCL rows. A healthy point (no fault type) has neither.
    """
    n = y0.shape[0]
    a = np.zeros((len(m_t), n + 6, n + 6), dtype=complex)
    a[:, :n, :n] = y0
    a[:, 0:3, 0:3] += g[:, None, None] * _STAMP_STACK[kind]
    a[:, :n, n:] = inc
    a[:, n:, :n] = inc.T
    a[:, n : n + 3, n : n + 3] = -m_t[:, None, None] * zabc
    a[:, n + 3 :, n + 3 :] = -(1.0 - m_t)[:, None, None] * zabc
    a[bolted, :, 0:3] = a[bolted, :, 0:3] @ _BOLTED_V[kind[bolted]]
    a[bolted, 0:3, 0:3] += _BOLTED_R[kind[bolted]]
    b = np.zeros((len(m_t), n + 6), dtype=complex)
    b[:, :n] = b0
    return a, b


def _norms(v: np.ndarray) -> np.ndarray:
    """2-norms along the last axis, in double precision."""
    return np.sqrt((np.abs(v) ** 2).sum(axis=-1)).astype(float)


def _solve(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked solves with one refinement step, and their relative residuals.

    The refinement's residual is taken in extended precision: a bolted point
    near a line end leaves a loop voltage of order m_t, which a plain double
    solve resolves to only a few digits. Right-hand sides get an explicit
    trailing axis, which numpy 1.x and 2.x read alike.
    """
    x = np.linalg.solve(a, b[..., None])[..., 0]
    r = b - np.einsum("kij,kj->ki", a, x, dtype=np.clongdouble)
    x = x + np.linalg.solve(a, r.astype(complex)[..., None])[..., 0]
    return x, _norms(np.einsum("kij,kj->ki", a, x) - b) / np.maximum(_norms(b), 1.0)


def simulate_many(
    net: NetworkModel, faults: Sequence[FaultSpec | None]
) -> ScenarioStack:
    """Direct prefault and during-fault solves of N fault points.

    ``None`` is a healthy pair: the line split at m_t = 0.5 and no fault,
    the system of the prefault state. The points may be of any mix of
    fault types.
    """
    # per system: location, resistance fraction and ohms, fault-type index;
    # row 0 is the healthy prefault state
    cols = np.array(
        [
            (0.5, 0.0, 1.0, _NO_FAULT)
            if f is None
            else (f.m_t, f.m_f, f.r_f, _ETA_INDEX[f.eta])
            for f in (None, *faults)
        ],
        dtype=float,
    )
    m_t, m_f, r_f = cols[:, 0], cols[:, 1], cols[:, 2]
    kind = cols[:, 3].astype(int)
    y0, b0, offsets = _base_system(net)
    nodes = tuple(sorted(offsets, key=offsets.get))
    sg = [offsets[b.id] // 3 for b in net.buses_with_role(BusRole.SG)]
    sg_v = np.array(
        [b.sg_voltage.as_array() for b in net.buses_with_role(BusRole.SG)]
    ).reshape(-1, 3)

    zabc = _segment_zabc(net.protected.z1, net.protected.z0)
    o_l, o_r = offsets[net.local_bus], offsets[net.remote_bus]
    # each segment current leaves its first bus and enters its second
    n = y0.shape[0]
    inc = np.zeros((n, 6))
    for col, (first, second) in zip((0, 3), ((o_l, 0), (0, o_r))):
        inc[first : first + 3, col : col + 3] = np.eye(3)
        inc[second : second + 3, col : col + 3] = -np.eye(3)
    # stacked solves, so that no point's solution depends on the other
    # points of the call, in blocks of bounded size
    x = np.empty((len(cols), n + 6), dtype=complex)
    res = np.empty(len(cols))
    resistive = m_f > 0.0
    bolted = ~resistive & (kind != _NO_FAULT)
    g = np.zeros(len(cols))
    g[resistive] = 1.0 / (m_f[resistive] * r_f[resistive])
    step = max(1, _BLOCK_ENTRIES // (n + 6) ** 2)
    for start in range(0, len(cols), step):
        blk = slice(start, start + step)
        a, b = _systems(y0, b0, inc, zabc, m_t[blk], g[blk], kind[blk], bolted[blk])
        x[blk], res[blk] = _solve(a, b)
    # a bolted point's fault-bus unknowns are the coordinates of its basis
    x[bolted, 0:3] = np.einsum("kij,kj->ki", _BOLTED_V[kind[bolted]], x[bolted, 0:3])
    # SG slots hold the terminal currents; their voltages are the sources'
    v = x[:, :n].reshape(len(cols), len(nodes), 3)
    i_sg = v[:, sg].copy()
    v[:, sg] = sg_v
    # currents into the protected line at (local, remote): I_LF and -I_FR
    i_line = np.stack([x[:, n : n + 3], -x[:, n + 3 :]], axis=1)
    # prefault fault-bus voltage, interpolated along the (healthy) line
    v_f_pre = v[0, o_l // 3] - m_t[1:, None] * (zabc @ i_line[0, 0])
    return ScenarioStack(
        nodes=nodes,
        terminals=(net.local_bus, net.remote_bus),
        sg_ids=tuple(b.id for b in net.buses_with_role(BusRole.SG)),
        v_pre=v[0],
        v_f_pre=v_f_pre,
        i_sg_pre=i_sg[0],
        i_line_pre=i_line[0],
        v_post=v[1:],
        i_sg_post=i_sg[1:],
        i_line_post=i_line[1:],
        kcl_residual_prefault=float(res[0]),
        kcl_residual_fault=res[1:],
    )


def simulate(net: NetworkModel, fault: FaultSpec | None) -> ScenarioResult:
    """Direct prefault and during-fault solve; ``fault=None`` is a healthy pair."""
    return simulate_many(net, [fault]).scenario(0)


def verify_grid(
    net: NetworkModel,
    faults: Sequence[FaultSpec],
    cache: OmegaCache | None = None,
) -> list[VerificationReport]:
    """Cross-check the incremental pipeline against the direct solves.

    ``faults`` are N points of any mix of fault types, checked as arrays:
    one simulator stack for all of them, then per fault type one Omega stack
    from the cache's terminal reduction and, since every point shares the
    prefault window, sigma as one product.
    """
    faults = tuple(faults)
    if not faults:
        return []
    cache = cache or OmegaCache(net)
    line = net.protected
    etas = np.array([f.eta for f in faults])
    cols = np.array([(f.m_t, f.m_f, f.r_f) for f in faults])
    sim = simulate_many(net, faults)

    local = sim.nodes.index(net.local_bus)
    i_prev, r_prev = sim.i_line_pre
    i_now, r_now = sim.i_line_post[:, 0], sim.i_line_post[:, 1]
    sigma_direct = r_now - r_prev
    i_f_pre_norm = float(np.linalg.norm(i_prev + r_prev))
    balance = i_f_pre_norm / max(float(np.linalg.norm(i_prev)), 1e-300)
    sg = [sim.nodes.index(bus_id) for bus_id in sim.sg_ids]
    sg_inc = _norms(sim.v_post[:, sg] - sim.v_pre[sg]).max(axis=1, initial=0.0)
    pre = np.concatenate([sim.v_pre[local], i_prev])

    sigma_err = np.zeros(len(faults))
    z_err = np.empty(len(faults))
    for eta in dict.fromkeys(etas.tolist()):  # fault types in order of first point
        sel = np.flatnonzero(etas == eta)
        m_t, m_f, r_f = cols[sel].T
        window = MeasurementWindow(
            v_prev=sim.v_pre[local],
            i_prev=i_prev,
            v_now=sim.v_post[sel, local],
            i_now=i_now[sel],
        )
        lq = loop_quantities(eta, window, line)
        low = np.abs(lq.i_a) <= config.I_MIN
        if low.any():
            raise ValueError(f"loop not energized by fault {faults[sel[np.argmax(low)]]}")
        z_measured = lq.v_a / lq.i_a

        # bolted points keep sigma = 0: their formula reads m_t z1 exactly
        direct = sigma_direct[sel]
        sigma = np.zeros_like(direct)
        res = m_f > 0.0
        if res.any():
            omegas = cache.omegas(eta, m_t[res], m_f[res], r_f[res])
            sigma[res] = omegas @ pre
            # where nothing beyond the remote bus carries current, sigma_direct
            # vanishes and sigma is held to the local current's increment
            scale = _norms(direct[res])
            delta_i = _norms(i_now[sel[res]] - i_prev)
            scale = np.where(scale <= 1e-12 * delta_i, delta_i, scale)
            sigma_err[sel[res]] = _norms(sigma[res] - direct[res]) / np.maximum(
                scale, 1e-300
            )
        z_formula = apparent_impedances(eta, window, line, sigma, m_t, m_f, r_f)
        z_err[sel] = np.abs(z_formula - z_measured) / np.maximum(
            np.abs(z_measured), 1e-300
        )

    return [
        VerificationReport(
            fault=f,
            sigma_rel_err=float(sigma_err[k]),
            z_a_rel_err=float(z_err[k]),
            sg_voltage_inc_norm=float(sg_inc[k]),
            prefault_fault_current_norm=i_f_pre_norm,
            prefault_balance_residual=balance,
        )
        for k, f in enumerate(faults)
    ]
