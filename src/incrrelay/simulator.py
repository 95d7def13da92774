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

A call simulates N fault points, of any fault types, at once, and the
healthy prefault state (the line split at 0.5, no fault) is one more point.
Only the protected line's split and the fault stamp at F differ between
them, so the systems are solved by block elimination (block LU, Golub &
Van Loan; Kron's diakoptics): after a change of variables, the healthy
network with the protected line whole is a block that every point shares.
It is stamped and solved once per call, and each point solves only a 6x6
Schur complement in F's unknowns and the fault current. No point's full
system is formed. What anchors each point is the residual of its full,
unreduced system, taken in extended precision from the shared matrix and
the point's own terms: one refinement step corrects the solution with it,
and its final value is the reported residual.

The stamps and the bolted bases are the simulator's own: it uses nothing of
the incremental pipeline, which ``incrrelay.verify`` checks against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .admittance import FAULT_BRANCHES, FaultSpec
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


def _segment_zabc(z1: complex, z0: complex) -> np.ndarray:
    """Phase matrix of positive- and zero-sequence values z1 and z0.

    The own copy of the circulant construction, kept separate from
    network.py. Its inverse is the same construction of 1/z1 and 1/z0.
    """
    zs, zm = (z0 + 2.0 * z1) / 3.0, (z0 - z1) / 3.0
    return np.array([[zs, zm, zm], [zm, zs, zm], [zm, zm, zs]], dtype=complex)


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
_EYE3 = np.eye(3)


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
    """Modified nodal system of the healthy network, the protected line whole.

    Block offsets put the fault bus F at 0, then junctions, IBRs and SGs.
    F's slot holds the protected line's current I_FR instead of a voltage,
    and its rows the line's branch row v_L - v_R - Z_l I_FR = 0; the
    current leaves the local bus and enters the remote one. Every other line
    is a series stamp; junction shunts enter as +Y, IBR Norton admittances
    as -Y with their source currents on the right; an SG's voltage is known,
    so its columns move to the right-hand side and its slot holds the
    unknown terminal current. The protected line never touches an SG bus.
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
            yblk = _segment_zabc(1.0 / line.z1, 1.0 / line.z0)
            _stamp(y, offsets[line.from_bus], offsets[line.to_bus], yblk)
    o_l, o_r = offsets[net.local_bus], offsets[net.remote_bus]
    y[o_l : o_l + 3, :3] = y[:3, o_l : o_l + 3] = _EYE3
    y[o_r : o_r + 3, :3] = y[:3, o_r : o_r + 3] = -_EYE3
    y[:3, :3] = -_segment_zabc(net.protected.z1, net.protected.z0)

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
            y[blk, blk] = -_EYE3
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


# F's rows in F's unknowns x and the fault current i_F, by fault-type index
# of the bolted basis: its KCL rows R x - i_F and its share V x of the
# second branch row. The last, for points that are not bolted, keeps v_F
# as F's unknowns.
_F_ROWS = np.array(
    [
        np.block([[r, -_EYE3], [v, np.zeros((3, 3))]])
        for v, r in [*map(_bolted_basis, _ETA_INDEX), (_EYE3, np.zeros((3, 3)))]
    ],
    dtype=complex,
)


def _mv(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Matrix-vector products over the leading axes, one product per point.

    Each point's product is its own, so no result depends on the other
    points of a call.
    """
    return (a @ x[..., None])[..., 0]


def _norms(v: np.ndarray) -> np.ndarray:
    """2-norms along the last axis, in double precision."""
    return np.sqrt((np.abs(v) ** 2).sum(axis=-1)).astype(float)


def _fixed_block(
    y: np.ndarray, b: np.ndarray, zabc: np.ndarray, l: slice
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve the base system once, over all right-hand sides.

    Gives w, the healthy solution; W = [W0 | W1], the responses to a fault
    current i_F, which enters the local bus's KCL rows as +i_F and the
    branch row as -m Z_l i_F (W1 per unit m); and the inverse, for the
    refinement step.
    """
    k = y.shape[0]
    rhs = np.eye(k, k + 4, 4, dtype=complex)
    rhs[:, 0] = b
    rhs[:3, 1:4] = -zabc
    sol = np.linalg.solve(y, rhs)
    inv = sol[:, 4:]
    return sol[:, 0], np.concatenate([inv[:, l], sol[:, 1:4]], axis=1), inv


def simulate_many(
    net: NetworkModel, faults: Sequence[FaultSpec | None]
) -> ScenarioStack:
    """Direct prefault and during-fault solves of N fault points.

    ``None`` is a healthy pair: the line split at m_t = 0.5 and no fault,
    the system of the prefault state. The points may be of any mix of
    fault types.

    Each point's system has n + 6 unknowns: the n node entries of the base
    system, with the fault bus F's voltage in its slot, and the segment
    currents I_LF (local bus to F) and I_FR (F to the remote bus); its rows
    are the KCL rows and the branch rows v_L - v_F - m Z_l I_LF = 0 and
    v_F - v_R - (1-m) Z_l I_FR = 0. A resistive point adds its fault
    conductance g times the unit stamp of its fault type at F. A bolted
    point has no conductance: F's unknowns are the coordinates x of its
    fault type's bolted basis, v_F = V x, and the fault current R x enters
    F's KCL rows. A healthy point has neither.

    The systems are solved by block elimination. With the fault current
    i_F = I_LF - I_FR as an unknown in place of I_LF, and the sum of the two
    branch rows in place of the first, every node entry but F's and I_FR
    form the base system, which is the same for every point and solved once
    per call. Each point then solves the 6x6 Schur complement in F's
    unknowns and i_F, whose only m-dependent block is C0 + m C1 + m^2 C2,
    and back-substitutes. One refinement step follows, on the residual of
    the full system taken in extended precision: a bolted point near a line
    end leaves a loop voltage of order m_t, which a plain double solve
    resolves to only a few digits.
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
    y, b, offsets = _base_system(net)
    nodes = tuple(sorted(offsets, key=offsets.get))
    sg_buses = net.buses_with_role(BusRole.SG)
    sg = [offsets[bus.id] // 3 for bus in sg_buses]
    sg_v = np.array([bus.sg_voltage.as_array() for bus in sg_buses]).reshape(-1, 3)
    zabc = _segment_zabc(net.protected.z1, net.protected.z0)
    o_l, o_r = offsets[net.local_bus], offsets[net.remote_bus]
    lb, rb = slice(o_l, o_l + 3), slice(o_r, o_r + 3)
    w, w01, inv = _fixed_block(y, b, zabc, lb)

    # per point, in F's unknowns x and i_F: F's KCL rows P x - i_F = 0 and
    # the second branch row Q x + M i_F = ..., where M is that row on the
    # base system's unknowns w - (W0 + m W1) i_F: M = C0 + m C1 + m^2 C2
    zw = zabc @ w01[:3]
    c0 = w01[rb, :3] + zw[:, :3]
    c1 = w01[rb, 3:] + zw[:, 3:] - zw[:, :3]
    m = m_t[:, None]
    m1, mm = 1.0 - m, m[..., None]
    s = _F_ROWS[np.where(m_f == 0.0, kind, _NO_FAULT)]
    g = np.divide(1.0, m_f * r_f, out=np.zeros(len(cols)), where=m_f > 0.0)
    s[:, :3, :3] += g[:, None, None] * _STAMP_STACK[kind]
    s[:, 3:, 3:] = c0 + mm * (c1 - mm * zw[:, 3:])
    pq = s[..., :3]  # [P; Q]

    # unknowns x: F's x, I_LF, then the base system's u (I_FR first), so
    # I_LF is refined as itself and not as i_F + I_FR, a difference of large
    # currents for a bolted fault at the remote end; rows: F's KCL rows, the
    # second branch row, then the base system's (the summed branch rows
    # first)
    lx = slice(6 + o_l, 9 + o_l)

    def eliminate(u, r_f):
        """Solution from the base system's solve u and F's rows' right-hand
        sides r_f, which it updates in place."""
        r_f[:, 3:] += u[..., rb] + m1 * _mv(zabc, u[..., :3])
        z = np.linalg.solve(s, r_f[..., None])[..., 0]
        u = u - _mv(w01, np.concatenate([z[:, 3:], m * z[:, 3:]], axis=1))
        return np.concatenate([z[:, :3], z[:, 3:] + u[:, :3], u], axis=1)

    def residual(x, y, b, zl, pq, m, m1):
        """b - A x of the full systems, in the dtype of x and the constants."""
        u = x[:, 6:]
        i_f = x[:, 3:6] - u[:, :3]
        zi = _mv(zl, x[:, 3:9].reshape(-1, 2, 3))  # Z_l I_LF, Z_l I_FR
        r = np.empty_like(x)
        r[:, :6] = -_mv(pq, x[:, :3])
        r[:, :3] += i_f
        r[:, 3:6] += u[:, rb] + m1 * zi[:, 1]
        r[:, 6:] = b - _mv(y, u)
        r[:, 6:9] += m * (zi[:, 0] - zi[:, 1])
        r[:, lx] -= i_f
        return r

    x = eliminate(w, np.zeros((len(cols), 6), dtype=complex))
    ext = (a.astype(np.clongdouble) for a in (x, y, b, zabc, pq, m, m1))
    r = residual(*ext).astype(complex)
    x += eliminate(_mv(inv, r[:, 6:]), r[:, :6])
    r = residual(x, y, b, zabc, pq, m, m1)
    r[:, 6:9] -= r[:, 3:6]  # the first branch row, from the summed ones
    res = _norms(r) / max(float(_norms(b)), 1.0)

    # node voltages, F's from its basis coordinates; SG slots hold the
    # terminal currents, and their voltages are the sources'
    v = np.concatenate([_mv(s[:, 3:, :3], x[:, :3]), x[:, 9:]], axis=1)
    v = v.reshape(len(cols), len(nodes), 3)
    i_sg = v[:, sg].copy()
    v[:, sg] = sg_v
    # currents into the protected line at (local, remote): I_LF and -I_FR
    i_line = np.stack([x[:, 3:6], -x[:, 6:9]], axis=1)
    # prefault fault-bus voltage, interpolated along the (healthy) line
    v_f_pre = v[0, o_l // 3] - m_t[1:, None] * (zabc @ i_line[0, 0])
    return ScenarioStack(
        nodes=nodes,
        terminals=(net.local_bus, net.remote_bus),
        sg_ids=tuple(bus.id for bus in sg_buses),
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
