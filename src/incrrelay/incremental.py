"""Terminal reduction and the incremental remote-current operator.

The remote-current map condenses the whole faulted-network solve into a 3x6
complex matrix Omega acting on the relay's prefault window: it reconstructs
the prefault fault-bus voltage from the local window, pushes it through the
incremental network, and returns the incremental current feeding the fault
from the remote end.

Everything outside the protected line is fixed, so the healthy incremental
network is reduced once to the relay terminals L and R: one dense solve
gives the 6x6 impedance Z_T seen from (L, R) (Kron reduction). The fault bus
F at location m splits the protected line; its impedances follow from Z_T by
3x3 algebra with no 1/m terms, and the fault stamp enters as a rank-<=3
compensation (Alsac, Stott & Tinney). Every grid point is then a stacked 3x3
solve, so a whole grid is evaluated at once.
"""

from __future__ import annotations

import warnings

import numpy as np

from . import config
from .admittance import SingularSystemError, normalized_stamp
from .network import BusRole, NetworkModel, phase_impedance
from .phasors import MeasurementWindow


def terminal_impedance(net: NetworkModel) -> np.ndarray:
    """6x6 impedance of the healthy incremental network seen from (L, R).

    The protected line is whole, SG buses are shorted (their incremental
    voltage is zero), junction shunts enter as +Y and IBR Norton admittances
    as -Y. Rows and columns are ordered [L phases; R phases].
    """
    buses = [b for b in net.buses if b.role is not BusRole.SG]
    off = {b.id: 3 * k for k, b in enumerate(buses)}
    size = 3 * len(buses)
    y = np.zeros((size, size), dtype=complex)
    admittances = np.linalg.inv([phase_impedance(line) for line in net.lines])
    for line, w in zip(net.lines, admittances):
        i, j = off.get(line.from_bus), off.get(line.to_bus)
        for k in (i, j):
            if k is not None:
                y[k : k + 3, k : k + 3] += w
        if i is not None and j is not None:
            y[i : i + 3, j : j + 3] -= w
            y[j : j + 3, i : i + 3] -= w
    for bus in buses:
        k = off[bus.id]
        sign = 1.0 if bus.role is BusRole.JUNCTION else -1.0
        y[k : k + 3, k : k + 3] += sign * bus.shunt()

    rhs = np.zeros((size, 6), dtype=complex)
    o_l, o_r = off[net.local_bus], off[net.remote_bus]
    rhs[o_l : o_l + 3, 0:3] = np.eye(3)
    rhs[o_r : o_r + 3, 3:6] = np.eye(3)
    try:
        x = np.linalg.solve(y, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            "healthy network is singular: no ground reference, so neither the "
            "prefault state nor the terminal impedance exists"
        ) from exc
    return np.vstack([x[o_l : o_l + 3], x[o_r : o_r + 3]])


def omega_stack(
    z_t: np.ndarray,
    z_line: np.ndarray,
    eta: str,
    m_t: np.ndarray,
    m_f: np.ndarray,
    r_f: float | np.ndarray,
) -> np.ndarray:
    """(N, 3, 6) remote-current operators for N resistive fault points.

    With m = m_t, Z_l the protected line's phase impedance and S the
    normalized stamp of ``eta``, the fault bus F splitting the line sees

        Z_FF = (1-m)^2 Z_LL + m(1-m) (Z_LR + Z_RL + Z_l) + m^2 Z_RR
        Z_RF - Z_LF = (1-m) (Z_RL - Z_LL) + m (Z_RR - Z_LR)
        Omega = (m I - Z_l^-1 (Z_RF - Z_LF)) (m_f r_f I + S Z_FF)^-1 S [I, -m Z_l]

    Both are polynomials in m with constant 3x3 coefficients, so only the
    fault solve is a stacked matrix operation.
    """
    # every comparison is false for NaN, so NaN is outside too
    inside = (
        (m_t >= 0.0) & (m_t <= 1.0) & (m_f > 0.0) & (m_f <= 1.0)
        & (r_f > 0.0) & (r_f < np.inf)
    )
    if not inside.all():
        k = int(np.argmin(inside))
        raise ValueError(
            "fault point outside m_t in [0, 1], m_f in (0, 1], r_f in (0, inf) "
            f"at grid point (m_t={m_t[k]}, m_f={m_f[k]}, "
            f"r_f={np.broadcast_to(r_f, m_t.shape)[k]})"
        )
    m = m_t[:, None, None]
    z_ll, z_lr = z_t[0:3, 0:3], z_t[0:3, 3:6]
    z_rl, z_rr = z_t[3:6, 0:3], z_t[3:6, 3:6]
    s = normalized_stamp(eta)
    a = (
        (m_f * r_f)[:, None, None] * np.eye(3)
        + (1.0 - m) ** 2 * (s @ z_ll)
        + m * (1.0 - m) * (s @ (z_lr + z_rl + z_line))
        + m**2 * (s @ z_rr)
    )
    kappa = np.linalg.cond(a, 1)  # inf where a is singular; never raises
    bad = ~np.isfinite(kappa)
    if bad.any():
        k = int(np.argmax(bad))
        raise SingularSystemError(
            f"fault system singular at grid point (m_t={m_t[k]}, m_f={m_f[k]})"
        )
    worst = int(np.argmax(kappa))
    if kappa[worst] > config.COND_WARN:
        warnings.warn(
            f"{int((kappa > config.COND_WARN).sum())} fault systems "
            f"ill-conditioned; worst 1-norm condition {kappa[worst]:.3e} at "
            f"(m_t={m_t[worst]}, m_f={m_f[worst]})",
            RuntimeWarning,
            stacklevel=2,
        )
    p = np.linalg.solve(z_line, z_rl - z_ll)
    q = np.linalg.solve(z_line, z_rr - z_lr)
    k_r = m * np.eye(3) - (1.0 - m) * p - m * q
    # s gets a's stack axis: numpy 1.x reads a right-hand side with one axis
    # fewer than the matrix as a stack of vectors
    g = k_r @ np.linalg.solve(a, np.broadcast_to(s, a.shape))
    omega = np.empty((len(m_t), 3, 6), dtype=complex)
    omega[:, :, 0:3] = g
    omega[:, :, 3:6] = -m * (g @ z_line)
    return omega


def prefault_vector(w: MeasurementWindow) -> np.ndarray:
    """The stacked prefault window [v_prev; i_prev] that Omega acts on."""
    return np.concatenate([w.v_prev.as_array(), w.i_prev.as_array()])


class OmegaCache:
    """Per-network cache of the terminal reduction Z_T.

    The network is reduced once, on construction; the Omega stack of any
    grid then costs one batched 3x3 solve per point.
    """

    def __init__(self, net: NetworkModel):
        self.z_t = terminal_impedance(net)
        self.z_line = phase_impedance(net.protected)

    def omegas(self, eta: str, m_t, m_f, r_f) -> np.ndarray:
        """(N, 3, 6) Omega stack for resistive points (m_t[k], m_f[k]).

        ``r_f`` is one resistance for every point or an (N,) array.
        """
        m_t = np.asarray(m_t, dtype=float).reshape(-1)
        m_f = np.asarray(m_f, dtype=float).reshape(-1)
        r_f = np.asarray(r_f, dtype=float)
        return omega_stack(self.z_t, self.z_line, eta, m_t, m_f, r_f)
