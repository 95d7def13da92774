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
3x3 algebra with no 1/m terms. The fault stamp S = B C^T has rank r <= 3 and
enters as a compensation (Alsac, Stott & Tinney) through an r x r system,
inverted in closed form, so a whole grid is evaluated at once.
"""

from __future__ import annotations

import warnings

import numpy as np

from . import config
from .admittance import STAMP_FACTORS, SingularSystemError
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


def _small_inverse(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse and 1-norm condition of an (r, r, N) stack; inf or NaN if singular."""
    if len(a) == 1:
        cof = np.ones_like(a)
    elif len(a) == 2:
        cof = np.array([[a[1, 1], -a[1, 0]], [-a[0, 1], a[0, 0]]])
    else:  # cofactor (i, j) = a[i+1, j+1] a[i+2, j+2] - a[i+1, j+2] a[i+2, j+1]
        i, j = np.array([[1], [2], [0]]), np.array([[2], [0], [1]])
        cof = a[i, i.T] * a[j, j.T] - a[i, j.T] * a[j, i.T]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inv = cof.transpose(1, 0, 2) / (a[0] * cof[0]).sum(axis=0)  # adjugate / det
        kappa = np.abs(a).sum(axis=0).max(axis=0) * np.abs(inv).sum(axis=0).max(axis=0)
    return inv, kappa


def omega_stack(
    z_t: np.ndarray,
    z_line: np.ndarray,
    eta: str,
    m_t: np.ndarray,
    m_f: np.ndarray,
    r_f: float | np.ndarray,
) -> np.ndarray:
    """(N, 3, 6) remote-current operators for N resistive fault points.

    With m = m_t, Z_l the protected line's phase impedance, S = B C^T the
    rank-r normalized stamp of ``eta``, P = Z_l^-1 (Z_RL - Z_LL) and
    Q = Z_l^-1 (Z_RR - Z_LR), the push-through identity turns the fault bus's
    3x3 compensation (m_f r_f I + S Z_FF)^-1 S into B M^-1 C^T, with

        Z_FF = (1-m)^2 Z_LL + m(1-m) (Z_LR + Z_RL + Z_l) + m^2 Z_RR
        M = m_f r_f I_r + C^T Z_FF B  (r x r, r <= 3, inverted in closed form)
        Omega = (-P + m (I + P - Q)) B M^-1 C^T [I, -m Z_l]
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
    b, c_t = STAMP_FACTORS[eta]
    r, m = b.shape[1], m_t
    (z_ll, z_lr), (z_rl, z_rr) = z_t.reshape(2, 3, 2, 3).swapaxes(1, 2)
    # (rows, cols, N) stacks, elementwise sums: a point's Omega never depends on others
    z_ff = ((z_ll, (1.0 - m) ** 2), (z_lr + z_rl + z_line, m * (1.0 - m)), (z_rr, m**2))
    a = sum((c_t @ z @ b)[:, :, None] * w for z, w in z_ff)
    a[range(r), range(r)] += m_f * r_f
    inv, kappa = _small_inverse(a)
    if not np.isfinite(kappa).all():
        k = int(np.argmin(np.isfinite(kappa)))
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
    p, q = (np.linalg.solve(z_line, z) for z in (z_rl - z_ll, z_rr - z_lr))
    k_0, k_1 = -p @ b, (np.eye(3) + p - q) @ b  # K_R B = K_0 + m K_1
    g = sum((k_0[:, j, None, None] + k_1[:, j, None, None] * m) * inv[j] for j in range(r))
    d = np.hstack([c_t, c_t @ z_line])  # C^T [I, Z_l]; g = K_R B M^-1
    omega = g[:, 0, None] * d[0, :, None]
    for j in range(1, r):
        omega += g[:, j, None] * d[j, :, None]
    omega[:, 3:6] *= -m
    return omega.transpose(2, 0, 1).copy()


def prefault_vector(w: MeasurementWindow) -> np.ndarray:
    """The stacked prefault window [v_prev; i_prev] that Omega acts on."""
    return np.concatenate([w.v_prev.as_array(), w.i_prev.as_array()])


class OmegaCache:
    """Per-network cache of the terminal reduction Z_T.

    The network is reduced once, on construction; the Omega stack of any
    grid then costs one closed-form r x r inverse per point, r <= 3.
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
