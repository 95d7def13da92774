"""The incremental pipeline checked against the simulator oracle.

The simulator stamps and solves the whole network on its own; this module
is where the two paths meet, so the simulator itself needs nothing of the
pipeline it checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import config
from .admittance import FaultSpec
from .incremental import OmegaCache
from .loops import apparent_impedances, loop_quantities
from .network import NetworkModel
from .phasors import MeasurementWindow
from .simulator import _norms, simulate_many


@dataclass(frozen=True)
class VerificationReport:
    """Residuals comparing the incremental pipeline against direct solves."""

    fault: FaultSpec
    sigma_rel_err: float
    z_a_rel_err: float
    prefault_fault_current_norm: float
    prefault_balance_residual: float


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
            prefault_fault_current_norm=i_f_pre_norm,
            prefault_balance_residual=balance,
        )
        for k, f in enumerate(faults)
    ]
