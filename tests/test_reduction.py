"""Terminal reduction against the dense reference path and the simulator.

The reduced Omega stack must match the Omega of the full 3(n+1) faulted
system and the simulator's remote current and apparent impedance, on the
bundled network and on seeded generated radial and meshed networks.
"""

import re
from pathlib import Path

import numpy as np
import pytest

import incrrelay.incremental as incremental_mod
from incrrelay import FAULT_TYPES, FaultSpec, fourbus_path, parse_network, verify_grid
from incrrelay.admittance import STAMP_FACTORS, SingularSystemError, normalized_stamp
from incrrelay.cli import BALANCE_THRESHOLD, SIGMA_THRESHOLD, Z_A_THRESHOLD
from incrrelay.incremental import OmegaCache
from incrrelay.network import BusRole, phase_impedance

from dense_oracle import EPS, assemble_incremental, assemble_y, remote_kcl_rows, solve_omega
from netgen import random_network

# both ends of the dense oracle's clamp and the interior, each with its own
# resistance fraction
POINTS = ((EPS, 0.35), (0.37, 1.0), (1.0 - EPS, 0.7))
SEEDS = range(24)


def _networks():
    yield "fourbus", parse_network(Path(fourbus_path()).read_text(encoding="utf-8"))
    for seed in SEEDS:
        kw = {"meshed": seed % 2 == 1, "parallel": seed % 3 == 0, "flip": seed % 4 >= 2}
        yield f"seed{seed}", random_network(seed, **kw)


NETWORKS = dict(_networks())


def dense_omega(net, fault: FaultSpec) -> np.ndarray:
    """3x6 Omega from the full 3(n+1) faulted system (the reference path)."""
    faulted = assemble_y(net, fault.m_t)
    stamp = normalized_stamp(fault.eta) / (fault.m_f * fault.r_f)
    omega = solve_omega(assemble_incremental(net, faulted, stamp, fault.m_t))
    window_map = np.hstack([np.eye(3), -fault.m_t * phase_impedance(net.protected)])
    return remote_kcl_rows(net, faulted.offsets) @ omega @ window_map


def test_generated_networks_cover_the_cases():
    nets = [NETWORKS[f"seed{s}"] for s in SEEDS]
    sizes = {len(n.buses) for n in nets}
    assert min(sizes) <= 3 and max(sizes) >= 10
    assert {len(n.buses_with_role(BusRole.IBR)) for n in nets} >= {0, 1, 2, 3}
    assert any(n.protected.from_bus == n.remote_bus for n in nets)
    assert any(len(n.lines) >= len(n.buses) for n in nets)  # meshed
    assert any(
        {ln.from_bus, ln.to_bus} == {n.local_bus, n.remote_bus} and ln.id != n.protected_line
        for n in nets
        for ln in n.lines
    )


@pytest.mark.parametrize("name", list(NETWORKS))
def test_reduced_omega_matches_dense_and_simulator(name):
    net = NETWORKS[name]
    cache = OmegaCache(net)
    m_t, m_f = (np.array(v) for v in zip(*POINTS))
    for eta in FAULT_TYPES:
        stack = cache.omegas(eta, m_t, m_f, net.r_fault_max)
        for k in range(len(m_t)):
            fault = FaultSpec(eta, float(m_t[k]), float(m_f[k]), net.r_fault_max)
            dense = dense_omega(net, fault)
            err = np.linalg.norm(stack[k] - dense) / np.linalg.norm(dense)
            assert err <= 1e-9, f"{eta} {fault}: Omega rel err {err:.3e}"
            single = cache.omegas(eta, m_t[k], m_f[k], net.r_fault_max)[0]
            assert np.allclose(single, stack[k], rtol=1e-13, atol=0.0)
            (rep,) = verify_grid(net, [fault], cache)
            assert rep.sigma_rel_err <= SIGMA_THRESHOLD, f"{eta} {fault}"
            assert rep.z_a_rel_err <= Z_A_THRESHOLD, f"{eta} {fault}"
            assert rep.prefault_balance_residual <= BALANCE_THRESHOLD, f"{eta} {fault}"


def _outside(m_t, m_f, r_f):
    return pytest.raises(
        ValueError, match=re.escape(f"grid point (m_t={m_t}, m_f={m_f}, r_f={r_f})")
    )


def test_location_clamp_enforced_on_the_stack(net):
    # one domain check, m_t in [0, 1], m_f in (0, 1] and r_f in (0, inf),
    # that names the first grid point outside it; NaN is outside
    cache = OmegaCache(net)
    r = net.r_fault_max
    for m_t in (-0.1, 1.1, float("nan")):
        with _outside(m_t, 1.0, r):
            cache.omegas("ag", [0.5, m_t], [1.0, 1.0], r)
    # m_f = 0 is bolted and has no Omega; the others lie outside (0, 1]
    for m_f in (0.0, -0.5, 1.5, float("nan")):
        with _outside(0.25, m_f, r):
            cache.omegas("abcg", [0.5, 0.25], [1.0, m_f], r)
    for r_f in (0.0, -1.0, float("nan"), float("inf")):
        with _outside(0.5, 1.0, r_f):
            cache.omegas("ag", [0.5], [1.0], r_f)
    with _outside(0.25, 1.0, float("nan")):
        cache.omegas("ag", [0.5, 0.25], [1.0, 1.0], [r, float("nan")])
    # both line ends are inside
    assert np.isfinite(cache.omegas("ag", [0.0, 1.0], [1.0, 1.0], r)).all()


def test_floating_network_has_no_terminal_reduction():
    # an ideal current source and no shunt anywhere: nothing ties the
    # network to ground, so the prefault state is undefined as well
    floating = parse_network(
        """
buses:
  - {id: a, role: junction}
  - {id: b, role: ibr, current: [[0.3, 0], [0, 0.3], [0.1, 0.1]], admittance: {diag: [0, 0]}}
lines:
  - {id: main, from: a, to: b, z1: [0.01, 0.1], z0: [0.03, 0.3]}
relay: {line: main, local: a, remote: b, r_fault_max: 1.0}
"""
    )
    with pytest.raises(SingularSystemError, match="no ground reference"):
        OmegaCache(floating)


def test_stamp_factors_reproduce_every_stamp():
    # S = B C^T exactly, with B of full column rank r and C^T integer
    ranks = {}
    for eta in FAULT_TYPES:
        b, c_t = STAMP_FACTORS[eta]
        assert np.array_equal(b @ c_t, normalized_stamp(eta))
        assert np.array_equal(c_t, np.rint(c_t))
        assert np.linalg.matrix_rank(b) == b.shape[1]
        ranks[eta] = b.shape[1]
    two = dict.fromkeys(("abg", "acg", "bcg", "abc"), 2)
    assert ranks == dict.fromkeys(FAULT_TYPES, 1) | two | {"abcg": 3}


def _minus_identity_stamp(monkeypatch, z_line):
    # S = B C^T = -I with B = -I and C^T = I, and Z_T = 0: the fault system is
    # m_f r_f I - m(1-m) Z_l
    monkeypatch.setitem(STAMP_FACTORS, "ag", (-np.eye(3), np.eye(3)))
    return lambda m_t, r_f: incremental_mod.omega_stack(
        np.zeros((6, 6)), z_line, "ag", np.array(m_t), np.ones(len(m_t)), r_f
    )


def test_singular_fault_system_names_the_grid_point(monkeypatch):
    # with Z_l = I it is singular at m = 0.5 when m_f r_f = 0.25
    omega_stack = _minus_identity_stamp(monkeypatch, np.eye(3))
    with pytest.raises(SingularSystemError, match=r"m_t=0\.5, m_f=1\.0"):
        omega_stack([0.25, 0.5], 0.25)


def test_ill_conditioned_fault_system_warns(monkeypatch):
    # with Z_l = diag(1, 2, 2) and m_f r_f = 0.25 + 1e-14 the system at
    # m = 0.5 is diag(1e-14, -0.25, -0.25): 1-norm condition 2.5e13
    omega_stack = _minus_identity_stamp(monkeypatch, np.diag([1.0, 2.0, 2.0]))
    with pytest.warns(RuntimeWarning, match=r"^1 fault systems ill-conditioned.*m_t=0\.5"):
        omega_stack([0.25, 0.5], 0.25 + 1e-14)
