"""Fault stamps, and the dense faulted assembly and incremental solve kept as an oracle."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from incrrelay import (
    FAULT_TYPES,
    FaultSpec,
    OmegaCache,
    parse_network,
    phase_impedance,
    simulate,
)
from incrrelay.admittance import FAULT_BRANCHES, normalized_stamp
from incrrelay.network import BusRole

from dense_oracle import IncrementalSystem, assemble_incremental, assemble_y, solve_omega

TWO_BUS = """
buses:
  - {id: src, role: sg, voltage: [[1, 0], [-0.5, -0.866], [-0.5, 0.866]]}
  - {id: a, role: junction}
  - {id: b, role: junction, admittance: {diag: [0.1, 0]}}
lines:
  - {id: feed, from: src, to: a, z1: [0, 1], z0: [0, 1]}
  - {id: main, from: a, to: b, z1: [0, 1], z0: [0, 1]}
relay: {line: main, local: a, remote: b, r_fault_max: 1.0}
"""


def test_fault_type_set():
    assert len(FAULT_TYPES) == 11
    assert set(FAULT_BRANCHES) == set(FAULT_TYPES)


def test_two_bus_half_split_blocks():
    net = parse_network(TWO_BUS)
    sys = assemble_y(net, 0.5)
    f = sys.block("F")
    a = sys.block("a")
    b = sys.block("b")
    # two series half-impedances of 0.5j each on a decoupled line
    assert np.allclose(sys.y[f, f], np.eye(3) * (4 / 1j))
    assert np.allclose(sys.y[f, a], np.eye(3) * (-2 / 1j))
    assert np.allclose(sys.y[f, b], np.eye(3) * (-2 / 1j))


def test_series_only_row_sums(net):
    sys = assemble_y(net, 0.3)
    n_blocks = sys.y.shape[0] // 3
    # summing each phase over all buses collapses every series stamp
    collapse = np.tile(np.eye(3), n_blocks)
    assert np.abs(collapse @ sys.y).max() < 1e-9


def test_assemble_matches_naive_reference_stamp(net):
    # oracle: independently written double-loop scalar stamper
    m_t = 0.3
    sys = assemble_y(net, m_t)
    size = sys.y.shape[0]
    ref = np.zeros((size, size), dtype=complex)
    segs = []
    for line in net.lines:
        z = phase_impedance(line)
        if line.id == net.protected_line:
            segs.append((net.local_bus, "F", m_t * z))
            segs.append(("F", net.remote_bus, (1.0 - m_t) * z))
        else:
            segs.append((line.from_bus, line.to_bus, z))
    for bi, bj, z in segs:
        yb = np.linalg.inv(z)
        oi = 0 if bi == "F" else sys.offsets[bi]
        oj = 0 if bj == "F" else sys.offsets[bj]
        for r in range(3):
            for c in range(3):
                ref[oi + r, oi + c] += yb[r, c]
                ref[oj + r, oj + c] += yb[r, c]
                ref[oi + r, oj + c] -= yb[r, c]
                ref[oj + r, oi + c] -= yb[r, c]
    assert np.allclose(sys.y, ref, rtol=0.0, atol=1e-12)


def test_assemble_symmetric(net):
    sys = assemble_y(net, 0.42)
    scale = np.abs(sys.y).max()
    assert np.allclose(sys.y, sys.y.T, rtol=0.0, atol=1e-12 * scale)


def test_location_clamp_enforced(net):
    # the dense oracle's 1/m_t stamps keep their own clamp
    with pytest.raises(ValueError, match="clamped range"):
        assemble_y(net, 0.0)
    with pytest.raises(ValueError, match="clamped range"):
        assemble_y(net, 1.0)
    assemble_y(net, 1e-6)  # boundary is allowed


def test_fault_stamp_examples():
    # the fault resistors' admittance: the normalized stamp over m_f r_f
    ag = normalized_stamp("ag") / (1.0 * 10.0)
    assert np.allclose(ag, np.diag([0.1, 0.0, 0.0]))
    ab = normalized_stamp("ab") / (0.5 * 10.0)
    assert np.allclose(ab, [[0.2, -0.2, 0], [-0.2, 0.2, 0], [0, 0, 0]])


@pytest.mark.parametrize("eta", FAULT_TYPES)
def test_stamps_symmetric_psd(eta):
    s = normalized_stamp(eta)
    assert np.allclose(s, s.T, rtol=0.0, atol=0.0)
    eigs = np.linalg.eigvalsh(s.real)
    assert eigs.min() >= -1e-12


@pytest.mark.parametrize("eta", ["ab", "ac", "bc", "abc"])
def test_ground_free_stamps_have_zero_row_sums(eta):
    s = normalized_stamp(eta)
    assert np.abs(s.sum(axis=1)).max() < 1e-15


def test_fault_spec_validation():
    with pytest.raises(ValueError):
        FaultSpec("xx", 0.5, 0.5, 1.0)
    with pytest.raises(ValueError):
        FaultSpec("ag", 0.5, 1.5, 1.0)
    for m_t in (-0.1, 1.1, float("nan")):
        with pytest.raises(ValueError, match="m_t must lie in"):
            FaultSpec("ag", m_t, 0.5, 1.0)
    for r_f in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="r_f must be finite and positive"):
            FaultSpec("ag", 0.5, 0.5, r_f)
    # the line ends are fault locations like any other
    FaultSpec("ag", 0.0, 0.5, 1.0)
    FaultSpec("ag", 1.0, 0.0, 1.0)


def test_sg_columns_replaced_by_identity(net):
    sys = assemble_y(net, 0.5)
    inc = assemble_incremental(net, sys, normalized_stamp("ag") / (1.0 * 1.0), 0.5)
    for bus in net.buses_with_role(BusRole.SG):
        blk = sys.block(bus.id)
        col = inc.y_lhs[:, blk].copy()
        assert np.allclose(col[blk, :], -np.eye(3))
        col[blk, :] = 0.0
        assert np.abs(col).max() == 0.0


def test_f_rows_are_y_plus_stamp(net):
    sys = assemble_y(net, 0.5)
    stamp = normalized_stamp("bc") / (0.5 * 2.0)
    inc = assemble_incremental(net, sys, stamp, 0.5)
    assert np.allclose(inc.y_lhs[0:3, 0:3], sys.y[0:3, 0:3] + stamp)
    assert np.allclose(inc.y_rhs[0:3, :], -stamp)
    assert np.abs(inc.y_rhs[3:, :]).max() == 0.0


def test_solve_identity_system():
    size = 9
    rhs = np.arange(size * 3, dtype=complex).reshape(size, 3)
    sys = IncrementalSystem(
        y_lhs=np.eye(size, dtype=complex), y_rhs=rhs, m_t=0.5, offsets={}
    )
    assert np.allclose(solve_omega(sys), rhs, rtol=0.0, atol=0.0)


@pytest.mark.parametrize("eta", FAULT_TYPES)
def test_omega_satisfies_defining_equation(net, eta):
    sys = assemble_y(net, 0.37)
    stamp = normalized_stamp(eta) / (0.6 * net.r_fault_max)
    inc = assemble_incremental(net, sys, stamp, 0.37)
    omega = solve_omega(inc)
    res = np.abs(inc.y_lhs @ omega - inc.y_rhs).max()
    assert res <= 1e-12 * max(np.abs(inc.y_rhs).max(), 1.0)


def test_incremental_solution_matches_simulator(net):
    # oracle: direct pre/post solve and subtraction in the simulator
    fault = FaultSpec("ag", 0.5, 1.0, net.r_fault_max)
    sim = simulate(net, fault)
    sys = assemble_y(net, 0.5)
    inc = assemble_incremental(
        net, sys, normalized_stamp("ag") / (1.0 * net.r_fault_max), 0.5
    )
    omega = solve_omega(inc)
    v_f_pre = sim.prefault.v("F").as_array()
    x = omega @ v_f_pre
    for bus in net.buses:
        if bus.role is BusRole.SG:
            continue
        blk = sys.block(bus.id)
        want = sim.fault.v(bus.id).as_array() - sim.prefault.v(bus.id).as_array()
        err = np.linalg.norm(x[blk] - want) / max(np.linalg.norm(want), 1e-300)
        assert err <= 1e-9


def test_sg_current_rows_match_simulator(net):
    fault = FaultSpec("bc", 0.4, 0.8, net.r_fault_max)
    sim = simulate(net, fault)
    sys = assemble_y(net, 0.4)
    inc = assemble_incremental(
        net, sys, normalized_stamp("bc") / (0.8 * net.r_fault_max), 0.4
    )
    x = solve_omega(inc) @ sim.prefault.v("F").as_array()
    for bus in net.buses_with_role(BusRole.SG):
        blk = sys.block(bus.id)
        want = (
            sim.fault.sg_currents[bus.id].as_array()
            - sim.prefault.sg_currents[bus.id].as_array()
        )
        err = np.linalg.norm(x[blk] - want) / max(np.linalg.norm(want), 1e-300)
        assert err <= 1e-9


def test_vanishing_conductance_limit(net):
    # g -> 0 is an open circuit: the incremental state must vanish
    sys = assemble_y(net, 0.5)
    g = 1e-12
    stamp = g * normalized_stamp("abcg")
    inc = assemble_incremental(net, sys, stamp, 0.5)
    omega = solve_omega(inc)
    assert np.abs(omega).max() <= 1e-6


@given(st.floats(1e-6, 1.0 - 1e-6), st.sampled_from(FAULT_TYPES))
def test_stamp_scaling_is_linear_in_conductance(net, m_f, eta):
    # Omega sees the fault resistance only through the branch conductance
    # 1/(m_f r_f): halving m_f and doubling r_f leaves it unchanged
    cache = OmegaCache(net)
    a = cache.omegas(eta, [0.37], [m_f], 3.0)
    b = cache.omegas(eta, [0.37], [m_f / 2.0], 6.0)
    assert np.allclose(a, b, rtol=1e-12, atol=0.0)
