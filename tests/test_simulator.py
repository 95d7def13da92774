"""Direct full-network solves: the oracle the pipeline is checked against."""

import numpy as np
import pytest

import incrrelay.simulator as sim_mod
from incrrelay import (
    FAULT_TYPES,
    FaultSpec,
    loop_quantities,
    parse_network,
    simulate,
    simulate_many,
    verify_grid,
)
from incrrelay.admittance import FAULT_BRANCHES
from incrrelay.config import I_MIN
from incrrelay.network import phase_impedance

from netgen import random_network_text
from test_reduction import NETWORKS


def _inc(now, prev) -> float:
    """Norm of an incremental quantity: the phasor now minus before."""
    return float(np.linalg.norm(now.as_array() - prev.as_array()))


def sg_current_mismatch(net, stack) -> float:
    """Worst relative gap between each SG's solved terminal current and the
    current its lines carry away at the solved bus voltages.

    The lines' admittances come from ``network.phase_impedance``, and the
    gap is taken over the prefault state and every point of ``stack``: KCL
    at the SG buses, which the simulator's SG slots must satisfy.
    """
    row = {node: k for k, node in enumerate(stack.nodes)}
    worst = 0.0
    for s, bus_id in enumerate(stack.sg_ids):
        for v, i_sg in ((stack.v_pre[None], stack.i_sg_pre[None]), (stack.v_post, stack.i_sg_post)):
            i_lines = np.zeros_like(i_sg[:, s])
            for line in net.lines:
                if bus_id in (line.from_bus, line.to_bus):
                    other = line.to_bus if line.from_bus == bus_id else line.from_bus
                    y = np.linalg.inv(phase_impedance(line))
                    i_lines += (v[:, row[bus_id]] - v[:, row[other]]) @ y.T
            gap = np.linalg.norm(i_lines - i_sg[:, s], axis=1)
            worst = max(worst, float((gap / np.linalg.norm(i_sg[:, s], axis=1)).max()))
    return worst


def test_kcl_residuals_small(net):
    sim = simulate(net, FaultSpec("bcg", 0.5, 0.75, net.r_fault_max))
    assert sim.kcl_residual_prefault <= 1e-10
    assert sim.kcl_residual_fault <= 1e-10


def test_prefault_fault_current_is_zero(net, scenario_ag):
    i_l = scenario_ag.window.i_prev.as_array()
    total = i_l + scenario_ag.remote_window.i_prev.as_array()
    assert np.linalg.norm(total) <= 1e-10 * np.linalg.norm(i_l)


def test_open_circuit_limit_recovers_prefault(net):
    sim = simulate(net, FaultSpec("ag", 0.5, 1.0, 1e12))
    for bus in net.buses:
        assert _inc(sim.fault.v(bus.id), sim.prefault.v(bus.id)) <= 1e-9


def test_healthy_scenario_has_no_increments(net):
    sim = simulate(net, None)
    for bus_id in sim.prefault.voltages:
        assert _inc(sim.fault.v(bus_id), sim.prefault.v(bus_id)) <= 1e-12
    assert _inc(sim.window.i_now, sim.window.i_prev) <= 1e-12


def test_ag_fault_current_is_phase_a_only(net):
    sim = simulate(net, FaultSpec("ag", 0.5, 1.0, net.r_fault_max))
    i_f = sim.fault_current
    assert abs(i_f.a) > 1e-3
    assert abs(i_f.b) <= 1e-9 * abs(i_f.a)
    assert abs(i_f.c) <= 1e-9 * abs(i_f.a)


@pytest.mark.parametrize("eta", FAULT_TYPES)
def test_bolted_fault_bus_meets_its_constraints_exactly(net, eta):
    grounds, pairs = FAULT_BRANCHES[eta]
    sim = simulate(net, FaultSpec(eta, 0.5, 0.0, net.r_fault_max))
    v_f = sim.fault.v("F").as_array()
    for ph in grounds:
        assert v_f[ph] == 0.0
    for x, y in pairs:
        assert v_f[x] == v_f[y]
    for ph in set(range(3)).difference(grounds, *pairs):
        assert abs(v_f[ph]) > 1e-3  # an unfaulted phase stays energized


def test_sources_are_stationary(net):
    sim = simulate(net, FaultSpec("abg", 0.3, 0.6, net.r_fault_max))
    for bus in net.buses:
        if bus.role.value == "sg":
            assert sim.fault.v(bus.id) == sim.prefault.v(bus.id)


def test_location_out_of_clamp_rejected(net):
    # FaultSpec rejects a location off the line; both line ends are simulated,
    # with the fault bus on the terminal bus
    with pytest.raises(ValueError, match="m_t must lie in"):
        simulate(net, FaultSpec("ag", 1.1, 0.5, net.r_fault_max))
    for m_t, bus in ((0.0, net.local_bus), (1.0, net.remote_bus)):
        sim = simulate(net, FaultSpec("ag", m_t, 0.5, net.r_fault_max))
        assert sim.kcl_residual_fault <= 1e-12
        assert sim.fault.v("F") == sim.fault.v(bus)


def test_prefault_voltages_physically_plausible(net):
    sim = simulate(net, None)
    for bus in net.buses:
        mags = np.abs(sim.prefault.v(bus.id).as_array())
        assert 0.8 <= mags.min() and mags.max() <= 1.3


@pytest.mark.parametrize("eta", FAULT_TYPES)
def test_verify_pipeline_residuals(net, eta):
    fault = FaultSpec(eta, 0.5, 1.0, net.r_fault_max)
    (rep,) = verify_grid(net, [fault])
    assert rep.sigma_rel_err <= 1e-9
    assert rep.z_a_rel_err <= 1e-9
    assert sg_current_mismatch(net, simulate_many(net, [fault])) <= 1e-10
    assert rep.prefault_balance_residual <= 1e-10


def test_verify_pipeline_bolted_path(net):
    # the formula side is exactly m_t * z1; the measured ratio must agree
    (rep,) = verify_grid(net, [FaultSpec("ag", 0.5, 0.0, net.r_fault_max)])
    assert rep.z_a_rel_err <= 1e-9
    assert rep.sigma_rel_err == 0.0


def _full_systems(net, faults):
    """The unreduced (n + 6) modified nodal systems of ``faults``, stamped here.

    Unknowns: the node entries (F's voltage, or its bolted basis
    coordinates, first), then the segment currents I_LF and I_FR; rows: the
    KCL rows and the two branch rows v_L - v_F - m Z_l I_LF = 0 and
    v_F - v_R - (1-m) Z_l I_FR = 0. The network outside the protected line
    is the simulator's base system with F's slot cleared.
    """
    y0, b0, offsets = sim_mod._base_system(net)
    y0[:3], y0[:, :3] = 0.0, 0.0
    n = y0.shape[0]
    zabc = sim_mod._segment_zabc(net.protected.z1, net.protected.z0)
    inc = np.zeros((n, 6))
    o_l, o_r = offsets[net.local_bus], offsets[net.remote_bus]
    for col, (first, second) in zip((0, 3), ((o_l, 0), (0, o_r))):
        inc[first : first + 3, col : col + 3] = np.eye(3)
        inc[second : second + 3, col : col + 3] = -np.eye(3)
    systems = []
    for f in faults:
        a = np.zeros((n + 6, n + 6), dtype=complex)
        a[:n, :n], a[:n, n:], a[n:, :n] = y0, inc, inc.T
        a[n : n + 3, n : n + 3] = -f.m_t * zabc
        a[n + 3 :, n + 3 :] = -(1.0 - f.m_t) * zabc
        v = np.eye(3)
        if f.m_f > 0.0:
            a[:3, :3] += sim_mod._unit_stamp(f.eta) / (f.m_f * f.r_f)
        else:
            v, r = sim_mod._bolted_basis(f.eta)
            a[:, :3] = a[:, :3] @ v
            a[:3, :3] += r
        systems.append((a, np.concatenate([b0, np.zeros(6)]), v))
    return systems


# the generated networks, and one whose remote bus is a bare junction at the
# end of the protected line
ORACLE_NETWORKS = {
    **NETWORKS,
    "bare-remote": parse_network(random_network_text(998382199, meshed=False)),
}


@pytest.mark.parametrize("name", list(ORACLE_NETWORKS))
def test_elimination_matches_a_dense_solve_of_the_full_system(name):
    # the block elimination against np.linalg.solve of each point's whole
    # system: at both line ends, bolted, near-bolted and resistive. At
    # m_f = 1e-9 the fault conductance is of order 1e9 S, and a plain double
    # solve of the whole system is off by up to 1e-9 of its largest entry,
    # so the reference gets one refinement step on an extended-precision
    # residual
    net = ORACLE_NETWORKS[name]
    faults = [
        FaultSpec(eta, m_t, m_f, net.r_fault_max)
        for eta in FAULT_TYPES
        for m_t in (0.0, 1.0)
        for m_f in (0.0, 1e-9, 1.0)
    ]
    stack = simulate_many(net, faults)
    sg = [stack.nodes.index(bus_id) for bus_id in stack.sg_ids]
    n = 3 * len(stack.nodes)
    for k, (a, b, v) in enumerate(_full_systems(net, faults)):
        ref = np.linalg.solve(a, b)
        r = b - (a.astype(np.clongdouble) @ ref.astype(np.clongdouble))
        ref += np.linalg.solve(a, r.astype(complex))
        ref[:3] = v @ ref[:3]
        got = stack.v_post[k].copy()
        got[sg] = stack.i_sg_post[k]
        got = np.concatenate([got.reshape(n), stack.i_line_post[k, 0], -stack.i_line_post[k, 1]])
        err = np.abs(got - ref).max() / np.abs(ref).max()
        assert err <= 1e-11, (name, faults[k], err)


@pytest.mark.parametrize("name", list(ORACLE_NETWORKS))
def test_bolted_line_ends_hold_the_line_fraction_to_the_last_digits(name):
    # a bolted fault at a line end reads v_A / i_A = m_t z1 to 1e-12 of
    # |z1| wherever a source energizes the loop. At the remote end the relay
    # current I_LF can be a small difference of the large currents i_F and
    # I_FR, so the refinement step corrects I_LF itself: corrected through
    # i_F, I_LF keeps an error of eps |I_FR|, which reads up to 1.4e-11 |z1|
    net = ORACLE_NETWORKS[name]
    z1 = net.protected.z1
    faults = [
        FaultSpec(eta, m_t, 0.0, net.r_fault_max) for eta in FAULT_TYPES for m_t in (0.0, 1.0)
    ]
    stack = simulate_many(net, faults)
    for k, f in enumerate(faults):
        lq = loop_quantities(f.eta, stack.scenario(k).window, net.protected)
        if abs(lq.i_a) > I_MIN:
            assert abs(lq.v_a / lq.i_a - f.m_t * z1) <= 1e-12 * abs(z1), f
