"""Direct full-network solves: the oracle the pipeline is checked against."""

import numpy as np
import pytest

from incrrelay import FAULT_TYPES, FaultSpec, simulate, verify_grid
from incrrelay.admittance import FAULT_BRANCHES


def _inc(now, prev) -> float:
    """Norm of an incremental quantity: the phasor now minus before."""
    return float(np.linalg.norm(now.as_array() - prev.as_array()))


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
    (rep,) = verify_grid(net, [FaultSpec(eta, 0.5, 1.0, net.r_fault_max)])
    assert rep.sigma_rel_err <= 1e-9
    assert rep.z_a_rel_err <= 1e-9
    assert rep.sg_voltage_inc_norm == 0.0
    assert rep.prefault_balance_residual <= 1e-10


def test_verify_pipeline_bolted_path(net):
    # the formula side is exactly m_t * z1; the measured ratio must agree
    (rep,) = verify_grid(net, [FaultSpec("ag", 0.5, 0.0, net.r_fault_max)])
    assert rep.z_a_rel_err <= 1e-9
    assert rep.sigma_rel_err == 0.0
