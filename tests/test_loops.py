"""Fault-loop quantities and the apparent-impedance closure."""

import cmath

import numpy as np
import pytest

from incrrelay import (
    FAULT_TYPES,
    FaultSpec,
    Line,
    MeasurementWindow,
    OmegaCache,
    Phasor3,
    exact_sampled,
    loop_quantities,
    simulate,
)
from incrrelay.admittance import normalized_stamp
from incrrelay.incremental import prefault_vector
from incrrelay.loops import (
    _FAULT_VOLTAGE_ROWS,
    LOOP_FOR_FAULT,
    UnenergizedLoopError,
    apparent_impedances,
    compensation_factor,
)
from incrrelay.phasors import PSI

# rotation operator of balanced sets: phase b lags a by 120 degrees
ALPHA = cmath.exp(2j * cmath.pi / 3)
# k = z0/z1 - 1 = 1 for this line
K1_LINE = Line("l", "a", "b", 1j, 2j)


def _sigma(net, f: FaultSpec, window) -> np.ndarray:
    """Remote current at one fault point: its row of the Omega stack."""
    omega = OmegaCache(net).omegas(f.eta, f.m_t, f.m_f, f.r_f)[0]
    return omega @ prefault_vector(window)


def _z(net, f: FaultSpec, window, sigma) -> complex:
    return apparent_impedances(
        f.eta, window, net.protected, sigma, f.m_t, f.m_f, f.r_f
    )


def _window(v_now, i_now):
    z = Phasor3(0j, 0j, 0j)
    return MeasurementWindow(z, z, v_now, i_now)


def test_ag_loop_quantities_with_unit_k():
    w = _window(Phasor3(0.8 + 0j, ALPHA**2, ALPHA), Phasor3(1 + 0j, 0j, 0j))
    lq = loop_quantities("ag", w, K1_LINE)
    assert lq.k == 1.0
    assert abs(lq.v_a - 0.8) < 1e-15
    assert abs(lq.i_a - (1 + 1 / 3)) < 1e-15  # zero sequence of (1,0,0) is 1/3


def test_ab_loop_quantities():
    v = Phasor3(1 + 0j, ALPHA**2, ALPHA)
    i = Phasor3(2 + 0j, -1 + 0j, 0j)
    lq = loop_quantities("ab", _window(v, i), K1_LINE)
    assert abs(lq.v_a - (1 - ALPHA**2)) < 1e-15
    assert abs(lq.i_a - 3) < 1e-15  # no k compensation on phase loops


def test_compensation_factor(net):
    line = net.protected
    assert compensation_factor(line) == line.z0 / line.z1 - 1.0


def test_fault_loop_assignment():
    assert set(LOOP_FOR_FAULT) == set(FAULT_TYPES)
    assert LOOP_FOR_FAULT["ac"] == "ca"
    assert LOOP_FOR_FAULT["abc"] == "ab"


def test_bolted_fault_is_exact(net, window_ag):
    (z,) = exact_sampled(net, "ag", window_ag, [(0.7, 0.0)]).samples
    assert z == 0.7 * net.protected.z1


def test_close_in_bolted_fault_is_near_zero(net, window_ab):
    # at the relay bus itself the bolted sample is exactly zero
    (z,) = exact_sampled(net, "ab", window_ab, [(0.0, 0.0)]).samples
    assert z == 0


@pytest.mark.parametrize("eta", FAULT_TYPES)
def test_closure_formula_equals_measured_ratio(net, eta):
    # oracle: v_A / i_A computed purely from simulator measurements
    f = FaultSpec(eta, 0.5, 1.0, net.r_fault_max)
    sim = simulate(net, f)
    z = _z(net, f, sim.window, _sigma(net, f, sim.window))
    lq = loop_quantities(eta, sim.window, net.protected)
    want = lq.v_a / lq.i_a
    assert abs(z - want) <= 1e-9 * abs(want)


@pytest.mark.parametrize("eta", FAULT_TYPES)
def test_incremental_closure(net, eta):
    # the incremental loop ratio from the formula's fault-point loop voltage
    # (z - m_t z1) i_A, less its prefault value, which the prefault half of
    # the window gives
    f = FaultSpec(eta, 0.3, 0.8, net.r_fault_max)
    sim = simulate(net, f)
    z = _z(net, f, sim.window, _sigma(net, f, sim.window))
    lq = loop_quantities(eta, sim.window, net.protected)
    drop = f.m_t * net.protected.z1
    v_f_prev = (lq.v_a - lq.v_a_inc) - drop * (lq.i_a - lq.i_a_inc)
    got = drop + ((z - drop) * lq.i_a - v_f_prev) / lq.i_a_inc
    want = lq.v_a_inc / lq.i_a_inc
    assert abs(got - want) <= 1e-9 * abs(want)


def test_prefault_loop_balance(net, scenario_ag):
    # the cancellation the derivation rests on: i_L + i_R = 0 before the fault
    i_l = scenario_ag.window.i_prev.as_array()
    total = i_l + scenario_ag.remote_window.i_prev.as_array()
    assert np.linalg.norm(total) <= 1e-10 * np.linalg.norm(i_l)


def test_unenergized_loop_raises(net):
    z = Phasor3(0j, 0j, 0j)
    dead = MeasurementWindow(z, z, z, z)
    f = FaultSpec("ag", 0.5, 0.5, net.r_fault_max)
    with pytest.raises(UnenergizedLoopError):
        _z(net, f, dead, np.zeros(3))


def test_phase_permutation_covariance(net):
    # relabeling a->b->c->a and using the permuted loop gives the same value
    def rot(p: Phasor3) -> Phasor3:
        return Phasor3(p.c, p.a, p.b)

    f_ag = FaultSpec("ag", 0.5, 1.0, net.r_fault_max)
    sim = simulate(net, f_ag)
    sigma = _sigma(net, f_ag, sim.window)
    z_ag = _z(net, f_ag, sim.window, sigma)

    w_rot = MeasurementWindow(
        rot(sim.window.v_prev),
        rot(sim.window.i_prev),
        rot(sim.window.v_now),
        rot(sim.window.i_now),
    )
    f_bg = FaultSpec("bg", 0.5, 1.0, net.r_fault_max)
    z_bg = _z(net, f_bg, w_rot, sigma[[2, 0, 1]])
    assert abs(z_ag - z_bg) <= 1e-12 * abs(z_ag)


def test_resistance_direction_consistency(net):
    # with sigma frozen, z_A(m) = m_t * z1 + m_f * w must hold exactly
    f = FaultSpec("ag", 0.5, 1.0, net.r_fault_max)
    sim = simulate(net, f)
    sigma = _sigma(net, f, sim.window)
    # the parallelogram's direction: the same formula at m_t = 0, m_f = 1
    w_dir = _z(net, FaultSpec("ag", 0.0, 1.0, f.r_f), sim.window, sigma)
    z = _z(net, f, sim.window, sigma)
    want = f.m_t * net.protected.z1 + f.m_f * w_dir
    assert abs(z - want) <= 1e-12 * abs(z)


def test_fault_voltage_rows_are_the_stamp_pseudoinverse_rows():
    # the rows come from the stamp's rank factors; numpy's SVD-based pinv of
    # the stamp itself is the reference
    for eta in FAULT_TYPES:
        expected = PSI[LOOP_FOR_FAULT[eta]] @ np.linalg.pinv(normalized_stamp(eta))
        assert np.allclose(_FAULT_VOLTAGE_ROWS[eta], expected, rtol=0.0, atol=1e-15), eta
