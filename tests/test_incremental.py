"""Selector maps and the remote-current operator."""

import importlib
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incrrelay import (
    FAULT_TYPES,
    FaultSpec,
    MeasurementWindow,
    OmegaCache,
    Phasor3,
    parse_network,
    simulate,
)
from incrrelay.incremental import prefault_vector
from incrrelay.network import phase_impedance

from dense_oracle import assemble_y, selector


def test_selector_extracts_single_block(net):
    sys = assemble_y(net, 0.5)
    size = sys.y.shape[0]
    x = np.arange(size, dtype=complex)
    d = selector(net, sys.offsets, net.remote_bus)
    blk = sys.block(net.remote_bus)
    assert np.allclose(d @ x, x[blk])
    d_f = selector(net, sys.offsets, "F")
    assert np.allclose(d_f @ x, x[0:3])


def test_selector_rejects_sg_bus(net):
    sys = assemble_y(net, 0.5)
    sg = next(b for b in net.buses if b.role.value == "sg")
    with pytest.raises(ValueError, match="SG"):
        selector(net, sys.offsets, sg.id)


def _omega(net, fault: FaultSpec) -> np.ndarray:
    """The 3x6 Omega of one fault point: its row of the stack."""
    return OmegaCache(net).omegas(fault.eta, fault.m_t, fault.m_f, fault.r_f)[0]


def _sigma(net, fault: FaultSpec, window) -> np.ndarray:
    return _omega(net, fault) @ prefault_vector(window)


def _scaled(alpha: complex, p: Phasor3) -> Phasor3:
    return Phasor3.from_array(alpha * p.as_array())


def test_map_requires_resistive_fault(net):
    with pytest.raises(ValueError):
        _omega(net, FaultSpec("ag", 0.5, 0.0, net.r_fault_max))


def test_omega_map_shape(net):
    omega = _omega(net, FaultSpec("ag", 0.5, 1.0, net.r_fault_max))
    assert omega.shape == (3, 6)
    assert np.isfinite(omega).all()


def test_zero_window_gives_zero_sigma(net):
    z = Phasor3(0j, 0j, 0j)
    w = MeasurementWindow(z, z, z, z)
    sigma = _sigma(net, FaultSpec("ab", 0.5, 1.0, net.r_fault_max), w)
    assert np.linalg.norm(sigma) == 0.0


def test_sigma_is_linear_in_window(net, window_ag):
    fault = FaultSpec("ag", 0.5, 0.5, net.r_fault_max)
    base = _sigma(net, fault, window_ag)
    alpha = 0.5 - 2.0j
    scaled = MeasurementWindow(
        _scaled(alpha, window_ag.v_prev),
        _scaled(alpha, window_ag.i_prev),
        window_ag.v_now,
        window_ag.i_now,
    )
    got = _sigma(net, fault, scaled)
    scale = max(np.linalg.norm(base), 1.0)
    assert np.linalg.norm(got - alpha * base) <= 1e-12 * scale


def test_sigma_ignores_during_fault_measurements(net, window_ag):
    fault = FaultSpec("ag", 0.5, 0.5, net.r_fault_max)
    base = _sigma(net, fault, window_ag)
    tampered = MeasurementWindow(
        window_ag.v_prev,
        window_ag.i_prev,
        Phasor3(9 + 9j, -9j, 1 + 1j),
        Phasor3(-3 + 0j, 2j, 7 + 0j),
    )
    assert np.linalg.norm(_sigma(net, fault, tampered) - base) == 0.0


@pytest.mark.parametrize("eta", FAULT_TYPES)
def test_sigma_matches_simulator_remote_current(net, eta):
    # oracle: incremental current into the line at R from the direct solves
    fault = FaultSpec(eta, 0.5, 1.0, net.r_fault_max)
    sim = simulate(net, fault)
    sigma = _sigma(net, fault, sim.window)
    direct = sim.remote_window.i_now.as_array() - sim.remote_window.i_prev.as_array()
    err = np.linalg.norm(sigma - direct) / max(np.linalg.norm(direct), 1e-300)
    assert err <= 1e-9


def test_sigma_matches_segment_voltage_definition(net):
    # oracle: (v_R - v_F) incremental drop divided by the remote segment
    fault = FaultSpec("ag", 0.5, 1.0, net.r_fault_max)
    sim = simulate(net, fault)
    sigma = _sigma(net, fault, sim.window)

    def inc(bus_id):
        return sim.fault.v(bus_id).as_array() - sim.prefault.v(bus_id).as_array()

    dv = inc(net.remote_bus) - inc("F")
    want = np.linalg.solve((1.0 - fault.m_t) * phase_impedance(net.protected), dv)
    err = np.linalg.norm(sigma - want) / np.linalg.norm(want)
    assert err <= 1e-9


def test_open_circuit_limit(net, window_ag):
    # huge fault resistance: no fault, no incremental current
    sigma = _sigma(net, FaultSpec("ag", 0.5, 1.0, 1e12), window_ag)
    assert np.linalg.norm(sigma) <= 1e-6


def test_scalar_reduction_on_decoupled_network(net, window_ag):
    # z0 = z1 everywhere: the operator must reduce to the scalar-line form
    doc = """
buses:
  - {id: src, role: sg, voltage: [[1, 0], [-0.5, -0.866], [-0.5, 0.866]]}
  - {id: a, role: junction, admittance: {diag: [0.4, -0.1]}}
  - {id: b, role: junction, admittance: {diag: [0.3, -0.1]}}
lines:
  - {id: feed, from: src, to: a, z1: [0.02, 0.12], z0: [0.02, 0.12]}
  - {id: main, from: a, to: b, z1: [0.01, 0.1], z0: [0.01, 0.1]}
relay: {line: main, local: a, remote: b, r_fault_max: 0.5}
"""
    dec = parse_network(doc)
    fault = FaultSpec("ag", 0.5, 1.0, dec.r_fault_max)
    omega = _omega(dec, fault)
    # right half must be -m_t * z1 times the left half when Z_abc = z1 * I
    left = omega[:, 0:3]
    right = omega[:, 3:6]
    want = -fault.m_t * dec.protected.z1 * left
    assert np.allclose(right, want, rtol=1e-9, atol=1e-12)


def test_package_attributes_are_its_submodules():
    # a name the package re-exports must not shadow a submodule
    import incrrelay

    for info in pkgutil.iter_modules(incrrelay.__path__):
        module = importlib.import_module(f"incrrelay.{info.name}")
        assert getattr(incrrelay, info.name) is module, info.name
    for name in incrrelay.__all__:
        assert hasattr(incrrelay, name), name


def test_cache_reduces_the_network_once(net, monkeypatch):
    import incrrelay.incremental as inc

    calls = []
    real = inc.terminal_impedance
    monkeypatch.setattr(inc, "terminal_impedance", lambda n: calls.append(n) or real(n))
    cache = OmegaCache(net)
    stack = cache.omegas("bc", [0.25, 0.5], [0.75, 1.0], net.r_fault_max)
    cache.omegas("ag", [0.5], [1.0], net.r_fault_max)
    assert len(calls) == 1
    assert stack.shape == (2, 3, 6)
    want = _omega(net, FaultSpec("bc", 0.5, 1.0, net.r_fault_max))
    assert np.allclose(stack[1], want, rtol=1e-14, atol=0.0)


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from(FAULT_TYPES),
    st.floats(0.05, 0.95),
    st.floats(0.05, 1.0),
)
def test_sigma_deterministic_in_inputs(eta, m_t, m_f):
    # same network, fault, and prefault window -> identical sigma
    net = parse_network(
        open(__import__("incrrelay").fourbus_path(), encoding="utf-8").read()
    )
    fault = FaultSpec(eta, m_t, m_f, net.r_fault_max)
    w = simulate(net, fault).window
    a = _sigma(net, fault, w)
    b = _sigma(net, fault, w)
    assert np.array_equal(a, b)
