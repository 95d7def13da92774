"""Acceptance gate: the eight headline checks, one printed verdict each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the verdict lines.
Every check runs on the bundled four-bus fixture.
"""

import time

import numpy as np
import pytest

from incrrelay import (
    FAULT_TYPES,
    FaultSpec,
    contains,
    convex_hull,
    exact_sampled,
    grid_dense,
    hull_characteristic,
    parallelogram,
    simulate,
    simulate_many,
    verify_grid,
)
from incrrelay.incremental import OmegaCache, prefault_vector
from incrrelay.loops import apparent_impedances

from test_characteristics import assert_all_points_left_of_all_edges, oracle_hull
from test_simulator import sg_current_mismatch

M_T_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
M_F_GRID = (0.2, 0.4, 0.6, 0.8, 1.0)


def _verdict(num, name, ok, detail):
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def _grid_faults(net):
    """All 11 fault types over the 5x5 grid."""
    return [
        FaultSpec(eta, m_t, m_f, net.r_fault_max)
        for eta in FAULT_TYPES
        for m_t in M_T_GRID
        for m_f in M_F_GRID
    ]


@pytest.fixture(scope="module")
def grid_reports(net):
    """Verification reports over all 11 fault types and the 5x5 grid."""
    t0 = time.perf_counter()
    reports = verify_grid(net, _grid_faults(net))
    elapsed = time.perf_counter() - t0
    return reports, elapsed


def test_criterion_1_remote_current_oracle_equivalence(grid_reports):
    reports, elapsed = grid_reports
    worst = max(r.sigma_rel_err for r in reports)
    ok = worst <= 1e-9 and elapsed <= 10.0
    _verdict(
        1,
        "remote-current oracle equivalence",
        ok,
        f"worst rel err {worst:.3e} over {len(reports)} scenarios in {elapsed:.2f}s",
    )


def test_criterion_2_fault_loop_closure(grid_reports):
    reports, _ = grid_reports
    worst_z = max(r.z_a_rel_err for r in reports)
    worst_bal = max(r.prefault_balance_residual for r in reports)
    ok = worst_z <= 1e-9 and worst_bal <= 1e-10
    _verdict(
        2,
        "fault-loop closure",
        ok,
        f"worst z_A rel err {worst_z:.3e}, worst prefault balance {worst_bal:.3e}",
    )


def test_criterion_3_bolted_fault_degeneracy(net, window_ag):
    worst = 0.0
    m_ts = (0.0, 0.25, 0.5, 0.75, 1.0)
    for eta in FAULT_TYPES:
        cloud = exact_sampled(net, eta, window_ag, [(m_t, 0.0) for m_t in m_ts])
        for m_t, z in zip(m_ts, cloud.samples):
            worst = max(worst, abs(z - m_t * net.protected.z1))
    ok = worst <= 1e-12
    _verdict(3, "bolted-fault degeneracy", ok, f"worst abs err {worst:.3e}")


def test_criterion_4_source_cancellation_structure(net):
    # the SG voltages are held, so each SG's solved terminal current must be
    # what its lines carry away at the solved bus voltages
    worst_sg = sg_current_mismatch(net, simulate_many(net, _grid_faults(net)))
    # non-source incremental states must be excited by every resistive fault
    min_state = np.inf
    for eta in FAULT_TYPES:
        f = FaultSpec(eta, 0.5, 1.0, net.r_fault_max)
        sim = simulate(net, f)
        for bus in net.buses:
            if bus.role.value == "sg":
                continue
            dv = sim.fault.v(bus.id).as_array() - sim.prefault.v(bus.id).as_array()
            min_state = min(min_state, np.linalg.norm(dv))
        for bus_id, i_post in sim.fault.sg_currents.items():
            di = i_post.as_array() - sim.prefault.sg_currents[bus_id].as_array()
            min_state = min(min_state, np.linalg.norm(di))
    ok = worst_sg <= 1e-10 and min_state > 0.0
    _verdict(
        4,
        "source cancellation structure",
        ok,
        f"worst SG current KCL gap {worst_sg:.1e}, smallest non-source increment "
        f"{min_state:.3e}",
    )


def test_criterion_5_hull_quality(net):
    worst_rate = 1.0
    for eta in ("ag", "ab"):
        f = FaultSpec(eta, 0.5, 0.5, net.r_fault_max)
        window = simulate(net, f).window
        cache = OmegaCache(net)
        hull = hull_characteristic(net, eta, window, cache=cache)
        dense = exact_sampled(net, eta, window, grid_dense(100, 100), cache)
        z_mag = abs(net.protected.z1)
        inside = sum(
            contains(hull, z, tol=0.01 * z_mag) for z in dense.samples
        )
        worst_rate = min(worst_rate, inside / len(dense.samples))
    ok = worst_rate >= 0.99
    _verdict(5, "hull quality", ok, f"worst containment rate {worst_rate:.4f}")


def test_criterion_6_timing(net, window_ag):
    hull_times, para_times = [], []
    for _ in range(5):
        t0 = time.perf_counter()
        hull_characteristic(net, "ag", window_ag)
        hull_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        parallelogram(net, "ag", window_ag, (0.5, 1.0))
        para_times.append(time.perf_counter() - t0)
    hull_ms = 1000.0 * min(hull_times)
    para_ms = 1000.0 * min(para_times)
    ok = hull_ms <= 50.0 and para_ms <= 5.0
    _verdict(
        6, "timing", ok, f"hull {hull_ms:.2f} ms (<=50), parallelogram "
        f"{para_ms:.3f} ms (<=5)"
    )


def test_criterion_7_convex_hull_correctness():
    rng = np.random.default_rng(20240817)
    failures = 0
    for _ in range(100):
        pts = [complex(x, y) for x, y in rng.random((1000, 2))]
        hull = convex_hull(pts)
        if set(hull) != oracle_hull(pts):
            failures += 1
            continue
        assert_all_points_left_of_all_edges(hull, pts)
    ok = failures == 0
    _verdict(
        7, "convex-hull correctness", ok, f"{failures} mismatches in 100 clouds"
    )


def test_criterion_8_parallelogram_structure(net, window_ag):
    ch = parallelogram(net, "ag", window_ag, (0.5, 1.0))
    # recompute the resistance direction independently of the characteristic:
    # the apparent impedance at m_t = 0, m_f = 1 under the remote current
    # frozen at m_hat
    r_f = net.r_fault_max
    omega = OmegaCache(net).omegas("ag", [0.5], [1.0], r_f)[0]
    sigma = omega @ prefault_vector(window_ag)
    w = apparent_impedances("ag", window_ag, net.protected, sigma, 0.0, 1.0, r_f)
    z = net.protected.z1
    want = {a * z + b * w for a in (0.0, 1.0) for b in (0.0, 1.0)}
    ok = set(ch.vertices) == want and len(ch.vertices) == 4
    _verdict(
        8,
        "parallelogram structure",
        ok,
        f"vertex set {'matches' if ok else 'differs from'} {{0, z, w, z+w}}",
    )
