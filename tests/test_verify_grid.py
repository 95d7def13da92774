"""Stacked verification: the simulator and the pipeline evaluated over a grid.

``verify_grid`` checks N points of any mix of fault types with one
simulator stack and one Omega stack per fault type. Its reports must meet
verify's thresholds on the bundled and the generated networks, must not
depend on the order of the points or on the other fault types of a call, and
each state of a simulator stack must be the single-point one. The
simulator must also hold at and near the line ends and at bolted points,
where the refinement step of its solves is what keeps it within verify's
thresholds, and the whole check must hold on any generated network.
"""

import contextlib
import io
from importlib import import_module

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incrrelay import (
    FAULT_TYPES,
    FaultSpec,
    OmegaCache,
    loop_quantities,
    simulate,
    simulate_many,
    verify_grid,
)
from incrrelay.cli import BALANCE_THRESHOLD, SIGMA_THRESHOLD, Z_A_THRESHOLD, main
from incrrelay.config import I_MIN
from incrrelay.incremental import prefault_vector

from netgen import random_network
from test_reduction import NETWORKS

# both line ends and the interior; verify checks resistive points only
M_T = (0.0, 0.37, 1.0)
M_F = (0.35, 1.0)


def _grid(net, eta, m_fs=M_F):
    return [
        FaultSpec(eta, m_t, m_f, net.r_fault_max)
        for m_f in m_fs
        for m_t in M_T
    ]


@pytest.mark.parametrize("name", list(NETWORKS))
def test_grid_reports_meet_the_verify_thresholds(name):
    net = NETWORKS[name]
    cache = OmegaCache(net)
    for eta in FAULT_TYPES:
        for rep in verify_grid(net, _grid(net, eta), cache):
            assert rep.sigma_rel_err <= SIGMA_THRESHOLD, rep
            assert rep.z_a_rel_err <= Z_A_THRESHOLD, rep
            assert rep.prefault_balance_residual <= BALANCE_THRESHOLD, rep
            assert rep.sg_voltage_inc_norm == 0.0


@pytest.mark.parametrize("name", ["fourbus", "seed7"])
def test_permuting_the_points_permutes_the_reports(name):
    net = NETWORKS[name]
    faults = _grid(net, "abg", (0.0,) + M_F)  # bolted points in the stack too
    perm = np.random.default_rng(3).permutation(len(faults))
    reports = verify_grid(net, faults)
    permuted = verify_grid(net, [faults[k] for k in perm])
    assert permuted == [reports[k] for k in perm]


def test_stack_states_are_the_single_point_states(net):
    faults = [
        FaultSpec("bc", 0.25, 0.5, net.r_fault_max),
        None,
        FaultSpec("abcg", 0.0, 0.0, net.r_fault_max),
        FaultSpec("ag", 1.0, 1.0, net.r_fault_max),
        FaultSpec("ab", 0.6, 0.0, net.r_fault_max),
    ]
    stack = simulate_many(net, faults)
    for k, fault in enumerate(faults):
        assert stack.scenario(k) == simulate(net, fault), fault


def test_single_point_verify_is_the_grid_row(net):
    faults = _grid(net, "acg", (0.0,) + M_F)
    for fault, rep in zip(faults, verify_grid(net, faults)):
        (single,) = verify_grid(net, [fault])
        assert single.fault == rep.fault
        # the simulator states are identical; the loop projections of a
        # stack may round differently in the last bit
        assert single.sigma_rel_err == rep.sigma_rel_err
        assert abs(single.z_a_rel_err - rep.z_a_rel_err) <= 1e-15
        assert single.prefault_balance_residual == rep.prefault_balance_residual


def test_mixed_type_grid_equals_the_per_type_grids(net):
    cache = OmegaCache(net)
    per_type = [_grid(net, eta, (0.0,) + M_F) for eta in FAULT_TYPES]
    expected = [rep for faults in per_type for rep in verify_grid(net, faults, cache)]
    points = [f for faults in per_type for f in faults]
    assert verify_grid(net, points, cache) == expected
    # interleaved types: one stack, reports in the order of the points
    perm = np.random.default_rng(4).permutation(len(points))
    mixed = verify_grid(net, [points[k] for k in perm], cache)
    assert mixed == [expected[k] for k in perm]
    assert verify_grid(net, []) == []


def _counting(monkeypatch, module, name, calls):
    real = getattr(module, name)

    def counted(*args):
        calls[name] = calls.get(name, 0) + 1
        return real(*args)

    monkeypatch.setattr(module, name, counted)


def test_verify_solves_prefault_and_reduces_once_per_command(monkeypatch):
    sim_mod = import_module("incrrelay.simulator")
    inc_mod = import_module("incrrelay.incremental")
    calls = {}
    _counting(monkeypatch, sim_mod, "_base_system", calls)
    _counting(monkeypatch, inc_mod, "terminal_impedance", calls)
    shapes = []
    real_systems = sim_mod._systems

    def systems(*args):
        a, b = real_systems(*args)
        shapes.append(a.shape)
        return a, b

    monkeypatch.setattr(sim_mod, "_systems", systems)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        rc = main(["verify", "--fault", "all", "--grid", "dense:4x3"])
    assert rc == 0
    points = len(FAULT_TYPES) * 4 * 2
    assert len(out.getvalue().splitlines()) == 1 + points
    # the network outside the fault is stamped and reduced once, and the
    # prefault state is one more system of the same stack
    assert calls == {"_base_system": 1, "terminal_impedance": 1}
    assert sum(shape[0] for shape in shapes) == points + 1
    assert {shape[1:] for shape in shapes} == {(15 + 6, 15 + 6)}


def _verify_stdout(*argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        rc = main(["verify", *argv])
    assert rc == 0
    return out.getvalue().splitlines()


def test_verify_all_prints_the_single_type_rows():
    whole = _verify_stdout("--fault", "all", "--grid", "dense:5x4")
    header, rows = whole[0], []
    for eta in FAULT_TYPES:
        single = _verify_stdout("--fault", eta, "--grid", "dense:5x4")
        assert single[0] == header
        rows += single[1:]
    assert whole[1:] == rows


def test_blocked_simulator_solves_give_the_same_stack(net, monkeypatch):
    sim_mod = import_module("incrrelay.simulator")
    # a mixed stack: resistive, bolted and healthy points of several types
    faults = [
        f for eta in ("abg", "bc", "cg") for f in _grid(net, eta, (0.0,) + M_F)
    ] + [None, None]
    order = np.random.default_rng(6).permutation(len(faults))
    faults = [faults[k] for k in order]
    resistive = [f for f in faults if f is not None and f.m_f > 0.0]
    whole = simulate_many(net, faults)
    reports = verify_grid(net, resistive)
    sizes = []
    real_systems = sim_mod._systems

    def counted(*args):
        a, b = real_systems(*args)
        sizes.append(a.size)
        return a, b

    monkeypatch.setattr(sim_mod, "_systems", counted)
    # blocks of two systems of n + 6 + c unknowns (n = 15 node entries, six
    # segment currents, c constraints): 21x21, or 22x22 for bolted bc and
    # cg points; a bolted abg system (23x23) is a block alone
    monkeypatch.setattr(sim_mod, "_BLOCK_ENTRIES", 2 * 22**2)
    blocked = simulate_many(net, faults)
    assert max(sizes) <= 2 * 22**2
    # the prefault state, 20 resistive or healthy points, 6 bolted bc or cg
    # and 3 bolted abg ones
    assert len(sizes) == 11 + 3 + 3
    names = ("v_pre", "i_line_pre", "kcl_residual_prefault", "v_post", "i_sg_post",
             "i_line_post", "kcl_residual_fault", "v_f_pre")
    for name in names:
        assert np.array_equal(getattr(blocked, name), getattr(whole, name)), name
    assert verify_grid(net, resistive) == reports


def _numpy1_solve(real_solve):
    """np.linalg.solve with numpy 1.x's reading of the right-hand side.

    numpy 1.x takes ``b`` as a stack of vectors when it has one axis fewer
    than ``a``, and as a stack of matrices otherwise; numpy 2.x takes only a
    1-D ``b`` as a vector.
    """

    def solve(a, b):
        a, b = np.asarray(a), np.asarray(b)
        if b.ndim == a.ndim - 1:
            return real_solve(a, b[..., None])[..., 0]
        if b.ndim < 2:
            raise ValueError("solve: b needs at least two axes")
        return real_solve(a, b)

    return solve


def test_results_do_not_depend_on_the_numpy_solve_convention(net, monkeypatch):
    cache = OmegaCache(net)
    points = [_grid(net, eta) for eta in FAULT_TYPES]  # six points each
    one = points[0][1]

    def run():
        with contextlib.redirect_stdout(io.StringIO()) as out:
            rc = main(["verify", "--fault", "all", "--grid", "dense:4x3"])
        reports = [verify_grid(net, faults, cache) for faults in points]
        reports += [verify_grid(net, faults[:1]) for faults in points]
        arrays = [
            cache.omegas(eta, [0.5] * k, [1.0] * k, net.r_fault_max)
            for eta in FAULT_TYPES
            for k in (1, 2, 5)
        ]
        arrays += [
            cache.omegas(one.eta, one.m_t, one.m_f, one.r_f)[0],
            simulate_many(net, points[4] + [None]).v_post,
        ]
        return rc, out.getvalue(), reports, arrays

    rc, text, reports, arrays = run()
    monkeypatch.setattr(np.linalg, "solve", _numpy1_solve(np.linalg.solve))
    rc1, text1, reports1, arrays1 = run()
    assert rc == rc1 == 0
    assert text == text1
    assert reports == reports1
    for x, y in zip(arrays, arrays1, strict=True):
        assert np.array_equal(x, y)


def test_verify_holds_near_the_line_ends():
    # at and within 1e-12 of both ends the fault bus sits on a terminal bus
    # or almost; the modified nodal systems keep every entry of order one
    m_ts = (0.0, 1e-12, 1.0 - 1e-12, 1.0)
    for name, net in NETWORKS.items():
        faults = [
            FaultSpec(eta, m_t, m_f, net.r_fault_max)
            for eta in FAULT_TYPES
            for m_t in m_ts
            for m_f in (0.05, 0.35, 1.0)
        ]
        for rep in verify_grid(net, faults):
            assert rep.sigma_rel_err <= SIGMA_THRESHOLD, (name, rep)
            assert rep.z_a_rel_err <= Z_A_THRESHOLD, (name, rep)
            assert rep.prefault_balance_residual <= BALANCE_THRESHOLD, (name, rep)


# bolted points near both line ends and inside; verify's grid skips m_f = 0
BOLTED_M_T = (1e-3, 0.37, 0.999)
# the one truly unenergized loop: relay bus b0 of seed 8 has no source
# behind it, so a bolted three-phase-to-ground fault leaves the loop dead
UNENERGIZED = {("seed8", "abcg")}


@pytest.mark.parametrize("name", list(NETWORKS))
def test_bolted_points_meet_the_z_a_threshold(name):
    net = NETWORKS[name]
    for eta in FAULT_TYPES:
        faults = [FaultSpec(eta, m_t, 0.0, net.r_fault_max) for m_t in BOLTED_M_T]
        if (name, eta) in UNENERGIZED:
            with pytest.raises(ValueError, match="loop not energized"):
                verify_grid(net, faults)
            continue
        for rep in verify_grid(net, faults):
            assert rep.z_a_rel_err <= Z_A_THRESHOLD, rep
            assert rep.sigma_rel_err == 0.0


# bolted faults at a line end that leave the loop dead: seed 8 (see above),
# and seed 12, whose relay bus b0 reaches every source through the remote
# bus b1, so a bolted three-phase fault at b1 cuts it off
UNENERGIZED_ENDS = {
    ("seed8", "abcg", 0.0),
    ("seed8", "abcg", 1.0),
    ("seed12", "abc", 1.0),
    ("seed12", "abcg", 1.0),
}


@pytest.mark.parametrize("name", list(NETWORKS))
def test_bolted_line_ends_read_the_line_fraction(name):
    # verify's z_A error is relative to v_A / i_A, which is 0 at m_t = 0, so
    # the measured ratio is compared with m_t z1 on the scale of |z1|
    net = NETWORKS[name]
    z1 = net.protected.z1
    faults = [
        FaultSpec(eta, m_t, 0.0, net.r_fault_max)
        for eta in FAULT_TYPES
        for m_t in (0.0, 1.0)
    ]
    stack = simulate_many(net, faults)
    for k, f in enumerate(faults):
        if (name, f.eta, f.m_t) in UNENERGIZED_ENDS:
            with pytest.raises(ValueError, match="loop not energized"):
                verify_grid(net, [f])
            continue
        lq = loop_quantities(f.eta, stack.scenario(k).window, net.protected)
        assert abs(lq.v_a / lq.i_a - f.m_t * z1) <= Z_A_THRESHOLD * abs(z1), f


# near-bolted faults whose loop is dead at m_f = 1e-9: the dead bolted loops
# of UNENERGIZED_ENDS, and seed 8 abcg at every location
NEAR_BOLTED_UNENERGIZED = {
    ("seed8", "abcg", 0.0, 1e-9),
    ("seed8", "abcg", 0.37, 1e-9),
    ("seed8", "abcg", 1.0, 1e-9),
    ("seed12", "abc", 1.0, 1e-9),
    ("seed12", "abcg", 1.0, 1e-9),
}


@pytest.mark.parametrize("name", list(NETWORKS))
def test_near_bolted_points_meet_the_sigma_threshold(name):
    # the fault system is solved on the stamp's range only, so a vanishing
    # m_f r_f costs Omega no digits (the 3x3 system m_f r_f I + S Z_FF has
    # the eigenvalue m_f r_f on the stamp's null space)
    net = NETWORKS[name]
    faults = [
        FaultSpec(eta, m_t, m_f, net.r_fault_max)
        for eta in FAULT_TYPES
        for m_t in M_T
        for m_f in (1e-6, 1e-9)
    ]
    dead = [f for f in faults if (name, f.eta, f.m_t, f.m_f) in NEAR_BOLTED_UNENERGIZED]
    for f in dead:
        with pytest.raises(ValueError, match="loop not energized"):
            verify_grid(net, [f])
    for rep in verify_grid(net, [f for f in faults if f not in dead]):
        assert rep.sigma_rel_err <= SIGMA_THRESHOLD, rep


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.fixed_dictionaries(
        {"meshed": st.booleans(), "parallel": st.booleans(), "flip": st.booleans()}
    ),
    eta=st.sampled_from(FAULT_TYPES),
    m_t=st.sampled_from((0.0, 1.0))
    | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    # below m_f of about 1e-7, z_A's error at m_t = 0 exceeds its threshold:
    # it is relative to v_A / i_A, which vanishes with the fault resistance
    # there; m_f >= 1e-6 keeps a 10x margin
    m_f=st.floats(1e-6, 1.0),
)
def test_verify_holds_on_generated_networks(seed, shape, eta, m_t, m_f):
    net = random_network(seed, **shape)
    fault = FaultSpec(eta, m_t, m_f, net.r_fault_max)
    sim = simulate(net, fault)
    if abs(loop_quantities(eta, sim.window, net.protected).i_a) <= I_MIN:
        # no source energizes the relay's loop, which verify reports as such
        with pytest.raises(ValueError, match="loop not energized"):
            verify_grid(net, [fault])
        return
    (rep,) = verify_grid(net, [fault])
    assert rep.z_a_rel_err <= Z_A_THRESHOLD, rep
    assert rep.prefault_balance_residual <= BALANCE_THRESHOLD, rep
    direct = sim.remote_window.i_now.as_array() - sim.remote_window.i_prev.as_array()
    local = np.linalg.norm(sim.window.i_now.as_array() - sim.window.i_prev.as_array())
    if np.linalg.norm(direct) > 1e-12 * local:
        assert rep.sigma_rel_err <= SIGMA_THRESHOLD, rep
        return
    # nothing beyond the remote bus carries current: the remote current is
    # zero, relative to which verify's error is undefined, so sigma is held
    # to the scale of the local current instead
    omega = OmegaCache(net).omegas(eta, m_t, m_f, net.r_fault_max)[0]
    sigma = omega @ prefault_vector(sim.window)
    assert np.linalg.norm(sigma - direct) <= SIGMA_THRESHOLD * local, rep
