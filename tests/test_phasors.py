"""Phasor values, and the incremental quantities, zero-sequence terms and
loop projections that ``loop_quantities`` takes of a window."""

import cmath

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from incrrelay import Line, MeasurementWindow, Phasor3, loop_quantities

# rotation operator of balanced sets: phase b lags a by 120 degrees
ALPHA = cmath.exp(2j * cmath.pi / 3)

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
complexes = st.builds(complex, finite, finite)
phasors = st.builds(Phasor3, complexes, complexes, complexes)

# k = z0/z1 - 1 = 1: a ground loop's current is i_ph + i0
K1_LINE = Line("l", "a", "b", 1j, 2j)


def _lq(eta, now, prev=None):
    """Loop quantities of a window whose voltages and currents share values."""
    prev = now if prev is None else prev
    return loop_quantities(eta, MeasurementWindow(prev, prev, now, now), K1_LINE)


def test_incremental_unchanged_signal_cancels():
    x = Phasor3(1 + 0j, ALPHA**2, ALPHA)
    lq = _lq("ag", x)
    assert lq.v_a_inc == 0 and lq.i_a_inc == 0


def test_incremental_single_phase_sag():
    now = Phasor3(0.5 + 0j, ALPHA**2, ALPHA)
    prev = Phasor3(1 + 0j, ALPHA**2, ALPHA)
    assert _lq("ag", now, prev).v_a_inc == -0.5
    assert _lq("bc", now, prev).v_a_inc == 0


def test_incremental_matches_simulator_subtraction(scenario_ag, net):
    # oracle: subtract the two solved states directly
    w = scenario_ag.window
    lq = loop_quantities("ag", w, net.protected)
    direct = w.v_now.as_array()[0] - w.v_prev.as_array()[0]
    assert lq.v_a_inc == direct
    assert abs(lq.v_a_inc) > 1e-6  # the fault actually perturbs the relay bus


def test_zero_sequence_examples():
    # the ground loop adds k * i0, and k = 1 here
    assert abs(_lq("ag", Phasor3(1 + 0j, ALPHA**2, ALPHA)).i_a - 1) < 1e-15
    assert _lq("ag", Phasor3(3 + 0j, 0j, 0j)).i_a == 3 + 1
    assert _lq("bg", Phasor3(1 + 1j, 1 + 1j, 1 + 1j)).i_a == (1 + 1j) * 2


def test_loop_projection_examples():
    x = Phasor3(7 + 0j, 2 + 0j, 5 + 0j)
    assert _lq("ag", x).v_a == 7
    assert _lq("ab", x).v_a == 5
    assert _lq("bc", x).v_a == -3


def test_phasor_rejects_nonfinite():
    with pytest.raises(ValueError):
        Phasor3(complex("nan"), 0j, 0j)
    with pytest.raises(ValueError):
        Phasor3(0j, complex("inf"), 0j)


def test_window_requires_positive_cycle_offset():
    z = Phasor3(0j, 0j, 0j)
    with pytest.raises(ValueError):
        MeasurementWindow(z, z, z, z, p=0)
    assert MeasurementWindow(z, z, z, z, p=2).p == 2


@given(phasors)
def test_incremental_of_itself_is_zero(x):
    lq = _lq("ag", x)
    assert lq.v_a_inc == 0 and lq.i_a_inc == 0


@given(phasors, phasors, phasors, phasors)
def test_incremental_is_linear(x, y, u, w):
    def inc(now, prev):
        lq = _lq("ag", now, prev)
        return np.array([lq.v_a_inc, lq.i_a_inc])

    def add(p, q):
        return Phasor3.from_array(p.as_array() + q.as_array())

    lhs = inc(add(x, y), add(u, w))
    rhs = inc(x, u) + inc(y, w)
    scale = max(np.abs(lhs).max(), np.abs(rhs).max(), 1.0)
    assert np.allclose(lhs, rhs, rtol=0.0, atol=1e-9 * scale)


@given(complexes)
def test_zero_sequence_of_balanced_sets(ref):
    # no zero-sequence term: the ground loop current is the phase current
    pos = Phasor3(ref, ref * ALPHA**2, ref * ALPHA)
    neg = Phasor3(ref, ref * ALPHA, ref * ALPHA**2)
    tol = 1e-12 * max(abs(ref), 1.0)
    assert abs(_lq("ag", pos).i_a - pos.a) <= tol
    assert abs(_lq("ag", neg).i_a - neg.a) <= tol


@given(phasors)
def test_ab_selector_is_difference_of_phase_rows(x):
    lhs = _lq("ab", x).v_a
    rhs = _lq("ag", x).v_a - _lq("bg", x).v_a
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)
