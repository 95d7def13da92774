"""Characteristic constructions: cloud, parallelogram, and convex hull."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incrrelay import (
    FAULT_TYPES,
    FaultSpec,
    contains,
    convex_hull,
    exact_sampled,
    grid_corners4,
    grid_dense,
    grid_paper22,
    grid_perimeter,
    hull_characteristic,
    loop_quantities,
    parallelogram,
    simulate,
)
from incrrelay.characteristics import _cross
from incrrelay.incremental import OmegaCache, prefault_vector
from incrrelay.loops import apparent_impedances


def _exact_open_halfplane(p: complex, others) -> bool:
    """Exactly: do all vectors q - p lie in an open half-plane through 0?

    Scans the vectors once, keeping the clockwise-most (r) and the
    counterclockwise-most (l) ray of the cone they span; the answer is no
    as soon as that cone would reach an angle of pi.
    """
    px, py = Fraction(p.real), Fraction(p.imag)
    vs = [(Fraction(q.real) - px, Fraction(q.imag) - py) for q in others]

    def cross(u, v):
        return u[0] * v[1] - u[1] * v[0]

    r = l = vs[0]
    for v in vs[1:]:
        c_r, c_l = cross(r, v), cross(l, v)
        if c_r >= 0 and c_l <= 0:  # inside the cone, or on a one-ray cone's line
            if c_r == 0 and c_l == 0 and r[0] * v[0] + r[1] * v[1] < 0:
                return False
        elif c_r < 0:  # clockwise of r
            if cross(v, l) <= 0:
                return False
            r = v
        else:  # counterclockwise of l
            if c_r == 0:
                return False
            l = v
    return True


def _outside_octagon(pts: np.ndarray) -> np.ndarray:
    """Indices of points not certainly inside the octagon of the cloud's
    extreme points in eight directions; the others cannot be hull vertices."""
    dirs = np.exp(0.25j * np.pi * np.arange(8))
    ext = list(dict.fromkeys(np.argmax((pts[None, :] * dirs.conj()[:, None]).real, axis=1).tolist()))
    if len(ext) < 3:
        return np.arange(len(pts))
    v = pts[ext]
    e = np.roll(v, -1) - v
    cr = (e.conj()[:, None] * (pts[None, :] - v[:, None])).imag
    margin = 1e-9 * np.ptp(pts.real) ** 2 + 1e-9 * np.ptp(pts.imag) ** 2
    return np.flatnonzero(~(cr > margin).all(axis=0))


def oracle_hull(points):
    """Independent exact hull oracle: the set of extreme points.

    p is a hull vertex iff all other points lie in an open half-plane
    through p, i.e. the largest angular gap around p exceeds pi; a gap of
    exactly pi puts p on a segment between two others, which strict
    collinear pruning drops. Float angles decide with a 1e-9 rad margin,
    far above their error of a few ulps. A gap within the margin is decided
    exactly, on the points whose directions lie within 1e-6 rad of the
    gap's two edges plus one point inside the occupied arc, which fixes the
    side of the cone: every other direction lies inside the cone they span.
    """
    pts = np.array(list(dict.fromkeys(complex(p) for p in points)))
    if len(pts) <= 2:
        return set(pts.tolist())
    cand = _outside_octagon(pts)
    rows = max(1, 2**20 // len(pts))
    extreme = set()
    for start in range(0, len(cand), rows):
        idx = cand[start : start + rows]
        d = pts[None, :] - pts[idx][:, None]
        theta = np.where(d == 0, np.nan, np.angle(d))  # the point itself: NaN
        order = np.argsort(theta, axis=1)[:, :-1]  # NaN sorts last
        srt = np.take_along_axis(theta, order, axis=1)
        gaps = np.diff(srt, axis=1, append=srt[:, :1] + 2.0 * np.pi)
        for row, k in enumerate(idx):
            i = int(np.argmax(gaps[row]))
            m = srt.shape[1]
            g = gaps[row, i]
            if g > np.pi + 1e-9:
                extreme.add(complex(pts[k]))
            elif g >= np.pi - 1e-9:
                def dist(angle):  # angular distance of every direction to ``angle``
                    return np.abs(np.angle(np.exp(1j * (theta[row] - angle))))

                first = srt[row, (i + 1) % m]  # the occupied arc runs ccw from here
                near = (dist(first) < 1e-6) | (dist(srt[row, i]) < 1e-6)
                near[np.nanargmin(dist(first + 0.5 * (2.0 * np.pi - g)))] = True
                if _exact_open_halfplane(pts[k], pts[near].tolist()):
                    extreme.add(complex(pts[k]))
    return extreme


def assert_all_points_left_of_all_edges(hull, points):
    """The defining hull property, checked edge by edge over every point."""
    arr = np.array(points)
    n = len(hull)
    assert n >= 3
    for i in range(n):
        a, b = hull[i], hull[(i + 1) % n]
        cr = (b - a).real * (arr - a).imag - (b - a).imag * (arr - a).real
        assert cr.min() >= 0.0


def test_grid_presets():
    # exact floats in order: a nominal point is found in a cloud by equality
    bolted = [(0.0, 0.0), (1.0, 0.0)]
    resistive = [
        (m_t, m_f)
        for m_f in (0.25, 0.5, 0.75, 1.0)
        for m_t in (0.0, 0.25, 0.5, 0.75, 1.0)
    ]
    assert grid_paper22().tolist() == [list(p) for p in bolted + resistive]
    assert grid_corners4().tolist() == [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]
    assert grid_dense(3, 2).tolist() == [
        [0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, 1.0], [1.0, 1.0]
    ]
    ts = np.linspace(0.0, 1.0, 7)
    assert grid_dense(7, 3)[:7, 0].tolist() == ts.tolist()
    for g in (grid_paper22(), grid_corners4(), grid_dense(5, 4), grid_perimeter(5)):
        assert g.dtype == np.float64 and g.ndim == 2 and g.shape[1] == 2
    assert len(grid_dense(5, 4)) == 20


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_grid_perimeter_visits_each_boundary_point_once(n):
    per = grid_perimeter(n).tolist()
    assert len(per) == (4 * n - 4 if n > 1 else 3)
    assert all(0.0 in p or 1.0 in p for p in per)
    # first-occurrence order of (v, 0), (v, 1), (0, v), (1, v) over v
    expected = []
    for v in np.linspace(0.0, 1.0, n).tolist():
        for p in ([v, 0.0], [v, 1.0], [0.0, v], [1.0, v]):
            if p not in expected:
                expected.append(p)
    assert per == expected
    assert per[:3] == [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]]


def test_hull_drops_interior_point():
    got = convex_hull([0j, 1 + 0j, 1j, 0.25 + 0.25j])
    assert set(got) == {0j, 1 + 0j, 1j}


def test_hull_collinear_set_degenerates_to_segment():
    assert convex_hull([0j, 1 + 0j, 2 + 0j]) == [0j, 2 + 0j]


def test_hull_single_and_pair():
    assert convex_hull([3 + 4j]) == [3 + 4j]
    assert set(convex_hull([1j, 2j])) == {1j, 2j}


def test_hull_is_counterclockwise():
    rng = np.random.default_rng(7)
    pts = [complex(x, y) for x, y in rng.random((50, 2))]
    hull = convex_hull(pts)
    n = len(hull)
    for i in range(n):
        a, b, c = hull[i], hull[(i + 1) % n], hull[(i + 2) % n]
        assert _cross(b - a, c - b) > 0.0


def test_hull_matches_brute_force_oracle():
    rng = np.random.default_rng(1234)
    for trial in range(100):
        pts = [complex(x, y) for x, y in rng.random((1000, 2))]
        hull = convex_hull(pts)
        assert set(hull) == oracle_hull(pts), f"trial {trial}"
        assert_all_points_left_of_all_edges(hull, pts)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.builds(
            complex,
            st.floats(-100, 100, allow_nan=False),
            st.floats(-100, 100, allow_nan=False),
        ),
        min_size=1,
        max_size=60,
    )
)
def test_hull_idempotent_and_permutation_invariant(pts):
    hull = convex_hull(pts)
    assert convex_hull(hull) == hull
    assert set(convex_hull(list(reversed(pts)))) == set(hull)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.builds(
            complex,
            st.floats(-10, 10, allow_nan=False),
            st.floats(-10, 10, allow_nan=False),
        ),
        min_size=3,
        max_size=30,
    )
)
def test_hull_contains_all_generating_points(pts):
    from incrrelay.characteristics import Characteristic

    hull = convex_hull(pts)
    ch = Characteristic(kind="convex-hull", vertices=tuple(hull), eta="ag")
    diam = max(abs(p - q) for p in pts for q in pts)
    for p in pts:
        assert contains(ch, p, tol=1e-9 * max(diam, 1.0))


def test_exact_sampled_bolted_midpoint(net, window_ag):
    ch = exact_sampled(net, "ag", window_ag, [(0.5, 0.0)])
    assert ch.samples == (0.5 * net.protected.z1,)


def test_exact_sampled_bolted_row_is_collinear(net, window_ag):
    grid = [(t, 0.0) for t in (0.0, 0.25, 0.5, 0.75, 1.0)]
    ch = exact_sampled(net, "ag", window_ag, grid)
    z1 = net.protected.z1
    assert np.array_equal(ch.meta["grid"], grid)
    for (m_t, _), z in zip(ch.meta["grid"], ch.samples):
        assert abs(z - m_t * z1) <= 1e-15
    # the line ends read exactly 0 and z1
    assert (ch.samples[0], ch.samples[-1]) == (0j, z1)


def test_exact_sampled_annotates_failing_grid_point(net):
    from incrrelay import MeasurementWindow, Phasor3

    z = Phasor3(0j, 0j, 0j)
    dead = MeasurementWindow(z, z, z, z)
    with pytest.raises(Exception, match=r"grid point \(m_t=0.5, m_f=0.5\)"):
        exact_sampled(net, "ag", dead, [(0.5, 0.5)])


def test_exact_sampled_takes_an_array_grid(net, window_ag):
    pairs = [(m_t, m_f) for m_f in (0.0, 0.5, 1.0) for m_t in (0.0, 0.3, 1.0)]
    arr = np.array(pairs)
    from_pairs = exact_sampled(net, "ag", window_ag, pairs)
    from_array = exact_sampled(net, "ag", window_ag, arr)
    assert from_array.samples == from_pairs.samples
    assert np.array_equal(from_array.meta["grid"], from_pairs.meta["grid"])
    # meta["grid"] is a copy: changing the caller's array later changes nothing
    arr[:] = 0.5
    assert np.array_equal(from_array.meta["grid"], pairs)
    assert from_array.meta["grid"].dtype == np.float64


@pytest.mark.parametrize(
    "grid, shape",
    [
        (np.zeros((2, 3)), r"\(2, 3\)"),
        ([0.5, 0.5, 0.5], r"\(3,\)"),
        (np.full((2, 2, 1), 0.5), r"\(2, 2, 1\)"),
    ],
)
def test_exact_sampled_rejects_a_misshaped_grid(net, window_ag, grid, shape):
    with pytest.raises(ValueError, match=r"\(N, 2\).*" + shape):
        exact_sampled(net, "ag", window_ag, grid)


@pytest.mark.parametrize("grid", [[], (), np.empty((0, 2))])
def test_exact_sampled_rejects_an_empty_grid(net, window_ag, grid):
    with pytest.raises(ValueError, match="grid must be non-empty"):
        exact_sampled(net, "ag", window_ag, grid)


@pytest.mark.parametrize("x", [-0.1, 1.1, float("nan")])
def test_locations_off_the_line_are_rejected(net, window_ag, x):
    # no clip: a point off [0, 1]^2 is an error, bolted or resistive
    for grid in ([(0.5, 0.5), (x, 0.0)], [(x, 0.5)], [(0.5, x)]):
        with pytest.raises(ValueError, match="outside"):
            exact_sampled(net, "ag", window_ag, grid)
    for m_hat in ((x, 1.0), (0.5, x)):
        with pytest.raises(ValueError, match="outside"):
            parallelogram(net, "ag", window_ag, m_hat)


def test_paper22_hull_has_at_most_22_vertices(net, window_ag):
    ch = hull_characteristic(net, "ag", window_ag)
    assert len(ch.samples) == 22
    assert 3 <= len(ch.vertices) <= 22
    for z in ch.samples:
        assert contains(ch, z)


def test_corners4_hull_is_quadrilateral(net, window_ag):
    ch = hull_characteristic(net, "ag", window_ag, grid_corners4())
    assert len(ch.vertices) in (3, 4)  # 4 generically, 3 if a corner degenerates
    assert len(ch.samples) == 4


def test_hull_monotone_under_grid_refinement(net, window_ag):
    cache = OmegaCache(net)
    small = hull_characteristic(net, "ag", window_ag, grid_dense(3, 3), cache)
    grid = list(grid_dense(3, 3)) + list(grid_dense(5, 5))
    big = hull_characteristic(net, "ag", window_ag, grid, cache)
    diam = max(abs(p - q) for p in big.vertices for q in big.vertices)
    for v in small.vertices:
        assert contains(big, v, tol=1e-9 * diam)


def test_parallelogram_is_minkowski_sum(net, window_ag):
    ch = parallelogram(net, "ag", window_ag, (0.5, 1.0))
    r_f = net.r_fault_max
    omega = OmegaCache(net).omegas("ag", [0.5], [1.0], r_f)[0]
    sigma = omega @ prefault_vector(window_ag)
    w = apparent_impedances("ag", window_ag, net.protected, sigma, 0.0, 1.0, r_f)
    z = net.protected.z1
    want = {a * z + b * w for a in (0.0, 1.0) for b in (0.0, 1.0)}
    assert set(ch.vertices) == want
    assert len(ch.vertices) == 4


@pytest.mark.parametrize("eta", FAULT_TYPES)
def test_parallelogram_matches_the_simulator(net, eta):
    # with the window simulated at m_hat itself, the frozen remote current is
    # exact there, so m_t z1 + m_f w is the simulator's v_A / i_A and the
    # parallelogram is {0, z1, w, z1 + w} with w taken from the simulator
    z1 = net.protected.z1
    cache = OmegaCache(net)
    for m_t, m_f in ((0.5, 1.0), (0.2, 0.4), (0.9, 0.7), (0.0, 0.6), (1.0, 1.0)):
        window = simulate(net, FaultSpec(eta, m_t, m_f, net.r_fault_max)).window
        lq = loop_quantities(eta, window, net.protected)
        w = (lq.v_a / lq.i_a - m_t * z1) / m_f
        want = (0j, z1, w, z1 + w)
        got = parallelogram(net, eta, window, (m_t, m_f), cache).vertices
        assert len(got) == 4
        for a, b in ((want, got), (got, want)):
            for v in a:
                assert min(abs(v - u) for u in b) <= 1e-9 * abs(z1), (m_t, m_f)


def test_parallelogram_opposite_edges_equal(net, window_ab):
    ch = parallelogram(net, "ab", window_ab, (0.5, 1.0))
    v = list(ch.vertices)
    assert abs((v[1] - v[0]) - (v[2] - v[3])) <= 1e-12
    assert abs((v[3] - v[0]) - (v[2] - v[1])) <= 1e-12


def test_parallelogram_counterclockwise(net, window_ag):
    v = list(parallelogram(net, "ag", window_ag, (0.5, 1.0)).vertices)
    n = len(v)
    for i in range(n):
        assert _cross(v[(i + 1) % n] - v[i], v[(i + 2) % n] - v[(i + 1) % n]) > 0


def test_degenerate_resistance_direction(net, window_ag, monkeypatch):
    # force w = 0: the characteristic collapses to the line segment [0, z]
    import incrrelay.characteristics as chmod

    monkeypatch.setattr(chmod, "apparent_impedances", lambda *a, **k: 0j)
    ch = parallelogram(net, "ag", window_ag, (0.5, 1.0))
    assert ch.meta.get("degenerate") is True
    assert ch.vertices == (0j, net.protected.z1)


def test_contains_centroid_and_far_point(net, window_ag):
    ch = hull_characteristic(net, "ag", window_ag)
    centroid = sum(ch.vertices) / len(ch.vertices)
    assert contains(ch, centroid)
    diam = max(abs(p - q) for p in ch.vertices for q in ch.vertices)
    assert not contains(ch, centroid + 10.0 * diam)


def test_contains_rejects_cloud_kind(net, window_ag):
    cloud = exact_sampled(net, "ag", window_ag, grid_corners4())
    with pytest.raises(ValueError):
        contains(cloud, 0j)


def test_dense_cloud_bolted_edge_lies_on_segment(net, window_ag):
    grid = [(t, 0.0) for t in np.linspace(0, 1, 100)]
    ch = exact_sampled(net, "ag", window_ag, grid)
    z1 = net.protected.z1
    for (m_t, _), z in zip(ch.meta["grid"], ch.samples):
        # point sits on [0, z1] at fraction m_t
        assert abs(z / z1 - m_t) <= 1e-12
