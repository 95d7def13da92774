"""Relay characteristics in the complex impedance plane.

Three constructions over the fault uncertainty (m_t, m_f) in [0,1]^2:
the exact sampled point cloud, the parallelogram from a point estimate of
the remote current, and the convex hull of sampled apparent impedances.
A grid of fault points is an (N, 2) float array of (m_t, m_f) rows; the
``grid_*`` presets return one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .admittance import FAULT_TYPES
from .incremental import OmegaCache, prefault_vector
from .loops import UnenergizedLoopError, apparent_impedances
from .network import NetworkModel
from .phasors import MeasurementWindow


@dataclass(frozen=True)
class Characteristic:
    kind: str  # exact-sampled | parallelogram | convex-hull
    vertices: tuple[complex, ...]
    eta: str
    samples: tuple[complex, ...] | None = None
    meta: dict = field(default_factory=dict, compare=False)

    def is_polygon(self) -> bool:
        return self.kind in ("parallelogram", "convex-hull")


def grid_paper22() -> np.ndarray:
    """The 22-point default: both bolted endpoints plus a 5x4 grid.

    Locations run over {0, .25, .5, .75, 1} and resistance fractions over
    {.25, .5, .75, 1}: the 5x5 dense grid less its bolted interior.
    """
    return np.vstack([[0.0, 0.0], [1.0, 0.0], grid_dense(5, 5)[5:]])


def grid_corners4() -> np.ndarray:
    """The four corners of the [0,1]^2 uncertainty square."""
    return np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])


def grid_dense(n_t: int, n_f: int) -> np.ndarray:
    """n_t x n_f evenly spaced points of [0,1]^2, m_t varying fastest."""
    ts = np.linspace(0.0, 1.0, n_t)
    fs = np.linspace(0.0, 1.0, n_f)
    return np.stack(np.meshgrid(ts, fs), -1).reshape(-1, 2)


def grid_perimeter(n: int) -> np.ndarray:
    """n points per edge on the boundary of the [0,1]^2 uncertainty square:
    (v, 0), (v, 1), (0, v), (1, v) for each v, a corner where first met."""
    v = np.linspace(0.0, 1.0, n)
    zero, one = np.zeros(n), np.ones(n)
    pts = np.stack([v, zero, v, one, zero, v, one, v], -1).reshape(-1, 2)
    order = np.lexsort((pts[:, 1], pts[:, 0]))  # stable: equal rows keep input order
    s = pts[order]
    first = np.concatenate(([True], (s[1:] != s[:-1]).any(axis=1)))
    return pts[np.sort(order[first])]


def exact_sampled(
    net: NetworkModel,
    eta: str,
    window: MeasurementWindow,
    grid,
    cache: OmegaCache | None = None,
) -> Characteristic:
    """Point cloud of apparent impedances over a grid of fault realizations.

    ``grid`` is any (N, 2) array-like of (m_t, m_f) rows. It is copied once
    as a float array, ``meta["grid"]``, whose row k is sample k's point.

    All resistive points are evaluated at once: one Omega stack from the
    cache's terminal reduction, then remote currents and apparent
    impedances as array operations.
    """
    if eta not in FAULT_TYPES:
        raise ValueError(f"unknown fault type {eta!r}; expected one of {FAULT_TYPES}")
    grid = np.array(grid, dtype=float)
    if not grid.size:
        raise ValueError("grid must be non-empty")
    if grid.ndim != 2 or grid.shape[1] != 2:
        raise ValueError(f"grid must be (N, 2) rows (m_t, m_f), not shape {grid.shape}")
    cache = cache or OmegaCache(net)
    line = net.protected
    m_t, m_f = grid.T
    bad = ~((grid >= 0.0) & (grid <= 1.0)).all(axis=1)  # NaN is outside too
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(
            f"grid point {k} (m_t={m_t[k]}, m_f={m_f[k]}) outside [0, 1] x [0, 1]"
        )
    z = m_t * line.z1  # bolted points (m_f = 0) read the line fraction
    res = m_f != 0.0
    if res.any():
        omegas = cache.omegas(eta, m_t[res], m_f[res], net.r_fault_max)
        sigma = omegas @ prefault_vector(window)
        try:
            z[res] = apparent_impedances(
                eta, window, line, sigma, m_t[res], m_f[res], net.r_fault_max
            )
        except UnenergizedLoopError as exc:
            # the loop current is the window's, so the first resistive point
            # is where a pointwise sweep fails
            k = int(np.argmax(res))
            raise type(exc)(
                f"{exc} [at grid point (m_t={m_t[k]}, m_f={m_f[k]})]"
            ) from exc
    samples = tuple(z.tolist())
    return Characteristic(
        kind="exact-sampled",
        vertices=samples,
        eta=eta,
        samples=samples,
        meta={"grid": grid},
    )


def parallelogram(
    net: NetworkModel,
    eta: str,
    window: MeasurementWindow,
    m_hat: tuple[float, float],
    cache: OmegaCache | None = None,
) -> Characteristic:
    """Minkowski sum of the line segment [0, z1] and the resistance segment.

    The remote current is frozen at the nominal fault point m_hat; the
    resistance segment direction is the apparent impedance at m_t = 0 and
    m_f = 1 under that frozen current.
    """
    if eta not in FAULT_TYPES:
        raise ValueError(f"unknown fault type {eta!r}; expected one of {FAULT_TYPES}")
    m_t_hat, m_f_hat = m_hat  # omegas rejects them outside [0, 1] x (0, 1]
    line = net.protected
    r_f = net.r_fault_max
    omega = (cache or OmegaCache(net)).omegas(eta, m_t_hat, m_f_hat, r_f)[0]
    sigma_hat = omega @ prefault_vector(window)
    w = apparent_impedances(eta, window, line, sigma_hat, 0.0, 1.0, r_f)
    z = line.z1
    meta = {"m_hat": (m_t_hat, m_f_hat)}
    if abs(w) < 1e-12 * abs(z):
        meta["degenerate"] = True
        return Characteristic(
            kind="parallelogram", vertices=(0j, z), eta=eta, meta=meta
        )
    if _cross(z, w) >= 0.0:
        verts = (0j, z, z + w, w)
    else:
        verts = (0j, w, z + w, z)
    return Characteristic(kind="parallelogram", vertices=verts, eta=eta, meta=meta)


def _cross(u: complex, v: complex) -> float:
    return u.real * v.imag - u.imag * v.real


# Shewchuk's bound on the rounding error of the float orientation determinant
_ORIENT_ERR = (3.0 + 16.0 * 2.0**-53) * 2.0**-53
# below this the products may underflow and the bound no longer holds
_ORIENT_TINY = 2.0**-900


def _orientation(o: complex, a: complex, b: complex) -> int:
    """Exact sign of cross(a - o, b - o): +1 left turn, -1 right turn, 0 collinear.

    The float determinant decides when it clears its error bound; otherwise
    the sign is recomputed in exact rationals (floats are exact rationals),
    an adaptive predicate in the manner of Shewchuk (1997).
    """
    left = (a.real - o.real) * (b.imag - o.imag)
    right = (a.imag - o.imag) * (b.real - o.real)
    det = left - right
    bound = _ORIENT_ERR * (abs(left) + abs(right))
    if abs(det) > bound and bound > _ORIENT_TINY:
        return 1 if det > 0.0 else -1
    ox, oy = Fraction(o.real), Fraction(o.imag)
    exact = (Fraction(a.real) - ox) * (Fraction(b.imag) - oy) - (
        Fraction(a.imag) - oy
    ) * (Fraction(b.real) - ox)
    return (exact > 0) - (exact < 0)


def convex_hull(points) -> list[complex]:
    """Counterclockwise convex hull by Andrew's monotone chain.

    The vertices are exactly the extreme points: collinear boundary points
    are pruned by an exact orientation test. The hull starts at the
    lexicographically smallest point; one- and two-point inputs come back
    as degenerate polygons. Of equal points the first one given is kept.
    """
    z = np.asarray(points, dtype=complex)
    if not z.size:
        raise ValueError("need at least one point")
    z = z[np.lexsort((z.imag, z.real))]  # stable: equal points keep input order
    pts = z[np.concatenate(([True], z[1:] != z[:-1]))].tolist()
    if len(pts) <= 2:
        return pts

    def chain(seq) -> list[complex]:
        h: list[complex] = []
        for p in seq:
            while len(h) >= 2 and _orientation(h[-2], h[-1], p) <= 0:
                h.pop()
            h.append(p)
        return h

    return chain(pts)[:-1] + chain(reversed(pts))[:-1]


def hull_of_cloud(cloud: Characteristic) -> Characteristic:
    """Convex-hull characteristic of an exact sampled cloud."""
    return Characteristic(
        kind="convex-hull",
        vertices=tuple(convex_hull(cloud.samples)),
        eta=cloud.eta,
        samples=cloud.samples,
        meta=cloud.meta,
    )


def hull_characteristic(
    net: NetworkModel,
    eta: str,
    window: MeasurementWindow,
    grid=None,
    cache: OmegaCache | None = None,
) -> Characteristic:
    """Convex hull of the exact sampled cloud (default: the 22-point grid)."""
    if grid is None:
        grid = grid_paper22()
    return hull_of_cloud(exact_sampled(net, eta, window, grid, cache))


def _diameter(vertices) -> float:
    vs = list(vertices)
    return max((abs(p - q) for p in vs for q in vs), default=0.0)


def contains(ch: Characteristic, point: complex, tol: float | None = None) -> bool:
    """Point-in-polygon test with boundary slack.

    Default slack is 1e-9 times the polygon diameter; pass ``tol`` to widen
    it (e.g. a fraction of the line impedance for hull-quality checks).
    """
    if not ch.is_polygon():
        raise ValueError(f"characteristic kind {ch.kind!r} is not a polygon")
    verts = list(ch.vertices)
    if tol is None:
        tol = 1e-9 * max(_diameter(verts), 1e-300)
    if len(verts) == 1:
        return abs(point - verts[0]) <= tol
    if len(verts) == 2:
        return _segment_distance(verts[0], verts[1], point) <= tol
    for i, v in enumerate(verts):
        edge = verts[(i + 1) % len(verts)] - v
        if _cross(edge, point - v) < -tol * abs(edge):
            return False
    return True


def _segment_distance(a: complex, b: complex, p: complex) -> float:
    ab = b - a
    denom = abs(ab) ** 2
    if denom == 0.0:
        return abs(p - a)
    t = max(0.0, min(1.0, ((p - a).real * ab.real + (p - a).imag * ab.imag) / denom))
    return abs(p - (a + t * ab))
