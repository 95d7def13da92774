"""Output checks, independent of the program's own geometry helpers.

Each check returns a list of problems; an empty list means the output
passed. They run outside the timed region of an op.
"""

from __future__ import annotations

NOMINAL_REL_TOL = 1e-9
BOLTED_TOL = 1e-12


def _cross(u: complex, v: complex) -> float:
    return u.real * v.imag - u.imag * v.real


def outside_polygon(vertices: list[complex], points: list[complex]) -> list[complex]:
    """Points farther outside a counterclockwise convex polygon than 1e-9 x diameter."""
    n = len(vertices)
    diam = max((abs(p - q) for p in vertices for q in vertices), default=0.0)
    tol = 1e-9 * max(diam, 1e-300)
    out = []
    for z in points:
        if n == 1:
            bad = abs(z - vertices[0]) > tol
        elif n == 2:
            a, b = vertices
            ab = b - a
            t = max(0.0, min(1.0, ((z - a) * ab.conjugate()).real / abs(ab) ** 2))
            bad = abs(z - (a + t * ab)) > tol
        else:
            bad = any(
                _cross(vertices[(i + 1) % n] - v, z - v)
                < -tol * abs(vertices[(i + 1) % n] - v)
                for i, v in enumerate(vertices)
            )
        if bad:
            out.append(z)
    return out


def check_cloud(
    grid: list[tuple[float, float]],
    samples: list[complex],
    z1: complex,
    nominal: tuple[float, float],
    z_measured: complex,
) -> list[str]:
    """The cloud holds the measured impedance at the nominal point, and its
    bolted samples read m_t * z1.

    ``grid`` holds the (clamped) fault point of each sample and
    ``z_measured`` is v_a / i_a of the simulated window at ``nominal``.
    """
    problems = []
    at_nominal = [z for g, z in zip(grid, samples) if tuple(g) == tuple(nominal)]
    if not at_nominal:
        problems.append(f"no cloud sample at the nominal point {nominal}")
    elif abs(at_nominal[0] - z_measured) > NOMINAL_REL_TOL * abs(z_measured):
        problems.append(
            f"cloud sample {at_nominal[0]} at {nominal} differs from the "
            f"measured impedance {z_measured}"
        )
    for (m_t, m_f), z in zip(grid, samples):
        if m_f == 0.0 and abs(z - m_t * z1) > BOLTED_TOL * abs(z1):
            problems.append(f"bolted sample at m_t={m_t} is {z}, not m_t*z1")
    return problems


def check_polygons(
    samples: list[complex], hull: list[complex], para: list[complex], z1: complex
) -> list[str]:
    """The hull contains every sample; the parallelogram has vertices 0 and z1."""
    problems = []
    outside = outside_polygon(hull, samples)
    if outside:
        problems.append(f"{len(outside)} samples outside the hull, e.g. {outside[0]}")
    for corner in (0j, z1):
        if not any(abs(v - corner) <= BOLTED_TOL * abs(z1) for v in para):
            problems.append(f"parallelogram has no vertex at {corner}")
    return problems
