"""Seeded input generators.

Everything a workload feeds the program is drawn here from one
``numpy.random.Generator``, so the same seed gives the same inputs. The
generators know nothing of the program's internals: they produce nominal
fault points and network files in the documented YAML format.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
import yaml

FAULT_TYPES = ("ag", "bg", "cg", "ab", "ac", "bc", "abg", "acg", "bcg", "abc", "abcg")

# Resistive interior nodes of the paper22 grid: m_t off the line ends,
# m_f > 0 so the nominal point goes through the incremental solve.
PAPER22_NOMINALS = tuple(
    (m_t, m_f) for m_f in (0.25, 0.5, 0.75, 1.0) for m_t in (0.25, 0.5, 0.75)
)


def paper22_nominals(rng: np.random.Generator, n: int) -> list[tuple[float, float]]:
    """``n`` nominal windows drawn with replacement from the paper22 nodes."""
    idx = rng.integers(0, len(PAPER22_NOMINALS), size=n)
    return [PAPER22_NOMINALS[i] for i in idx]


def dense_nominals(
    rng: np.random.Generator, n: int, n_t: int, n_f: int
) -> list[tuple[float, float]]:
    """``n`` nominal points on resistive interior nodes of an n_t x n_f grid.

    Node values are those of ``np.linspace(0, 1, n_t)`` (and n_f), the floats the
    program's dense grid uses, so the nominal point is one of the cloud's
    grid points. Locations skip both line ends; resistance fractions skip 0.
    """
    ts = np.linspace(0.0, 1.0, n_t)
    fs = np.linspace(0.0, 1.0, n_f)
    i = rng.integers(1, n_t - 1, size=n)
    j = rng.integers(1, n_f, size=n)
    return [(float(ts[a]), float(fs[b])) for a, b in zip(i, j)]


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _balanced(ref: complex) -> list[list[float]]:
    alpha = cmath.exp(2j * math.pi / 3)
    return [_pair(ref), _pair(ref * alpha**2), _pair(ref * alpha)]


def _line_impedances(rng: np.random.Generator) -> tuple[complex, complex]:
    x1 = rng.uniform(0.05, 0.15)
    z1 = complex(x1 / rng.uniform(6.0, 12.0), x1)
    k0 = rng.uniform(2.5, 3.5)
    z0 = complex(z1.real * k0 * rng.uniform(0.9, 1.1), x1 * k0)
    return z1, z0


def _load(rng: np.random.Generator) -> dict | list:
    g = rng.uniform(0.1, 0.5)
    b = rng.uniform(0.02, 0.2)
    if rng.random() < 0.5:
        return {"diag": [float(g), float(-b)]}
    # full symmetric load with a small mutual coupling between phases
    mut = complex(rng.uniform(-0.02, 0.02), rng.uniform(-0.02, 0.02))
    y = np.full((3, 3), mut, dtype=complex)
    np.fill_diagonal(y, complex(g, -b))
    return [_pair(complex(v)) for v in y.reshape(9)]


MESH_BUSES = 24
MESH_EXTRA_LINES = 8


def meshed_network(rng: np.random.Generator) -> str:
    """A connected meshed network as YAML that ``parse_network`` accepts.

    Of the MESH_BUSES buses 1/8 are SGs and 1/6 IBRs; the rest are
    junctions, most with a load. A random spanning tree makes the network
    connected and MESH_EXTRA_LINES chords between junctions make it meshed.
    The protected line joins the junctions ``j1`` (local) and ``j2``
    (remote), so no SG sits at a relay terminal.
    """
    n_sg = MESH_BUSES // 8
    n_ibr = MESH_BUSES // 6
    n_j = MESH_BUSES - n_sg - n_ibr
    junctions = [f"j{k + 1}" for k in range(n_j)]
    buses: list[dict] = []
    for k in range(n_sg):
        ref = cmath.rect(rng.uniform(1.0, 1.05), math.radians(rng.uniform(-10, 10)))
        buses.append({"id": f"sg{k + 1}", "role": "sg", "voltage": _balanced(ref)})
    for k in range(n_ibr):
        ref = cmath.rect(rng.uniform(0.2, 0.4), math.radians(rng.uniform(-40, 0)))
        buses.append(
            {
                "id": f"ibr{k + 1}",
                "role": "ibr",
                "current": _balanced(ref),
                "admittance": {
                    "diag": [float(rng.uniform(0.05, 0.1)), float(-rng.uniform(0.3, 0.5))]
                },
            }
        )
    for j in junctions:
        entry: dict = {"id": j, "role": "junction"}
        if j in ("j1", "j2") or rng.random() < 0.7:
            entry["admittance"] = _load(rng)
        buses.append(entry)

    edges: set[frozenset] = {frozenset(("j1", "j2"))}
    lines: list[dict] = []

    def add_line(a: str, b: str):
        z1, z0 = _line_impedances(rng)
        lines.append(
            {"id": f"l{len(lines)}", "from": a, "to": b, "z1": _pair(z1), "z0": _pair(z0)}
        )
        edges.add(frozenset((a, b)))

    # spanning tree over the inner junctions, then sources hang off inner
    # junctions; the terminals attach to two inner junctions each, so both
    # ends of the protected line have degree 3, as on a transmission corridor
    inner = junctions[2:]
    for k in range(1, len(inner)):
        add_line(inner[k], inner[int(rng.integers(0, k))])
    for bus in buses:
        if bus["role"] != "junction":
            add_line(bus["id"], inner[int(rng.integers(0, len(inner)))])

    def add_chord(a: str):
        choices = [b for b in inner if b != a and frozenset((a, b)) not in edges]
        add_line(a, choices[int(rng.integers(0, len(choices)))])

    for terminal in ("j1", "j2"):
        add_chord(terminal)
        add_chord(terminal)
    for _ in range(MESH_EXTRA_LINES):
        add_chord(inner[int(rng.integers(0, len(inner)))])

    z1, z0 = _line_impedances(rng)
    ends = ["j1", "j2"] if rng.random() < 0.5 else ["j2", "j1"]
    lines.append(
        {"id": "lprot", "from": ends[0], "to": ends[1], "z1": _pair(z1), "z0": _pair(z0)}
    )
    order = rng.permutation(len(buses))
    doc = {
        "buses": [buses[i] for i in order],
        "lines": lines,
        "relay": {"line": "lprot", "local": "j1", "remote": "j2", "r_fault_max": 0.2},
    }
    return yaml.safe_dump(doc, sort_keys=False)
