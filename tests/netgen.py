"""Seeded random networks for the tests: radial and meshed, 2-12 buses.

Every network has a protected line between two non-SG buses L and R, in
either orientation, 0-3 IBRs, full symmetric (non-diagonal) shunts and, on
request, a second line in parallel with the protected one. Values are drawn
around the bundled four-bus example.
"""

from __future__ import annotations

import cmath

import numpy as np
import yaml

from incrrelay import parse_network


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _balanced(rng, mag_lo: float, mag_hi: float) -> list[list[float]]:
    ref = rng.uniform(mag_lo, mag_hi) * cmath.exp(1j * rng.uniform(-0.6, 0.6))
    a = cmath.exp(2j * cmath.pi / 3)
    return [_pair(ref), _pair(ref * a * a), _pair(ref * a)]


def _symmetric_admittance(rng, g: tuple, b: tuple) -> list[list[float]]:
    diag = rng.uniform(*g) + 1j * rng.uniform(*b)
    y = np.full((3, 3), 0.0, dtype=complex)
    for i in range(3):
        y[i, i] = diag * rng.uniform(0.9, 1.1)
        for j in range(i):
            y[i, j] = y[j, i] = 0.1 * diag * rng.uniform(-1.0, 1.0)
    return [_pair(v) for v in y.reshape(9)]


def _line(rng, lid: str, a: str, b: str) -> dict:
    z1 = complex(rng.uniform(0.005, 0.03), rng.uniform(0.05, 0.15))
    z0 = z1 * rng.uniform(2.5, 3.5)
    return {"id": lid, "from": a, "to": b, "z1": _pair(z1), "z0": _pair(z0)}


def random_network_text(
    seed: int, meshed: bool, parallel: bool = False, flip: bool = False
) -> str:
    """YAML text of one seeded network (see the module docstring)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 13))
    n_ibr = int(rng.integers(1 if n == 2 else 0, min(3, n) + 1))
    # buses 0 and 1 are the relay terminals L and R; no SG may sit there
    ibr = set(rng.choice(n, size=n_ibr, replace=False).tolist())
    roles = []
    for k in range(n):
        if k in ibr:
            roles.append("ibr")
        elif k >= 2 and rng.random() < 0.35:
            roles.append("sg")
        else:
            roles.append("junction")
    if "sg" not in roles and "ibr" not in roles:
        roles[n - 1] = "sg"
    ids = [f"b{k}" for k in range(n)]

    buses = []
    for bid, role in zip(ids, roles):
        if role == "sg":
            buses.append({"id": bid, "role": "sg", "voltage": _balanced(rng, 1.0, 1.05)})
        elif role == "ibr":
            buses.append(
                {
                    "id": bid,
                    "role": "ibr",
                    "current": _balanced(rng, 0.2, 0.5),
                    "admittance": _symmetric_admittance(rng, (0.05, 0.1), (-0.5, -0.3)),
                }
            )
        else:
            entry = {"id": bid, "role": "junction"}
            if rng.random() < 0.8:
                entry["admittance"] = _symmetric_admittance(rng, (0.2, 0.6), (-0.3, -0.1))
            buses.append(entry)

    ends = ("b1", "b0") if flip else ("b0", "b1")
    lines = [_line(rng, "prot", *ends)]
    pairs = set()
    for k in range(2, n):  # a random spanning tree hanging off the line
        j = int(rng.integers(0, k))
        lines.append(_line(rng, f"t{k}", ids[j], ids[k]))
        pairs.add((j, k))
    if parallel:
        lines.append(_line(rng, "par", "b0", "b1"))
    if meshed and n >= 3:
        for m in range(int(rng.integers(1, n))):
            j, k = sorted(rng.choice(n, size=2, replace=False).tolist())
            if (j, k) != (0, 1) and (j, k) not in pairs:
                pairs.add((j, k))
                lines.append(_line(rng, f"m{m}", ids[j], ids[k]))

    doc = {
        "buses": buses,
        "lines": lines,
        "relay": {
            "line": "prot",
            "local": "b0",
            "remote": "b1",
            "r_fault_max": float(rng.uniform(0.1, 0.5)),
        },
    }
    return yaml.safe_dump(doc, sort_keys=False)


def random_network(seed: int, **kwargs):
    return parse_network(random_network_text(seed, **kwargs))
