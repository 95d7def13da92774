"""Network data model and the YAML network-description format.

The file format is UTF-8 YAML with three top-level sections:

``buses``
    list of entries with ``id``, ``role`` in {sg, ibr, junction}, and
    role-dependent fields: ``voltage`` (sg), ``current`` + ``admittance``
    (ibr), optional ``admittance`` (junction). Complex numbers are
    ``[re, im]`` pairs; three-phase values are three pairs; 3x3 admittances
    are nine row-major pairs or the shorthand ``diag: [re, im]``.

``lines``
    list of entries with ``id``, ``from``, ``to``, ``z1``, ``z0``.

``relay``
    ``line`` (protected line id), ``local``, ``remote`` (bus ids),
    ``r_fault_max`` (maximum fault resistance, ohm).

Unknown keys anywhere are rejected.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np
import yaml

from .phasors import Phasor3

# libyaml's parser when PyYAML was built with it: about ten times faster on
# network files, and the same Python constructors build the document
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class NetworkError(Exception):
    """Base class for network-file problems."""


class NetworkSchemaError(NetworkError):
    """The document does not conform to the file schema."""


class NetworkValidationError(NetworkError):
    """The document parsed but describes an invalid network."""


class BusRole(enum.Enum):
    SG = "sg"
    IBR = "ibr"
    JUNCTION = "junction"


@dataclass(frozen=True)
class Bus:
    id: str
    role: BusRole
    sg_voltage: Phasor3 | None = None
    ibr_current: Phasor3 | None = None
    shunt_admittance: np.ndarray | None = None  # 3x3 complex, siemens

    def shunt(self) -> np.ndarray:
        if self.shunt_admittance is None:
            return np.zeros((3, 3), dtype=complex)
        return self.shunt_admittance


@dataclass(frozen=True)
class Line:
    id: str
    from_bus: str
    to_bus: str
    z1: complex  # positive-sequence series impedance, ohm
    z0: complex  # zero-sequence series impedance, ohm


@dataclass(frozen=True)
class NetworkModel:
    buses: tuple[Bus, ...]
    lines: tuple[Line, ...]
    protected_line: str
    local_bus: str
    remote_bus: str
    r_fault_max: float
    _bus_index: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_bus_index", {b.id: b for b in self.buses})

    def bus(self, bus_id: str) -> Bus:
        return self._bus_index[bus_id]

    def line(self, line_id: str) -> Line:
        for ln in self.lines:
            if ln.id == line_id:
                return ln
        raise KeyError(line_id)

    @property
    def protected(self) -> Line:
        return self.line(self.protected_line)

    def buses_with_role(self, role: BusRole) -> tuple[Bus, ...]:
        return tuple(b for b in self.buses if b.role == role)


def phase_impedance(line: Line) -> np.ndarray:
    """Symmetric 3x3 phase-impedance matrix of a line.

    Self impedance (z0 + 2*z1)/3, mutual (z0 - z1)/3. This is the circulant
    construction under which the phase-a voltage drop equals
    z1 * (i_a + k * i0) with k = z0/z1 - 1.
    """
    zs = (line.z0 + 2.0 * line.z1) / 3.0
    zm = (line.z0 - line.z1) / 3.0
    z = np.full((3, 3), zm, dtype=complex)
    np.fill_diagonal(z, zs)
    # circulant determinant: z0 * z1**2
    if abs(line.z0) == 0.0 or abs(line.z1) == 0.0:
        raise NetworkValidationError(
            f"line {line.id}: phase impedance matrix is singular "
            f"(z1={line.z1}, z0={line.z0})"
        )
    return z


# ---------------------------------------------------------------------------
# parsing


def _complex_pair(value, where: str) -> complex:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(x, (int, float)) for x in value)
    ):
        raise NetworkSchemaError(f"{where}: expected a [re, im] pair, got {value!r}")
    if not all(math.isfinite(x) for x in value):
        raise NetworkSchemaError(f"{where}: must be finite, got {value!r}")
    return complex(value[0], value[1])


def _phasor3(value, where: str) -> Phasor3:
    if not isinstance(value, list) or len(value) != 3:
        raise NetworkSchemaError(f"{where}: expected three [re, im] pairs")
    return Phasor3(*(_complex_pair(v, f"{where}[{i}]") for i, v in enumerate(value)))


def _matrix3(value, where: str) -> np.ndarray:
    if isinstance(value, dict):
        extra = set(value) - {"diag"}
        if extra:
            raise NetworkSchemaError(f"{where}: unknown keys {sorted(extra)}")
        d = _complex_pair(value.get("diag"), f"{where}.diag")
        return np.eye(3, dtype=complex) * d
    if isinstance(value, list) and len(value) == 9:
        entries = [_complex_pair(v, f"{where}[{i}]") for i, v in enumerate(value)]
        return np.array(entries, dtype=complex).reshape(3, 3)
    raise NetworkSchemaError(
        f"{where}: expected nine row-major [re, im] pairs or diag shorthand"
    )


def _require_keys(entry: dict, allowed: set, required: set, where: str):
    if not isinstance(entry, dict):
        raise NetworkSchemaError(f"{where}: expected a mapping")
    extra = set(entry) - allowed
    if extra:
        raise NetworkSchemaError(f"{where}: unknown keys {sorted(extra)}")
    missing = required - set(entry)
    if missing:
        raise NetworkSchemaError(f"{where}: missing keys {sorted(missing)}")


def _parse_bus(entry, where: str) -> Bus:
    _require_keys(
        entry,
        allowed={"id", "role", "voltage", "current", "admittance"},
        required={"id", "role"},
        where=where,
    )
    role_str = entry["role"]
    try:
        role = BusRole(role_str)
    except ValueError:
        raise NetworkSchemaError(
            f"{where}.role: {role_str!r} is not one of sg, ibr, junction"
        ) from None
    bus_id = entry["id"]
    if not isinstance(bus_id, str) or not bus_id:
        raise NetworkSchemaError(f"{where}.id: expected a non-empty string")

    voltage = entry.get("voltage")
    current = entry.get("current")
    admittance = entry.get("admittance")

    if role is BusRole.SG:
        if voltage is None:
            raise NetworkSchemaError(f"{where}: sg bus requires 'voltage'")
        if current is not None or admittance is not None:
            raise NetworkSchemaError(f"{where}: sg bus takes only 'voltage'")
        return Bus(bus_id, role, sg_voltage=_phasor3(voltage, f"{where}.voltage"))
    if role is BusRole.IBR:
        if current is None or admittance is None:
            raise NetworkSchemaError(
                f"{where}: ibr bus requires 'current' and 'admittance'"
            )
        if voltage is not None:
            raise NetworkSchemaError(f"{where}: ibr bus does not take 'voltage'")
        y = _matrix3(admittance, f"{where}.admittance")
        _check_symmetric(y, f"{where}.admittance")
        return Bus(
            bus_id,
            role,
            ibr_current=_phasor3(current, f"{where}.current"),
            shunt_admittance=y,
        )
    # junction / load
    if voltage is not None or current is not None:
        raise NetworkSchemaError(f"{where}: junction bus takes only 'admittance'")
    y = None
    if admittance is not None:
        y = _matrix3(admittance, f"{where}.admittance")
        _check_symmetric(y, f"{where}.admittance")
    return Bus(bus_id, role, shunt_admittance=y)


def _check_symmetric(y: np.ndarray, where: str):
    if not np.allclose(y, y.T, rtol=0.0, atol=1e-12):
        raise NetworkSchemaError(f"{where}: admittance matrix must be symmetric")


def _parse_line(entry, where: str) -> Line:
    _require_keys(
        entry,
        allowed={"id", "from", "to", "z1", "z0"},
        required={"id", "from", "to", "z1", "z0"},
        where=where,
    )
    z1 = _complex_pair(entry["z1"], f"{where}.z1")
    z0 = _complex_pair(entry["z0"], f"{where}.z0")
    if z1 == 0:
        raise NetworkSchemaError(f"{where}.z1: must be nonzero")
    if z1.real < 0 or z0.real < 0:
        raise NetworkSchemaError(f"{where}: series resistance must be non-negative")
    return Line(entry["id"], entry["from"], entry["to"], z1, z0)


def parse_network(text: str) -> NetworkModel:
    """Parse and validate a network-description document."""
    try:
        doc = yaml.load(text, Loader=_LOADER)
    except yaml.YAMLError as exc:
        raise NetworkSchemaError(f"not valid YAML: {exc}") from exc
    _require_keys(
        doc,
        allowed={"buses", "lines", "relay"},
        required={"buses", "lines", "relay"},
        where="document",
    )
    raw_buses = doc["buses"]
    if not isinstance(raw_buses, list) or not raw_buses:
        raise NetworkValidationError("buses: at least one bus is required")
    buses = tuple(_parse_bus(b, f"buses[{i}]") for i, b in enumerate(raw_buses))
    raw_lines = doc["lines"]
    if not isinstance(raw_lines, list) or not raw_lines:
        raise NetworkValidationError("lines: at least one line is required")
    lines = tuple(_parse_line(l, f"lines[{i}]") for i, l in enumerate(raw_lines))

    relay = doc["relay"]
    _require_keys(
        relay,
        allowed={"line", "local", "remote", "r_fault_max"},
        required={"line", "local", "remote", "r_fault_max"},
        where="relay",
    )
    r_fault_max = relay["r_fault_max"]
    if (
        not isinstance(r_fault_max, (int, float))
        or not math.isfinite(r_fault_max)
        or r_fault_max <= 0
    ):
        raise NetworkSchemaError(
            f"relay.r_fault_max: must be a finite positive number, got {r_fault_max!r}"
        )

    net = NetworkModel(
        buses=buses,
        lines=lines,
        protected_line=relay["line"],
        local_bus=relay["local"],
        remote_bus=relay["remote"],
        r_fault_max=float(r_fault_max),
    )
    validate_network(net)
    return net


def validate_network(net: NetworkModel):
    """Check the structural invariants of a network model."""
    ids = [b.id for b in net.buses]
    if len(set(ids)) != len(ids):
        raise NetworkValidationError("duplicate bus ids")
    line_ids = [l.id for l in net.lines]
    if len(set(line_ids)) != len(line_ids):
        raise NetworkValidationError("duplicate line ids")
    known = set(ids)
    for ln in net.lines:
        for end in (ln.from_bus, ln.to_bus):
            if end not in known:
                raise NetworkValidationError(f"line {ln.id}: unknown bus {end!r}")
        if ln.from_bus == ln.to_bus:
            raise NetworkValidationError(f"line {ln.id}: self-loop")

    try:
        protected = net.protected
    except KeyError:
        raise NetworkValidationError(
            f"relay.line: unknown line {net.protected_line!r}"
        ) from None
    for end in (net.local_bus, net.remote_bus):
        if end not in known:
            raise NetworkValidationError(f"relay: unknown bus {end!r}")
    if {protected.from_bus, protected.to_bus} != {net.local_bus, net.remote_bus}:
        raise NetworkValidationError(
            "relay: protected line endpoints must be the local and remote buses"
        )

    # A stiff voltage source at a relay terminal makes a close-in bolted
    # fault draw unbounded current; the incremental construction excludes it.
    for end in (net.local_bus, net.remote_bus):
        if net.bus(end).role is BusRole.SG:
            raise NetworkValidationError(
                f"bus {end!r}: an SG is not allowed at the local or remote bus "
                "of the protected line"
            )

    if not any(b.role in (BusRole.SG, BusRole.IBR) for b in net.buses):
        raise NetworkValidationError("network has no SG or IBR source")

    # connectivity over the line graph
    adj: dict[str, set[str]] = {i: set() for i in ids}
    for ln in net.lines:
        adj[ln.from_bus].add(ln.to_bus)
        adj[ln.to_bus].add(ln.from_bus)
    seen = {ids[0]}
    stack = [ids[0]]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    if seen != known:
        raise NetworkValidationError(
            f"network is disconnected; unreachable buses: {sorted(known - seen)}"
        )
