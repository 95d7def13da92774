"""Network file parsing, validation, and the phase-impedance construction."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from incrrelay import (
    BusRole,
    Line,
    fourbus_path,
    parse_network,
    phase_impedance,
)
from incrrelay.network import (
    NetworkSchemaError,
    NetworkValidationError,
)

MINIMAL = """
buses:
  - {id: src, role: sg, voltage: [[1, 0], [-0.5, -0.866], [-0.5, 0.866]]}
  - {id: a, role: junction, admittance: {diag: [0.5, -0.1]}}
  - {id: b, role: junction}
lines:
  - {id: feed, from: src, to: a, z1: [0.01, 0.1], z0: [0.03, 0.3]}
  - {id: main, from: a, to: b, z1: [0.01, 0.1], z0: [0.03, 0.3]}
relay: {line: main, local: a, remote: b, r_fault_max: 1.0}
"""


def test_bundled_fixture_role_counts(net):
    assert len(net.buses_with_role(BusRole.SG)) == 1
    assert len(net.buses_with_role(BusRole.IBR)) == 1
    assert len(net.buses_with_role(BusRole.JUNCTION)) == 2
    assert net.protected.id == net.protected_line


def test_sg_at_local_bus_rejected():
    bad = MINIMAL.replace(
        "relay: {line: main, local: a, remote: b",
        "relay: {line: feed, local: src, remote: a",
    )
    with pytest.raises(NetworkValidationError, match="SG is not allowed"):
        parse_network(bad)


def test_empty_bus_list_rejected():
    with pytest.raises(NetworkValidationError):
        parse_network("buses: []\nlines: []\nrelay: {line: x, local: a, remote: b, r_fault_max: 1}")


def test_unknown_keys_rejected():
    with pytest.raises(NetworkSchemaError, match="unknown keys"):
        parse_network(MINIMAL.replace("r_fault_max: 1.0", "r_fault_max: 1.0, extra: 1"))


def test_bad_role_reports_field_path():
    with pytest.raises(NetworkSchemaError, match=r"buses\[1\]\.role"):
        parse_network(MINIMAL.replace("role: junction, admittance", "role: load, admittance"))


def test_disconnected_network_rejected():
    extra = MINIMAL.replace(
        "  - {id: b, role: junction}",
        "  - {id: b, role: junction}\n  - {id: island, role: junction}",
    )
    with pytest.raises(NetworkValidationError, match="disconnected"):
        parse_network(extra)


def test_duplicate_bus_ids_rejected():
    dup = MINIMAL.replace("{id: b, role: junction}", "{id: a, role: junction}")
    with pytest.raises(NetworkValidationError, match="duplicate"):
        parse_network(dup)


def test_protected_endpoints_must_match_relay():
    bad = MINIMAL.replace("local: a, remote: b", "local: src, remote: b")
    with pytest.raises(NetworkValidationError):
        parse_network(bad)


def test_sourceless_network_rejected():
    no_src = """
buses:
  - {id: a, role: junction, admittance: {diag: [1, 0]}}
  - {id: b, role: junction}
lines:
  - {id: main, from: a, to: b, z1: [0.01, 0.1], z0: [0.03, 0.3]}
relay: {line: main, local: a, remote: b, r_fault_max: 1.0}
"""
    with pytest.raises(NetworkValidationError, match="no SG or IBR"):
        parse_network(no_src)


def test_phase_impedance_decoupled_line():
    z = phase_impedance(Line("l", "a", "b", 1j, 1j))
    assert np.allclose(z, np.diag([1j, 1j, 1j]), rtol=0.0, atol=0.0)


def test_phase_impedance_self_and_mutual():
    z = phase_impedance(Line("l", "a", "b", 1j, 4j))
    assert np.allclose(np.diag(z), [2j, 2j, 2j])
    assert z[0, 1] == z[1, 2] == z[2, 0] == 1j


def test_phase_impedance_singular_rejected():
    with pytest.raises(NetworkValidationError):
        phase_impedance(Line("l", "a", "b", 1j, 0j))


@given(
    st.builds(complex, st.floats(0.001, 10), st.floats(0.001, 10)),
    st.builds(complex, st.floats(0.001, 10), st.floats(0.001, 10)),
    st.lists(st.builds(complex, st.floats(-5, 5), st.floats(-5, 5)), min_size=3, max_size=3),
)
def test_compensation_identity(z1, z0, i):
    # row a of Z_abc @ i equals z1 * (i_a + k * i0) with k = z0/z1 - 1
    z = phase_impedance(Line("l", "a", "b", z1, z0))
    i = np.array(i)
    k = z0 / z1 - 1.0
    lhs = (z @ i)[0]
    rhs = z1 * (i[0] + k * i.sum() / 3.0)
    assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs), 1.0)


def test_phase_impedance_circulant_under_permutation():
    z = phase_impedance(Line("l", "a", "b", 0.01 + 0.1j, 0.03 + 0.3j))
    p = np.eye(3)[[1, 2, 0]]  # cyclic phase rotation
    assert np.allclose(p @ z @ p.T, z, rtol=0.0, atol=0.0)


def test_bundled_fixture_path_exists():
    assert Path(fourbus_path()).is_file()


def test_asymmetric_admittance_rejected():
    entries = ", ".join(
        f"[{v}, 0]" for v in (1, 2, 0, 0, 1, 0, 0, 0, 1)
    )
    bad = MINIMAL.replace("admittance: {diag: [0.5, -0.1]}", f"admittance: [{entries}]")
    with pytest.raises(NetworkSchemaError, match="symmetric"):
        parse_network(bad)


IBR_B = (
    "- {id: b, role: ibr, current: [[0.3, 0], [0, 0.3], [0.1, 0.1]], "
    "admittance: {diag: [0.08, -0.45]}}"
)
NINE = ", ".join(f"[{v}, 0]" for v in (1, 0, 0, 0, ".nan", 0, 0, 0, 1))


@pytest.mark.parametrize(
    "old, new, field",
    [
        ("z1: [0.01, 0.1], z0", "z1: [.nan, 0.1], z0", r"lines\[0\]\.z1"),
        ("z1: [0.01, 0.1], z0", "z1: [0.01, .inf], z0", r"lines\[0\]\.z1"),
        ("z0: [0.03, 0.3]}", "z0: [.nan, 0.3]}", r"lines\[0\]\.z0"),
        ("z0: [0.03, 0.3]}", "z0: [0.03, -.inf]}", r"lines\[0\]\.z0"),
        ("diag: [0.5, -0.1]", "diag: [.nan, -0.1]", r"buses\[1\]\.admittance\.diag"),
        ("{diag: [0.5, -0.1]}", f"[{NINE}]", r"buses\[1\]\.admittance\[4\]"),
        ("- {id: b, role: junction}", IBR_B.replace("0.08", ".inf"), r"buses\[2\]\.admittance\.diag"),
        ("- {id: b, role: junction}", IBR_B.replace("0.3, 0]", ".nan, 0]", 1), r"buses\[2\]\.current\[0\]"),
        ("r_fault_max: 1.0", "r_fault_max: .inf", r"relay\.r_fault_max"),
        ("r_fault_max: 1.0", "r_fault_max: .nan", r"relay\.r_fault_max"),
    ],
)
def test_non_finite_numbers_rejected_naming_the_field(old, new, field):
    assert old in MINIMAL
    with pytest.raises(NetworkSchemaError, match=field + r".*finite"):
        parse_network(MINIMAL.replace(old, new, 1))


def _meshed_text() -> str:
    from netgen import random_network_text

    return random_network_text(1, meshed=True, parallel=True)


@pytest.mark.parametrize("kind", ["bundled", "meshed"])
def test_libyaml_and_python_loaders_agree(kind, monkeypatch):
    import yaml

    import incrrelay.network as network

    if not hasattr(yaml, "CSafeLoader"):
        pytest.skip("PyYAML is built without libyaml")
    if kind == "bundled":
        text = Path(fourbus_path()).read_text(encoding="utf-8")
    else:
        text = _meshed_text()
    assert network._LOADER is yaml.CSafeLoader
    assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)
    fast = parse_network(text)
    monkeypatch.setattr(network, "_LOADER", yaml.SafeLoader)
    slow = parse_network(text)
    if kind == "meshed":
        assert len(slow.lines) > len(slow.buses)  # has cycles
    assert fast.lines == slow.lines
    assert len(fast.buses) == len(slow.buses)
    for b_fast, b_slow in zip(fast.buses, slow.buses):
        assert (b_fast.id, b_fast.role) == (b_slow.id, b_slow.role)
        assert b_fast.sg_voltage == b_slow.sg_voltage
        assert b_fast.ibr_current == b_slow.ibr_current
        assert np.array_equal(b_fast.shunt(), b_slow.shunt())
        assert (b_fast.shunt_admittance is None) == (b_slow.shunt_admittance is None)
    relay = ("protected_line", "local_bus", "remote_bus", "r_fault_max")
    assert [getattr(fast, f) for f in relay] == [getattr(slow, f) for f in relay]
