"""Command-line behavior: artifacts, exit codes, and format round trips."""

import csv
import dataclasses
import json

import pytest
import yaml

from incrrelay import FAULT_TYPES, contains, fourbus_path, parallelogram
from incrrelay.characteristics import Characteristic

from test_characteristics import oracle_hull
from incrrelay.cli import (
    EXIT_INTERNAL,
    EXIT_IO,
    EXIT_OK,
    EXIT_RESIDUAL,
    EXIT_USAGE,
    EXIT_VALIDATION,
    main,
)

NET = fourbus_path()


def test_characteristic_writes_all_formats(tmp_path):
    out = tmp_path / "ag"
    rc = main(
        ["characteristic", "--network", NET, "--fault", "ag", "--out", str(out)]
    )
    assert rc == EXIT_OK
    for fmt in ("csv", "json", "svg"):
        assert (tmp_path / f"ag.{fmt}").is_file()


def test_characteristic_multiple_faults_get_suffixes(tmp_path):
    out = tmp_path / "char"
    rc = main(
        [
            "characteristic",
            "--network",
            NET,
            "--fault",
            "ag,ab",
            "--format",
            "json",
            "--out",
            str(out),
        ]
    )
    assert rc == EXIT_OK
    assert (tmp_path / "char.ag.json").is_file()
    assert (tmp_path / "char.ab.json").is_file()


def test_all_faults_write_the_single_fault_artifacts(tmp_path):
    # the nominal windows of every fault type come from one simulator stack
    common = ["characteristic", "--network", NET, "--mhat", "0.37,0.6"]
    assert main([*common, "--fault", "all", "--out", str(tmp_path / "all")]) == EXIT_OK
    for eta in FAULT_TYPES:
        single = tmp_path / eta
        assert main([*common, "--fault", eta, "--out", str(single)]) == EXIT_OK
        for fmt in ("csv", "json", "svg"):
            whole = (tmp_path / f"all.{eta}.{fmt}").read_bytes()
            assert whole == (tmp_path / f"{eta}.{fmt}").read_bytes(), (eta, fmt)


def test_emitted_hull_contains_emitted_cloud(tmp_path):
    out = tmp_path / "ag"
    main(["characteristic", "--network", NET, "--fault", "ag", "--out", str(out)])
    doc = json.loads((tmp_path / "ag.json").read_text())
    assert len(doc["cloud"]) == 22
    verts = [complex(r, i) for r, i in doc["hull"]]
    hull = Characteristic(kind="convex-hull", vertices=tuple(verts), eta="ag")
    diam = max(abs(p - q) for p in verts for q in verts)
    for entry in doc["cloud"]:
        z = complex(entry["z"][0], entry["z"][1])
        assert contains(hull, z, tol=1e-9 * diam)


def test_corners4_hull_json(tmp_path):
    out = tmp_path / "c4"
    rc = main(
        [
            "characteristic",
            "--network",
            NET,
            "--fault",
            "ag",
            "--grid",
            "corners4",
            "--format",
            "json",
            "--out",
            str(out),
        ]
    )
    assert rc == EXIT_OK
    doc = json.loads((tmp_path / "c4.json").read_text())
    assert len(doc["cloud"]) == 4
    assert len(doc["hull"]) in (3, 4)
    assert len(doc["parallelogram"]) == 4


def test_unknown_fault_type_is_usage_error(tmp_path, capsys):
    rc = main(
        [
            "characteristic",
            "--network",
            NET,
            "--fault",
            "zz",
            "--out",
            str(tmp_path / "x"),
        ]
    )
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert "abcg" in err and "ag" in err  # lists the valid names


def test_missing_network_file_is_io_error(tmp_path):
    rc = main(
        [
            "characteristic",
            "--network",
            str(tmp_path / "nope.yaml"),
            "--fault",
            "ag",
            "--out",
            str(tmp_path / "x"),
        ]
    )
    assert rc == EXIT_IO


def test_invalid_network_is_validation_error(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("buses: []\nlines: []\nrelay: {line: x, local: a, remote: b, r_fault_max: 1}\n")
    rc = main(
        [
            "characteristic",
            "--network",
            str(bad),
            "--fault",
            "ag",
            "--out",
            str(tmp_path / "x"),
        ]
    )
    assert rc == EXIT_VALIDATION


def test_bad_grid_spec_is_usage_error(tmp_path, capsys):
    # a grid with no point in it is as malformed as one that does not parse
    for spec in ("dense:foo", "dense:0x5", "dense:5x0", "dense:-3x4", "perimeter:0"):
        rc = main(
            [
                "characteristic",
                "--network",
                NET,
                "--fault",
                "ag",
                "--grid",
                spec,
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert rc == EXIT_USAGE, spec
        assert repr(spec) in capsys.readouterr().err
        assert main(["verify", "--fault", "ag", "--grid", spec]) == EXIT_USAGE, spec


@pytest.mark.parametrize("spec", ["dense:5x1", "dense:1x1"])
def test_verify_grid_without_resistive_points_is_a_validation_error(spec, capsys):
    # every point is bolted (m_f = 0), which verify does not check
    assert main(["verify", "--fault", "ag", "--grid", spec]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"validation error: grid {spec!r} has no resistive point (m_f > 0) to verify\n"
    )


def test_verify_passes_on_bundled_fixture(tmp_path, capsys):
    rc = main(
        [
            "verify",
            "--network",
            NET,
            "--fault",
            "ag,bc",
            "--grid",
            "dense:3x3",
            "--out",
            str(tmp_path / "residuals.csv"),
        ]
    )
    assert rc == EXIT_OK
    table = capsys.readouterr().out
    assert "FAIL" not in table
    csv_text = (tmp_path / "residuals.csv").read_text()
    assert csv_text.splitlines()[0].startswith("eta,m_t,m_f")


def test_verify_fails_when_residuals_exceed_thresholds(monkeypatch, capsys):
    # verification compares the pipeline against the simulator built from the
    # same file, so a residual failure is injected at the report boundary
    import incrrelay.cli as cli

    real_verify = cli.verify_grid

    def tampered(net, faults, cache):
        return [
            dataclasses.replace(rep, sigma_rel_err=rep.sigma_rel_err + 1e-3)
            for rep in real_verify(net, faults, cache)
        ]

    monkeypatch.setattr(cli, "verify_grid", tampered)
    rc = main(["verify", "--network", NET, "--fault", "ag", "--grid", "dense:2x2"])
    assert rc == EXIT_RESIDUAL
    assert "FAIL" in capsys.readouterr().out


def test_commands_default_to_the_bundled_network(tmp_path, capsys):
    assert main(["verify", "--fault", "ag", "--grid", "dense:3x3"]) == EXIT_OK
    assert "FAIL" not in capsys.readouterr().out
    out = tmp_path / "ag"
    assert main(["characteristic", "--fault", "ag", "--out", str(out)]) == EXIT_OK
    assert len(json.loads((tmp_path / "ag.json").read_text())["cloud"]) == 22


def test_json_artifact_content(net):
    # the writer is compact; the document's keys and values are what matter
    from incrrelay import FaultSpec, OmegaCache, exact_sampled, grid_paper22, parallelogram, simulate
    from incrrelay.characteristics import hull_of_cloud
    from incrrelay.cli import characteristic_json

    window = simulate(net, FaultSpec("bc", 0.5, 1.0, net.r_fault_max)).window
    cache = OmegaCache(net)
    cloud = exact_sampled(net, "bc", window, grid_paper22(), cache)
    hull = hull_of_cloud(cloud)
    para = parallelogram(net, "bc", window, (0.5, 1.0), cache)
    z1 = net.protected.z1
    text = characteristic_json("bc", cloud, hull, para, z1)
    assert text.endswith("}\n") and text.count("\n") == 1
    pairs = lambda vs: [[v.real, v.imag] for v in vs]
    assert json.loads(text) == {
        "eta": "bc",
        "line_impedance": [[0.0, 0.0], [z1.real, z1.imag]],
        "cloud": [
            {"m_t": m_t, "m_f": m_f, "z": [z.real, z.imag]}
            for (m_t, m_f), z in zip(cloud.meta["grid"], cloud.samples)
        ],
        "hull": pairs(hull.vertices),
        "parallelogram": pairs(para.vertices),
        "m_hat": [0.5, 1.0],
    }


def test_simulate_emits_yaml_scenario(tmp_path):
    out = tmp_path / "scenario.yaml"
    rc = main(
        [
            "simulate",
            "--network",
            NET,
            "--fault",
            "ag",
            "--mhat",
            "0.5,1",
            "--out",
            str(out),
        ]
    )
    assert rc == EXIT_OK
    doc = yaml.safe_load(out.read_text())
    assert set(doc) >= {"prefault", "fault", "window", "fault_current"}
    assert doc["kcl_residual_prefault"] <= 1e-10


def test_svg_output_is_deterministic(tmp_path):
    texts = []
    for name in ("one", "two"):
        out = tmp_path / name
        main(
            [
                "characteristic",
                "--network",
                NET,
                "--fault",
                "ab",
                "--format",
                "svg",
                "--out",
                str(out),
            ]
        )
        texts.append((tmp_path / f"{name}.svg").read_bytes())
    assert texts[0] == texts[1]
    assert texts[0].startswith(b"<svg")


def test_csv_json_round_trip_precision(tmp_path):
    out = tmp_path / "rt"
    main(["characteristic", "--network", NET, "--fault", "ag", "--out", str(out)])
    with open(tmp_path / "rt.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    doc = json.loads((tmp_path / "rt.json").read_text())
    assert len(rows) == len(doc["cloud"])
    for row, entry in zip(rows, doc["cloud"]):
        # 17 significant digits survive the text round trip bit-exactly
        assert float(row["re_z"]) == entry["z"][0]
        assert float(row["im_z"]) == entry["z"][1]
        assert float(row["m_t"]) == entry["m_t"]


def test_line_end_locations_are_evaluated_exactly(tmp_path, net, window_ag, capsys):
    # grid points and m_hat at m_t = 0 and 1 are evaluated where they are
    z1 = net.protected.z1
    out = tmp_path / "c"
    argv = ["characteristic", "--fault", "ag", "--grid", "corners4", "--out", str(out)]
    assert main(argv + ["--format", "json"]) == EXIT_OK
    doc = json.loads((tmp_path / "c.json").read_text())
    assert [p["m_t"] for p in doc["cloud"]] == [0.0, 0.0, 1.0, 1.0]
    assert doc["cloud"][0]["z"] == [0.0, 0.0]
    assert doc["cloud"][2]["z"] == [z1.real, z1.imag]
    for m_t in (0.0, 1.0):
        para = parallelogram(net, "ag", window_ag, (m_t, 1.0))
        assert para.meta["m_hat"] == (m_t, 1.0)
    for mhat in ("0,1", "1,0.5"):
        argv = ["characteristic", "--mhat", mhat, "--out", str(tmp_path / "e")]
        assert main(argv) == EXIT_OK, mhat
    capsys.readouterr()
    assert main(["simulate", "--fault", "ag", "--mhat", "0,1"]) == EXIT_OK
    doc = yaml.safe_load(capsys.readouterr().out)
    assert doc["kcl_residual_fault"] <= 1e-12


@pytest.mark.parametrize("m_t", ["-0.1", "1.1", "nan"])
def test_location_off_the_line_is_a_validation_error(m_t, tmp_path, capsys):
    for argv in (
        ["characteristic", "--fault", "ag", "--out", str(tmp_path / "x")],
        ["simulate", "--fault", "ag"],
    ):
        assert main(argv + [f"--mhat={m_t},1"]) == EXIT_VALIDATION, argv
        captured = capsys.readouterr()
        assert captured.err == (
            f"validation error: m_t must lie in [0, 1], got {float(m_t)}\n"
        ), argv
    assert not list(tmp_path.iterdir())


def test_unexpected_exception_is_internal_error(tmp_path, monkeypatch, capsys):
    import incrrelay.cli as cli

    def broken(*args, **kwargs):
        raise RuntimeError("something broke\nacross two lines")

    monkeypatch.setattr(cli, "exact_sampled", broken)
    rc = main(
        ["characteristic", "--network", NET, "--fault", "ag", "--out", str(tmp_path / "x")]
    )
    assert rc == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err == "internal error: RuntimeError: something broke across two lines\n"


def test_dense_ag_hull_is_the_exact_extreme_point_set(tmp_path):
    # gift wrapping never terminated on this cloud and the command crashed
    out = tmp_path / "ag"
    rc = main(
        [
            "characteristic",
            "--network",
            NET,
            "--fault",
            "ag",
            "--grid",
            "dense:100x100",
            "--format",
            "json",
            "--out",
            str(out),
        ]
    )
    assert rc == EXIT_OK
    doc = json.loads((tmp_path / "ag.json").read_text())
    cloud = [complex(*c["z"]) for c in doc["cloud"]]
    assert len(cloud) == 10000
    assert set(complex(*v) for v in doc["hull"]) == oracle_hull(cloud)
