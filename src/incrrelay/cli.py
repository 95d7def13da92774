"""Command-line front end.

Subcommands:

``characteristic``
    Build exact-sampled, convex-hull, and parallelogram characteristics for
    one or more fault types and write CSV / JSON / SVG artifacts.

``simulate``
    Run one fault scenario on the full-network simulator and dump the
    scenario as YAML.

``verify``
    Cross-check the incremental pipeline against the simulator over a grid
    and exit nonzero if any residual exceeds the documented thresholds.

Exit codes: 0 success, 1 usage, 2 I/O, 3 validation, 4 residual failure,
5 internal error (an unexpected exception, reported on one line of stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np
import yaml

from . import fourbus_path
from .admittance import FAULT_TYPES, FaultSpec
from .characteristics import (
    Characteristic,
    exact_sampled,
    grid_corners4,
    grid_dense,
    grid_paper22,
    grid_perimeter,
    hull_of_cloud,
    parallelogram,
)
from .incremental import OmegaCache
from .network import NetworkError, NetworkModel, parse_network
from .phasors import MeasurementWindow, Phasor3
from .simulator import ScenarioResult, simulate, simulate_many
from .verify import verify_grid

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_VALIDATION = 3
EXIT_RESIDUAL = 4
EXIT_INTERNAL = 5

SIGMA_THRESHOLD = 1e-9
Z_A_THRESHOLD = 1e-9
BALANCE_THRESHOLD = 1e-10


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # map argparse failures onto exit code 1
        raise UsageError(message)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _parse_faults(spec: str) -> list[str]:
    names = [s.strip() for s in spec.split(",") if s.strip()]
    if spec.strip() == "all":
        return list(FAULT_TYPES)
    for name in names:
        if name not in FAULT_TYPES:
            raise UsageError(
                f"unknown fault type {name!r}; valid names: {', '.join(FAULT_TYPES)}"
            )
    if not names:
        raise UsageError("no fault types given")
    return names


def _parse_grid(spec: str) -> np.ndarray:
    if spec == "paper22":
        return grid_paper22()
    if spec == "corners4":
        return grid_corners4()
    if spec.startswith("dense:"):
        try:
            n_t, n_f = (int(v) for v in spec[len("dense:") :].split("x"))
        except ValueError:
            raise UsageError(f"bad dense grid spec {spec!r}; expected dense:NxM")
        if min(n_t, n_f) < 1:
            raise UsageError(f"bad dense grid spec {spec!r}; N and M must be at least 1")
        return grid_dense(n_t, n_f)
    if spec.startswith("perimeter:"):
        try:
            n = int(spec[len("perimeter:") :])
        except ValueError:
            raise UsageError(f"bad perimeter grid spec {spec!r}; expected perimeter:N")
        if n < 1:
            raise UsageError(f"bad perimeter grid spec {spec!r}; N must be at least 1")
        return grid_perimeter(n)
    raise UsageError(
        f"unknown grid {spec!r}; expected paper22, corners4, dense:NxM, or perimeter:N"
    )


def _parse_mhat(spec: str) -> tuple[float, float]:
    try:
        m_t, m_f = (float(v) for v in spec.split(","))
    except ValueError:
        raise UsageError(f"bad m-hat {spec!r}; expected MT,MF")
    return m_t, m_f


def _load_network(path: str) -> NetworkModel:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _IOFailure(f"cannot read {path}: {exc}") from exc
    return parse_network(text)


class _IOFailure(Exception):
    pass


# ---------------------------------------------------------------------------
# artifact writers


def cloud_csv(ch: Characteristic) -> str:
    lines = ["m_t,m_f,re_z,im_z"]
    for (m_t, m_f), z in zip(ch.meta["grid"].tolist(), ch.samples):
        lines.append(f"{_fmt(m_t)},{_fmt(m_f)},{_fmt(z.real)},{_fmt(z.imag)}")
    return "\n".join(lines) + "\n"


def _vertex_list(vertices) -> list:
    return [[float(v.real), float(v.imag)] for v in vertices]


def characteristic_json(
    eta: str,
    cloud: Characteristic,
    hull: Characteristic,
    para: Characteristic,
    z1: complex,
) -> str:
    doc = {
        "eta": eta,
        "line_impedance": _vertex_list([0j, z1]),
        "cloud": [
            {"m_t": m_t, "m_f": m_f, "z": [float(z.real), float(z.imag)]}
            for (m_t, m_f), z in zip(cloud.meta["grid"].tolist(), cloud.samples)
        ],
        "hull": _vertex_list(hull.vertices),
        "parallelogram": _vertex_list(para.vertices),
        "m_hat": list(para.meta["m_hat"]),
    }
    return json.dumps(doc) + "\n"


def characteristic_svg(
    eta: str,
    cloud: Characteristic,
    hull: Characteristic,
    para: Characteristic,
    z1: complex,
) -> str:
    """Impedance-plane plot: R on x, X on y, cloud circles, hull path,
    dashed parallelogram, and the line impedance segment. Deterministic text."""
    pts = list(cloud.samples) + list(hull.vertices) + list(para.vertices) + [0j, z1]
    re = [p.real for p in pts]
    im = [p.imag for p in pts]
    span_r = max(re) - min(re) or 1.0
    span_x = max(im) - min(im) or 1.0
    pad_r, pad_x = 0.1 * span_r, 0.1 * span_x
    x0, x1 = min(re) - pad_r, max(re) + pad_r
    y0, y1 = min(im) - pad_x, max(im) + pad_x
    width, height = 640.0, 480.0

    def sx(v: float) -> str:
        return _fmt((v - x0) / (x1 - x0) * width)

    def sy(v: float) -> str:
        return _fmt(height - (v - y0) / (y1 - y0) * height)

    def path(vertices, close: bool) -> str:
        cmds = [f"M {sx(vertices[0].real)} {sy(vertices[0].imag)}"]
        cmds += [f"L {sx(v.real)} {sy(v.imag)}" for v in vertices[1:]]
        if close:
            cmds.append("Z")
        return " ".join(cmds)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" '
        f'height="{height:g}" viewBox="0 0 {width:g} {height:g}">',
        f"<title>{eta} characteristic</title>",
        f'<rect width="{width:g}" height="{height:g}" fill="white"/>',
        f'<path d="{path([0j, z1], False)}" stroke="black" stroke-width="2" '
        'fill="none"/>',
        f'<path d="{path(list(hull.vertices), len(hull.vertices) > 2)}" '
        'stroke="steelblue" stroke-width="1.5" fill="steelblue" '
        'fill-opacity="0.15"/>',
        f'<path d="{path(list(para.vertices), len(para.vertices) > 2)}" '
        'stroke="firebrick" stroke-width="1.5" stroke-dasharray="6 4" '
        'fill="none"/>',
    ]
    for z in cloud.samples:
        out.append(
            f'<circle cx="{sx(z.real)}" cy="{sy(z.imag)}" r="3" fill="black"/>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def scenario_yaml(result: ScenarioResult) -> str:
    def phasor_doc(p: Phasor3) -> list:
        return [[float(v.real), float(v.imag)] for v in (p.a, p.b, p.c)]

    def state_doc(state) -> dict:
        return {
            "voltages": {k: phasor_doc(v) for k, v in sorted(state.voltages.items())},
            "sg_currents": {
                k: phasor_doc(v) for k, v in sorted(state.sg_currents.items())
            },
        }

    def window_doc(w) -> dict:
        return {
            "v_prev": phasor_doc(w.v_prev),
            "i_prev": phasor_doc(w.i_prev),
            "v_now": phasor_doc(w.v_now),
            "i_now": phasor_doc(w.i_now),
        }

    doc = {
        "prefault": state_doc(result.prefault),
        "fault": state_doc(result.fault),
        "window": window_doc(result.window),
        "remote_window": window_doc(result.remote_window),
        "fault_current": phasor_doc(result.fault_current),
        "kcl_residual_prefault": result.kcl_residual_prefault,
        "kcl_residual_fault": result.kcl_residual_fault,
    }
    return yaml.safe_dump(doc, sort_keys=False)


# ---------------------------------------------------------------------------
# commands


def _write(path: Path, text: str):
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _IOFailure(f"cannot write {path}: {exc}") from exc


def _nominal_windows(
    net: NetworkModel, faults: list[str], m_hat: tuple[float, float]
) -> list[MeasurementWindow]:
    """The relay window of each fault type at m_hat, from one simulator stack.

    Only the windows outlive the call: a stack kept alive through the rest
    of the command raised its peak memory by about 0.25 MB on a 24-bus mesh.
    They are read from the stack's arrays at the local bus, as
    ``ScenarioStack.scenario(k).window`` would give them, without building
    every node's phasors.
    """
    m_t, m_f = m_hat
    stack = simulate_many(
        net, [FaultSpec(eta, m_t, m_f, net.r_fault_max) for eta in faults]
    )
    local = stack.nodes.index(net.local_bus)
    v_prev = Phasor3.from_array(stack.v_pre[local])
    i_prev = Phasor3.from_array(stack.i_line_pre[0])
    return [
        MeasurementWindow(
            v_prev=v_prev,
            i_prev=i_prev,
            v_now=Phasor3.from_array(stack.v_post[k, local]),
            i_now=Phasor3.from_array(stack.i_line_post[k, 0]),
        )
        for k in range(len(faults))
    ]


def cmd_characteristic(args) -> int:
    net = _load_network(args.network)
    faults = _parse_faults(args.fault)
    grid = _parse_grid(args.grid)
    m_hat = _parse_mhat(args.mhat)
    out_base = Path(args.out)

    cache = OmegaCache(net)
    for eta, window in zip(faults, _nominal_windows(net, faults, m_hat)):
        start = time.perf_counter()
        cloud = exact_sampled(net, eta, window, grid, cache)
        hull = hull_of_cloud(cloud)
        para = parallelogram(net, eta, window, m_hat, cache)
        elapsed_ms = 1000.0 * (time.perf_counter() - start)

        z1 = net.protected.z1
        artifacts = {
            "csv": cloud_csv(cloud),
            "json": characteristic_json(eta, cloud, hull, para, z1),
            "svg": characteristic_svg(eta, cloud, hull, para, z1),
        }
        suffix = f".{eta}" if len(faults) > 1 else ""
        formats = [args.format] if args.format else list(artifacts)
        for fmt in formats:
            _write(Path(f"{out_base}{suffix}.{fmt}"), artifacts[fmt])
        print(f"{eta}: characteristic computed in {elapsed_ms:.2f} ms")
    return EXIT_OK


def cmd_simulate(args) -> int:
    net = _load_network(args.network)
    faults = _parse_faults(args.fault)
    if len(faults) != 1:
        raise UsageError("simulate takes exactly one fault type")
    m_t, m_f = _parse_mhat(args.mhat)
    result = simulate(net, FaultSpec(faults[0], m_t, m_f, net.r_fault_max))
    text = scenario_yaml(result)
    if args.out:
        _write(Path(args.out), text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_verify(args) -> int:
    net = _load_network(args.network)
    faults = _parse_faults(args.fault)
    grid = _parse_grid(args.grid)

    # every point of the command, all fault types, is one stack
    pts = grid[grid[:, 1] != 0.0]
    if not len(pts):
        raise ValueError(f"grid {args.grid!r} has no resistive point (m_f > 0) to verify")
    points = [
        FaultSpec(eta, m_t, m_f, net.r_fault_max)
        for eta in faults
        for m_t, m_f in pts.tolist()
    ]
    reports = verify_grid(net, points, OmegaCache(net))
    errs = np.array(
        [
            (r.fault.m_t, r.fault.m_f, r.sigma_rel_err, r.z_a_rel_err, r.prefault_balance_residual)
            for r in reports
        ]
    )
    ok = (
        (errs[:, 2] <= SIGMA_THRESHOLD)
        & (errs[:, 3] <= Z_A_THRESHOLD)
        & (errs[:, 4] <= BALANCE_THRESHOLD)
    )
    rows = [
        (r.fault.eta, *e, "ok" if good else "FAIL")
        for r, e, good in zip(reports, errs.tolist(), ok.tolist())
    ]

    # one row template each, for the table and for the CSV (whose numbers
    # read like _fmt's)
    header = f"{'eta':<6}{'m_t':>10}{'m_f':>8}{'sigma_err':>12}{'z_err':>12}{'balance':>12}  status"
    table = "%-6s%10.4f%8.3f%12.3e%12.3e%12.3e  %s\n"
    sys.stdout.write(header + "\n" + "".join(table % r for r in rows))
    if args.out:
        csv = "%s,%.17g,%.17g,%.17g,%.17g,%.17g,%s\n"
        _write(
            Path(args.out),
            "eta,m_t,m_f,sigma_rel_err,z_a_rel_err,balance_residual,status\n"
            + "".join(csv % r for r in rows),
        )
    return EXIT_OK if ok.all() else EXIT_RESIDUAL


def build_parser() -> _Parser:
    parser = _Parser(prog="incrrelay", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "--network",
            default=fourbus_path(),
            help="network description file (default: the bundled four-bus network)",
        )
        p.add_argument(
            "--fault",
            default="all",
            help=f"comma-separated fault types or 'all': {', '.join(FAULT_TYPES)}",
        )

    p_char = sub.add_parser("characteristic", help="build relay characteristics")
    common(p_char)
    p_char.add_argument("--grid", default="paper22")
    p_char.add_argument("--mhat", default="0.5,1")
    p_char.add_argument("--format", choices=["csv", "json", "svg"], default=None)
    p_char.add_argument("--out", required=True)
    p_char.set_defaults(func=cmd_characteristic)

    p_sim = sub.add_parser("simulate", help="run one fault scenario")
    common(p_sim)
    p_sim.add_argument("--mhat", default="0.5,1", help="fault location MT,MF")
    p_sim.add_argument("--out", default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_ver = sub.add_parser("verify", help="pipeline-vs-simulator residuals")
    common(p_ver)
    p_ver.add_argument("--grid", default="dense:5x5")
    p_ver.add_argument("--out", default=None)
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _IOFailure as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NetworkError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ValueError, np.linalg.LinAlgError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # the documented last resort: no traceback
        message = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
