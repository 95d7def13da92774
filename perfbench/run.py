"""incrrelay benchmark: one workload, one seed, one run.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload paper22-cli --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the current directory. Ops run in
one process, in a closed loop with one client: each op starts when the
previous one has ended. ``--trace 0`` reports the end-to-end metrics, with
set-up time and throughput scaled to a reference host speed (``hostspeed``);
``--trace 1`` reports per-layer metrics from a traced re-run of the same ops
and writes the spans to ``.perfbench_work/``. Every metric is printed with its
unit; the last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import os

# Fix the BLAS thread count before numpy loads, so a solve never waits for
# a second core that another process holds and op times do not depend on it.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import importlib
import json
import math
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import hostspeed
import tracer as tracing
import workloads

# the modules the workloads call into
SUBMODULES = (
    "admittance",
    "characteristics",
    "cli",
    "incremental",
    "loops",
    "network",
    "simulator",
)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer in tracing.TARGETS))
SETUP_LAYERS = (
    "network.parse_network",
    "admittance.assemble_y",
    "admittance.assemble_incremental",
    "admittance.solve_omega",
    "linalg.refined_solve",
    "incremental.build_omega_map",
)


ROOT = Path.cwd()
SRC = ROOT / "src"
# No op starts after this, so a run that has gone pathologically slow still
# exits within three minutes; such a run is cut short and gives no result.
START = time.monotonic()
RUN_DEADLINE = START + 150.0
# op time between two runs of the host-speed calibration loop
CAL_EVERY_S = 0.25


def has_sources() -> bool:
    return (SRC / "incrrelay" / "__init__.py").is_file()


def load_program():
    """Import incrrelay afresh from the checkout, so set-up pays its import."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "incrrelay" or n.startswith("incrrelay.")]:
        del sys.modules[name]
    pkg = importlib.import_module("incrrelay")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"incrrelay was imported from {pkg.__file__}, not {SRC}")
    mods = {sub: importlib.import_module(f"incrrelay.{sub}") for sub in SUBMODULES}
    return SimpleNamespace(pkg=pkg, **mods)


def machine_info() -> dict:
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
    }


@dataclass
class Outcome:
    """What a closed-loop pass over ops produced."""

    lat: list[float] = field(default_factory=list)  # seconds, every attempted op
    busy: float = 0.0  # total op time, seconds
    failed: int = 0
    ok_points: int = 0
    truncated: bool = False  # the deadline ended the pass before its goal
    cal: list[float] | None = None  # calibration loop times; None: do not calibrate
    cal_at: float = 0.0  # op time at the last calibration
    errors: dict[str, list] = field(default_factory=dict)  # kind -> [count, first message]

    @property
    def attempted(self) -> int:
        return len(self.lat)

    def fail(self, kind: str, message: str):
        self.failed += 1
        entry = self.errors.setdefault(kind, [0, message])
        entry[0] += 1


def measure(
    wl, seconds: float = math.inf, n_ops: int | None = None, tracer=None, res=None
) -> Outcome:
    """Closed loop over ops until ``seconds`` of op time or ``n_ops`` ops, at a round end.

    Passing ``res`` continues that outcome with the ops after the ones it holds.
    """
    res = res if res is not None else Outcome()
    k = res.attempted
    while True:
        if k % wl.round_size == 0:
            if res.busy >= seconds or (n_ops is not None and k >= n_ops):
                return res
            if time.monotonic() > RUN_DEADLINE:
                res.truncated = True
                return res
        inp = wl.make_input(k)
        if tracer is not None:
            tracer.begin_op(k)
        error = None
        t0 = time.perf_counter()
        try:
            out = wl.op(inp)
        except Exception as exc:  # a failing op is counted, never fatal
            error = exc
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_op()
        res.busy += dt
        res.lat.append(dt)
        k += 1
        if res.cal is not None and res.busy - res.cal_at >= CAL_EVERY_S:
            res.cal.append(hostspeed.calibration_loop())
            res.cal_at = res.busy
        if error is not None:
            res.fail(type(error).__name__, str(error))
            continue
        try:
            problems = wl.check(inp, out)
        except Exception as exc:
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            res.fail("wrong output", "; ".join(problems))
        res.ok_points += wl.good_points(inp, out, problems)


def run_untraced(wl, seconds: float) -> tuple[Outcome, dict, dict]:
    # The set-ups are spread over the run, one before each equal share of the
    # op time, so setup_s sees the same drift of host speed as the ops do.
    # prepare() starts the workload afresh; the ops then continue where they
    # stopped, on the same seeded inputs.
    hostspeed.calibration_loop()  # warm-up
    setup, res = [], Outcome(cal=[])
    for i in range(wl.setup_reps):
        t0 = time.perf_counter()
        wl.prepare(load_program())
        setup.append(time.perf_counter() - t0)
        measure(wl, seconds * (i + 1) / wl.setup_reps, res=res)
        if res.truncated:
            break
    if not res.cal:
        res.cal.append(hostspeed.calibration_loop())
    # > 1 when the host ran slower than the reference speed
    cal_mean = statistics.mean(res.cal)
    slowness = cal_mean / hostspeed.REF_S
    setup_raw = statistics.median(setup)
    points_raw = res.ok_points / res.busy
    p50, p90 = np.percentile([1000.0 * t for t in res.lat], [50, 90])
    metrics = {
        "setup_s": (setup_raw / slowness, "s"),
        "points_per_s": (points_raw * slowness, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    # Printed, not gated: unscaled wall times, so they carry the host's drift
    # in speed, and the median op falls in whichever speed mode held most of
    # the run.
    beyond = sum(1000.0 * t > p90 for t in res.lat)
    info = {
        "op_ms.p50": f"{p50:.4f} ms",
        "op_ms.p90": f"{p90:.4f} ms ({beyond} of {res.attempted} ops beyond)",
        "fail_ratio": f"{res.failed / res.attempted:.4f} ({res.failed} of {res.attempted} ops)",
        "setup_reps_s": ", ".join(f"{t:.4f}" for t in setup),
        "host_slowness": f"{slowness:.4f} (calibration loop {1000.0 * cal_mean:.3f} ms mean "
        f"over {len(res.cal)}, reference {1000.0 * hostspeed.REF_S:g} ms)",
        "setup_s.unscaled": f"{setup_raw:.6f} s",
        "points_per_s.unscaled": f"{points_raw:.6g} 1/s",
        "op_time_s": f"{res.busy:.3f} of {seconds:g} asked",
    }
    return res, metrics, info


def layer_metrics(spans, n_ops: int, points: int) -> dict:
    """Per-layer calls and self time per op over the timed ops, plus set-up."""
    child = {}
    for _, parent, _, _, start, end, _, _ in spans:
        if parent is not None:
            child[parent] = child.get(parent, 0.0) + (end - start)
    calls = dict.fromkeys(LAYERS, 0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    setup_calls = dict.fromkeys(LAYERS, 0)
    setup_s = dict.fromkeys(LAYERS, 0.0)
    gets, built_under = [], set()
    hull_calls = hull_fail = 0
    sigma_max = z_max = 0.0
    for sid, parent, op, name, start, end, error, attrs in spans:
        own = (end - start) - child.get(sid, 0.0)
        if op == "setup":
            setup_calls[name] += 1
            setup_s[name] += own
            continue
        calls[name] += 1
        self_s[name] += own
        if name == "incremental.omega_cache.get":
            gets.append(sid)
        elif name == "incremental.build_omega_map" and parent is not None:
            built_under.add(parent)
        elif name == "characteristics.convex_hull":
            hull_calls += 1
            hull_fail += error is not None
        elif name == "simulator.verify_pipeline" and attrs:
            sigma_max = max(sigma_max, attrs["sigma_rel_err"])
            z_max = max(z_max, attrs["z_a_rel_err"])
    hits = sum(sid not in built_under for sid in gets)
    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = (calls[layer] / n_ops, "1/op")
        m[f"{layer}.self_ms"] = (1000.0 * self_s[layer] / n_ops, "ms/op")
    for layer in SETUP_LAYERS:
        m[f"setup.{layer}.self_ms"] = (1000.0 * setup_s[layer], "ms")
    m["setup.incremental.build_omega_map.calls"] = (
        setup_calls["incremental.build_omega_map"],
        "count",
    )
    # a get that built nothing is a hit; 0 when the workload makes no gets
    m["incremental.omega_cache.hit_ratio"] = (hits / len(gets) if gets else 0.0, "ratio")
    m["loops.apparent_impedance.calls_per_point"] = (
        calls["loops.apparent_impedance"] / points,
        "1/point",
    )
    m["characteristics.convex_hull.fail_ratio"] = (
        hull_fail / hull_calls if hull_calls else 0.0,
        "ratio",
    )
    m["simulator.sigma_rel_err.max"] = (sigma_max, "rel")
    m["simulator.z_a_rel_err.max"] = (z_max, "rel")
    return m


def run_traced(wl, seconds: float) -> tuple[Outcome, dict, dict]:
    program = load_program()
    tracer = tracing.Tracer()
    tracer.install()
    tracer.begin_op("setup")
    wl.prepare(program)
    tracer.end_op()
    tracer.uninstall()
    # warm-up, so the untraced pass is not the colder one
    warm = measure(wl, n_ops=wl.round_size)
    base = measure(wl, seconds / 2)
    tracer.install()
    res = measure(wl, n_ops=base.attempted, tracer=tracer)
    tracer.uninstall()
    res.truncated = warm.truncated or base.truncated or res.truncated
    n = res.attempted
    info = {"traced_ops": f"{n}, after {base.attempted} untraced in {base.busy:.3f} s"}
    if res.truncated:
        return res, {}, info
    points = sum(wl.points(wl.make_input(k)) for k in range(n))
    metrics = layer_metrics(tracer.spans, n, points)
    metrics["trace.overhead_ratio"] = (res.busy / sum(base.lat[:n]), "ratio")
    out = ROOT / ".perfbench_work" / f"spans-{wl.name}.jsonl"
    out.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(out)
    info["spans"] = f"{len(tracer.spans)} written to {out.relative_to(ROOT)}"
    info["layers_missing"] = ", ".join(tracer.missing) or "none"
    return res, metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not has_sources():
        print(f"no incrrelay sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    run = run_traced if args.trace else run_untraced
    res, metrics, info = run(wl, args.seconds)

    print(f"workload {wl.name} seed {args.seed} trace {args.trace}")
    print("machine " + json.dumps(machine_info()))
    for key, value in info.items():
        print(f"  {key}: {value}")
    for kind, (count, first) in res.errors.items():
        print(f"  failed ops, {kind}: {count}; first: {first[:300]}")
    for key, (value, unit) in metrics.items():
        print(f"  {key} = {value:.6g} {unit}")
    if res.truncated:
        print(
            f"run cut short by its {RUN_DEADLINE - START:.0f} s deadline: the figures "
            "above cover less op time than was asked, so there is no result",
            file=sys.stderr,
        )
        return 3
    result = {
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
