"""Spans around calls into the program's layers, recorded from outside.

The tracer wraps public functions of ``incrrelay`` modules and rebinds every
module attribute that refers to them, so calls through a ``from .x import f``
binding in another module are seen too. Spans stay in memory, each with its
op id and parent span, and are written out once at the end of a run. A span
is recorded only while an op is open, so work the benchmark does between
ops (input generation, output checks) never shows.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time


# (module, attribute path, layer name). Several functions may report under one
# layer name; cli.serialize is the three artifact writers together.
TARGETS = (
    ("network", "parse_network", "network.parse_network"),
    ("admittance", "assemble_y", "admittance.assemble_y"),
    ("admittance", "assemble_incremental", "admittance.assemble_incremental"),
    ("admittance", "solve_omega", "admittance.solve_omega"),
    ("linalg", "refined_solve", "linalg.refined_solve"),
    ("incremental", "build_omega_map", "incremental.build_omega_map"),
    ("incremental", "remote_current", "incremental.remote_current"),
    ("incremental", "OmegaCache.get", "incremental.omega_cache.get"),
    ("loops", "apparent_impedance", "loops.apparent_impedance"),
    ("loops", "fault_resistance_direction", "loops.fault_resistance_direction"),
    ("characteristics", "exact_sampled", "characteristics.exact_sampled"),
    ("characteristics", "hull_characteristic", "characteristics.hull_characteristic"),
    ("characteristics", "parallelogram", "characteristics.parallelogram"),
    ("characteristics", "convex_hull", "characteristics.convex_hull"),
    ("simulator", "simulate", "simulator.simulate"),
    ("simulator", "verify_pipeline", "simulator.verify_pipeline"),
    ("cli", "main", "cli.main"),
    ("cli", "cloud_csv", "cli.serialize"),
    ("cli", "characteristic_json", "cli.serialize"),
    ("cli", "characteristic_svg", "cli.serialize"),
)


PACKAGE = "incrrelay"


def _verify_attrs(report) -> dict:
    """verify's worst errors, kept on the span of its pipeline."""
    return {"sigma_rel_err": report.sigma_rel_err, "z_a_rel_err": report.z_a_rel_err}


class Tracer:
    """Installs span-recording wrappers; ``uninstall`` restores every binding.

    A span is a plain tuple (id, parent, op, name, start, end, error, attrs):
    tuples of atomic values leave the garbage collector's tracking, so a run
    with hundreds of thousands of spans does not slow the collections down.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.op: int | str | None = None
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []

    def install(self):
        self.missing = []
        for mod_name, attr_path, layer in TARGETS:
            owner, attr, fn = self._resolve(mod_name, attr_path)
            if fn is None:
                # a later refactor may delete or move a layer; it then reports
                # zero calls instead of breaking the run
                self.missing.append(f"{mod_name}.{attr_path}")
                continue
            wrapper = self._wrap(layer, fn)
            if isinstance(owner, type):
                bindings = [(owner, attr)]
            else:
                bindings = [
                    (mod, name)
                    for mod in self._package_modules()
                    for name, value in list(vars(mod).items())
                    if value is fn
                ]
            for target, name in bindings:
                self._restore.append((target, name, fn))
                setattr(target, name, wrapper)

    def uninstall(self):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def begin_op(self, op: int | str):
        self.op = op

    def end_op(self):
        self.op = None
        self._stack.clear()

    def write(self, path):
        """One JSON list per span, in order of span id; times in microseconds
        from the first span's start."""
        spans = sorted(self.spans)
        t0 = min((s[4] for s in spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, op, name, start, end, error, attrs in spans:
                row = [sid, parent, op, name, round((start - t0) * 1e6, 1),
                       round((end - t0) * 1e6, 1), error, attrs]
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")

    # -- internals --------------------------------------------------------

    def _package_modules(self):
        return [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def _resolve(self, mod_name: str, attr_path: str):
        # import_module, not getattr on the package: incrrelay.incremental is
        # the phasors function of that name, which shadows the submodule
        try:
            owner = importlib.import_module(f"{PACKAGE}.{mod_name}")
        except ImportError:
            return None, None, None
        *parents, attr = attr_path.split(".")
        for p in parents:
            owner = getattr(owner, p, None)
            if owner is None:
                return None, None, None
        fn = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if not callable(fn):
            return None, None, None
        return owner, attr, fn

    def _wrap(self, layer: str, fn):
        spans, stack = self.spans, self._stack
        observe = _verify_attrs if layer == "simulator.verify_pipeline" else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                spans.append((sid, parent, op, layer, start, clock(), type(exc).__name__, None))
                stack.pop()
                raise
            end = clock()
            stack.pop()
            attrs = observe(result) if observe is not None else None
            spans.append((sid, parent, op, layer, start, end, None, attrs))
            return result

        return wrapper
