"""The benchmark's workloads.

Each workload prepares its inputs once (``prepare``, timed as set-up), then
runs ops in a closed loop: ``make_input`` and ``check`` run outside the timed
region, ``op`` inside it. ``op`` raises when the program fails (an exception
or a nonzero exit code); ``check`` returns the problems it finds in an
output, and ``good_points`` the grid points the op got right. Ops come in
rounds of ``round_size`` and a run stops only at a round boundary, so every
run sees the same mix of fault types.

Program code is reached through ``mods``, the freshly imported ``incrrelay``
modules, and always through module attributes, so the tracer's rebinding
takes effect.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import checks
import gen


class OpFailed(Exception):
    """The program ran but reported failure, e.g. a nonzero exit code."""


class Workload:
    points_per_op: int

    def points(self, _inp) -> int:
        """Grid points the op on ``inp`` evaluates."""
        return self.points_per_op

    def good_points(self, inp, _out, problems: list[str]) -> int:
        """Grid points an op got right: all of them, or none if it failed its check."""
        return 0 if problems else self.points(inp)


def _run_cli(mods, argv: list[str]) -> tuple[int, str]:
    """``incrrelay`` in-process: exit code and captured standard output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = mods.cli.main(argv)
    return rc, buf.getvalue()


def _measured_impedance(mods, net, eta: str, nominal: tuple[float, float]):
    """Simulated relay window at ``nominal`` and its apparent impedance v_a/i_a."""
    fault = mods.admittance.FaultSpec(eta, nominal[0], nominal[1], net.r_fault_max)
    window = mods.simulator.simulate(net, fault).window
    lq = mods.loops.loop_quantities(eta, window, net.protected)
    return window, lq.v_a / lq.i_a


class Paper22Cli(Workload):
    """One ``incrrelay characteristic`` per op: paper22 grid, bundled network.

    The paper's default request, made cold: every command re-parses the
    network, builds a fresh Omega cache and writes CSV, JSON and SVG. Ops
    cycle over the 11 fault types; the nominal point is drawn by seed from
    the resistive interior paper22 nodes.
    """

    name = "paper22-cli"
    round_size = len(gen.FAULT_TYPES)
    points_per_op = 22
    setup_reps = 15

    def __init__(self, root: Path, seed: int):
        self.work = root / ".perfbench_work" / self.name
        self.seed = seed
        self._inputs: list = []

    def prepare(self, mods):
        self.mods = mods
        self.rng = np.random.default_rng(self.seed)
        self._inputs.clear()
        self.work.mkdir(parents=True, exist_ok=True)
        self.net_path, text = self.network_file(mods)
        self.net = mods.network.parse_network(text)

    def network_file(self, mods) -> tuple[str, str]:
        """Path and text of the network the ops are given."""
        path = str(mods.pkg.fourbus_path())
        return path, Path(path).read_text(encoding="utf-8")

    def make_input(self, k: int):
        while len(self._inputs) <= k:
            j = len(self._inputs)
            eta = gen.FAULT_TYPES[j % len(gen.FAULT_TYPES)]
            (nominal,) = gen.paper22_nominals(self.rng, 1)
            self._inputs.append((eta, nominal))
        return self._inputs[k]

    def op(self, inp):
        eta, (m_t, m_f) = inp
        rc, _ = _run_cli(
            self.mods,
            [
                "characteristic",
                "--network", self.net_path,
                "--fault", eta,
                "--grid", "paper22",
                "--mhat", f"{m_t!r},{m_f!r}",
                "--out", str(self.work / "char"),
            ],
        )
        if rc != 0:
            raise OpFailed(f"exit code {rc}")

    def check(self, inp, _out) -> list[str]:
        eta, nominal = inp
        doc = json.loads((self.work / "char.json").read_text(encoding="utf-8"))
        csv_rows = (self.work / "char.csv").read_text(encoding="utf-8").splitlines()[1:]
        svg = (self.work / "char.svg").read_text(encoding="utf-8")
        problems = []
        if len(doc["cloud"]) != self.points_per_op or len(csv_rows) != len(doc["cloud"]):
            problems.append(
                f"cloud has {len(doc['cloud'])} JSON and {len(csv_rows)} CSV rows"
            )
        if not svg.startswith("<svg"):
            problems.append("SVG artifact is not an SVG document")
        _, z_meas = _measured_impedance(self.mods, self.net, eta, nominal)
        samples = [complex(*c["z"]) for c in doc["cloud"]]
        z1 = self.net.protected.z1
        problems += checks.check_cloud(
            [(c["m_t"], c["m_f"]) for c in doc["cloud"]], samples, z1, nominal, z_meas
        )
        problems += checks.check_polygons(
            samples,
            [complex(*v) for v in doc["hull"]],
            [complex(*v) for v in doc["parallelogram"]],
            z1,
        )
        return problems


class MeshCli(Paper22Cli):
    """paper22-cli on a seeded 24-bus meshed network.

    The same cold ``incrrelay characteristic`` request, but the dense
    systems are 75x75 instead of the bundled network's 15x15, so this is
    where changes to assembly and solve show at full size.
    """

    name = "mesh-cli"

    def network_file(self, mods) -> tuple[str, str]:
        text = gen.meshed_network(self.rng)
        path = self.work / "mesh.yaml"
        path.write_text(text, encoding="utf-8")
        return str(path), text


class DenseCloud(Workload):
    """Window re-evaluation through a warm Omega cache on a 40x40 grid.

    Omega does not depend on the measurement window, so a settings study
    fills one cache per fault family in set-up and then evaluates new
    windows against it. Each op takes a new seeded window and samples the
    exact cloud through the family's cache: the timed ops only hit the
    cache, where paper22-cli only misses, so a change that speeds one use of
    the cache at the cost of the other shows on one of the two.
    """

    name = "dense-cloud"
    families = ("ag", "bc", "bcg", "abc")
    round_size = len(families)
    grid_shape = (40, 40)
    points_per_op = grid_shape[0] * grid_shape[1]
    setup_reps = 3
    with_polygons = False

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        self._inputs: list = []

    def prepare(self, mods):
        self.mods = mods
        self.rng = np.random.default_rng(self.seed)
        self._inputs.clear()
        text = Path(mods.pkg.fourbus_path()).read_text(encoding="utf-8")
        self.net = mods.network.parse_network(text)
        self.grid = mods.characteristics.grid_dense(*self.grid_shape)
        self.caches = {}
        for eta in self.families:
            # one exact sweep fills the cache for every grid point
            window, _ = _measured_impedance(mods, self.net, eta, (0.5, 1.0))
            cache = mods.incremental.OmegaCache(self.net)
            mods.characteristics.exact_sampled(self.net, eta, window, self.grid, cache)
            self.caches[eta] = cache

    def make_input(self, k: int):
        while len(self._inputs) <= k:
            j = len(self._inputs)
            eta = self.families[j % len(self.families)]
            (nominal,) = gen.dense_nominals(self.rng, 1, *self.grid_shape)
            window, z_meas = _measured_impedance(self.mods, self.net, eta, nominal)
            self._inputs.append((eta, nominal, window, z_meas))
        return self._inputs[k]

    def op(self, inp):
        eta, nominal, window, _ = inp
        ch = self.mods.characteristics
        cache = self.caches[eta]
        out = SimpleNamespace(
            cloud=ch.exact_sampled(self.net, eta, window, self.grid, cache)
        )
        if self.with_polygons:
            out.hull = ch.hull_characteristic(self.net, eta, window, self.grid, cache)
            out.para = ch.parallelogram(self.net, eta, window, nominal)
        return out

    def check(self, inp, out) -> list[str]:
        _, nominal, _, z_meas = inp
        samples = list(out.cloud.samples)
        z1 = self.net.protected.z1
        problems = checks.check_cloud(out.cloud.meta["grid"], samples, z1, nominal, z_meas)
        if self.with_polygons:
            problems += checks.check_polygons(
                samples, list(out.hull.vertices), list(out.para.vertices), z1
            )
        return problems


class DenseSweep(DenseCloud):
    """dense-cloud plus the hull and the parallelogram of every window.

    Not a gated workload: at the commit that added it every op fails. On
    the 40x40 cloud the gift-wrap hull does not terminate for ag, bcg and
    abc, and for bc it returns a hull that leaves bolted samples outside.
    It is kept to measure that defect (fail ratio, the O(n^2) failure path)
    until the hull is fixed.
    """

    name = "dense-sweep"
    with_polygons = True


class Verify(Workload):
    """One ``incrrelay verify --fault all --grid dense:NxM`` per op.

    Every op re-checks the pipeline against the simulator oracle: a nonzero
    exit code fails the output check, and only the points verify marks ok
    count as good. An input is the grid shape (n_t, n_f).
    """

    round_size = 1

    def points(self, inp: tuple[int, int]) -> int:
        n_t, n_f = inp
        return len(gen.FAULT_TYPES) * n_t * (n_f - 1)  # verify skips m_f = 0

    def op(self, inp: tuple[int, int]):
        n_t, n_f = inp
        return _run_cli(
            self.mods,
            [
                "verify",
                "--network", str(self.net_path),
                "--fault", "all",
                "--grid", f"dense:{n_t}x{n_f}",
            ],
        )

    @staticmethod
    def _rows(text: str) -> tuple[list[str], int]:
        rows = text.splitlines()[1:]
        return rows, sum(r.split()[-1:] == ["ok"] for r in rows)

    def good_points(self, _inp, out: tuple[int, str], _problems) -> int:
        return self._rows(out[1])[1]

    def check(self, inp, out: tuple[int, str]) -> list[str]:
        rc, text = out
        rows, ok = self._rows(text)
        problems = [] if rc == 0 else [f"verify exited with code {rc}"]
        if len(rows) != self.points(inp) or ok != len(rows):
            problems.append(f"verify printed {len(rows)} rows, {ok} ok")
        return problems


class VerifyFourbus(Verify):
    """verify on the bundled four-bus network, on a seeded grid per op.

    The gated verify workload: the simulator oracle and the pipeline it
    re-checks, on the paper's network. Each op draws its dense grid shape,
    4 to 8 locations by 4 to 8 resistance fractions, so a run sees grids of
    several sizes.
    """

    name = "verify-fourbus"
    setup_reps = 15

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        self._inputs: list = []

    def prepare(self, mods):
        self.mods = mods
        self.rng = np.random.default_rng(self.seed)
        self._inputs.clear()
        self.net_path = mods.pkg.fourbus_path()
        mods.network.parse_network(Path(self.net_path).read_text(encoding="utf-8"))

    def make_input(self, k: int) -> tuple[int, int]:
        while len(self._inputs) <= k:
            n_t, n_f = self.rng.integers(4, 9, size=2)
            self._inputs.append((int(n_t), int(n_f)))
        return self._inputs[k]


class VerifyMesh(Verify):
    """verify --grid dense:5x5 on a seeded 24-bus meshed network.

    The dense systems are 75x75 instead of the bundled network's 15x15, so
    this is where changes to assembly and solve show at full size. Not a
    gated workload: on a few percent of seeds verify's sigma error at a
    clamped line end exceeds its 1e-9 gate, verify exits 4 and every op of
    that run fails. It is kept to measure that defect and the large systems
    until the program handles or rejects such networks.
    """

    name = "verify-mesh"
    setup_reps = 15

    def __init__(self, root: Path, seed: int):
        self.work = root / ".perfbench_work" / self.name
        self.seed = seed

    def prepare(self, mods):
        self.mods = mods
        text = gen.meshed_network(np.random.default_rng(self.seed))
        self.work.mkdir(parents=True, exist_ok=True)
        self.net_path = self.work / "mesh.yaml"
        self.net_path.write_text(text, encoding="utf-8")
        mods.network.parse_network(text)

    def make_input(self, k: int) -> tuple[int, int]:
        return (5, 5)


WORKLOADS = {
    w.name: w
    for w in (Paper22Cli, MeshCli, DenseCloud, VerifyFourbus, VerifyMesh, DenseSweep)
}
