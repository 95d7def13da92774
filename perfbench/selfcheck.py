"""Self-check of the benchmark itself.

Checks that the seeded generators repeat for a seed and change with it,
that every output check rejects a corrupted output, and that an op that
raises or fails its check is counted as failed without ending the run. Run it from the root of
a source checkout:

    python3 perfbench/selfcheck.py

It prints one line per failed expectation and exits 1 if there was any.
"""

from __future__ import annotations

import json
import sys

import run  # sets the BLAS threads and the import path first

import numpy as np

import gen
import workloads


def _same_for_seed(make) -> list[str]:
    a, b = make(np.random.default_rng(7)), make(np.random.default_rng(7))
    c = make(np.random.default_rng(8))
    problems = []
    if a != b:
        problems.append(f"{make}: seed 7 gave two different inputs")
    if a == c:
        problems.append(f"{make}: seeds 7 and 8 gave the same input")
    return problems


def _rejects(label: str, problems: list[str], expect: str) -> list[str]:
    if any(expect in p for p in problems):
        return []
    return [f"check missed a corrupted output ({label}); it reported {problems}"]


def check_generators() -> list[str]:
    problems = []
    for make in (
        lambda r: gen.paper22_nominals(r, 50),
        lambda r: gen.dense_nominals(r, 50, 40, 40),
        gen.meshed_network,
    ):
        problems += _same_for_seed(make)
    return problems


def check_paper22(mods) -> list[str]:
    wl = workloads.Paper22Cli(run.ROOT, 3)
    wl.prepare(mods)
    inp = wl.make_input(0)
    wl.op(inp)
    path = wl.work / "char.json"
    good = path.read_text(encoding="utf-8")
    problems = [f"clean output rejected: {p}" for p in wl.check(inp, None)]

    def corrupted(label: str, edit, expect: str) -> list[str]:
        doc = json.loads(good)
        edit(doc)
        path.write_text(json.dumps(doc), encoding="utf-8")
        try:
            return _rejects(label, wl.check(inp, None), expect)
        finally:
            path.write_text(good, encoding="utf-8")

    _, nominal = inp
    at_nominal = next(
        c for c in json.loads(good)["cloud"] if (c["m_t"], c["m_f"]) == nominal
    )

    def nudge_nominal(doc):
        for c in doc["cloud"]:
            if (c["m_t"], c["m_f"]) == nominal:
                c["z"][0] += 1e-6 * abs(complex(*at_nominal["z"]))

    def nudge_bolted(doc):  # cloud[1] is the bolted fault at the remote end
        doc["cloud"][1]["z"][1] *= 1 + 1e-9

    def push_outside(doc):  # cloud[2] is at m_t = 0, never the nominal point
        re, im = doc["cloud"][2]["z"]
        doc["cloud"][2]["z"] = [2 * re + 1.0, 2 * im + 1.0]

    def drop_origin(doc):
        doc["parallelogram"] = [v for v in doc["parallelogram"] if v != [0.0, 0.0]]

    problems += corrupted("nominal sample off by 1e-6", nudge_nominal, "measured impedance")
    problems += corrupted("bolted sample off by 1e-9", nudge_bolted, "bolted sample")
    problems += corrupted("sample outside the hull", push_outside, "outside the hull")
    problems += corrupted("parallelogram without the origin", drop_origin, "no vertex at 0j")
    return problems


def check_verify_output() -> list[str]:
    wl = workloads.VerifyFourbus(run.ROOT, 3)
    inp = (5, 5)
    n = wl.points(inp)
    row = "ag        0.0000   0.250   1.000e-11   1.000e-11   1.000e-14  ok"
    good = "\n".join(["header"] + [row] * n) + "\n"
    problems = [f"clean verify output rejected: {p}" for p in wl.check(inp, (0, good))]
    bad = good.replace(" ok\n", " FAIL\n", 1)
    problems += _rejects("verify exit code 4", wl.check(inp, (4, bad)), "code 4")
    problems += _rejects("verify row marked FAIL", wl.check(inp, (0, bad)), f"{n - 1} ok")
    problems += _rejects(
        "verify output missing rows", wl.check(inp, (0, "header\n" + row)), "1 rows"
    )
    if wl.good_points(inp, (4, bad), ["FAIL"]) != n - 1:
        problems.append(f"verify output with one FAIL row did not give {n - 1} good points")
    return problems


class _Stub(workloads.Workload):
    """Op 0 raises, op 1 gives a wrong output, op 2 passes."""

    round_size = 1
    points_per_op = 5

    def make_input(self, k: int) -> int:
        return k

    def op(self, k: int) -> int:
        if k == 0:
            raise RuntimeError("gift wrapping did not terminate")
        return k

    def check(self, k: int, _out) -> list[str]:
        return ["wrong"] if k == 1 else []


def check_failure_accounting() -> list[str]:
    res = run.measure(_Stub(), n_ops=3)
    got = (res.attempted, res.failed, res.ok_points)
    if got != (3, 2, 5):
        return [f"stub ops gave (attempted, failed, good points) {got}, not (3, 2, 5)"]
    return []


def main() -> int:
    if not run.has_sources():
        print(f"no incrrelay sources under {run.SRC}", file=sys.stderr)
        return 2
    mods = run.load_program()
    problems = (
        check_generators()
        + check_paper22(mods)
        + check_verify_output()
        + check_failure_accounting()
    )
    for p in problems:
        print(p)
    print("selfcheck: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
