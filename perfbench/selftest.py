#!/usr/bin/env python3
"""Fast self-test of the benchmark itself (a few seconds, no timing claims).

    python3 perfbench/selftest.py

1. Smoke: a tiny seed-0 run of two ops per workload, untraced and traced,
   goes through the same reporting code as ``run.py``; every metric that
   BENCHMARK.json names must be printed with its unit, and the traced run
   must reproduce the untraced results bit for bit.
2. Corruption: a wrong result from each workload (an overlap with the wrong
   sign, a peak on its bracket edge, an altered summary digit, a dropped
   CSV row or a fitted b3 with the wrong sign) must be counted as a failed
   op, never passed.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import pulsegate as pg  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracing import Tracer  # noqa: E402

FAILURES: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        FAILURES.append(what)


def tiny(workload, ops: int):
    """The workload cut to its first few ops of each pass, one pass."""
    full = workload.pass_inputs
    workload.pass_inputs = lambda rng: full(rng)[:ops]
    workload.min_ops = 0
    return workload


def smoke(spec: dict, workdir: Path) -> None:
    names = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for name in run.WORKLOADS:
        for trace in (0, 1):
            wl = tiny(worker.make_workload(name, workdir), 2)
            r = worker.Run(wl, random.Random(0), Tracer() if trace else None)
            r.measure(0.0)
            result = worker.result_of(r, 0)
            args = type("Args", (), {"workload": name, "seed": 0, "seconds": 0.0,
                                     "trace": trace})()
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                run.report(args, result, [0.5, 0.6, 0.7])
            lines = out.getvalue().splitlines()
            last = json.loads(lines[-1])
            tag = f"{name} trace={trace}"
            expect(last["correct"] and last["failed"] == 0 and last["attempted"] == 2,
                   f"{tag}: both ops pass their checks{'' if not trace else ' and match untraced'}")
            expect(sorted(last) == ["attempted", "correct", "failed", "metrics"],
                   f"{tag}: last line has exactly the four keys")
            want = {m["name"]: m["unit"] for m in names[trace]}
            got = {k: v["unit"] for k, v in last["metrics"].items()}
            expect(got == want, f"{tag}: metrics and units are exactly those of BENCHMARK.json")
            table = "\n".join(lines[:-1])
            expect(all(f" {n} " in table and f" {u} " in table for n, u in want.items()),
                   f"{tag}: every metric printed by name with its unit")


def corrupted(workload, op, corrupt) -> int:
    """Failed-op count of a one-op run whose result is corrupted."""
    clean_run = workload.run

    def bad_run(state):
        return corrupt(state, clean_run(state))

    workload.run = bad_run
    workload.pass_inputs = lambda rng: [op]
    workload.min_ops = 0
    r = worker.Run(workload, random.Random(0))
    r.measure(0.0)
    return r.failed


def corruption(workdir: Path) -> None:
    def flip_overlap(state, row):
        return dataclasses.replace(row, overlap_re=-row.overlap_re)

    for shape in ("rising-exp", "gauss"):
        n = corrupted(worker.Sweep(), (shape, 1.0), flip_overlap)
        expect(n == 1, f"sweep {shape}: overlap with the wrong sign counts as failed")

    def edge_peak(state, res):
        return dataclasses.replace(res, gamma_t_star=state[1][1])

    n = corrupted(worker.Peak(), ("rect", (0.1, 20.0)), edge_peak)
    expect(n == 1, "peak rect: a peak on the bracket edge counts as failed")

    def alter_summary(state, codes):
        path = state[2][1]
        rec = json.loads(path.read_text())
        rec["c12_sq"] = format(float(rec["c12_sq"]) * (1 + 1e-15), ".17g")
        path.write_text(json.dumps(rec))
        return codes

    def drop_mode_row(state, codes):
        path = state[2][2]
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-1]))
        return codes

    n = corrupted(worker.Export(workdir), ("rect", 1.557), alter_summary)
    expect(n == 1, "export rect: a summary digit that differs counts as failed")
    n = corrupted(worker.Export(workdir), ("rect", 1.557), drop_mode_row)
    expect(n == 1, "export rect: a dropped modes row counts as failed")

    def flip_b3(state, est):
        return est[0], pg.ComplexSignal(est[1].grid, -est[1].values)

    n = corrupted(worker.Oracle(), ("rect", 1.557), flip_b3)
    expect(n == 1, "oracle rect: a fitted b3 with the wrong sign counts as failed")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        run.OUT_DIR = Path(tmp)
        smoke(spec, Path(tmp))
        corruption(Path(tmp))
    print(f"{len(FAILURES)} self-test failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
