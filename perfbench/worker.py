"""One benchmark workload in one process.

Generates the workload's inputs from the seed, runs its ops in a closed
loop (one client; each op is issued when the previous one returns),
checks every op's output and prints a ``RESULT`` line with the timings or,
when traced, the per-layer metrics. ``run.py`` starts this file with BLAS
pinned to one thread and ``src`` on the path; ``--setup-only`` stops after
set-up, which is how ``run.py`` times process start to first op.

Workloads (the inputs differ per pass; the same seed gives the same
passes):

sweep   ``run_point`` over the default 121-point log grid 0.01..1000 for the
        four built-in shapes, ascending. Interior points are shifted by up
        to half a log step; both ends stay fixed.
peak    ``find_peak_c12`` per shape; both bracket edges of (0.1, 20)
        jittered by up to 0.02 decade.
export  ``pulsegate.cli.main`` running ``respond`` (json), then ``modes``,
        per shape at its peak gamma_t jittered by up to 5%, stride 1.
oracle  ``perturbative_extraction`` (criterion 8: amplitudes 0.02/0.04/0.06,
        fifth order deflated) per shape at its peak gamma_t jittered by up
        to 5%, on the 2000 samples-per-unit grid.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
import math
import random
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import pulsegate as pg
from tracing import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
if not Path(pg.__file__).resolve().is_relative_to(ROOT / "src"):
    raise ImportError(f"pulsegate imported from {pg.__file__}, not from {ROOT / 'src'}")

SWEEP = importlib.import_module("pulsegate.sweep")
CLI = importlib.import_module("pulsegate.cli")
BLOCH = importlib.import_module("pulsegate.bloch")


def _load_oracles():
    spec = importlib.util.spec_from_file_location("pulsegate_oracles",
                                                  ROOT / "tests" / "_oracles.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


ORC = _load_oracles()

SHAPES = ("rect", "rising-exp", "sym-exp", "gauss")
# measured peak (gamma_t*, c12_sq*) per shape, as tabulated in README
PEAKS = {"rect": (1.557, 0.6513), "rising-exp": (1.0, 2.0 / 3.0),
         "sym-exp": (0.789, 0.6325), "gauss": (0.799, 0.6418)}

BUDGET_TOL = 1e-9
RISING_TOL = 1e-5


def _problems_row(shape: str, gt: float, c11_sq: float, c12_sq: float,
                  cr_sq: float, overlap: complex) -> list[str]:
    """Checks shared by every op that yields amplitudes at one duration."""
    out = []
    lim = SWEEP.limit_report(overlap, c12_sq)
    if not (lim.circle_ok and lim.reduction_ok):
        out.append(f"quantum limit violated: circle {lim.circle_margin:.3e}, "
                   f"reduction {lim.reduction_margin:.3e}")
    budget = c11_sq + c12_sq + cr_sq - 1.0
    if not (abs(budget) <= BUDGET_TOL and cr_sq >= 0):
        out.append(f"probability budget off by {budget:.3e} (cr_sq={cr_sq:.3e})")
    if shape == "rising-exp":
        d12 = abs(c12_sq - ORC.rising_c12_sq(gt))
        dov = abs(overlap - ORC.rising_overlap(gt))
        if not (d12 <= RISING_TOL and dov <= RISING_TOL):
            out.append(f"rising-exp off its closed form: |dc12_sq|={d12:.2e}, "
                       f"|doverlap|={dov:.2e}")
    return [f"{shape} gamma_t={gt!r}: {p}" for p in out]


def _csv_problems(path: Path, sol, cols) -> list[str]:
    """An exported waveform file: one row per grid sample, and four sampled
    rows equal to the in-process waveforms at 17 digits."""
    # streamed, so the check adds little to the process's peak memory
    n = sol.grid.n
    sampled = (0, n // 3, n // 2, n - 1)
    got, last = {}, -1
    with path.open() as fh:
        for last, line in enumerate(fh, start=-1):     # the header is -1
            if last in sampled:
                got[last] = line.rstrip("\n")
    if last + 1 != n:
        return [f"{path.name}: {last + 1} rows, grid has n={n}"]
    t = sol.grid.times()
    for i in sampled:
        row = [t[i]]
        for sig in cols:
            row += [sig.values[i].real, sig.values[i].imag]
        text = ",".join(format(float(x), ".17g") for x in row)
        if got[i] != text:
            return [f"{path.name} row {i}: {got[i]!r} != {text!r}"]
    return []


def _jitter(rng: random.Random, half_width: float) -> float:
    return (2.0 * rng.random() - 1.0) * half_width


class Sweep:
    min_ops = 0     # one pass, 484 ops, outlasts a run

    def pass_inputs(self, rng):
        lo, hi = SWEEP.DEFAULT_SWEEP_RANGE
        n = SWEEP.DEFAULT_SWEEP_POINTS
        base = np.logspace(math.log10(lo), math.log10(hi), n)
        step = math.log10(hi / lo) / (n - 1)
        ops = []
        for shape in SHAPES:
            gts = [float(base[0])]
            gts += [float(g) * 10.0 ** _jitter(rng, 0.5 * step) for g in base[1:-1]]
            gts.append(float(base[-1]))
            ops.extend((shape, gt) for gt in gts)
        return ops

    def prepare(self, op):
        return op

    def run(self, op):
        return SWEEP.run_point(*op)

    def check(self, op, row):
        shape, gt = op
        if row.gamma_t != gt:
            return [f"{shape}: row gamma_t {row.gamma_t!r} != requested {gt!r}"]
        return _problems_row(shape, gt, row.c11_sq, row.c12_sq, row.cr_sq,
                             complex(row.overlap_re, row.overlap_im))

    def fingerprint(self, op, row):
        return repr(row)


class Peak:
    min_ops = 100   # p90 with 10 samples beyond it

    # edges move by up to 0.02 decade: a search's cost is dominated by its
    # shortest probes (samples ~ 1/gamma_t), so wider jitter spreads the
    # work per pass and with it the figures
    EDGE_JITTER = 0.02

    def pass_inputs(self, rng):
        return [(shape, (0.1 * 10.0 ** _jitter(rng, self.EDGE_JITTER),
                         20.0 * 10.0 ** _jitter(rng, self.EDGE_JITTER)))
                for shape in SHAPES]

    def prepare(self, op):
        return op

    def run(self, op):
        return SWEEP.find_peak_c12(*op)

    def check(self, op, res):
        shape, (lo, hi) = op
        gt, c12 = res.gamma_t_star, res.c12_sq_star
        ref_gt, ref_c12 = PEAKS[shape]
        out = []
        if not (lo < gt < hi):
            out.append(f"peak {gt!r} not strictly inside ({lo!r}, {hi!r})")
        if shape == "rising-exp":
            if not (abs(gt - 1.0) <= 1e-2 and abs(c12 - 2.0 / 3.0) <= RISING_TOL):
                out.append(f"rising-exp peak ({gt!r}, {c12!r}) is not (1, 2/3)")
        elif not (abs(gt / ref_gt - 1.0) <= 2e-3 and abs(c12 - ref_c12) <= 1e-4):
            out.append(f"peak ({gt!r}, {c12!r}) is not the measured ({ref_gt}, {ref_c12})")
        if not (abs(res.c11_at_peak) ** 2 + c12 <= 1.0 + BUDGET_TOL):
            out.append("|c11|^2 + c12^2 exceeds 1")
        return [f"{shape} bracket ({lo:.6g}, {hi:.6g}): {p}" for p in out]

    def fingerprint(self, op, res):
        return repr(res)


class Export:
    """One op exports one shape at its peak: ``respond`` (json summary), then
    ``modes``, each a ``pulsegate.cli.main`` invocation writing into the
    run's work directory."""

    # An op is a shape, not an invocation: the 8 invocation times per pass
    # fall in two clusters either side of p50, which then jumped between
    # them with the jitter. 6 passes put p90 inside the sym-exp cluster; 100
    # ops would take ~80 s (README "Left out").
    min_ops = 24
    SUMMARY_KEYS = ("gamma_t", "c11_re", "c11_im", "c11_sq", "c12_sq", "cr_sq",
                    "overlap_re", "overlap_im", "circle_margin", "reduction_margin")

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def pass_inputs(self, rng):
        return [(shape, PEAKS[shape][0] * (1.0 + _jitter(rng, 0.05))) for shape in SHAPES]

    def prepare(self, op, out_dir: Path | None = None):
        shape, gt = op
        prefix = (out_dir or self.workdir) / shape
        files = (prefix.with_suffix(".signals.csv"), prefix.with_suffix(".summary.json"),
                 prefix.with_suffix(".modes.csv"))
        common = ["--shape", shape, "--gamma-t", repr(gt), "--stride", "1"]
        argvs = (["respond", *common, "--out", str(prefix), "--format", "json"],
                 ["modes", *common, "--out", str(files[2])])
        return op, argvs, files

    def run(self, state):
        with contextlib.redirect_stdout(io.StringIO()):
            return tuple(CLI.main(argv) for argv in state[1])

    def check(self, state, codes):
        (shape, gt), _, (signals, summary_path, modes) = state
        tag = f"{shape} gamma_t={gt!r}"
        if codes != (0, 0):
            return [f"{tag}: exit codes (respond, modes) = {codes}"]
        sol = SWEEP.solve_point(shape, gt)
        d, lim = sol.decomposition, sol.limit
        out = []
        summary = json.loads(summary_path.read_text())
        want = {"gamma_t": sol.gamma_t, "c11_re": d.c11.real, "c11_im": d.c11.imag,
                "c11_sq": d.c11_sq, "c12_sq": d.c12_sq, "cr_sq": d.cr_sq,
                "overlap_re": d.overlap.real, "overlap_im": d.overlap.imag,
                "circle_margin": lim.circle_margin, "reduction_margin": lim.reduction_margin}
        for key in self.SUMMARY_KEYS:
            if summary.get(key) != format(want[key], ".17g"):
                out.append(f"summary {key}={summary.get(key)!r}, in-process "
                           f"{format(want[key], '.17g')}")
        if summary.get("circle_ok") is not True or summary.get("reduction_ok") is not True:
            out.append("summary reports a quantum-limit violation")
        out += _csv_problems(signals, sol,
                             (sol.b_in, sol.pair.linear, sol.pair.cubic, d.psi1, d.psi2))
        out += _csv_problems(modes, sol, (d.psi1, d.psi2))
        return ([f"{tag}: {p}" for p in out]
                + _problems_row(shape, gt, d.c11_sq, d.c12_sq, d.cr_sq, d.overlap))

    def fingerprint(self, state, codes):
        h = hashlib.sha256(repr(codes).encode())
        for path in state[2]:
            h.update(path.read_bytes())
        return h.hexdigest()

    def bytes_written(self, state) -> int:
        return sum(p.stat().st_size for p in state[2])

    def repeat_identical(self, op) -> list[str]:
        """The CLI contract: an identical invocation gives identical files."""
        first = self.prepare(op)
        with tempfile.TemporaryDirectory(dir=self.workdir) as other:
            again = self.prepare(op, Path(other))
            self.run(again)
            for a, b in zip(first[2], again[2]):
                if a.read_bytes() != b.read_bytes():
                    return [f"repeating the export of {op[0]} changed {a.name}"]
        return []


class Oracle:
    """Criterion 8: the RK4 full-Bloch fit must reproduce the chain's b1, b3."""

    min_ops = 12    # 3 passes of ~7 s; the pure-Python RK4 drifts with the host
    POLICY = pg.GridPolicy(samples_per_unit=2000)
    ALPHAS = (0.02, 0.04, 0.06)
    REL_TOL = 1e-3

    def pass_inputs(self, rng):
        return [(shape, PEAKS[shape][0] * (1.0 + _jitter(rng, 0.05))) for shape in SHAPES]

    def prepare(self, op):
        shape, gt = op
        return op, SWEEP.solve_spec(pg.PulseSpec(pg.PulseShape(shape), gt), self.POLICY)

    def run(self, state):
        b_in = state[1].b_in
        return BLOCH.perturbative_extraction(b_in, pg.SystemParams(), self.ALPHAS,
                                             deflate_fifth_order=True)

    def check(self, state, est):
        (shape, gt), sol = state
        out = []
        for name, got, ref in (("b1", est[0], sol.pair.linear), ("b3", est[1], sol.pair.cubic)):
            err = pg.norm_sq(pg.ComplexSignal(sol.grid, got.values - ref.values))
            rel = math.sqrt(err / pg.norm_sq(ref))
            if not rel < self.REL_TOL:
                out.append(f"{name} relative L2 error {rel:.3e} >= {self.REL_TOL:g}")
        return [f"{shape} gamma_t={gt!r}: {p}" for p in out]

    def fingerprint(self, state, est):
        h = hashlib.sha256()
        for sig in est:
            h.update(sig.values.tobytes())
        return h.hexdigest()


WORKLOADS = {"sweep": Sweep, "peak": Peak, "export": Export, "oracle": Oracle}


def make_workload(name: str, workdir: Path):
    if name == "export":
        return Export(workdir)
    return WORKLOADS[name]()


class Run:
    """Closed-loop measurement of one workload."""

    def __init__(self, workload, rng: random.Random, tracer=None):
        self.wl = workload
        self.rng = rng
        self.tracer = tracer
        self.op_s: list[float] = []         # untraced op latencies
        self.pass_s: list[float] = []       # untraced time per pass (sum of its ops)
        self.traced_s = 0.0                 # traced runs of the same ops (paired)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.layer_failed = {}
        self.cli_bytes = 0

    def _timed(self, state, traced: bool):
        """Run one op; returns (result, exception, seconds)."""
        if traced:
            self.tracer.install()
            self.tracer.op = self.attempted
        t0 = time.perf_counter()
        try:
            res, err = self.wl.run(state), None
        except Exception as exc:
            res, err = None, exc
        dt = time.perf_counter() - t0
        if traced:
            self.tracer.op = None
            self.tracer.uninstall()
        return res, err, dt

    def _fail(self, messages, layer=None):
        self.failed += 1
        self.problems.extend(messages[:max(0, 20 - len(self.problems))])
        if layer:
            self.layer_failed[layer] = self.layer_failed.get(layer, 0) + 1

    def one_op(self, op) -> float:
        state = self.wl.prepare(op)
        if self.tracer is None:
            res, err, dt = self._timed(state, False)
        else:
            # untraced and traced runs of the same input, alternating which
            # goes first so warm caches favour neither side
            runs = {}
            for traced in ((False, True) if self.attempted % 2 == 0 else (True, False)):
                r, e, t = self._timed(state, traced)
                runs[traced] = r, e, t, None if e else self.wl.fingerprint(state, r)
            res, err, dt, fp = runs[False]
            _, terr, tdt, tfp = runs[True]
            self.traced_s += tdt
            if err is None and terr is None and fp != tfp:
                err = AssertionError("traced and untraced results differ")
            err = err or terr
        self.op_s.append(dt)
        self.attempted += 1
        if err is not None:
            layer = getattr(err, "perfbench_layer", None) if self.tracer else None
            problems = [f"{op!r}: {type(err).__name__}: {err}"]
        else:
            layer = self._root_layer() if self.tracer else None
            problems = self.wl.check(state, res)
            if isinstance(self.wl, Export):
                self.cli_bytes += self.wl.bytes_written(state)
                if self.attempted == 1:
                    problems += self.wl.repeat_identical(op)
        if problems:
            self._fail(problems, layer)
        return dt

    def _root_layer(self):
        for span in reversed(self.tracer.spans):
            if span[2] is None:
                return span[1]
        return None

    def measure(self, seconds: float) -> None:
        # a traced run reports per-op means, which need no tail samples, and
        # runs each op twice, so it stops after --seconds and whole passes
        min_ops = 0 if self.tracer else self.wl.min_ops
        start = time.perf_counter()
        while True:
            self.pass_s.append(sum(self.one_op(op) for op in self.wl.pass_inputs(self.rng)))
            if time.perf_counter() - start >= seconds and self.attempted >= min_ops:
                return


def end_to_end(run: Run) -> dict:
    p50, p90 = np.percentile(np.array(run.op_s) * 1e3, [50, 90])
    return {
        "wall_s": (float(np.median(run.pass_s)), "s"),
        "op_ms_p50": (float(p50), "ms"),
        "op_ms_p90": (float(p90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(run: Run) -> dict:
    tr = run.tracer
    ops = run.attempted
    self_t = tr.self_times()
    total_t = tr.total_times()
    nested = tr.span_counts(nested_only=True)
    searches = tr.span_counts()["sweep.find_peak_c12"]

    def ms(name):
        return self_t.get(name, 0.0) * 1e3 / ops

    def layer_ms(layer):
        return sum(t for n, t in self_t.items() if n.startswith(layer + ".")) * 1e3 / ops

    def ratio(num, den, scale):
        return num * scale / den if den else 0.0

    c = tr.counts
    metrics = {
        "pulses.grid_ms": (ms("pulses.default_grid_for"), "ms"),
        "pulses.sample_ms": (ms("pulses.sample_pulse"), "ms"),
        "pulses.samples_per_op": (c["samples"] / ops, "count"),
        "pulses.samples_max": (tr.samples_max, "count"),
        "bloch.s1_ms": (ms("bloch.linear_response"), "ms"),
        "bloch.sz2_ms": (ms("bloch.second_order_excitation"), "ms"),
        "bloch.s3_ms": (ms("bloch.third_order_response"), "ms"),
        "bloch.chain_ns_per_sample": (
            ratio(total_t.get("bloch.solve_chain", 0.0), c["chain_samples"], 1e9), "ns"),
        "bloch.rk4_us_per_step": (
            ratio(total_t.get("bloch.full_bloch", 0.0), c["rk4_steps"], 1e6), "us"),
        "bloch.fit_ms": (ms("bloch.perturbative_extraction"), "ms"),
        "output.assemble_ms": (ms("output.assemble_outputs"), "ms"),
        "twophoton.decompose_ms": (ms("twophoton.decompose"), "ms"),
        "twophoton.limit_ms": (ms("twophoton.limit_report"), "ms"),
        "signal.inner_ms": (layer_ms("signal"), "ms"),
        "signal.signals_per_op": (c["signals"] / ops, "count"),
        "signal.bytes_per_op": (c["signal_bytes"] / ops, "B"),
        "sweep.self_ms": (layer_ms("sweep"), "ms"),
        "sweep.evals_per_search": (ratio(nested["sweep.run_point"], searches, 1), "count"),
        "cli.self_ms": (layer_ms("cli"), "ms"),
        "cli.bytes_per_op": (run.cli_bytes / ops, "B"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.failed"] = (run.layer_failed.get(layer, 0), "count")
    untraced = sum(run.op_s)
    metrics["trace.overhead_pct"] = ((run.traced_s / untraced - 1.0) * 100.0, "%")
    accounted = sum(self_t.values())
    metrics["trace.accounted_pct"] = (accounted / run.traced_s * 100.0, "%")
    return metrics


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": importlib.import_module("scipy").__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "seed": seed,
    }


def _blas_threads():
    """Threads OpenBLAS will use, asked from the library numpy loaded."""
    import ctypes
    import re
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return "unknown"
    for lib in sorted(set(re.findall(r"\S*openblas\S*\.so\S*", maps))):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            func = getattr(handle, sym, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return "unknown"


def result_of(run: Run, seed: int) -> dict:
    """What the worker reports to run.py."""
    metrics = per_layer(run) if run.tracer else end_to_end(run)
    return {
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "passes": len(run.pass_s),
        "op_ms": [t * 1e3 for t in run.op_s],
        "problems": run.problems,
        "env": environment(seed),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out-dir", type=Path, required=True)
    args = ap.parse_args(argv)

    args.out_dir.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.out_dir))
    try:
        rng = random.Random(args.seed)
        workload = make_workload(args.workload, workdir)
        tracer = None
        if args.trace:
            tracer = Tracer()
        print("READY", flush=True)
        if args.setup_only:
            return 0
        run = Run(workload, rng, tracer)
        run.measure(args.seconds)
        result = result_of(run, args.seed)
        if tracer:
            tracer.dump(args.out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
        print("RESULT " + json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
