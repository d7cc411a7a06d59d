#!/usr/bin/env python3
"""pulsegate benchmark: one workload per invocation, in a process of its own.

    python3 perfbench/run.py --workload {sweep,peak,export,oracle} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; ``src/pulsegate`` is imported from
there, nothing is installed. The workload runs in a child process with
BLAS pinned to one thread. ``--trace 0`` measures the end-to-end metrics:
set-up time (median of several process starts), then whole passes over
the workload until ``--seconds`` have passed and the workload's minimum op
count is reached. ``--trace 1`` runs every op twice, untraced and traced,
and reports the per-layer metrics. Every op's output is checked; a failed
check counts the op as failed. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. Records and spans go to ``.bench_out/`` in the checkout.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("sweep", "peak", "export", "oracle")
SETUP_STARTS = 3          # process starts timed per run; setup_s is their median
WORKER_TIMEOUT_S = 170.0

PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def worker_env() -> dict:
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def start_worker(args, setup_only: bool):
    """Start the worker; returns (process, seconds from start to READY)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(OUT_DIR)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=worker_env(),
                            cwd=ROOT)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker failed during set-up (exit {proc.returncode})")
    return proc, ready


def wait(proc) -> str:
    """Standard output of a worker that exited cleanly."""
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker exceeded {WORKER_TIMEOUT_S:g} s")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return out


def machine() -> dict:
    """CPU model, cache sizes and core count of this machine."""
    info = {"nproc": len(os.sched_getaffinity(0))}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        info["cpu"] = "unknown"
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    info["caches"] = caches
    return info


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="pulsegate benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "pulsegate" / "__init__.py").is_file():
        print(f"error: no pulsegate sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_STARTS - 1):
                proc, ready = start_worker(args, setup_only=True)
                wait(proc)
                setups.append(ready)
        proc, ready = start_worker(args, setup_only=False)
        setups.append(ready)
        lines = [ln for ln in wait(proc).splitlines() if ln.startswith("RESULT ")]
        if not lines:
            raise RuntimeError("worker printed no result")
        result = json.loads(lines[-1][len("RESULT "):])
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    report(args, result, setups)
    return 0


def report(args, result: dict, setups: list[float]) -> None:
    """Write the run record and print every metric; the last line is the
    JSON result object."""
    metrics = result["metrics"]
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
    env = {**machine(), **result["env"], "commit": git_commit(),
           "workload": args.workload, "seconds": args.seconds, "trace": args.trace}
    record = {"env": env, "metrics": metrics, "setup_samples_s": setups,
              **{k: result[k] for k in ("attempted", "failed", "passes", "problems", "op_ms")}}
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print_report(args, env, result, metrics, setups)
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


def print_report(args, env, result, metrics, setups) -> None:
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    n_ops = len(result["op_ms"])
    notes = {
        "setup_s": f"median of {len(setups)} process starts",
        "wall_s": f"median of {result['passes']} passes, {n_ops // max(1, result['passes'])} ops each",
        "op_ms_p50": f"{n_ops} samples",
        "op_ms_p90": f"{n_ops} samples, {n_ops - int(0.9 * n_ops)} beyond p90",
        "peak_rss_mb": "ru_maxrss of the workload process",
    }
    for name, m in metrics.items():
        note = notes.get(name, "")
        if args.trace and m["value"] == 0 and not name.endswith(".failed"):
            note = "not exercised by this workload"
        print(f"  {name:<26} {m['value']:>16.6g} {m['unit']:<6} {note}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'error_rate':<26} {failed / attempted:>16.6g} {'1':<6} "
          f"{failed} failed of {attempted} attempted")
    for problem in result["problems"]:
        print(f"  FAILED {problem}")


if __name__ == "__main__":
    sys.exit(main())
