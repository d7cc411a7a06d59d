"""Command line front end.

Subcommands:
    respond   amplitudes + waveforms at one pulse duration
    sweep     duration sweep -> CSV table
    peak      refine the photon-transfer maximum -> JSON record
    modes     export the two output mode waveforms -> CSV

Exit codes: 0 success, 2 configuration error, 3 solver error, 4 no peak
in bracket. Every file, the waveform CSVs of ``respond`` and ``modes``
included, is written atomically (temp file + rename) with 17 significant
digits, so identical invocations produce byte-identical output. CSV
tables are formatted a block of rows at a time and streamed into the
temp file, so no CSV table is held in memory as one string. An existing
file is replaced by exchanging it with the temp file where the system
can (Linux ``renameat2``), so that the replacement does not wait on a
disk flush; see `_write_atomic`.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import stat
import sys
import tempfile
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, NoPeakError, PulseGateError, SolverError
from .pulses import DEFAULT_POLICY, GridPolicy, PulseShape, PulseSpec
from .sweep import (DEFAULT_SWEEP_POINTS, DEFAULT_SWEEP_RANGE, PointSolution,
                    find_peak_c12, solve_spec, solve_point, sweep)

SWEEP_HEADER = "gamma_t,c11_re,c11_im,c11_sq,c12_sq,cr_sq,overlap_re,overlap_im"

BUILTIN_SHAPES = [s.value for s in PulseShape if s is not PulseShape.CUSTOM]

# rows per `%` call in `_csv`: large enough to amortise the call, small
# enough that a block's text stays near 1 MB (11 columns of 17 digits)
_CSV_BLOCK_ROWS = 4096

# renameat2(2) and its flag that swaps two existing names in one step;
# None where the C library has no renameat2 (outside Linux)
_RENAMEAT2 = (getattr(ctypes.CDLL(None, use_errno=True), "renameat2", None)
              if sys.platform.startswith("linux") else None)
_AT_FDCWD, _RENAME_EXCHANGE = -100, 2


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _exchange(tmp: str, path: Path) -> bool:
    """Swap the names `tmp` and `path` atomically if `path` is an existing
    file and the system can; False (nothing changed) otherwise."""
    if _RENAMEAT2 is None or not path.is_file():
        return False
    return _RENAMEAT2(_AT_FDCWD, os.fsencode(tmp), _AT_FDCWD, os.fsencode(path),
                      _RENAME_EXCHANGE) == 0


def _file_mode(path: Path) -> int:
    """The permission bits of `path` if it exists, else 0o666 less the
    process umask."""
    try:
        return stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)     # the umask can only be read by setting it
        os.umask(umask)
        return 0o666 & ~umask


def _write_atomic(path: Path, chunks: Iterable[str]) -> None:
    """Write the text chunks to a temp file beside `path`, then put it in
    place of `path`. If anything raises, the temp file is removed and an
    existing `path` is left as it was.

    An existing `path` is swapped with the temp file, whose name then holds
    the old text and is unlinked. A rename over an existing file would be
    as atomic, but ext4 (auto_da_alloc) then writes the new file out to
    disk before the rename returns, so each replacement would wait on the
    disk: 0.1-1 s per waveform file. Where the swap is unavailable, or
    `path` is new, `os.replace` renames.

    The temp file, which mkstemp makes 0600, takes the permission bits of
    an existing `path`, or those a plain open gives a new file under the
    umask."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            os.fchmod(fd, _file_mode(path))
            fh.writelines(chunks)
        if _exchange(tmp, path):
            os.unlink(tmp)
        else:
            os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv(header: str, cols: Sequence) -> Iterator[str]:
    """Yield a CSV table as text chunks: the header line, then the rows of
    `cols` (equal-length float columns) at 17 significant digits,
    `_CSV_BLOCK_ROWS` rows per chunk."""
    yield header + "\n"
    table = np.column_stack(cols)
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    for a in range(0, len(table), _CSV_BLOCK_ROWS):
        block = table[a:a + _CSV_BLOCK_ROWS]
        yield (row * len(block)) % tuple(block.ravel().tolist())


def _waveform_columns(sol: PointSolution, signals, stride: int) -> list:
    """Every `stride`-th node of the grid: t, then re and im of each signal
    (zeros where a signal is None)."""
    cols = [sol.grid.times()[::stride]]
    for sig in signals:
        v = np.zeros(sol.grid.n) if sig is None else sig.values
        cols += [v.real[::stride], v.imag[::stride]]
    return cols


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--points-per-unit", type=int, default=DEFAULT_POLICY.samples_per_unit,
                   help="samples per min(T, 3/Gamma) of pulse duration "
                        f"(default {DEFAULT_POLICY.samples_per_unit})")
    p.add_argument("--tail", type=float, default=DEFAULT_POLICY.tail,
                   help=f"grid extent past the pulse, units 1/Gamma (default {DEFAULT_POLICY.tail})")
    p.add_argument("--lead-pad", type=float, default=DEFAULT_POLICY.lead_pad,
                   help=f"grid extent before the pulse (default {DEFAULT_POLICY.lead_pad})")


def _add_shape_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--shape", required=True, choices=BUILTIN_SHAPES + ["custom"],
                   help="input pulse family")
    p.add_argument("--pulse-file", type=Path, default=None,
                   help="sampled waveform for --shape custom: one sample per line, "
                        "columns t,value or t,re,im, ascending t")
    p.add_argument("--gamma-t", type=float, default=None,
                   help="pulse duration in units 1/Gamma (built-in shapes)")


def _policy_from(args) -> GridPolicy:
    return GridPolicy(samples_per_unit=args.points_per_unit,
                      tail=args.tail, lead_pad=args.lead_pad)


def _solution_from(args) -> PointSolution:
    policy = _policy_from(args)
    if args.shape == "custom":
        if args.pulse_file is None:
            raise ConfigError("--shape custom requires --pulse-file")
        if args.gamma_t is not None:
            raise ConfigError("--gamma-t does not apply to custom pulses; "
                              "the file carries its own time axis")
        return solve_spec(PulseSpec.from_file(args.pulse_file), policy)
    if args.pulse_file is not None:
        raise ConfigError("--pulse-file only applies to --shape custom")
    if args.gamma_t is None:
        raise ConfigError(f"--gamma-t is required for --shape {args.shape}")
    return solve_point(args.shape, args.gamma_t, policy)


def _summary_dict(sol: PointSolution) -> dict:
    d = sol.decomposition
    lim = sol.limit
    return {
        "shape": sol.spec.shape.value,
        "gamma_t": sol.gamma_t,
        "c11_re": d.c11.real, "c11_im": d.c11.imag,
        "c11_sq": d.c11_sq, "c12_sq": d.c12_sq, "cr_sq": d.cr_sq,
        "overlap_re": d.overlap.real, "overlap_im": d.overlap.imag,
        "circle_margin": lim.circle_margin,
        "reduction_margin": lim.reduction_margin,
        "circle_ok": lim.circle_ok, "reduction_ok": lim.reduction_ok,
    }


def _json_text(record: dict) -> str:
    def enc(x):
        return _fmt(x) if isinstance(x, float) else x
    return json.dumps({k: enc(v) for k, v in record.items()}, indent=2) + "\n"


def cmd_respond(args) -> int:
    sol = _solution_from(args)
    # the file names append to the prefix: Path.with_suffix would replace a
    # dotted last part of it (run/gauss_0.5 -> run/gauss_0.signals.csv)
    out = Path(args.out or f"respond_{args.shape}")
    cols = _waveform_columns(sol, (sol.b_in, sol.pair.linear, sol.pair.cubic,
                                   sol.decomposition.psi1, sol.decomposition.psi2),
                             max(1, args.stride))
    header = ("t,b_in_re,b_in_im,b1_re,b1_im,b3_re,b3_im,"
              "psi1_re,psi1_im,psi2_re,psi2_im")
    _write_atomic(Path(f"{out}.signals.csv"), _csv(header, cols))
    record = _summary_dict(sol)
    if args.format == "json":
        text = _json_text(record)
    else:
        row = ",".join(str(v) if isinstance(v, (str, bool)) else _fmt(v)
                       for v in record.values())
        text = ",".join(record) + "\n" + row + "\n"
    _write_atomic(Path(f"{out}.summary.{args.format}"), [text])
    print(_json_text(record), end="")
    return 0


def cmd_sweep(args) -> int:
    rows = sweep(args.shape, args.gt_min, args.gt_max, args.num,
                 log_spaced=not args.linear, policy=_policy_from(args),
                 workers=max(1, args.workers))
    out = Path(args.out) if args.out else Path(f"sweep_{args.shape}.csv")
    _write_atomic(out, _csv(SWEEP_HEADER, [[getattr(r, name) for r in rows]
                                           for name in SWEEP_HEADER.split(",")]))
    print(f"wrote {len(rows)} rows to {out}")
    return 0


def cmd_peak(args) -> int:
    res = find_peak_c12(args.shape, (args.gt_min, args.gt_max),
                        policy=_policy_from(args))
    record = {"shape": res.shape.value,
              "gamma_t_star": res.gamma_t_star,
              "c12_sq_star": res.c12_sq_star,
              "c11_at_peak_re": res.c11_at_peak.real,
              "c11_at_peak_im": res.c11_at_peak.imag}
    text = _json_text(record)
    if args.out:
        _write_atomic(Path(args.out), [text])
    print(text, end="")
    return 0


def cmd_modes(args) -> int:
    sol = _solution_from(args)
    dec = sol.decomposition
    if dec.psi2 is None:
        raise SolverError(f"photon transfer negligible at gamma_t={sol.gamma_t:g}; "
                          "no orthogonal mode to export")
    out = Path(args.out) if args.out else Path(f"modes_{args.shape}.csv")
    cols = _waveform_columns(sol, (dec.psi1, dec.psi2), max(1, args.stride))
    _write_atomic(out, _csv("t,psi1_re,psi1_im,psi2_re,psi2_im", cols))
    print(f"wrote {len(cols[0])} rows to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pulsegate",
        description="Two-photon gate amplitudes of a resonantly driven "
                    "two-level nonlinearity, from semiclassical pulse response.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("respond", help="single-duration response and summary")
    _add_shape_flags(p)
    _add_grid_flags(p)
    p.add_argument("--out", help="output prefix (writes <out>.signals.csv and summary)")
    p.add_argument("--format", choices=["json", "csv"], default="json",
                   help="summary file format (default json)")
    p.add_argument("--stride", type=int, default=1,
                   help="write every N-th sample of the waveforms")
    p.set_defaults(func=cmd_respond)

    p = sub.add_parser("sweep", help="duration sweep to CSV")
    p.add_argument("--shape", required=True, choices=BUILTIN_SHAPES)
    p.add_argument("--from", dest="gt_min", type=float, default=DEFAULT_SWEEP_RANGE[0],
                   help=f"smallest gamma_t (default {DEFAULT_SWEEP_RANGE[0]})")
    p.add_argument("--to", dest="gt_max", type=float, default=DEFAULT_SWEEP_RANGE[1],
                   help=f"largest gamma_t (default {DEFAULT_SWEEP_RANGE[1]})")
    p.add_argument("--num", type=int, default=DEFAULT_SWEEP_POINTS,
                   help=f"number of points (default {DEFAULT_SWEEP_POINTS})")
    p.add_argument("--linear", action="store_true", help="linear instead of log spacing")
    p.add_argument("--workers", type=int, default=1,
                   help="evaluate sweep points in this many processes; "
                        "output is identical regardless (default 1)")
    _add_grid_flags(p)
    p.add_argument("--out", help="CSV path (default sweep_<shape>.csv)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("peak", help="refine the c12_sq maximum")
    p.add_argument("--shape", required=True, choices=BUILTIN_SHAPES)
    p.add_argument("--from", dest="gt_min", type=float, default=0.1,
                   help="bracket lower edge (default 0.1)")
    p.add_argument("--to", dest="gt_max", type=float, default=20.0,
                   help="bracket upper edge (default 20)")
    _add_grid_flags(p)
    p.add_argument("--out", help="optional JSON output path")
    p.set_defaults(func=cmd_peak)

    p = sub.add_parser("modes", help="export psi1/psi2 waveforms")
    _add_shape_flags(p)
    _add_grid_flags(p)
    p.add_argument("--out", help="CSV path (default modes_<shape>.csv)")
    p.add_argument("--stride", type=int, default=1,
                   help="write every N-th sample")
    p.set_defaults(func=cmd_modes)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NoPeakError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except PulseGateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
