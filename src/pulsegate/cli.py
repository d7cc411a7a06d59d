"""Command line front end.

Subcommands:
    respond   amplitudes + waveforms at one pulse duration
    sweep     duration sweep -> CSV table
    peak      refine the photon-transfer maximum -> JSON record
    modes     export the two output mode waveforms -> CSV

Exit codes: 0 success, 2 configuration error (an unwritable output path
among them), 3 solver error, 4 no peak in bracket. Every file, the
waveform CSVs of ``respond`` and ``modes`` included, is written
atomically (temp file + rename) with 17 significant digits, so identical
invocations produce byte-identical output. CSV tables are formatted a
block of rows at a time and streamed into the temp file, so no CSV table
is held in memory as one string. ``respond`` puts its two files in
place only once both are written; see `_write_atomic`.

A block's text is byte for byte what ``'%.17g' % x`` gives each value,
built by a numpy kernel (`_fill_slots`), one call per block over the
columns that are not +0.0 throughout the block. A +0.0 column right after
such a column takes no slot of its own: its ``0`` rides in the spare bytes
of the slot before it; any other is written as ``0`` outright. Each value
the kernel takes gets its 17 digits as round(|x| 10**(16 - e)), e =
floor(log10|x|), from a double-double table of powers of ten and
Dekker's exact product; its sign, "0.000" prefix, point, exponent and
separator come from small lookup tables into a fixed NUL-padded slot,
and the NULs are dropped. ``'%.17g'`` itself formats what the kernel
cannot decide: values within 1e-6 of a 17-digit tie, digit counts not
strictly between 10**16 and 10**17 (log10 a decade off, powers of ten),
|x| outside [1e-270, 1e290] (subnormals among them), inf and nan.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import os
import stat
import sys
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, NoPeakError, PulseGateError
from .pulses import DEFAULT_POLICY, GridPolicy, PulseShape, PulseSpec
from .sweep import (DEFAULT_PEAK_BRACKET, DEFAULT_SWEEP_POINTS, DEFAULT_SWEEP_RANGE,
                    PointSolution, find_peak_c12, solve_spec, solve_point, sweep)

SWEEP_HEADER = "gamma_t,c11_re,c11_im,c11_sq,c12_sq,cr_sq,overlap_re,overlap_im"

BUILTIN_SHAPES = [s.value for s in PulseShape if s is not PulseShape.CUSTOM]

# rows per chunk of `_csv`, one kernel call each: large enough to amortise
# numpy's per-call cost, small enough that the call's float64 temporaries
# (12k values for a real pulse's 6 live signal columns) stay in a 2 MB L2
_CSV_BLOCK_ROWS = 2048

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


def _write_atomic(*files: tuple[Path, Iterable[bytes]]) -> None:
    """Write each (path, chunks) pair to a temp file beside `path` and, once
    all are complete, put each in place. If anything raises before then, a
    `path` that is a directory among it, existing paths are left as they were.

    An existing `path` is swapped with the temp file, whose name then holds
    the old text; every temp file left is unlinked. A rename over a file is
    as atomic, but ext4 (auto_da_alloc) then writes the new file out to
    disk before the rename returns, so each replacement would wait on the
    disk: 0.1-1 s per waveform file. Where the swap is unavailable, or
    `path` is new, `os.replace` renames.

    The temp file, `path` with a random hex part and ".tmp" added, is
    created as a plain open creates a file, 0666 less the umask, which the
    kernel applies; only an existing `path` has its permission bits copied
    to it. An OSError, the path's or the disk's, is raised as ConfigError."""
    tmps = []
    try:
        for path, chunks in files:
            if path.is_dir():
                raise ConfigError(f"cannot write {path}: Is a directory")
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = f"{path}.{os.urandom(8).hex()}.tmp"
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            tmps.append(tmp)
            with os.fdopen(fd, "wb") as fh:
                if path.is_file():
                    os.fchmod(fd, stat.S_IMODE(path.stat().st_mode))
                fh.writelines(chunks)
        for (path, _), tmp in zip(files, tmps):
            if not _exchange(tmp, path):
                os.replace(tmp, path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        for tmp in filter(os.path.exists, tmps):    # a temp file, or an old file swapped out
            os.unlink(tmp)


# -- the 17-digit kernel -------------------------------------------------
# A value's text is built in a slot of six 64-bit words, written out
# little-endian; its NUL bytes are dropped once per block. Digit j (0-16)
# of the 17 sits at byte 6 + 2j and a point after it at byte 7 + 2j:
#   word 0     byte 0 the sign, bytes 1-5 the "0." to "0.000" of
#              1e-4 <= |x| < 1, byte 6 the first digit, byte 7 its point
#   words 1-4  digits 2-17, four to a word, each with its point place
#   word 5     the exponent ("e-05" to "e+290"), byte 5 the separator;
#              bytes 6-7 the 0 and separator of a +0.0 column folded in
_SLOT_WORDS = 6
# |x| outside this range, subnormals among it, is left to '%.17g'; inside
# it no step of the exact product below under- or overflows
_LIVE_MIN, _LIVE_MAX = 1e-270, 1e290
# floor(log10|x|) of a value in that range, or one either side of it
# where log10 rounds across a power of ten; the tables indexed by the
# exponent e hold e = _E_MIN.._E_MAX at e - _E_MIN
_E_MIN, _E_MAX = -272, 291
_SPLIT = 134217729.0        # 2**27 + 1: Veltkamp's split of a double


def _split(x):
    """x = hi + lo exactly, each with at most 26 significant bits."""
    c = x * _SPLIT
    hi = c - (c - x)
    return hi, x - hi


def _words(chunks) -> np.ndarray:
    """Little-endian 8-byte chunks as native uint64 words."""
    return np.frombuffer(b"".join(chunks), "<u8").astype(np.uint64)


def _pow10_tables():
    """Per exponent e: 10**(16 - e) as a double-double H + L, from exact
    integers (to about 2**-106 relative), with H's split."""
    h, lo = [], []
    for e in range(_E_MIN, _E_MAX + 1):
        # 10**(16 - e) = num/den; int / int rounds correctly
        num, den = (10**(16 - e), 1) if e <= 16 else (1, 10**(e - 16))
        h.append(num / den)
        hn, hd = h[-1].as_integer_ratio()
        lo.append((num * hd - hn * den) / (den * hd))
    h = np.array(h)
    return (h, *_split(h), np.array(lo))


def _layout_tables():
    """Per exponent e (as above): the count P of digits before the point
    ('%.17g' puts it after the first digit in exponent form, after digit
    e + 1 in fixed form, and in the "0.000" prefix below 1); words 0-4
    with the prefix and that point; and the exponent word. Per count k of
    digits kept: the masks of words 0-4 that keep the sign, the prefix,
    the first k digits and a point with a kept digit after it. Per 4-digit
    group: its word and, for each of words 1-4, how many of digits 2-17 run
    up to the group's last nonzero digit there (0 for 0000)."""
    before, points, expo = [], [], []
    for e in range(_E_MIN, _E_MAX + 1):
        fixed = -4 <= e < 17
        P = e + 1 if 0 <= e < 17 else 0 if fixed else 1
        head = "0." + "0" * (-e - 1) if -4 <= e < 0 else ""
        slot = bytearray(("\0" + head).encode().ljust(40, b"\0"))
        if P:
            slot[5 + 2 * P] = ord(".")
        before.append(P)
        points.append(bytes(slot))
        expo.append(("" if fixed else f"e{e:+03d}").encode().ljust(8, b"\0"))
    keep = []
    for k in range(18):
        mask = bytearray(b"\xff" * 6 + bytes(34))
        for j in range(k):
            mask[6 + 2 * j] = 0xff
            if j:
                mask[5 + 2 * j] = 0xff      # the point before digit j
        keep.append(bytes(mask))
    g = np.arange(10000)
    digits = [g // 10**(3 - d) % 10 for d in range(4)]
    group = sum((dig + ord("0")).astype(np.uint64) << np.uint64(16 * d)
                for d, dig in enumerate(digits))
    ends = 4 - sum(g % 10**d == 0 for d in range(1, 5))     # 0 for 0000
    return (np.array(before, np.int8),
            _words(points).reshape(-1, 5).T.copy(),
            _words(expo),
            _words(keep).reshape(-1, 5).T.copy(),
            group,
            np.array([np.where(ends, 4 * w + ends, 0) for w in range(4)], np.int8))


_POW_H, _POW_HH, _POW_HL, _POW_L = _pow10_tables()
_BEFORE, _POINT, _EXPONENT, _KEEP, _GROUP, _ENDS = _layout_tables()
_ZERO_SLOT = _words([b"0".ljust(8 * _SLOT_WORDS, b"\0")])


def _fill_slots(x: np.ndarray, out: np.ndarray) -> None:
    """Write the slots of the 1-d float64 values x into out, shape (len(x),
    6): each value byte for byte as '%.17g' gives it, less the separator."""
    a = np.abs(x)
    zero = a == 0.0
    live = (a >= _LIVE_MIN) & (a <= _LIVE_MAX)
    a[~live] = 1.0
    i = np.floor(np.log10(a)).astype(np.intp) - _E_MIN
    # the 17 digits n = round(a * 10**(16 - e)), e = floor(log10 a): Dekker's
    # exact product a*H = p + err plus a*L, summed into the small r that
    # rounds beside p's integer part; r is within about 1e-14 of exact
    p = a * _POW_H[i]
    ah, al = _split(a)
    hh, hl = _POW_HH[i], _POW_HL[i]
    err = ((ah * hh - p) + ah * hl + al * hh) + al * hl
    whole = p.astype(np.int64)
    r = (p - whole) + err + a * _POW_L[i]
    rr = np.rint(r)
    n = whole + rr.astype(np.int64)
    # within 1e-6 of a tie, or n not strictly inside 17 digits (log10 off
    # by one, a power of ten, a round up to 10**17), '%.17g' decides; a
    # signed zero (n = 10**16 from a = 1.0) is written as its sign and 0
    fallback = (~live | (np.abs(r - rr) > 0.5 - 1e-6) | (n <= 10**16) | (n >= 10**17)) & ~zero
    top = n // 10**8
    lo = n - top * 10**8
    first = top // 10**8
    hi = top - first * 10**8
    first[zero] = 0
    g1 = hi // 10**4
    g3 = lo // 10**4
    groups = (g1, hi - g1 * 10**4, g3, lo - g3 * 10**4)
    # digits kept: up to the last nonzero one, and at least to the point
    ends = np.maximum(np.maximum(_ENDS[0][groups[0]], _ENDS[1][groups[1]]),
                      np.maximum(_ENDS[2][groups[2]], _ENDS[3][groups[3]]))
    k = np.maximum(ends + 1, _BEFORE[i])
    out[:, 0] = (_POINT[0][i] | (first.astype(np.uint64) + ord("0")) << 48   # byte 6
                 | np.signbit(x).astype(np.uint64) * ord("-")) & _KEEP[0][k]
    for w, g in enumerate(groups, start=1):
        out[:, w] = (_GROUP[g] | _POINT[w][i]) & _KEEP[w][k]
    out[:, 5] = _EXPONENT[i]
    for j in np.flatnonzero(fallback):
        out[j] = _words([("%.17g" % x[j]).encode().ljust(8 * _SLOT_WORDS, b"\0")])


def _csv_block(cols: Sequence[np.ndarray]) -> bytes:
    """The CSV rows, as ASCII bytes, of equal-length float64 columns, the
    live ones (not +0.0 throughout, bitwise) in one kernel call, row-major.
    A +0.0 column right after a live one takes no slot; any other is a slot
    of 0 (`_ZERO_SLOT`)."""
    live = np.array([x.view(np.uint64).any() for x in cols])
    folded = ~live & np.append(False, live[:-1])
    sep = np.full(len(cols), ord(","), np.uint64)
    sep[-1] = ord("\n")
    tail = sep << np.uint64(40)
    k = np.flatnonzero(folded)
    tail[k - 1] |= (sep[k] << np.uint64(8) | np.uint64(ord("0"))) << np.uint64(48)
    zero = ~live[~folded]
    slots = np.empty((len(cols[0]), len(zero), _SLOT_WORDS), np.uint64)
    fill = np.empty((len(cols[0]), live.sum(), _SLOT_WORDS), np.uint64) if zero.any() else slots
    if live.any():
        _fill_slots(np.stack([x for x, on in zip(cols, live) if on], axis=1).ravel(),
                    fill.reshape(-1, _SLOT_WORDS))
    if zero.any():
        slots[:, ~zero], slots[:, zero] = fill, _ZERO_SLOT
    slots[:, :, 5] |= tail[~folded]
    return slots.astype("<u8", copy=False).tobytes().translate(None, b"\0")


def _csv(header: str, cols: Sequence) -> Iterator[bytes]:
    """Yield a CSV table as ASCII chunks: the header line, then the rows of
    `cols` (equal-length float columns) at 17 significant digits,
    `_CSV_BLOCK_ROWS` rows per chunk."""
    yield (header + "\n").encode()
    cols = [np.asarray(c, dtype=float) for c in cols]
    for a in range(0, len(cols[0]), _CSV_BLOCK_ROWS):
        yield _csv_block([c[a:a + _CSV_BLOCK_ROWS] for c in cols])


def _waveform_columns(sol: PointSolution, signals, stride: int) -> list:
    """Every `stride`-th node of the grid: t, then re and im of each signal
    (zeros where a signal is None)."""
    cols = [sol.grid.times()[::stride]]
    for sig in signals:
        v = np.zeros(sol.grid.n) if sig is None else sig.values
        cols += [v.real[::stride], v.imag[::stride]]
    return cols


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    """The waveform grid of respond and modes; sweep and peak build none."""
    p.add_argument("--points-per-unit", type=int, default=DEFAULT_POLICY.samples_per_unit,
                   help="samples per min(T, 3/Gamma) of pulse duration "
                        f"(default {DEFAULT_POLICY.samples_per_unit})")
    p.add_argument("--tail", type=float, default=DEFAULT_POLICY.tail,
                   help=f"grid extent past the pulse, units 1/Gamma (default {DEFAULT_POLICY.tail})")
    p.add_argument("--lead-pad", type=float, default=DEFAULT_POLICY.lead_pad,
                   help="grid extent before the pulse, units 1/Gamma: where exported "
                        "waveforms and the trapezoid sums begin; the atom starts at rest "
                        "there, or in its driven state for rising-exp and sym-exp, which "
                        f"have been on since t = -inf (default {DEFAULT_POLICY.lead_pad})")


def _add_shape_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--shape", required=True, choices=BUILTIN_SHAPES + ["custom"],
                   help="input pulse family")
    p.add_argument("--pulse-file", type=Path, default=None,
                   help="sampled waveform for --shape custom: one sample per line, "
                        "columns t,value or t,re,im, ascending t")
    p.add_argument("--gamma-t", type=float, default=None,
                   help="pulse duration in units 1/Gamma (built-in shapes)")


def _solution_from(args) -> PointSolution:
    if args.stride < 1:
        raise ConfigError(f"--stride must be at least 1, got {args.stride}")
    policy = GridPolicy(samples_per_unit=args.points_per_unit,
                        tail=args.tail, lead_pad=args.lead_pad)
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
    return json.dumps({k: _fmt(v) if isinstance(v, float) else v for k, v in record.items()},
                      indent=2) + "\n"


def cmd_respond(args) -> int:
    sol = _solution_from(args)
    # the file names append to the prefix: Path.with_suffix would replace a
    # dotted last part of it (run/gauss_0.5 -> run/gauss_0.signals.csv)
    out = Path(args.out or f"respond_{args.shape}")
    cols = _waveform_columns(sol, (sol.b_in, sol.pair.linear, sol.pair.cubic,
                                   sol.decomposition.psi1, sol.decomposition.psi2),
                             args.stride)
    header = ("t,b_in_re,b_in_im,b1_re,b1_im,b3_re,b3_im,"
              "psi1_re,psi1_im,psi2_re,psi2_im")
    record = _summary_dict(sol)
    if args.format == "json":
        text = _json_text(record)
    else:
        row = ",".join(str(v) if isinstance(v, (str, bool)) else _fmt(v)
                       for v in record.values())
        text = ",".join(record) + "\n" + row + "\n"
    _write_atomic((Path(f"{out}.signals.csv"), _csv(header, cols)),
                  (Path(f"{out}.summary.{args.format}"), [text.encode()]))
    print(_json_text(record), end="")
    return 0


def cmd_sweep(args) -> int:
    rows = sweep(args.shape, args.gt_min, args.gt_max, args.num, log_spaced=not args.linear)
    out = Path(args.out) if args.out else Path(f"sweep_{args.shape}.csv")
    _write_atomic((out, _csv(SWEEP_HEADER, [[getattr(r, name) for r in rows]
                                            for name in SWEEP_HEADER.split(",")])))
    print(f"wrote {len(rows)} rows to {out}")
    return 0


def cmd_peak(args) -> int:
    res = find_peak_c12(args.shape, (args.gt_min, args.gt_max))
    record = {"shape": res.shape.value,
              "gamma_t_star": res.gamma_t_star,
              "c12_sq_star": res.c12_sq_star,
              "c11_at_peak_re": res.c11_at_peak.real,
              "c11_at_peak_im": res.c11_at_peak.imag}
    text = _json_text(record)
    if args.out:
        _write_atomic((Path(args.out), [text.encode()]))
    print(text, end="")
    return 0


def cmd_modes(args) -> int:
    sol = _solution_from(args)
    modes = sol.modes()
    out = Path(args.out) if args.out else Path(f"modes_{args.shape}.csv")
    cols = _waveform_columns(sol, modes, args.stride)
    _write_atomic((out, _csv("t,psi1_re,psi1_im,psi2_re,psi2_im", cols)))
    print(f"wrote {len(cols[0])} rows to {out}")
    return 0


@functools.cache    # one parse tree per process; the cmd_* read module globals when called
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

    p = sub.add_parser("sweep", help="duration sweep to CSV",
                       description="Amplitudes of the continuum outputs over a range of "
                                   "durations; no grid is built, so no grid flags apply.")
    p.add_argument("--shape", required=True, choices=BUILTIN_SHAPES)
    p.add_argument("--from", dest="gt_min", type=float, default=DEFAULT_SWEEP_RANGE[0],
                   help=f"smallest gamma_t (default {DEFAULT_SWEEP_RANGE[0]})")
    p.add_argument("--to", dest="gt_max", type=float, default=DEFAULT_SWEEP_RANGE[1],
                   help=f"largest gamma_t (default {DEFAULT_SWEEP_RANGE[1]})")
    p.add_argument("--num", type=int, default=DEFAULT_SWEEP_POINTS,
                   help=f"number of points (default {DEFAULT_SWEEP_POINTS})")
    p.add_argument("--linear", action="store_true", help="linear instead of log spacing")
    p.add_argument("--out", help="CSV path (default sweep_<shape>.csv)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("peak", help="refine the c12_sq maximum",
                       description="The c12_sq maximum of the continuum amplitudes; no "
                                   "grid is built, so no grid flags apply.")
    p.add_argument("--shape", required=True, choices=BUILTIN_SHAPES)
    p.add_argument("--from", dest="gt_min", type=float, default=DEFAULT_PEAK_BRACKET[0],
                   help=f"bracket lower edge (default {DEFAULT_PEAK_BRACKET[0]:g})")
    p.add_argument("--to", dest="gt_max", type=float, default=DEFAULT_PEAK_BRACKET[1],
                   help=f"bracket upper edge (default {DEFAULT_PEAK_BRACKET[1]:g})")
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PulseGateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 4 if isinstance(exc, NoPeakError) else 3


if __name__ == "__main__":
    sys.exit(main())
