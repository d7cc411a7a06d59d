import dataclasses
import importlib
import json
import math
import os
import stat
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import trapezoid

import _oracles as orc
from pulsegate import cli, errors
from pulsegate.cli import SWEEP_HEADER, main
from pulsegate.pulses import GridPolicy, PulseSpec
from pulsegate.sweep import solve_point, solve_spec

FAST = ["--points-per-unit", "400"]
SIGNALS_HEADER = ("t,b_in_re,b_in_im,b1_re,b1_im,b3_re,b3_im,"
                  "psi1_re,psi1_im,psi2_re,psi2_im")
# values whose 17-digit text is easiest to get wrong: signed zero, the
# smallest subnormal, the largest finite, the switch to exponent form
# (1e16 and 1e-5), an inexact decimal, and the non-finite values
EDGE_VALUES = [-0.0, 0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
               1e16, 1e-5, 0.1, math.nan, math.inf, -math.inf]


def ulps_from(x, d):
    """x moved d units in the last place (toward +inf for d > 0)."""
    for _ in range(abs(d)):
        x = np.nextafter(x, math.copysign(math.inf, d))
    return x


def run(*argv):
    return main([str(a) for a in argv])


def no_umask(mask):
    """os.umask for a test in which nothing may change the process umask."""
    raise AssertionError("a file write changed the process umask")


def assert_same_text(got, want):
    """Equality of two large texts, reported as the first line that differs
    (pytest's own diff of megabyte strings takes minutes)."""
    if got != want:
        a, b = got.splitlines(keepends=True), want.splitlines(keepends=True)
        i = next((k for k, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        pytest.fail(f"{len(a)} lines against {len(b)}; first difference at line {i}: "
                    f"{a[i] if i < len(a) else None!r} != {b[i] if i < len(b) else None!r}")


class TestRespond:
    def test_rising_exp_summary(self, tmp_path, capsys):
        out = tmp_path / "r"
        assert run("respond", "--shape", "rising-exp", "--gamma-t", "1",
                   "--out", out) == 0
        record = json.loads((tmp_path / "r.summary.json").read_text())
        assert float(record["c12_sq"]) == pytest.approx(2 / 3, abs=1e-4)
        assert float(record["cr_sq"]) == pytest.approx(1 / 3, abs=1e-4)
        assert record["circle_ok"] and record["reduction_ok"]
        # stdout carries the same record
        assert json.loads(capsys.readouterr().out)["shape"] == "rising-exp"

    def test_signals_file_reparses(self, tmp_path):
        out = tmp_path / "r"
        run("respond", "--shape", "gauss", "--gamma-t", "1", "--out", out,
            "--stride", "8", *FAST)
        lines = (tmp_path / "r.signals.csv").read_text().splitlines()
        assert lines[0] == SIGNALS_HEADER
        data = np.loadtxt(lines[1:], delimiter=",")
        assert data.shape[1] == 11
        # b_in column integrates to ~1 (stride-8 trapezoid)
        t, b = data[:, 0], data[:, 1]
        assert trapezoid(b**2, t) == pytest.approx(1.0, abs=1e-3)

    def test_csv_summary_format(self, tmp_path):
        out = tmp_path / "r"
        run("respond", "--shape", "gauss", "--gamma-t", "1", "--out", out,
            "--format", "csv", *FAST)
        header, row = (tmp_path / "r.summary.csv").read_text().splitlines()
        assert header.split(",")[:3] == ["shape", "gamma_t", "c11_re"]
        assert row.split(",")[0] == "gauss"

    def test_dotted_prefixes_keep_their_own_files(self, tmp_path):
        # the names append to the prefix: gauss_0.799 and gauss_0.5 must not
        # both become gauss_0.signals.csv and overwrite one another
        for gt in ("0.799", "0.5"):
            assert run("respond", "--shape", "gauss", "--gamma-t", gt, "--stride", "64",
                       "--out", tmp_path / f"gauss_{gt}", *FAST) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "gauss_0.5.signals.csv", "gauss_0.5.summary.json",
            "gauss_0.799.signals.csv", "gauss_0.799.summary.json"]
        for gt in ("0.799", "0.5"):
            record = json.loads((tmp_path / f"gauss_{gt}.summary.json").read_text())
            assert float(record["gamma_t"]) == float(gt)
        run("respond", "--shape", "gauss", "--gamma-t", "0.5", "--stride", "64",
            "--out", tmp_path / "gauss_0.5", "--format", "csv", *FAST)
        assert (tmp_path / "gauss_0.5.summary.csv").is_file()

    def test_out_of_range_duration_exits_2(self):
        assert run("respond", "--shape", "gauss", "--gamma-t", "1e-9") == 2

    @staticmethod
    def gauss_file(path, offset=0.0):
        """The gaussian of duration 1 as a 6001-sample file over [-3, 3] +
        offset."""
        tt = np.linspace(-3, 3, 6001)
        vv = math.sqrt(2 / math.sqrt(math.pi)) * np.exp(-2 * tt**2)
        path.write_text("\n".join(f"{a} {b}" for a, b in zip(tt + offset, vv)))
        return path

    def test_custom_round_trip_matches_builtin(self, tmp_path, capsys):
        pf = self.gauss_file(tmp_path / "f.txt")
        out1, out2 = tmp_path / "custom", tmp_path / "builtin"
        assert run("respond", "--shape", "custom", "--pulse-file", pf,
                   "--out", out1) == 0
        assert run("respond", "--shape", "gauss", "--gamma-t", "1",
                   "--out", out2) == 0
        a = json.loads((tmp_path / "custom.summary.json").read_text())
        b = json.loads((tmp_path / "builtin.summary.json").read_text())
        for key in ("c11_re", "c12_sq", "cr_sq", "overlap_re"):
            assert float(a[key]) == pytest.approx(float(b[key]), abs=1e-4)

    def test_custom_times_far_from_zero_exit_2(self, tmp_path, capsys):
        # at |t| ~ 1e9 doubles are 1.2e-7 apart, 4e-5 of the 3e-3 grid step
        pf = self.gauss_file(tmp_path / "f.txt", offset=1e9)
        assert run("respond", "--shape", "custom", "--pulse-file", pf,
                   "--out", tmp_path / "o") == 2
        assert "shift the times toward t = 0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [pf]

    def test_custom_times_near_zero_keep_the_amplitudes(self, tmp_path):
        for name, offset in (("a", 0.0), ("b", 1e3)):
            pf = self.gauss_file(tmp_path / f"{name}.txt", offset)
            assert run("respond", "--shape", "custom", "--pulse-file", pf,
                       "--out", tmp_path / name) == 0
        a, b = (json.loads((tmp_path / f"{name}.summary.json").read_text()) for name in "ab")
        for key in ("c11_re", "c11_im", "c12_sq", "cr_sq", "overlap_re", "overlap_im"):
            assert float(a[key]) == pytest.approx(float(b[key]), abs=1e-12), key

    def test_custom_without_file_exits_2(self):
        assert run("respond", "--shape", "custom", "--gamma-t", "1") == 2

    def test_custom_with_gamma_t_exits_2(self, tmp_path):
        pf = tmp_path / "f.txt"
        pf.write_text("0 1\n1 1\n")
        assert run("respond", "--shape", "custom", "--pulse-file", pf,
                   "--gamma-t", "1") == 2

    def test_truncated_tail_exits_3(self, tmp_path):
        assert run("respond", "--shape", "gauss", "--gamma-t", "1",
                   "--out", tmp_path / "x", "--tail", "0.5") == 3

    def test_grid_over_the_node_budget_exits_2(self, tmp_path, monkeypatch, capsys):
        sweep_module = importlib.import_module("pulsegate.sweep")
        monkeypatch.setattr(sweep_module, "WAVEFORM_NODE_BUDGET", 1000)
        out = tmp_path / "r"
        assert run("respond", "--shape", "gauss", "--gamma-t", "1", "--out", out) == 2
        assert "budget of 1000" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


class TestSweepCmd:
    def test_small_sweep_csv(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run("sweep", "--shape", "rising-exp", "--from", "0.5", "--to", "2",
                   "--num", "5", "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == SWEEP_HEADER
        assert len(lines) == 6
        rows = np.loadtxt(lines[1:], delimiter=",")
        assert rows[0, 0] == pytest.approx(0.5)
        assert rows[-1, 0] == pytest.approx(2.0)
        # middle row is gamma_t = 1: the analytic peak
        assert rows[2, 4] == pytest.approx(2 / 3, abs=1e-3)

    def test_degenerate_range_exits_2(self, tmp_path):
        assert run("sweep", "--shape", "gauss", "--from", "1", "--to", "1",
                   "--num", "2", "--out", tmp_path / "s.csv") == 2

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--shape", "gauss", "--from", "0.5", "--to", "5",
                "--num", "4"]
        run(*args, "--out", a)
        run(*args, "--out", b)
        assert a.read_bytes() == b.read_bytes()

    def test_failed_point_exits_3_naming_gamma_t(self, tmp_path, monkeypatch, capsys):
        # the second duration fails: sweep() re-raises its error class with
        # the duration named, and the command writes no table
        sweep_module = importlib.import_module("pulsegate.sweep")
        run_point = sweep_module.run_point
        second = sweep_module.sweep_durations(0.5, 2.0, 3)[1]

        def fail_second(shape, gt):
            if gt == second:
                raise errors.SolverError("boom")
            return run_point(shape, gt)

        monkeypatch.setattr(sweep_module, "run_point", fail_second)
        message = f"at gamma_t={second:g}: boom"
        with pytest.raises(errors.SolverError) as exc:
            sweep_module.sweep("gauss", 0.5, 2.0, 3)
        assert str(exc.value) == message
        out = tmp_path / "s.csv"
        assert run("sweep", "--shape", "gauss", "--from", "0.5", "--to", "2",
                   "--num", "3", "--out", out) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_workers_flag_is_refused(self, tmp_path, capsys):
        # a sweep runs in the calling process and takes no worker count
        with pytest.raises(SystemExit) as exc:
            run("sweep", "--shape", "gauss", "--workers", "2", "--out", tmp_path / "s.csv")
        assert exc.value.code == 2
        assert "unrecognized arguments: --workers" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_seventeen_digit_precision(self, tmp_path):
        out = tmp_path / "s.csv"
        run("sweep", "--shape", "gauss", "--from", "0.5", "--to", "5",
            "--num", "3", "--out", out)
        row = out.read_text().splitlines()[1].split(",")
        parsed = float(row[3])
        assert format(parsed, ".17g") == row[3]


class TestPeakCmd:
    def test_rising_exp_peak_json(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        assert run("peak", "--shape", "rising-exp", "--from", "0.3", "--to", "3",
                   "--out", out) == 0
        rec = json.loads(out.read_text())
        assert float(rec["gamma_t_star"]) == pytest.approx(1.0, rel=2e-3)
        assert float(rec["c12_sq_star"]) == pytest.approx(2 / 3, abs=1e-4)
        assert abs(float(rec["c11_at_peak_re"])) < 1e-3

    @pytest.mark.parametrize("flag", ["--tail", "--lead-pad"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_grid_flag_exits_2(self, flag, value, capsys):
        # peak builds no grid and takes no grid flag; respond, whose grid
        # the flag sets, refuses the value
        with pytest.raises(SystemExit) as exc:
            run("peak", "--shape", "gauss", flag, value)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert run("respond", "--shape", "gauss", "--gamma-t", "1", flag, value) == 2
        assert "must be finite" in capsys.readouterr().err

    def test_tail_bracket_exits_4(self):
        assert run("peak", "--shape", "gauss", "--from", "500", "--to", "1000") == 4

    @pytest.mark.parametrize("flag, value, edge", [("--to", "inf", "inf"),
                                                   ("--to", "1e5", "100000"),
                                                   ("--from", "1e-4", "0.0001")])
    def test_out_of_range_bracket_solves_nothing(self, flag, value, edge, tmp_path,
                                                 monkeypatch, capsys):
        # refused on the bracket's edge, as a sweep's bound is, before any
        # probe is solved and with no numpy warning
        def never(*args):
            raise AssertionError("a point was solved")

        monkeypatch.setattr(importlib.import_module("pulsegate.sweep"), "run_point", never)
        out = tmp_path / "p.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("peak", "--shape", "rect", flag, value, "--out", out) == 2
        assert capsys.readouterr().err == (f"error: gamma_t={edge} outside the supported "
                                           "range [0.001, 10000]\n")
        assert not out.exists()


class TestModesCmd:
    def test_columns_and_values(self, tmp_path):
        out = tmp_path / "m.csv"
        assert run("modes", "--shape", "rising-exp", "--gamma-t", "1",
                   "--out", out, "--stride", "4") == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,psi1_re,psi1_im,psi2_re,psi2_im"
        data = np.loadtxt(lines[1:], delimiter=",")
        t, p1re = data[:, 0], data[:, 1]
        assert np.max(np.abs(p1re[t < -0.01])) < 1e-4  # delayed linear mode
        # psi2 hugs the input side: its mass sits at t < 0
        p2 = data[:, 3]
        assert trapezoid(p2[t < 0] ** 2, t[t < 0]) > 0.9 * trapezoid(p2**2, t)

    def test_undefined_mode_exits_3(self, tmp_path, monkeypatch, capsys):
        # the command and PointSolution.modes raise the same SolverError
        sweep_module = importlib.import_module("pulsegate.sweep")
        decompose = sweep_module.decompose
        monkeypatch.setattr(sweep_module, "decompose",
                            lambda pair: dataclasses.replace(decompose(pair), psi2=None))
        message = ("photon transfer is negligible at gamma_t=1; "
                   "the orthogonal mode has no defined shape")
        out = tmp_path / "m.csv"
        assert run("modes", "--shape", "gauss", "--gamma-t", "1", "--out", out, *FAST) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
        with pytest.raises(errors.SolverError) as exc:
            sweep_module.solve_point("gauss", 1.0, GridPolicy(samples_per_unit=400)).modes()
        assert str(exc.value) == message


class TestWaveformFiles:
    ARGS = ["--shape", "gauss", "--gamma-t", "1", *FAST]

    @pytest.mark.parametrize("stride", [1, 7])
    def test_rerun_is_byte_identical(self, tmp_path, stride):
        for tag in ("a", "b"):
            assert run("respond", *self.ARGS, "--stride", stride,
                       "--out", tmp_path / tag) == 0
            assert run("modes", *self.ARGS, "--stride", stride,
                       "--out", tmp_path / f"{tag}.modes.csv") == 0
        for suffix in (".signals.csv", ".summary.json", ".modes.csv"):
            a, b = (tmp_path / f"{tag}{suffix}" for tag in ("a", "b"))
            assert_same_text(a.read_bytes().decode(), b.read_bytes().decode())

    @pytest.mark.parametrize("stride", ["0", "-3"])
    @pytest.mark.parametrize("cmd", ["respond", "modes"])
    def test_stride_below_1_exits_2_before_solving(self, cmd, stride, tmp_path,
                                                   monkeypatch, capsys):
        def no_solve(*args):
            raise AssertionError("solved before the stride was checked")
        monkeypatch.setattr(cli, "solve_point", no_solve)
        assert run(cmd, *self.ARGS, "--stride", stride, "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == f"error: --stride must be at least 1, got {stride}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("shape", ["rect", "rising-exp", "sym-exp", "gauss"])
    def test_files_match_the_per_value_reference(self, shape, tmp_path):
        # a real pulse: every _im column is +0.0 throughout (folded into the
        # slot of the _re column before it)
        args = ["--shape", shape, "--gamma-t", "1", *FAST, "--stride", "1"]
        run("respond", *args, "--out", tmp_path / "r")
        run("modes", *args, "--out", tmp_path / "m.csv")
        sol = solve_point(shape, 1.0, GridPolicy(samples_per_unit=400))
        d = sol.decomposition
        b_in, b1, b3 = sol.b_in.values, sol.pair.linear.values, sol.pair.cubic.values
        p1, p2 = d.psi1.values, d.psi2.values
        t = sol.grid.times()
        signals = orc.csv_text(SIGNALS_HEADER, zip(
            t, b_in.real, b_in.imag, b1.real, b1.imag, b3.real, b3.imag,
            p1.real, p1.imag, p2.real, p2.imag))
        modes = orc.csv_text("t,psi1_re,psi1_im,psi2_re,psi2_im",
                             zip(t, p1.real, p1.imag, p2.real, p2.imag))
        text = (tmp_path / "r.signals.csv").read_text()
        assert text.count("\n") == sol.grid.n + 1
        assert_same_text(text, signals)
        assert_same_text((tmp_path / "m.csv").read_text(), modes)

    def test_complex_pulse_files_match_the_per_value_reference(self, tmp_path):
        # a chirped gaussian: every column is live in the table, but b_in is
        # +0.0 past the last sample, where b_in_re folds into t's slot and
        # b_in_im gets a slot of 0
        tt = np.arange(-30, 31) / 10
        zz = np.exp(-tt**2 + 0.8j * tt)
        pf = tmp_path / "chirp.txt"
        pf.write_text("".join(f"{t!r} {z.real!r} {z.imag!r}\n"
                              for t, z in zip(tt.tolist(), zz.tolist())))
        args = ["--shape", "custom", "--pulse-file", pf, "--stride", "1", *FAST]
        assert run("respond", *args, "--out", tmp_path / "r") == 0
        assert run("modes", *args, "--out", tmp_path / "m.csv") == 0
        sol = solve_spec(PulseSpec.from_file(pf), GridPolicy(samples_per_unit=400))
        d = sol.decomposition
        signals = [sol.b_in, sol.pair.linear, sol.pair.cubic, d.psi1, d.psi2]
        cols = [sol.grid.times()] + [part for sig in signals
                                     for part in (sig.values.real, sig.values.imag)]
        assert all(c.view(np.uint64).any() for c in cols)
        assert_same_text((tmp_path / "r.signals.csv").read_text(),
                         orc.csv_text(SIGNALS_HEADER, zip(*cols)))
        assert_same_text((tmp_path / "m.csv").read_text(),
                         orc.csv_text("t,psi1_re,psi1_im,psi2_re,psi2_im",
                                      zip(cols[0], *cols[7:])))

    @pytest.mark.parametrize("shape, gt", [("rect", 1.557), ("rising-exp", 1.0),
                                           ("sym-exp", 0.789), ("gauss", 0.799)])
    def test_real_pulse_writes_no_negative_zero(self, shape, gt, tmp_path):
        # real waveforms: every _im field of respond and modes is 0, and no
        # field of either file is -0
        args = ["--shape", shape, "--gamma-t", gt, "--stride", "1"]
        assert run("respond", *args, "--out", tmp_path / "r") == 0
        assert run("modes", *args, "--out", tmp_path / "m.csv") == 0
        for name in ("r.signals.csv", "m.csv"):
            header, *rows = (tmp_path / name).read_text().splitlines()
            im = [k for k, col in enumerate(header.split(",")) if col.endswith("_im")]
            assert len(im) == (5 if name == "r.signals.csv" else 2)
            for row in rows:
                fields = row.split(",")
                assert all(fields[k] == "0" for k in im) and "-0" not in fields, row


class TestCsvWriter:
    @pytest.mark.parametrize("ncols", [5, 8, 11])
    def test_matches_the_per_value_reference(self, ncols, monkeypatch):
        n = 23
        rng = np.random.default_rng(ncols)
        values = rng.standard_normal(n * ncols) * 10.0 ** rng.integers(-300, 300, n * ncols)
        values[:2 * len(EDGE_VALUES)] = EDGE_VALUES * 2
        cols = list(rng.permutation(values).reshape(n, ncols).T)
        header = ",".join(f"c{j}" for j in range(ncols))
        want = orc.csv_text(header, zip(*cols))
        for block in (1, 7, n - 1, n, n + 1):
            monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", block)
            chunks = list(cli._csv(header, cols))
            assert len(chunks) == 1 + -(-n // block), f"block of {block}"
            assert b"".join(chunks) == want.encode(), f"block of {block}"

    @staticmethod
    def hard_values(case):
        """Values whose 17-digit text the kernel must get right or leave to
        '%.17g': 1-d, in no particular order."""
        rng = np.random.default_rng(17)
        if case == "random-bits":
            # every exponent, nan and inf patterns among them, and subnormals
            bits = rng.integers(0, 2**64, 100_000, dtype=np.uint64, endpoint=False)
            bits[:5000] >>= np.uint64(12)       # sign and exponent 0: subnormal
            return bits.view(np.float64)
        if case == "powers-of-ten":
            # 10**k and its neighbours 1 and 2 ulp either side, every k
            base = np.array([float(f"1e{k}") for k in range(-323, 309)])
            return np.concatenate([ulps_from(base, d) for d in range(-2, 3)])
        if case == "ties":
            # k * 2**-(17 - e), k odd, in [10**e, 10**(e+1)): 17 digits and a half
            # (exactly: x * 10**(16 - e) is k * 5**(16 - e) / 2)
            out = []
            for e in range(-7, 16):
                lo = math.ceil(10.0**e * 2.0**(17 - e))
                hi = min(10**(e + 1) * 2**(17 - e), 2**53)
                k = rng.integers(lo, hi, 200) | 1
                x = np.ldexp(k.astype(float), e - 17)
                assert (Fraction(x[0]) * Fraction(10) ** (16 - e)).denominator == 2
                out.append(x)
            return np.concatenate(out)
        if case == "switch-points":
            # either side of the fixed/exponent switches, far enough that a
            # 17-digit round crosses them
            base = np.array([1e-5, 1e-4, 1e16, 1e17])
            return np.concatenate([ulps_from(base, d) for d in range(-40, 41)])
        raise ValueError(case)

    @pytest.mark.parametrize("case", ["random-bits", "powers-of-ten", "ties", "switch-points"])
    def test_hard_values_match_the_per_value_reference(self, case):
        x = self.hard_values(case)
        if case != "random-bits":       # random bits carry both signs already
            x = np.concatenate([x, -x])
        x = np.concatenate([x, np.zeros(-len(x) % 5)])
        cols = list(x.reshape(5, -1))
        header = "a,b,c,d,e"
        assert b"".join(cli._csv(header, cols)) == orc.csv_text(header, zip(*cols)).encode()

    def test_zero_and_non_finite_columns(self, monkeypatch):
        # +0.0 throughout a block is written without the kernel, -0.0 and
        # mixed signed zeros through it; nan and inf are left to '%.17g'
        n = 20
        plus, minus = np.zeros(n), np.full(n, -0.0)
        mixed = np.where(np.arange(n) % 3, 0.0, -0.0)
        late = np.zeros(n)
        late[-3:] = [1.5, math.nan, -math.inf]    # +0.0 in all but its last block
        edge = np.resize(EDGE_VALUES, n)
        cols = [plus, minus, mixed, late, edge, plus]
        header = ",".join(f"c{j}" for j in range(len(cols)))
        want = orc.csv_text(header, zip(*cols))
        for block in (1, 7, n):
            monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", block)
            assert b"".join(cli._csv(header, cols)) == want.encode(), f"block of {block}"

    @pytest.mark.parametrize("table", ["mixed", "one-live", "one-zero", "one-minus",
                                       "all-zero"])
    def test_zero_columns_fold_into_the_slot_before(self, table, monkeypatch):
        # a +0.0 column right after a live one rides in that one's slot; a
        # leading one, or one after a folded one, gets a slot of 0; -0.0 is
        # live. Each block makes one kernel call, over its live values
        n = 20
        rng = np.random.default_rng(25)
        plus, minus = np.zeros(n), np.full(n, -0.0)
        late = np.zeros(n)
        late[-3:] = [1.5, -2.0, 3.25]       # +0.0 in all but its last block
        early = rng.standard_normal(n)
        early[5:] = 0.0                     # live in its first block only
        cols = {"mixed": [plus, rng.standard_normal(n), plus, plus, rng.standard_normal(n),
                          minus, rng.standard_normal(n), late, plus, early, plus],
                "one-live": [rng.standard_normal(n)], "one-zero": [plus],
                "one-minus": [minus], "all-zero": [plus, plus, plus]}[table]
        header = ",".join(f"c{j}" for j in range(len(cols)))
        want = orc.csv_text(header, zip(*cols))
        fill_slots, calls = cli._fill_slots, []
        monkeypatch.setattr(cli, "_fill_slots", lambda x, out: (calls.append(len(x)),
                                                                 fill_slots(x, out)))
        for block in (1, 7, n, n + 1):
            monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", block)
            calls.clear()
            assert b"".join(cli._csv(header, cols)) == want.encode(), f"block of {block}"
            blocks = [[c[a:a + block] for c in cols] for a in range(0, n, block)]
            live = [len(b[0]) * sum(bool(c.view(np.uint64).any()) for c in b) for b in blocks]
            assert calls == [k for k in live if k], f"block of {block}"

    def test_failed_stream_leaves_the_target_as_it_was(self, tmp_path):
        target = tmp_path / "w.csv"
        target.write_bytes(b"old,file\n1,2\n")

        def chunks():
            yield b"t,x\n"
            yield b"1,2\n" * 100_000  # past the file buffer, so the temp file has data
            raise RuntimeError("mid-stream")

        with pytest.raises(RuntimeError, match="mid-stream"):
            cli._write_atomic((target, chunks()))
        assert target.read_bytes() == b"old,file\n1,2\n"
        assert list(tmp_path.iterdir()) == [target]

    @pytest.mark.parametrize("swap", [True, False], ids=["exchange", "replace"])
    def test_existing_target_is_replaced_without_leftovers(self, swap, tmp_path,
                                                           monkeypatch):
        if not swap:
            monkeypatch.setattr(cli, "_RENAMEAT2", None)
        elif cli._RENAMEAT2 is None:
            pytest.skip("no renameat2 in this C library")
        else:
            def no_rename(*args):
                raise AssertionError("an existing target must be swapped, not renamed over")
            monkeypatch.setattr(cli.os, "replace", no_rename)
        target = tmp_path / "w.csv"
        target.write_bytes(b"old,file\n1,2\n")
        assert cli._exchange(str(tmp_path / "absent"), target) is False
        cli._write_atomic((target, [b"t,x\n", b"3,4\n"]))
        assert target.read_bytes() == b"t,x\n3,4\n"
        assert list(tmp_path.iterdir()) == [target]

    @pytest.mark.parametrize("swap", [True, False], ids=["exchange", "replace"])
    def test_file_modes_follow_the_umask_and_the_old_file(self, swap, tmp_path,
                                                          monkeypatch):
        if not swap:
            monkeypatch.setattr(cli, "_RENAMEAT2", None)
        elif cli._RENAMEAT2 is None:
            pytest.skip("no renameat2 in this C library")
        kept = tmp_path / "kept.csv"
        kept.write_bytes(b"old,file\n")
        kept.chmod(0o640)
        umask = os.umask(0o022)
        try:
            with monkeypatch.context() as m:
                m.setattr(os, "umask", no_umask)
                cli._write_atomic((tmp_path / "new.csv", [b"t,x\n"]))
                cli._write_atomic((kept, [b"t,x\n"]))
        finally:
            os.umask(umask)
        assert stat.S_IMODE((tmp_path / "new.csv").stat().st_mode) == 0o644
        assert stat.S_IMODE(kept.stat().st_mode) == 0o640
        assert kept.read_bytes() == b"t,x\n"

    def test_commands_write_without_touching_the_umask(self, tmp_path, monkeypatch):
        # the kernel applies the umask when the temp file is created; reading
        # it by setting it would, for a moment, give 0666 files to any thread
        monkeypatch.setattr(os, "umask", no_umask)
        for _ in range(2):      # new files, then the same files replaced
            assert run("sweep", "--shape", "rect", "--num", "3", "--out", tmp_path / "s.csv") == 0
            assert run("respond", "--shape", "rect", "--gamma-t", "1", *FAST,
                       "--out", tmp_path / "r") == 0
        assert sorted(f.name for f in tmp_path.iterdir()) == ["r.signals.csv",
                                                              "r.summary.json", "s.csv"]

    def test_a_directory_in_the_way_is_not_swapped(self, tmp_path):
        target = tmp_path / "w.csv"
        target.mkdir()
        with pytest.raises(errors.ConfigError, match=f"^cannot write {target}: "):
            cli._write_atomic((target, [b"t,x\n"]))
        assert target.is_dir() and list(tmp_path.iterdir()) == [target]


class TestExitCodes:
    def test_one_error_class_per_exit_code(self):
        classes = {name for name, obj in vars(errors).items()
                   if isinstance(obj, type) and issubclass(obj, Exception)}
        assert classes == {"PulseGateError", "ConfigError", "SolverError", "NoPeakError"}

    @pytest.mark.parametrize("error, code", [(errors.ConfigError, 2),
                                             (errors.SolverError, 3),
                                             (errors.PulseGateError, 3),
                                             (errors.NoPeakError, 4)])
    def test_error_family_sets_the_code(self, error, code, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise error("boom")
        monkeypatch.setattr(cli, "find_peak_c12", fail)
        assert run("peak", "--shape", "gauss") == code
        assert capsys.readouterr().err == "error: boom\n"

    # each command's argv and the suffix it appends to --out
    WRITERS = {"respond": (["respond", "--shape", "rect", "--gamma-t", "1", *FAST],
                           ".signals.csv"),
               "sweep": (["sweep", "--shape", "rect", "--num", "3"], ""),
               "peak": (["peak", "--shape", "rect"], ""),
               "modes": (["modes", "--shape", "rect", "--gamma-t", "1", *FAST], "")}

    @pytest.mark.parametrize("blocker", ["under-a-file", "a-directory"])
    @pytest.mark.parametrize("command", WRITERS)
    def test_unwritable_out_exits_2(self, command, blocker, tmp_path, capsys):
        argv, suffix = self.WRITERS[command]
        if blocker == "under-a-file":
            (tmp_path / "afile").write_text("")
            out = tmp_path / "afile" / "x"
        else:
            out = tmp_path / "adir"
            (tmp_path / f"adir{suffix}").mkdir()
        assert run(*argv, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}{suffix}: ")
        assert err.count("\n") == 1
        assert not list(tmp_path.rglob("*.tmp"))

    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    def test_respond_writes_no_signals_without_its_summary(self, existing, tmp_path, capsys):
        argv, _ = self.WRITERS["respond"]
        out = tmp_path / "rp" / "x"
        signals = tmp_path / "rp" / "x.signals.csv"
        (tmp_path / "rp" / "x.summary.json").mkdir(parents=True)
        if existing:
            signals.write_bytes(b"old,signals\n1,2\n")
        assert run(*argv, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}.summary.json: ")
        assert err.count("\n") == 1
        if existing:
            assert signals.read_bytes() == b"old,signals\n1,2\n"
        else:
            assert not signals.exists()
        assert not list(tmp_path.rglob("*.tmp"))

    @pytest.mark.parametrize("flag, lo, hi", [("--to", 0.01, 1e5), ("--from", 1e-4, 1000.0)])
    def test_sweep_out_of_range_solves_nothing(self, flag, lo, hi, tmp_path, monkeypatch,
                                               capsys):
        # refused with the error run_point gives the bound outside
        # [1e-3, 1e4], before run_point is called at all
        sweep_module = importlib.import_module("pulsegate.sweep")
        with pytest.raises(errors.ConfigError) as exc:
            sweep_module.run_point("rect", lo if flag == "--from" else hi)

        def never(*args):
            raise AssertionError("a point was solved")

        monkeypatch.setattr(sweep_module, "run_point", never)
        out = tmp_path / "s.csv"
        assert run("sweep", "--shape", "rect", flag, lo if flag == "--from" else hi,
                   "--out", out) == 2
        assert capsys.readouterr().err == f"error: {exc.value}\n"
        assert not out.exists()


    def test_sweep_to_inf_names_inf(self, tmp_path, capfd):
        out = tmp_path / "s.csv"
        assert run("sweep", "--shape", "rect", "--to", "inf", "--out", out) == 2
        err = capfd.readouterr().err
        assert err.startswith("error: gamma_t=inf outside") and err.count("\n") == 1
        assert not out.exists()


class TestHugeGridExtent:
    @pytest.mark.parametrize("flag", ["--tail", "--lead-pad"])
    @pytest.mark.parametrize("cmd", [("sweep",), ("peak",), ("respond", "--gamma-t", "1")])
    def test_exits_2_before_writing(self, cmd, flag, tmp_path, capsys):
        # 1e308 is finite, but more grid steps than a float can count; 1e9
        # is far over the node budget, so no accepted grid starts so far
        # out that its node times lose the step: respond refuses the grid,
        # and sweep and peak, which build none, the flag
        for value in ("1e308", "1e9"):
            argv = (*cmd, "--shape", "rect", flag, value, "--out", tmp_path / "o")
            if cmd[0] == "respond":
                assert run(*argv) == 2
                assert capsys.readouterr().err.startswith("error: ")
            else:
                with pytest.raises(SystemExit) as exc:
                    run(*argv)
                assert exc.value.code == 2
                assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
            assert list(tmp_path.iterdir()) == []


class TestParser:
    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_shape_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["respond", "--shape", "sawtooth", "--gamma-t", "1"])
        assert exc.value.code == 2
