import functools
import importlib
import json
import math
import multiprocessing
import os
import stat
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from scipy.integrate import trapezoid

import _oracles as orc
from pulsegate import cli, errors
from pulsegate.cli import SWEEP_HEADER, main
from pulsegate.pulses import GridPolicy
from pulsegate.sweep import solve_point

FAST = ["--points-per-unit", "400"]
SIGNALS_HEADER = ("t,b_in_re,b_in_im,b1_re,b1_im,b3_re,b3_im,"
                  "psi1_re,psi1_im,psi2_re,psi2_im")
# values whose 17-digit text is easiest to get wrong: signed zero, the
# smallest subnormal, the largest finite, the switch to exponent form
# (1e16 and 1e-5), an inexact decimal, and the non-finite values
EDGE_VALUES = [-0.0, 0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
               1e16, 1e-5, 0.1, math.nan, math.inf, -math.inf]


def run(*argv):
    return main([str(a) for a in argv])


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

    def test_custom_round_trip_matches_builtin(self, tmp_path, capsys):
        tt = np.linspace(-3, 3, 6001)
        vv = math.sqrt(2 / math.sqrt(math.pi)) * np.exp(-2 * tt**2)
        pf = tmp_path / "f.txt"
        pf.write_text("\n".join(f"{a} {b}" for a, b in zip(tt, vv)))
        out1, out2 = tmp_path / "custom", tmp_path / "builtin"
        assert run("respond", "--shape", "custom", "--pulse-file", pf,
                   "--out", out1) == 0
        assert run("respond", "--shape", "gauss", "--gamma-t", "1",
                   "--out", out2) == 0
        a = json.loads((tmp_path / "custom.summary.json").read_text())
        b = json.loads((tmp_path / "builtin.summary.json").read_text())
        for key in ("c11_re", "c12_sq", "cr_sq", "overlap_re"):
            assert float(a[key]) == pytest.approx(float(b[key]), abs=1e-4)

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
                   "--num", "5", "--out", out, *FAST) == 0
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
                "--num", "4", *FAST]
        run(*args, "--out", a)
        run(*args, "--out", b)
        assert a.read_bytes() == b.read_bytes()

    def test_dead_worker_exits_3_naming_gamma_t(self, tmp_path, monkeypatch, capsys):
        # forked workers inherit the patched run_point and die on their first point
        sweep_module = importlib.import_module("pulsegate.sweep")
        monkeypatch.setattr(sweep_module, "run_point", lambda *args: os._exit(1))
        monkeypatch.setattr(sweep_module, "ProcessPoolExecutor", functools.partial(
            ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")))
        out = tmp_path / "s.csv"
        assert run("sweep", "--shape", "gauss", "--from", "0.5", "--to", "2",
                   "--num", "3", "--workers", "2", "--out", out) == 3
        err = capsys.readouterr().err
        assert "at gamma_t=0.5:" in err and "worker process died" in err
        assert not out.exists()

    def test_truncated_tail_exits_3(self, tmp_path):
        assert run("sweep", "--shape", "gauss", "--from", "0.5", "--to", "2",
                   "--num", "3", "--tail", "0.5", "--out", tmp_path / "s.csv") == 3

    def test_seventeen_digit_precision(self, tmp_path):
        out = tmp_path / "s.csv"
        run("sweep", "--shape", "gauss", "--from", "0.5", "--to", "5",
            "--num", "3", "--out", out, *FAST)
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
        assert run("peak", "--shape", "gauss", flag, value) == 2
        assert "must be finite" in capsys.readouterr().err

    def test_tail_bracket_exits_4(self):
        assert run("peak", "--shape", "gauss", "--from", "500", "--to", "1000",
                   *FAST) == 4


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

    def test_files_match_the_per_value_reference(self, tmp_path):
        run("respond", *self.ARGS, "--stride", "1", "--out", tmp_path / "r")
        run("modes", *self.ARGS, "--stride", "1", "--out", tmp_path / "m.csv")
        sol = solve_point("gauss", 1.0, GridPolicy(samples_per_unit=400))
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
            assert "".join(chunks) == want, f"block of {block}"

    def test_failed_stream_leaves_the_target_as_it_was(self, tmp_path):
        target = tmp_path / "w.csv"
        target.write_bytes(b"old,file\n1,2\n")

        def chunks():
            yield "t,x\n"
            yield "1,2\n" * 100_000  # past the file buffer, so the temp file has data
            raise RuntimeError("mid-stream")

        with pytest.raises(RuntimeError, match="mid-stream"):
            cli._write_atomic(target, chunks())
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
        cli._write_atomic(target, ["t,x\n", "3,4\n"])
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
            cli._write_atomic(tmp_path / "new.csv", ["t,x\n"])
            cli._write_atomic(kept, ["t,x\n"])
        finally:
            os.umask(umask)
        assert stat.S_IMODE((tmp_path / "new.csv").stat().st_mode) == 0o644
        assert stat.S_IMODE(kept.stat().st_mode) == 0o640
        assert kept.read_bytes() == b"t,x\n"

    def test_a_directory_in_the_way_is_not_swapped(self, tmp_path):
        target = tmp_path / "w.csv"
        target.mkdir()
        with pytest.raises(OSError):
            cli._write_atomic(target, ["t,x\n"])
        assert target.is_dir() and list(tmp_path.iterdir()) == [target]


class TestExitCodes:
    @pytest.mark.parametrize("error, code", [(errors.ConfigError, 2),
                                             (errors.NormViolationError, 3),
                                             (errors.PulseGateError, 3),
                                             (errors.NoPeakError, 4)])
    def test_error_family_sets_the_code(self, error, code, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise error("boom")
        monkeypatch.setattr(cli, "find_peak_c12", fail)
        assert run("peak", "--shape", "gauss") == code
        assert capsys.readouterr().err == "error: boom\n"


class TestParser:
    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_shape_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["respond", "--shape", "sawtooth", "--gamma-t", "1"])
        assert exc.value.code == 2
