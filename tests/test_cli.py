import functools
import importlib
import json
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from pulsegate.cli import SWEEP_HEADER, main

FAST = ["--points-per-unit", "400"]


def run(*argv):
    return main([str(a) for a in argv])


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
        assert lines[0] == ("t,b_in_re,b_in_im,b1_re,b1_im,b3_re,b3_im,"
                            "psi1_re,psi1_im,psi2_re,psi2_im")
        data = np.loadtxt(lines[1:], delimiter=",")
        assert data.shape[1] == 11
        # b_in column integrates to ~1 (stride-8 trapezoid)
        t, b = data[:, 0], data[:, 1]
        assert np.trapezoid(b**2, t) == pytest.approx(1.0, abs=1e-3)

    def test_csv_summary_format(self, tmp_path):
        out = tmp_path / "r"
        run("respond", "--shape", "gauss", "--gamma-t", "1", "--out", out,
            "--format", "csv", *FAST)
        header, row = (tmp_path / "r.summary.csv").read_text().splitlines()
        assert header.split(",")[:3] == ["shape", "gamma_t", "c11_re"]
        assert row.split(",")[0] == "gauss"

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
        assert np.trapezoid(p2[t < 0] ** 2, t[t < 0]) > 0.9 * np.trapezoid(p2**2, t)


class TestParser:
    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_shape_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["respond", "--shape", "sawtooth", "--gamma-t", "1"])
        assert exc.value.code == 2
