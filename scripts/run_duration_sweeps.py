#!/usr/bin/env python3
"""Sweep pulse duration for all four built-in shapes and write one CSV per
shape (columns: gamma_t, c11 re/im/|.|^2, c12_sq, cr_sq, overlap re/im).
These tables are the duration-dependence curves of the two-photon
amplitudes, ready for plotting on a log duration axis."""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pulsegate.cli import main as cli_main
from pulsegate.pulses import PulseShape


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", type=Path, default=Path("results"))
    ap.add_argument("--num", type=int, default=121)
    args = ap.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)
    for shape in PulseShape:
        if shape is PulseShape.CUSTOM:
            continue
        out = args.outdir / f"sweep_{shape.value}.csv"
        rc = cli_main(["sweep", "--shape", shape.value, "--num", str(args.num), "--out", str(out)])
        if rc != 0:
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
