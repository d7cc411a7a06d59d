"""The program names the benchmark harness looks up.

perfbench/tracing.py replaces the functions listed in its WRAP_SITES at
their module attributes, and perfbench/worker.py checks every op through
``pulsegate.sweep.limit_report``. A deletion or rename of any of them
breaks the benchmark, so it fails here too. The harness file is only
read: it is executed from its source text, which writes no bytecode
cache beside it.
"""

import importlib
import runpy
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
WRAP_SITES = runpy.run_path(str(TRACING))["WRAP_SITES"]


@pytest.mark.parametrize("module,attr", WRAP_SITES, ids=[".".join(s) for s in WRAP_SITES])
def test_wrap_site_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_worker_limit_report_resolves():
    assert callable(importlib.import_module("pulsegate.sweep").limit_report)
