"""Which scipy modules each entry point loads.

The amplitude path is numpy alone: importing the package, run_point, the
peak search and the `sweep` and `peak` commands load no scipy module. A
waveform solve loads scipy.signal for the ETD recurrence on first use.
Every case runs in a fresh interpreter, since this test process has scipy
loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pulsegate

SRC = str(Path(pulsegate.__file__).resolve().parent.parent)

# each case: the statements run after `import pulsegate, pulsegate.cli`,
# the scipy modules that must be loaded then, and those that must not be
CASES = {
    "import": ("", [], ["scipy"]),
    "run_point": ("for shape in ('rect', 'rising-exp', 'sym-exp', 'gauss'):\n"
                  "    pulsegate.run_point(shape, 1.0)", [], ["scipy"]),
    "cli-sweep": ("out = os.path.join(sys.argv[1], 'sweep.csv')\n"
                  "code = pulsegate.cli.main(['sweep', '--shape', 'rect', '--num', '5',"
                  " '--out', out])\n"
                  "assert code == 0 and os.path.getsize(out)", [], ["scipy"]),
    "find_peak": ("pulsegate.find_peak_c12('rect')", [], ["scipy"]),
    "cli-peak": ("code = pulsegate.cli.main(['peak', '--shape', 'rect'])\n"
                 "assert code == 0", [], ["scipy"]),
    "solve_point": ("pulsegate.solve_point('rect', 1.0)", ["scipy.signal"], []),
}

REPORT = """
import json, os, sys
import pulsegate, pulsegate.cli
{body}
print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))
"""


@pytest.mark.parametrize("case", list(CASES))
def test_scipy_loads_only_where_it_is_called(case, tmp_path):
    body, loaded, absent = CASES[case]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.run([sys.executable, "-c", REPORT.format(body=body), str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    modules = json.loads(proc.stdout.splitlines()[-1])
    for name in loaded:
        assert name in modules
    for name in absent:
        assert not [m for m in modules if m == name or m.startswith(name + ".")], modules
