"""No entry point loads scipy.

The package runs on numpy alone: importing it, run_point, the peak search,
a waveform solve and the `sweep`, `peak`, `respond` and `modes` commands
load no scipy module. Every case runs in a fresh interpreter, since this
test process has scipy loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pulsegate

SRC = str(Path(pulsegate.__file__).resolve().parent.parent)

# the statements each case runs after `import pulsegate, pulsegate.cli`,
# with `out` a fresh directory
CASES = {
    "import": "",
    "run_point": ("for shape in ('rect', 'rising-exp', 'sym-exp', 'gauss'):\n"
                  "    pulsegate.run_point(shape, 1.0)"),
    "cli-sweep": ("code = pulsegate.cli.main(['sweep', '--shape', 'rect', '--num', '5',"
                  " '--out', os.path.join(out, 'sweep.csv')])\n"
                  "assert code == 0 and os.path.getsize(os.path.join(out, 'sweep.csv'))"),
    "find_peak": "pulsegate.find_peak_c12('rect')",
    "cli-peak": ("code = pulsegate.cli.main(['peak', '--shape', 'rect'])\n"
                 "assert code == 0"),
    "solve_point": "pulsegate.solve_point('rect', 1.0)",
    "cli-respond": ("code = pulsegate.cli.main(['respond', '--shape', 'rect', '--gamma-t', '1',"
                    " '--out', os.path.join(out, 'r')])\n"
                    "assert code == 0 and os.path.getsize(os.path.join(out, 'r.signals.csv'))"),
    "cli-modes": ("code = pulsegate.cli.main(['modes', '--shape', 'rect', '--gamma-t', '1',"
                  " '--out', os.path.join(out, 'm.csv')])\n"
                  "assert code == 0 and os.path.getsize(os.path.join(out, 'm.csv'))"),
}

REPORT = """
import json, os, sys
import pulsegate, pulsegate.cli
out = sys.argv[1]
{body}
print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))
"""


@pytest.mark.parametrize("case", list(CASES))
def test_scipy_loads_only_where_it_is_called(case, tmp_path):
    # the package calls scipy nowhere, so no case may load any scipy module
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.run([sys.executable, "-c", REPORT.format(body=CASES[case]), str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
