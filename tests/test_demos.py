"""The narrative demos run to completion.

Each demo runs in a subprocess from a copy under the test's temporary
directory, so its ``output/`` folder lands there.  Demos 04 and 05 (about 3
and 8 s) repeat experiments that the acceptance criteria already run.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import brokergame

DEMOS = Path(__file__).resolve().parents[1] / "demos"
SRC = Path(brokergame.__file__).resolve().parents[1]


@pytest.mark.parametrize("name", ["01_coefficient_tables.py", "02_sample_path.py",
                                  "03_filter_quality.py", "06_second_order_belief.py"])
def test_demo_runs(tmp_path, name):
    script = tmp_path / name
    shutil.copy(DEMOS / name, script)
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, MPLBACKEND="Agg")
    done = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip()
