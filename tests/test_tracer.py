"""The benchmark tracer must still find every name it wraps in fvl.

`perfbench/tracer.py` patches fvl functions and methods by name; deleting
or renaming one of them breaks `perfbench/run.py --trace 1`.  It patches
fvl globally, so it is installed in a child process.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_on_the_current_package():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "perfbench"), str(ROOT / "src")]))
    code = "from tracer import Tracer; Tracer().install(); print('installed')"
    result = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "installed"
