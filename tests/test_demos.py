"""Every script in demos/, and README's library quick start, runs to
completion against the current package."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(argv, child_env):
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT,
                          env=child_env(ROOT / "src"), capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(script, child_env):
    run_python([str(script)], child_env)


def test_readme_quick_start_runs(child_env):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    assert "mean FDE" in run_python(["-c", code], child_env)
