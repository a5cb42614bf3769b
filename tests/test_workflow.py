"""The CI workflow parses and runs what this repository checks: a
workflow that does not parse starts no job, and nothing else says so."""

import json
import re
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def jobs():
    path = ROOT / ".github" / "workflows" / "tier1.yml"
    return yaml.safe_load(path.read_text())["jobs"]


def test_workflow_jobs_have_timeouts_and_runnable_steps(jobs):
    assert {"tests", "benchmark-smoke"} <= jobs.keys()
    for name, job in jobs.items():
        assert "timeout-minutes" in job, name
        for step in job["steps"]:
            assert "run" in step or "uses" in step, (name, step)


def test_workflow_runs_tier1_and_every_benchmark_workload(jobs):
    runs = [step.get("run", "") for step in jobs["tests"]["steps"]]
    assert any("python -m pytest -q --continue-on-collection-errors" in run
               for run in runs), runs
    matrix = jobs["benchmark-smoke"]["strategy"]["matrix"]
    workloads = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert sorted(matrix["workload"]) == sorted(w["name"] for w in workloads)
    assert sorted(matrix["trace"]) == [0, 1]


def test_tier1_installs_every_package_of_the_test_extra(jobs):
    # `pip install .[test]` must give what CI runs tier-1 with; before,
    # the extra lacked pyyaml and this file was silently skipped
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    wanted = {re.split(r"[<>=!~\[; ]", requirement, maxsplit=1)[0].lower()
              for requirement in [*project["dependencies"],
                                  *project["optional-dependencies"]["test"]]}
    installs = [step["run"].split()[2:] for step in jobs["tests"]["steps"]
                if step.get("run", "").startswith("pip install")]
    assert len(installs) == 1, installs
    assert "pyyaml" in wanted
    assert wanted <= {name.lower() for name in installs[0]}, installs
