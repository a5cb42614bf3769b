"""The benchmark's ingest check must still work on what fvl returns.

`perfbench/workloads.py` checks the windows read back from disk against
the windows of the same video in memory by walking `sample.flow` and
reading each frame's `.values`.  Windowing is fvl's, the check is the
benchmark's, so a change to `Sample` can break the check without any fvl
test noticing.  The module is loaded from its source, without writing
anything under `perfbench/`.
"""

import json
import subprocess
import sys
import textwrap
import types
from pathlib import Path

from fvl.dataio import (generate_scenario, random_scenario, read_video_dir,
                        windows_from_video, write_video_dir)

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads() -> types.ModuleType:
    module = types.ModuleType("workloads")
    module.__file__ = str(WORKLOADS)
    exec(compile(WORKLOADS.read_text(), str(WORKLOADS), "exec"), module.__dict__)
    return module


def test_ingest_check_passes_disk_windows_and_catches_changed_ones(tmp_path):
    workloads = load_workloads()
    window = dict(tau=workloads.TAU, delta=workloads.DELTA, n=workloads.INGEST_POOL_N)
    video = generate_scenario(random_scenario(4, frames=16, width=320, height=160))
    write_video_dir(video, tmp_path / "video")
    ingest = workloads.Ingest()
    ingest.reference = {"video": windows_from_video(video, expand=1.5, **window)[0]}
    check = ingest._window_check("video")

    loaded = read_video_dir(tmp_path / "video")
    disk = windows_from_video(loaded, expand=1.5, **window)[0]
    assert disk and check(disk) is None
    assert "pooled flow differs" in check(windows_from_video(loaded, expand=2.5,
                                                             **window)[0])
    assert "samples from disk" in check(disk[1:])


def test_ingest_setup_finds_its_two_videos(tmp_path, child_env):
    # Ingest set-up draws scenarios until INGEST_VIDEOS of them have
    # INGEST_TRACKS tracks of len(track) == INGEST_FRAMES each; were len
    # no longer a track's frame count it would never stop, and the
    # benchmark run would time out.  A child process bounds it here.
    code = textwrap.dedent(f"""
        import json, sys
        from pathlib import Path
        sys.path.insert(0, {str(Path(__file__).parent)!r})
        from test_workloads import load_workloads
        ingest = load_workloads().Ingest()
        ingest.setup(101, Path(sys.argv[1]))
        print(json.dumps(ingest.paths))
    """)
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          env=child_env(WORKLOADS.parents[1] / "src"),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    paths = json.loads(proc.stdout.splitlines()[-1])
    assert len(paths) == 2 and all(Path(path).is_file() for path in paths)


def test_forecast_setup_writes_reads_and_scores_its_sample_file(tmp_path, child_env):
    # Forecast set-up writes its test windows with `write_dataset`, reads
    # them back with `read_dataset`, predicts from them and runs `fvl
    # evaluate` on the file.  No other tier-1 test takes the benchmark's
    # path through a sample file; a child process keeps its imports apart.
    code = textwrap.dedent(f"""
        import json, sys
        from pathlib import Path
        sys.path.insert(0, {str(Path(__file__).parent)!r})
        from test_workloads import load_workloads
        forecast = load_workloads().Forecast()
        forecast.setup(101, Path(sys.argv[1]))
        report = json.loads(forecast.report_path.read_text())
        print(json.dumps([str(forecast.dataset), len(forecast.samples),
                          report["all"]["count"]]))
    """)
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          env=child_env(WORKLOADS.parents[1] / "src"),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    dataset, read, scored = json.loads(proc.stdout.splitlines()[-1])
    assert read == scored == load_workloads().TEST_SAMPLES
    assert Path(dataset).read_bytes()[:4] == b"FVLW"
