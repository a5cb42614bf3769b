"""Drive the full command-line pipeline in a scratch directory:
scenario files -> video dirs -> checkpoint -> reports.

Every command is echoed before it runs, so this doubles as a cheat
sheet for the `fvl` executable.

    python3 demos/cli_pipeline.py
"""

import subprocess
import sys
import tempfile
from pathlib import Path

from fvl.dataio import random_scenario, write_scenario_file


def run(*args):
    cmd = [sys.executable, "-m", "fvl.cli", *map(str, args)]
    print(f"$ fvl {' '.join(map(str, args))}")
    proc = subprocess.run(cmd, capture_output=True, text=True)
    for line in (proc.stdout + proc.stderr).strip().splitlines():
        print(f"    {line}")
    if proc.returncode != 0:
        raise SystemExit(f"command failed with exit code {proc.returncode}")


def main():
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        scenes = []
        for seed in (2, 4, 6):
            scene = tmp / f"scene{seed}.scn"
            write_scenario_file(scene, random_scenario(
                seed, frames=16, width=320, height=160))
            scenes.append(scene)
        print(f"wrote {len(scenes)} scenario files to {tmp}\n")

        data = tmp / "videos"
        run("generate", *scenes, "--out", data, "--tau", "4", "--delta", "3")

        checkpoint = tmp / "model.fvlw"
        run("train", "--dataset", data, "--out", checkpoint,
            "--variant", "xoe", "--hidden", "8", "--embed", "6",
            "--tau", "4", "--delta", "3", "--pool-n", "3",
            "--epochs", "4", "--batch", "8", "--seed", "3")

        run("evaluate", checkpoint, "--dataset", data,
            "--out", tmp / "report.json")
        run("evaluate", "linear", "--dataset", data,
            "--tau", "4", "--delta", "3")

        run("predict", checkpoint, "--dataset", data,
            "--out", tmp / "predictions.jsonl")
        lines = (tmp / "predictions.jsonl").read_text().strip().splitlines()
        print(f"predictions.jsonl holds {len(lines)} forecasts\n")

        run("gradcheck", "--variant", "xo")


if __name__ == "__main__":
    main()
