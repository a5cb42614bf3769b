"""End-to-end CLI behavior: the pipeline, exit codes, determinism."""

import json
import os
import shutil
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from fvl import cli, dataio
from fvl.baselines import fit_extrapolate
from fvl.cli import _video_dirs, main
from fvl.dataio import (
    Sample,
    generate_scenario,
    random_scenario,
    read_video_dir,
    windows_from_video,
    write_dataset,
    write_scenario_file,
)
from fvl.flowfeat import PooledFlow
from fvl.errors import DataFormatError
from fvl.fvlmodel import BoxForecaster, ModelConfig, load_model, save_model, train_model
from fvl.metrics import build_reports, displacement_errors, reports_to_json
from fvl.nnkit import load_params, save_params
from fvl.rng import Xoshiro256

SCENE_SEEDS = (2, 4)
TRAIN_FLAGS = ("--variant", "xoe", "--hidden", "6", "--embed", "5",
               "--tau", "4", "--delta", "3", "--epochs", "2",
               "--batch", "8", "--pool-n", "3")


def make_suite(root: Path) -> Path:
    """Render two small scenario files into <root>/data via the CLI."""
    files = []
    for seed in SCENE_SEEDS:
        scenario = random_scenario(seed, frames=16, width=320, height=160)
        path = root / f"scene{seed}.scn"
        write_scenario_file(path, scenario)
        files.append(str(path))
    data = root / "data"
    assert main(["generate", *files, "--out", str(data),
                 "--tau", "4", "--delta", "3"]) == 0
    return data


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    return make_suite(tmp_path_factory.mktemp("cli_suite"))


@pytest.fixture(scope="module")
def checkpoint(suite, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_model") / "model.fvlw"
    assert main(["train", "--dataset", str(suite), "--out", str(out),
                 *TRAIN_FLAGS]) == 0
    return out


def test_generate_writes_video_dirs(suite):
    # flow is rendered from the scenario when read, so none is written
    assert sorted(p.name for p in suite.iterdir()) == ["scene2", "scene4"]
    for seed in SCENE_SEEDS:
        assert sorted(p.name for p in (suite / f"scene{seed}").iterdir()) == [
            "boxes.jsonl", "ego.txt", "meta", "scenario.scn"]


def test_generate_refuses_repeated_output_stems(tmp_path, capsys):
    # before, both files were rendered into v/s and the second silently won
    paths = []
    for parent, seed in (("a", 2), ("b", 4)):
        paths.append(tmp_path / parent / "s.scn")
        paths[-1].parent.mkdir()
        write_scenario_file(paths[-1], random_scenario(seed, frames=6, width=320,
                                                       height=160))
    out = tmp_path / "v"
    assert main(["generate", *map(str, paths), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert not out.exists() and captured.out == ""
    assert f"{paths[0]} and {paths[1]} would both be written to {out / 's'}" \
        in captured.err


def test_generate_refuses_hidden_output_stems(tmp_path, capsys):
    # before, .b.scn was rendered into the hidden v/.b, which every
    # dataset reader skips, so evaluate scored a.scn's video alone
    paths = [tmp_path / "a.scn", tmp_path / ".b.scn"]
    for path, seed in zip(paths, (2, 4)):
        write_scenario_file(path, random_scenario(seed, frames=6, width=320, height=160))
    out = tmp_path / "v"
    assert main(["generate", *map(str, paths), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert not out.exists() and captured.out == ""
    assert f"{paths[1]} would be written to the hidden directory {out / '.b'}" \
        in captured.err


def _tree(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_generate_that_fails_midway_leaves_no_new_video_dir(suite, tmp_path,
                                                            monkeypatch, capsys):
    data = tmp_path / "data"
    shutil.copytree(suite, data)
    before = _tree(data)
    scenes = []
    for name in ("scene2", "scene9"):  # one to replace, one new
        scenes.append(tmp_path / f"{name}.scn")
        write_scenario_file(scenes[-1], random_scenario(9, frames=6, width=320,
                                                        height=160))
    write_text = Path.write_text

    def fails_midway(path, text):
        if path.name != "ego.txt":
            return write_text(path, text)
        write_text(path, text[:len(text) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_text", fails_midway)
    for scene in scenes:
        assert main(["generate", str(scene), "--out", str(data)]) == 2
        assert "disk full" in capsys.readouterr().err
    assert _tree(data) == before
    assert _video_dirs(data) == [data / "scene2", data / "scene4"]
    # the new directory cannot be moved into place after the old one was
    # moved aside: the old one goes back
    monkeypatch.undo()
    rename = Path.rename

    def fails_for_the_new_dir(path, target):
        if path.name.endswith(".tmp"):
            raise OSError("rename refused")
        return rename(path, target)

    monkeypatch.setattr(Path, "rename", fails_for_the_new_dir)
    assert main(["generate", str(scenes[0]), "--out", str(data)]) == 2
    assert "rename refused" in capsys.readouterr().err
    assert _tree(data) == before
    # a write cut off before it could clean up leaves a hidden directory
    (data / ".scene9.123.tmp").mkdir()
    (data / ".scene9.123.tmp" / "meta").write_bytes(before[Path("scene2/meta")])
    assert _video_dirs(data) == [data / "scene2", data / "scene4"]


def test_generate_replaces_an_existing_video_dir_whole(suite, tmp_path,
                                                       external_flow_dir):
    data = tmp_path / "data"
    scene = tmp_path / "scene2.scn"
    scenario = random_scenario(2, frames=16, width=320, height=160)
    write_scenario_file(scene, scenario)
    # an older layout: .ffgr flow and no scenario
    external_flow_dir(generate_scenario(scenario), data / "scene2")
    (data / "scene2" / "notes.txt").write_text("stale\n")
    assert main(["generate", str(scene), "--out", str(data),
                 "--tau", "4", "--delta", "3"]) == 0
    assert [p.name for p in data.iterdir()] == ["scene2"]
    assert _tree(data / "scene2") == _tree(suite / "scene2")


# a valid header for a tiny `x` checkpoint
X_HEADER = "variant=x\nhidden=2\nembed=2\ntau=2\ndelta=1\npooled_dim=2\n"


def test_train_writes_checkpoint_and_loss_curve(checkpoint):
    # the config lives in the checkpoint header: no sidecar, no temp file
    assert sorted(p.name for p in checkpoint.parent.iterdir()) == [
        "model.fvlw", "model.fvlw.losses.csv"]
    curve = Path(f"{checkpoint}.losses.csv").read_text().splitlines()
    assert curve[0] == "epoch,train_loss,val_ade"
    assert len(curve) == 3  # header + one row per epoch
    for row in curve[1:]:
        epoch, loss, ade = row.split(",")
        assert float(loss) > 0 and float(ade) > 0
    config = load_model(checkpoint).config
    assert config == ModelConfig(variant="xoe", hidden=6, embed=5, tau=4,
                                 delta=3, pooled_dim=18)


def test_evaluate_checkpoint_writes_report(suite, checkpoint, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    assert main(["evaluate", str(checkpoint), "--dataset", str(suite),
                 "--out", str(report_path)]) == 0
    printed = capsys.readouterr().out
    assert "all" in printed and "fde=" in printed
    report = json.loads(report_path.read_text())
    assert set(report) >= {"all"}
    assert report["all"]["count"] > 0


def test_evaluate_baseline_runs(suite, capsys):
    assert main(["evaluate", "constaccel", "--dataset", str(suite),
                 "--tau", "4", "--delta", "3"]) == 0
    assert "fde=" in capsys.readouterr().out


def suite_windows(suite):
    """The suite's windows as the library gives them, video by video in
    path order, at the documented ROI growth of 1.5."""
    samples = []
    for video_dir in sorted(p for p in suite.iterdir() if p.is_dir()):
        samples += windows_from_video(read_video_dir(video_dir), tau=4, delta=3,
                                      expand=1.5, n=3)[0]
    return samples


def test_train_matches_library_composition(suite, checkpoint, tmp_path):
    # The CLI layer may not add hidden state: training by hand on the
    # library's windows must write the same checkpoint bytes.
    config = ModelConfig(variant="xoe", hidden=6, embed=5, tau=4, delta=3,
                         pooled_dim=18)
    result = train_model(config, suite_windows(suite), epochs=2, batch_size=8)
    save_model(tmp_path / "manual.fvlw", config, result.best_params)
    assert (tmp_path / "manual.fvlw").read_bytes() == checkpoint.read_bytes()


def test_evaluate_matches_library_composition(suite, checkpoint, tmp_path):
    # The CLI layer may not add hidden state: composing the library calls
    # by hand must reproduce its JSON report exactly.
    report_path = tmp_path / "report.json"
    assert main(["evaluate", str(checkpoint), "--dataset", str(suite),
                 "--out", str(report_path)]) == 0

    forecaster = load_model(checkpoint)
    samples = suite_windows(suite)
    past = np.stack([s.past for s in samples])
    truths = np.stack([s.future for s in samples])
    predictions = np.array([
        p.pixel_boxes(s.width, s.height)
        for s, p in zip(samples, forecaster.predict_batch(samples))])
    references = displacement_errors(fit_extrapolate(past, 2, 3), truths)[0]
    manual = build_reports(predictions, truths, reference_fdes=references)
    assert report_path.read_bytes() == reports_to_json(manual).encode()


def test_predict_writes_boxes(suite, checkpoint, tmp_path, capsys):
    out = tmp_path / "pred.jsonl"
    assert main(["predict", str(checkpoint), "--dataset", str(suite),
                 "--out", str(out)]) == 0
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(lines) == 18
    assert all(np.asarray(line["boxes"]).shape == (3, 4) for line in lines)

    assert main(["predict", str(checkpoint), "5", "--dataset", str(suite)]) == 0
    printed = capsys.readouterr().out.splitlines()
    payload = [json.loads(line) for line in printed if line.startswith("{")]
    assert [p["index"] for p in payload] == [5]

    assert main(["predict", str(checkpoint), "99", "--dataset", str(suite)]) == 2
    # the checkpoint sets the lattice, so predict has no --pool-n
    assert main(["predict", str(checkpoint), "--dataset", str(suite),
                 "--pool-n", "3"]) == 1


@pytest.mark.parametrize("command", ["train", "evaluate", "predict"])
def test_an_output_write_that_fails_midway_keeps_the_previous_file(
        command, suite, checkpoint, tmp_path, monkeypatch, capsys):
    if command == "train":
        target = tmp_path / "model.fvlw.losses.csv"
        argv = ["train", "--dataset", str(suite), "--out",
                str(tmp_path / "model.fvlw"), *TRAIN_FLAGS]
    else:
        target = tmp_path / f"{command}.out"
        argv = [command, str(checkpoint), "--dataset", str(suite),
                "--out", str(target)]
    target.write_bytes(b"previous contents\n")
    write_bytes = Path.write_bytes

    def fails_midway(path, data):
        if not path.name.startswith(target.name):
            return write_bytes(path, data)
        write_bytes(path, data[:len(data) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_bytes", fails_midway)
    assert main(argv) == 2
    assert "disk full" in capsys.readouterr().err
    assert target.read_bytes() == b"previous contents\n"
    assert not [p for p in tmp_path.iterdir() if p.name.endswith(".tmp")]


def test_a_failed_loss_curve_write_keeps_the_previous_checkpoint(
        suite, checkpoint, tmp_path, monkeypatch, capsys):
    # the checkpoint and its loss curve are replaced as a pair
    out = tmp_path / "model.fvlw"
    curve = tmp_path / "model.fvlw.losses.csv"
    shutil.copy(checkpoint, out)
    shutil.copy(f"{checkpoint}.losses.csv", curve)
    before = (out.read_bytes(), curve.read_bytes())
    write_bytes = Path.write_bytes

    def fails_for_the_curve(path, data):
        if path.name.startswith(curve.name):
            raise OSError("disk full")
        return write_bytes(path, data)

    monkeypatch.setattr(Path, "write_bytes", fails_for_the_curve)
    assert main(["train", "--dataset", str(suite), "--out", str(out),
                 "--seed", "5", *TRAIN_FLAGS]) == 2
    assert "disk full" in capsys.readouterr().err
    assert (out.read_bytes(), curve.read_bytes()) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [out.name, curve.name]


def test_training_is_reproducible_across_workers(suite, tmp_path):
    first = tmp_path / "w1.fvlw"
    second = tmp_path / "w4.fvlw"
    assert main(["train", "--dataset", str(suite), "--out", str(first),
                 "--workers", "1", *TRAIN_FLAGS]) == 0
    assert main(["train", "--dataset", str(suite), "--out", str(second),
                 "--workers", "4", *TRAIN_FLAGS]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert Path(f"{first}.losses.csv").read_bytes() == \
        Path(f"{second}.losses.csv").read_bytes()


def test_training_is_reproducible_across_runs(suite, tmp_path):
    first = tmp_path / "a.fvlw"
    second = tmp_path / "b.fvlw"
    other = tmp_path / "c.fvlw"
    assert main(["train", "--dataset", str(suite), "--out", str(first),
                 "--seed", "3", *TRAIN_FLAGS]) == 0
    assert main(["train", "--dataset", str(suite), "--out", str(second),
                 "--seed", "3", *TRAIN_FLAGS]) == 0
    assert main(["train", "--dataset", str(suite), "--out", str(other),
                 "--seed", "4", *TRAIN_FLAGS]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes() != other.read_bytes()


def test_usage_errors_exit_1(capsys):
    assert main([]) == 1
    assert main(["no-such-command"]) == 1
    assert main(["train", "--dataset", "somewhere"]) == 1  # missing --out
    assert main(["train", "--dataset", "d", "--out", "m",
                 "--pool-n", "0"]) == 1
    assert main(["train", "--dataset", "d", "--out", "m",
                 "--variant", "xyz"]) == 1
    # evaluate has no lattice flag (baselines read no flow, checkpoints
    # carry their own) and no flag to skip the easy/challenging split
    assert main(["evaluate", "linear", "--dataset", "d", "--pool-n", "3"]) == 1
    assert main(["evaluate", "linear", "--dataset", "d", "--no-split"]) == 1
    # video windows pool at `windows_from_video`'s default ROI growth,
    # which no flag changes, so evaluate and predict pool as train did
    for command in (["train", "--dataset", "d", "--out", "m"],
                    ["evaluate", "m.fvlw", "--dataset", "d"],
                    ["predict", "m.fvlw", "--dataset", "d"]):
        assert main([*command, "--roi-expand", "1.5"]) == 1
        assert ("unrecognized arguments: --roi-expand 1.5"
                in capsys.readouterr().err)
    # a negative seed is refused before any data is read
    assert main(["train", "--dataset", "d", "--out", "m", "--seed", "-3"]) == 1
    assert main(["gradcheck", "--seed", "-1"]) == 1
    assert "--seed: must be >= 0, got -1" in capsys.readouterr().err
    # a seed the generator cannot hold would alias a smaller one
    too_big = str(2**64)
    assert main(["train", "--dataset", "d", "--out", "m", "--seed", too_big]) == 1
    assert main(["gradcheck", "--seed", too_big]) == 1
    assert f"--seed: must be below 2**64, got {too_big}" in capsys.readouterr().err
    # so is a negative epoch count, by the same converter
    assert main(["train", "--dataset", "d", "--out", "m", "--epochs", "-1"]) == 1
    assert "--epochs: must be >= 0, got -1" in capsys.readouterr().err
    # a type error names the kind of value wanted, not the converter
    assert main(["train", "--dataset", "d", "--out", "m", "--epochs", "many"]) == 1
    assert ("--epochs: invalid non-negative integer value: 'many'"
            in capsys.readouterr().err)
    assert main(["train", "--dataset", "d", "--out", "m", "--batch", "x"]) == 1
    assert "--batch: invalid positive integer value: 'x'" in capsys.readouterr().err
    assert main(["train", "--dataset", "d", "--out", "m", "--lr", "fast"]) == 1
    assert "--lr: invalid positive number value: 'fast'" in capsys.readouterr().err
    # a non-finite number is refused before any data is read
    assert main(["train", "--dataset", "d", "--out", "m", "--lr", "inf"]) == 1
    assert "--lr: must be positive and finite, got inf" in capsys.readouterr().err


def test_main_builds_its_parser_once_and_looks_commands_up_per_call(
        monkeypatch, capsys):
    cli._build_parser.cache_clear()
    assert main(["gradcheck", "--seed", "-1"]) == 1
    assert main(["evaluate", "linear"]) == 1  # missing --dataset
    assert cli._build_parser.cache_info().misses == 1
    # a command replaced after the parser was built is the one that runs
    seen = []
    monkeypatch.setattr(cli, "cmd_generate",
                        lambda args: seen.append((args.scenarios, args.tau)) or 5)
    assert main(["generate", "a.scn", "b.scn", "--out", "o", "--tau", "3"]) == 5
    assert seen == [(["a.scn", "b.scn"], 3)]
    capsys.readouterr()
    assert main([]) == 1
    assert capsys.readouterr().err.startswith("usage: fvl ")
    assert cli._build_parser.cache_info().misses == 1


def test_importing_the_cli_leaves_concurrent_futures_unloaded(child_env):
    # a fresh interpreter, since this one may have imported it already;
    # only windowing video directories uses the thread pool
    code = ("import sys, fvl.cli; "
            "sys.exit('concurrent.futures' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=child_env(Path(cli.__file__).resolve().parents[1]),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr or "concurrent.futures was imported"


def test_a_closed_stdout_exits_141_and_prints_nothing(tmp_path, child_env):
    # `fvl generate ... | head -1`: the reader goes after one line.  Before,
    # the broken pipe was an OSError, "error: [Errno 32] Broken pipe" and
    # exit 2, the data error's status.  The second scenario file is a FIFO
    # that this test feeds only after closing the pipe, so the second line
    # (unbuffered, its own write) always meets a closed pipe.
    first, second = tmp_path / "s0.scn", tmp_path / "s1.scn"
    write_scenario_file(first, random_scenario(0, frames=12, width=320, height=160))
    os.mkfifo(second)
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "fvl.cli", "generate", str(first), str(second),
         "--out", str(tmp_path / "data"), "--tau", "4", "--delta", "3"],
        env=child_env(Path(cli.__file__).resolve().parents[1]),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == f"wrote {tmp_path / 'data' / 's0'}\n".encode()
    proc.stdout.close()
    second.write_text(first.read_text(encoding="utf-8"), encoding="utf-8")
    assert proc.wait(timeout=120) == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_a_box_outside_the_image_exits_2(tmp_path, external_flow_dir, capsys):
    # before, the box loaded and windowing failed naming no file or line
    video = generate_scenario(random_scenario(SCENE_SEEDS[0], frames=12,
                                              width=320, height=160))
    root = external_flow_dir(video, tmp_path / "video", tau=4, delta=3)
    assert main(["evaluate", "constaccel", "--dataset", str(root),
                 "--tau", "4", "--delta", "3"]) == 0
    boxes = root / "boxes.jsonl"
    lines = boxes.read_text().splitlines()
    record = json.loads(lines[3])
    record["cx"] = -1000
    lines[3] = json.dumps(record)
    boxes.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["evaluate", "constaccel", "--dataset", str(root),
                 "--tau", "4", "--delta", "3"]) == 2
    err = capsys.readouterr().err
    assert f"boxes.jsonl:4: box [-1000, {record['cy']!r}, " in err
    assert "lies outside the 320x160 image" in err


def test_data_errors_exit_2(tmp_path, capsys):
    assert main(["evaluate", str(tmp_path / "nope.fvlw"),
                 "--dataset", str(tmp_path)]) == 2
    assert main(["train", "--dataset", str(tmp_path / "missing"),
                 "--out", str(tmp_path / "m.fvlw")]) == 2

    # a sample file from before samples were FVLW files: one JSON object a line
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"track":0,"width":64,"height":64}\n')
    assert main(["train", "--dataset", str(bad),
                 "--out", str(tmp_path / "m.fvlw")]) == 2
    assert "bad.jsonl: bad magic b'{\"tr', expected b'FVLW' (at offset 0)" \
        in capsys.readouterr().err

    scn = tmp_path / "bad.scn"
    scn.write_text("frames=ten\n")
    assert main(["generate", str(scn), "--out", str(tmp_path / "out")]) == 2
    scn.write_text("frames=4\nego_speeds=1.0\n")
    assert main(["generate", str(scn), "--out", str(tmp_path / "out")]) == 2
    assert "bad.scn:2" in capsys.readouterr().err
    # an ego plan list holds one value or one per frame transition
    scn.write_text("frames=4\nego_speed=0.5,0.6\n")
    assert main(["generate", str(scn), "--out", str(tmp_path / "out")]) == 2
    assert (f"error: {scn}: ego_speeds needs 3 entries (frames - 1), got shape (2,)"
            in capsys.readouterr().err)
    # a non-finite camera value or a bad fps; before, these generated
    # empty tracks, all-zero flow, or a meta no reader accepts
    scene = ("frames=4\nwidth=320\nheight=160\nego_speed=0.5\n"
             "[actor]\nx=12\nz=0\nheading=0\nspeed=0\n")
    for bad, name in (("", None), ("fps=nan\n", "fps"), ("ppy=inf\n", "ppy")):
        scn.write_text(bad + scene)
        code = main(["generate", str(scn), "--out", str(tmp_path / "scene")])
        assert code == (0 if name is None else 2)
        assert name is None or name in capsys.readouterr().err

    # a video directory whose ego log holds an infinite yaw, then whose
    # meta holds a non-integer width
    video = tmp_path / "video"
    video.mkdir()
    (video / "meta").write_text("width=320\nheight=160\nframes=3\n")
    (video / "ego.txt").write_text("0 0.0 1.0 0.0\n1 inf 1.0 0.0\n")
    (video / "boxes.jsonl").write_text("")
    assert main(["train", "--dataset", str(video),
                 "--out", str(tmp_path / "m.fvlw")]) == 2
    assert "ego.txt:2" in capsys.readouterr().err
    (video / "meta").write_text("width=abc\nheight=160\nframes=3\n")
    assert main(["evaluate", "constaccel", "--dataset", str(video)]) == 2
    assert "width" in capsys.readouterr().err
    # a misspelt meta key, then a repeated one
    for meta, where in (("width=320\nfsp=5\nheight=160\nframes=3\n", "meta:2"),
                        ("width=320\nheight=160\nframes=3\nwidth=640\n", "meta:4")):
        (video / "meta").write_text(meta)
        assert main(["evaluate", "constaccel", "--dataset", str(video)]) == 2
        assert where in capsys.readouterr().err
    # an ego log one step short of frames - 1, then a repeated box line
    (video / "meta").write_text("width=320\nheight=160\nframes=3\n")
    (video / "ego.txt").write_text("0 0.0 1.0 0.0\n")
    assert main(["train", "--dataset", str(video),
                 "--out", str(tmp_path / "m.fvlw")]) == 2
    err = capsys.readouterr().err
    assert "ego.txt" in err and "1 steps" in err and "needs 2" in err
    # an ego log that is not UTF-8 text
    (video / "ego.txt").write_bytes(b"0 0.0 1.0 0.0\n1 0.0 1.0 \xff0.0\n")
    assert main(["evaluate", "constaccel", "--dataset", str(video)]) == 2
    assert "ego.txt: not UTF-8 text: invalid start byte at byte 24" in \
        capsys.readouterr().err
    (video / "ego.txt").write_text("0 0.0 1.0 0.0\n1 0.0 1.0 0.0\n")
    line = '{"frame":1,"track":0,"cx":50.0,"cy":60.0,"w":10.0,"h":8.0}\n'
    (video / "boxes.jsonl").write_text(line + line)
    assert main(["evaluate", "constaccel", "--dataset", str(video)]) == 2
    assert "boxes.jsonl:2" in capsys.readouterr().err

    # a checkpoint cut inside its 12-byte prefix
    cut = tmp_path / "cut.fvlw"
    save_params(cut, np.zeros(2), X_HEADER)
    cut.write_bytes(cut.read_bytes()[:8])
    assert main(["evaluate", str(cut), "--dataset", str(bad)]) == 2
    assert "cut.fvlw: truncated file of 8 bytes (at offset 8)" in capsys.readouterr().err
    # a version 1 checkpoint with its .cfg sidecar is not read; retraining
    # writes version 3
    old = tmp_path / "old.fvlw"
    old.write_bytes(b"FVLW" + struct.pack("<IIH", 1, 1, 1) + b"w"
                    + struct.pack("<BI", 1, 2) + bytes(16))
    Path(f"{old}.cfg").write_text(X_HEADER)
    assert main(["evaluate", str(old), "--dataset", str(bad)]) == 2
    assert ("old.fvlw: unsupported checkpoint version 1, expected 3; retrain the "
            "model to write one (at offset 4)") in capsys.readouterr().err


@pytest.mark.parametrize("entry", ["evaluate", "predict", "generate"])
def test_an_image_side_too_large_for_an_ffgr_header_exits_2(entry, suite, checkpoint,
                                                            tmp_path, capsys):
    # a 400-digit width died on an OverflowError in evaluate and predict,
    # and generate wrote a video that could not be read back
    huge = 10**400
    video = sorted(suite.iterdir())[0]
    if entry == "evaluate":
        shutil.copytree(video, tmp_path / "tree" / "v")
        meta = tmp_path / "tree" / "v" / "meta"
        meta.write_text(meta.read_text().replace("width=320", f"width={huge}"))
        command = ["evaluate", "constaccel", "--dataset", str(tmp_path / "tree")]
        message = f"meta:1: top-level key 'width': must be at most {2**32 - 1}"
    elif entry == "predict":
        # a sample file holds a width as a float64, which cannot be huge
        samples, _ = windows_from_video(read_video_dir(video), 4, 3, n=3)
        dataset = tmp_path / "s.fvlw"
        write_dataset(samples[:1], dataset)
        header, values = load_params(dataset)
        values[1] = 2**32  # the width column follows the one track
        save_params(dataset, values, header)
        command = ["predict", str(checkpoint), "--dataset", str(dataset)]
        message = f"s.fvlw: sample 0: image width must be at most {2**32 - 1}"
    else:
        scn = tmp_path / "big.scn"
        write_scenario_file(scn, random_scenario(2, frames=4, width=320, height=160))
        scn.write_text(scn.read_text().replace("width=320", f"width={huge}"))
        command = ["generate", str(scn), "--out", str(tmp_path / "out")]
        message = f"big.scn: image width must be at most {2**32 - 1}"
    assert main(command) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def v2_checkpoint(path, header: str, values: dict) -> None:
    """The version 2 layout: prefix, header, a table of each parameter's
    name and dims, then every value; version 3 has no table."""
    head = header.encode()
    path.write_bytes(
        b"FVLW" + struct.pack(f"<II{len(head)}sI", 2, len(head), head, len(values))
        + b"".join(struct.pack(f"<H{len(name)}sB{v.ndim}I", len(name), name.encode(),
                               v.ndim, *v.shape) for name, v in values.items())
        + b"".join(v.astype("<f8").tobytes() for v in values.values()))


def test_a_checkpoint_with_six_gate_leaves_per_gru_exits_2(tmp_path, capsys):
    # Checkpoints written before a GRU's gates became one weight and one
    # bias leaf name six per cell, w_update ... b_cand, in a version 2
    # table over the same float payload.  Version 2 files, these and the
    # ones with two leaves per cell, are refused by their version;
    # retraining migrates them.
    config = ModelConfig(variant="xoe", hidden=6, embed=5, tau=4, delta=3,
                         pooled_dim=18)
    model = BoxForecaster(config, seed=5)
    six_gate, two_leaf = {}, {}
    for name, p in model.params.items():
        two_leaf[name] = p.value
        layer, part = name.split(".")
        if layer not in ("box_encoder", "flow_encoder", "decoder"):
            six_gate[name] = p.value
            continue
        for gate, block in zip(("update", "reset", "cand"), np.split(p.value, 3)):
            six_gate[f"{layer}.{part[0]}_{gate}"] = block
    header = "".join(f"{key}={value}\n" for key, value in vars(config).items())
    new = tmp_path / "new.fvlw"
    save_model(new, config, model.parameter_values())
    payload = model.tape.values.astype("<f8").tobytes()
    assert new.read_bytes()[:-4].endswith(payload)
    for values in (six_gate, two_leaf):
        old = tmp_path / "old.fvlw"
        v2_checkpoint(old, header, values)
        # the same payload, under a table and with no CRC
        assert old.read_bytes().endswith(payload)
        with pytest.raises(DataFormatError, match="old.fvlw: unsupported checkpoint "
                           "version 2, expected 3; retrain"):
            load_model(old)
        assert main(["evaluate", str(old), "--dataset", str(tmp_path)]) == 2
        assert "unsupported checkpoint version 2" in capsys.readouterr().err


def test_checkpoint_record_larger_than_the_file_exits_2(tmp_path, capsys):
    # a header length of 2**32 - 1 under a valid CRC: the reader must
    # size the header against the file and reject it
    path = tmp_path / "huge.fvlw"
    body = b"FVLW" + struct.pack("<II", 3, 2**32 - 1) + X_HEADER.encode() + bytes(16)
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    assert main(["evaluate", str(path), "--dataset", str(tmp_path)]) == 2
    assert f"header length {2**32 - 1} leaves {16 + len(X_HEADER) - 2**32 + 1} payload " \
        "bytes, not whole float64s" in capsys.readouterr().err


@pytest.mark.parametrize("damage", ["truncate", "swap_dims", "nan"])
def test_bad_flow_file_exits_2(tmp_path, external_flow_dir, damage, capsys):
    # directories whose flow comes from outside the generator
    data = tmp_path / "data"
    for seed in SCENE_SEEDS:
        video = generate_scenario(random_scenario(seed, frames=16, width=320,
                                                  height=160))
        external_flow_dir(video, data / f"scene{seed}", tau=4, delta=3)
    assert main(["evaluate", "constaccel", "--dataset", str(data),
                 "--tau", "4", "--delta", "3"]) == 0
    for grid in data.glob("*/flow/*.ffgr"):
        blob = grid.read_bytes()
        if damage == "truncate":
            grid.write_bytes(blob[:-8])
        elif damage == "nan":  # well-formed, but every value is NaN
            grid.write_bytes(blob[:12] + np.full((len(blob) - 12) // 4, np.nan,
                                                 dtype="<f4").tobytes())
        else:  # same payload length, but the header disagrees with meta
            grid.write_bytes(blob[:4] + blob[8:12] + blob[4:8] + blob[12:])
    assert main(["train", "--dataset", str(data),
                 "--out", str(tmp_path / "m.fvlw"), *TRAIN_FLAGS]) == 2
    assert ".ffgr" in capsys.readouterr().err


@pytest.mark.parametrize("edit, message", [
    ("frames", "frames is 15, but meta holds 16"),
    ("width", "width is 640, but meta holds 320"),
    ("actor", "boxes differ from boxes.jsonl"),
    ("boxes", "boxes differ from boxes.jsonl"),
    ("ego", "ego motion differs from ego.txt"),
])
def test_scenario_that_disagrees_with_its_directory_exits_2(
        suite, tmp_path, edit, message, capsys):
    video = tmp_path / "scene2"
    shutil.copytree(suite / "scene2", video)
    scenario = dataio.read_scenario_file(video / "scenario.scn")
    if edit == "frames":
        scenario = dataio.Scenario(**{**vars(scenario), "frames": 15,
                                      "ego_yaw_rates": scenario.ego_yaw_rates[:-1],
                                      "ego_speeds": scenario.ego_speeds[:-1]})
    elif edit == "width":
        scenario = dataio.Scenario(**{**vars(scenario), "width": 640})
    elif edit == "actor":
        actor = scenario.actors[0]
        scenario = dataio.Scenario(**{**vars(scenario), "actors": (
            dataio.ActorSpec(**{**vars(actor), "x": actor.x + 0.5}),
            *scenario.actors[1:])})
    write_scenario_file(video / "scenario.scn", scenario)
    for name, line in (("boxes", 1), ("ego", 0)):
        if edit == name:
            path = video / ("boxes.jsonl" if name == "boxes" else "ego.txt")
            lines = path.read_text().splitlines()
            lines[line] = lines[line].replace("5", "6", 1)
            path.write_text("\n".join(lines) + "\n")
    assert main(["evaluate", "constaccel", "--dataset", str(video),
                 "--tau", "4", "--delta", "3"]) == 2
    assert f"scenario.scn: {message}" in capsys.readouterr().err


def _tiny_samples(huge_future: bool):
    rng = Xoshiro256(77)

    def box(scale=1.0):
        return [scale * rng.uniform(60.0, 260.0), rng.uniform(40.0, 120.0),
                rng.uniform(10.0, 60.0), rng.uniform(10.0, 60.0)]

    samples = []
    for track in range(2):
        future_scale = 1e198 if huge_future else 1.0
        samples.append(Sample(
            track=track,
            past=[box() for _ in range(3)],
            flow=[PooledFlow(values=rng.uniforms(8, -2.0, 2.0), n=2)
                  for _ in range(3)],
            future=[box(future_scale) for _ in range(2)],
            ego=[[0.01, 0.5, 0.0]] * 2,
            width=320, height=160))
    return samples


@pytest.mark.parametrize("field", ["cx", "cy", "w", "h"])
def test_a_boolean_box_field_exits_2(suite, tmp_path, field, capsys):
    # before, "w": true loaded as a box 1 pixel wide
    video = tmp_path / "scene2"
    shutil.copytree(suite / "scene2", video)
    lines = (video / "boxes.jsonl").read_text().splitlines()
    record = json.loads(lines[1])
    record[field] = True
    lines[1] = json.dumps(record)
    (video / "boxes.jsonl").write_text("\n".join(lines) + "\n")
    message = "boxes.jsonl:2: box needs finite cx, cy and positive w, h"
    with pytest.raises(DataFormatError, match=message):
        read_video_dir(video)
    assert main(["train", "--dataset", str(video), "--out", str(tmp_path / "m.fvlw"),
                 *TRAIN_FLAGS]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow")
def test_numeric_failure_exits_3(tmp_path, capsys):
    dataset = tmp_path / "samples.fvlw"
    write_dataset(_tiny_samples(huge_future=True), dataset)
    code = main(["train", "--dataset", str(dataset),
                 "--out", str(tmp_path / "m.fvlw"), "--variant", "x",
                 "--hidden", "4", "--embed", "4", "--tau", "3",
                 "--delta", "2", "--epochs", "1", "--pool-n", "2"])
    assert code == 3
    assert "numeric failure" in capsys.readouterr().err


def test_train_and_evaluate_on_sample_file(tmp_path, capsys):
    dataset = tmp_path / "samples.fvlw"
    write_dataset(_tiny_samples(huge_future=False), dataset)
    out = tmp_path / "m.fvlw"
    assert main(["train", "--dataset", str(dataset), "--out", str(out),
                 "--variant", "xo", "--hidden", "4", "--embed", "4",
                 "--tau", "3", "--delta", "2", "--epochs", "1",
                 "--pool-n", "2"]) == 0
    assert main(["evaluate", str(out), "--dataset", str(dataset)]) == 0
    assert main(["evaluate", "linear", "--dataset", str(dataset),
                 "--tau", "3", "--delta", "2"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("window", [("10", "2"), ("3", "10")])
def test_sample_file_must_hold_the_requested_window(tmp_path, window, capsys):
    dataset = tmp_path / "samples.fvlw"
    write_dataset(_tiny_samples(huge_future=False), dataset)
    tau, delta = window
    assert main(["evaluate", "linear", "--dataset", str(dataset),
                 "--tau", tau, "--delta", delta]) == 2
    assert (f"{dataset}: holds (tau, delta, n) = (3, 2, 2) windows, not "
            f"({tau}, {delta}, 2)") in capsys.readouterr().err


@pytest.mark.parametrize("command", [["train", "--out", "m"],
                                     ["evaluate", "m.fvlw"], ["predict", "m.fvlw"]])
def test_dataset_flags_are_shared_by_every_command_that_reads_one(command, capsys):
    # --dataset and --workers are one declaration each
    assert main([*command, "--dataset", "d", "--workers", "0"]) == 1
    assert "--workers: must be positive and finite, got 0" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main([command[0], "--help"])
    help_words = " ".join(capsys.readouterr().out.split())
    assert "--dataset DATASET sample file or video directory tree" in help_words


def test_train_checks_the_lattice_of_a_sample_file(tmp_path, capsys):
    dataset = tmp_path / "samples.fvlw"
    write_dataset(_tiny_samples(huge_future=False), dataset)
    flags = ["--dataset", str(dataset), "--out", str(tmp_path / "m.fvlw"),
             "--hidden", "4", "--embed", "4", "--tau", "3", "--delta", "2",
             "--epochs", "1", "--pool-n", "3"]
    assert main(["train", *flags, "--variant", "xo"]) == 2
    assert (f"{dataset}: holds (tau, delta, n) = (3, 2, 2) windows, not (3, 2, 3)"
            in capsys.readouterr().err)
    # a model that reads no flow takes samples of any lattice
    assert main(["train", *flags, "--variant", "xe"]) == 0
    capsys.readouterr()


def test_evaluate_checks_the_lattice_of_a_sample_file(tmp_path, capsys):
    dataset = tmp_path / "samples.fvlw"
    write_dataset(_tiny_samples(huge_future=False), dataset)
    for variant in ("x", "xoe"):
        config = ModelConfig(variant=variant, hidden=4, embed=4, tau=3,
                             delta=2, pooled_dim=18)
        model = tmp_path / f"{variant}.fvlw"
        save_model(model, config, BoxForecaster(config).parameter_values())
        code = main(["evaluate", str(model), "--dataset", str(dataset)])
        err = capsys.readouterr().err
        if variant == "x":
            assert code == 0
        else:
            assert code == 2
            assert f"{dataset}: holds (tau, delta, n) = (3, 2, 2) windows, " \
                "not (3, 2, 3)" in err


def test_a_damaged_sample_file_exits_2(tmp_path, capsys):
    # before, a changed digit in a JSONL sample file was scored silently
    dataset = tmp_path / "samples.fvlw"
    write_dataset(_tiny_samples(huge_future=False), dataset)
    command = ["evaluate", "linear", "--dataset", str(dataset), "--tau", "3",
               "--delta", "2"]
    assert main(command) == 0
    data = bytearray(dataset.read_bytes())
    data[len(data) // 2] ^= 0x01
    dataset.write_bytes(bytes(data))
    capsys.readouterr()
    assert main(command) == 2
    assert "samples.fvlw: damaged file: CRC-32" in capsys.readouterr().err


def test_a_checkpoint_and_a_sample_file_in_each_others_place_exit_2(
        checkpoint, tmp_path, capsys):
    dataset = tmp_path / "samples.fvlw"
    write_dataset(_tiny_samples(huge_future=False), dataset)
    assert main(["evaluate", "linear", "--dataset", str(checkpoint)]) == 2
    assert "model.fvlw:1: unknown top-level key 'variant'" in capsys.readouterr().err
    assert main(["evaluate", str(dataset), "--dataset", str(dataset)]) == 2
    assert "samples.fvlw:1: unknown top-level key 'count'" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--tau", "7"], ["--delta", "9"],
                                   ["--tau", "4", "--delta", "3"]])
def test_evaluate_refuses_a_window_for_a_checkpoint(checkpoint, suite, flags, capsys):
    # before, the flags were ignored and the checkpoint's window was used,
    # even when it differed from them
    assert main(["evaluate", str(checkpoint), "--dataset", str(suite), *flags]) == 1
    err = capsys.readouterr().err
    assert f"--tau and --delta set a baseline's window; {checkpoint} holds its own" \
        in err


@pytest.mark.parametrize("command", [["train", "--dataset", "missing", "--out", "m"],
                                     ["gradcheck"]])
def test_a_window_no_model_takes_is_a_usage_error(command, capsys):
    # before, --tau 1 exited 2, as a data error, while --tau 0 exited 1
    assert main([*command, "--tau", "1"]) == 1
    assert "usage error: tau must be an integer >= 2, got 1" in capsys.readouterr().err
    assert main([*command, "--tau", "0"]) == 1


def test_gradcheck_reports_pass(capsys):
    assert main(["gradcheck", "--variant", "xe", "--hidden", "4",
                 "--embed", "4", "--tau", "2", "--delta", "1",
                 "--pool-n", "2"]) == 0
    assert "PASS" in capsys.readouterr().out
