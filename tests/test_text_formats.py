"""Every text format goes through one UTF-8 line source: damaged files
load or raise DataFormatError, and no reader decodes text on its own."""

import ast
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fvl
from fvl.cli import main
from fvl.dataio import (ActorSpec, CameraSpec, Scenario, generate_scenario,
                        read_dataset, read_scenario_file, read_video_dir,
                        windows_from_video, write_dataset, write_scenario_file,
                        write_video_dir)
from fvl.errors import DataFormatError, text_lines
from fvl.fvlmodel import BoxForecaster, ModelConfig, load_model, save_model
from fvl.nnkit import load_params, save_params

SRC = Path(fvl.__file__).parent


@pytest.fixture(scope="module")
def text_files(tmp_path_factory):
    """format -> (file, loader) for one small valid file of each text
    format; every number in them is a digit or two, so a damaged digit
    cannot ask for a large allocation."""
    root = tmp_path_factory.mktemp("text_formats")
    scenario = Scenario(frames=4, camera=CameraSpec(focal=250.0, ppx=40.0, ppy=20.0),
                        ego_speeds=0.5, width=80, height=40,
                        actors=(ActorSpec(x=12.0, z=0.0, heading=0.0, speed=0.0),))
    video = generate_scenario(scenario)
    assert video.tracks
    write_video_dir(video, root / "video", tau=2, delta=1)
    write_scenario_file(root / "clip.scn", scenario)
    samples, _ = windows_from_video(video, tau=2, delta=1, n=1)
    assert samples
    write_dataset(samples[:1], root / "samples.jsonl")
    video_dir = root / "video"
    return {
        "meta": (video_dir / "meta", lambda: read_video_dir(video_dir)),
        "ego.txt": (video_dir / "ego.txt", lambda: read_video_dir(video_dir)),
        "boxes.jsonl": (video_dir / "boxes.jsonl", lambda: read_video_dir(video_dir)),
        "scenario.scn": (video_dir / "scenario.scn", lambda: read_video_dir(video_dir)),
        ".scn": (root / "clip.scn", lambda: read_scenario_file(root / "clip.scn")),
        "dataset": (root / "samples.jsonl",
                    lambda: read_dataset(root / "samples.jsonl")),
    }


@pytest.mark.parametrize("name", ["meta", "ego.txt", "boxes.jsonl", "scenario.scn",
                                  ".scn", "dataset"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_damaged_text_file_loads_or_raises_data_format_error(text_files, name,
                                                             data):
    path, load = text_files[name]
    original = path.read_bytes()
    if data.draw(st.booleans(), label="cut"):
        damaged = original[:data.draw(st.integers(0, len(original) - 1))]
    else:
        damaged = bytearray(original)
        for _ in range(data.draw(st.integers(1, 3))):
            damaged[data.draw(st.integers(0, len(original) - 1))] = \
                data.draw(st.integers(0, 255))
    path.write_bytes(bytes(damaged))
    try:
        load()
    except DataFormatError:
        pass
    finally:
        path.write_bytes(original)


# key=value text -> (the required key each fault edits, the section that
# holds it)
KEY_VALUE_TEXTS = {"meta": ("height", None), ".scn": ("frames", None),
                   ".scn [actor]": ("z", "[actor]"), "header": ("hidden", None)}


def _key_value_text(root: Path, text: str):
    """(file, its lines, a loader, the CLI arguments that read it) for one
    small valid file of a key=value text, written under `root`."""
    scenario = Scenario(frames=4, camera=CameraSpec(focal=250.0, ppx=40.0, ppy=20.0),
                        width=80, height=40,
                        actors=(ActorSpec(x=12.0, z=0.0, heading=0.0, speed=0.0),))
    if text == "meta":
        video = root / "tree" / "video"
        write_video_dir(generate_scenario(scenario), video, tau=2, delta=1)
        return (video / "meta", (video / "meta").read_text().splitlines(),
                lambda: read_video_dir(video),
                ["train", "--dataset", str(root / "tree"), "--out", str(root / "m")])
    if text == "header":
        path = root / "model.fvlw"
        config = ModelConfig(variant="x", hidden=3, embed=2, tau=2, delta=1)
        save_model(path, config, BoxForecaster(config, seed=1).parameter_values())
        return (path, load_params(path)[0].splitlines(), lambda: load_model(path),
                ["evaluate", str(path), "--dataset", str(root)])
    path = root / "clip.scn"
    write_scenario_file(path, scenario)
    return (path, path.read_text().splitlines(), lambda: read_scenario_file(path),
            ["generate", str(path), "--out", str(root / "out")])


@pytest.mark.parametrize("fault", ["no '='", "unknown key", "repeated key",
                                   "missing key", "bad value"])
@pytest.mark.parametrize("text", list(KEY_VALUE_TEXTS))
def test_key_value_faults_name_the_file_and_line(tmp_path, capsys, text, fault):
    # meta, .scn files and checkpoint headers share one reader, so each
    # fault is refused the same way in each; a value also names its key
    path, lines, load, command = _key_value_text(tmp_path, text)
    key, section = KEY_VALUE_TEXTS[text]
    at = next(i for i, line in enumerate(lines, 1) if line.startswith(f"{key}="))
    label = section or "top-level"
    if fault == "no '='":
        lines[at - 1] = f"{key} {lines[at - 1].split('=')[1]}"
        message = f"{path.name}:{at}: expected key=value"
    elif fault == "unknown key":
        lines.insert(at, "colour=red")
        message = f"{path.name}:{at + 1}: unknown {label} key 'colour'"
    elif fault == "repeated key":
        lines.insert(at, lines[at - 1])
        message = f"{path.name}:{at + 1}: repeated {label} key '{key}'"
    elif fault == "missing key":
        del lines[at - 1]
        # a section's missing key names its header line
        where = f":{lines.index(section) + 1}" if section else ""
        message = f"{path.name}{where}: {label} is missing {key}"
    else:
        lines[at - 1] = f"{key}=oops"
        message = f"{path.name}:{at}: {label} key '{key}': "
    if text == "header":
        save_params(path, load_params(path)[1], "\n".join(lines) + "\n")
    else:
        path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError, match=re.escape(message)):
        load()
    if fault == "bad value":
        assert main(command) == 2
        assert message in capsys.readouterr().err


def test_text_lines_rejects_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "meta"
    path.write_bytes("width=320\n\nname=café\n".encode())
    assert text_lines(path) == [(1, "width=320"), (3, "name=café")]
    path.write_bytes(b"width=320\nfps=1\xe90\n")
    with pytest.raises(DataFormatError, match="meta: not UTF-8 text: .* at byte 15"):
        text_lines(path)


def test_lines_end_only_at_a_newline(tmp_path):
    # str.splitlines also splits at U+0085, U+2028, U+2029, \x0b, \x0c and
    # \x1c-\x1e: a comment holding one split the line in two, and every
    # later line number was one too high
    path = tmp_path / "clip.scn"
    lines = ["frames=4", "width=80", "ego_speed=0.5 # note\x85more", "height=40"]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    scenario = read_scenario_file(path)
    assert (scenario.frames, scenario.width, scenario.height) == (4, 80, 40)
    assert list(scenario.ego_speeds) == [0.5] * 3
    path.write_text("\n".join([*lines, "colour=red"]) + "\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="clip.scn:5: unknown top-level key"):
        read_scenario_file(path)
    # a CRLF file reads as its LF twin; only the "\r" before a "\n" goes
    path.write_bytes(("\r\n".join(lines) + "\r\n").encode())
    assert text_lines(path)[2] == (3, "ego_speed=0.5 # note\x85more")
    assert read_scenario_file(path).height == 40


def _reads_text(call: ast.Call) -> bool:
    """Whether a call reads a file as text: `read_text`, or an `open` whose
    mode is not binary and reads (a mode known only at run time counts)."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name == "read_text":
        return True
    if name != "open":
        return False
    mode = next((k.value for k in call.keywords if k.arg == "mode"), None)
    if mode is None:
        # Path.open(mode) versus the builtin open(file, mode)
        position = 0 if isinstance(func, ast.Attribute) else 1
        mode = call.args[position] if len(call.args) > position else ast.Constant("r")
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True
    return "b" not in mode.value and ("r" in mode.value or "+" in mode.value)


def _text_reads(source: str) -> list:
    """(enclosing function, line) of every text read in `source`."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and _reads_text(child):
                found.append((function, child.lineno))
            visit(child, child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function)

    visit(ast.parse(source), None)
    return found


def test_text_read_detector():
    reads = ("p.read_text()", "open(p)", "open(p, 'r')", "open(p, mode='rt')",
             "Path(p).open()", "p.open('r+')", "p.open(mode)")
    others = ("open(p, 'rb')", "p.open('wb')", "open(p, 'w')", "p.read_bytes()",
              "p.write_text(s)", "np.memmap(p, mode='r')")
    for snippet in reads:
        assert _text_reads(f"def f():\n    {snippet}\n") == [("f", 2)], snippet
    for snippet in others:
        assert _text_reads(f"def f():\n    {snippet}\n") == [], snippet


def test_only_the_line_helper_reads_text_files():
    reads = {(path.name, function, line)
             for path in sorted(SRC.glob("*.py"))
             for function, line in _text_reads(path.read_text(encoding="utf-8"))}
    assert [(module, function) for module, function, _ in reads] == \
        [("errors.py", "text_lines")], sorted(reads)
