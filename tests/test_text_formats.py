"""Every text format goes through one UTF-8 line source: damaged files
load or raise DataFormatError, and no reader decodes text on its own."""

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fvl
from fvl.dataio import (ActorSpec, CameraSpec, Scenario, generate_scenario,
                        read_dataset, read_scenario_file, read_video_dir,
                        windows_from_video, write_dataset, write_scenario_file,
                        write_video_dir)
from fvl.errors import DataFormatError, text_lines

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


def test_text_lines_rejects_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "meta"
    path.write_bytes("width=320\n\nname=café\n".encode())
    assert text_lines(path) == [(1, "width=320"), (3, "name=café")]
    path.write_bytes(b"width=320\nfps=1\xe90\n")
    with pytest.raises(DataFormatError, match="meta: not UTF-8 text: .* at byte 15"):
        text_lines(path)


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
