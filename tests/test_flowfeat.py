import math
import os
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fvl.dataio import ActorSpec, CameraSpec, Scenario, generate_scenario
from fvl.errors import DataFormatError, ValidationError
from fvl.flowfeat import (PooledFlow, expand_roi, lattice_pool,
                          read_flow_grid, read_flow_pixels, roi_pool,
                          write_flow_grid)
from fvl.rng import Xoshiro256
from oracles import expand_box, from_corners, pool_frame, pool_oracle, two_plane_pool


def random_grid(seed, width=32, height=32):
    return Xoshiro256(seed).uniforms((height, width, 2), -5.0, 5.0)


def random_roi(rng, width, height):
    w = rng.uniform(2.0, width / 2.0)
    h = rng.uniform(2.0, height / 2.0)
    cx = rng.uniform(0.0, width)
    cy = rng.uniform(0.0, height)
    return [cx, cy, w, h]


def test_expand_roi_identity_factor():
    boxes = np.array([[100.0, 100.0, 40.0, 20.0], [7.5, 600.25, 3.0, 9.5]])
    assert np.array_equal(expand_roi(boxes, 1.0, 1280, 640), boxes)


def test_expand_roi_pure_scaling():
    boxes = np.array([[100.0, 100.0, 40.0, 20.0], [640.0, 320.0, 8.0, 2.0]])
    np.testing.assert_array_equal(expand_roi(boxes, 1.5, 1280, 640),
                                  [[100.0, 100.0, 60.0, 30.0], [640.0, 320.0, 12.0, 3.0]])


def test_expand_roi_clips_scaled_corners_at_image_edge():
    # Scaled corners of the 40-wide box at cx=5 are [-25, 35]; the image
    # keeps [0, 35], so the surviving box is 35 wide and centered at 17.5.
    # The second box hangs past the bottom-right corner: [1260, 1290] x
    # [624, 654] keeps [1260, 1280] x [624, 640].
    boxes = np.array([[5.0, 100.0, 40.0, 20.0], [1275.0, 639.0, 20.0, 20.0]])
    np.testing.assert_array_equal(expand_roi(boxes, 1.5, 1280, 640),
                                  [[17.5, 100.0, 35.0, 30.0], [1270.0, 632.0, 20.0, 16.0]])


def test_expand_roi_rejects_bad_inputs():
    boxes = np.array([[100.0, 100.0, 40.0, 20.0]])
    for factor in (0.5, 0.999, float("inf"), float("nan")):
        with pytest.raises(ValidationError,
                           match="expansion factor must be finite and >= 1"):
            expand_roi(boxes, factor, 1280, 640)
    # the message names the first box that leaves the image
    outside = np.array([[100.0, 100.0, 40.0, 20.0], [-50.0, 100.0, 10.0, 10.0],
                        [100.0, 700.0, 10.0, 10.0]])
    with pytest.raises(ValidationError, match=re.escape(
            "box [-50.0, 100.0, 10.0, 10.0] expanded by 1.0 "
            "lies outside the 1280x640 image")):
        expand_roi(outside, 1.0, 1280, 640)


def test_expand_roi_equals_the_per_box_oracle():
    rng = np.random.default_rng(3)
    boxes = np.column_stack([rng.uniform(-20.0, 340.0, 200), rng.uniform(-20.0, 180.0, 200),
                             rng.uniform(0.5, 90.0, 200), rng.uniform(0.5, 60.0, 200)])
    for factor in (1.0, 1.5, 2.5):
        want, keep = [], []
        for i, box in enumerate(boxes):
            try:
                want.append(expand_box(box, factor, 320, 160))
                keep.append(i)
            except ValidationError:
                pass
        assert 0 < len(keep) < len(boxes)
        assert np.array_equal(expand_roi(boxes[keep], factor, 320, 160), want)


def test_pool_constant_field_is_exact():
    grid = np.tile([2.0, -1.0], (48, 64, 1))
    roi = [20.0, 25.0, 17.0, 9.0]
    pooled = roi_pool(grid, roi, n=5)
    assert pooled.values.shape == (50,)
    np.testing.assert_array_equal(pooled.values[0::2], 2.0)
    np.testing.assert_array_equal(pooled.values[1::2], -1.0)


def test_bilinear_midpoint_of_two_by_two():
    # Sampling dead center of a 2x2 grid averages all four pixels.
    data = np.zeros((2, 2, 2))
    data[:, :, 0] = [[0.0, 1.0], [2.0, 3.0]]
    pooled = roi_pool(data, [1.0, 1.0, 1.0, 1.0], n=1)
    assert pooled.values[0] == pytest.approx(1.5, abs=1e-15)


def test_pool_matches_independent_oracle():
    grid = random_grid(seed=11)
    rng = Xoshiro256(12)
    for _ in range(20):
        roi = random_roi(rng, 32, 32)
        pooled = roi_pool(grid, roi, n=5)
        expected = pool_oracle(grid, roi, n=5)
        assert np.abs(pooled.values - expected).max() < 1e-6


def test_pool_equals_two_plane_oracle_bit_for_bit():
    # One bilinear pass over [h x w x 2] against separate u and v passes.
    # ROIs reach past every border, and some grid values are +0.0 or
    # -0.0, so sign bits are compared too.
    rng = np.random.default_rng(61)
    for _ in range(300):
        height, width = rng.integers(1, 40, size=2)
        data = rng.uniform(-5.0, 5.0, size=(height, width, 2))
        data[rng.uniform(size=data.shape) < 0.1] = 0.0
        data[rng.uniform(size=data.shape) < 0.1] = -0.0
        x0, y0 = rng.uniform(-10.0, 40.0, size=2)
        roi = from_corners(x0, y0, x0 + rng.uniform(0.5, 30.0),
                           y0 + rng.uniform(0.5, 30.0))
        n = int(rng.integers(1, 8))
        got = roi_pool(data, roi, n).values
        want = two_plane_pool(data, roi, n)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_pool_is_linear_in_the_grid():
    a = random_grid(seed=21)
    b = random_grid(seed=22)
    alpha, beta = 0.7, -1.3
    mixed = alpha * a + beta * b
    rng = Xoshiro256(23)
    for _ in range(10):
        roi = random_roi(rng, 32, 32)
        lhs = roi_pool(mixed, roi, n=4).values
        rhs = (alpha * roi_pool(a, roi, n=4).values
               + beta * roi_pool(b, roi, n=4).values)
        assert np.abs(lhs - rhs).max() < 1e-9


def test_pooled_values_stay_within_grid_range():
    grid = random_grid(seed=31)
    rng = Xoshiro256(32)
    lo, hi = grid.min(), grid.max()
    for _ in range(10):
        roi = random_roi(rng, 32, 32)
        values = roi_pool(grid, roi, n=6).values
        assert values.min() >= lo - 1e-12
        assert values.max() <= hi + 1e-12


def test_pool_clamps_beyond_borders():
    # An ROI hanging past the image edge samples border pixels, exactly
    # as the oracle does.
    grid = random_grid(seed=41, width=16, height=12)
    roi = [15.0, 1.0, 8.0, 6.0]
    pooled = roi_pool(grid, roi, n=5)
    expected = pool_oracle(grid, roi, n=5)
    assert np.abs(pooled.values - expected).max() < 1e-6


def test_pool_rejects_degenerate_requests():
    grid = random_grid(seed=51)
    roi = [10.0, 10.0, 4.0, 4.0]
    with pytest.raises(ValidationError, match="lattice"):
        roi_pool(grid, roi, n=0)
    # roi_pool takes only an [H x W x 2] grid
    for shape in ((4, 4), (4, 4, 3), (2, 4, 4, 2), (8,)):
        with pytest.raises(ValidationError, match=re.escape(
                f"a flow grid must be [H x W x 2], got shape {shape}")):
            roi_pool(np.zeros(shape), roi, n=2)
    # a ROI is a [cx, cy, w, h] row; before, a short one died unpacking it
    with pytest.raises(ValidationError, match=re.escape(
            "ROIs must be [k x 4], got shape (1, 3)")):
        roi_pool(np.zeros((4, 4, 2)), [1, 1, 2], 2)


def test_a_flow_grid_without_pixels_is_refused(tmp_path):
    # before, roi_pool raised an IndexError and the writer wrote a 0x3 file
    path = tmp_path / "grid.ffgr"
    for call in (lambda: roi_pool(np.zeros((0, 4, 2)), [1.0, 1.0, 2.0, 2.0], 2),
                 lambda: write_flow_grid(path, np.zeros((3, 0, 2)))):
        with pytest.raises(ValidationError, match="a flow grid has no pixels"):
            call()
    assert not path.exists()


def test_lattice_pool_rows_equal_one_roi_passes_bit_for_bit():
    # k ROIs, each reading its own frame, pool in one gather call; every
    # row equals pooling its ROI alone.  ROIs reach past every border and
    # some flow values are +0.0 or -0.0, so sign bits are compared too.
    rng = np.random.default_rng(71)
    frames = rng.uniform(-5.0, 5.0, size=(12, 30, 40, 2))
    frames[rng.uniform(size=frames.shape) < 0.1] = 0.0
    frames[rng.uniform(size=frames.shape) < 0.1] = -0.0
    x0, y0 = rng.uniform(-10.0, 45.0, size=(2, 12))
    rois = np.column_stack([x0, y0, rng.uniform(0.5, 30.0, 12), rng.uniform(0.5, 30.0, 12)])
    asked = []

    def gather(roi, rows, cols):
        asked.append(len(rows))
        return frames[roi, rows, cols]

    for n in (1, 3, 5):
        got = lattice_pool(rois, n, 40, 30, gather)
        assert got.shape == (12, 2 * n * n)
        for i, roi in enumerate(rois):
            want = pool_frame(roi, n, 40, 30,
                              lambda rows, cols: frames[i, rows, cols])
            assert np.array_equal(got[i], want)
            assert np.array_equal(np.signbit(got[i]), np.signbit(want))
    assert asked == [4 * 12 * n * n for n in (1, 3, 5)]


def test_lattice_pool_rejects_bad_lattices_and_empty_rois():
    def gather(roi, rows, cols):
        return np.zeros((len(rows), 2))

    good = [10.0, 10.0, 4.0, 4.0]
    with pytest.raises(ValidationError,
                       match="lattice size n must be a positive integer, got 0"):
        lattice_pool(np.array([good]), 0, 32, 32, gather)
    for bad in BAD_ROIS:
        with pytest.raises(ValidationError, match=re.escape(
                f"cannot pool an empty or non-finite ROI: [cx, cy, w, h] = {bad}")):
            lattice_pool(np.array([good, bad]), 2, 32, 32, gather)


# empty, NaN or infinite ROI rows; before, an infinite extent pooled to
# NaN after asking for column -2**63
BAD_ROIS = ([10.0, 10.0, 0.0, 4.0], [10.0, 10.0, 4.0, -1.0], [math.nan, 10.0, 4.0, 4.0],
            [10.0, 10.0, math.inf, 4.0], [10.0, 10.0, 4.0, math.nan],
            [10.0, -math.inf, 4.0, 4.0], [math.inf, 10.0, math.inf, 4.0])


@pytest.mark.parametrize("bad", BAD_ROIS)
def test_one_roi_pooling_refuses_an_empty_or_non_finite_roi(bad):
    video = generate_scenario(Scenario(frames=2, width=32, height=32))
    message = re.escape(f"cannot pool an empty or non-finite ROI: [cx, cy, w, h] = {bad}")
    for pool in (lambda: roi_pool(random_grid(seed=52), bad, 2),
                 lambda: video.pooled_flow(1, bad, 2),
                 lambda: video.pooled_flow(1, np.array(bad), 2)):
        with pytest.raises(ValidationError, match=message):
            pool()


def test_flow_grid_validates_shape_and_finiteness(tmp_path):
    # a flow grid is an [H x W x 2] array; the writer refuses any other
    # shape, and any value that is not finite once stored as f32, which
    # `read_flow_pixels` would refuse, and then leaves no file
    path = tmp_path / "grid.ffgr"
    for shape in ((4, 4), (4, 4, 1), (1, 4, 4, 2)):
        with pytest.raises(ValidationError, match=re.escape(
                f"a flow grid must be [H x W x 2], got shape {shape}")):
            write_flow_grid(path, np.zeros(shape))
    for value in (np.inf, -np.inf, np.nan, 1e39):
        bad = np.zeros((2, 3, 2))
        bad[1, 2, 0] = value
        with pytest.raises(ValidationError, match="not finite as f32"):
            write_flow_grid(path, bad)
    assert not path.exists()
    largest = np.full((2, 3, 2), np.finfo(np.float32).max, dtype=np.float64)
    write_flow_grid(path, largest)
    assert np.array_equal(read_flow_grid(path), largest)


def test_pooled_flow_validates_length():
    with pytest.raises(ValidationError, match="length"):
        PooledFlow(values=np.zeros(49), n=5)


def test_flow_file_round_trip(tmp_path):
    grid = random_grid(seed=61, width=20, height=10)
    path = tmp_path / "000000.ffgr"
    write_flow_grid(path, grid)
    loaded = read_flow_grid(path)
    assert loaded.shape == (10, 20, 2) and loaded.dtype == np.float64
    # storage is f32: reading back gives exactly the rounded values
    np.testing.assert_array_equal(loaded, grid.astype("<f4").astype(np.float64))
    assert np.abs(loaded - grid).max() < 1e-6

    write_flow_grid(path, loaded)
    again = read_flow_grid(path)
    np.testing.assert_array_equal(again, loaded)


def test_interrupted_flow_file_write_keeps_the_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "grid.ffgr"
    old = random_grid(seed=65, width=5, height=3)
    write_flow_grid(path, old)

    def interrupted(src, dst):
        raise OSError("interrupted before the rename")

    monkeypatch.setattr(os, "replace", interrupted)
    with pytest.raises(OSError, match="interrupted"):
        write_flow_grid(path, random_grid(seed=66, width=8, height=2))
    monkeypatch.undo()
    assert np.array_equal(read_flow_grid(path), old.astype("<f4").astype(np.float64))
    assert [p.name for p in tmp_path.iterdir()] == ["grid.ffgr"]


def test_flow_file_bytes_are_header_then_f32_payload(tmp_path):
    # a transposed, so not C-contiguous, array must still go out row-major
    data = Xoshiro256(64).uniforms((2, 7, 3), -5.0, 5.0).transpose(2, 1, 0)
    path = tmp_path / "grid.ffgr"
    write_flow_grid(path, data)
    assert path.read_bytes() == (b"FFGR" + struct.pack("<II", 7, 3)
                                 + data.astype("<f4").tobytes())
    np.testing.assert_array_equal(
        read_flow_pixels(path, width=7, height=3),
        data.astype("<f4").astype(np.float64))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_flow_file_rejects_corruption(tmp_path):
    grid = random_grid(seed=62, width=6, height=4)
    path = tmp_path / "grid.ffgr"
    write_flow_grid(path, grid)
    blob = path.read_bytes()

    path.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(DataFormatError, match="magic"):
        read_flow_grid(path)

    for cut in (6, len(blob) - 7):
        path.write_bytes(blob[:cut])
        with pytest.raises(DataFormatError, match="offset"):
            read_flow_grid(path)

    # a signalling NaN as u at row 2, column 3: reads that take that pixel
    # name the file, with no cast warning first
    damaged = bytearray(blob)
    u_at = 12 + 8 * (6 * 2 + 3)
    damaged[u_at:u_at + 4] = struct.pack("<I", 0x7F800001)
    path.write_bytes(bytes(damaged))
    for read in (lambda: read_flow_grid(path),
                 lambda: read_flow_pixels(path, (np.array([0, 2]), np.array([5, 3])))):
        with pytest.raises(DataFormatError, match="grid.ffgr: non-finite flow"):
            read()
    rows, cols = np.divmod(np.arange(24), 6)
    assert np.all(np.isfinite(read_flow_pixels(path, (rows[rows != 2], cols[rows != 2]))))


def test_flow_pixels_gathers_the_given_pixels_of_the_grid(tmp_path):
    grid = random_grid(seed=63, width=20, height=10)
    path = tmp_path / "grid.ffgr"
    write_flow_grid(path, grid)
    full = read_flow_grid(path)
    rows, cols = np.array([2, 9, 0, 2, 5]), np.array([3, 19, 0, 3, 11])
    pixels = read_flow_pixels(path, (rows, cols), width=20, height=10)
    assert pixels.dtype == np.float64
    np.testing.assert_array_equal(pixels, full[rows, cols])
    np.testing.assert_array_equal(read_flow_pixels(path), full)
    # same payload length, but the header disagrees with the expected dims
    with pytest.raises(DataFormatError, match="10x20"):
        read_flow_pixels(path, (rows, cols), width=10, height=20)


@pytest.fixture(scope="module")
def small_flow_file(tmp_path_factory):
    """A 16x10 .ffgr of a rendered frame after the first, so its ground
    rows hold nonzero flow."""
    scenario = Scenario(frames=3, camera=CameraSpec(focal=20.0, ppx=8.0, ppy=3.0),
                        ego_speeds=0.5, ego_yaw_rates=0.05, width=16, height=10,
                        actors=(ActorSpec(x=1.0, z=0.0, heading=0.0, speed=0.0),))
    grid = generate_scenario(scenario).flow_grid(2)
    assert np.count_nonzero(grid) > 100
    path = tmp_path_factory.mktemp("ffgr") / "000002.ffgr"
    write_flow_grid(path, grid)
    return path


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_damaged_flow_file_loads_or_raises_data_format_error(small_flow_file,
                                                             data):
    original = small_flow_file.read_bytes()
    # 0, 127, 128 and 255 in a float's high bytes make NaN, inf and huge values
    byte = st.one_of(st.sampled_from([0, 127, 128, 255]), st.integers(0, 255))
    if data.draw(st.booleans(), label="cut"):
        damaged = original[:data.draw(st.integers(0, len(original) - 1))]
    else:
        damaged = bytearray(original)
        for _ in range(data.draw(st.integers(1, 4))):
            damaged[data.draw(st.integers(0, len(original) - 1))] = data.draw(byte)
    small_flow_file.write_bytes(bytes(damaged))
    try:
        read_flow_grid(small_flow_file)
    except DataFormatError:
        pass
    finally:
        small_flow_file.write_bytes(original)
