"""The data path commutes with a left-right mirror of the world.

Mirroring a scenario (each actor's `z` and `heading` negated, and the
ego's yaw rates) mirrors everything the generator renders about the
image's vertical center line, because the default camera's principal
point sits at x = W/2:

- a box [cx, cy, w, h] becomes [W - cx, cy, w, h];
- the flow at pixel (r, c) becomes the flow at (r, W-1-c), u negated;
- an ego row [yaw, x, z] becomes [-yaw, x, -z];
- a pooled window's n x n lattice has its columns reversed and u negated.

These checks need no oracle, so a convention slip that the code and an
oracle written alike would share (a half-pixel lattice offset, u and v
swapped) still shows.  The relation holds in memory, through a written
and re-read video directory, and for a directory of `.ffgr` grids
flipped left to right.  The metrics and the polynomial baselines commute
with the mirror too.  All tolerances are 1e-12 times the image width.
"""

import copy
import dataclasses
import functools

import numpy as np
import pytest

from fvl import dataio
from fvl.baselines import fit_extrapolate
from fvl.flowfeat import lattice_pool
from fvl.metrics import build_reports
from fvl.rng import Xoshiro256

SEEDS = range(12)
SIZES = [(1280, 640), (320, 160)]
FRAMES = 16
TAU = DELTA = 5
POOL_N = 3


def mirror_scenario(scenario):
    actors = tuple(dataclasses.replace(a, z=-a.z, heading=-a.heading)
                   for a in scenario.actors)
    return dataclasses.replace(scenario, actors=actors,
                               ego_yaw_rates=-scenario.ego_yaw_rates)


def mirror_boxes(boxes, width):
    """[..., 4] pixel boxes with cx mapped to width - cx."""
    return np.asarray(boxes) * [-1.0, 1.0, 1.0, 1.0] + [width, 0.0, 0.0, 0.0]


@functools.cache
def videos(seed, width, height):
    """The generated video of a random scenario and of its mirror."""
    scenario = dataio.random_scenario(seed, frames=FRAMES, width=width, height=height)
    return (dataio.generate_scenario(scenario),
            dataio.generate_scenario(mirror_scenario(scenario)))


def window(video):
    return dataio.windows_from_video(video, TAU, DELTA, expand=1.5, n=POOL_N)


@functools.cache
def windows(seed, width, height):
    return tuple(map(window, videos(seed, width, height)))


def close(actual, expected, width):
    np.testing.assert_allclose(actual, expected, rtol=0.0, atol=1e-12 * width)


@pytest.mark.parametrize("width, height", SIZES)
def test_mirrored_scenario_mirrors_every_box(width, height):
    assert any(videos(seed, width, height)[0].tracks for seed in SEEDS)
    for seed in SEEDS:
        video, mirrored = videos(seed, width, height)
        assert list(mirrored.tracks) == list(video.tracks)
        for key, track in video.tracks.items():
            other = mirrored.tracks[key]
            assert other["frame"].tolist() == track["frame"].tolist()
            close(other["box"], mirror_boxes(track["box"], width), width)


@pytest.mark.parametrize("width, height", SIZES)
def test_mirrored_scenario_mirrors_the_flow_with_u_negated(width, height):
    for seed in SEEDS:
        video, mirrored = videos(seed, width, height)
        # a sparse lattice over every frame that takes in both borders,
        # plus a 5 x 5 patch at each box center, where the actors paint
        rows, cols = np.meshgrid(np.r_[0:height:11, height - 1],
                                 np.r_[0:width:13, width - 1], indexing="ij")
        frames = np.repeat(np.arange(FRAMES), rows.size)
        rows, cols = np.tile(rows.ravel(), FRAMES), np.tile(cols.ravel(), FRAMES)
        patch = np.arange(-2, 3)
        for track in video.tracks.values():
            shape = (len(track), patch.size, patch.size)
            cx, cy = np.floor(track["box"][:, :2].T).astype(int)
            frames = np.r_[frames, np.broadcast_to(track["frame"][:, None, None],
                                                   shape).ravel()]
            rows = np.r_[rows, np.broadcast_to(
                np.clip(cy[:, None] + patch, 0, height - 1)[:, :, None], shape).ravel()]
            cols = np.r_[cols, np.broadcast_to(
                np.clip(cx[:, None] + patch, 0, width - 1)[:, None, :], shape).ravel()]
        flow = video.flow_at(frames, rows, cols)
        assert np.any(flow != 0.0), seed
        expected = flow * [-1.0, 1.0]
        close(mirrored.flow_at(frames, rows, width - 1 - cols), expected, width)


@pytest.mark.parametrize("width, height", SIZES)
def test_mirrored_scenario_mirrors_the_ego_rows(width, height):
    for seed in SEEDS:
        video, mirrored = videos(seed, width, height)
        close(mirrored.ego_steps, video.ego_steps * [-1.0, 1.0, -1.0], width)
        (samples, _), (others, _) = windows(seed, width, height)
        for sample, other in zip(samples, others):
            close(other.ego, sample.ego * [-1.0, 1.0, -1.0], width)


def assert_mirrored_windows(original, mirrored, width):
    """Two `windows_from_video` results are mirror images: the same
    windows of the same tracks, boxes mirrored, ego rows [-yaw, x, -z],
    and each pooled lattice with its columns reversed and u negated."""
    (samples, skipped), (others, mirrored_skipped) = original, mirrored
    assert (len(others), mirrored_skipped) == (len(samples), skipped)
    for sample, other in zip(samples, others):
        assert other.track == sample.track
        close(other.past, mirror_boxes(sample.past, width), width)
        close(other.future, mirror_boxes(sample.future, width), width)
        close(other.ego, sample.ego * [-1.0, 1.0, -1.0], width)
        for flow, mirrored_flow in zip(sample.flow, other.flow):
            lattice = flow.values.reshape(POOL_N, POOL_N, 2)
            expected = lattice[:, ::-1] * [-1.0, 1.0]
            close(mirrored_flow.values, expected.ravel(), width)


@pytest.mark.parametrize("width, height", SIZES)
def test_mirrored_windows_reverse_the_lattice_columns(width, height):
    assert any(windows(seed, width, height)[0][0] for seed in SEEDS)
    for seed in SEEDS:
        assert_mirrored_windows(*windows(seed, width, height), width)


# The disk checks run at the smaller size on a few seeds: each directory
# re-renders its flow from its scenario file, or holds a grid per frame.
DISK_SIZE = (320, 160)
DISK_SEEDS = range(3)


def test_the_mirror_holds_through_a_written_video_directory(tmp_path):
    width = DISK_SIZE[0]
    assert any(windows(seed, *DISK_SIZE)[0][0] for seed in DISK_SEEDS)
    for seed in DISK_SEEDS:
        loaded = []
        for side, video in zip(("original", "mirrored"), videos(seed, *DISK_SIZE)):
            dataio.write_video_dir(video, tmp_path / f"{seed}-{side}", TAU, DELTA)
            loaded.append(dataio.read_video_dir(tmp_path / f"{seed}-{side}"))
        original, mirrored = loaded
        assert list(mirrored.tracks) == list(original.tracks)
        for key, track in original.tracks.items():
            assert mirrored.tracks[key]["frame"].tolist() == track["frame"].tolist()
            close(mirrored.tracks[key]["box"], mirror_boxes(track["box"], width), width)
        close(mirrored.ego_steps, original.ego_steps * [-1.0, 1.0, -1.0], width)
        assert_mirrored_windows(window(original), window(mirrored), width)


def test_a_directory_of_flipped_flow_grids_windows_as_the_mirror(tmp_path,
                                                                 external_flow_dir):
    width = DISK_SIZE[0]
    for seed in DISK_SEEDS:
        video, mirrored = videos(seed, *DISK_SIZE)
        # the mirrored boxes and ego log over the original's grids, each
        # flipped left to right with u negated
        flipped = copy.copy(mirrored)
        flipped.flow_grid = lambda t: video.flow_grid(t)[:, ::-1] * [-1.0, 1.0]
        original = external_flow_dir(video, tmp_path / f"{seed}-original")
        other = external_flow_dir(flipped, tmp_path / f"{seed}-mirrored")
        assert_mirrored_windows(window(dataio.read_video_dir(original)),
                                window(dataio.read_video_dir(other)), width)


@pytest.mark.parametrize("width, height", SIZES)
def test_pooling_a_mirrored_field_reverses_the_lattice_columns(width, height):
    rng = Xoshiro256(width)
    grid = rng.uniforms((height, width, 2), -5.0, 5.0)
    mirrored_grid = grid[:, ::-1] * [-1.0, 1.0]
    # ROIs anywhere, some reaching past the image, plus a whole-image one
    # and one each side whose one sample lies half a pixel inside the
    # border, where a clamp that differed between the borders would show
    rois = np.column_stack([rng.uniforms(40, 0.0, width),
                            rng.uniforms(40, 0.0, height),
                            rng.uniforms(40, 1.0, width / 3),
                            rng.uniforms(40, 1.0, height / 3)])
    rois = np.r_[rois, [[width / 2, height / 2, width, height],
                        [width - 1.0, height / 2, 2.0, 2.0],
                        [1.0, height / 2, 2.0, 2.0]]]

    def pool(boxes, field, n):
        return lattice_pool(boxes, n, width, height,
                            lambda _, rows, cols: field[rows, cols])

    for n in (1, 3, 5):
        pooled = pool(rois, grid, n).reshape(len(rois), n, n, 2)
        expected = (pooled[:, :, ::-1] * [-1.0, 1.0]).reshape(len(rois), -1)
        close(pool(mirror_boxes(rois, width), mirrored_grid, n), expected, width)


def all_windows(width, height):
    """Every seed's windows, and their mirrored twins in the same order."""
    pairs = [windows(seed, width, height) for seed in SEEDS]
    return ([s for (samples, _), _ in pairs for s in samples],
            [s for _, (samples, _) in pairs for s in samples])


def pasts(samples):
    return np.array([s.past for s in samples])


@pytest.mark.parametrize("width, height", SIZES)
def test_baselines_commute_with_the_mirror(width, height):
    samples, others = all_windows(width, height)
    for degree in (1, 2):
        close(fit_extrapolate(pasts(others), degree, DELTA),
              mirror_boxes(fit_extrapolate(pasts(samples), degree, DELTA), width),
              width)


def reports(samples):
    """Constant-velocity forecasts scored against the windows' futures,
    split into easy and challenging cases by the constant-acceleration
    FDE."""
    future = np.array([s.future for s in samples])
    reference = fit_extrapolate(pasts(samples), 2, DELTA)
    fdes = np.hypot(*(reference[:, -1, :2] - future[:, -1, :2]).T)
    return build_reports(fit_extrapolate(pasts(samples), 1, DELTA), future, fdes)


@pytest.mark.parametrize("width, height", SIZES)
def test_metrics_are_unchanged_by_the_mirror(width, height):
    original, mirrored = (reports(side) for side in all_windows(width, height))
    assert list(mirrored) == list(original) == ["all", "easy", "challenging"]
    for case, report in original.items():
        other = mirrored[case]
        assert other.index.tolist() == report.index.tolist(), case
        for key in ("fde", "ade", "fiou"):
            close(getattr(other, key), getattr(report, key), width)
