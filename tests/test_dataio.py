import copy
import json
import math
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fvl import dataio
from fvl.dataio import (ActorSpec, CameraSpec, Sample, Scenario,
                        generate_scenario, random_scenario, read_dataset,
                        read_scenario_file, read_video_dir, split_videos,
                        windows_from_video, write_dataset,
                        write_scenario_file, write_video_dir)
from fvl.egomotion import compose, rotation_matrix, wrap_angle, write_ego_log
from fvl.errors import DataFormatError, ValidationError
from fvl.flowfeat import (PooledFlow, expand_roi, lattice_pool,
                          read_flow_grid, roi_pool)
from fvl.rng import Xoshiro256
from oracles import background_flow_oracle, corners, ego_poses, project_actor, \
    project_tracks, rectangle_flow, track_boxes, window_flows


def small_camera() -> CameraSpec:
    return CameraSpec(focal=250.0, ppx=160.0, ppy=80.0, cam_height=1.4)


def static_scenario(frames: int = 20) -> Scenario:
    actor = ActorSpec(x=15.0, z=0.0, heading=0.0, speed=0.0)
    return Scenario(frames=frames, camera=small_camera(), ego_yaw_rates=0.0,
                    ego_speeds=0.0, actors=(actor,), width=320, height=160)


def moving_scenario(frames: int = 12) -> Scenario:
    lead = ActorSpec(x=18.0, z=0.5, heading=0.05, speed=0.3)
    return Scenario(frames=frames, camera=small_camera(), ego_yaw_rates=0.01,
                    ego_speeds=0.5, actors=(lead,), width=320, height=160)


def rich_scenario(frames: int = 8) -> Scenario:
    lead = ActorSpec(x=18.0, z=0.5, heading=0.05, speed=0.3)
    crosser = ActorSpec(x=12.0, z=3.0, heading=-math.pi / 2.0, speed=0.5)
    return Scenario(frames=frames, camera=small_camera(), ego_yaw_rates=-0.012,
                    ego_speeds=0.55, actors=(lead, crosser),
                    width=320, height=160)


# --- generator invariants ----------------------------------------------------


def test_static_world_freezes_boxes_and_flow():
    video = generate_scenario(static_scenario())
    assert list(video.tracks) == [0]
    track = video.tracks[0]
    assert track["frame"].tolist() == list(range(20))
    assert np.all(track["box"] == track["box"][0])
    for t in (0, 1, 19):
        assert not np.any(video.flow_grid(t))


def test_crossing_actor_moves_right_and_carries_its_displacement():
    actor = ActorSpec(x=12.0, z=4.0, heading=-math.pi / 2.0, speed=0.4)
    scenario = Scenario(frames=12, camera=small_camera(), ego_yaw_rates=0.0,
                        ego_speeds=0.0, actors=(actor,), width=320, height=160)
    video = generate_scenario(scenario)
    track = video.tracks[0]
    assert track["frame"].tolist() == list(range(12))
    centers = track["box"][:, :2].tolist()
    cxs = [cx for cx, _ in centers]
    assert all(b > a for a, b in zip(cxs, cxs[1:]))
    for t in range(1, 12):
        dcx = centers[t][0] - centers[t - 1][0]
        dcy = centers[t][1] - centers[t - 1][1]
        roi = [centers[t][0], centers[t][1], 4.0, 4.0]
        pooled = video.pooled_flow(t, roi, 3)
        assert np.max(np.abs(pooled.values[0::2] - dcx)) < 1e-12
        assert np.max(np.abs(pooled.values[1::2] - dcy)) < 1e-12


def test_ego_log_composes_to_simulated_pose():
    scenario = Scenario(frames=30, camera=small_camera(), ego_yaw_rates=0.02,
                        ego_speeds=0.6, width=320, height=160)
    video = generate_scenario(scenario)
    # one step row [yaw, x, z] per frame transition
    assert video.ego_steps.tolist() == [[0.02, 0.6, 0.0]] * 29
    poses = compose(video.ego_steps)
    assert poses.shape == (29, 3)
    yaw, x, z = poses[-1]
    assert abs(yaw - wrap_angle(0.02 * 29)) < 1e-9
    t = np.arange(29)
    assert abs(x - np.sum(0.6 * np.cos(0.02 * t))) < 1e-9
    assert abs(z - np.sum(0.6 * np.sin(0.02 * t))) < 1e-9
    # a step's yaw is its rate wrapped into (-pi, pi]
    spinning = generate_scenario(Scenario(frames=3, ego_yaw_rates=4.0))
    assert spinning.ego_steps.tolist() == [[wrap_angle(4.0), 0.0, 0.0]] * 2


def test_forward_motion_flow_is_radial_from_center():
    scenario = Scenario(frames=3, camera=small_camera(), ego_yaw_rates=0.0,
                        ego_speeds=0.9, width=320, height=160)
    grid = generate_scenario(scenario).flow_grid(2)
    assert not np.any(grid[:81])  # the horizon row and sky carry no flow
    rows = np.arange(82, 160)
    u = np.arange(320) + 0.5 - 160.0
    v = (rows + 0.5 - 80.0)[:, None]
    fu = grid[82:, :, 0]
    fv = grid[82:, :, 1]
    cross = u[None, :] * fv - v * fu
    dot = u[None, :] * fu + v * fv
    assert np.max(np.abs(cross)) < 1e-8
    assert np.all(dot > 0.0)
    assert np.all(fv > 0.0)


def test_background_flow_matches_reprojection_oracle():
    scenario = Scenario(frames=4, camera=small_camera(), ego_yaw_rates=0.03,
                        ego_speeds=0.7, width=320, height=160)
    video = generate_scenario(scenario)
    headings = np.concatenate([[0.0], np.cumsum(video.ego_steps[:, 0])])
    positions = [np.zeros(2)]
    for k, step in enumerate(video.ego_steps):
        positions.append(positions[-1] + rotation_matrix(headings[k]) @ step[1:])
    cam = scenario.camera
    pixels = ((40, 120, 3), (200, 100, 3), (300, 155, 2), (10, 90, 1))
    # one frame per pixel in one call, and each pixel on its own
    cols, rows, frames = (np.array(axis) for axis in zip(*pixels))
    together = video.flow_at(frames, rows, cols)
    for i, (col, row, t) in enumerate(pixels):
        u, v = col + 0.5, row + 0.5
        depth = cam.focal * cam.cam_height / (v - cam.ppy)
        x_cam = (u - cam.ppx) * depth / cam.focal
        world = positions[t] + rotation_matrix(headings[t]) @ [depth, -x_cam]
        prev = rotation_matrix(headings[t - 1]).T @ (world - positions[t - 1])
        u_prev = cam.focal * (-prev[1]) / prev[0] + cam.ppx
        v_prev = cam.focal * cam.cam_height / prev[0] + cam.ppy
        (du, dv), = video.flow_at(t, np.array([row]), np.array([col]))
        assert abs(du - (u - u_prev)) < 1e-9
        assert abs(dv - (v - v_prev)) < 1e-9
        assert together[i].tolist() == [du, dv]


def pixels_of(ix0, iy0, ix1, iy1):
    """Row and column indices of every pixel of a rectangle, row-major."""
    rows, cols = np.indices((iy1 - iy0, ix1 - ix0))
    return rows.ravel() + iy0, cols.ravel() + ix0


def assert_bit_equal(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("block", [dataio.GROUND_BLOCK_PX, 700, 1])
@pytest.mark.parametrize("ppx, ppy", [
    (160.0, 80.0),     # horizon inside the image
    (161.37, 80.0),    # non-integer principal point
    (160.0, -12.5),    # horizon above the image: every row is ground
    (160.0, 171.0),    # horizon below the image: no row is ground
    (97.25, 3.6),
])
def test_background_flow_equals_full_frame_oracle_bit_for_bit(
        monkeypatch, block, ppx, ppy):
    monkeypatch.setattr(dataio, "GROUND_BLOCK_PX", block)
    camera = CameraSpec(focal=250.0, ppx=ppx, ppy=ppy, cam_height=1.4)
    # the reversing step puts near ground points behind the earlier camera
    scenario = Scenario(frames=4, camera=camera,
                        ego_yaw_rates=[0.03, -0.2, 0.05],
                        ego_speeds=[0.7, -5.0, 1.5], width=320, height=160)
    video = generate_scenario(scenario)
    headings, positions = ego_poses(video)
    rng = Xoshiro256(5)
    rects = [(0, 0, 320, 160)]
    for _ in range(8):
        ix0, iy0 = int(rng.uniform(0, 320)), int(rng.uniform(0, 160))
        rects.append((ix0, iy0, int(rng.uniform(ix0 + 1, 321)),
                      int(rng.uniform(iy0 + 1, 161))))
    wants, frames = [], []
    for t in (1, 2, 3):
        # whole frames go in blocks of rows, pixels of a rectangle in one call
        assert_bit_equal(video.flow_grid(t), background_flow_oracle(
            camera, headings, positions, t, 0, 0, 320, 160))
        for ix0, iy0, ix1, iy1 in rects:
            want = background_flow_oracle(camera, headings, positions, t,
                                          ix0, iy0, ix1, iy1)
            got = video.flow_at(t, *pixels_of(ix0, iy0, ix1, iy1))
            assert_bit_equal(got.reshape(want.shape), want)
            wants.append(want.reshape(-1, 2))
            frames.append(np.full(len(wants[-1]), t))
    # and every rectangle of every frame, frame 0 too, in one call
    rows, cols = (np.concatenate(axis) for axis in zip(
        *[pixels_of(*rect) for _ in (1, 2, 3) for rect in rects]))
    frames = np.concatenate(frames)
    frames[::7] = 0
    want = np.concatenate(wants)
    want[::7] = 0.0
    assert_bit_equal(video.flow_at(frames, rows, cols), want)
    # the bottom row is ground: it moves at frame 1 and is masked at frame 2
    bottom = [video.flow_grid(t)[-1] for t in (1, 2)]
    assert np.all(bottom[0][:, 1] != 0.0) == (ppy < 160)
    assert not np.any(bottom[1])


def test_parked_ego_gives_positive_zero_flow():
    scenario = Scenario(frames=4, camera=small_camera(),
                        ego_yaw_rates=[0.03, 0.0, 0.0],
                        ego_speeds=[0.7, 0.0, 0.0], width=320, height=160)
    video = generate_scenario(scenario)
    headings, positions = ego_poses(video)
    assert headings[1] != 0.0 and headings[3] == headings[1]
    for t in (2, 3):
        data = video.flow_grid(t)
        assert not np.any(data) and not np.any(np.signbit(data))
        want = background_flow_oracle(scenario.camera, headings, positions,
                                      t, 0, 0, 320, 160)
        assert_bit_equal(data, want)


def parked_scenario(frames: int = 6) -> Scenario:
    """An ego that turns, then stops, behind a parked and a crossing car."""
    parked = ActorSpec(x=14.0, z=-1.0, heading=0.1, speed=0.0)
    crosser = ActorSpec(x=12.0, z=3.0, heading=-math.pi / 2.0, speed=0.5)
    return Scenario(frames=frames, camera=small_camera(),
                    ego_yaw_rates=[0.03] + [0.0] * (frames - 2),
                    ego_speeds=[0.7] + [0.0] * (frames - 2),
                    actors=(parked, crosser), width=320, height=160)


def test_patch_pooling_matches_full_grid():
    # Pooling renders only the pixels the lattice reads; it must equal
    # pooling the full frame of the rectangle renderer bit for bit: over
    # actor boxes (overlapping ones in the rich scenario), ROIs that
    # cross the horizon row or hang past an image border, a parked ego's
    # zero flow, and frame 0.
    rng = Xoshiro256(17)
    for scenario in (rich_scenario(), parked_scenario()):
        video = generate_scenario(scenario)
        for t in range(scenario.frames):
            grid = rectangle_flow(video, t, 0, 0, 320, 160)
            assert_bit_equal(video.flow_grid(t), grid)
            boxes = np.concatenate([track["box"][track["frame"] == t]
                                    for track in video.tracks.values()])
            rois = [expand_roi(boxes, expand, 320, 160) for expand in (1.0, 1.5, 4.0)]
            rois += [[[rng.uniform(-10.0, 330.0), rng.uniform(60.0, 100.0),
                       rng.uniform(1.0, 60.0), rng.uniform(1.0, 60.0)] for _ in range(6)]]
            rois += [[[0.3, 159.9, 5.0, 3.0], [320.0, 0.0, 40.0, 30.0]]]
            rois = np.concatenate(rois)
            for n in (1, 3, 5):
                # every ROI of the frame in one pass, and each on its own
                batch = lattice_pool(rois, n,
                                     320, 160, lambda _, rows, cols:
                                     video.flow_at(t, rows, cols))
                for roi, values in zip(rois, batch):
                    want = roi_pool(grid, roi, n).values
                    assert_bit_equal(values, want)
                    assert_bit_equal(video.pooled_flow(t, roi, n).values, want)


def test_nearest_actor_wins_overlap():
    video = generate_scenario(rich_scenario())
    lead, crosser = (track_boxes(video.tracks[track]) for track in (0, 1))
    hit = None
    for t in range(1, 8):
        if t not in lead or t not in crosser or (t - 1) not in crosser:
            continue
        lx0, ly0, lx1, ly1 = corners(lead[t])
        cx0, cy0, cx1, cy1 = corners(crosser[t])
        ix0, iy0 = max(lx0, cx0), max(ly0, cy0)
        ix1, iy1 = min(lx1, cx1), min(ly1, cy1)
        if ix1 - ix0 > 4.0 and iy1 - iy0 > 4.0:
            hit = (t, (ix0 + ix1) / 2.0, (iy0 + iy1) / 2.0)
            break
    assert hit is not None, "scenario should make the boxes overlap"
    t, px, py = hit
    (du, dv), = video.flow_at(t, np.array([int(py)]), np.array([int(px)]))
    assert du == crosser[t][0] - crosser[t - 1][0]
    assert dv == crosser[t][1] - crosser[t - 1][1]
    # asked along with the same pixel in every other frame
    frames = np.arange(8)
    together = video.flow_at(frames, np.full(8, int(py)), np.full(8, int(px)))
    assert together[t].tolist() == [du, dv]
    for f in frames.tolist():
        assert_bit_equal(together[f], rectangle_flow(video, f, int(px), int(py),
                                                     int(px) + 1, int(py) + 1)[0, 0])


def test_equal_depth_overlap_goes_to_the_later_track():
    # two parked cars side by side, overlapping on screen, at one depth in
    # every frame, whose boxes drift apart as the ego drives up
    cars = tuple(ActorSpec(x=15.0, z=z, heading=0.0, speed=0.0) for z in (0.3, -0.3))
    video = generate_scenario(Scenario(frames=6, camera=small_camera(), ego_speeds=0.5,
                                       actors=cars, width=320, height=160))
    assert np.array_equal(video._depths[0], video._depths[1])
    left, right = (track_boxes(video.tracks[track]) for track in (0, 1))
    frames = np.arange(1, 6)
    # the middle of both boxes, where they overlap
    cols = np.array([int((left[t][0] + right[t][0]) / 2) for t in frames.tolist()])
    rows = np.array([int(left[t][1]) for t in frames.tolist()])
    flow = video.flow_at(frames, rows, cols)
    for (du, dv), t in zip(flow, frames.tolist()):
        assert du == right[t][0] - right[t - 1][0] != left[t][0] - left[t - 1][0]
        assert dv == right[t][1] - right[t - 1][1]
    for t in frames.tolist():
        assert_bit_equal(video.flow_grid(t), rectangle_flow(video, t, 0, 0, 320, 160))


def test_first_visible_frame_paints_zero_flow():
    actor = ActorSpec(x=14.0, z=20.0, heading=-math.pi / 2.0, speed=2.0)
    scenario = Scenario(frames=10, camera=small_camera(), ego_yaw_rates=0.0,
                        ego_speeds=0.5, actors=(actor,), width=320, height=160)
    video = generate_scenario(scenario)
    assert 0 in video.tracks
    first = int(video.tracks[0]["frame"][0])
    assert 0 < first < 10
    cx, cy, _, _ = video.tracks[0]["box"][0].tolist()
    roi = [cx, cy, 2.0, 2.0]
    pooled = video.pooled_flow(first, roi, 2)
    assert np.array_equal(pooled.values, np.zeros(8))
    assert not np.any(np.signbit(pooled.values))
    # the background well away from the newcomer is still sweeping past
    assert video.flow_at(first, np.array([150]), np.array([160]))[0, 1] > 0.0
    for t, named in ((10, 10), (-1, -1), (np.array([3, 10, 0, 12] * 4), 10),
                     (np.array([9] * 15 + [-2]), -2)):
        with pytest.raises(ValidationError, match=re.escape(
                f"frame {named} out of range for a 10-frame video")):
            video.flow_at(t, *pixels_of(0, 0, 4, 4))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_rendered_flow_is_rejected():
    # the reprojection overflows, so ground flow comes out non-finite;
    # a whole frame of it is rejected, and pooling must be too
    camera = CameraSpec(focal=1e200, ppx=160.0, ppy=80.0, cam_height=1e100)
    video = generate_scenario(Scenario(frames=3, camera=camera, ego_speeds=0.5,
                                       ego_yaw_rates=0.1, width=320, height=160))
    roi = [160.0, 150.0, 20.0, 10.0]
    frames = np.array([1, 2, 2])

    def run():  # one lattice pass over three frames
        return lattice_pool(np.tile(roi, (3, 1)), 3, 320, 160,
                            lambda i, rows, cols: video.flow_at(frames[i], rows, cols))

    for flow in (lambda: video.pooled_flow(2, roi, 3), lambda: video.flow_grid(2), run):
        with pytest.raises(ValidationError, match="flow data contains non-finite values"):
            flow()
    assert not np.any(video.pooled_flow(2, [160.0, 20.0, 20.0, 10.0], 3).values)


def test_generator_repeats_exactly():
    scenario = moving_scenario()
    a = generate_scenario(scenario)
    b = generate_scenario(scenario)
    assert a.tracks.keys() == b.tracks.keys()
    for track in a.tracks:
        assert a.tracks[track].tobytes() == b.tracks[track].tobytes()
    assert np.array_equal(a.flow_grid(7), b.flow_grid(7))
    assert a.ego_steps.tobytes() == b.ego_steps.tobytes()


def assert_tracks_match_projection_oracle(video):
    """Every box (cx, cy, w, h) and center depth of `video` equals, bit for
    bit, the frame-by-frame scalar projection of its scenario."""
    tracks, depths = project_tracks(video)
    assert video.tracks.keys() == tracks.keys()
    for track, boxes in tracks.items():
        assert video.tracks[track]["frame"].tolist() == list(boxes)
        assert_bit_equal(video.tracks[track]["box"],
                         np.array(list(boxes.values())))
        assert_bit_equal(video._depths[track], depths[track])


@pytest.mark.parametrize("config", [{}, {"width": 320, "height": 160, "frames": 24},
                                    {"frames": 16}])
def test_array_projection_matches_scalar_oracle_on_random_scenarios(config):
    for seed in range(200):
        assert_tracks_match_projection_oracle(
            generate_scenario(random_scenario(seed, **config)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_array_projection_matches_scalar_oracle_on_edge_cases():
    def video(*actors, yaw_rates=0.0, speeds=0.0, frames=20):
        return generate_scenario(Scenario(
            frames=frames, camera=small_camera(), ego_yaw_rates=yaw_rates,
            ego_speeds=speeds, actors=actors, width=320, height=160))

    # starts behind the camera and overtakes it: no box until every
    # corner is past the near plane; in frame 7 a rear corner sits at
    # d_fwd = 0
    overtaking = video(ActorSpec(x=-10.0, z=1.0, heading=0.0, speed=1.75))
    assert overtaking.tracks[0]["frame"].tolist() == list(range(8, 20))
    # close on the left, so its box is clipped at the image's left edge
    clipped = video(ActorSpec(x=8.0, z=3.0, heading=0.0, speed=0.0))
    assert {corners(box)[0] for box in track_boxes(clipped.tracks[0]).values()} == {0.0}
    # far enough to project under MIN_BOX_PX: it has no track
    tiny = video(ActorSpec(x=15.0, z=0.0, heading=0.0, speed=0.0),
                 ActorSpec(x=2000.0, z=0.0, heading=0.0, speed=0.0))
    assert list(tiny.tracks) == [0]
    reversing = video(ActorSpec(x=12.0, z=-1.0, heading=0.3, speed=0.2, accel=0.01),
                      ActorSpec(x=20.0, z=4.0, heading=math.pi, speed=0.5),
                      yaw_rates=[0.05, -0.08] * 9 + [0.1], speeds=-0.4)
    assert len(reversing.tracks) == 2
    # frames dropped at the near plane divide by nothing, so no warning
    for case in (overtaking, clipped, tiny, reversing):
        assert_tracks_match_projection_oracle(case)
    # a corner ahead of the near plane that projects to NaN or to +-inf
    # is refused, by the oracle too, rather than skipped or clipped away
    nan_corners = ActorSpec(x=1.5e308, z=0.0, heading=0.0, speed=0.0,
                            length=1e308, width=1e308, height=1e308)
    inf_corners = ActorSpec(x=10.0, z=0.0, heading=0.0, speed=0.0, width=1e308)
    for actor in (nan_corners, inf_corners):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValidationError, match="box fields must be finite"):
                video(actor, frames=2)
            with pytest.raises(ValidationError):
                project_actor(small_camera(), 0.0, np.zeros(2),
                              np.array([actor.x, actor.z]), actor, 320, 160)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_an_actor_whose_projection_overflows_is_rejected():
    overflowing = ActorSpec(x=10.0, z=0.0, heading=0.0, speed=1e308, accel=1e308)
    scenario = Scenario(frames=4, camera=small_camera(), actors=(overflowing,),
                        width=320, height=160)
    with pytest.raises(ValidationError, match="box fields must be finite"):
        generate_scenario(scenario)


def test_a_point_exactly_at_the_near_plane_is_ahead():
    # the rear ground corners sit exactly NEAR_PLANE_M ahead in frame 0,
    # then 0.1 m nearer in each frame after
    actor = ActorSpec(x=dataio.NEAR_PLANE_M + 2.25, z=0.0, heading=0.0, speed=-0.1)
    video = generate_scenario(Scenario(frames=3, camera=small_camera(), actors=(actor,),
                                       width=320, height=160))
    assert video.tracks[0]["frame"].tolist() == [0]
    assert_tracks_match_projection_oracle(video)
    ahead, u, v = dataio._image_point(small_camera(), np.array([0.49, 0.5, 0.51, math.nan]),
                                      np.full(4, 0.25))
    # an overflowed (NaN) point counts as ahead, so its NaN pixel is refused
    assert ahead.tolist() == [False, True, True, True]
    # a point short of the near plane is projected at d_fwd = 1.0
    assert (u[0], v[0]) == (250.0 * -0.25 + 160.0, 250.0 * 1.4 + 80.0)


def test_random_scenario_deterministic_and_bounded():
    a = random_scenario(31)
    b = random_scenario(31)
    assert np.array_equal(a.ego_yaw_rates, b.ego_yaw_rates)
    assert np.array_equal(a.ego_speeds, b.ego_speeds)
    assert a.actors == b.actors
    for seed in range(8):
        s = random_scenario(seed, frames=30, max_yaw_rate_rps=0.3, fps=10.0)
        assert s.ego_yaw_rates.shape == (29,)
        assert np.max(np.abs(s.ego_yaw_rates)) <= 0.3 / 10.0 + 1e-15
        assert np.min(np.abs(s.ego_yaw_rates)) > 0.0
        assert 1 <= len(s.actors) <= 3


# --- windowing ----------------------------------------------------------------


def test_window_counts_match_track_length():
    one, skipped = windows_from_video(
        generate_scenario(static_scenario(frames=20)), tau=10, delta=10, n=2)
    assert len(one) == 1 and skipped == 0
    none, skipped_short = windows_from_video(
        generate_scenario(static_scenario(frames=19)), tau=10, delta=10, n=2)
    assert none == [] and skipped_short == 1
    six, _ = windows_from_video(
        generate_scenario(static_scenario(frames=25)), tau=10, delta=10, n=2)
    assert len(six) == 6
    for tau, delta in ((0, 1), (1, 0)):
        with pytest.raises(ValidationError, match="must be a positive integer, got 0"):
            windows_from_video(generate_scenario(static_scenario()), tau, delta)


def test_window_contents_align_with_source_video(monkeypatch):
    video = generate_scenario(moving_scenario())
    asked, flow_at = [], dataio.VideoData.flow_at
    monkeypatch.setattr(dataio.VideoData, "flow_at", lambda self, t, rows, cols:
                        asked.append(np.unique(t).tolist()) or flow_at(self, t, rows, cols))
    samples, skipped = windows_from_video(video, tau=4, delta=3, expand=1.5, n=2)
    assert skipped == 0 and len(samples) == 6
    first = samples[0]
    frames = video.tracks[first.track]["frame"].tolist()
    assert list(video.tracks) == [first.track]
    # one call for the run, with only frames that some window's past holds
    assert asked == [frames[:-3]]
    assert first.tau == 4 and first.delta == 3
    boxes = video.tracks[first.track]["box"]
    assert np.array_equal(first.past, boxes[:4])
    assert np.array_equal(first.future, boxes[4:7])
    anchor = frames[3]
    assert np.array_equal(first.ego, compose(video.ego_steps[anchor:anchor + 3]))
    roi, = expand_roi(first.past[2:3], 1.5, video.width, video.height)
    redone = video.pooled_flow(frames[2], roi, 2)
    assert np.array_equal(first.flow[2].values, redone.values)


def equal_depth_scenario(frames: int = 14) -> Scenario:
    """Two parked cars overlapping on screen at one depth, a third that
    enters at frame 2 and crosses in front of them, and an ego that
    drives up and turns."""
    cars = (ActorSpec(x=15.0, z=0.3, heading=0.0, speed=0.0),
            ActorSpec(x=15.0, z=-0.3, heading=0.0, speed=0.0),
            ActorSpec(x=11.0, z=12.0, heading=-math.pi / 2.0, speed=1.5))
    return Scenario(frames=frames, camera=small_camera(),
                    ego_yaw_rates=[0.0] * 6 + [0.02] * (frames - 7),
                    ego_speeds=0.3, actors=cars, width=320, height=160)


def full_frames(video):
    """Frame t's whole flow from the rectangle renderer, rendered once."""
    cache = {}

    def grid(t):
        if t not in cache:
            cache[t] = rectangle_flow(video, t, 0, 0, video.width, video.height)
        return cache[t]
    return grid


def assert_windows_equal_the_oracle(video, frame_grid, expands, lattices):
    """Every window's pooled flow equals the per-frame oracle's bit for
    bit; returns how many pooled ROIs the image edge clipped."""
    clipped = 0
    for expand in expands:
        for n in lattices:
            samples, _ = windows_from_video(video, 3, 2, expand=expand, n=n)
            want = window_flows(video, 3, 2, expand, n, frame_grid)
            assert samples and len(samples) == len(want)
            for sample, flows in zip(samples, want):
                assert_bit_equal(np.array([f.values for f in sample.flow]), flows)
                assert {f.n for f in sample.flow} == {n}
            past = np.concatenate([sample.past for sample in samples])
            reach = past[:, 2:] * expand / 2.0
            clipped += np.sum((past[:, :2] - reach < 0.0).any(axis=1)
                              | (past[:, :2] + reach > [video.width, video.height]).any(axis=1))
    return clipped


@pytest.mark.parametrize("scenario", [
    rich_scenario(), parked_scenario(), equal_depth_scenario(),
    random_scenario(4, frames=12, width=320, height=160),
    random_scenario(18, frames=8),  # 1280x640, three tracks
], ids=["rich", "parked", "equal_depth", "random_320x160", "random_1280x640"])
def test_windows_equal_the_per_frame_oracle(scenario):
    video = generate_scenario(scenario)
    assert (video.width, video.height) in ((320, 160), (1280, 640))
    clipped = assert_windows_equal_the_oracle(video, full_frames(video),
                                              (1.0, 1.5, 2.5), (1, 3, 5))
    assert clipped


def test_external_flow_windows_equal_the_per_frame_oracle(tmp_path, external_flow_dir,
                                                           monkeypatch):
    video = generate_scenario(equal_depth_scenario(frames=9))
    root = external_flow_dir(video, tmp_path / "video")
    loaded = read_video_dir(root)
    reads, read = [], dataio.read_flow_pixels
    monkeypatch.setattr(dataio, "read_flow_pixels", lambda path, *args:
                        reads.append(path.name) or read(path, *args))
    clipped = assert_windows_equal_the_oracle(
        loaded, lambda t: read_flow_grid(root / "flow" / f"{t:06d}.ffgr"),
        (1.0, 2.5), (1, 3, 5))
    assert clipped
    # each of the six windowings reads each past frame's file once per run
    runs = [track["frame"].tolist() for track in video.tracks.values()]
    per_windowing = sorted(f"{t:06d}.ffgr" for run in runs for t in run[:-2])
    assert sorted(reads) == sorted(per_windowing * 6)


def test_windowing_asks_for_flow_once_per_run(tmp_path, monkeypatch):
    video = generate_scenario(equal_depth_scenario())
    write_video_dir(video, tmp_path / "video")
    loaded = read_video_dir(tmp_path / "video")
    calls, flow_at = [], dataio.VideoData.flow_at
    monkeypatch.setattr(dataio.VideoData, "flow_at", lambda self, t, rows, cols:
                        calls.append(np.unique(t).tolist()) or flow_at(self, t, rows, cols))
    runs = [track["frame"].tolist() for track in video.tracks.values()]
    for source in (video, loaded):
        for tau, delta in ((3, 2), (5, 5), (1, 1)):
            calls.clear()
            samples, skipped = windows_from_video(source, tau, delta, n=3)
            long_runs = [run for run in runs if len(run) >= tau + delta]
            assert samples and skipped == len(runs) - len(long_runs)
            assert calls == [run[:-delta] for run in long_runs]


def test_windows_split_a_track_at_its_gaps(tmp_path, external_flow_dir):
    # boxes.jsonl lines dropped from a directory without its scenario
    # leave tracks with gaps; each run of consecutive frames windows on
    # its own, as the per-frame oracle splits them
    video = generate_scenario(equal_depth_scenario())
    root = external_flow_dir(video, tmp_path / "video")
    lines = (root / "boxes.jsonl").read_text().splitlines()
    drop = {(0, 4), (0, 5), (1, 9), (2, 6)}
    (root / "boxes.jsonl").write_text("".join(
        line + "\n" for line in lines
        if (json.loads(line)["track"], json.loads(line)["frame"]) not in drop))
    loaded = read_video_dir(root)
    grid = lambda t: read_flow_grid(root / "flow" / f"{t:06d}.ffgr")
    samples, skipped = windows_from_video(loaded, 3, 2, n=3)
    # each track is left with one run shorter than the 5 frames a window
    # needs, which is skipped, and one that windows
    assert skipped == 3
    runs = [(0, range(6, 14)), (1, range(0, 9)), (2, range(7, 13))]
    windows = [(track, run[start:start + 5]) for track, run in runs
               for start in range(len(run) - 4)]
    boxes = {track: track_boxes(rows) for track, rows in video.tracks.items()}
    want = window_flows(loaded, 3, 2, 1.5, 3, grid)
    assert len(samples) == len(windows) == len(want)
    for sample, (track, frames), flows in zip(samples, windows, want):
        assert sample.track == track
        assert_bit_equal(np.vstack([sample.past, sample.future]),
                         np.array([boxes[track][t] for t in frames]))
        assert_bit_equal(np.array([f.values for f in sample.flow]), flows)


def test_ego_rows_compose_once_per_anchor(monkeypatch):
    # tracks that share an anchor frame share its composed rows, which
    # equal composing that anchor's steps for each window bit for bit
    video = generate_scenario(equal_depth_scenario())
    calls, real = [], dataio.compose
    monkeypatch.setattr(dataio, "compose", lambda steps: calls.append(len(steps))
                        or real(steps))
    samples, skipped = windows_from_video(video, 3, 2, n=1)
    assert skipped == 0
    anchors = [t for _, rows in sorted(video.tracks.items())
               for t in rows["frame"][2:len(rows) - 2].tolist()]
    assert len(samples) == len(anchors) > len(set(anchors)) == len(calls)
    for sample, anchor in zip(samples, anchors):
        assert_bit_equal(sample.ego, real(video.ego_steps[anchor:anchor + 2]))


def test_run_level_errors_keep_their_messages():
    video = generate_scenario(moving_scenario())
    # the 6-frame video has no run as long as tau + delta = 10: the factor
    # and lattice are still checked, where before such a video returned
    # no windows and no error
    short = generate_scenario(moving_scenario(frames=6))
    for window, target in (((4, 3), video), ((5, 5), short)):
        # a string or None is refused as a number would be, not by a
        # TypeError from math.isfinite
        for factor in (0.5, 0.999, math.inf, math.nan, True, "2", None):
            with pytest.raises(ValidationError, match=re.escape(
                    f"expansion factor must be finite and >= 1, got {factor}")):
                windows_from_video(target, *window, expand=factor)
        for n in (0, True, 2.0):
            with pytest.raises(ValidationError, match=re.escape(
                    f"lattice size n must be a positive integer, got {n!r}")):
                windows_from_video(target, *window, n=n)
    assert windows_from_video(short, 5, 5) == ([], 1)


def test_window_and_lattice_counts_are_ints_of_at_least_one(tmp_path):
    # before, a tau of 0, True or 2.5 wrote a meta that read_video_dir
    # refuses, windowing at tau 2.5 died on a bare TypeError and at True
    # windowed at tau 1, and a lattice size of True or 2.0 died on a
    # bare TypeError
    video = generate_scenario(moving_scenario())
    for value in (0, True, 2.5):
        for key in ("tau", "delta"):
            with pytest.raises(ValidationError, match=re.escape(
                    f"{key} must be a positive integer, got {value!r}")):
                write_video_dir(video, tmp_path / "video", **{key: value})
            assert not (tmp_path / "video").exists()
    for tau, delta, bad in ((2.5, 3, "tau"), (True, 3, "tau"), (4, 3.0, "delta"),
                            (4, False, "delta")):
        value = tau if bad == "tau" else delta
        with pytest.raises(ValidationError, match=re.escape(
                f"{bad} must be a positive integer, got {value!r}")):
            windows_from_video(video, tau, delta)

    def gather(roi, rows, cols):
        return np.zeros((len(rows), 2))

    for n in (True, 2.0):
        with pytest.raises(ValidationError, match=re.escape(
                f"lattice size n must be a positive integer, got {n!r}")):
            lattice_pool([[10.0, 10.0, 4.0, 4.0]], n, 32, 32, gather)
        with pytest.raises(ValidationError, match="lattice size n"):
            windows_from_video(video, 4, 3, n=n)


def test_sample_validation():
    box = [5.0, 5.0, 2.0, 2.0]
    flow = PooledFlow(values=np.zeros(2), n=1)
    ego = [0.0, 1.0, 0.0]

    def sample(past=(box,), future=(box,), ego=(ego,), flow=(flow,), width=64):
        return Sample(track=0, past=past, flow=flow, future=future, ego=ego,
                      width=width, height=64)

    with pytest.raises(ValidationError, match="flow"):
        sample(past=(box, box))
    with pytest.raises(ValidationError, match="ego"):
        sample(future=(box, box))
    with pytest.raises(ValidationError, match="positive"):
        sample(width=0)
    with pytest.raises(ValidationError, match="sample past values must be finite"):
        sample(past=([5.0, math.nan, 2.0, 2.0],))
    with pytest.raises(ValidationError, match="box extent w and h must be positive"):
        sample(future=([5.0, 5.0, 0.0, 2.0],))
    with pytest.raises(ValidationError, match="each past row must hold 4 numbers"):
        sample(past=np.ones((3, 5)), flow=(flow,) * 3)
    with pytest.raises(ValidationError, match="each ego row must hold 3 numbers"):
        sample(ego=np.ones((1, 2)))
    # every flow entry is a PooledFlow, and all share one lattice
    wide = PooledFlow(values=np.zeros(8), n=2)
    with pytest.raises(ValidationError, match="sample flow entries must share one "
                                              "lattice, got n=1, 2"):
        sample(past=(box, box), flow=(flow, wide))
    for stray, kind in (([1.0, 2.0], "list"), ("ab", "str"), (np.zeros(2), "ndarray")):
        with pytest.raises(ValidationError,
                           match=f"sample flow entries must be PooledFlow, got {kind}"):
            sample(past=(box, box), flow=(flow, stray))
    good = sample()
    assert good.past.dtype == np.float64 and good.ego.shape == (1, 3)
    with pytest.raises(ValueError, match="read-only"):
        good.past[0, 0] = 1.0
    # the sample holds a copy, so the caller's array stays its own
    past = np.array([box])
    held = sample(past=past)
    past[0, 0] = 9.0
    assert held.past[0, 0] == 5.0


def test_scenario_validation():
    with pytest.raises(ValidationError, match="frames"):
        Scenario(frames=1)
    with pytest.raises(ValidationError, match="ego_yaw_rates"):
        Scenario(frames=5, ego_yaw_rates=np.zeros(3))
    # a one-entry list is not a scalar: it is refused, not broadcast
    with pytest.raises(ValidationError, match=re.escape(
            "ego_speeds needs 3 entries (frames - 1), got shape (1,)")):
        Scenario(frames=4, ego_speeds=[0.4])
    with pytest.raises(ValidationError):
        ActorSpec(x=0.0, z=0.0, heading=0.0, speed=0.0, length=-1.0)
    with pytest.raises(ValidationError):
        CameraSpec(focal=-10.0)
    # non-finite values rendered as empty tracks or all-zero flow, and a
    # bad fps was written into a meta that no reader accepts
    for name in ("focal", "ppx", "ppy", "cam_height"):
        for value in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValidationError, match=f"CameraSpec {name} must be finite"):
                CameraSpec(**{name: value})
    actor = dict(x=12.0, z=0.0, heading=0.0, speed=0.5)
    for name in ("x", "z", "heading", "speed", "accel", "length", "width", "height"):
        for value in (math.inf, math.nan):
            with pytest.raises(ValidationError, match=f"ActorSpec {name} must be finite"):
                ActorSpec(**{**actor, name: value})
    for fps in (math.nan, math.inf, 0.0, -5.0):
        with pytest.raises(ValidationError, match="fps must be positive and finite"):
            Scenario(frames=4, fps=fps)
    for name in ("ego_yaw_rates", "ego_speeds"):
        for value in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValidationError, match=f"{name} must be finite"):
                Scenario(frames=4, **{name: value})
    # counts are ints, not bools; before, width=320.5 generated into a meta
    # that read_video_dir refuses, and frames=4.5 died on a bare TypeError
    for value in (4.5, 4.0, True, "4"):
        with pytest.raises(ValidationError, match=re.escape(
                f"frames must be an integer >= 2, got {value!r}")):
            Scenario(frames=value)
    for key in ("width", "height"):
        for value in (320.5, 320.0, True, 0, -4):
            with pytest.raises(ValidationError, match=re.escape(
                    f"image {key} must be a positive integer, got {value!r}")):
                Scenario(frames=4, **{key: value})
        # a side must fit the u32 of an FFGR flow grid header
        assert getattr(Scenario(frames=4, **{key: 2**32 - 1}), key) == 2**32 - 1
        with pytest.raises(ValidationError, match=re.escape(
                f"image {key} must be at most {2**32 - 1}, got {2**32}")):
            Scenario(frames=4, **{key: 2**32})



# --- files ----------------------------------------------------------------------


def test_dataset_roundtrip_bit_exact(tmp_path):
    video = generate_scenario(moving_scenario())
    samples, _ = windows_from_video(video, tau=4, delta=3, expand=1.5, n=2)
    assert samples
    path = tmp_path / "train.jsonl"
    write_dataset(samples, path)
    loaded = read_dataset(path)
    assert len(loaded) == len(samples)
    for a, b in zip(samples, loaded):
        assert (a.track, a.width, a.height) == (b.track, b.width, b.height)
        assert_bit_equal(b.past, a.past)
        assert_bit_equal(b.future, a.future)
        assert_bit_equal(b.ego, a.ego)
        for fa, fb in zip(a.flow, b.flow):
            assert fa.n == fb.n
            assert np.array_equal(fa.values, fb.values)
    again = tmp_path / "again.jsonl"
    write_dataset(loaded, again)
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("writer", ["dataset", "scenario", "ego log"])
def test_a_library_write_that_fails_midway_keeps_the_previous_file(
        writer, tmp_path, monkeypatch):
    video = generate_scenario(moving_scenario())
    samples, _ = windows_from_video(video, tau=4, delta=3, n=2)
    target = tmp_path / "out"
    target.write_bytes(b"previous contents\n")
    write = {"dataset": lambda: write_dataset(samples, target),
             "scenario": lambda: write_scenario_file(target, video.scenario),
             "ego log": lambda: write_ego_log(target, video.ego_steps)}[writer]
    write_bytes = Path.write_bytes

    def fails_midway(path, data):
        write_bytes(path, data[:len(data) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_bytes", fails_midway)
    with pytest.raises(OSError, match="disk full"):
        write()
    assert target.read_bytes() == b"previous contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


SAMPLE_LINE = ('{"track":0,"width":64,"height":64,'
               '"past":[[5.0,5.0,2.0,2.0]],"future":[[6.0,5.0,2.0,2.0]],'
               '"ego":[[0.0,1.0,0.0]],"flow":{"n":1,"values":[[0.5,0.25]]}}')


def test_sample_line_reads_and_writes_back_byte_for_byte(tmp_path):
    path = tmp_path / "one.jsonl"
    path.write_text(SAMPLE_LINE + "\n")
    write_dataset(read_dataset(path), tmp_path / "again.jsonl")
    assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()


def test_read_dataset_reports_line_numbers(tmp_path):
    good = SAMPLE_LINE
    path = tmp_path / "bad.jsonl"
    path.write_text(good + "\n{not json}\n")
    with pytest.raises(DataFormatError, match="bad.jsonl:2"):
        read_dataset(path)
    for bad in (good.replace("0.25", "NaN"),
                good.replace("1.0,0.0]", "Infinity,0.0]")):
        assert bad != good
        path.write_text(good + "\n" + bad + "\n")
        with pytest.raises(DataFormatError, match="bad.jsonl:2: .*finite"):
            read_dataset(path)
    for bad, message in (
            (good.replace('"width":64', '"width":Infinity'), "width must be a "
             "positive integer, got inf"),
            (good.replace('"height":64', '"height":64.5'), "height must be a "
             "positive integer, got 64.5"),
            (good.replace('"width":64', '"width":true'), "width must be a "
             "positive integer, got True"),
            (good.replace('"height":64', '"height":0'), "height must be a "
             "positive integer, got 0")):
        assert bad != good
        path.write_text(good + "\n" + bad + "\n")
        with pytest.raises(DataFormatError,
                           match=re.escape(f"bad.jsonl:2: image {message}")):
            read_dataset(path)
    for bad, value in ((good.replace('"track":0', '"track":"zero"'), "'zero'"),
                       (good.replace('"track":0', '"track":[1,2]'), "[1, 2]"),
                       (good.replace('"track":0', '"track":false'), "False"),
                       (good.replace('"track":0', '"track":0.0'), "0.0")):
        assert bad != good
        path.write_text(good + "\n" + bad + "\n")
        with pytest.raises(DataFormatError, match=re.escape(
                f"bad.jsonl:2: track must be an integer, got {value}")):
            read_dataset(path)
    for bad in (good.replace('"past":[[5.0,5.0,2.0,2.0]]',
                             '"past":[[5.0,5.0,2.0,2.0],[5.0,5.0]]'),
                good.replace('"past":[[5.0,5.0,2.0,2.0]]',
                             '"past":[[5.0,5.0,2.0,2.0,1.0]]')):
        assert bad != good
        path.write_text(good + "\n" + bad + "\n")
        with pytest.raises(DataFormatError,
                           match=r"bad.jsonl:2: .*each past row must hold 4 numbers"):
            read_dataset(path)
    path.write_text(good + "\n")
    sample = read_dataset(path)[0]
    assert sample.past.tolist() == [[5.0, 5.0, 2.0, 2.0]]
    assert sample.flow[0].n == 1


def test_read_dataset_rejects_long_ego_rows_and_bad_lattice_sizes(tmp_path):
    # a fourth ego value was dropped, and "n": true loaded as n=True
    path = tmp_path / "bad.jsonl"
    for bad, message in [
            (SAMPLE_LINE.replace("[[0.0,1.0,0.0]]", "[[0.0,1.0,0.0,9.0]]"),
             r"ego row must hold 3 numbers"),
            (SAMPLE_LINE.replace("[[0.0,1.0,0.0]]", "[[0.0,1.0]]"),
             r"ego row must hold 3 numbers"),
            (SAMPLE_LINE.replace('"n":1', '"n":true'),
             "flow n must be a positive integer, got True"),
            (SAMPLE_LINE.replace('"n":1', '"n":1.0'),
             "flow n must be a positive integer, got 1.0"),
            (SAMPLE_LINE.replace('"n":1,"values":[[0.5,0.25]]',
                                 '"n":0,"values":[[]]'),
             "flow n must be a positive integer, got 0"),
            (SAMPLE_LINE.replace('"n":1', '"n":-1'),
             "flow n must be a positive integer, got -1")]:
        assert bad != SAMPLE_LINE
        path.write_text(SAMPLE_LINE + "\n" + bad + "\n")
        with pytest.raises(DataFormatError, match=f"bad.jsonl:2: .*{message}"):
            read_dataset(path)


@pytest.mark.parametrize("fault, message", [
    ({}, None),
    ({"track": True}, "track must be an integer, got True"),
    ({"width": 64.5}, "image width must be a positive integer, got 64.5"),
    ({"width": math.inf}, "image width must be a positive integer, got inf"),
    ({"n": -1}, "flow n must be a positive integer, got -1"),
    ({"n": 0}, "flow n must be a positive integer, got 0"),
])
def test_a_sample_is_built_only_if_the_reader_takes_it_back(tmp_path, fault, message):
    # each fault was once built and written, then refused on reading with
    # the message the constructor now gives
    fields = {"track": 0, "past": [[5.0, 5.0, 2.0, 2.0]], "future": [[6.0, 5.0, 2.0, 2.0]],
              "ego": [[0.0, 1.0, 0.0]], "width": 64, "height": 64, "n": 1, **fault}
    n = fields.pop("n")

    def build():
        return Sample(flow=[PooledFlow(values=[0.5, 0.25][:2 * n * n], n=n)], **fields)

    if message is not None:
        with pytest.raises(ValidationError, match=re.escape(message)):
            build()
        return
    path = tmp_path / "one.jsonl"
    write_dataset([build()], path)
    assert path.read_text() == SAMPLE_LINE + "\n"
    loaded, = read_dataset(path)
    assert (loaded.track, loaded.width, loaded.height) == (0, 64, 64)
    assert [loaded.past.tolist(), loaded.future.tolist(), loaded.ego.tolist()] \
        == [fields["past"], fields["future"], fields["ego"]]
    assert (loaded.flow[0].n, loaded.flow[0].values.tolist()) == (1, [0.5, 0.25])


def test_video_dir_roundtrip(tmp_path, external_flow_dir):
    video = generate_scenario(moving_scenario())
    root = tmp_path / "video"
    write_video_dir(video, root, tau=4, delta=3)
    assert sorted(p.name for p in root.iterdir()) == [
        "boxes.jsonl", "ego.txt", "meta", "scenario.scn"]
    loaded = read_video_dir(root)
    assert (loaded.width, loaded.height, loaded.frames) == (320, 160, 12)
    assert (loaded.tau, loaded.delta) == (4, 3)
    assert loaded.tracks.keys() == video.tracks.keys()
    for track, rows in video.tracks.items():
        assert loaded.tracks[track].tobytes() == rows.tobytes()
    assert loaded.ego_steps.shape == (11, 3)
    assert loaded.ego_steps.tobytes() == video.ego_steps.tobytes()
    # the directory's scenario renders flow in f64, as in memory; flow from
    # outside the generator is read back at its f32 precision
    grid = video.flow_grid(5)
    assert_bit_equal(loaded.flow_grid(5), grid)
    external = read_video_dir(external_flow_dir(video, tmp_path / "external"))
    assert np.array_equal(external.flow_grid(5),
                          grid.astype("<f4").astype(np.float64))


def test_tracks_are_read_only_frame_box_arrays(tmp_path, external_flow_dir):
    # generated, read back, and read back from boxes.jsonl lines in
    # reverse order, each track is one TRACK_ROW array in frame order
    video = generate_scenario(equal_depth_scenario())
    write_video_dir(video, tmp_path / "video")
    root = external_flow_dir(video, tmp_path / "reversed")
    lines = (root / "boxes.jsonl").read_text().splitlines()
    (root / "boxes.jsonl").write_text("\n".join(reversed(lines)) + "\n")
    records = [json.loads(line) for line in lines]
    for source in (video, read_video_dir(tmp_path / "video"), read_video_dir(root)):
        assert list(source.tracks) in ([0, 1, 2], [2, 1, 0])
        for track, rows in source.tracks.items():
            frames = [r["frame"] for r in records if r["track"] == track]
            assert rows.dtype == dataio.TRACK_ROW and rows.ndim == 1
            assert len(rows) == len(frames) and rows["frame"].tolist() == frames
            assert rows["box"].tolist() == [[r[k] for k in ("cx", "cy", "w", "h")]
                                            for r in records if r["track"] == track]
            assert rows.tobytes() == video.tracks[track].tobytes()
            with pytest.raises(ValueError, match="read-only"):
                rows["box"][0, 0] = 1.0
    assert [len(rows) for rows in video.tracks.values()] == [14, 14, 11]


def test_scenario_backed_video_windows_as_in_memory(tmp_path):
    root = tmp_path / "video"
    for scenario in (rich_scenario(), parked_scenario(),
                     random_scenario(4, frames=12, width=320, height=160)):
        video = generate_scenario(scenario)
        write_video_dir(video, root, tau=2, delta=1)  # replaces the last one
        loaded = read_video_dir(root)
        for n in (2, 5):
            want, _ = windows_from_video(video, 2, 1, expand=2.5, n=n)
            got, _ = windows_from_video(loaded, 2, 1, expand=2.5, n=n)
            assert want and len(got) == len(want)
            for a, b in zip(got, want):
                assert a.track == b.track
                for name in ("past", "future", "ego"):
                    assert_bit_equal(getattr(a, name), getattr(b, name))
                for fa, fb in zip(a.flow, b.flow):
                    assert_bit_equal(fa.values, fb.values)


def test_windowing_ignores_a_leftover_pooled_table(tmp_path, external_flow_dir):
    # Older versions kept a pooled-flow table in the video directory, keyed
    # without the ROI extent; windowing must pool fresh for any expand/n,
    # from only the lattice pixels of each frame's .ffgr.
    video = generate_scenario(rich_scenario())
    root = tmp_path / "video"
    external_flow_dir(video, root)
    flow_file = root / "flow" / "{:06d}.ffgr"
    lines = []
    for track, rows in sorted(video.tracks.items()):
        for t, box in track_boxes(rows).items():
            roi, = expand_roi([box], 1.5, video.width, video.height)
            values = roi_pool(read_flow_grid(str(flow_file).format(t)), roi, 2)
            lines.append(json.dumps(
                {"track": track, "frame": t, "n": 2, "cx": roi[0], "cy": roi[1],
                 "values": values.values.tolist()}))
    (root / "pooled.jsonl").write_text("\n".join(lines) + "\n")

    frame_of = {(track, tuple(box)): t
                for track, rows in video.tracks.items()
                for t, box in zip(rows["frame"].tolist(), rows["box"].tolist())}
    loaded = read_video_dir(root)
    clipped = 0
    for n in (2, 3):
        samples, _ = windows_from_video(loaded, tau=2, delta=1, expand=2.5, n=n)
        assert samples
        for sample in samples:
            for row, pooled in zip(sample.past, sample.flow):
                t = frame_of[sample.track, tuple(row)]
                cx, cy, w, h = row
                clipped += (cx - 1.25 * w < 0.0 or cy - 1.25 * h < 0.0
                            or cx + 1.25 * w > video.width
                            or cy + 1.25 * h > video.height)
                roi, = expand_roi([row], 2.5, video.width, video.height)
                fresh = roi_pool(read_flow_grid(str(flow_file).format(t)), roi, n)
                assert np.array_equal(pooled.values, fresh.values)
    assert clipped


GOOD_META = {"width": "320", "height": "160", "fps": "10.0", "frames": "12",
             "tau": "4", "delta": "3"}


def test_video_dir_meta_defaults_optional_keys(tmp_path):
    (tmp_path / "ego.txt").write_text(
        "".join(f"{i} 0.0 0.0 0.0\n" for i in range(11)))
    (tmp_path / "boxes.jsonl").write_text("")
    # `#` starts a comment anywhere on a line, as in scenario files
    for meta in ("width=320\nheight=160\nframes=12\n",
                 "# video\nwidth=320  # pixels\nheight=160\nframes=12#all\n"):
        (tmp_path / "meta").write_text(meta)
        loaded = read_video_dir(tmp_path)
        assert (loaded.width, loaded.height, loaded.frames) == (320, 160, 12)
        assert (loaded.fps, loaded.tau, loaded.delta) == (10.0, 10, 10)


@pytest.mark.parametrize("key, value", [
    ("width", "abc"), ("width", "320.0"), ("width", "-320"), ("height", "0"),
    ("frames", "x"), ("tau", "x"), ("delta", "0"), ("fps", "abc"),
    ("fps", "nan"), ("fps", "inf"), ("fps", "-10.0"),
])
def test_video_dir_meta_rejects_bad_values(tmp_path, key, value):
    meta = {**GOOD_META, key: value}
    (tmp_path / "meta").write_text("".join(f"{k}={v}\n" for k, v in meta.items()))
    line = list(meta).index(key) + 1
    with pytest.raises(DataFormatError,
                       match=f"meta:{line}: top-level key '{key}': must be a positive"):
        read_video_dir(tmp_path)


@pytest.mark.parametrize("meta, message", [
    # before, a misspelt key left its field at the default and a repeated
    # key replaced the earlier value
    ("width=320\nfsp=5\nheight=160\nframes=12\n",
     "meta:2: unknown top-level key 'fsp'"),
    ("width=320\nheight=160\nframes=12\nwidth=640\n",
     "meta:4: repeated top-level key 'width'"),
    ("width=320\n\nframes=12\n", "meta: top-level is missing height"),
    ("[actor]\nwidth=320\nheight=160\nframes=12\n", "meta:1: expected key=value"),
])
def test_video_dir_meta_rejects_unknown_repeated_and_missing_keys(
        tmp_path, video_dir_files, meta, message):
    for name, text in video_dir_files.items():
        (tmp_path / name).write_text(text)
    (tmp_path / "meta").write_text(meta)
    with pytest.raises(DataFormatError, match=message):
        read_video_dir(tmp_path)


@pytest.fixture(scope="module")
def video_dir_files(tmp_path_factory):
    """meta, ego.txt and boxes.jsonl text of one written video."""
    root = tmp_path_factory.mktemp("video_files")
    write_video_dir(generate_scenario(moving_scenario()), root, tau=4, delta=3)
    return {name: (root / name).read_text()
            for name in ("meta", "ego.txt", "boxes.jsonl")}


@pytest.mark.parametrize("field, value", [
    ("frame", '"3"'), ("track", '"0"'), ("frame", "3.5"), ("frame", "true"),
    ("track", "false"), ("frame", "-1"), ("frame", "12"), ("frame", "99"),
    ("frame", "0"),  # repeats line 1's (track 0, frame 0)
])
def test_boxes_file_rejects_bad_track_and_frame(tmp_path, video_dir_files,
                                               field, value):
    for name, text in video_dir_files.items():
        (tmp_path / name).write_text(text)
    lines = video_dir_files["boxes.jsonl"].splitlines()
    record = json.loads(lines[1])
    lines[1] = lines[1].replace(f'"{field}":{record[field]}',
                                f'"{field}":{value}', 1)
    assert f'"{field}":{value},' in lines[1]
    (tmp_path / "boxes.jsonl").write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError, match=f"boxes.jsonl:2: .*{field}"):
        read_video_dir(tmp_path)


@pytest.mark.parametrize("field, value", [
    ("w", "true"), ("cx", "false"), ("h", "null"), ("cy", '"60.0"'),
    ("cx", "[1.0]"), ("w", "NaN"), ("cy", "Infinity"), ("h", "-Infinity"),
    ("w", "0.0"), ("h", "-2.5"), ("w", "0"),
])
def test_boxes_file_rejects_bad_box_fields(tmp_path, video_dir_files, field, value):
    # before, "w": true loaded as a box 1 pixel wide
    for name, text in video_dir_files.items():
        (tmp_path / name).write_text(text)
    lines = video_dir_files["boxes.jsonl"].splitlines()
    record = json.loads(lines[1])
    lines[1] = lines[1].replace(f'"{field}":{record[field]!r}', f'"{field}":{value}', 1)
    assert f'"{field}":{value}' in lines[1]
    (tmp_path / "boxes.jsonl").write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError, match=re.escape(
            "boxes.jsonl:2: box needs finite cx, cy and positive w, h, got [")):
        read_video_dir(tmp_path)
    # an integer too large for a float names the line too
    lines[1] = lines[1].replace(f'"{field}":{value}', f'"{field}":1{"0" * 400}', 1)
    (tmp_path / "boxes.jsonl").write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError, match="boxes.jsonl:2: int too large"):
        read_video_dir(tmp_path)


@pytest.mark.parametrize("box, loads", [
    ([-1000, 60, 10, 8], False), ([325.0, 60.0, 10.0, 8.0], False),
    ([100.0, -4.0, 10.0, 8.0], False), ([100.0, 164.0, 10.0, 8.0], False),
    ([-5.0, 60.0, 10.0, 8.0], False),  # touches the left edge: no area
    ([-4.5, 60.0, 10.0, 8.0], True), ([100.0, 163.0, 10.0, 8.0], True),
])
def test_boxes_file_rejects_a_box_outside_the_image(tmp_path, video_dir_files,
                                                   box, loads):
    # the test is expand_roi's at factor 1, so a box that loads also windows
    for name, text in video_dir_files.items():
        (tmp_path / name).write_text(text)
    lines = video_dir_files["boxes.jsonl"].splitlines()
    record = json.loads(lines[2])
    record.update(zip(("cx", "cy", "w", "h"), box))
    lines[2] = json.dumps(record)
    (tmp_path / "boxes.jsonl").write_text("\n".join(lines) + "\n")
    if loads:
        read_video_dir(tmp_path)
        expand_roi([box], 1.0, 320, 160)
        return
    with pytest.raises(DataFormatError, match=re.escape(
            f"boxes.jsonl:3: box {box} lies outside the 320x160 image")):
        read_video_dir(tmp_path)
    with pytest.raises(ValidationError, match="lies outside the 320x160 image"):
        expand_roi([box], 1.0, 320, 160)


_MOVING_VIDEO = generate_scenario(moving_scenario())
_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 3.0, -7.0, 2.0**53, 1e16])


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(
    st.integers(-2**70, 2**70),
    st.lists(st.tuples(st.integers(0, 2**63 - 1), _FINITE, _FINITE, _FINITE, _FINITE),
             min_size=1, max_size=4),
    min_size=1, max_size=3))
def test_boxes_lines_are_the_bytes_of_json_dumps(rows):
    # boxes.jsonl is formatted without json, but must stay byte for byte
    # what json.dumps writes for finite floats
    video = copy.copy(_MOVING_VIDEO)
    video.tracks = {track: dataio._track([r[0] for r in rs], [r[1:] for r in rs])
                    for track, rs in rows.items()}
    want = [json.dumps({"frame": frame, "track": track, "cx": cx, "cy": cy,
                        "w": w, "h": h}, separators=(",", ":"))
            for track in sorted(rows) for frame, cx, cy, w, h in rows[track]]
    with tempfile.TemporaryDirectory() as root:
        write_video_dir(video, Path(root) / "video")
        text = (Path(root) / "video" / "boxes.jsonl").read_text()
    assert text.splitlines() == want
    assert text.endswith("\n")


@pytest.mark.parametrize("keep", [6, 10, 12])
def test_video_dir_rejects_ego_log_of_wrong_length(tmp_path, video_dir_files,
                                                   keep):
    for name, text in video_dir_files.items():
        (tmp_path / name).write_text(text)
    lines = video_dir_files["ego.txt"].splitlines()[:keep]
    while len(lines) < keep:
        lines.append(f"{len(lines)} 0.0 0.5 0.0")
    (tmp_path / "ego.txt").write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError,
                       match=f"ego.txt: holds {keep} steps, .* needs 11"):
        read_video_dir(tmp_path)


@pytest.mark.parametrize("header", [None, (160, 320), (321, 160), (320, 159)])
def test_bad_flow_file_raises_data_format_error(tmp_path, external_flow_dir,
                                                header):
    video = generate_scenario(moving_scenario())
    root = tmp_path / "video"
    external_flow_dir(video, root)
    for grid in (root / "flow").glob("*.ffgr"):
        blob = grid.read_bytes()
        if header is None:
            blob = blob[:-1]
        else:  # (160, 320) keeps the payload length and differs only from meta
            blob = blob[:4] + struct.pack("<II", *header) + blob[12:]
        grid.write_bytes(blob)
    with pytest.raises(DataFormatError, match="ffgr"):
        windows_from_video(read_video_dir(root), tau=4, delta=3)


def test_scenario_file_roundtrip(tmp_path):
    scenario = random_scenario(21)
    path = tmp_path / "turny.scn"
    write_scenario_file(path, scenario)
    loaded = read_scenario_file(path)
    assert loaded.frames == scenario.frames
    assert (loaded.width, loaded.height, loaded.fps) == \
        (scenario.width, scenario.height, scenario.fps)
    assert loaded.camera == scenario.camera
    assert np.array_equal(loaded.ego_yaw_rates, scenario.ego_yaw_rates)
    assert np.array_equal(loaded.ego_speeds, scenario.ego_speeds)
    assert loaded.actors == scenario.actors


def test_scenario_file_parses_defaults_and_comments(tmp_path):
    text = ("# a short clip\n"
            "frames=6\n"
            "ego_speed=0.5   # meters per frame\n"
            "\n"
            "[actor]\n"
            "x=12.0\n"
            "z=1.0\n"
            "heading=0.0\n"
            "speed=0.4\n")
    path = tmp_path / "clip.scn"
    path.write_text(text)
    scenario = read_scenario_file(path)
    assert scenario.frames == 6
    assert scenario.width == 1280 and scenario.camera.ppx == 640.0
    assert np.array_equal(scenario.ego_speeds, np.full(5, 0.5))
    assert np.array_equal(scenario.ego_yaw_rates, np.zeros(5))
    assert len(scenario.actors) == 1
    assert scenario.actors[0].length == 4.5


def test_scenario_file_errors(tmp_path):
    path = tmp_path / "bad.scn"
    path.write_text("width=320\n")
    with pytest.raises(DataFormatError, match="frames"):
        read_scenario_file(path)
    path.write_text("frames=6\nwhat\n")
    with pytest.raises(DataFormatError, match="bad.scn:2"):
        read_scenario_file(path)
    path.write_text("frames=6\n[actor]\nx=1\nz=0\nheading=oops\nspeed=1\n")
    with pytest.raises(DataFormatError, match=r"bad.scn:5: \[actor\] key 'heading': "):
        read_scenario_file(path)
    # unknown and repeated keys name the line; before, a misspelt key
    # silently left its field at the default (a parked ego, accel 0)
    actor = "[actor]\nx=1\nz=0\nheading=0\nspeed=1\n"
    for text, message in [
            ("frames=6\nego_speeds=1.0\n",
             "bad.scn:2: unknown top-level key 'ego_speeds'"),
            ("frames=6\n" + actor + "accell=0.3\n",
             r"bad.scn:7: unknown \[actor\] key 'accell'"),
            ("frames=6\n" + actor + "fps=5\n",
             r"bad.scn:7: unknown \[actor\] key 'fps'"),
            ("frames=6\nwidth=320\n# again\nwidth=640\n",
             "bad.scn:4: repeated top-level key 'width'"),
            ("frames=6\n" + actor + "x=2\n",
             r"bad.scn:7: repeated \[actor\] key 'x'"),
            ("frames=6\n" + actor + "[actor]\nx=1\nspeed=1\n",
             r"bad.scn:7: \[actor\] is missing z, heading"),
            # too few frames is named before the rate lists are sized from
            # them; before, these read "negative dimensions are not allowed"
            # and "needs 1 or -1 comma-separated values"
            ("frames=-5\nego_yaw_rate=0.1\n", "bad.scn: frames must be an integer >= 2, got -5"),
            ("frames=0\nego_speed=0.1,0.2\n", "bad.scn: frames must be an integer >= 2, got 0")]:
        path.write_text(text)
        with pytest.raises(DataFormatError, match=message):
            read_scenario_file(path)


def test_scenario_file_rejects_non_finite_or_empty_ego_plan_entries(tmp_path):
    # before, a non-finite entry loaded and rendering failed, naming no
    # file, and empty entries were dropped, so a list could come up short
    path = tmp_path / "bad.scn"
    for text, message in [
            ("frames=4\nego_speed=inf\n",
             "bad.scn: ego_speeds must be finite, got inf at step 0"),
            ("frames=4\nego_yaw_rate=0.1,nan,0.1\n",
             "bad.scn: ego_yaw_rates must be finite, got nan at step 1"),
            ("frames=4\nego_speed=0.5,,0.6,0.7\n",
             "bad.scn:2: top-level key 'ego_speed': empty entry in '0.5,,0.6,0.7'"),
            ("frames=4\nego_yaw_rate=0.1,0.2,0.3,\n",
             "bad.scn:2: top-level key 'ego_yaw_rate': empty entry in '0.1,0.2,0.3,'"),
            # a list holds one value or one per frame transition
            ("frames=4\nego_speed=0.4,0.5\n", re.escape(
                "bad.scn: ego_speeds needs 3 entries (frames - 1), got shape (2,)"))]:
        path.write_text(text)
        with pytest.raises(DataFormatError, match=message):
            read_scenario_file(path)


def test_split_videos_deterministic_and_disjoint():
    ids = [f"vid{i:03d}" for i in range(40)]
    train, test = split_videos(ids, 0.7, seed=9)
    assert (train, test) == split_videos(list(reversed(ids)), 0.7, seed=9)
    assert len(train) == 28 and len(test) == 12
    assert sorted(train + test) == sorted(ids)
    assert not set(train) & set(test)
    other_train, _ = split_videos(ids, 0.7, seed=10)
    assert other_train != train
    with pytest.raises(ValidationError):
        split_videos(ids, 1.0, seed=0)
    with pytest.raises(ValidationError):
        split_videos([], 0.5, seed=0)


def test_library_reals_refuse_a_bool_or_a_non_number():
    # before, a string died on a bare TypeError and a bool passed as 0 or 1
    actor = dict(x=12.0, z=0.0, heading=0.0, speed=0.5)
    for value in ("1", None, True, 10**400):
        with pytest.raises(ValidationError, match=re.escape(
                f"CameraSpec focal must be finite, got {value!r}")):
            CameraSpec(focal=value)
        for name in ("x", "length"):
            with pytest.raises(ValidationError, match=re.escape(
                    f"ActorSpec {name} must be finite, got {value!r}")):
                ActorSpec(**{**actor, name: value})
        with pytest.raises(ValidationError, match=re.escape(
                f"fps must be positive and finite, got {value!r}")):
            Scenario(frames=4, fps=value)
        with pytest.raises(ValidationError, match=re.escape(
                f"train fraction must be in (0, 1), got {value!r}")):
            split_videos(["a", "b"], value, 1)
    # numpy reals and ints are real numbers
    assert CameraSpec(focal=np.float64(250.0), ppx=40).focal == 250.0
    assert Scenario(frames=4, fps=np.float32(5.0)).fps == 5.0
    train, test = split_videos(["a", "b"], np.float64(0.5), 1)
    assert sorted(train + test) == ["a", "b"] and len(train) == 1
