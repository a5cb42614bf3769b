"""Sample records, dataset files, windowing, and the synthetic scenario
generator.

The generator renders no images.  It simulates an ego vehicle driving on
a flat ground plane with a forward-facing pinhole camera, plus box-shaped
actor vehicles, and emits exactly the observables the forecaster trains
on: per-frame 2D bounding boxes, dense optical flow, and an ego-motion
log.  Everything is closed-form, so tests can recompute any quantity
independently, and flow is rendered only at the pixels asked for, each
in its own frame: a pooled ROI renders the at most 4 n^2 pixels its
lattice reads, and windowing pools every past frame of a track's run in
one request.  A video directory therefore stores its scenario rather
than any flow.  Each actor's boxes come from one array pass over all
frames, which rounds every value as a frame-by-frame scalar projection
would, and each run is pooled in one array pass, which rounds every
value as pooling frame by frame would.

Geometry conventions:
  - Ground-plane frames use (x, z) with x along the heading and z to the
    left; positive yaw turns left.  The world frame is the ego frame of
    frame 0.
  - The camera sits at the ego position, `cam_height` meters above the
    ground, looking along +x.  Camera coordinates are X right, Y down,
    Z forward, so a ground point at planar offset (d_fwd, d_left) from
    the ego has camera coordinates (X, Y, Z) = (-d_left, cam_height,
    d_fwd) and projects to u = focal*X/Z + ppx, v = focal*Y/Z + ppy.
    `_ego_offsets` holds that world-to-ego transform and `_image_point`
    that projection, with the one near-plane rule; actor boxes and ground
    flow both go through them.
  - The flow stored at frame t is the displacement of image content from
    frame t-1 to frame t; frame 0 carries zero flow.

Flow painting policy: pixels within an actor's box, padded by one pixel,
carry the actor's box-center displacement (nearest actor wins where
boxes overlap, and at equal depth the later track); every other pixel
below the horizon carries the reprojected displacement of the static
ground point it images; pixels at or above the horizon carry zero.  The
one-pixel pad guarantees that bilinear samples taken anywhere inside the
box read the displacement exactly, including samples within a pixel of
the box edge.  Ground flow
is computed only for the pixels below the horizon; the others keep the
zeros they start with.  Each pixel's value is the same whichever other
pixels are rendered with it.
"""

from __future__ import annotations

import json
import math
import os
import shutil
from dataclasses import MISSING, dataclass, field, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from .egomotion import _ego_log_text, compose, read_ego_log, rotation_matrix, \
    wrap_angle
from .errors import (DataFormatError, ValidationError, is_real, require_int, text_lines,
                     write_atomic)
from .flowfeat import (PooledFlow, _clip, _require_expansion, expand_roi,
                       lattice_pool, read_flow_pixels)
from .rng import Xoshiro256

__all__ = [
    "TRACK_ROW",
    "Sample",
    "CameraSpec",
    "ActorSpec",
    "Scenario",
    "VideoData",
    "LoadedVideo",
    "generate_scenario",
    "windows_from_video",
    "read_dataset",
    "write_dataset",
    "read_key_values",
    "write_video_dir",
    "read_video_dir",
    "read_scenario_file",
    "write_scenario_file",
    "random_scenario",
    "split_videos",
]

NEAR_PLANE_M = 0.5
HORIZON_MARGIN_PX = 0.5
MIN_BOX_PX = 1.0
PAINT_PAD_PX = 1.0
GROUND_BLOCK_PX = 32768
SCENARIO_FILE = "scenario.scn"
TRACK_ROW = np.dtype([("frame", np.int64), ("box", np.float64, (4,))])  # [cx, cy, w, h]


# sample array field -> the numbers in each of its rows
_SAMPLE_ROWS = {"past": ("cx", "cy", "w", "h"), "future": ("cx", "cy", "w", "h"),
                "ego": ("yaw", "x", "z")}


@dataclass(frozen=True, eq=False)
class Sample:
    """One training/evaluation record: an observed window and its future.

    `past` [tau x 4] and `future` [delta x 4] are pixel boxes, one row
    [cx, cy, w, h] per frame; `ego` [delta x 3] is the pose [yaw, x, z] of
    each future frame in the anchor frame (see `egomotion.compose`).  All
    three are read-only float64 copies of what was passed in.  `flow`
    holds one PooledFlow per past frame, all on one lattice.  `track`,
    `width` and `height` are ints (not bools), the image dims positive.
    """

    track: int
    past: np.ndarray
    flow: tuple
    future: np.ndarray
    ego: np.ndarray
    width: int
    height: int

    def __post_init__(self):
        require_int("track", self.track)
        _require_image_dims(self)
        for name, layout in _SAMPLE_ROWS.items():
            try:
                rows = np.array(getattr(self, name))
            except ValueError:  # ragged rows
                rows = np.empty(0)
            # strings, nulls and nested lists give another dtype or shape
            if rows.dtype.kind not in "iuf" or rows.ndim != 2 \
                    or rows.shape[1] != len(layout) or not len(rows):
                raise ValidationError(
                    f"sample {name} needs one or more rows, and each {name} "
                    f"row must hold {len(layout)} numbers [{', '.join(layout)}]")
            rows = rows.astype(np.float64, copy=False)
            if not np.isfinite(rows).all():
                raise ValidationError(f"sample {name} values must be finite")
            rows.flags.writeable = False
            object.__setattr__(self, name, rows)
        if self.past[:, 2:].min() <= 0 or self.future[:, 2:].min() <= 0:
            raise ValidationError("box extent w and h must be positive")
        object.__setattr__(self, "flow", tuple(self.flow))
        if len(self.flow) != len(self.past):
            raise ValidationError(
                f"sample has {len(self.past)} past boxes but "
                f"{len(self.flow)} flow vectors")
        strays = [f for f in self.flow if not isinstance(f, PooledFlow)]
        if strays:
            raise ValidationError(f"sample flow entries must be PooledFlow, "
                                  f"got {type(strays[0]).__name__}")
        lattices = sorted({f.n for f in self.flow})
        if len(lattices) > 1:
            raise ValidationError(
                f"sample flow entries must share one lattice, got n="
                f"{', '.join(map(str, lattices))}")
        if len(self.ego) != len(self.future):
            raise ValidationError(
                f"sample has {len(self.future)} future boxes but "
                f"{len(self.ego)} ego rows")

    @property
    def tau(self) -> int:
        return len(self.past)

    @property
    def delta(self) -> int:
        return len(self.future)


# an image side is a positive int that an FFGR header's u32 holds
MAX_IMAGE_SIDE = 2**32 - 1


def _require_image_dims(owner) -> None:
    """Refuse a `width` or `height` that breaks the image side rule (a
    bool is not an int), so that a video meta holding it reads back."""
    for key in ("width", "height"):
        require_int(f"image {key}", getattr(owner, key), 1, MAX_IMAGE_SIDE)


def _require_finite(spec) -> None:
    """Reject a camera or actor with a field that is not a finite real."""
    for f in fields(spec):
        if not is_real(getattr(spec, f.name)):
            raise ValidationError(f"{type(spec).__name__} {f.name} must be "
                                  f"finite, got {getattr(spec, f.name)!r}")


@dataclass(frozen=True)
class CameraSpec:
    """Forward-facing pinhole camera rigidly mounted on the ego vehicle."""

    focal: float = 1000.0
    ppx: float = 640.0
    ppy: float = 320.0
    cam_height: float = 1.4

    def __post_init__(self):
        _require_finite(self)
        if self.focal <= 0 or self.cam_height <= 0:
            raise ValidationError(
                f"camera needs positive focal length and height, got "
                f"focal={self.focal}, cam_height={self.cam_height}")


@dataclass(frozen=True)
class ActorSpec:
    """A box-shaped vehicle driving in a straight line on the ground plane.

    Position and heading are in the world frame (the ego frame of frame
    0); speeds are per frame.  The speed profile is speed + accel * t.
    """

    x: float
    z: float
    heading: float
    speed: float
    accel: float = 0.0
    length: float = 4.5
    width: float = 1.8
    height: float = 1.5

    def __post_init__(self):
        _require_finite(self)
        if self.length <= 0 or self.width <= 0 or self.height <= 0:
            raise ValidationError(
                f"actor dimensions must be positive, got "
                f"{self.length}x{self.width}x{self.height}")


@dataclass(frozen=True)
class Scenario:
    """Everything needed to render one synthetic video.

    `ego_yaw_rates` (rad/frame) and `ego_speeds` (m/frame) hold one value
    per frame transition (frames - 1 entries); scalars broadcast.
    """

    frames: int
    camera: CameraSpec = field(default_factory=CameraSpec)
    ego_yaw_rates: np.ndarray = 0.0
    ego_speeds: np.ndarray = 0.0
    actors: tuple = ()
    fps: float = 10.0
    width: int = 1280
    height: int = 640

    def __post_init__(self):
        require_int("frames", self.frames, 2)
        _require_image_dims(self)
        if not (is_real(self.fps) and self.fps > 0):
            raise ValidationError(f"fps must be positive and finite, got {self.fps!r}")
        steps = self.frames - 1
        for name in ("ego_yaw_rates", "ego_speeds"):
            raw = np.asarray(getattr(self, name), dtype=np.float64)
            if raw.ndim == 0:
                raw = np.full(steps, float(raw))
            if raw.shape != (steps,):
                raise ValidationError(
                    f"{name} needs {steps} entries (frames - 1), "
                    f"got shape {raw.shape}")
            bad = np.flatnonzero(~np.isfinite(raw))
            if bad.size:
                raise ValidationError(
                    f"{name} must be finite, got {raw[bad[0]]} at step {bad[0]}")
            object.__setattr__(self, name, raw)
        object.__setattr__(self, "actors", tuple(self.actors))


class _FlowSource:
    """Flow access shared by generated and loaded videos.

    Subclasses supply `width`, `height` and `flow_at(t, rows, cols)`, the
    float64 flow at the pixels (rows[i], cols[i]) as a [len(rows) x 2]
    array, of frame t or, when t is an array, of frame t[i]; full grids
    and pooled ROIs are both built from it.
    """

    def flow_grid(self, t: int) -> np.ndarray:
        """Frame t's whole [height x width x 2] flow grid, in blocks of whole
        rows of at most GROUND_BLOCK_PX pixels (one row if wider), so the
        temporaries stay in cache."""
        flat = np.empty((self.height * self.width, 2))
        block = max(1, GROUND_BLOCK_PX // self.width) * self.width
        for start in range(0, flat.shape[0], block):
            stop = min(start + block, flat.shape[0])
            rows, cols = np.divmod(np.arange(start, stop), self.width)
            flat[start:stop] = self.flow_at(t, rows, cols)
        return flat.reshape(self.height, self.width, 2)

    def pooled_flow(self, t: int, roi, n: int) -> PooledFlow:
        """ROI-pool frame t's flow inside one [cx, cy, w, h] row from only the
        pixels the lattice reads; `windows_from_video` pools a run in one pass."""
        values = lattice_pool([roi], n, self.width, self.height,
                              lambda _, rows, cols: self.flow_at(t, rows, cols))
        return PooledFlow(values=values[0], n=n)


def _track(frames, boxes) -> np.ndarray:
    """A read-only TRACK_ROW array of frame indices in order and their boxes."""
    track = np.empty(len(frames), TRACK_ROW)
    track["frame"], track["box"] = frames, boxes
    track.flags.writeable = False
    return track


class VideoData(_FlowSource):
    """Generator output for one video: boxes, ego log, and on-demand flow.

    `tracks` maps each actor with a box in some frame to its track, a
    read-only TRACK_ROW array with one row per such frame, in frame order:
    `track["frame"]` [k] and `track["box"]` [k x 4], so `len(track)` is
    its frame count.  `ego_steps` is the read-only [frames-1 x 3] array
    of step rows [yaw, x, z] (see egomotion).  Flow is rendered per pixel
    on request, so a long video costs nothing until somebody asks for
    pixels, and pooling a ROI renders only the pixels its lattice reads.
    """

    def __init__(self, scenario: Scenario, ego_steps: np.ndarray, tracks,
                 ego_rotations: np.ndarray, ego_positions: np.ndarray,
                 actor_depths):
        self.scenario = scenario
        self.width = scenario.width
        self.height = scenario.height
        self.frames = scenario.frames
        self.fps = scenario.fps
        self.ego_steps = ego_steps
        self.tracks = tracks
        self._rotations = ego_rotations
        self._positions = ego_positions
        self._depths = actor_depths

    def flow_at(self, t, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The flow at the pixels (rows[i], cols[i]), [len(rows) x 2], of
        frame t, or of frame t[i] when t holds one frame index per pixel.

        Every pixel goes through the same operations whichever others are
        asked for with it, in whatever frames.  A frame index out of range
        raises ValidationError, and so does non-finite flow, which only an
        extreme camera can produce.
        """
        frames = np.asarray(t)
        bad = (frames < 0) | (frames >= self.frames)
        if bad.any():
            raise ValidationError(f"frame {frames[bad][0]} out of range for a "
                                  f"{self.frames}-frame video")
        frames = np.broadcast_to(frames, np.shape(rows))
        out = np.zeros((len(rows), 2))
        cam = self.scenario.camera
        dv = rows + 0.5 - cam.ppy
        # frame 0 carries zero flow
        ground = (dv > HORIZON_MARGIN_PX) & (frames > 0)
        now = frames[ground]
        out[ground] = _ground_flow(cam, (self._rotations[now], self._positions[now]),
                                   (self._rotations[now - 1], self._positions[now - 1]),
                                   cols[ground] + 0.5 - cam.ppx, dv[ground])
        self._paint_actors(frames, rows, cols, out)
        if not np.all(np.isfinite(out)):
            raise ValidationError("flow data contains non-finite values")
        return out

    @cached_property
    def _paint_table(self) -> list:
        """Per track, in track order: the padded pixel bounds [col_lo,
        col_hi, row_lo, row_hi] of its box in each frame, an empty range
        where it has none, [frames x 4]; its box-center displacement from
        the frame before, zero where it had no box then, [frames x 2]; and
        its depth in each frame."""
        table = []
        for track, rows in self.tracks.items():
            center, half = rows["box"][:, :2], rows["box"][:, 2:] / 2.0
            lo = np.ceil(center - half - PAINT_PAD_PX - 0.5)
            hi = np.floor(center + half + PAINT_PAD_PX - 0.5)
            bounds = np.tile([np.inf, -np.inf, np.inf, -np.inf], (self.frames, 1))
            # [col_lo, col_hi, row_lo, row_hi]
            bounds[rows["frame"]] = np.stack([lo, hi], axis=2).reshape(-1, 4)
            centers = np.full((self.frames, 2), np.nan)
            centers[rows["frame"]] = center
            step = np.diff(centers, axis=0)
            disp = np.vstack([np.zeros((1, 2)), np.where(np.isnan(step), 0.0, step)])
            table.append((bounds, disp, self._depths[track]))
        return table

    def _paint_actors(self, frames, rows, cols, out) -> None:
        # the nearest actor wins overlaps, and at equal depth the later
        # track, as painting far to near in a stable sort would
        nearest = np.full(len(rows), np.inf)
        for bounds, disp, depths in self._paint_table:
            col_lo, col_hi, row_lo, row_hi = bounds[frames].T
            depth = depths[frames]
            hit = ((cols >= col_lo) & (cols <= col_hi) & (rows >= row_lo)
                   & (rows <= row_hi) & (depth <= nearest))
            nearest[hit] = depth[hit]
            out[hit] = disp[frames[hit]]


def _ego_offsets(rotation: np.ndarray, dx, dz):
    """(d_fwd, d_left) of the world offsets (dx, dz) from the ego in the ego
    frame of `rotation` [.. x 2 x 2], one pose or one per offset."""
    return (rotation[..., 0, 0] * dx + rotation[..., 1, 0] * dz,
            rotation[..., 0, 1] * dx + rotation[..., 1, 1] * dz)


def _image_point(camera: CameraSpec, d_fwd, d_left, elevation: float = 0.0):
    """(ahead, u, v) of the point `elevation` meters above the ground at ego
    offset (d_fwd, d_left): whether it lies at least NEAR_PLANE_M ahead,
    and its pixel, projected at d_fwd = 1.0 where it does not.  A NaN
    d_fwd (an overflowed point) counts as ahead, so its NaN pixel is
    refused downstream rather than dropped."""
    ahead = ~(d_fwd < NEAR_PLANE_M)
    d_fwd = np.where(ahead, d_fwd, 1.0)
    return (ahead, camera.focal * -d_left / d_fwd + camera.ppx,
            camera.focal * (camera.cam_height - elevation) / d_fwd + camera.ppy)


def _ground_flow(camera: CameraSpec, now, prev, du: np.ndarray,
                 dv: np.ndarray) -> np.ndarray:
    """Flow, [len(du) x 2], of the ground points imaged by the pixel
    offsets (du[i], dv[i]), dv > 0, from pose `prev` to pose `now` (each
    a (rotation, position) pair), zero where a point is not ahead of both.

    Each rotation [.. x 2 x 2] and position [.. x 2] is one pose or one
    per point.  Both poses reproject through the same operations, so two
    bit-identical poses (a parked ego) give a true zero.
    """
    depth = camera.focal * camera.cam_height / dv
    d_left = -(du * depth / camera.focal)
    # the ground point (depth, d_left) in the `now` ego frame, in the world frame
    rot, pos = now
    gx = pos[..., 0] + rot[..., 0, 0] * depth + rot[..., 0, 1] * d_left
    gz = pos[..., 1] + rot[..., 1, 0] * depth + rot[..., 1, 1] * d_left
    (ahead, u, v), (was_ahead, u_prev, v_prev) = [
        _image_point(camera, *_ego_offsets(rot, gx - pos[..., 0], gz - pos[..., 1]))
        for rot, pos in (now, prev)]
    return np.where((ahead & was_ahead)[:, None],
                    np.column_stack([u - u_prev, v - v_prev]), 0.0)


def _project_actor(camera: CameraSpec, rotations: np.ndarray,
                   positions: np.ndarray, actor: ActorSpec, width: int,
                   height: int):
    """Project an actor's 3D box in every frame at once, given the ego
    `rotations` [frames x 2 x 2] and `positions` [frames x 2]; returns
    (its track, depth per frame, inf where there is no box).

    A frame has no box when a ground corner is not ahead (see
    `_image_point`), or when its box, clipped to the image, is under
    MIN_BOX_PX on a side.  Each value goes through a one-frame scalar
    projection's operations in the same order, so it rounds the same.  A
    corner that projects to a non-finite u or v in a frame whose corners
    are all ahead raises ValidationError.
    """
    forward = np.array([math.cos(actor.heading), math.sin(actor.heading)])
    lateral = np.array([-forward[1], forward[0]])
    speeds = actor.speed + actor.accel * np.arange(len(positions) - 1)
    centers = np.cumsum(np.vstack([[actor.x, actor.z], speeds[:, None] * forward]),
                        axis=0)
    half_l, half_w = actor.length / 2.0, actor.width / 2.0
    sl = np.array([-half_l, -half_l, half_l, half_l])[:, None]
    sw = np.array([-half_w, half_w, -half_w, half_w])[:, None]
    # [frames x 4 ground corners]
    rel = centers[:, None] + sl * forward + sw * lateral - positions[:, None]
    d_fwd, d_left = _ego_offsets(rotations[:, None], rel[..., 0], rel[..., 1])
    ahead, u, v = _image_point(camera, d_fwd, d_left)
    ahead = ahead.all(axis=1)
    # each corner at the ground, then at the roof
    v = np.hstack([v, _image_point(camera, d_fwd, d_left, actor.height)[2]])
    finite = np.isfinite(u).all(axis=1) & np.isfinite(v).all(axis=1)
    if not finite[ahead].all():
        t = np.flatnonzero(ahead & ~finite)[0]
        raise ValidationError(f"projected box fields must be finite, got corners "
                              f"u={u[t].tolist()} v={v[t].tolist()} in frame {t}")
    # the corners (x0, y0) and (x1, y1), clipped to the image
    lo = np.maximum(np.column_stack([u.min(axis=1), v.min(axis=1)]), 0.0)
    hi = np.minimum(np.column_stack([u.max(axis=1), v.max(axis=1)]), [width, height])
    keep = ahead & ~(hi - lo < MIN_BOX_PX).any(axis=1)
    kept = np.flatnonzero(keep)
    track = _track(kept, np.hstack([(lo + hi)[kept] / 2.0, (hi - lo)[kept]]))
    depths = np.where(keep, _ego_offsets(rotations, *(centers - positions).T)[0],
                      np.inf)
    return track, depths


def generate_scenario(scenario: Scenario) -> VideoData:
    """Render a scenario into boxes, an ego log, and lazy flow.

    The simulation is fully determined by the scenario; nothing here
    draws random numbers.
    """
    frames = scenario.frames
    yaws = [wrap_angle(rate) for rate in scenario.ego_yaw_rates.tolist()]
    ego_steps = np.column_stack([yaws, scenario.ego_speeds, np.zeros(frames - 1)])
    ego_steps.flags.writeable = False
    # heading[t + 1] = heading[t] + yaw[t], summed in frame order from 0.0
    headings = np.cumsum(np.concatenate([[0.0], ego_steps[:, 0]]))
    rotations = np.array([rotation_matrix(heading) for heading in headings.tolist()])
    positions = np.zeros((frames, 2))
    for t, translation in enumerate(ego_steps[:, 1:]):
        positions[t + 1] = positions[t] + rotations[t] @ translation

    tracks: dict[int, np.ndarray] = {}
    depths: dict[int, np.ndarray] = {}
    for index, actor in enumerate(scenario.actors):
        track, actor_depths = _project_actor(scenario.camera, rotations, positions,
                                             actor, scenario.width, scenario.height)
        if len(track):
            tracks[index], depths[index] = track, actor_depths
    return VideoData(scenario, ego_steps, tracks, rotations, positions, depths)


def windows_from_video(video, tau: int, delta: int, expand: float = 1.5,
                       n: int = 5) -> tuple[list[Sample], int]:
    """All samples from a video plus the number of skipped short runs.

    `video` is a VideoData or LoadedVideo: anything with tracks (each a
    TRACK_ROW array in frame order), dims, a flow_at(frames, rows, cols)
    method that takes one frame index per pixel, and ego_steps, the
    [frames-1 x 3] step rows [yaw, x, z], one per frame transition.  A
    (tau, delta) window slides over each run of consecutive frames of a
    track, a slice of its rows; runs shorter than tau + delta are
    skipped.  Flow for each past frame is pooled over that frame's box
    expanded by `expand`: a run's [k x 4] boxes are expanded in one pass
    and all its frames pooled in one `lattice_pool` pass, which asks
    `flow_at` once for every lattice pixel of the run.  A sample's ego
    rows compose the delta step rows that follow its anchor frame, once
    per anchor for all the tracks that share it.
    """
    for name, value in (("tau", tau), ("delta", delta), ("lattice size n", n)):
        require_int(name, value, 1)
    _require_expansion(expand)
    samples: list[Sample] = []
    skipped = 0
    ego = {}  # anchor frame -> its composed ego rows
    for track, held in sorted(video.tracks.items()):
        for run in np.split(held, np.flatnonzero(np.diff(held["frame"]) != 1) + 1):
            if len(run) < tau + delta:
                skipped += 1
                continue
            boxes = run["box"]
            # the last delta frames of a run are in no window's past
            past = run["frame"][:-delta]
            pooled = lattice_pool(
                expand_roi(boxes[:-delta], expand, video.width, video.height),
                n, video.width, video.height,
                lambda roi, rows, cols: video.flow_at(past[roi], rows, cols))
            flows = [PooledFlow(values=values, n=n) for values in pooled]
            for start, anchor in enumerate(past[tau - 1:].tolist()):
                if anchor not in ego:
                    ego[anchor] = compose(video.ego_steps[anchor:anchor + delta])
                samples.append(Sample(
                    track=track,
                    past=boxes[start:start + tau],
                    flow=flows[start:start + tau],
                    future=boxes[start + tau:start + tau + delta],
                    ego=ego[anchor],
                    width=video.width,
                    height=video.height))
    return samples, skipped


# --- sample files ------------------------------------------------------------
#
# A dataset of windowed samples is a JSONL file: one object per line with
# track, width, height, the past/future box rows [cx, cy, w, h], the ego
# rows [yaw, x, z], and pooled flow {n, values}.  Python's json module
# prints floats with repr, so every f64 round-trips bit-exactly.


def write_dataset(samples, path) -> None:
    lines = []
    for sample in samples:
        record = {
            "track": sample.track,
            "width": sample.width,
            "height": sample.height,
            "past": sample.past.tolist(),
            "future": sample.future.tolist(),
            "ego": sample.ego.tolist(),
            "flow": {"n": sample.flow[0].n,
                     "values": [f.values.tolist() for f in sample.flow]},
        }
        lines.append(json.dumps(record, separators=(",", ":")))
    write_atomic(path, ("\n".join(lines) + ("\n" if lines else "")).encode())


def _holds_bool(value) -> bool:
    """Whether a parsed JSON value is, or nests, true or false, which
    numpy would read as 1.0 and 0.0."""
    if isinstance(value, list):
        return any(map(_holds_bool, value))
    return isinstance(value, bool)


def read_dataset(path) -> list[Sample]:
    samples = []
    for lineno, line in text_lines(path):
        try:
            record = json.loads(line)
            if "true" in line or "false" in line:  # else no value is a bool
                for key, rows in [*((name, record[name]) for name in _SAMPLE_ROWS),
                                  ("flow", record["flow"]["values"])]:
                    if _holds_bool(rows):
                        raise ValueError(
                            f"{key} values must be numbers, not true or false")
            sample = Sample(
                track=record["track"],
                past=record["past"],
                future=record["future"],
                ego=record["ego"],
                flow=tuple(PooledFlow(values=v, n=record["flow"]["n"])
                           for v in record["flow"]["values"]),
                width=record["width"],
                height=record["height"])
            samples.append(sample)
        except (KeyError, IndexError, TypeError, ValueError, ValidationError) as exc:
            raise DataFormatError(f"{path}:{lineno}: {exc}") from None
    return samples


# --- video directories --------------------------------------------------------
#
# One directory per video: `meta`, `boxes.jsonl` (one line per frame
# per track), `ego.txt` (see egomotion), and the flow's source: the
# generator writes `scenario.scn`, from which a reader renders any pixel,
# while flow from outside the generator comes as `flow/NNNNNN.ffgr` grids
# (see flowfeat) in a directory without one.  `meta`, scenario `.scn`
# files and the checkpoint header (see fvlmodel) share one parser,
# `read_key_values`: `#` starts a comment anywhere, and a refusal names
# the file and line and, for a value that does not parse, its key.


def read_key_values(path, lines, keys, sections=None) -> dict:
    """Parse `path`'s `key=value` text, given as (line number, line) pairs.

    `keys` maps each key to `(parse, default)`; a key left out takes its
    default, and `MISSING` marks a required key.  `#` starts a comment.  A
    `[name]` line opens a section when `sections` maps `name` to its own
    keys; each section's values are appended to a list under `name`.  A
    malformed line, an unknown or repeated key, or a ValueError from `parse`
    raises DataFormatError naming the file and line (a missing key: the file
    or its section's header line).
    """
    sections = sections or {}
    result = {name: [] for name in sections}
    # (where, label, keys, values) for the top level, then each section
    blocks = [(str(path), "top-level", keys, result)]
    for lineno, raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        name = line[1:-1]
        if line == f"[{name}]" and name in sections:
            result[name].append({})
            blocks.append((f"{path}:{lineno}", line, sections[name], result[name][-1]))
            continue
        if "=" not in line:
            raise DataFormatError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        _, label, known, values = blocks[-1]
        if key not in known:
            raise DataFormatError(f"{path}:{lineno}: unknown {label} key {key!r}")
        if key in values:
            raise DataFormatError(f"{path}:{lineno}: repeated {label} key {key!r}")
        try:
            values[key] = known[key][0](value)
        except ValueError as exc:
            raise DataFormatError(
                f"{path}:{lineno}: {label} key {key!r}: {exc}") from None
    for where, label, known, values in blocks:
        for key, (_, default) in known.items():
            values.setdefault(key, default)
        missing = [key for key, value in values.items() if value is MISSING]
        if missing:
            raise DataFormatError(f"{where}: {label} is missing {', '.join(missing)}")
    return result


def _positive(parse, most=math.inf):
    """`parse`, refusing a value that is not positive and finite or is
    above `most`."""
    def parse_positive(text: str):
        try:
            value = parse(text)
        except ValueError:
            value = 0
        if not 0 < value < math.inf:
            kind = "integer" if parse is int else "finite number"
            raise ValueError(f"must be a positive {kind}, got {text!r}")
        if value > most:
            raise ValueError(f"must be at most {most}, got {text!r}")
        return value
    return parse_positive


# key -> (parse, default)
_META_FIELDS = {"width": (_positive(int, MAX_IMAGE_SIDE), MISSING),
                "height": (_positive(int, MAX_IMAGE_SIDE), MISSING),
                "frames": (_positive(int), MISSING), "fps": (_positive(float), 10.0),
                "tau": (_positive(int), 10), "delta": (_positive(int), 10)}


def write_video_dir(video: VideoData, path, tau: int = 10, delta: int = 10) -> None:
    """Write a generated video as a directory: `meta`, `ego.txt`,
    `boxes.jsonl` and `scenario.scn`.

    The files go into a temporary sibling, hidden from `fvl` dataset
    scans, that is then renamed to `path`, replacing an existing
    directory whole.  A reader finds the previous directory or the new
    one, and a failed write leaves the previous one as it was.
    """
    require_int("tau", tau, 1)
    require_int("delta", delta, 1)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    old = path.with_name(f".{path.name}.{os.getpid()}.old")
    try:
        temp.mkdir()
        # the directory replaces `path` whole, so no file in it needs
        # a temp file of its own
        (temp / "meta").write_text(
            f"width={video.width}\nheight={video.height}\nfps={float(video.fps)!r}\n"
            f"frames={video.frames}\ntau={tau}\ndelta={delta}\n")
        (temp / "ego.txt").write_text(_ego_log_text(video.ego_steps))
        # json.dumps's bytes with separators (",", ":"): it writes a finite
        # float as its repr, and every track box is finite
        lines = [f'{{"frame":{frame},"track":{track},"cx":{cx!r},"cy":{cy!r},'
                 f'"w":{w!r},"h":{h!r}}}'
                 for track, rows in sorted(video.tracks.items())
                 for frame, (cx, cy, w, h) in zip(rows["frame"].tolist(),
                                                  rows["box"].tolist())]
        (temp / "boxes.jsonl").write_text("\n".join(lines) + ("\n" if lines else ""))
        (temp / SCENARIO_FILE).write_text(_scenario_text(video.scenario))
        if path.is_dir():
            path.rename(old)  # a rename cannot replace a non-empty directory
        try:
            temp.rename(path)
        except OSError:
            if old.exists():
                old.rename(path)
            raise
    finally:
        shutil.rmtree(temp, ignore_errors=True)
        shutil.rmtree(old, ignore_errors=True)


class LoadedVideo(_FlowSource):
    """A video directory re-opened for windowing and evaluation.

    Presents the same surface as VideoData: `tracks` maps each track in
    `boxes.jsonl` to its TRACK_ROW array, sorted by frame whatever the
    line order.  A directory written by
    `write_video_dir` holds its `scenario.scn`, and its flow is rendered
    from that scenario, only at the pixels asked for, bit for bit as in
    memory.  A directory without one holds flow from outside the
    generator as `flow/NNNNNN.ffgr` grids, and only the pixels asked for
    are read from the frame's file.
    """

    def __init__(self, path: Path, meta: dict, ego_steps: np.ndarray, tracks,
                 rendered: VideoData | None):
        self.path = path
        self.width = meta["width"]
        self.height = meta["height"]
        self.frames = meta["frames"]
        self.fps = meta["fps"]
        self.tau = meta["tau"]
        self.delta = meta["delta"]
        self.ego_steps = ego_steps
        self.tracks = tracks
        self._rendered = rendered

    def flow_at(self, t, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """As `VideoData.flow_at`; from `.ffgr` grids, each frame's file is
        read once per call."""
        if self._rendered is not None:
            return self._rendered.flow_at(t, rows, cols)
        frames = np.broadcast_to(t, np.shape(rows))
        out = np.empty((len(rows), 2))
        for frame in np.unique(frames).tolist():
            at = frames == frame
            out[at] = read_flow_pixels(self.path / "flow" / f"{frame:06d}.ffgr",
                                       (rows[at], cols[at]), self.width, self.height)
        return out


def _render_scenario(path: Path, meta: dict, ego_steps, tracks) -> VideoData:
    """Generate a directory's scenario file, checked against the
    directory's meta, ego log and boxes, which it must reproduce."""
    scenario = read_scenario_file(path)
    for key in ("frames", "width", "height", "fps"):
        if getattr(scenario, key) != meta[key]:
            raise DataFormatError(
                f"{path}: {key} is {getattr(scenario, key)}, but meta holds {meta[key]}")
    video = generate_scenario(scenario)
    if not np.array_equal(video.ego_steps, ego_steps):
        raise DataFormatError(f"{path}: ego motion differs from ego.txt")
    if video.tracks.keys() != tracks.keys() or not all(
            np.array_equal(video.tracks[track], rows) for track, rows in tracks.items()):
        raise DataFormatError(f"{path}: boxes differ from boxes.jsonl")
    return video


def read_video_dir(path) -> LoadedVideo:
    path = Path(path)
    meta = read_key_values(path / "meta", text_lines(path / "meta"), _META_FIELDS)
    ego_steps = read_ego_log(path / "ego.txt")
    if len(ego_steps) != meta["frames"] - 1:
        raise DataFormatError(
            f"{path / 'ego.txt'}: holds {len(ego_steps)} steps, but a "
            f"{meta['frames']}-frame video needs {meta['frames'] - 1}")
    boxes: dict[int, dict[int, list]] = {}  # track -> frame -> [cx, cy, w, h]
    found, linenos = [], []  # every box, and its line, in file order
    boxes_path = path / "boxes.jsonl"
    for lineno, line in text_lines(boxes_path):
        try:
            record = json.loads(line)
            track, frame = record["track"], record["frame"]
            for key, value in (("track", track), ("frame", frame)):
                if type(value) is not int:  # json reads true as a bool
                    raise ValueError(f"{key} must be an integer, got {value!r}")
            if not 0 <= frame < meta["frames"]:
                raise ValueError(
                    f"frame {frame} outside the video's {meta['frames']} frames")
            if frame in boxes.get(track, ()):
                raise ValueError(f"track {track} frame {frame} appears twice")
            box = [record[key] for key in ("cx", "cy", "w", "h")]
            if not all(type(v) in (int, float) and math.isfinite(v) for v in box) \
                    or min(box[2:]) <= 0:
                raise ValueError(f"box needs finite cx, cy and positive w, h, got {box}")
            boxes.setdefault(track, {})[frame] = box
            found.append(box)
            linenos.append(lineno)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DataFormatError(f"{boxes_path}:{lineno}: {exc}") from None
    width, height = meta["width"], meta["height"]
    _, outside = _clip(np.array(found, dtype=np.float64).reshape(-1, 4), 1.0,
                       width, height)
    if outside.size:
        i = outside[0]
        raise DataFormatError(f"{boxes_path}:{linenos[i]}: box {found[i]} lies "
                              f"outside the {width}x{height} image")
    tracks = {track: _track(*zip(*sorted(rows.items())))
              for track, rows in boxes.items()}
    rendered = None
    if (path / SCENARIO_FILE).exists():
        rendered = _render_scenario(path / SCENARIO_FILE, meta, ego_steps, tracks)
    return LoadedVideo(path, meta, ego_steps, tracks, rendered)


# --- scenario files -----------------------------------------------------------
#
# Text format, read by `read_key_values` like `meta`: top-level
# `key=value` lines for the camera, image, and ego plan, then one `[actor]`
# header per actor followed by its own key=value lines.  Rates and speeds
# are per frame.  `ego_yaw_rate` and `ego_speed` accept either a scalar or
# a comma-separated list with one entry per frame transition.


def _parse_rate_list(text: str):
    """A comma-separated list's floats, or its one float; `Scenario` sizes it."""
    parts = text.split(",")
    if not all(p.strip() for p in parts):
        raise ValueError(f"empty entry in {text!r}")
    values = [float(p) for p in parts]
    return values[0] if len(values) == 1 else values


# top-level key -> (parse, default): Scenario's fields, with `ego_yaw_rate`
# and `ego_speed` for its rate lists, then CameraSpec's fields
_SCENARIO = {f.name: f.default for f in fields(Scenario)}
_SCENARIO_KEYS = {
    "frames": (int, MISSING),
    **{k: (type(_SCENARIO[k]), _SCENARIO[k]) for k in ("width", "height", "fps")},
    "ego_yaw_rate": (_parse_rate_list, _SCENARIO["ego_yaw_rates"]),
    "ego_speed": (_parse_rate_list, _SCENARIO["ego_speeds"]),
    **{f.name: (float, f.default) for f in fields(CameraSpec)},
}


def read_scenario_file(path) -> Scenario:
    """Parse a scenario file.  A key that is not set takes the default of
    its :class:`Scenario`, :class:`CameraSpec` or :class:`ActorSpec`
    field; an unknown or repeated key, or a value that does not parse, is
    a DataFormatError naming its line."""
    top = read_key_values(path, text_lines(path), _SCENARIO_KEYS, {
        "actor": {f.name: (float, f.default) for f in fields(ActorSpec)}})
    try:
        camera = CameraSpec(**{f.name: top.pop(f.name) for f in fields(CameraSpec)})
        actors = tuple(ActorSpec(**actor) for actor in top.pop("actor"))
        return Scenario(camera=camera, actors=actors,
                        ego_yaw_rates=top.pop("ego_yaw_rate"),
                        ego_speeds=top.pop("ego_speed"), **top)
    except ValidationError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def _scenario_text(scenario: Scenario) -> str:
    cam = scenario.camera
    lines = [
        f"frames={scenario.frames}",
        f"width={scenario.width}",
        f"height={scenario.height}",
        f"fps={float(scenario.fps)!r}",
        *(f"{f.name}={float(getattr(cam, f.name))!r}" for f in fields(CameraSpec)),
        "ego_yaw_rate=" + ",".join(repr(float(v)) for v in scenario.ego_yaw_rates),
        "ego_speed=" + ",".join(repr(float(v)) for v in scenario.ego_speeds),
    ]
    for actor in scenario.actors:
        lines.append("[actor]")
        lines.extend(f"{f.name}={float(getattr(actor, f.name))!r}"
                     for f in fields(ActorSpec))
    return "\n".join(lines) + "\n"


def write_scenario_file(path, scenario: Scenario) -> None:
    write_atomic(path, _scenario_text(scenario).encode())


def random_scenario(seed: int, frames: int = 40, max_yaw_rate_rps: float = 0.3,
                    fps: float = 10.0, width: int = 1280,
                    height: int = 640) -> Scenario:
    """A turn-heavy scenario: an ego that changes its turn rate mid-video
    plus 1-3 straight-driving actors ahead of it."""
    rng = Xoshiro256(seed)
    steps = frames - 1
    # two constant-yaw segments; the switch point lands mid-video so many
    # windows see the turn change inside their future horizon
    switch = frames // 3 + rng.integer(max(1, frames // 3))
    rates = np.empty(steps)
    for lo, hi in ((0, switch), (switch, steps)):
        magnitude = rng.uniform(0.3, 1.0) * max_yaw_rate_rps / fps
        sign = 1.0 if rng.integer(2) == 0 else -1.0
        rates[lo:hi] = sign * magnitude
    ego_speed = rng.uniform(4.0, 9.0) / fps

    actors = []
    for _ in range(1 + rng.integer(3)):
        style = rng.integer(3)
        if style == 0:  # leading vehicle, roughly our direction
            actor = ActorSpec(
                x=rng.uniform(12.0, 28.0), z=rng.uniform(-4.0, 4.0),
                heading=rng.uniform(-0.25, 0.25),
                speed=rng.uniform(3.0, 8.0) / fps,
                accel=rng.uniform(-0.05, 0.08) / fps)
        elif style == 1:  # oncoming
            actor = ActorSpec(
                x=rng.uniform(25.0, 45.0), z=rng.uniform(1.0, 6.0),
                heading=math.pi + rng.uniform(-0.2, 0.2),
                speed=rng.uniform(3.0, 7.0) / fps)
        else:  # crossing
            side = 1.0 if rng.integer(2) == 0 else -1.0
            actor = ActorSpec(
                x=rng.uniform(15.0, 30.0), z=side * rng.uniform(5.0, 9.0),
                heading=-side * math.pi / 2.0 + rng.uniform(-0.3, 0.3),
                speed=rng.uniform(2.0, 5.0) / fps)
        actors.append(actor)
    camera = CameraSpec(ppx=width / 2.0, ppy=height / 2.0)
    return Scenario(frames=frames, camera=camera, ego_yaw_rates=rates,
                    ego_speeds=ego_speed, actors=tuple(actors), fps=fps,
                    width=width, height=height)


def split_videos(video_ids, train_fraction: float, seed: int):
    """Deterministic 70/30-style split at video granularity."""
    if not (is_real(train_fraction) and 0.0 < train_fraction < 1.0):
        raise ValidationError(
            f"train fraction must be in (0, 1), got {train_fraction!r}")
    ids = sorted(video_ids)
    if not ids:
        raise ValidationError("cannot split an empty video list")
    Xoshiro256(seed).shuffle(ids)
    cut = int(round(train_fraction * len(ids)))
    cut = max(1, min(len(ids) - 1, cut)) if len(ids) > 1 else 1
    return sorted(ids[:cut]), sorted(ids[cut:])
