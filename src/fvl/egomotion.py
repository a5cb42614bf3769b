"""Planar ego-motion: per-frame relative poses and their composition.

The vehicle moves on a ground plane.  Its pose change from frame t to
frame t+1 is a step row [yaw, x, z] of a float64 [k x 3] array, as on an
ego-log line: a yaw plus a translation in the frame-t coordinate system
(heading along positive x).  Chaining steps yields the pose of each
future frame in the coordinates of the anchor frame; :func:`compose`
gives each pose as a row of the same layout, which the forecaster reads.

The ground-plane axes are (x, z): x points along the heading, z is the
lateral component.  A positive yaw is a left turn.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DataFormatError, ValidationError, text_lines, write_atomic

__all__ = ["rotation_matrix", "wrap_angle", "compose", "read_ego_log", "write_ego_log"]


def rotation_matrix(angle: float) -> np.ndarray:
    """Counterclockwise planar rotation by `angle` radians."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def wrap_angle(angle: float) -> float:
    """Map an angle into (-pi, pi]."""
    wrapped = math.fmod(angle, 2.0 * math.pi)
    if wrapped <= -math.pi:
        wrapped += 2.0 * math.pi
    elif wrapped > math.pi:
        wrapped -= 2.0 * math.pi
    return wrapped


def compose(steps) -> np.ndarray:
    """Chain the [k x 3] step rows into anchor-frame poses, one row
    [yaw, x, z] per horizon step: the yaw and the planar translation (x
    along the anchor heading, z lateral) of that future frame.

    The accumulated rotation is the chronological product of step
    rotations; each step's translation is rotated into the anchor frame
    by the rotation accumulated *before* that step, then added on.
    """
    steps = np.asarray(steps, dtype=np.float64)
    if steps.ndim != 2 or steps.shape[1] != 3:
        raise ValidationError(f"compose needs [k x 3] step rows [yaw, x, z], "
                              f"got shape {steps.shape}")
    rotation, translation = np.eye(2), np.zeros(2)
    poses = np.empty_like(steps)
    for i, (yaw, step) in enumerate(zip(steps[:, 0].tolist(), steps[:, 1:])):
        translation = translation + rotation @ step
        rotation = rotation @ rotation_matrix(yaw)
        poses[i] = (wrap_angle(math.atan2(rotation[1, 0], rotation[0, 0])),
                    *translation)
    return poses


# The ego log is a text file with one line per frame transition, its index
# and then its step row:
#   frame_index yaw_rate_rad translation_x_m translation_y_m
# Floats are written with repr so they round-trip bit-exactly.


def _ego_log_text(steps) -> str:
    return "".join(f"{i} {yaw!r} {x!r} {z!r}\n"
                   for i, (yaw, x, z) in enumerate(np.asarray(steps).tolist()))


def write_ego_log(path, steps) -> None:
    write_atomic(path, _ego_log_text(steps).encode())


def read_ego_log(path) -> np.ndarray:
    rows = []
    for lineno, line in text_lines(path):
        parts = line.split()
        if len(parts) != 4:
            raise DataFormatError(
                f"{path}:{lineno}: expected 4 fields "
                f"'frame yaw_rate tx ty', got {len(parts)}")
        try:
            index = int(parts[0])
            row = [float(p) for p in parts[1:]]
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: {exc}") from None
        if not all(map(math.isfinite, row)):
            raise DataFormatError(f"{path}:{lineno}: an ego step needs a finite "
                                  f"yaw and translation, got {row}")
        if index != len(rows):
            raise DataFormatError(
                f"{path}:{lineno}: frame index {index} out of order, "
                f"expected {len(rows)}")
        rows.append(row)
    return np.array(rows, dtype=np.float64).reshape(-1, 3)
