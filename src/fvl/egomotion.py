"""Planar ego-motion: per-frame relative poses and their composition.

The vehicle moves on a ground plane.  Its pose change from frame t to
frame t+1 is an :class:`EgoStep`, a yaw plus a translation expressed
in the frame-t coordinate system (heading along positive x).
Chaining steps yields the pose of each future frame in the coordinates
of the anchor frame; :func:`compose` reduces each pose to the row
[yaw, x, z] the forecaster conditions on.

The ground-plane axes are (x, z): x points along the heading, z is the
lateral component.  A positive yaw is a left turn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataFormatError, ValidationError, text_lines, write_atomic

__all__ = [
    "EgoStep",
    "rotation_matrix",
    "wrap_angle",
    "compose",
    "yaw_to_step",
    "read_ego_log",
    "write_ego_log",
]


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


@dataclass(frozen=True, eq=False)
class EgoStep:
    """Relative pose from one frame to the next, exactly the fields of an
    ego-log line: the turn `yaw` (radians, positive left) and then the
    `translation` (x, z) in the earlier frame's coordinates.  `rotation`
    is the read-only `rotation_matrix(yaw)`, built once.
    """

    yaw: float
    translation: np.ndarray
    rotation: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "yaw", float(self.yaw))
        object.__setattr__(self, "translation",
                           np.asarray(self.translation, dtype=np.float64))
        if self.translation.shape != (2,):
            raise ValidationError(
                f"EgoStep translation must be a 2-vector, got shape "
                f"{self.translation.shape}")
        if not (math.isfinite(self.yaw) and np.all(np.isfinite(self.translation))):
            raise ValidationError(
                f"EgoStep needs a finite yaw and translation, got "
                f"({self.yaw}, {self.translation.tolist()})")
        rotation = rotation_matrix(self.yaw)
        rotation.flags.writeable = False
        object.__setattr__(self, "rotation", rotation)


def compose(steps) -> np.ndarray:
    """Chain relative steps into anchor-frame poses, one row [yaw, x, z]
    per horizon step: the yaw and the planar translation (x along the
    anchor heading, z lateral) of that future frame.

    The accumulated rotation is the chronological product of step
    rotations; each step's translation is rotated into the anchor frame
    by the rotation accumulated *before* that step, then added on.
    """
    rotation = np.eye(2)
    translation = np.zeros(2)
    poses = []
    for step in steps:
        translation = translation + rotation @ step.translation
        rotation = rotation @ step.rotation
        poses.append((wrap_angle(math.atan2(rotation[1, 0], rotation[0, 0])),
                      *translation))
    return np.array(poses).reshape(-1, 3)


def yaw_to_step(yaw_rate: float, speed: float) -> EgoStep:
    """Build the step for one frame of turning at `yaw_rate` rad/frame
    while advancing `speed` meters/frame along the current heading."""
    if not math.isfinite(yaw_rate):
        raise ValidationError(f"yaw_to_step needs a finite yaw rate, got {yaw_rate}")
    return EgoStep(yaw=wrap_angle(yaw_rate), translation=np.array([speed, 0.0]))


# The ego log is a text file with one line per frame transition:
#   frame_index yaw_rate_rad translation_x_m translation_y_m
# Floats are written with repr so they round-trip bit-exactly.


def _ego_log_text(steps) -> str:
    lines = []
    for i, step in enumerate(steps):
        tx, ty = (float(v) for v in step.translation)
        lines.append(f"{i} {step.yaw!r} {tx!r} {ty!r}\n")
    return "".join(lines)


def write_ego_log(path, steps) -> None:
    write_atomic(path, _ego_log_text(steps).encode())


def read_ego_log(path) -> list[EgoStep]:
    steps = []
    for lineno, line in text_lines(path):
        parts = line.split()
        if len(parts) != 4:
            raise DataFormatError(
                f"{path}:{lineno}: expected 4 fields "
                f"'frame yaw_rate tx ty', got {len(parts)}")
        try:
            index = int(parts[0])
            yaw, tx, ty = (float(p) for p in parts[1:])
            step = EgoStep(yaw=yaw, translation=np.array([tx, ty]))
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: {exc}") from None
        if index != len(steps):
            raise DataFormatError(
                f"{path}:{lineno}: frame index {index} out of order, "
                f"expected {len(steps)}")
        steps.append(step)
    return steps
