"""Axis-aligned bounding boxes in pixel coordinates, center/size form."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = ["BoundingBox"]


@dataclass(frozen=True)
class BoundingBox:
    """Box center (cx, cy) and extent (w, h), all in pixels."""

    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self):
        values = (self.cx, self.cy, self.w, self.h)
        if not all(math.isfinite(v) for v in values):
            raise ValidationError(f"box fields must be finite, got {values}")
        if self.w <= 0 or self.h <= 0:
            raise ValidationError(
                f"box extent must be positive, got w={self.w}, h={self.h}")

    @classmethod
    def from_corners(cls, x0: float, y0: float, x1: float, y1: float) -> "BoundingBox":
        return cls(cx=(x0 + x1) / 2.0, cy=(y0 + y1) / 2.0, w=x1 - x0, h=y1 - y0)

    def corners(self) -> tuple[float, float, float, float]:
        """(x0, y0, x1, y1) with x0 < x1 and y0 < y1."""
        half_w, half_h = self.w / 2.0, self.h / 2.0
        return (self.cx - half_w, self.cy - half_h,
                self.cx + half_w, self.cy + half_h)

    def as_array(self) -> np.ndarray:
        return np.array([self.cx, self.cy, self.w, self.h])

    @classmethod
    def from_array(cls, arr) -> "BoundingBox":
        cx, cy, w, h = (float(v) for v in arr)
        return cls(cx=cx, cy=cy, w=w, h=h)

