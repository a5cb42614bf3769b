"""Dense flow grids and ROI pooling.

A :class:`FlowGrid` stores one (u, v) displacement per pixel.  The
forecaster does not consume the full grid; it consumes a fixed-length
summary produced by :func:`roi_pool`: bilinear samples on an n x n
lattice inside a (usually expanded) region of interest, flattened to the
interleaved vector [u_1, v_1, ..., u_{n*n}, v_{n*n}].

Conventions, fixed here so any reimplementation agrees bit-for-bit:
pixel (i, j) has its center at continuous coordinate (i + 0.5, j + 0.5);
lattice samples sit at the centers of the n x n equal sub-cells of the
ROI (the align-corners-false convention); samples beyond the last pixel
center clamp to the border pixel.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .boxes import BoundingBox
from .errors import DataFormatError, ValidationError

__all__ = [
    "FlowGrid",
    "PooledFlow",
    "expand_roi",
    "roi_pool",
    "read_flow_grid",
    "read_flow_patch",
    "write_flow_grid",
    "FLOW_MAGIC",
]

FLOW_MAGIC = b"FFGR"


@dataclass(frozen=True)
class FlowGrid:
    """Per-pixel (u, v) displacement field, data shaped [height, width, 2]."""

    width: int
    height: int
    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        object.__setattr__(self, "data", data)
        if data.shape != (self.height, self.width, 2):
            raise ValidationError(
                f"flow data shape {data.shape} does not match "
                f"(height={self.height}, width={self.width}, 2)")
        if not np.all(np.isfinite(data)):
            raise ValidationError("flow data contains non-finite values")

    @classmethod
    def constant(cls, width: int, height: int, u: float, v: float) -> "FlowGrid":
        data = np.empty((height, width, 2))
        data[..., 0] = u
        data[..., 1] = v
        return cls(width=width, height=height, data=data)


@dataclass(frozen=True)
class PooledFlow:
    """Flattened n x n lattice of flow samples, interleaved u then v."""

    values: np.ndarray
    n: int

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.shape != (2 * self.n * self.n,):
            raise ValidationError(
                f"pooled flow for n={self.n} must have length "
                f"{2 * self.n * self.n}, got shape {values.shape}")


def expand_roi(box: BoundingBox, factor: float, image_width: float,
               image_height: float) -> BoundingBox:
    """Grow a box about its center, then clip the corners to the image.

    The result keeps whatever extent survives clipping; a box that ends
    up with no area inside the image is rejected.
    """
    if factor < 1.0:
        raise ValidationError(f"expansion factor must be >= 1, got {factor}")
    half_w = box.w * factor / 2.0
    half_h = box.h * factor / 2.0
    x0 = max(box.cx - half_w, 0.0)
    y0 = max(box.cy - half_h, 0.0)
    x1 = min(box.cx + half_w, float(image_width))
    y1 = min(box.cy + half_h, float(image_height))
    if x1 <= x0 or y1 <= y0:
        raise ValidationError(
            f"box {box} expanded by {factor} lies outside the "
            f"{image_width}x{image_height} image")
    return BoundingBox.from_corners(x0, y0, x1, y1)


def _bilinear(data: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Sample a [rows x cols x channels] array at continuous points,
    border-clamped; returns [points x channels].

    A point (x, y) reads column x, row y, with pixel centers at
    half-integer coordinates.
    """
    height, width = data.shape[:2]
    gx = xs - 0.5
    gy = ys - 0.5
    x0 = np.floor(gx)
    y0 = np.floor(gy)
    fx = (gx - x0)[:, None]
    fy = (gy - y0)[:, None]
    c0 = np.clip(x0, 0, width - 1).astype(int)
    c1 = np.clip(x0 + 1, 0, width - 1).astype(int)
    r0 = np.clip(y0, 0, height - 1).astype(int)
    r1 = np.clip(y0 + 1, 0, height - 1).astype(int)
    top = data[r0, c0] * (1.0 - fx) + data[r0, c1] * fx
    bottom = data[r1, c0] * (1.0 - fx) + data[r1, c1] * fx
    return top * (1.0 - fy) + bottom * fy


def roi_pool(grid: FlowGrid, roi: BoundingBox, n: int,
             origin: tuple = (0, 0)) -> PooledFlow:
    """Bilinearly sample the flow on an n x n lattice inside the ROI.

    `origin` is the integer pixel index of the grid's top-left corner,
    for grids that cover only a window of a larger image.  Sample
    positions are laid out in full-image coordinates and then shifted,
    so pooling a window agrees bit-for-bit with pooling the whole image.
    """
    if n < 1:
        raise ValidationError(f"pooling lattice size must be >= 1, got {n}")
    x0, y0, x1, y1 = roi.corners()
    if x1 <= x0 or y1 <= y0:
        raise ValidationError(f"cannot pool an empty ROI: {roi}")
    offsets = (np.arange(n) + 0.5) / n
    xs = x0 + offsets * (x1 - x0) - origin[0]
    ys = y0 + offsets * (y1 - y0) - origin[1]
    grid_x, grid_y = np.meshgrid(xs, ys)
    # [n*n x 2] rows of (u, v) ravel into the interleaved vector
    values = _bilinear(grid.data, grid_x.ravel(), grid_y.ravel()).ravel()
    return PooledFlow(values=values, n=n)


# Flow grid files: magic "FFGR", u32 width, u32 height, then (u, v) as
# little-endian f32, row-major.  One file per frame.


def write_flow_grid(path, grid: FlowGrid) -> None:
    with Path(path).open("wb") as handle:
        handle.write(FLOW_MAGIC + struct.pack("<II", grid.width, grid.height))
        handle.write(grid.data.astype("<f4", order="C"))


def read_flow_patch(path, ix0: int = 0, iy0: int = 0, ix1=None, iy1=None,
                    width=None, height=None) -> np.ndarray:
    """Flow over the pixel-index rectangle [ix0, ix1) x [iy0, iy1) as f64.

    The magic, the header and the file length are checked first, then only
    the rectangle's rows and columns are read through a memory map.  `ix1`
    and `iy1` default to the grid's extent; `width` and `height`, when
    given, are the dims the header must hold.
    """
    path = Path(path)
    with path.open("rb") as handle:
        head = handle.read(12)
        if head[:4] != FLOW_MAGIC:
            raise DataFormatError(
                f"{path}: bad magic {head[:4]!r} at offset 0, expected {FLOW_MAGIC!r}")
        if len(head) < 12:
            raise DataFormatError(f"{path}: truncated header at offset {len(head)}")
        file_width, file_height = struct.unpack_from("<II", head, 4)
        if width is not None and (file_width, file_height) != (width, height):
            raise DataFormatError(
                f"{path}: header holds a {file_width}x{file_height} grid, "
                f"expected {width}x{height}")
        expected = 12 + 8 * file_width * file_height
        size = os.fstat(handle.fileno()).st_size
        if size != expected:
            raise DataFormatError(
                f"{path}: payload for {file_width}x{file_height} grid should end "
                f"at offset {expected}, file has {size} bytes")
        grid = np.memmap(handle, dtype="<f4", mode="r", offset=12,
                         shape=(file_height, file_width, 2))
    return np.array(grid[iy0:iy1, ix0:ix1], dtype=np.float64)


def read_flow_grid(path) -> FlowGrid:
    data = read_flow_patch(path)
    return FlowGrid(width=data.shape[1], height=data.shape[0], data=data)
