"""Dense flow grids and ROI pooling.

A :class:`FlowGrid` stores one (u, v) displacement per pixel.  The
forecaster does not consume the full grid; it consumes a fixed-length
summary produced by :func:`lattice_pool`: bilinear samples on an n x n
lattice inside a (usually expanded) region of interest, flattened to the
interleaved vector [u_1, v_1, ..., u_{n*n}, v_{n*n}].  The lattice reads
at most 4 n^2 pixels, so a flow source need only supply those.

Conventions, fixed here so any reimplementation agrees bit-for-bit:
pixel (i, j) has its center at continuous coordinate (i + 0.5, j + 0.5);
lattice samples sit at the centers of the n x n equal sub-cells of the
ROI (the align-corners-false convention); samples beyond the last pixel
center clamp to the border pixel.
"""

from __future__ import annotations

import math
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
    "lattice_pool",
    "roi_pool",
    "read_flow_grid",
    "read_flow_pixels",
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
        if not np.isfinite(values).all():
            raise ValidationError("pooled flow values must be finite")


def expand_roi(box: BoundingBox, factor: float, image_width: float,
               image_height: float) -> BoundingBox:
    """Grow a box about its center, then clip the corners to the image.

    The result keeps whatever extent survives clipping; a box that ends
    up with no area inside the image is rejected.
    """
    if not (math.isfinite(factor) and factor >= 1.0):
        raise ValidationError(
            f"expansion factor must be finite and >= 1, got {factor}")
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


def lattice_pool(roi: BoundingBox, n: int, width: int, height: int,
                 gather) -> PooledFlow:
    """Bilinearly sample a width x height flow field on an n x n lattice
    inside the ROI, border-clamped.

    `gather(rows, cols)` returns the [len(rows) x 2] flow at those pixel
    indices.  It is asked once, for the four neighbours of every sample,
    so a source renders or reads at most 4 n^2 pixels of the frame.
    """
    if n < 1:
        raise ValidationError(f"pooling lattice size must be >= 1, got {n}")
    x0, y0, x1, y1 = roi.corners()
    if x1 <= x0 or y1 <= y0:
        raise ValidationError(f"cannot pool an empty ROI: {roi}")
    offsets = (np.arange(n) + 0.5) / n
    grid_x, grid_y = np.meshgrid(x0 + offsets * (x1 - x0), y0 + offsets * (y1 - y0))
    gx = grid_x.ravel() - 0.5
    gy = grid_y.ravel() - 0.5
    left = np.floor(gx)
    top = np.floor(gy)
    fx = (gx - left)[:, None]
    fy = (gy - top)[:, None]
    c0 = np.clip(left, 0, width - 1).astype(int)
    c1 = np.clip(left + 1, 0, width - 1).astype(int)
    r0 = np.clip(top, 0, height - 1).astype(int)
    r1 = np.clip(top + 1, 0, height - 1).astype(int)
    # top-left, top-right, bottom-left, bottom-right neighbours
    near = gather(np.concatenate([r0, r0, r1, r1]),
                  np.concatenate([c0, c1, c0, c1])).reshape(4, -1, 2)
    upper = near[0] * (1.0 - fx) + near[1] * fx
    lower = near[2] * (1.0 - fx) + near[3] * fx
    # [n*n x 2] rows of (u, v) ravel into the interleaved vector
    return PooledFlow(values=(upper * (1.0 - fy) + lower * fy).ravel(), n=n)


def roi_pool(grid: FlowGrid, roi: BoundingBox, n: int) -> PooledFlow:
    """Bilinearly sample a whole grid on an n x n lattice inside the ROI;
    see `lattice_pool`, which pools a frame without materializing it."""
    return lattice_pool(roi, n, grid.width, grid.height,
                        lambda rows, cols: grid.data[rows, cols])


# Flow grid files: magic "FFGR", u32 width, u32 height, then (u, v) as
# little-endian f32, row-major.  One file per frame, for flow that comes
# from outside the scenario generator.


def write_flow_grid(path, grid: FlowGrid) -> None:
    with Path(path).open("wb") as handle:
        handle.write(FLOW_MAGIC + struct.pack("<II", grid.width, grid.height))
        handle.write(grid.data.astype("<f4", order="C"))


def read_flow_pixels(path, pixels=..., width=None, height=None) -> np.ndarray:
    """The flow at `pixels`, an index into the grid's [row, col] axes, as
    f64: `...` reads the whole [height x width x 2] grid, a (rows, cols)
    pair of index arrays gives [len(rows) x 2].

    The magic, the header and the file length are checked first, then only
    the indexed pixels are read through a memory map and checked to be
    finite.  `width` and `height`, when given, are the dims the header
    must hold.
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
    # checked before the cast, which warns on a signalling NaN
    values = grid[pixels]
    if not np.all(np.isfinite(values)):
        raise DataFormatError(f"{path}: non-finite flow value in the pixels read")
    return np.array(values, dtype=np.float64)


def read_flow_grid(path) -> FlowGrid:
    data = read_flow_pixels(path)
    return FlowGrid(width=data.shape[1], height=data.shape[0], data=data)
