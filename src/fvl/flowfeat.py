"""Dense flow grids and ROI pooling.

A flow grid is an f64 [H x W x 2] array holding one (u, v) displacement
per pixel, and a box or region of interest is a [cx, cy, w, h] row.  The
forecaster does not consume the full grid; it consumes a fixed-length
summary produced by :func:`lattice_pool`: bilinear samples on an n x n
lattice inside a (usually expanded) region of interest, flattened to the
interleaved vector [u_1, v_1, ..., u_{n*n}, v_{n*n}].  Like ROIAlign, it
pools a batch of ROIs, one row each of a [k x 4] array, in one array pass
that asks the flow source once for the at most 4 n^2 pixels each
lattice reads, so a source need only supply those; :func:`expand_roi`
grows and clips such a batch.  `roi_pool` pools one ROI of a whole
grid.

Conventions, fixed here so any reimplementation agrees bit-for-bit:
pixel (i, j) has its center at continuous coordinate (i + 0.5, j + 0.5);
lattice samples sit at the centers of the n x n equal sub-cells of the
ROI (the align-corners-false convention); samples beyond the last pixel
center clamp to the border pixel.
"""

from __future__ import annotations

import math
import numbers
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataFormatError, ValidationError, require_int, write_atomic

__all__ = [
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
class PooledFlow:
    """Flattened n x n lattice of flow samples, interleaved u then v; `n` is
    a positive int (not a bool)."""

    values: np.ndarray
    n: int

    def __post_init__(self):
        require_int("flow n", self.n, 1)
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.shape != (2 * self.n * self.n,):
            raise ValidationError(
                f"pooled flow for n={self.n} must have length "
                f"{2 * self.n * self.n}, got shape {values.shape}")
        if not np.isfinite(values).all():
            raise ValidationError("pooled flow values must be finite")


def _require_expansion(factor) -> None:
    """Refuse an ROI growth `factor` that is not a real number, is a bool,
    or is not finite and at least 1."""
    if (isinstance(factor, bool) or not isinstance(factor, numbers.Real)
            or not (math.isfinite(factor) and factor >= 1.0)):
        raise ValidationError(f"expansion factor must be finite and >= 1, got {factor}")


def expand_roi(boxes, factor: float, image_width: float,
               image_height: float) -> np.ndarray:
    """Grow each [cx, cy, w, h] row of `boxes` [k x 4] about its center,
    then clip its corners to the image; returns the [k x 4] rows left.

    A row keeps whatever extent survives clipping; a box that ends up
    with no area inside the image is rejected.
    """
    _require_expansion(factor)
    boxes = np.asarray(boxes, dtype=np.float64)
    (x0, y0, x1, y1), outside = _clip(boxes, factor, image_width, image_height)
    if outside.size:
        raise ValidationError(
            f"box {boxes[outside[0]].tolist()} expanded by {factor} "
            f"lies outside the {image_width}x{image_height} image")
    return np.column_stack([(x0 + x1) / 2.0, (y0 + y1) / 2.0, x1 - x0, y1 - y0])


def _clip(boxes: np.ndarray, factor: float, image_width: float, image_height: float):
    """The corners x0, y0, x1, y1 [k] of each [cx, cy, w, h] row of
    `boxes` [k x 4] grown by `factor` about its center and clipped to the
    image, and the indices of the rows left with no area inside it."""
    cx, cy, w, h = boxes.T
    half_w = w * factor / 2.0
    half_h = h * factor / 2.0
    x0 = np.maximum(cx - half_w, 0.0)
    y0 = np.maximum(cy - half_h, 0.0)
    x1 = np.minimum(cx + half_w, float(image_width))
    y1 = np.minimum(cy + half_h, float(image_height))
    return (x0, y0, x1, y1), np.flatnonzero((x1 <= x0) | (y1 <= y0))


def lattice_pool(rois, n: int, width: int, height: int, gather) -> np.ndarray:
    """Bilinearly sample a width x height flow field on an n x n lattice
    inside each [cx, cy, w, h] row of `rois` [k x 4], border-clamped;
    returns one interleaved row per ROI, [k x 2 n^2].

    `gather(roi, rows, cols)` returns the [len(rows) x 2] flow at pixel
    (rows[i], cols[i]) of the field that ROI roi[i] reads.  It is asked
    once, for the four neighbours of every sample of every ROI, so a
    source renders or reads at most 4 n^2 pixels per ROI.
    """
    require_int("lattice size n", n, 1)
    rois = np.asarray(rois, dtype=np.float64)
    if rois.ndim != 2 or rois.shape[1] != 4:
        raise ValidationError(f"ROIs must be [k x 4], got shape {rois.shape}")
    cx, cy, w, h = rois.T
    half_w, half_h = w / 2.0, h / 2.0
    with np.errstate(invalid="ignore"):  # inf - inf, in a row refused below
        x0, y0, x1, y1 = cx - half_w, cy - half_h, cx + half_w, cy + half_h
    bad = np.flatnonzero(~(np.isfinite(rois).all(axis=1) & (x1 > x0) & (y1 > y0)))
    if bad.size:
        raise ValidationError(f"cannot pool an empty or non-finite ROI: "
                              f"[cx, cy, w, h] = {rois[bad[0]].tolist()}")
    # sample (a, b) of ROI i sits at column x[i, b] and row y[i, a]
    offsets = (np.arange(n) + 0.5) / n
    gx = x0[:, None] + offsets * (x1 - x0)[:, None] - 0.5
    gy = y0[:, None] + offsets * (y1 - y0)[:, None] - 0.5
    left = np.floor(gx)
    top = np.floor(gy)
    fx = (gx - left)[:, None, :, None]
    fy = (gy - top)[:, :, None, None]
    c0 = np.clip(left, 0, width - 1).astype(int)
    c1 = np.clip(left + 1, 0, width - 1).astype(int)
    r0 = np.clip(top, 0, height - 1).astype(int)
    r1 = np.clip(top + 1, 0, height - 1).astype(int)
    # top-left, top-right, bottom-left, bottom-right neighbours, [4 x k x n x n]
    shape = (4, len(rois), n, n)
    rows = np.broadcast_to(np.stack([r0, r0, r1, r1])[..., None], shape)
    cols = np.broadcast_to(np.stack([c0, c1, c0, c1])[:, :, None], shape)
    roi = np.broadcast_to(np.arange(len(rois))[:, None, None], shape)
    near = gather(roi.ravel(), rows.ravel(), cols.ravel()).reshape(*shape, 2)
    upper = near[0] * (1.0 - fx) + near[1] * fx
    lower = near[2] * (1.0 - fx) + near[3] * fx
    # each ROI's [n x n x 2] samples of (u, v) ravel into its interleaved row
    return (upper * (1.0 - fy) + lower * fy).reshape(len(rois), -1)


def _flow_grid(grid) -> np.ndarray:
    """`grid` as an f64 array, refused unless it is a non-empty [H x W x 2]."""
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 3 or grid.shape[2] != 2:
        raise ValidationError(f"a flow grid must be [H x W x 2], got shape {grid.shape}")
    if grid.size == 0:
        raise ValidationError(f"a flow grid has no pixels: shape {grid.shape}")
    return grid


def roi_pool(grid, roi, n: int) -> PooledFlow:
    """Bilinearly sample a whole [H x W x 2] grid on an n x n lattice
    inside one [cx, cy, w, h] ROI; see `lattice_pool`, which pools
    without materializing a grid."""
    grid = _flow_grid(grid)
    values = lattice_pool([roi], n, grid.shape[1], grid.shape[0],
                          lambda _, rows, cols: grid[rows, cols])
    return PooledFlow(values=values[0], n=n)


# Flow grid files: magic "FFGR", u32 width, u32 height, then (u, v) as
# little-endian f32, row-major.  One file per frame, for flow that comes
# from outside the scenario generator.


def write_flow_grid(path, grid) -> None:
    """Write an [H x W x 2] grid; one that `read_flow_pixels` would refuse
    to read back, holding a value that is not finite as f32, is refused."""
    grid = _flow_grid(grid)
    with np.errstate(over="ignore"):
        payload = grid.astype("<f4", order="C")
    if not np.isfinite(payload).all():
        raise ValidationError("flow grid holds a value that is not finite as f32")
    header = FLOW_MAGIC + struct.pack("<II", grid.shape[1], grid.shape[0])
    write_atomic(path, b"".join((header, payload)))


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


def read_flow_grid(path) -> np.ndarray:
    """The whole [H x W x 2] grid of a flow file, as f64."""
    return read_flow_pixels(path)
