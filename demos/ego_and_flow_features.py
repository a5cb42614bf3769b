"""Show the two conditioning streams the forecaster can consume: chained
ego poses expressed in the anchor frame, and optical flow pooled over the
expanded boxes of a track, every frame in one lattice pass.

    python3 demos/ego_and_flow_features.py
"""

import numpy as np

from fvl.boxes import BoundingBox
from fvl.dataio import generate_scenario, random_scenario
from fvl.egomotion import compose
from fvl.flowfeat import expand_roi, lattice_pool, roi_pool


def main():
    # ten frames of a constant left turn at 0.05 rad/frame, 1.2 m/frame:
    # one step row [yaw, x, z] per frame, as in a video's ego.txt
    steps = np.tile([0.05, 1.2, 0.0], (10, 1))
    poses = compose(steps)  # one row [yaw, x, z] per future frame
    print("cumulative pose of each future frame, seen from the anchor:")
    for i, (yaw, x, z) in enumerate(poses, start=1):
        print(f"  +{i:2d} frames: yaw {yaw:+.3f} rad, offset ({x:+.2f}, {z:+.2f}) m")
    total = steps[:, 0].sum()
    print(f"composed yaw equals the summed per-step yaw: "
          f"{abs(poses[-1, 0] - total) < 1e-12}")

    video = generate_scenario(random_scenario(4, frames=16,
                                              width=320, height=160))
    # a track is one array of rows, a frame index and its box [cx, cy, w,
    # h]; its [k x 4] boxes are grown 1.5x about their centers and
    # clipped to the image in one pass
    track = min(video.tracks)
    frames, boxes = video.tracks[track]["frame"], video.tracks[track]["box"]
    rois = expand_roi(boxes, 1.5, video.width, video.height)
    i = len(frames) // 2
    t = int(frames[i])
    print()
    print("track {} at frame {}: box ({:.1f}, {:.1f}, {:.1f}, {:.1f})".format(
        track, t, *boxes[i]))
    print("expanded roi: ({:.1f}, {:.1f}, {:.1f}, {:.1f})".format(*rois[i]))

    grid = video.flow_grid(t)
    print(f"flow grid: {grid.height}x{grid.width}, "
          f"|flow| max {np.hypot(grid.data[..., 0], grid.data[..., 1]).max():.2f} px")
    for n in (1, 2, 3):
        # every frame of the track in one lattice pass: the video renders
        # only the lattice pixels, each ROI's in its own frame
        pooled = lattice_pool(rois, n, video.width, video.height,
                              lambda roi, rows, cols: video.flow_at(frames[roi], rows, cols))
        print(f"  {n}x{n} lattice -> {pooled.shape[0]} frames x {pooled.shape[1]} "
              f"features, frame {t} mean {pooled[i].mean():+.3f}")

    # a frame's row equals pooling that frame's whole grid, bit for bit
    whole = roi_pool(grid, BoundingBox(*rois[i]), 3).values
    print(f"run pass equals whole-grid pooling: {np.array_equal(pooled[i], whole)}")


if __name__ == "__main__":
    main()
