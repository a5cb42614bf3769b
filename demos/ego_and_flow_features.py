"""Show the two conditioning streams the forecaster can consume: chained
ego poses expressed in the anchor frame, and optical flow pooled over a
region of interest.

    python3 demos/ego_and_flow_features.py
"""

import numpy as np

from fvl.dataio import generate_scenario, random_scenario
from fvl.egomotion import compose
from fvl.flowfeat import expand_roi, roi_pool


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
    track, boxes = sorted(video.tracks.items())[0]
    t = sorted(boxes)[len(boxes) // 2]
    box = boxes[t]
    roi = expand_roi(box, 1.5, video.width, video.height)
    print()
    print(f"track {track} at frame {t}: box ({box.cx:.1f}, {box.cy:.1f}, "
          f"{box.w:.1f}, {box.h:.1f})")
    print(f"expanded roi: ({roi.cx:.1f}, {roi.cy:.1f}, {roi.w:.1f}, {roi.h:.1f})")

    grid = video.flow_grid(t)
    print(f"flow grid: {grid.height}x{grid.width}, "
          f"|flow| max {np.hypot(grid.data[..., 0], grid.data[..., 1]).max():.2f} px")
    for n in (1, 2, 3):
        pooled = roi_pool(grid, roi, n)
        print(f"  {n}x{n} lattice -> {pooled.values.size} features, "
              f"mean {pooled.values.mean():+.3f}")

    # pooling the same roi twice is bit-identical; the features are pure
    a = roi_pool(grid, roi, 3).values
    b = roi_pool(grid, roi, 3).values
    print(f"pooling is deterministic: {np.array_equal(a, b)}")


if __name__ == "__main__":
    main()
