"""Fit the polynomial baselines to tracks of known degree and score them
with the displacement / overlap metrics and the split reporting.  Every
call takes a stack of samples: [N x steps x 4] tracks, [N x 4] boxes.

    python3 demos/baselines_and_metrics.py
"""

import json

import numpy as np

from fvl.baselines import BASELINE_DEGREES, fit_extrapolate
from fvl.metrics import (
    build_reports,
    displacement_errors,
    final_iou,
    reports_to_json,
)
from fvl.rng import Xoshiro256


def quadratic_track(rng, length):
    t = np.arange(length, dtype=np.float64)
    track = np.empty((length, 4))
    track[:, 0] = rng.uniform(200, 800) + rng.uniform(-4, 4) * t + 0.05 * t * t
    track[:, 1] = rng.uniform(150, 350) + rng.uniform(-2, 2) * t
    track[:, 2] = rng.uniform(40, 90) + 0.3 * t
    track[:, 3] = rng.uniform(30, 70) + 0.2 * t
    return track


def main():
    rng = Xoshiro256(9)
    track = quadratic_track(rng, 20)[None]
    past, future = track[:, :10], track[:, 10:]

    print("a constant-acceleration track, extrapolated 10 frames ahead:")
    for name, degree in BASELINE_DEGREES.items():
        pred = fit_extrapolate(past, degree, 10)
        fde, ade = displacement_errors(pred, future)
        print(f"  {name:<10} (degree {degree}): FDE {fde[0]:9.4f} px, "
              f"ADE {ade[0]:9.4f} px")
    print("degree 2 recovers its own class exactly; degree 1 cannot")

    print()
    box = np.array([5.0, 5.0, 10.0, 10.0])  # [cx, cy, w, h]
    shifted = np.array([10.0, 5.0, 10.0, 10.0])
    same, half = final_iou([box, box], [box, shifted])
    print(f"IoU of a box with itself: {same}")
    print(f"IoU after shifting by half a width: {half} "
          f"(exactly 1/3: {half == 1.0 / 3.0})")

    # score twenty noisy linear fits and split them by difficulty
    tracks, noise = [], []
    for _ in range(20):
        tracks.append(quadratic_track(rng, 20))
        noise.append(rng.uniforms((10, 4), -2.0, 2.0))
    tracks = np.stack(tracks)
    truths = tracks[:, 10:]
    pred = fit_extrapolate(tracks[:, :10], 1, 10)
    predictions = pred + np.stack(noise)
    reference = displacement_errors(pred, truths)[0]

    reports = build_reports(predictions, truths, reference)
    print()
    print("evaluation rows (easy/challenging split on the reference FDE):")
    for case in ("all", "easy", "challenging"):
        print(" ", reports[case].row())
    data = json.loads(reports_to_json(reports))
    print()
    print("aggregates from the JSON export (per-sample rows omitted):")
    for case in ("all", "easy", "challenging"):
        body = data[case]
        print(f"  {case}: count={body['count']} fde={body['fde']:.3f} "
              f"ade={body['ade']:.3f} fiou={body['fiou']:.4f}")


if __name__ == "__main__":
    main()
