"""Train the multi-stream forecaster on a handful of synthetic videos
and compare its held-out accuracy against the polynomial baselines.

Finishes in well under a minute; shrink `epochs` if you are impatient.

    python3 demos/train_forecaster.py
"""

import numpy as np

from fvl.baselines import BASELINE_DEGREES, fit_extrapolate
from fvl.dataio import (
    generate_scenario,
    random_scenario,
    split_videos,
    windows_from_video,
)
from fvl.fvlmodel import BoxForecaster, ModelConfig, train_model
from fvl.metrics import displacement_errors

TAU, DELTA = 5, 5


def collect_samples(video_ids):
    per_video = {}
    for vid in video_ids:
        video = generate_scenario(random_scenario(200 + vid, frames=24,
                                                  width=320, height=160))
        samples, _ = windows_from_video(video, tau=TAU, delta=DELTA,
                                        expand=1.5, n=3)
        per_video[vid] = samples
    return per_video


def stack_boxes(boxes_per_sample):
    """[N x steps x 4] pixel boxes from each sample's BoundingBoxes."""
    return np.array([[b.as_array() for b in boxes] for boxes in boxes_per_sample])


def test_ade(model, samples):
    pred = np.array([p.pixel_boxes(s.width, s.height)
                     for s, p in zip(samples, model.predict_batch(samples))])
    truth = stack_boxes(s.future for s in samples)
    return float(displacement_errors(pred, truth)[1].mean())


def main():
    per_video = collect_samples(range(40))
    train_ids, test_ids = split_videos(sorted(per_video), 0.7, seed=11)
    train = [s for vid in train_ids for s in per_video[vid]]
    test = [s for vid in test_ids for s in per_video[vid]]
    print(f"{len(per_video)} videos -> {len(train)} training samples, "
          f"{len(test)} held-out samples")

    print()
    print("baselines on the held-out split:")
    past = stack_boxes(s.past for s in test)
    future = stack_boxes(s.future for s in test)
    for name, degree in BASELINE_DEGREES.items():
        errors = displacement_errors(fit_extrapolate(past, degree, DELTA),
                                     future)[1]
        print(f"  {name:<12} ADE {errors.mean():7.2f} px")

    for variant in ("x", "xoe"):
        config = ModelConfig(variant=variant, hidden=32, embed=24,
                             tau=TAU, delta=DELTA, pooled_dim=18)
        result = train_model(config, train, epochs=40, batch_size=32,
                             lr=2e-3, seed=0)
        model = BoxForecaster(config, params=result.best_params)
        print()
        print(f"variant {variant!r}: best epoch {result.best_epoch}, "
              f"final train loss {result.train_losses[-1]:.5f}")
        print(f"  held-out ADE {test_ade(model, test):7.2f} px")

    sample = test[0]
    model = BoxForecaster(ModelConfig(variant="x", hidden=24, embed=16,
                                      tau=TAU, delta=DELTA), seed=1)
    pred = model.predict(sample)
    print()
    print("anatomy of one prediction (untrained weights, variant 'x'):")
    print(f"  anchor box (normalized): {pred.anchor.round(3)}")
    print(f"  first-step residual:     {pred.residuals[0].round(4)}")
    print(f"  absolute = anchor + residuals, row 0: {pred.absolute[0].round(3)}")


if __name__ == "__main__":
    main()
