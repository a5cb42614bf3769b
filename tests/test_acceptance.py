"""Acceptance gate: the eight headline properties of the package.

Each test prints one PASS/FAIL line (wired past pytest's capture so the
verdicts always reach the console) and then asserts.  Everything is
seeded, so a pass here is reproducible bit-for-bit on the same
platform.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from fvl.baselines import fit_extrapolate
from fvl.cli import main as cli_main
from fvl.dataio import (
    generate_scenario,
    random_scenario,
    read_dataset,
    split_videos,
    windows_from_video,
    write_dataset,
    write_scenario_file,
)
from fvl.egomotion import compose
from fvl.flowfeat import read_flow_grid, roi_pool, write_flow_grid
from fvl.fvlmodel import (
    VARIANTS,
    BoxForecaster,
    ModelConfig,
    gradient_check_model,
    load_model,
    save_model,
    train_model,
)
from fvl.metrics import displacement_errors, final_iou, split_cases
from fvl.rng import Xoshiro256
from oracles import homogeneous_compose, pool_oracle


def _report(capsys, line: str) -> None:
    with capsys.disabled():
        print(line, flush=True)


def _verdict(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def _mean_pixel_ade(model, samples, indices=None):
    picked = samples if indices is None else [samples[i] for i in indices]
    pred = np.array([model.predict(s).pixel_boxes(s.width, s.height)
                     for s in picked])
    ade = displacement_errors(pred, np.stack([s.future for s in picked]))[1]
    return float(ade.mean())


# 1. analytic gradients match central finite differences for every variant


def test_gradient_integrity(capsys):
    start = time.perf_counter()
    worst = 0.0
    all_passed = True
    for variant in VARIANTS:
        config = ModelConfig(variant=variant, hidden=8, embed=8, tau=3, delta=2)
        report = gradient_check_model(config, seed=7)
        worst = max(worst, report.max_rel_error)
        all_passed = all_passed and report.passed
    elapsed = time.perf_counter() - start
    ok = all_passed and worst < 1e-4 and elapsed < 30.0
    _report(capsys, f"acceptance 1 (gradient integrity): {_verdict(ok)} - "
            f"max rel err {worst:.3e} over {len(VARIANTS)} variants "
            f"({elapsed:.1f}s)")
    assert ok


# 2. library pose composition and ROI pooling match independent oracles


def test_reference_oracles(capsys):
    start = time.perf_counter()
    rng = Xoshiro256(52)
    worst_pose = 0.0
    for _ in range(100):
        steps = np.array([[rng.uniform(-0.2, 0.2), rng.uniform(-2.0, 2.0),
                           rng.uniform(-1.0, 1.0)]
                          for _ in range(1 + rng.integer(15))])
        got = compose(steps)
        want = homogeneous_compose(steps)
        worst_pose = max(worst_pose, float(np.max(np.abs(got - np.array(want)))))

    worst_pool = 0.0
    for _ in range(100):
        width = 8 + rng.integer(24)
        height = 6 + rng.integer(20)
        grid = rng.uniforms((height, width, 2), -4.0, 4.0)
        roi = [rng.uniform(1.0, width - 1.0), rng.uniform(1.0, height - 1.0),
               rng.uniform(0.5, float(width)), rng.uniform(0.5, float(height))]
        n = 1 + rng.integer(5)
        diff = roi_pool(grid, roi, n).values - pool_oracle(grid, roi, n)
        worst_pool = max(worst_pool, float(np.max(np.abs(diff))))
    elapsed = time.perf_counter() - start
    ok = worst_pose < 1e-12 and worst_pool < 1e-6 and elapsed < 10.0
    _report(capsys, f"acceptance 2 (reference oracles): {_verdict(ok)} - "
            f"pose err {worst_pose:.3e} (100 chains), "
            f"pooling err {worst_pool:.3e} (100 grids) ({elapsed:.1f}s)")
    assert ok


# 3. polynomial baselines reproduce trajectories of their own degree


def test_baseline_exactness(capsys):
    start = time.perf_counter()
    rng = Xoshiro256(53)
    tau, delta = 10, 10
    times = np.arange(tau + delta, dtype=np.float64)
    worst = {}
    for name, degree in (("linear", 1), ("constaccel", 2)):
        tracks = np.empty((20, tau + delta, 4))
        for track in tracks:
            for col, (lo, hi, vel) in enumerate(
                    ((100.0, 1100.0, 3.0), (100.0, 500.0, 2.0),
                     (30.0, 80.0, 0.5), (30.0, 80.0, 0.5))):
                value = rng.uniform(lo, hi) + rng.uniform(-vel, vel) * times
                if degree == 2:
                    value = value + rng.uniform(-0.02, 0.02) * times * times
                track[:, col] = value
        pred = fit_extrapolate(tracks[:, :tau], degree, delta)
        worst[name] = float(displacement_errors(pred, tracks[:, tau:])[0].max())
    elapsed = time.perf_counter() - start
    ok = (worst["linear"] < 1e-6 and worst["constaccel"] < 1e-6
          and elapsed < 5.0)
    _report(capsys, f"acceptance 3 (baseline exactness): {_verdict(ok)} - "
            f"worst FDE linear {worst['linear']:.3e}, "
            f"constaccel {worst['constaccel']:.3e} px ({elapsed:.1f}s)")
    assert ok


# 4. the tagged displacement and overlap examples hold exactly


def test_metric_examples(capsys):
    start = time.perf_counter()
    truth = Xoshiro256(4).uniforms((10, 4), 50.0, 500.0)
    pred = truth.copy()
    pred[:, 0] += 3.0
    pred[:, 1] += 4.0
    fde, ade = displacement_errors(pred[None], truth[None])
    offset_exact = fde.tolist() == ade.tolist() == [5.0]

    box, shifted, far = ([cx, cy, 10.0, 10.0]
                         for cx, cy in ((5.0, 5.0), (10.0, 5.0), (100.0, 100.0)))
    iou_exact = final_iou([box, box, box], [box, far, shifted]).tolist() == [
        1.0, 0.0, 1.0 / 3.0]
    elapsed = time.perf_counter() - start
    ok = offset_exact and iou_exact and elapsed < 1.0
    _report(capsys, f"acceptance 4 (metric examples): {_verdict(ok)} - "
            f"(3,4) offset gives FDE=ADE=5 exactly: {offset_exact}, "
            f"IoU 1 / 0 / one-third exactly: {iou_exact} ({elapsed:.2f}s)")
    assert ok


# 5 + 7. overfit a 16-sample dataset, then reproduce it bit-for-bit

OVERFIT_CONFIG = ModelConfig(variant="xoe", hidden=32, embed=64,
                             tau=5, delta=5, pooled_dim=50)
# 14 training samples in batches of 7 over 250 epochs = 500 Adam steps
OVERFIT_RUN = dict(epochs=250, batch_size=7, lr=5e-4, seed=2)


def _overfit_samples():
    video = generate_scenario(random_scenario(1, max_yaw_rate_rps=0.1))
    samples, _ = windows_from_video(video, tau=5, delta=5, expand=1.5, n=5)
    return samples[:16]


@pytest.fixture(scope="module")
def overfit_run():
    samples = _overfit_samples()
    start = time.perf_counter()
    result = train_model(OVERFIT_CONFIG, samples, **OVERFIT_RUN)
    elapsed = time.perf_counter() - start
    return samples, result, elapsed


def test_overfit_small_dataset(overfit_run, capsys):
    samples, result, elapsed = overfit_run
    assert len(samples) == 16 and samples[0].width == 1280
    iterations = OVERFIT_RUN["epochs"] * (
        -(-len(result.train_indices) // OVERFIT_RUN["batch_size"]))
    model = BoxForecaster(OVERFIT_CONFIG, params=result.params)
    ade = _mean_pixel_ade(model, samples, result.train_indices)
    ok = ade < 1.0 and iterations == 500 and elapsed < 180.0
    _report(capsys, f"acceptance 5 (overfit sanity): {_verdict(ok)} - "
            f"training ADE {ade:.3f} px after {iterations} Adam steps "
            f"at 1280x640 ({elapsed:.1f}s)")
    assert ok


def test_determinism(overfit_run, tmp_path, capsys):
    start = time.perf_counter()
    samples, first, _ = overfit_run
    second = train_model(OVERFIT_CONFIG, samples, **OVERFIT_RUN)
    curves_equal = (first.train_losses == second.train_losses
                    and first.val_ades == second.val_ades)
    save_model(tmp_path / "a.fvlw", OVERFIT_CONFIG, first.best_params)
    save_model(tmp_path / "b.fvlw", OVERFIT_CONFIG, second.best_params)
    checkpoints_equal = ((tmp_path / "a.fvlw").read_bytes()
                         == (tmp_path / "b.fvlw").read_bytes())

    # the CLI must also be byte-reproducible across worker counts
    for seed in (2, 4):
        write_scenario_file(
            tmp_path / f"scene{seed}.scn",
            random_scenario(seed, frames=16, width=320, height=160))
    data = tmp_path / "suite"
    assert cli_main(["generate", str(tmp_path / "scene2.scn"),
                     str(tmp_path / "scene4.scn"), "--out", str(data),
                     "--tau", "4", "--delta", "3"]) == 0
    flags = ["--variant", "xo", "--hidden", "6", "--embed", "5",
             "--tau", "4", "--delta", "3", "--epochs", "2", "--batch", "8",
             "--pool-n", "3"]
    for workers, name in (("1", "w1.fvlw"), ("4", "w4.fvlw")):
        assert cli_main(["train", "--dataset", str(data),
                         "--out", str(tmp_path / name),
                         "--workers", workers, *flags]) == 0
    workers_equal = (
        (tmp_path / "w1.fvlw").read_bytes()
        == (tmp_path / "w4.fvlw").read_bytes()
        and (tmp_path / "w1.fvlw.losses.csv").read_bytes()
        == (tmp_path / "w4.fvlw.losses.csv").read_bytes())
    elapsed = time.perf_counter() - start
    ok = curves_equal and checkpoints_equal and workers_equal
    _report(capsys, f"acceptance 7 (determinism): {_verdict(ok)} - "
            f"loss curve bit-identical: {curves_equal}, checkpoint "
            f"bit-identical: {checkpoints_equal}, workers 4 == 1: "
            f"{workers_equal} ({elapsed:.1f}s)")
    assert ok


# 6. the multi-stream ablation trend on a turn-heavy suite

ABLATION_MODEL = dict(hidden=32, embed=24, tau=5, delta=5, pooled_dim=18)
ABLATION_RUN = dict(epochs=40, batch_size=32, lr=2e-3)


def _ablation_dataset():
    per_video = {}
    for vid in range(40):
        scenario = random_scenario(200 + vid, frames=24,
                                   width=320, height=160)
        video = generate_scenario(scenario)
        samples, _ = windows_from_video(video, tau=5, delta=5,
                                        expand=1.5, n=3)
        per_video[vid] = samples
    train_ids, test_ids = split_videos(sorted(per_video), 0.7, seed=11)
    train = [s for vid in train_ids for s in per_video[vid]]
    test = [s for vid in test_ids for s in per_video[vid]]
    return train, test


def test_ablation_trend(capsys):
    start = time.perf_counter()
    train_samples, test_samples = _ablation_dataset()
    assert len(train_samples) > 100 and len(test_samples) > 30

    truths = np.stack([s.future for s in test_samples])
    reference = fit_extrapolate(np.stack([s.past for s in test_samples]), 2, 5)
    ref_fde, ref_ade = displacement_errors(reference, truths)
    _, challenging = split_cases(ref_fde)
    constaccel_challenging = float(ref_ade[challenging].mean())

    mean_ade = {}
    challenging_ade = {}
    for variant in VARIANTS:
        config = ModelConfig(variant=variant, **ABLATION_MODEL)
        per_seed, per_seed_challenging = [], []
        for seed in range(5):
            result = train_model(config, train_samples, seed=seed,
                                 **ABLATION_RUN)
            model = BoxForecaster(config, params=result.best_params)
            pixels = np.array([
                p.pixel_boxes(s.width, s.height)
                for s, p in zip(test_samples, model.predict_batch(test_samples))])
            ades = displacement_errors(pixels, truths)[1]
            per_seed.append(ades.mean())
            per_seed_challenging.append(ades[challenging].mean())
        mean_ade[variant] = float(np.mean(per_seed))
        challenging_ade[variant] = float(np.mean(per_seed_challenging))

    elapsed = time.perf_counter() - start
    trend = (mean_ade["xoe"] < mean_ade["xo"] <= mean_ade["x"]
             and mean_ade["xoe"] < mean_ade["xe"])
    beats_baseline = (challenging_ade["xo"] < constaccel_challenging
                      and challenging_ade["xoe"] < constaccel_challenging)
    ok = trend and beats_baseline and elapsed < 1800.0
    _report(capsys, f"acceptance 6 (ablation trend): {_verdict(ok)} - mean test ADE "
            f"x={mean_ade['x']:.2f} xe={mean_ade['xe']:.2f} "
            f"xo={mean_ade['xo']:.2f} xoe={mean_ade['xoe']:.2f} px; "
            f"challenging xo={challenging_ade['xo']:.2f} "
            f"xoe={challenging_ade['xoe']:.2f} vs constaccel "
            f"{constaccel_challenging:.2f} ({elapsed:.0f}s)")
    assert ok


# 8. files and scalings round-trip


def test_round_trips(tmp_path, capsys):
    start = time.perf_counter()
    video = generate_scenario(random_scenario(4, frames=16,
                                              width=320, height=160))
    samples, _ = windows_from_video(video, tau=4, delta=3, expand=1.5, n=3)
    assert samples

    dataset_path = tmp_path / "samples.fvlw"
    write_dataset(samples, dataset_path)
    read_back = read_dataset(dataset_path)
    dataset_exact = len(read_back) == len(samples) and all(
        a.track == b.track and a.width == b.width and a.height == b.height
        and np.array_equal(a.past, b.past) and np.array_equal(a.future, b.future)
        and all(x.n == y.n and np.array_equal(x.values, y.values)
                for x, y in zip(a.flow, b.flow))
        and np.array_equal(a.ego, b.ego)
        for a, b in zip(samples, read_back))

    config = ModelConfig(variant="xoe", hidden=6, embed=5, tau=4, delta=3,
                         pooled_dim=18)
    model = BoxForecaster(config, seed=21)
    save_model(tmp_path / "m.fvlw", config, model.parameter_values())
    loaded = load_model(tmp_path / "m.fvlw")
    checkpoint_exact = (loaded.config == config and loaded.parameter_values().tobytes()
                        == model.parameter_values().tobytes())

    grid = video.flow_grid(5)
    write_flow_grid(tmp_path / "g.ffgr", grid)
    restored = read_flow_grid(tmp_path / "g.ffgr")
    flow_f32_exact = np.array_equal(
        restored, grid.astype(np.float32).astype(np.float64))

    # a zero-parameter model predicts zero residuals, so its pixel boxes
    # are the last past box scaled to model units and back
    model.load_values(np.zeros_like(model.parameter_values()))
    worst_norm = 0.0
    for sample, pred in zip(samples, model.predict_batch(samples)):
        cycled = pred.pixel_boxes(sample.width, sample.height)
        worst_norm = max(worst_norm, float(np.max(np.abs(
            cycled - sample.past[-1]))))
    elapsed = time.perf_counter() - start
    ok = (dataset_exact and checkpoint_exact and flow_f32_exact
          and worst_norm < 1e-12)
    _report(capsys, f"acceptance 8 (round-trips): {_verdict(ok)} - dataset bit-exact: "
            f"{dataset_exact}, checkpoint bit-exact: {checkpoint_exact}, "
            f"flow at f32 precision: {flow_f32_exact}, model-unit cycle err "
            f"{worst_norm:.2e} ({elapsed:.1f}s)")
    assert ok
