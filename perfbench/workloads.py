"""One benchmark workload, run in its own process by run.py.

Usage: python3 workloads.py WORKLOAD SEED SECONDS TRACE SETUP_REPEATS WORKDIR

Imports fvl (timed as part of set-up), sets the workload up
SETUP_REPEATS times, then runs closed-loop cycles of the workload's ops
for SECONDS.  Each op is one CLI call, one predict or one window pass
over a video directory; an op fails when it raises, exits non-zero or
fails its output check.  With TRACE=1 the tracer wraps fvl after set-up,
so only the measured cycles are traced.  The last stdout line is a JSON
object with the timings, which run.py turns into metrics.

The speed of a shared host drifts by tens of percent from minute to
minute, so a fixed numpy reference kernel shaped like the workload runs
after the import, after every set-up, before the first cycle and after
every cycle.  Each set-up, cycle and op time is reported scaled by
REFERENCE_S over the mean of the two kernel times around it: the time it
would take on a machine where the kernel takes REFERENCE_S.  The kernel
times and unscaled cycle times are reported alongside.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import shutil
import sys
import traceback
from pathlib import Path
from time import perf_counter

# The suite of acceptance test 6: turn-heavy random scenarios at 320x160,
# windows of tau = delta = 5 with a 3x3 pooling lattice.
SUITE_FRAMES, SUITE_WIDTH, SUITE_HEIGHT = 24, 320, 160
TAU = DELTA = 5
SUITE_POOL_N = 3
# 249 samples leave 224 = 7 x 32 for training after the 10% hold-out,
# so every batch is full and the batch count does not depend on the seed.
TRAIN_SAMPLES = 249
TEST_SAMPLES = 64
TRAIN_EPOCHS = 12
MODEL_FLAGS = ["--variant", "xoe", "--hidden", "32", "--embed", "24",
               "--tau", str(TAU), "--delta", str(DELTA),
               "--pool-n", str(SUITE_POOL_N), "--batch", "32", "--lr", "2e-3",
               "--workers", "1"]
CHECKPOINT_EPOCHS = 4

# ingest: full-resolution videos written to disk and read back; every
# video has exactly INGEST_TRACKS actors visible in all of its frames
INGEST_VIDEOS, INGEST_FRAMES, INGEST_TRACKS, INGEST_POOL_N = 2, 16, 2, 5
# Disk flow is the rendered f64 flow rounded to f32; bilinear weights sum
# to one, so a pooled value differs from the in-memory one by at most half
# an f32 ulp of the largest neighbouring flow value (bounded here by 256 px).
F32_POOL_TOLERANCE = 256 * 2.0 ** -24

REFERENCE_S = 0.1


def pair_scales(kernel_times):
    """REFERENCE_S over the mean of each adjacent pair of kernel times."""
    return [2.0 * REFERENCE_S / (a + b)
            for a, b in zip(kernel_times, kernel_times[1:])]


def reference_kernel(rows, scratch: Path) -> float:
    """Wall time of a fixed numpy kernel shaped like the workload's work.

    With `rows`, GRU-sized steps on that many stacked rows (single
    vectors when rows is 1).  With rows None, two full frames of
    ground-plane flow rendered in float64, written to `scratch` as f32
    and read back.  It never calls fvl."""
    import numpy as np
    start = perf_counter()
    if rows is None:
        u = (np.arange(1280) + 0.5)[None, :]
        v = (np.arange(640) + 0.5)[:, None]
        for _ in range(2):
            dv = v - 320.0
            ground = dv > 0.5
            depth = 1400.0 / np.where(ground, dv, 1.0)
            x = (u - 640.0) * depth / 1000.0
            fwd = 0.99 * depth - 0.01 * x
            left = 0.01 * depth + 0.99 * x
            safe = np.where(fwd > 0.5, fwd, 1.0)
            flow = np.empty((640, 1280, 2))
            flow[..., 0] = np.where(ground, 1000.0 * left / safe + 640.0 - u, 0.0)
            flow[..., 1] = np.where(ground, 1400.0 / safe + 320.0 - v, 0.0)
            scratch.write_bytes(flow.astype("<f4").tobytes())
            np.frombuffer(scratch.read_bytes(), dtype="<f4").astype(np.float64)
        return perf_counter() - start
    rng = np.random.default_rng(0)
    w = rng.uniform(-0.2, 0.2, (56, 32))
    x = rng.uniform(-1.0, 1.0, (rows, 24) if rows > 1 else 24)
    h = np.zeros((rows, 32) if rows > 1 else 32)
    start = perf_counter()
    for _ in range(2500 if rows > 1 else 5000):
        xh = np.concatenate([x, h], axis=-1)
        z = 1.0 / (1.0 + np.exp(-(xh @ w)))
        h = (1.0 - z) * h + z * np.tanh(xh @ w)
    return perf_counter() - start


class Ops:
    """Counts attempted and failed ops and keeps each op's wall time
    with the index of the cycle it ran in."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.cycle = 0
        self.times: dict[str, list] = {}

    def run(self, kind: str, fn, check):
        """Time fn(); then check(result) returns None or a failure reason."""
        self.attempted += 1
        span = self.tracer.open(self.tracer.name_id(f"op.{kind}")) \
            if self.tracer else None
        start = perf_counter()
        try:
            result = fn()
        except Exception:  # the loop keeps running; the op counts as failed
            result, reason = None, traceback.format_exc(limit=3)
        else:
            reason = None
        elapsed = perf_counter() - start
        if span is not None:
            self.tracer.close(span)
        if reason is None:
            try:
                reason = check(result)
            except Exception:
                reason = traceback.format_exc(limit=3)
        self.times.setdefault(kind, []).append((elapsed, self.cycle))
        if reason is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{kind}: {reason}")
        return result


def run_cli(argv) -> int:
    from fvl import cli
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main(argv)


def exit_check(code):
    return None if code == 0 else f"exit code {code}"


# --- train and forecast -----------------------------------------------------


def build_suite(seed: int, need_train: int, need_test: int):
    """Window random scenarios, split 70/30 by video, until both sides
    hold enough samples."""
    from fvl import dataio
    rng = random.Random(seed)
    train, test = [], []
    while len(train) < need_train or len(test) < need_test:
        scenario = dataio.random_scenario(rng.randrange(2 ** 31),
                                          frames=SUITE_FRAMES,
                                          width=SUITE_WIDTH, height=SUITE_HEIGHT)
        samples, _ = dataio.windows_from_video(
            dataio.generate_scenario(scenario), TAU, DELTA, expand=1.5,
            n=SUITE_POOL_N)
        (train if rng.random() < 0.7 else test).extend(samples)
    return train[:need_train], test[:need_test]


def train_check(checkpoint: Path, val_ades: list):
    """A finite loss curve of the right length and a checkpoint that loads;
    records the best held-out ADE."""
    from fvl import load_model

    def check(code):
        if code != 0:
            return f"exit code {code}"
        rows = [row.split(",") for row in Path(f"{checkpoint}.losses.csv")
                .read_text().splitlines()[1:]]
        values = [float(v) for row in rows for v in row[1:]]
        if len(rows) != TRAIN_EPOCHS or not all(map(math.isfinite, values)):
            return f"loss curve has {len(rows)} rows or non-finite values"
        load_model(checkpoint)
        val_ades.append(min(float(row[2]) for row in rows))
        return None
    return check


class Train:
    name = "train"
    kernel_rows = 32

    def setup(self, seed: int, work: Path):
        from fvl import dataio
        train, _ = build_suite(seed, TRAIN_SAMPLES, 0)
        dataset = work / "train.jsonl"
        dataio.write_dataset(train, dataset)
        argv = ["train", "--dataset", str(dataset), "--out",
                str(work / "model.fvlw"), "--seed", str(seed % 1000)] + MODEL_FLAGS
        if run_cli(argv + ["--epochs", "1"]) != 0:
            raise RuntimeError("warm-up training failed")
        self.argv = argv + ["--epochs", str(TRAIN_EPOCHS)]
        self.checkpoint = work / "model.fvlw"
        self.val_ades: list[float] = []

    def cycle(self, ops: Ops) -> None:
        ops.run("train", lambda: run_cli(self.argv),
                train_check(self.checkpoint, self.val_ades))

    def report(self, times):
        walls = times.get("train", [])
        samples = TRAIN_EPOCHS * (TRAIN_SAMPLES - round(0.1 * TRAIN_SAMPLES))
        return {"item_walls": walls, "items_per_op": samples,
                "val_ade_px": min(self.val_ades, default=math.nan)}


class Forecast:
    name = "forecast"
    kernel_rows = 1

    def setup(self, seed: int, work: Path):
        from fvl import ModelConfig, dataio, load_model, save_model, train_model
        train, test = build_suite(seed, TRAIN_SAMPLES, TEST_SAMPLES)
        config = ModelConfig(variant="xoe", hidden=32, embed=24, tau=TAU,
                             delta=DELTA, pooled_dim=2 * SUITE_POOL_N ** 2)
        result = train_model(config, train, epochs=CHECKPOINT_EPOCHS,
                             batch_size=32, lr=2e-3, seed=seed % 1000)
        self.checkpoint = work / "model.fvlw"
        save_model(self.checkpoint, config, result.best_params)
        self.dataset = work / "test.jsonl"
        dataio.write_dataset(test, self.dataset)
        self.report_path = work / "report.json"
        self.model = load_model(self.checkpoint)
        self.samples = dataio.read_dataset(self.dataset)
        for sample in self.samples[:4]:
            self.model.predict(sample)
        self.evaluate_argv = ["evaluate", str(self.checkpoint), "--dataset",
                              str(self.dataset), "--out", str(self.report_path),
                              "--workers", "1"]
        if run_cli(self.evaluate_argv) != 0:
            raise RuntimeError("warm-up evaluate failed")

    def cycle(self, ops: Ops) -> None:
        import numpy as np
        model = self.model
        for sample in self.samples:
            ops.run("predict",
                    lambda: model.predict(sample).pixel_boxes(sample.width,
                                                              sample.height),
                    lambda boxes: None if np.all(np.isfinite(boxes))
                    else "non-finite prediction")

        def report_check(code):
            if code != 0:
                return f"exit code {code}"
            count = json.loads(self.report_path.read_text())["all"]["count"]
            return None if count == TEST_SAMPLES else \
                f"report counts {count} of {TEST_SAMPLES} samples"

        ops.run("evaluate", lambda: run_cli(self.evaluate_argv), report_check)
        ops.run("gradcheck", lambda: run_cli(["gradcheck", "--variant", "xoe"]),
                exit_check)

    def report(self, times):
        return {"item_walls": times.get("predict", []), "items_per_op": 1,
                "test_samples": TEST_SAMPLES}


# --- ingest -------------------------------------------------------------------


class Ingest:
    name = "ingest"
    kernel_rows = None  # the full-frame kernel

    def setup(self, seed: int, work: Path):
        from fvl import dataio
        rng = random.Random(seed)
        scenes = work / "scenes"
        scenes.mkdir()
        self.paths, self.reference = [], {}
        while len(self.paths) < INGEST_VIDEOS:
            scenario = dataio.random_scenario(rng.randrange(2 ** 31),
                                              frames=INGEST_FRAMES)
            video = dataio.generate_scenario(scenario)
            if [len(t) for t in video.tracks.values()] != [INGEST_FRAMES] * INGEST_TRACKS:
                continue  # keep the flow reads per cycle independent of the seed
            expected, _ = dataio.windows_from_video(
                video, TAU, DELTA, expand=1.5, n=INGEST_POOL_N)
            path = scenes / f"video{len(self.paths)}.scn"
            dataio.write_scenario_file(path, scenario)
            self.paths.append(str(path))
            self.reference[path.stem] = expected
        self.out = work / "videos"
        warm = dataio.random_scenario(rng.randrange(2 ** 31), frames=2)
        dataio.write_scenario_file(scenes / "warm.scn", warm)
        if run_cli(["generate", str(scenes / "warm.scn"), "--out",
                    str(work / "warm")]) != 0:
            raise RuntimeError("warm-up generate failed")
        dataio.windows_from_video(dataio.read_video_dir(work / "warm" / "warm"),
                                  TAU, DELTA)
        shutil.rmtree(work / "warm")
        self.disk_bytes: list[float] = []
        self.window_samples: list[int] = []

    def _window_check(self, stem):
        import numpy as np
        expected = self.reference[stem]

        def check(samples):
            if len(samples) != len(expected):
                return f"{stem}: {len(samples)} samples from disk, " \
                       f"{len(expected)} in memory"
            for got, want in zip(samples, expected):
                for a, b in zip(got.flow, want.flow):
                    if not np.allclose(a.values, b.values, rtol=0.0,
                                       atol=F32_POOL_TOLERANCE):
                        return f"{stem}: pooled flow differs beyond f32 rounding"
            return None
        return check

    def cycle(self, ops: Ops) -> None:
        from fvl import dataio
        ops.run("generate",
                lambda: run_cli(["generate", *self.paths, "--out", str(self.out),
                                 "--tau", str(TAU), "--delta", str(DELTA)]),
                exit_check)
        size = sum(f.stat().st_size for f in self.out.rglob("*") if f.is_file())
        self.disk_bytes.append(size / (INGEST_VIDEOS * INGEST_FRAMES))
        for stem in sorted(self.reference):
            def window(stem=stem):
                video = dataio.read_video_dir(self.out / stem)
                return dataio.windows_from_video(video, TAU, DELTA, expand=1.5,
                                                 n=INGEST_POOL_N)[0]
            samples = ops.run("window", window, self._window_check(stem))
            self.window_samples.append(len(samples or ()))
        shutil.rmtree(self.out, ignore_errors=True)

    def report(self, times):
        return {"item_walls": times.get("generate", []),
                "items_per_op": INGEST_VIDEOS * INGEST_FRAMES,
                "window_samples": self.window_samples,
                "disk_bytes_per_frame": self.disk_bytes}


WORKLOADS = {w.name: w for w in (Train, Forecast, Ingest)}


def main(argv) -> int:
    name, seed, seconds, trace, repeats, workdir = argv
    seed, seconds, trace, repeats = int(seed), float(seconds), int(trace), int(repeats)
    workdir = Path(workdir)

    start = perf_counter()
    import numpy  # noqa: F401  (import time belongs to set-up)
    import fvl.cli  # noqa: F401
    import_s = perf_counter() - start

    rows = WORKLOADS[name].kernel_rows
    workdir.mkdir(parents=True)
    scratch = workdir / "kernel.bin"
    kernel = [reference_kernel(rows, scratch)]
    setups = []
    for i in range(repeats):
        work = workdir / f"setup{i}"
        work.mkdir()
        workload = WORKLOADS[name]()
        began = perf_counter()
        workload.setup(seed, work)
        setups.append(perf_counter() - began)
        kernel.append(reference_kernel(rows, scratch))
        if i + 1 < repeats:
            shutil.rmtree(work)
    import_s *= REFERENCE_S / kernel[0]
    setups = [t * f for t, f in zip(setups, pair_scales(kernel))]

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer().install()
    ops = Ops(tracer)
    cycle_walls = []
    kernel = [reference_kernel(rows, scratch)]
    deadline = perf_counter() + seconds
    while not cycle_walls or perf_counter() < deadline:
        began = perf_counter()
        workload.cycle(ops)
        cycle_walls.append(perf_counter() - began)
        kernel.append(reference_kernel(rows, scratch))
        ops.cycle += 1
    scales = pair_scales(kernel)
    times = {kind: [t * scales[c] for t, c in entries]
             for kind, entries in ops.times.items()}

    result = {"import_s": import_s, "setup_s": setups,
              "cycle_s": [t * f for t, f in zip(cycle_walls, scales)],
              "raw_cycle_s": cycle_walls, "kernel_s": kernel,
              "attempted": ops.attempted, "failed": ops.failed,
              "errors": ops.errors, "op_times": times,
              **workload.report(times)}
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(len(cycle_walls))
        tracer.save(workdir / "spans.npz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
