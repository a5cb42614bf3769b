"""fvl benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload {train,forecast,ingest} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  The workload runs in a child process
(workloads.py) with fvl imported from ./src and BLAS/OpenMP pinned to
one thread, so peak RSS and set-up time belong to that workload alone.

--trace 0 prints the end-to-end metrics of BENCHMARK.json, measured with
tracing off.  --trace 1 runs the workload twice for S/2 seconds each,
untraced and then traced, and prints the per-layer metrics of
BENCHMARK.json from the traced run plus the tracing overhead (traced
minus untraced cycle time).  Human-readable lines come first; the last
stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train", "forecast", "ingest")
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 3
TIME_LIMIT_S = 170.0


def run_child(workload, seed, seconds, trace, repeats, workdir, deadline):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1", **THREAD_ENV)
    argv = [sys.executable, str(HERE / "workloads.py"), workload, str(seed),
            repr(seconds), str(int(trace)), str(repeats), str(workdir)]
    proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=max(1.0, deadline - monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} child exited {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_percentile(values):
    """(percentile, value): the highest percentile, capped at 99, that
    keeps at least ten samples beyond it; the maximum below 11 samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return 100.0, ordered[-1]
    rank = min(n - 10, math.ceil(0.99 * n))
    return 100.0 * rank / n, ordered[rank - 1]


def end_to_end(workload, raw, peak_rss_mb):
    """Every end-to-end metric, plus the workload-specific figures."""
    median = statistics.median
    times = raw["op_times"]
    items_per_s = raw["items_per_op"] / median(raw["item_walls"])
    metrics = {
        "setup_s": raw["import_s"] + median(raw["setup_s"]),
        "peak_rss_mb": peak_rss_mb,
        "items_per_s": items_per_s,
        "cycle_s": median(raw["cycle_s"]),
    }
    detail = {"op_fail_ratio": (raw["failed"] / raw["attempted"], "failed/attempted"),
              "raw_cycle_s": (median(raw["raw_cycle_s"]), "s (unscaled)"),
              "reference_kernel_s": (median(raw["kernel_s"]), "s (unscaled)")}
    if workload == "train":
        detail["train_samples_per_s"] = (items_per_s, "samples/s")
        detail["val_ade_px"] = (raw["val_ade_px"], "px")
    elif workload == "forecast":
        predicts = [1000.0 * t for t in times["predict"]]
        pct, tail = tail_percentile(predicts)
        detail["predict_ms_p50"] = (median(predicts), "ms")
        detail["predict_ms_p99"] = (
            tail, f"ms (p{pct:.1f} of {len(predicts)} predicts)")
        detail["evaluate_samples_per_s"] = (
            raw["test_samples"] / median(times["evaluate"]), "samples/s")
        detail["gradcheck_s"] = (median(times["gradcheck"]), "s")
    else:
        detail["generate_frames_per_s"] = (items_per_s, "frames/s")
        detail["window_samples_per_s"] = (
            sum(raw["window_samples"]) / sum(times["window"]), "samples/s")
        detail["disk_bytes_per_frame"] = (median(raw["disk_bytes_per_frame"]),
                                          "bytes")
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = monotonic() + TIME_LIMIT_S

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "fvl" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} has no src/fvl package or no BENCHMARK.json",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            half = args.seconds / 2.0
            plain = run_child(args.workload, args.seed, half, False, 1,
                              workdir / "plain", deadline)
            raw = run_child(args.workload, args.seed, half, True, 1,
                            workdir / "traced", deadline)
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            shutil.move(workdir / "traced" / "spans.npz",
                        out_dir / f"spans-{args.workload}.npz")
            untraced_s = statistics.median(plain["cycle_s"])
            traced_s = statistics.median(raw["cycle_s"])
            values = dict(raw["layers"])
            values["trace.overhead_s"] = traced_s - untraced_s
            values["trace.overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
            attempted = plain["attempted"] + raw["attempted"]
            failed = plain["failed"] + raw["failed"]
            errors = plain["errors"] + raw["errors"]
            print(f"traced {len(raw['cycle_s'])} cycles: {traced_s:.4f} s per "
                  f"cycle vs {untraced_s:.4f} s untraced")
        else:
            raw = run_child(args.workload, args.seed, args.seconds, False,
                            SETUP_REPEATS, workdir, deadline)
            peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            values, detail = end_to_end(args.workload, raw, peak_kib / 1024.0)
            attempted, failed, errors = raw["attempted"], raw["failed"], raw["errors"]
            for name, (value, unit) in detail.items():
                print(f"{args.workload} {name} = {value:.6g} {unit}")
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("threads: " + " ".join(f"{k}={v}" for k, v in THREAD_ENV.items()))
    for error in errors:
        print(f"failed op: {error}")
    metrics = {}
    for entry in wanted:
        metrics[entry["name"]] = {"value": values[entry["name"]],
                                  "unit": entry["unit"]}
        print(f"{args.workload} {entry['name']} = "
              f"{values[entry['name']]:.6g} {entry['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
