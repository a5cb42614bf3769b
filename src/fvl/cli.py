"""Command line tying the pipeline together.

Subcommands: generate (scenario files to video directories), train,
evaluate, predict, gradcheck.
Every run is a pure function of its flags: all randomness flows from
--seed, and --workers only fans work out over threads whose results are
concatenated in input order, so any worker count gives identical bytes.

Exit codes: 0 success, 1 usage, 2 data/format problems, 3 numeric
failure, 141 stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .baselines import BASELINE_DEGREES, fit_extrapolate
from .dataio import (
    generate_scenario,
    read_dataset,
    read_scenario_file,
    read_video_dir,
    windows_from_video,
    write_video_dir,
)
from .errors import (DataFormatError, NumericFailure, ValidationError,
                     replacing, write_atomic)
from .fvlmodel import (
    VARIANTS,
    ModelConfig,
    gradient_check_model,
    load_model,
    save_model,
    train_model,
)
from .metrics import build_reports, displacement_errors, reports_to_json

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems instead of exiting itself,
    so main() can map them to exit code 1."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


# an argparse type that converts with `kind` and refuses a value failing a
# (test, message) rule; argparse names it by its __name__ in a type error
def _converter(kind, name, *rules):
    def convert(text):
        value = kind(text)
        for test, message in rules:
            if not test(value):
                raise argparse.ArgumentTypeError(f"{message}, got {text}")
        return value
    convert.__name__ = name
    return convert


_IS_POSITIVE = (lambda v: 0 < v < math.inf, "must be positive and finite")
_IS_NON_NEGATIVE = (lambda v: v >= 0, "must be >= 0")
_POSITIVE_INT = _converter(int, "positive integer", _IS_POSITIVE)
_POSITIVE_FLOAT = _converter(float, "positive number", _IS_POSITIVE)
_NON_NEGATIVE = _converter(int, "non-negative integer", _IS_NON_NEGATIVE)
_SEED = _converter(int, "non-negative integer", _IS_NON_NEGATIVE,
                   (lambda v: v < 2**64, "must be below 2**64"))


# built on the first main() call and kept: parse_args leaves it unchanged
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="fvl",
                     description="synthetic future-vehicle-localization pipeline")
    sub = parser.add_subparsers(dest="command", metavar="command")
    # the flags of the commands that read a dataset
    reads = argparse.ArgumentParser(add_help=False)
    reads.add_argument("--dataset", required=True,
                       help="sample file or video directory tree")
    reads.add_argument("--workers", type=_POSITIVE_INT, default=1)

    gen = sub.add_parser(
        "generate", help="render scenario files into video directories")
    gen.add_argument("scenarios", nargs="+",
                     help="scenario description files (key=value text)")
    gen.add_argument("--out", required=True,
                     help="parent directory; each file lands in <out>/<stem>")
    gen.add_argument("--tau", type=_POSITIVE_INT, default=10,
                     help="observed window recorded in the video meta")
    gen.add_argument("--delta", type=_POSITIVE_INT, default=10,
                     help="prediction horizon recorded in the video meta")

    train = sub.add_parser("train", parents=[reads],
                           help="train a forecaster checkpoint")
    train.add_argument("--out", required=True, help="checkpoint path")
    train.add_argument("--variant", choices=VARIANTS, default="xoe")
    train.add_argument("--hidden", type=_POSITIVE_INT, default=64)
    train.add_argument("--embed", type=_POSITIVE_INT, default=64)
    train.add_argument("--tau", type=_POSITIVE_INT, default=10)
    train.add_argument("--delta", type=_POSITIVE_INT, default=10)
    train.add_argument("--epochs", type=_NON_NEGATIVE, default=40)
    train.add_argument("--batch", type=_POSITIVE_INT, default=64)
    train.add_argument("--lr", type=_POSITIVE_FLOAT, default=5e-4)
    train.add_argument("--seed", type=_SEED, default=0)
    train.add_argument("--pool-n", type=_POSITIVE_INT, default=5)

    ev = sub.add_parser(
        "evaluate", parents=[reads],
        help="score a checkpoint or baseline on a dataset")
    ev.add_argument("model",
                    help="checkpoint path or baseline name "
                         f"({'/'.join(sorted(BASELINE_DEGREES))})")
    ev.add_argument("--out", help="also write the report as JSON here")
    ev.add_argument("--tau", type=_POSITIVE_INT,
                    help="a baseline's window, default 10 (a checkpoint has its own)")
    ev.add_argument("--delta", type=_POSITIVE_INT,
                    help="a baseline's horizon, default 10 (a checkpoint has its own)")

    pred = sub.add_parser(
        "predict", parents=[reads], help="write predicted future boxes as JSONL")
    pred.add_argument("model", help="checkpoint path")
    pred.add_argument("ids", nargs="*", type=int,
                      help="sample indices (default: all)")
    pred.add_argument("--out", help="output path (default: stdout)")

    gc = sub.add_parser(
        "gradcheck",
        help="compare analytic gradients against finite differences")
    gc.add_argument("--variant", choices=VARIANTS, default="xoe")
    gc.add_argument("--hidden", type=_POSITIVE_INT, default=8)
    gc.add_argument("--embed", type=_POSITIVE_INT, default=8)
    gc.add_argument("--tau", type=_POSITIVE_INT, default=3)
    gc.add_argument("--delta", type=_POSITIVE_INT, default=2)
    gc.add_argument("--pool-n", type=_POSITIVE_INT, default=5)
    gc.add_argument("--seed", type=_SEED, default=7)

    return parser


# --- dataset plumbing -----------------------------------------------------


def _video_dirs(root: Path) -> list[Path]:
    """`root` if it is a video directory, else its video subdirectories.
    Hidden ones are skipped: they hold `generate` writes still in flight,
    or left behind by one that was cut off."""
    if (root / "meta").exists():
        return [root]
    if not root.is_dir():
        raise DataFormatError(f"{root}: not a dataset file or directory")
    dirs = sorted(p for p in root.iterdir()
                  if p.is_dir() and not p.name.startswith(".")
                  and (p / "meta").exists())
    if not dirs:
        raise DataFormatError(
            f"{root}: no video directories found (nothing with a meta file)")
    return dirs


def _load_samples(args, tau, delta, n) -> list:
    """Samples from --dataset: a sample file, a video directory, or a tree.

    A sample file holds one window, pooled at whatever ROI growth its
    writer used; video windows pool at `windows_from_video`'s default.  `n`
    is the flow lattice the model reads, or None when it reads no flow;
    then windows pool the smallest lattice and a file may hold any.  Videos
    are windowed in sorted-path order and each of --workers handles whole
    videos, so the sample list is identical for any worker count.
    """
    path = Path(args.dataset)
    if path.is_file():
        samples = read_dataset(path)
        if samples:  # a file holds one window
            held = (samples[0].tau, samples[0].delta, samples[0].flow[0].n)
            if held != (tau, delta, n or held[2]):
                raise DataFormatError(f"{path}: holds (tau, delta, n) = {held} "
                                      f"windows, not {(tau, delta, n or held[2])}")
        return samples
    dirs = _video_dirs(path)

    def load(directory):
        video = read_video_dir(directory)
        return windows_from_video(video, tau, delta, n=1 if n is None else n)[0]

    # imported here: concurrent.futures brings logging, which a run that
    # reads no video directory does not need
    from concurrent.futures import ThreadPoolExecutor

    merged: list = []
    with ThreadPoolExecutor(max_workers=args.workers) as executor:
        for chunk in executor.map(load, dirs):
            merged.extend(chunk)
    return merged


def _lattice(config: ModelConfig):
    """The flow lattice size n a model reads, or None if it reads no flow."""
    return math.isqrt(config.pooled_dim // 2) if config.uses_flow else None


def _model_config(args) -> ModelConfig:
    """The model that the train or gradcheck flags describe, if any."""
    try:
        return ModelConfig(variant=args.variant, hidden=args.hidden,
                           embed=args.embed, tau=args.tau, delta=args.delta,
                           pooled_dim=2 * args.pool_n * args.pool_n)
    except ValidationError as exc:
        raise _UsageError(str(exc)) from None


# --- subcommands ----------------------------------------------------------


def cmd_generate(args) -> int:
    out_root = Path(args.out)
    stems = [Path(path).stem for path in args.scenarios]
    for i, stem in enumerate(stems):
        if stem.startswith("."):  # `_video_dirs` skips hidden directories
            raise _UsageError(f"{args.scenarios[i]} would be written to the hidden "
                              f"directory {out_root / stem}, which no reader lists")
        if stem in stems[:i]:
            raise _UsageError(f"{args.scenarios[stems.index(stem)]} and "
                              f"{args.scenarios[i]} would both be written to "
                              f"{out_root / stem}")
    for scenario_path in args.scenarios:
        scenario = read_scenario_file(scenario_path)
        video = generate_scenario(scenario)
        target = out_root / Path(scenario_path).stem
        write_video_dir(video, target, tau=args.tau, delta=args.delta)
        print(f"wrote {target}")
    return 0


def cmd_train(args) -> int:
    config = _model_config(args)
    samples = _load_samples(args, config.tau, config.delta, _lattice(config))
    result = train_model(config, samples, epochs=args.epochs,
                         batch_size=args.batch, lr=args.lr, seed=args.seed)
    # repr floats so identical runs produce identical bytes
    rows = ["epoch,train_loss,val_ade"]
    rows += [f"{i},{loss!r},{ade!r}"
             for i, (loss, ade) in enumerate(zip(result.train_losses,
                                                 result.val_ades))]
    curve_path = Path(f"{args.out}.losses.csv")
    # the checkpoint and its loss curve are replaced as a pair
    with replacing(curve_path, ("\n".join(rows) + "\n").encode()):
        save_model(args.out, config, result.best_params)
    print(f"trained {config.variant} on {len(samples)} samples "
          f"({len(result.train_indices)} train / {len(result.val_indices)} "
          f"held out), best epoch {result.best_epoch}")
    print(f"wrote {args.out} and {curve_path}")
    return 0


def cmd_evaluate(args) -> int:
    if args.model in BASELINE_DEGREES:
        forecaster = None
        tau, delta, n = args.tau or 10, args.delta or 10, None  # baselines read no flow
    else:
        if args.tau or args.delta:
            raise _UsageError(f"--tau and --delta set a baseline's window; "
                              f"{args.model} holds its own")
        forecaster = load_model(args.model)
        tau = forecaster.config.tau
        delta = forecaster.config.delta
        n = _lattice(forecaster.config)
    samples = _load_samples(args, tau, delta, n)
    if not samples:
        raise DataFormatError(f"{args.dataset}: no samples to evaluate")

    past = np.stack([s.past for s in samples])
    truths = np.stack([s.future for s in samples])
    if forecaster is None:
        predictions = fit_extrapolate(past, BASELINE_DEGREES[args.model], delta)
    else:
        predictions = np.array([p.pixel_boxes(s.width, s.height) for s, p in
                                zip(samples, forecaster.predict_batch(samples))])
    references = displacement_errors(fit_extrapolate(past, 2, delta), truths)[0]
    reports = build_reports(predictions, truths, reference_fdes=references)
    for report in reports.values():
        print(report.row())
    if args.out:
        write_atomic(args.out, reports_to_json(reports).encode())
        print(f"wrote {args.out}")
    return 0


def cmd_predict(args) -> int:
    forecaster = load_model(args.model)
    config = forecaster.config
    samples = _load_samples(args, config.tau, config.delta, _lattice(config))
    ids = args.ids if args.ids else list(range(len(samples)))
    bad = [i for i in ids if not 0 <= i < len(samples)]
    if bad:
        raise ValidationError(
            f"sample ids out of range: {bad} (dataset has {len(samples)})")
    picked = [samples[i] for i in ids]
    lines = []
    for i, sample, pred in zip(ids, picked, forecaster.predict_batch(picked)):
        boxes = pred.pixel_boxes(sample.width, sample.height)
        lines.append(json.dumps(
            {"index": i, "track": sample.track,
             "boxes": [[float(v) for v in row] for row in boxes]},
            separators=(",", ":")))
    text = "\n".join(lines) + ("\n" if lines else "")
    if args.out:
        write_atomic(args.out, text.encode())
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_gradcheck(args) -> int:
    config = _model_config(args)
    report = gradient_check_model(config, seed=args.seed)
    print(report.summary())
    return 0 if report.passed else 3


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        # looked up per call, so a cmd_* replaced after the parser was
        # built (a test's monkeypatch, the benchmark tracer) is the one run
        code = globals()[f"cmd_{args.command}"](args)
        # a reader that closed stdout shows here, not at interpreter exit
        sys.stdout.flush()
        return code
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # stdout's reader is gone (`fvl ... | head -1`); that is no data
        # error.  Point stdout at devnull, so the interpreter's final
        # flush stays quiet, and exit as a writer stopped by SIGPIPE.
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 141
    except (DataFormatError, ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
