"""Evaluation metrics over stacked pixel boxes (cx, cy, w, h), [N x delta
x 4] or [N x 4], one value per sample: displacement errors, final IoU,
and the easy/challenging case split.  A sample is easy when the
constant-acceleration baseline's FDE on it is strictly below that
baseline's mean FDE over the evaluation set.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = [
    "displacement_errors",
    "final_iou",
    "split_cases",
    "EvalReport",
    "build_reports",
    "reports_to_json",
]


def _paired(pred, truth, shape: str) -> tuple[np.ndarray, np.ndarray]:
    """Both arguments as float arrays of one shape with N >= 1, of the
    rank that `shape` names ("N x 4" is rank 2)."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if (pred.shape != truth.shape or pred.ndim != shape.count(" x ") + 1
            or pred.shape[-1] != 4 or len(pred) == 0):
        raise ValidationError(
            f"prediction and truth must be [{shape}] boxes of one shape, "
            f"N >= 1, got {pred.shape} and {truth.shape}")
    return pred, truth


def displacement_errors(pred, truth) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample (FDE [N], ADE [N]) of two [N x delta x 4] stacks: the
    center error at the last step, and its mean over all steps."""
    pred, truth = _paired(pred, truth, "N x delta x 4")
    errors = np.hypot(pred[..., 0] - truth[..., 0], pred[..., 1] - truth[..., 1])
    return errors[:, -1].copy(), errors.mean(axis=1)


def final_iou(pred, truth) -> np.ndarray:
    """Intersection over union of paired boxes [N x 4], one value per
    pair; 0 where the union is empty.  A non-positive extent counts as
    zero area."""
    boxes = np.stack(_paired(pred, truth, "N x 4"))
    half = np.maximum(boxes[..., 2:], 0.0) / 2.0
    lo, hi = boxes[..., :2] - half, boxes[..., :2] + half
    area = np.prod(hi - lo, axis=-1)
    overlap = np.maximum(np.minimum(hi[0], hi[1]) - np.maximum(lo[0], lo[1]), 0.0)
    intersection = np.prod(overlap, axis=-1)
    union = area[0] + area[1] - intersection
    empty = union <= 0.0
    return np.where(empty, 0.0, intersection / np.where(empty, 1.0, union))


def split_cases(reference_fdes) -> tuple[np.ndarray, np.ndarray]:
    """Partition sample indices by the reference baseline's FDE.

    Easy means strictly below the mean reference FDE; everything else,
    including exact ties with the mean, is challenging.
    """
    fdes = np.asarray(reference_fdes, dtype=np.float64)
    if fdes.size == 0:
        raise ValidationError("cannot split an empty evaluation set")
    threshold = fdes.mean()
    return np.flatnonzero(fdes < threshold), np.flatnonzero(fdes >= threshold)


@dataclass(frozen=True)
class EvalReport:
    """Per-sample metrics of the samples `index` of one case split, as
    parallel arrays; the aggregates are their means."""

    case: str
    index: np.ndarray
    fde: np.ndarray
    ade: np.ndarray
    fiou: np.ndarray

    def means(self) -> dict:
        return {key: float(np.mean(getattr(self, key)))
                for key in ("fde", "ade", "fiou")}

    def row(self) -> str:
        mean = self.means()
        return (f"{self.case:<12} n={len(self.index):<5} fde={mean['fde']:8.3f}  "
                f"ade={mean['ade']:8.3f}  fiou={mean['fiou']:6.4f}")


def build_reports(predictions, truths, reference_fdes) -> dict:
    """Per-sample metrics plus overall and case-split reports.

    `predictions` and `truths` are [N x delta x 4] box stacks (or
    sequences of [delta x 4] arrays); `reference_fdes` are the N
    ConstAccel FDEs used for the easy/challenging partition.
    """
    predictions = np.asarray(predictions, dtype=np.float64)
    truths = np.asarray(truths, dtype=np.float64)
    fde, ade = displacement_errors(predictions, truths)
    fiou = final_iou(predictions[:, -1], truths[:, -1])
    reference_fdes = np.asarray(reference_fdes, dtype=np.float64)
    if reference_fdes.shape != fde.shape:
        raise ValidationError(f"reference FDEs of shape "
                              f"{reference_fdes.shape} for {len(fde)} samples")
    easy, challenging = split_cases(reference_fdes)
    cases = {"all": np.arange(len(fde)), "easy": easy, "challenging": challenging}
    return {case: EvalReport(case, index, fde[index], ade[index], fiou[index])
            for case, index in cases.items() if len(index)}


def reports_to_json(reports: dict) -> str:
    """Serialize reports: overall/per-case means plus per-sample rows."""
    payload = {}
    for case, report in reports.items():
        rows = zip(report.index.tolist(), report.fde.tolist(),
                   report.ade.tolist(), report.fiou.tolist())
        payload[case] = {
            "count": len(report.index),
            **report.means(),
            "samples": [{"index": i, "fde": fde, "ade": ade, "fiou": fiou}
                        for i, fde, ade, fiou in rows],
        }
    return json.dumps(payload, indent=2, sort_keys=True)
