"""Evaluation metrics: displacement errors, final IoU, and the
easy/challenging case split.

All metrics run in pixel units on box arrays [delta x 4] (cx, cy, w, h)
or sequences of BoundingBox.  The easy/challenging partition is defined
by the constant-acceleration baseline: a sample is easy when that
baseline's FDE is strictly below the mean over the evaluation set.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .boxes import as_box_matrix
from .errors import ValidationError

__all__ = [
    "displacement_errors",
    "final_iou",
    "split_cases",
    "SampleResult",
    "EvalReport",
    "build_reports",
    "reports_to_json",
]


def displacement_errors(pred, truth) -> tuple[float, float]:
    """(FDE, ADE): center error at the last step, and averaged over all."""
    pred = as_box_matrix(pred)
    truth = as_box_matrix(truth)
    if pred.shape != truth.shape:
        raise ValidationError(
            f"prediction and truth lengths differ: {pred.shape} vs {truth.shape}")
    errors = np.hypot(pred[:, 0] - truth[:, 0], pred[:, 1] - truth[:, 1])
    return float(errors[-1]), float(errors.mean())


def _corners(box) -> tuple[float, float, float, float]:
    if isinstance(box, np.ndarray) or isinstance(box, (list, tuple)):
        cx, cy, w, h = (float(v) for v in box)
    else:
        cx, cy, w, h = box.cx, box.cy, box.w, box.h
    # a degenerate (non-positive) extent contributes zero area
    w = max(w, 0.0)
    h = max(h, 0.0)
    return cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0


def final_iou(pred, truth) -> float:
    """Intersection over union of two axis-aligned boxes; 0 on empty union."""
    ax0, ay0, ax1, ay1 = _corners(pred)
    bx0, by0, bx1, by1 = _corners(truth)
    inter_w = min(ax1, bx1) - max(ax0, bx0)
    inter_h = min(ay1, by1) - max(ay0, by0)
    intersection = max(inter_w, 0.0) * max(inter_h, 0.0)
    union = (ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - intersection
    if union <= 0.0:
        return 0.0
    return intersection / union


def split_cases(reference_fdes) -> tuple[list[int], list[int]]:
    """Partition sample indices by the reference baseline's FDE.

    Easy means strictly below the mean reference FDE; everything else,
    including exact ties with the mean, is challenging.
    """
    fdes = np.asarray(list(reference_fdes), dtype=np.float64)
    if fdes.size == 0:
        raise ValidationError("cannot split an empty evaluation set")
    threshold = fdes.mean()
    easy = [i for i, fde in enumerate(fdes) if fde < threshold]
    challenging = [i for i, fde in enumerate(fdes) if fde >= threshold]
    return easy, challenging


@dataclass(frozen=True)
class SampleResult:
    index: int
    fde: float
    ade: float
    fiou: float


@dataclass(frozen=True)
class EvalReport:
    """Aggregate metrics over one case split; means over the records."""

    case: str
    records: tuple

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        if not self.records:
            raise ValidationError(f"empty evaluation set for case {self.case!r}")

    @property
    def count(self) -> int:
        return len(self.records)

    @property
    def fde(self) -> float:
        return float(np.mean([r.fde for r in self.records]))

    @property
    def ade(self) -> float:
        return float(np.mean([r.ade for r in self.records]))

    @property
    def fiou(self) -> float:
        return float(np.mean([r.fiou for r in self.records]))

    def row(self) -> str:
        return (f"{self.case:<12} n={self.count:<5} fde={self.fde:8.3f}  "
                f"ade={self.ade:8.3f}  fiou={self.fiou:6.4f}")


def build_reports(predictions, truths, reference_fdes=None) -> dict:
    """Per-sample metrics plus overall and (optionally) case-split reports.

    `predictions` and `truths` are parallel sequences of [delta x 4] box
    arrays; `reference_fdes` are the ConstAccel FDEs used for the
    easy/challenging partition.
    """
    if len(predictions) != len(truths):
        raise ValidationError(
            f"{len(predictions)} predictions for {len(truths)} truths")
    records = []
    for i, (pred, truth) in enumerate(zip(predictions, truths)):
        pred = as_box_matrix(pred)
        truth = as_box_matrix(truth)
        fde, ade = displacement_errors(pred, truth)
        records.append(SampleResult(index=i, fde=fde, ade=ade,
                                    fiou=final_iou(pred[-1], truth[-1])))
    reports = {"all": EvalReport(case="all", records=records)}
    if reference_fdes is not None:
        easy, challenging = split_cases(reference_fdes)
        if easy:
            reports["easy"] = EvalReport(
                case="easy", records=[records[i] for i in easy])
        if challenging:
            reports["challenging"] = EvalReport(
                case="challenging", records=[records[i] for i in challenging])
    return reports


def reports_to_json(reports: dict) -> str:
    """Serialize reports: overall/per-case means plus per-sample rows."""
    payload = {}
    for case, report in reports.items():
        payload[case] = {
            "count": report.count,
            "fde": report.fde,
            "ade": report.ade,
            "fiou": report.fiou,
            "samples": [{"index": r.index, "fde": r.fde, "ade": r.ade,
                         "fiou": r.fiou} for r in report.records],
        }
    return json.dumps(payload, indent=2, sort_keys=True)
