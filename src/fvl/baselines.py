"""Closed-form extrapolation baselines.

Both baselines fit a least-squares polynomial independently to each box
coordinate (cx, cy, w, h) of each sample over the observed window
t = 0..tau-1 and evaluate it at t = tau..tau+delta-1, in raw pixels.
Degree 1 assumes constant velocity ("linear"), degree 2 constant
acceleration ("constaccel").  A batch is one least-squares fit.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

__all__ = ["fit_extrapolate", "BASELINE_DEGREES"]

BASELINE_DEGREES = {"linear": 1, "constaccel": 2}


def fit_extrapolate(past, degree: int, delta: int) -> np.ndarray:
    """Fit each sample's window and evaluate the fit at the delta steps
    after it: past [N x tau x 4] pixel boxes in, [N x delta x 4] out."""
    if degree not in (1, 2):
        raise ValidationError(f"baseline degree must be 1 or 2, got {degree}")
    if delta < 1:
        raise ValidationError(f"delta must be >= 1, got {delta}")
    past = np.asarray(past, dtype=np.float64)
    if past.ndim != 3 or past.shape[2] != 4:
        raise ValidationError(
            f"expected a stack of [N x tau x 4] boxes, got shape {past.shape}")
    count, tau, _ = past.shape
    if tau < degree + 1:
        raise ValidationError(
            f"need at least {degree + 1} past boxes for a degree-{degree} "
            f"fit, got {tau}")
    columns = past.transpose(1, 0, 2).reshape(tau, 4 * count)
    coefficients = np.polynomial.polynomial.polyfit(
        np.arange(tau, dtype=np.float64), columns, degree)
    times = np.arange(tau, tau + delta, dtype=np.float64)
    values = np.polynomial.polynomial.polyval(times, coefficients)
    return values.reshape(count, 4, delta).transpose(0, 2, 1).copy()
