"""Closed-form extrapolation baselines.

Both baselines fit a least-squares polynomial independently to each box
coordinate (cx, cy, w, h) over the observed window t = 0..tau-1 and
evaluate it at t = tau..tau+delta-1, in raw pixels.  Degree 1 assumes
constant velocity ("linear"), degree 2 constant acceleration
("constaccel").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boxes import as_box_matrix
from .errors import ValidationError

__all__ = ["PolyFit", "fit_boxes", "fit_extrapolate", "BASELINE_DEGREES"]

BASELINE_DEGREES = {"linear": 1, "constaccel": 2}


@dataclass(frozen=True)
class PolyFit:
    """Per-coordinate polynomial fit over a past window."""

    degree: int
    coefficients: np.ndarray  # [degree + 1, 4], lowest order first
    window: int

    def extrapolate(self, delta: int) -> np.ndarray:
        """Evaluate the fit at the delta steps after the window, [delta x 4]."""
        if delta < 1:
            raise ValidationError(f"delta must be >= 1, got {delta}")
        times = np.arange(self.window, self.window + delta, dtype=np.float64)
        return np.polynomial.polynomial.polyval(
            times, self.coefficients).T.copy()


def fit_boxes(past, degree: int) -> PolyFit:
    if degree not in (1, 2):
        raise ValidationError(f"baseline degree must be 1 or 2, got {degree}")
    matrix = as_box_matrix(past)
    tau = matrix.shape[0]
    if tau < degree + 1:
        raise ValidationError(
            f"need at least {degree + 1} past boxes for a degree-{degree} "
            f"fit, got {tau}")
    times = np.arange(tau, dtype=np.float64)
    coefficients = np.polynomial.polynomial.polyfit(times, matrix, degree)
    return PolyFit(degree=degree, coefficients=coefficients, window=tau)


def fit_extrapolate(past, degree: int, delta: int) -> np.ndarray:
    """Fit and evaluate in one call; returns [delta x 4] pixel boxes."""
    return fit_boxes(past, degree).extrapolate(delta)
