import numpy as np
import pytest

from fvl.baselines import BASELINE_DEGREES, fit_extrapolate
from fvl.errors import ValidationError
from fvl.rng import Xoshiro256
from oracles import sample_fit_extrapolate


def boxes_from_polynomials(coeffs, count):
    """A [1 x count x 4] stack of boxes whose coordinates follow given
    per-coordinate polys."""
    times = np.arange(count, dtype=np.float64)
    columns = [sum(c * times**k for k, c in enumerate(poly)) for poly in coeffs]
    return np.stack(columns, axis=1)[None]


def test_stationary_box_stays_put():
    past = np.tile([100.0, 50.0, 30.0, 20.0], (3, 10, 1))
    for degree in (1, 2):
        predicted = fit_extrapolate(past, degree, delta=5)
        np.testing.assert_allclose(
            predicted, np.tile([100.0, 50.0, 30.0, 20.0], (3, 5, 1)),
            rtol=0, atol=1e-9)


def test_linear_trajectory_is_extrapolated_exactly():
    past = boxes_from_polynomials(
        [(1.0, 2.0), (5.0, 1.0), (10.0, 0.5), (20.0, 0.0)], 10)
    predicted = fit_extrapolate(past, degree=1, delta=10)
    assert predicted.shape == (1, 10, 4)
    expected_cx = np.arange(10, 20) * 2.0 + 1.0
    np.testing.assert_allclose(predicted[0, :, 0], expected_cx, rtol=0, atol=1e-9)
    assert predicted[0, 0, 0] == pytest.approx(21.0, abs=1e-9)
    assert predicted[0, -1, 0] == pytest.approx(39.0, abs=1e-9)


def test_quadratic_trajectory_matches_generating_polynomial():
    polys = [(1.0, 2.0, 0.5), (3.0, -1.0, 0.2), (15.0, 0.3, 0.05), (8.0, 0.1, 0.0)]
    past = boxes_from_polynomials(polys, 10)
    predicted = fit_extrapolate(past, degree=2, delta=10)
    times = np.arange(10, 20, dtype=np.float64)
    for column, poly in enumerate(polys):
        direct = sum(c * times**k for k, c in enumerate(poly))
        np.testing.assert_allclose(predicted[0, :, column], direct,
                                   rtol=0, atol=1e-9)


def test_quadratic_fit_on_linear_data_reduces_to_linear():
    past = boxes_from_polynomials(
        [(1.0, 2.0), (5.0, -1.5), (10.0, 0.5), (20.0, 0.25)], 10)
    linear = fit_extrapolate(past, degree=1, delta=8)
    quadratic = fit_extrapolate(past, degree=2, delta=8)
    np.testing.assert_allclose(quadratic, linear, rtol=0, atol=1e-9)


def test_translation_equivariance():
    rng = Xoshiro256(9)
    past = rng.uniforms((3, 10, 4), 20.0, 200.0)
    shift = 37.25
    shifted = past.copy()
    shifted[..., 0] += shift
    for degree in (1, 2):
        base = fit_extrapolate(past, degree, delta=6)
        moved = fit_extrapolate(shifted, degree, delta=6)
        np.testing.assert_allclose(moved[..., 0] - base[..., 0], shift,
                                   rtol=0, atol=1e-9)
        np.testing.assert_allclose(moved[..., 1:], base[..., 1:],
                                   rtol=0, atol=1e-9)


def test_fit_validates_window_and_degree():
    past = boxes_from_polynomials([(1, 1), (1, 1), (5, 0), (5, 0)], 2)
    with pytest.raises(ValidationError, match="at least 3"):
        fit_extrapolate(past, degree=2, delta=1)
    with pytest.raises(ValidationError, match="degree"):
        fit_extrapolate(past, degree=3, delta=1)
    with pytest.raises(ValidationError, match="delta"):
        fit_extrapolate(past, degree=1, delta=0)
    for bad in (past[0], past[..., :3]):
        with pytest.raises(ValidationError, match="N x tau x 4"):
            fit_extrapolate(bad, degree=1, delta=1)
    assert BASELINE_DEGREES == {"linear": 1, "constaccel": 2}


@pytest.mark.parametrize("tau, delta", [(3, 1), (5, 5), (10, 10), (4, 12)])
def test_batched_fit_equals_per_sample_oracle(tau, delta):
    # one polyfit over every sample's columns gives each sample's own fit,
    # bit for bit, on random tracks at pixel scale
    rng = Xoshiro256(tau * 100 + delta)
    past = rng.uniforms((23, tau, 4), 5.0, 1200.0)
    past[5] = past[5, :1]  # a stationary box
    for degree in (1, 2):
        batched = fit_extrapolate(past, degree, delta)
        assert batched.shape == (23, delta, 4)
        oracle = np.stack([sample_fit_extrapolate(p, degree, delta)
                           for p in past])
        np.testing.assert_array_equal(batched, oracle)
