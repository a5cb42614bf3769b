import math

import numpy as np
import pytest

from fvl.egomotion import (EgoFeature, EgoStep, compose, read_ego_log,
                           rotation_matrix, wrap_angle, write_ego_log,
                           yaw_to_step)
from fvl.errors import DataFormatError, ValidationError
from fvl.rng import Xoshiro256
from oracles import homogeneous_compose


def random_steps(seed, count, max_yaw=0.5, max_translation=2.0):
    rng = Xoshiro256(seed)
    steps = []
    for _ in range(count):
        yaw = rng.uniform(-max_yaw, max_yaw)
        t = np.array([rng.uniform(-max_translation, max_translation),
                      rng.uniform(-max_translation, max_translation)])
        steps.append(EgoStep(yaw=yaw, translation=t))
    return steps


def test_identity_steps_give_zero_features():
    steps = [EgoStep(yaw=0.0, translation=np.zeros(2))] * 4
    for feature in compose(steps):
        assert feature == EgoFeature(0.0, 0.0, 0.0)


def test_quarter_turn_then_straight():
    # After turning 90 degrees, the second unit advance happens sideways
    # relative to the anchor frame.
    steps = [yaw_to_step(math.pi / 2.0, 1.0), yaw_to_step(0.0, 1.0)]
    first, second = compose(steps)
    assert first.yaw == pytest.approx(math.pi / 2.0, abs=1e-12)
    assert (first.x, first.z) == pytest.approx((1.0, 0.0), abs=1e-12)
    assert second.yaw == pytest.approx(math.pi / 2.0, abs=1e-12)
    assert (second.x, second.z) == pytest.approx((1.0, 1.0), abs=1e-12)


def test_compose_matches_homogeneous_matrix_oracle():
    steps = random_steps(seed=3, count=10)
    features = compose(steps)
    expected = homogeneous_compose(steps)
    for got, (yaw, x, z) in zip(features, expected):
        assert abs(got.yaw - wrap_angle(yaw)) < 1e-12
        assert abs(got.x - x) < 1e-12
        assert abs(got.z - z) < 1e-12


def test_long_chains_stay_orthonormal_and_match_oracle():
    steps = random_steps(seed=31, count=500, max_yaw=0.2)
    features = compose(steps)
    expected = homogeneous_compose(steps)
    assert abs(features[-1].x - expected[-1][1]) < 1e-9
    assert abs(features[-1].z - expected[-1][2]) < 1e-9
    # the oracle's accumulated rotation should not have drifted either
    pose = np.eye(2)
    for step in steps:
        pose = pose @ step.rotation
    assert np.abs(pose.T @ pose - np.eye(2)).max() < 1e-9


def test_composition_is_associative_across_a_split():
    for seed in (1, 7, 19):
        steps = random_steps(seed=seed, count=12)
        cut = 5
        full = compose(steps)
        prefix = compose(steps[:cut])[-1]
        suffix = compose(steps[cut:])
        pre_rot = rotation_matrix(prefix.yaw)
        pre_t = np.array([prefix.x, prefix.z])
        for j, tail in enumerate(suffix):
            t = pre_t + pre_rot @ np.array([tail.x, tail.z])
            yaw = wrap_angle(prefix.yaw + tail.yaw)
            combined = full[cut + j]
            assert abs(combined.x - t[0]) < 1e-12
            assert abs(combined.z - t[1]) < 1e-12
            # compare as a difference of angles to dodge the wrap boundary
            assert abs(wrap_angle(combined.yaw - yaw)) < 1e-12


@pytest.mark.parametrize("yaw, translation", [
    (math.nan, (1.0, 0.0)), (math.inf, (1.0, 0.0)), (-math.inf, (1.0, 0.0)),
    (0.1, (math.nan, 0.0)), (0.1, (0.0, math.inf)),
])
def test_ego_step_rejects_non_finite_values(yaw, translation):
    with pytest.raises(ValidationError, match="finite"):
        EgoStep(yaw=yaw, translation=np.array(translation))


def test_ego_step_rotation_is_the_matrix_of_its_yaw():
    step = EgoStep(yaw=0.3, translation=np.array([1.0, 0.0]))
    np.testing.assert_array_equal(step.rotation, rotation_matrix(0.3))
    with pytest.raises(ValidationError, match="2-vector"):
        EgoStep(yaw=0.3, translation=np.zeros(3))


def test_yaw_to_step_examples():
    straight = yaw_to_step(0.0, 1.0)
    np.testing.assert_array_equal(straight.rotation, np.eye(2))
    np.testing.assert_array_equal(straight.translation, [1.0, 0.0])

    pivot = yaw_to_step(math.pi / 2.0, 0.0)
    np.testing.assert_allclose(pivot.rotation, [[0.0, -1.0], [1.0, 0.0]],
                               rtol=0, atol=1e-15)
    np.testing.assert_array_equal(pivot.translation, [0.0, 0.0])

    with pytest.raises(ValidationError):
        yaw_to_step(float("nan"), 1.0)
    with pytest.raises(ValidationError):
        yaw_to_step(0.0, float("inf"))


def test_constant_turn_rate_accumulates_yaw():
    features = compose([yaw_to_step(0.1, 0.5)] * 10)
    assert features[-1].yaw == pytest.approx(1.0, abs=1e-12)


def test_yaw_is_wrapped_into_half_open_interval():
    features = compose([yaw_to_step(math.pi / 2.0, 0.0)] * 7)
    for feature in features:
        assert -math.pi < feature.yaw <= math.pi
    # 7 quarter turns = 3.5 pi, wrapped to -pi/2
    assert features[-1].yaw == pytest.approx(-math.pi / 2.0, abs=1e-12)


def test_wrap_angle_boundaries():
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(3.0 * math.pi) == pytest.approx(math.pi, abs=1e-12)
    assert wrap_angle(math.pi + 0.25) == pytest.approx(-math.pi + 0.25, abs=1e-12)


def test_ego_log_round_trip(tmp_path):
    steps = random_steps(seed=13, count=8)
    path = tmp_path / "ego.txt"
    write_ego_log(path, steps)
    loaded = read_ego_log(path)
    assert len(loaded) == len(steps)
    for original, back in zip(steps, loaded):
        np.testing.assert_allclose(back.rotation, original.rotation,
                                   rtol=0, atol=1e-15)
        np.testing.assert_array_equal(back.translation, original.translation)
    # a second pass through the file is bit-stable
    write_ego_log(path, loaded)
    again = read_ego_log(path)
    for first, second in zip(loaded, again):
        np.testing.assert_array_equal(first.rotation, second.rotation)
        np.testing.assert_array_equal(first.translation, second.translation)


def test_ego_log_rejects_malformed_lines(tmp_path):
    path = tmp_path / "ego.txt"
    path.write_text("0 0.0 1.0\n")
    with pytest.raises(DataFormatError, match="ego.txt:1"):
        read_ego_log(path)
    path.write_text("0 0.0 1.0 0.0\n2 0.0 1.0 0.0\n")
    with pytest.raises(DataFormatError, match="out of order"):
        read_ego_log(path)
    path.write_text("0 zero 1.0 0.0\n")
    with pytest.raises(DataFormatError):
        read_ego_log(path)
    # non-finite values parse as floats but are not poses
    for bad in ("inf 1.0 0.0", "nan 1.0 0.0", "0.1 nan 0.0", "0.1 1.0 -inf"):
        path.write_text(f"0 0.0 1.0 0.0\n1 {bad}\n")
        with pytest.raises(DataFormatError, match="ego.txt:2"):
            read_ego_log(path)
