import math

import numpy as np
import pytest

from fvl.egomotion import (compose, read_ego_log, rotation_matrix, wrap_angle,
                           write_ego_log)
from fvl.errors import DataFormatError, ValidationError
from fvl.rng import Xoshiro256
from oracles import homogeneous_compose


def random_steps(seed, count, max_yaw=0.5, max_translation=2.0):
    """[count x 3] step rows [yaw, x, z]."""
    rng = Xoshiro256(seed)
    return np.array([[rng.uniform(-max_yaw, max_yaw),
                      rng.uniform(-max_translation, max_translation),
                      rng.uniform(-max_translation, max_translation)]
                     for _ in range(count)]).reshape(-1, 3)


def test_identity_steps_give_zero_features():
    assert compose(np.zeros((4, 3))).tolist() == [[0.0, 0.0, 0.0]] * 4
    assert compose(np.zeros((0, 3))).shape == (0, 3)


@pytest.mark.parametrize("shape", [(4, 2), (3,), (4, 4)])
def test_compose_refuses_steps_that_are_not_k_by_3(shape):
    with pytest.raises(ValidationError, match=r"\[k x 3\]"):
        compose(np.zeros(shape))


def test_quarter_turn_then_straight():
    # After turning 90 degrees, the second unit advance happens sideways
    # relative to the anchor frame.
    steps = np.array([[math.pi / 2.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
    first, second = compose(steps)
    assert first.tolist() == pytest.approx([math.pi / 2.0, 1.0, 0.0], abs=1e-12)
    assert second.tolist() == pytest.approx([math.pi / 2.0, 1.0, 1.0], abs=1e-12)


def test_compose_matches_homogeneous_matrix_oracle():
    steps = random_steps(seed=3, count=10)
    poses = compose(steps)
    expected = homogeneous_compose(steps)
    for (got_yaw, got_x, got_z), (yaw, x, z) in zip(poses, expected):
        assert abs(got_yaw - wrap_angle(yaw)) < 1e-12
        assert abs(got_x - x) < 1e-12
        assert abs(got_z - z) < 1e-12


def test_long_chains_stay_orthonormal_and_match_oracle():
    steps = random_steps(seed=31, count=500, max_yaw=0.2)
    _, x, z = compose(steps)[-1]
    expected = homogeneous_compose(steps)
    assert abs(x - expected[-1][1]) < 1e-9
    assert abs(z - expected[-1][2]) < 1e-9
    # the oracle's accumulated rotation should not have drifted either
    pose = np.eye(2)
    for yaw in steps[:, 0]:
        pose = pose @ rotation_matrix(yaw)
    assert np.abs(pose.T @ pose - np.eye(2)).max() < 1e-9


def test_composition_is_associative_across_a_split():
    for seed in (1, 7, 19):
        steps = random_steps(seed=seed, count=12)
        cut = 5
        full = compose(steps)
        prefix = compose(steps[:cut])[-1]
        suffix = compose(steps[cut:])
        pre_rot = rotation_matrix(prefix[0])
        for j, tail in enumerate(suffix):
            t = prefix[1:] + pre_rot @ tail[1:]
            yaw = wrap_angle(prefix[0] + tail[0])
            combined = full[cut + j]
            assert abs(combined[1] - t[0]) < 1e-12
            assert abs(combined[2] - t[1]) < 1e-12
            # compare as a difference of angles to dodge the wrap boundary
            assert abs(wrap_angle(combined[0] - yaw)) < 1e-12


def test_constant_turn_rate_accumulates_yaw():
    poses = compose([[0.1, 0.5, 0.0]] * 10)
    assert poses[-1, 0] == pytest.approx(1.0, abs=1e-12)


def test_yaw_is_wrapped_into_half_open_interval():
    yaws = compose([[math.pi / 2.0, 0.0, 0.0]] * 7)[:, 0]
    assert np.all((-math.pi < yaws) & (yaws <= math.pi))
    # 7 quarter turns = 3.5 pi, wrapped to -pi/2
    assert yaws[-1] == pytest.approx(-math.pi / 2.0, abs=1e-12)


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
    assert loaded.dtype == np.float64 and loaded.shape == (8, 3)
    assert loaded.tobytes() == steps.tobytes()
    # a second pass through the file is byte-stable
    text = path.read_bytes()
    write_ego_log(path, loaded)
    assert path.read_bytes() == text
    write_ego_log(path, np.zeros((0, 3)))
    assert read_ego_log(path).shape == (0, 3)


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


@pytest.mark.parametrize("yaw, translation", [
    (math.nan, (1.0, 0.0)), (math.inf, (1.0, 0.0)), (-math.inf, (1.0, 0.0)),
    (0.1, (math.nan, 0.0)), (0.1, (0.0, math.inf)),
])
def test_ego_step_rejects_non_finite_values(yaw, translation, tmp_path):
    # non-finite values parse as floats but are not steps; the ego log is
    # where a step row enters, so it refuses them, naming file and line
    path = tmp_path / "ego.txt"
    path.write_text(f"0 0.0 1.0 0.0\n1 {yaw} {translation[0]} {translation[1]}\n")
    with pytest.raises(DataFormatError, match="ego.txt:2: .*finite"):
        read_ego_log(path)
