"""Xoshiro256: known answers, and block draws against the scalar spec."""

import numpy as np
import pytest

from fvl import rng as rng_module
from fvl.rng import Xoshiro256

SEEDS = (0, 1, 7, 2**64 - 1)

# the lane length of a 1014-draw block, and sizes whose last lane is one
# draw short, full, and one draw long
STEPS = rng_module._lane_length(1014)
LANE_EDGES = (STEPS * 39 - 1, STEPS * 39, STEPS * 39 + 1)
SIZES = (0, 1, 2, 3, *LANE_EDGES, 644, 1768, 18648, 70001)


def scalar_u64s(g, n):
    return [g.next_u64() for _ in range(n)]


@pytest.mark.parametrize("seed, first", [
    (0, (0x99ec5f36cb75f2b4, 0xbf6e1f784956452a,
         0x1a5f849d4933e6e0, 0x6aa594f1262d2d2c)),
    (1, (0xb3f2af6d0fc710c5, 0x853b559647364cea,
         0x92f89756082a4514, 0x642e1c7bc266a3a7)),
    (2**64 - 1, (0x8f5520d52a7ead08, 0xc476a018caa1802d,
                 0x81de31c0d260469e, 0xbf658d7e065f3c2f)),
])
def test_known_answers(seed, first):
    assert tuple(scalar_u64s(Xoshiro256(seed), 4)) == first
    assert tuple(Xoshiro256(seed).next_u64s(4).tolist()) == first


def test_lane_edges_are_what_they_say():
    assert STEPS > 1
    for n, last_lane in zip(LANE_EDGES, (STEPS - 1, STEPS, 1)):
        assert rng_module._lane_length(n) == STEPS
        assert n - (-(-n // STEPS) - 1) * STEPS == last_lane


@pytest.mark.parametrize("seed", SEEDS)
def test_block_equals_scalar_draws_and_leaves_the_same_state(seed):
    for n in SIZES:
        block, scalar = Xoshiro256(seed), Xoshiro256(seed)
        drawn = block.next_u64s(n)
        assert drawn.dtype == np.uint64 and drawn.shape == (n,)
        assert drawn.tolist() == scalar_u64s(scalar, n), n
        assert block._s == scalar._s, n


@pytest.mark.parametrize("seed", SEEDS)
def test_block_uniforms_equal_scalar_randoms(seed):
    for n in SIZES:
        block, scalar = Xoshiro256(seed), Xoshiro256(seed)
        want = -0.3 + (0.7 - -0.3) * np.array([scalar.random() for _ in range(n)])
        got = block.uniforms(n, -0.3, 0.7)
        assert got.tobytes() == want.tobytes(), n
        assert block._s == scalar._s, n


@pytest.mark.parametrize("seed", SEEDS)
def test_integer_and_shuffle_after_a_block_follow_the_scalar_stream(seed):
    block, scalar = Xoshiro256(seed), Xoshiro256(seed)
    block.uniforms(1768)
    scalar_u64s(scalar, 1768)
    assert [block.integer(1000) for _ in range(20)] == [
        scalar.integer(1000) for _ in range(20)]
    assert block.permutation(50) == scalar.permutation(50)
    assert block.next_u64s(3).tolist() == scalar_u64s(scalar, 3)


def test_successive_blocks_continue_one_stream():
    block, scalar = Xoshiro256(12345), Xoshiro256(12345)
    drawn = [block.next_u64s(n) for n in (5, 644, 0, 1, 1768, 2)]
    assert np.concatenate(drawn).tolist() == scalar_u64s(scalar, 2420)


@pytest.mark.parametrize("shape, draws", [(0, 0), ((), 1), (5, 5), ((2, 0), 0),
                                          ((2, 3), 6)])
def test_uniforms_shape_and_draw_count(shape, draws):
    g, reference = Xoshiro256(3), Xoshiro256(3)
    values = g.uniforms(shape, 2.0, 4.0)
    assert isinstance(values, np.ndarray)
    assert values.shape == np.empty(shape).shape
    assert np.all((2.0 <= values) & (values < 4.0))
    scalar_u64s(reference, draws)
    assert g._s == reference._s


def test_uniforms_split_equals_successive_uniforms_calls():
    specs = [((2, 3), -1.0, 1.0), ((), 0.5, 0.6), (0, 0.0, 1.0), (4, 10.0, 20.0)]
    split = Xoshiro256(9).uniforms_split(specs)
    g = Xoshiro256(9)
    for got, (shape, low, high) in zip(split, specs):
        want = g.uniforms(shape, low, high)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
def test_seeds_outside_64_bits_are_refused(seed):
    # 2**64 would otherwise alias seed 0
    with pytest.raises(ValueError, match="seed must be in"):
        Xoshiro256(seed)


def test_negative_block_size_is_refused():
    with pytest.raises(ValueError):
        Xoshiro256(0).next_u64s(-1)
