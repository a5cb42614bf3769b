import math
import re
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fvl import diffcore as dc
from fvl.diffcore import DiffArray, Tape, grad_check
from fvl.errors import DimensionError, ValidationError
from fvl.fvlmodel import VARIANTS, BoxForecaster, ModelConfig, _batch_loss
from fvl.nnkit import mse_loss
from fvl.rng import Xoshiro256

import oracles


def rel_err(a, n):
    return np.abs(a - n) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))


def test_matmul_identity():
    tape = Tape()
    m = tape.leaf(np.eye(2))
    v = tape.leaf(np.array([3.0, 4.0]))
    out = dc.matmul(m, v)
    np.testing.assert_array_equal(out.value, [3.0, 4.0])


def test_matmul_row_times_column():
    tape = Tape()
    a = tape.leaf(np.array([[1.0, 2.0]]))
    b = tape.leaf(np.array([[3.0], [4.0]]))
    out = dc.matmul(a, b)
    np.testing.assert_array_equal(out.value, [[11.0]])


def test_sigmoid_and_tanh_at_zero():
    tape = Tape()
    x = tape.leaf(np.array([0.0]))
    assert dc.sigmoid(x).value[0] == 0.5
    assert dc.tanh(x).value[0] == 0.0


def test_sigmoid_gradient_frozen_value():
    # d/dx sigmoid at x = 2: s * (1 - s) with s = 1/(1+e^-2), frozen once.
    tape = Tape()
    x = tape.leaf(np.array(2.0))
    tape.backward(dc.sigmoid(x))
    assert abs(x.grad - 0.10499358540350662) < 1e-15


def test_sigmoid_extreme_inputs_stay_finite():
    tape = Tape()
    x = tape.leaf(np.array([-1000.0, 1000.0]))
    s = dc.sigmoid(x).value
    assert np.all(np.isfinite(s))
    assert s[0] == 0.0 and s[1] == 1.0


def test_sigmoid_equals_the_two_branch_formula_bit_for_bit():
    # The kernel evaluates one exp(-|x|); it must round exactly like
    # 1/(1+exp(-x)) for x >= 0 and exp(x)/(1+exp(x)) below.
    rng = np.random.default_rng(5)
    x = np.concatenate([rng.standard_normal(4000) * s
                        for s in (1e-8, 1.0, 10.0, 100.0, 800.0)]
                       + [[0.0, -0.0, 709.0, 710.0, -745.0, -746.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        expected = np.where(x >= 0.0, 1.0 / (1.0 + np.exp(-x)),
                            np.exp(x) / (1.0 + np.exp(x)))
    assert np.array_equal(dc.sigmoid(x), expected)


def test_relu_gradient_at_kink_is_zero():
    tape = Tape()
    x = tape.leaf(np.array([-1.0, 0.0, 2.0]))
    tape.backward(oracles.sum_all(dc.relu(x)))
    np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0])


# A weighted sum turns any primitive's output into a scalar loss with a
# distinct adjoint per element, so the finite-difference oracle sees the
# full Jacobian rather than just its row sums.
def _weighted(out, weights):
    return oracles.sum_all(dc.mul(out, weights))


def _check_unary(op, values, fd, avoid_kink=False):
    tape = Tape()
    x = tape.leaf(values)
    weights = Xoshiro256(99).uniforms(values.shape, -1.0, 1.0)
    tape.backward(_weighted(op(x), weights))
    analytic = x.grad.copy()

    def forward():
        with tape.no_grad():
            return _weighted(op(x), weights)

    numeric = fd(forward, x.value)
    assert rel_err(analytic, numeric).max() < 1e-4


def test_every_elementwise_primitive_matches_finite_differences(fd):
    rng = Xoshiro256(7)
    values = rng.uniforms((100,), -2.0, 2.0)
    _check_unary(dc.sigmoid, values, fd)
    _check_unary(dc.tanh, values, fd)
    # keep relu inputs clear of the kink, where the numeric estimate is junk
    relu_values = np.where(np.abs(values) < 1e-3, 0.5, values)
    _check_unary(dc.relu, relu_values, fd)

    for op in (dc.add, dc.sub, dc.mul):
        tape = Tape()
        a = tape.leaf(rng.uniforms((100,), -2.0, 2.0))
        b = tape.leaf(rng.uniforms((100,), -2.0, 2.0))
        weights = rng.uniforms((100,), -1.0, 1.0)
        tape.backward(_weighted(op(a, b), weights))
        for leaf in (a, b):
            analytic = leaf.grad.copy()

            def forward(op=op, a=a, b=b, w=weights, tape=tape):
                with tape.no_grad():
                    return _weighted(op(a, b), w)

            numeric = fd(forward, leaf.value)
            assert rel_err(analytic, numeric).max() < 1e-4


def test_structural_primitives_match_finite_differences(fd):
    rng = Xoshiro256(11)
    cases = [
        ("matmul_mat", lambda t: (t.leaf(rng.uniforms((4, 6), -1, 1)),
                                  t.leaf(rng.uniforms((6, 3), -1, 1)),
                                  dc.matmul)),
        ("matmul_vec", lambda t: (t.leaf(rng.uniforms((4, 6), -1, 1)),
                                  t.leaf(rng.uniforms((6,), -1, 1)),
                                  dc.matmul)),
        ("concat_vec", lambda t: (t.leaf(rng.uniforms((5,), -1, 1)),
                                  t.leaf(rng.uniforms((3,), -1, 1)),
                                  dc.concat_last)),
        ("concat_mat", lambda t: (t.leaf(rng.uniforms((2, 5), -1, 1)),
                                  t.leaf(rng.uniforms((2, 3), -1, 1)),
                                  dc.concat_last)),
    ]
    for label, build in cases:
        tape = Tape()
        a, b, op = build(tape)
        weights = rng.uniforms(op(a, b).shape, -1.0, 1.0)
        tape.reset()
        tape.backward(_weighted(op(a, b), weights))
        for leaf in (a, b):
            analytic = leaf.grad.copy()

            def forward(op=op, a=a, b=b, w=weights, tape=tape):
                with tape.no_grad():
                    return _weighted(op(a, b), w)

            numeric = fd(forward, leaf.value)
            assert rel_err(analytic, numeric).max() < 1e-4, label

    for label, op in [("tile_rows", lambda x: dc.tile_rows(x, 4)),
                      ("transpose", dc.transpose),
                      ("mean_all", dc.mean_all),
                      ("sum_all", oracles.sum_all)]:
        tape = Tape()
        shape = (3, 5) if label == "transpose" else (6,)
        x = tape.leaf(rng.uniforms(shape, -1, 1))
        out = op(x)
        weights = rng.uniforms(out.shape, -1.0, 1.0)
        tape.reset()
        tape.backward(_weighted(op(x), weights))
        analytic = x.grad.copy()

        def forward(op=op, x=x, w=weights, tape=tape):
            with tape.no_grad():
                return _weighted(op(x), w)

        numeric = fd(forward, x.value)
        assert rel_err(analytic, numeric).max() < 1e-4, label


def test_scalar_broadcast_gradient_reduces(fd):
    tape = Tape()
    s = tape.leaf(np.array(1.5))
    v = tape.leaf(np.array([1.0, -2.0, 3.0]))
    tape.backward(oracles.sum_all(dc.mul(s, v)))
    assert s.grad == pytest.approx(2.0)  # sum of v
    np.testing.assert_allclose(v.grad, 1.5)


def test_backward_is_linear_in_the_loss():
    def build(tape):
        a = tape.leaf(np.array([0.3, -0.7, 1.1]))
        b = tape.leaf(np.array([0.5, 0.2, -0.4]))
        l1 = oracles.sum_all(dc.mul(a, b))
        l2 = dc.mean_all(dc.sigmoid(a))
        return a, b, l1, l2

    tape1 = Tape()
    a1, b1, l1, l2 = build(tape1)
    tape1.backward(l1)
    tape1.backward(l2)

    tape2 = Tape()
    a2, b2, m1, m2 = build(tape2)
    tape2.backward(dc.add(m1, m2))

    np.testing.assert_allclose(a1.grad, a2.grad, rtol=0, atol=1e-12)
    np.testing.assert_allclose(b1.grad, b2.grad, rtol=0, atol=1e-12)


def test_repeated_backward_accumulates_on_leaves():
    tape = Tape()
    x = tape.leaf(np.array([1.0, 2.0]))
    loss = oracles.sum_all(dc.mul(x, x))
    tape.backward(loss)
    once = x.grad.copy()
    tape.backward(loss)
    np.testing.assert_array_equal(x.grad, 2.0 * once)


def test_reset_zeroes_every_adjoint_exactly():
    tape = Tape()
    x = tape.leaf(np.array([1.0, 2.0, 3.0]))
    y = tape.leaf(np.array(-0.5))
    tape.backward(oracles.sum_all(dc.mul(dc.mul(x, x), y)))
    assert np.all(tape.grads != 0.0)
    tape.reset()
    assert np.all(x.grad == 0.0)
    # every bit of the flat adjoint buffer is clear: no -0.0 is left
    assert tape.grads.tobytes() == bytes(8 * tape.grads.size)
    # the tape is reusable after a reset
    tape.backward(oracles.sum_all(x))
    np.testing.assert_array_equal(x.grad, 1.0)


def test_backward_rejects_non_scalar_loss():
    tape = Tape()
    x = tape.leaf(np.array([1.0, 2.0]))
    y = dc.mul(x, x)
    with pytest.raises(ValidationError, match="scalar"):
        tape.backward(y)


def test_backward_rejects_foreign_values():
    tape = Tape()
    with pytest.raises(ValidationError):
        tape.backward(np.asarray(3.0))
    other = Tape()
    loss = oracles.sum_all(other.leaf(np.array([1.0])))
    with pytest.raises(ValidationError):
        tape.backward(loss)


def test_an_array_outliving_its_tape_keeps_its_value_and_refuses_to_record():
    tape = Tape()
    w = tape.leaf(np.array([1.0, 2.0]), name="w")
    y = dc.mul(w, 3.0)
    loss = oracles.sum_all(y)
    alive = weakref.ref(tape)
    del tape
    # the arrays hold the tape weakly, so reference counting frees it
    assert alive() is None
    np.testing.assert_array_equal(w.value, [1.0, 2.0])
    np.testing.assert_array_equal(y.value, [3.0, 6.0])
    freed = "tape was freed; keep the tape, or the model that owns it, alive"
    for use in (lambda: w.tape, lambda: dc.mul(w, 2.0), lambda: dc.add(1.0, y),
                lambda: Tape().backward(loss)):
        with pytest.raises(ValidationError, match=freed):
            use()


def test_grad_check_refuses_a_loss_whose_tape_was_freed():
    def loss():
        tape = Tape()
        return oracles.sum_all(dc.mul(tape.leaf(np.array([1.0, 2.0]), name="w"), 2.0))

    with pytest.raises(ValidationError, match="tape was freed"):
        grad_check(loss)


def test_shape_mismatch_names_both_shapes():
    tape = Tape()
    a = tape.leaf(np.zeros(3))
    b = tape.leaf(np.zeros(4))
    with pytest.raises(DimensionError, match=r"\(3,\).*\(4,\)"):
        dc.add(a, b)
    with pytest.raises(DimensionError):
        dc.matmul(tape.leaf(np.zeros((2, 3))), tape.leaf(np.zeros((4, 2))))


def test_no_grad_returns_plain_arrays():
    tape = Tape()
    x = tape.leaf(np.array([1.0]))
    with tape.no_grad():
        out = dc.sigmoid(x)
    assert isinstance(out, np.ndarray)
    # nothing was recorded, so backward on real work is unaffected
    tape.backward(oracles.sum_all(x))
    np.testing.assert_array_equal(x.grad, 1.0)


def test_a_diffarray_has_no_arithmetic_operators():
    # each tape operation has one spelling, dc.add(a, b); and numpy, which
    # would otherwise take a leaf as an object element, refuses it
    tape = Tape()
    leaf = tape.leaf(np.array([1.0, 2.0, 3.0]))
    for expression in (lambda: leaf + leaf, lambda: leaf * 2.0, lambda: 2.0 * leaf,
                       lambda: leaf - 1.0, lambda: -leaf, lambda: np.ones(3) + leaf,
                       lambda: np.ones(3) * leaf, lambda: np.add(leaf, 1.0)):
        with pytest.raises(TypeError):
            expression()
    assert not tape._ops


# The array operand shapes of every primitive in diffcore.__all__, and
# the non-array arguments that follow them.
PRIMITIVE_OPERANDS = {
    "add": [(3,), (3,)], "sub": [(3,), (3,)], "mul": [(3,), (3,)],
    "sigmoid": [(3,)], "tanh": [(3,)], "relu": [(3,)],
    "matmul": [(2, 3), (3, 2)], "concat_last": [(2, 3), (2, 2)],
    "tile_rows": [(3,)], "transpose": [(2, 3)],
    "affine": [(2, 3), (4, 3), (4,)],
    "gru_sequence": [(6, 3), (2, 4), (12, 7), (12,)],
    "gru_decoder": [(3, 4), (6, 5), (5, 4), (5,), (12, 9), (12,)],
    "mean_all": [(3,)],
}
EXTRA_ARGS = {"tile_rows": (4,), "gru_decoder": (2,)}
PRIMITIVES = [name for name in dc.__all__
              if name not in ("DiffArray", "Tape", "GradCheckReport", "grad_check",
                              "core_shape")]


def _apply(name, tape, plain_first=False):
    """Call a primitive on seeded operands, all leaves of `tape` except,
    with `plain_first`, the first, which stays an ndarray."""
    rng = np.random.default_rng(71)
    values = [rng.uniform(-1.0, 1.0, size=shape) for shape in PRIMITIVE_OPERANDS[name]]
    operands = [v if plain_first and i == 0 else tape.leaf(v)
                for i, v in enumerate(values)]
    return operands, getattr(dc, name)(*operands, *EXTRA_ARGS.get(name, ()))


@pytest.mark.parametrize("name", PRIMITIVES)
def test_every_primitive_records_one_node_through_the_entry_point(name):
    tape = Tape()
    with tape.no_grad():
        _, out = _apply(name, tape)
    assert isinstance(out, np.ndarray) and not tape._ops
    leaves, out = _apply(name, tape)
    assert isinstance(out, DiffArray) and len(tape._ops) == 1
    if len(leaves) == 1:
        return
    # A plain first operand does not hide the later leaves' tape, gets no
    # adjoint, and leaves theirs as they are when every operand is a leaf.
    tape.backward(oracles.sum_all(out))
    want = [leaf.grad.copy() for leaf in leaves[1:]]
    tape = Tape()
    operands, out = _apply(name, tape, plain_first=True)
    assert isinstance(out, DiffArray) and len(tape._ops) == 1
    first = operands[0].copy()
    tape.backward(oracles.sum_all(out))
    assert np.array_equal(operands[0], first)
    for leaf, grad in zip(operands[1:], want):
        assert np.array_equal(leaf.grad, grad)


def test_leaves_are_views_into_the_flat_buffers_in_registration_order():
    tape = Tape()
    shapes = [(2, 3), (), (4,), (1, 1)]
    leaves = []
    for i, shape in enumerate(shapes):
        leaves.append(tape.leaf(np.full(shape, float(i + 1))))
        leaves[-1].grad[...] = -(i + 1.0)
    # each later leaf call grew the buffers; the earlier leaves kept
    # their values and adjoints and were re-pointed at the new buffers
    start = 0
    for i, (leaf, shape) in enumerate(zip(leaves, shapes)):
        end = start + leaf.value.size
        assert leaf.shape == shape and leaf.grad.shape == shape
        assert np.shares_memory(leaf.value, tape.values[start:end])
        assert np.shares_memory(leaf.grad, tape.grads[start:end])
        assert np.all(tape.values[start:end] == i + 1.0)
        assert np.all(tape.grads[start:end] == -(i + 1.0))
        start = end
    assert tape.values.size == tape.grads.size == start == 12
    # writes through a leaf land in the buffer, and the other way round
    leaves[2].value[1] = 9.0
    tape.grads[6] = 7.0
    assert tape.values[8] == 9.0 and leaves[1].grad == 7.0


def test_tape_params_are_the_named_leaves_in_registration_order():
    tape = Tape()
    b = tape.leaf(np.zeros(2), name="b")
    tape.leaf(np.ones(3))
    a = tape.leaf(np.ones(1), name="a")
    dc.add(a, 1.0)
    assert list(tape.params.items()) == [("b", b), ("a", a)]


def test_grad_check_passes_on_smooth_function():
    tape = Tape()
    x = tape.leaf(np.array([0.4, -1.2, 2.0]), name="x")
    loss = lambda: dc.mean_all(dc.mul(dc.tanh(x), x))
    report = grad_check(loss)
    assert report.passed
    assert report.max_rel_error < 1e-6
    assert "PASS" in report.summary()


def test_grad_check_restores_values_bit_exactly():
    tape = Tape()
    values = np.array([0.1, 0.2, 0.30000000000000004])
    x = tape.leaf(values.copy(), name="x")
    loss = lambda: oracles.sum_all(dc.mul(x, x))
    grad_check(loss)
    np.testing.assert_array_equal(x.value, values)


def test_grad_check_detects_a_wrong_gradient():
    # An f that changes between the analytic pass and the numeric pass
    # stands in for a primitive with a broken backward rule.
    tape = Tape()
    x = tape.leaf(np.array([1.0, 2.0]), name="x")
    calls = [0]

    def inconsistent():
        calls[0] += 1
        scale = 1.0 if calls[0] == 1 else 3.0
        return oracles.sum_all(dc.mul(x, scale * x.value))

    report = grad_check(inconsistent)
    assert not report.passed
    assert report.worst_parameter == "x"


@pytest.mark.parametrize("where", ["numeric", "analytic", "everywhere"])
def test_grad_check_fails_a_nan_gradient(where):
    tape = Tape()
    y = tape.leaf(np.array([0.5, -1.5]), name="y")
    poisoned = {"numeric": (False,), "analytic": (True,),
                "everywhere": (True, False)}[where]

    def loss():
        # the analytic pass records; the reruns run under no_grad
        value = dc.mean_all(dc.mul(y, y))
        return dc.mul(value, np.nan) if tape.recording in poisoned else value

    report = grad_check(loss)
    assert report.per_parameter == {"y": math.inf}
    assert not report.passed
    assert "FAIL" in report.summary()


def test_grad_check_restores_a_parameter_when_the_loss_raises():
    tape = Tape()
    z = tape.leaf(np.array([1.0, 2.0]), name="z")
    before = z.value.tobytes()
    calls = [0]

    def loss():
        calls[0] += 1
        if calls[0] == 2:
            raise FloatingPointError("the first rerun fails")
        return oracles.sum_all(dc.mul(z, z))

    with pytest.raises(FloatingPointError):
        grad_check(loss)
    assert z.value.tobytes() == before


def test_grad_check_wants_a_loss_recorded_on_named_leaves():
    tape = Tape()
    w = tape.leaf(np.array([1.0, 2.0]))
    unnamed = lambda: oracles.sum_all(dc.mul(w, 2.0))
    for loss, why in [(unnamed, "has no named leaf"),
                      (lambda: np.float64(1.0), "records on no tape"),
                      (lambda: np.zeros(()), "records on no tape")]:
        with pytest.raises(ValidationError, match=why):
            grad_check(loss)


# leaf shapes whose sizes sit on the rerun chunk boundaries (0-d, 1, 63,
# 64, 65 and 130 elements), and shapes whose first dim is a copy count
# that the others produce (2, 4, 126, 128).
CHUNK_SHAPES = [(), (1,), (7, 9), (8, 8), (5, 13), (10, 13),
                (2, 5), (4, 3), (126,), (128, 1)]


@settings(max_examples=20, deadline=None)
@given(st.lists(st.sampled_from(CHUNK_SHAPES), min_size=1, max_size=4),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_grad_check_reruns_once_per_chunk_and_never_writes_the_tape(shapes, seed):
    tape = Tape()
    rng = Xoshiro256(seed)
    leaves = [tape.leaf(rng.uniforms(shape, -1.0, 1.0), name=f"p{i}")
              for i, shape in enumerate(shapes)]
    before = tape.values.tobytes()
    unchanged = []

    def loss():
        unchanged.append(tape.values.tobytes() == before)
        total = dc.mean_all(dc.mul(dc.tanh(leaves[0]), leaves[0]))
        for leaf in leaves[1:]:
            total = dc.add(total, dc.mean_all(dc.mul(dc.sigmoid(leaf), leaf)))
        return dc.mul(total, 1000.0)

    report = grad_check(loss)
    # the analytic pass, then one rerun per chunk of at most 64 elements
    assert len(unchanged) == 1 + sum(math.ceil(leaf.value.size / 64)
                                     for leaf in leaves)
    assert all(unchanged)
    assert tape.values.tobytes() == before
    for leaf in leaves:
        assert np.shares_memory(leaf.value, tape.values)
    # the same figures as perturbing one element per pass
    assert report.per_parameter == oracles.unstaged_grad_check(loss, tape.params)


def test_grad_check_reads_copies_only_from_values_the_leaf_feeds():
    # a's 4 rows are as many as the copies of b's last 2-element chunk;
    # they must not be read as copies while b is perturbed
    tape = Tape()
    rng = Xoshiro256(83)
    a = tape.leaf(rng.uniforms((4, 3), -1.0, 1.0), name="a")
    b = tape.leaf(rng.uniforms((130,), -1.0, 1.0), name="b")

    def loss():
        total = dc.add(dc.mean_all(dc.tanh(a)), dc.mean_all(dc.mul(b, b)))
        return dc.mul(total, 1000.0)

    report = grad_check(loss)
    assert report.passed, report.summary()
    assert report.per_parameter == oracles.unstaged_grad_check(loss, tape.params)


def test_grad_check_meets_a_per_copy_scalar_with_data_copy_by_copy():
    tape = Tape()
    rng = Xoshiro256(89)
    b = tape.leaf(rng.uniforms((2,), -1.0, 1.0), name="b")  # 2 elements: 4 copies
    x = rng.uniforms((3, 4), -1.0, 1.0)

    def loss():
        scale = dc.mean_all(dc.mul(b, b))  # one scalar per copy
        return dc.mul(dc.mean_all(dc.mul(scale, x)), 1000.0)

    report = grad_check(loss)
    assert report.passed, report.summary()
    assert report.per_parameter == oracles.unstaged_grad_check(loss, tape.params)


@pytest.mark.parametrize("name", PRIMITIVES)
def test_every_primitive_carries_copies_through_copy_by_copy(name):
    # Inside a grad_check rerun a result computed from a copied operand
    # is copied too, and its copy k is the result of that operand's copy
    # k; a numpy call that dropped the copy type would make a later
    # reduction fold every copy into one scalar.
    rng = np.random.default_rng(73)
    values = [rng.uniform(-1.0, 1.0, size=shape) for shape in PRIMITIVE_OPERANDS[name]]
    tape = Tape()
    for i, value in enumerate(values):
        copies = np.stack([value, value + rng.uniform(-0.1, 0.1, size=value.shape)])
        operands = [tape.leaf(v) for v in values]
        operands[i].value = copies.view(dc._Copies)
        with tape.no_grad():
            out = getattr(dc, name)(*operands, *EXTRA_ARGS.get(name, ()))
            assert isinstance(out, dc._Copies) and len(out) == 2, i
            for k in range(2):
                operands[i].value = copies[k]
                want = getattr(dc, name)(*operands, *EXTRA_ARGS.get(name, ()))
                np.testing.assert_allclose(out[k], want, rtol=0, atol=1e-12,
                                           err_msg=f"operand {i}, copy {k}")


def test_only_diffcore_names_the_copy_protocol():
    # outside diffcore, copies are seen only through dc.core_shape
    for path in sorted(Path(dc.__file__).parent.glob("*.py")):
        if path.name != "diffcore.py":
            assert not re.search(r"\b(_core|_Copies|_COPIES)\b",
                                 path.read_text()), path.name


@pytest.mark.parametrize("returned", [np.zeros(3), np.zeros(7), np.zeros((6, 1)),
                                      "elements"],
                         ids=["short", "long", "column", "elements"])
def test_grad_check_wants_one_loss_per_copy(returned):
    tape = Tape()
    x = tape.leaf(np.array([[0.5, -1.0, 2.0]]), name="x")  # 3 elements: 6 copies

    def loss():
        # the analytic pass records; the reruns run under no_grad
        if tape.recording:
            return oracles.sum_all(dc.mul(x, x))
        return dc.mul(x, x) if isinstance(returned, str) else returned

    with pytest.raises(ValidationError, match="not one loss per copy"):
        grad_check(loss)
    assert np.shares_memory(x.value, tape.values)


def test_a_leading_extra_axis_is_refused_outside_grad_check():
    tape = Tape()
    rng = Xoshiro256(59)

    def extra(v):
        return np.stack([dc._value(v)] * 2)

    x, w, b = _affine_inputs(tape, rng)[0]
    with pytest.raises(DimensionError, match="add"):
        dc.add(extra(x), x)
    with pytest.raises(DimensionError, match="affine"):
        dc.affine(extra(x), w, b)
    with pytest.raises(DimensionError, match="affine"):
        dc.affine(x, w, extra(b))
    seq = _sequence_inputs(tape, rng)[0]
    with pytest.raises(DimensionError, match="gru_sequence expects"):
        dc.gru_sequence(extra(seq[0]), *seq[1:])
    with pytest.raises(DimensionError, match="gru_sequence weights"):
        dc.gru_sequence(*seq[:2], extra(seq[2]), seq[3])
    with pytest.raises(DimensionError, match="gru_sequence weights"):
        dc.gru_sequence(*seq[:3], extra(seq[3]))
    dec = _decoder_inputs(tape, rng, True)[0]
    with pytest.raises(DimensionError, match=re.escape(
            "got shapes (2, 3, 4), (3, 4), (3,) and steps 3")):
        dc.gru_decoder(extra(dec[0]), *dec[1:])
    with pytest.raises(DimensionError, match=re.escape(
            "gru_decoder ego_x must be [9 x 3] for h0 (3, 4), state_w (3, 4) and "
            "3 steps, got shape (2, 9, 3)")):
        dc.gru_decoder(dec[0], extra(dec[1]), *dec[2:])
    target = rng.uniforms((3, 2), -1.0, 1.0)
    with pytest.raises(DimensionError, match="sub: shapes"):
        mse_loss(extra(target), target)
    # the reductions still sum every element into one 0-d scalar
    for reduce, n in ((oracles.sum_all, 1), (dc.mean_all, 24)):
        out = reduce(tape.leaf(extra(x)))
        assert out.shape == () and out.value == extra(x).sum() / n
        with tape.no_grad():
            assert reduce(extra(x)).shape == ()


@pytest.mark.parametrize("label", ["affine", "gru_step"])
def test_grad_check_through_the_unfused_primitives(label):
    # the references chain matmul, transpose, tile_rows and concat_last
    _, reference, build = FUSED[label]
    tape = Tape()
    rng = Xoshiro256(61)
    args, leaves = build(tape, rng)
    weights = rng.uniforms(reference(*args).shape, -1.0, 1.0)
    tape.reset()
    loss = lambda: dc.mul(_weighted(reference(*args), weights), 1000.0)
    params = {leaf.name: leaf for leaf in leaves}
    report = grad_check(loss)
    assert report.passed, report.summary()
    assert report.per_parameter == oracles.unstaged_grad_check(loss, params)


def test_grad_check_through_a_matrix_vector_product():
    tape = Tape()
    rng = Xoshiro256(67)
    m = tape.leaf(rng.uniforms((3, 4), -1.0, 1.0), name="m")
    v = tape.leaf(rng.uniforms(4, -1.0, 1.0), name="v")
    loss = lambda: dc.mul(oracles.sum_all(dc.tanh(dc.matmul(m, v))), 1000.0)
    report = grad_check(loss)
    assert report.passed, report.summary()
    want = oracles.unstaged_grad_check(loss, tape.params)
    for name, err in report.per_parameter.items():
        assert err == pytest.approx(want[name], rel=0, abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(min_value=-3.0, max_value=3.0,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=8))
def test_gradient_of_composite_matches_finite_differences(values):
    arr = np.asarray(values, dtype=np.float64)
    tape = Tape()
    x = tape.leaf(arr.copy(), name="x")
    loss = lambda: dc.mean_all(dc.mul(dc.tanh(x), dc.sigmoid(x)))
    report = grad_check(loss)
    assert report.passed


def _leaves(tape, rng, parts):
    return [tape.leaf(rng.uniforms(shape, -1.0, 1.0), name=name)
            for name, shape in parts]


def _gru_parts(n_in, hidden):
    return [("weight", (3 * hidden, n_in + hidden)), ("bias", (3 * hidden,))]


# Each builder returns a kernel's call arguments and the leaves among them.

def _affine_inputs(tape, rng, rows=3, n_in=4, n_out=2):
    leaves = _leaves(tape, rng, [("x", (rows, n_in)), ("w", (n_out, n_in)),
                                 ("b", (n_out,))])
    return leaves, leaves


def _gru_inputs(tape, rng, rows=3, n_in=3, hidden=4):
    """x, h, the gate weight and the gate bias."""
    leaves = _leaves(tape, rng, [("x", (rows, n_in)), ("h", (rows, hidden))]
                     + _gru_parts(n_in, hidden))
    return leaves, leaves


def _sequence_inputs(tape, rng, batch=3, steps=3, n_in=3, hidden=4):
    """Three sequences of three steps from a nonzero h0."""
    leaves = _leaves(tape, rng, [("xs", (batch * steps, n_in)),
                                 ("h0", (batch, hidden))]
                     + _gru_parts(n_in, hidden))
    return leaves, leaves


def _decoder_inputs(tape, rng, with_ego, batch=3, steps=3, embed=3, hidden=4):
    """h0, the embedded ego rows or None, the state embed weight and bias,
    the gate weight and bias, and the step count."""
    h0, state_w, state_b = _leaves(tape, rng, [
        ("h0", (batch, hidden)), ("state_w", (embed, hidden)),
        ("state_b", (embed,))])
    ego_x = None
    if with_ego:
        (ego_x,) = _leaves(tape, rng, [("ego_x", (batch * steps, embed))])
    gates = _leaves(tape, rng, _gru_parts(embed, hidden))
    args = [h0, ego_x, state_w, state_b, *gates, steps]
    return args, [a for a in args if isinstance(a, DiffArray)]


# The references count rows from the end: inside grad_check a value may
# carry a leading copy axis.

def _affine_reference(x, w, b):
    return dc.add(dc.matmul(x, dc.transpose(w)), dc.tile_rows(b, x.shape[-2]))


def _gru_reference(x, h, w, b):
    rows, hidden = x.shape[-2], h.shape[-1]
    blocks = [(Ellipsis, slice(k * hidden, (k + 1) * hidden)) for k in range(3)]
    wz, wr, wc = (oracles.take(w, block + (slice(None),)) for block in blocks)
    bz, br, bc = (oracles.take(b, block) for block in blocks)
    xh = dc.concat_last(x, h)
    z = dc.sigmoid(dc.add(dc.matmul(xh, dc.transpose(wz)), dc.tile_rows(bz, rows)))
    r = dc.sigmoid(dc.add(dc.matmul(xh, dc.transpose(wr)), dc.tile_rows(br, rows)))
    xrh = dc.concat_last(x, dc.mul(r, h))
    c = dc.tanh(dc.add(dc.matmul(xrh, dc.transpose(wc)), dc.tile_rows(bc, rows)))
    return dc.add(dc.mul(dc.sub(1.0, z), h), dc.mul(z, c))


# (kernel with a closed-form backward, its reference chain, input builder).
# `gru_step` is the per-step oracle the GRU kernels are held to, so its
# own closed form is checked against the unfused primitives here too.
FUSED = {
    "affine": (dc.affine, _affine_reference, _affine_inputs),
    "gru_step": (oracles.gru_step, _gru_reference, _gru_inputs),
    "gru_sequence": (dc.gru_sequence, oracles.gru_sequence_chain,
                     _sequence_inputs),
    "gru_decoder": (dc.gru_decoder, oracles.gru_decoder_chain,
                    lambda tape, rng, **shape: _decoder_inputs(tape, rng, False,
                                                               **shape)),
    "gru_decoder_ego": (dc.gru_decoder, oracles.gru_decoder_chain,
                        lambda tape, rng, **shape: _decoder_inputs(tape, rng, True,
                                                                   **shape)),
}


def _assert_matches_finite_differences(fused, tape, args, rng):
    # The loss is scaled so that adjoints are well above 1, where
    # grad_check's 1e-4 tolerance acts as a relative one.
    weights = rng.uniforms(fused(*args).shape, -1.0, 1.0)
    tape.reset()
    loss = lambda: dc.mul(_weighted(fused(*args), weights), 1000.0)
    report = grad_check(loss)
    assert report.passed, report.summary()
    assert report.max_rel_error < 1e-4


def _assert_matches_primitive_chain(label, fused, reference, tape, args, leaves, rng):
    weights = rng.uniforms(fused(*args).shape, -1.0, 1.0)
    results = []
    for op in (fused, reference):
        tape.reset()
        out = op(*args)
        tape.backward(_weighted(out, weights))
        results.append((out.value, [leaf.grad.copy() for leaf in leaves]))
    (fused_out, fused_grads), (ref_out, ref_grads) = results
    np.testing.assert_allclose(fused_out, ref_out, rtol=0, atol=1e-12)
    for leaf, got, want in zip(leaves, fused_grads, ref_grads):
        assert np.any(want != 0.0), f"{label}: {leaf.name} gets no adjoint"
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12,
                                   err_msg=f"{label} adjoint of {leaf.name}")


@pytest.mark.parametrize("label", FUSED)
def test_fused_kernels_match_finite_differences(label):
    fused, _, build = FUSED[label]
    tape = Tape()
    rng = Xoshiro256(31)
    args, _ = build(tape, rng)
    _assert_matches_finite_differences(fused, tape, args, rng)


@pytest.mark.parametrize("label", FUSED)
def test_fused_kernels_match_primitive_chain(label):
    fused, reference, build = FUSED[label]
    tape = Tape()
    rng = Xoshiro256(37)
    args, leaves = build(tape, rng)
    _assert_matches_primitive_chain(label, fused, reference, tape, args, leaves, rng)


# The GRU kernels, and the edges of their step-major loops: one sample,
# one step.  At batch 1 the decoder's state embed has 3 relu units; this
# seed keeps one of them live, so the state embed gets an adjoint to
# compare.
GRU_KERNELS = ["gru_sequence", "gru_decoder", "gru_decoder_ego"]
EDGE_SEED = 41


@pytest.mark.parametrize("batch, steps", [(1, 3), (3, 1), (1, 1)])
@pytest.mark.parametrize("label", GRU_KERNELS)
def test_gru_kernels_match_finite_differences_at_the_edges(label, batch, steps):
    fused, _, build = FUSED[label]
    tape = Tape()
    rng = Xoshiro256(EDGE_SEED)
    args, _ = build(tape, rng, batch=batch, steps=steps)
    _assert_matches_finite_differences(fused, tape, args, rng)


@pytest.mark.parametrize("batch, steps", [(1, 3), (3, 1), (1, 1)])
@pytest.mark.parametrize("label", GRU_KERNELS)
def test_gru_kernels_match_primitive_chain_at_the_edges(label, batch, steps):
    fused, reference, build = FUSED[label]
    tape = Tape()
    rng = Xoshiro256(EDGE_SEED)
    args, leaves = build(tape, rng, batch=batch, steps=steps)
    _assert_matches_primitive_chain(label, fused, reference, tape, args, leaves, rng)
    # a second backward of the same recording adds the same adjoints
    # again: no backward writes into the records it reads
    weights = rng.uniforms(fused(*args).shape, -1.0, 1.0)
    tape.reset()
    loss = _weighted(fused(*args), weights)
    tape.backward(loss)
    once = tape.grads.copy()
    tape.backward(loss)
    np.testing.assert_array_equal(tape.grads, 2.0 * once)


@pytest.mark.parametrize("label", GRU_KERNELS)
def test_gru_kernels_read_gate_blocks_as_views_of_the_leaves(label, monkeypatch):
    # a per-call copy of the gate weights or bias would fail here
    fused, _, build = FUSED[label]
    tape = Tape()
    args, leaves = build(tape, Xoshiro256(97))
    w, b = (leaf for leaf in leaves if leaf.name in ("weight", "bias"))
    calls = {}
    for name in ("_gru_operands", "_gru_forward", "_gru_bptt"):
        def spy(*operands, original=getattr(dc, name), name=name, **options):
            calls.setdefault(name, []).append(operands)
            out = original(*operands, **options)
            if name == "_gru_operands":
                calls["blocks"] = out[1][:4]
            return out
        monkeypatch.setattr(dc, name, spy)
    tape.backward(oracles.sum_all(fused(*args)))
    w_x, w_zr, w_c, bias = calls["blocks"]
    hidden = w.shape[0] // 3
    assert w_x.shape == (3 * hidden, w.shape[1] - hidden)
    assert w_zr.shape == (2 * hidden, hidden) and w_c.shape == (hidden, hidden)
    # one gate forward per step, one backpropagation through all of them
    assert len(calls["_gru_forward"]) == 3 and len(calls["_gru_bptt"]) == 1
    views = [w_x, w_zr, w_c]
    views += [block for call in calls["_gru_forward"] for block in call[2:4]]
    views += [block for call in calls["_gru_bptt"] for block in call[4:6]]
    assert all(np.shares_memory(view, w.value) for view in views)
    assert np.shares_memory(bias, b.value)
    # the adjoints were added in place, into the tape's flat buffer
    assert np.shares_memory(w.grad, tape.grads) and np.any(w.grad != 0.0)
    assert np.shares_memory(b.grad, tape.grads) and np.any(b.grad != 0.0)


@pytest.mark.parametrize("label", GRU_KERNELS)
def test_gru_kernels_keep_no_record_under_no_grad(label, monkeypatch):
    # under no_grad a kernel returns the bare array and never reaches the
    # recording entry point, so it builds no backward and keeps no record
    fused, _, build = FUSED[label]
    tape = Tape()
    args, _ = build(tape, Xoshiro256(97))
    recorded = fused(*args).value
    tape.reset()

    def refuse(*_):
        raise AssertionError("a kernel under no_grad reached _emit")

    monkeypatch.setattr(dc, "_emit", refuse)
    with tape.no_grad():
        out = fused(*args)
    assert type(out) is np.ndarray and not tape._ops
    assert out.tobytes() == recorded.tobytes()


@pytest.mark.parametrize("label", GRU_KERNELS)
def test_gru_kernels_stay_bounded_at_extreme_pre_activations(label):
    # inputs and weights scaled by 1e3 drive every gate deep into
    # saturation, where an unguarded exp overflows; a RuntimeWarning fails
    # the test, and the states of a GRU started in [-1, 1] stay there
    fused, _, build = FUSED[label]
    args, _ = build(Tape(), Xoshiro256(59))
    scaled = [a if not isinstance(a, DiffArray) else
              a.value if a.name == "h0" else a.value * 1e3 for a in args]
    out = fused(*scaled)
    assert np.all(np.isfinite(out)) and np.all(np.abs(out) <= 1.0)


def test_fused_kernels_reject_mismatched_shapes():
    tape = Tape()
    rng = Xoshiro256(41)
    x, w, b = _affine_inputs(tape, rng)[0]
    with pytest.raises(DimensionError, match="affine"):
        dc.affine(x.value[0], w, b)
    with pytest.raises(DimensionError, match="affine"):
        dc.affine(x, w, b.value[:1])
    seq = _sequence_inputs(tape, rng)[0]
    with pytest.raises(DimensionError, match="gru_sequence expects"):
        dc.gru_sequence(seq[0].value[:8], *seq[1:])
    with pytest.raises(DimensionError, match="gru_sequence expects"):
        dc.gru_sequence(seq[0].value[:2], *seq[1:])
    with pytest.raises(DimensionError, match="gru_sequence weights"):
        dc.gru_sequence(seq[0], seq[1], seq[2].value[:, 1:], seq[3])
    with pytest.raises(DimensionError, match="gru_sequence weights"):
        dc.gru_sequence(*seq[:2], seq[2].value[1:], seq[3])
    with pytest.raises(DimensionError, match="gru_sequence weights"):
        dc.gru_sequence(*seq[:3], seq[3].value[1:])
    dec = _decoder_inputs(tape, rng, True)[0]
    with pytest.raises(DimensionError, match=re.escape(
            "gru_decoder ego_x must be [9 x 3] for h0 (3, 4), state_w (3, 4) and "
            "3 steps, got shape (9, 2)")):
        dc.gru_decoder(dec[0], dec[1].value[:, :2], *dec[2:])
    with pytest.raises(DimensionError, match=re.escape(
            "gru_decoder expects h0 [B x hidden], state_w [embed x hidden], "
            "state_b [embed] and steps >= 1, got shapes (3, 4), (3, 3), (3,) "
            "and steps 3")):
        dc.gru_decoder(dec[0], dec[1], dec[2].value[:, 1:], *dec[3:])
    with pytest.raises(DimensionError, match=re.escape(
            "got shapes (3, 4), (3, 4), (2,) and steps 3")):
        dc.gru_decoder(*dec[:3], dec[3].value[1:], *dec[4:])
    with pytest.raises(DimensionError, match=re.escape(
            "got shapes (3, 4), (3, 4), (3,) and steps 0")):
        dc.gru_decoder(*dec[:-1], 0)
    with pytest.raises(DimensionError, match=re.escape(
            "gru_decoder weights (12, 6) and bias (12,)")):
        dc.gru_decoder(*dec[:4], dec[4].value[:, 1:], *dec[5:])
    with pytest.raises(DimensionError, match=re.escape(
            "gru_decoder weights (12, 7) and bias (11,)")):
        dc.gru_decoder(*dec[:5], dec[5].value[1:], dec[6])
    # an input of the wrong width is named as such, against the width the
    # weights take; the decoder's GRU input is the state embedding
    refusal = ("{} weights (12, 7) and bias (12,) take input width 3 and hidden "
               "width 4; input width 5 and hidden width 4 need [12 x 9] and [12]")
    with pytest.raises(DimensionError, match=re.escape(refusal.format("gru_sequence"))):
        dc.gru_sequence(np.zeros((9, 5)), *seq[1:])
    with pytest.raises(DimensionError, match=re.escape(refusal.format("gru_decoder"))):
        dc.gru_decoder(dec[0], None, np.zeros((5, 4)), np.zeros(5), *dec[4:])


@pytest.mark.parametrize("rows", [3, 6, 10])
def test_gru_decoder_refuses_ego_rows_that_are_not_batch_times_steps(rows):
    # one row per sample, a row short of each sample's steps, and one
    # row too many: each is named against the B*steps rows it needs
    tape = Tape()
    dec = _decoder_inputs(tape, Xoshiro256(53), False)[0]
    with pytest.raises(DimensionError, match=re.escape(
            f"gru_decoder ego_x must be [9 x 3] for h0 (3, 4), state_w (3, 4) "
            f"and 3 steps, got shape ({rows}, 3)")):
        dc.gru_decoder(dec[0], np.zeros((rows, 3)), *dec[2:])
    assert not tape._ops


def _oracle_batch_loss(model, data, rows):
    """`_batch_loss` through the per-step oracle chain: each encoder
    step and each ego step embeds its own rows, the head runs on each
    horizon's states, and the loss is the mean over the horizon of one
    mean squared error per step."""
    c = model.config

    def encode(embed, cell, series):
        h = np.zeros((rows, c.hidden))
        for t in range(c.tau):
            x = dc.relu(dc.affine(series[:, t], embed.weight, embed.bias))
            h = oracles.gru_step(x, h, *cell.params)
        return h

    h = encode(model.box_embed, model.box_encoder, data["boxes"])
    if c.uses_flow:
        h = dc.mul(dc.add(h, encode(model.flow_embed, model.flow_encoder,
                                    data["flows"])), 0.5)
    ego_x = None
    if c.uses_ego:
        ego_x = oracles.stack_steps([
            dc.relu(dc.affine(data["egos"][:, t], model.ego_embed.weight,
                              model.ego_embed.bias)) for t in range(c.delta)])
    states = oracles.gru_decoder_chain(
        model.fuse(h), ego_x, model.state_embed.weight, model.state_embed.bias,
        *model.decoder.params, c.delta)
    total = 0.0
    for i in range(c.delta):
        residual = dc.affine(oracles.take(states, slice(i, None, c.delta)),
                             model.head.weight, model.head.bias)
        diff = dc.sub(residual, data["targets"][:, i])
        total = dc.add(total, dc.mean_all(dc.mul(diff, diff)))
    return dc.mul(total, 1.0 / c.delta)


@pytest.mark.parametrize("variant", VARIANTS)
def test_model_kernels_match_per_step_oracle(variant):
    config = ModelConfig(variant=variant, hidden=5, embed=4, tau=4, delta=3,
                         pooled_dim=8)
    model = BoxForecaster(config, seed=5)
    rng = Xoshiro256(47)
    rows = 3
    data = {
        "boxes": rng.uniforms((rows, config.tau, 4), 0.1, 0.9),
        "flows": rng.uniforms((rows, config.tau, config.pooled_dim), -0.2, 0.2),
        "egos": rng.uniforms((rows, config.delta, 3), -0.5, 0.5),
        "targets": rng.uniforms((rows, config.delta, 4), -1.0, 1.0),
    }
    results = []
    for loss_fn in (lambda: _batch_loss(model, data, range(rows)),
                    lambda: _oracle_batch_loss(model, data, rows)):
        model.tape.reset()
        loss = loss_fn()
        model.tape.backward(loss)
        results.append((float(loss.value),
                        {n: p.grad.copy() for n, p in model.params.items()}))
    (loss, grads), (want_loss, want_grads) = results
    assert abs(loss - want_loss) < 1e-12
    for name, want in want_grads.items():
        np.testing.assert_allclose(grads[name], want, rtol=0, atol=1e-12,
                                   err_msg=name)


@pytest.mark.parametrize("variant", VARIANTS)
def test_batch_loss_gradients_match_finite_differences_at_batch_three(variant):
    # The bias adjoints of the fused kernels are row sums, so a wrong one
    # only shows with more than one row, as in gradient_check_model.
    # grad_check divides by max(1, |gradient|), so the loss is scaled up
    # until its adjoints are O(1) and the 1e-4 tolerance acts as relative.
    config = ModelConfig(variant=variant, hidden=4, embed=3, tau=3, delta=2,
                         pooled_dim=8)
    model = BoxForecaster(config, seed=3)
    rng = Xoshiro256(43)
    rows = 3
    data = {
        "boxes": rng.uniforms((rows, config.tau, 4), 0.1, 0.9),
        "flows": rng.uniforms((rows, config.tau, config.pooled_dim), -0.2, 0.2),
        "egos": rng.uniforms((rows, config.delta, 3), -0.5, 0.5),
        "targets": rng.uniforms((rows, config.delta, 4), -1.0, 1.0),
    }
    loss = lambda: dc.mul(_batch_loss(model, data, range(rows)), 1000.0)
    report = grad_check(loss)
    assert report.passed, report.summary()
    assert report.max_rel_error < 1e-4
