import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fvl import diffcore as dc
from fvl import nnkit
from fvl.diffcore import Tape, grad_check
from fvl.errors import DataFormatError, DimensionError, NumericFailure, ValidationError
from fvl.nnkit import Adam, GruCell, Projection, load_params, mse_loss, save_params
from fvl.rng import Xoshiro256


def test_projection_matches_manual_affine():
    tape = Tape()
    proj = Projection(tape, Xoshiro256(3), in_size=4, out_size=3, activation="none")
    x = np.array([[0.5, -1.0, 2.0, 0.25]])
    out = proj(tape.leaf(x))
    expected = x @ proj.weight.value.T + proj.bias.value
    np.testing.assert_allclose(out.value, expected, rtol=0, atol=1e-15)


def test_projection_batch_rows_match_single_calls():
    tape = Tape()
    proj = Projection(tape, Xoshiro256(3), in_size=4, out_size=3)
    batch = Xoshiro256(5).uniforms((6, 4), -2.0, 2.0)
    with tape.no_grad():
        stacked = proj(tape.leaf(batch))
        singles = [proj(tape.leaf(row[None])) for row in batch]
    np.testing.assert_allclose(stacked, np.vstack(singles), rtol=0, atol=1e-12)


def test_projection_relu_clamps_negative():
    tape = Tape()
    proj = Projection(tape, Xoshiro256(3), in_size=2, out_size=2, activation="relu")
    proj.weight.value[...] = [[1.0, 0.0], [-1.0, 0.0]]
    out = proj(tape.leaf(np.array([[3.0, 0.0]])))
    np.testing.assert_array_equal(out.value, [[3.0, 0.0]])


def test_gru_zero_weights_halve_the_hidden_state():
    # All-zero weights: update gate 0.5, candidate tanh(0) = 0, so the
    # next hidden state is exactly half the previous one.
    tape = Tape()
    cell = GruCell(tape, Xoshiro256(0), input_size=3, hidden_size=4)
    for p in tape.params.values():
        p.value[...] = 0.0
    h_prev = np.array([[1.0, -2.0, 0.5, 4.0]])
    out = cell.step(tape.leaf(np.array([[9.0, 9.0, 9.0]])), tape.leaf(h_prev))
    np.testing.assert_array_equal(out.value, 0.5 * h_prev)


def test_gru_batch_matches_per_row_steps():
    tape = Tape()
    cell = GruCell(tape, Xoshiro256(21), input_size=3, hidden_size=5)
    rng = Xoshiro256(22)
    xs = rng.uniforms((4, 3), -1.5, 1.5)
    hs = rng.uniforms((4, 5), -1.0, 1.0)
    with tape.no_grad():
        batched = cell.step(tape.leaf(xs), tape.leaf(hs))
        singles = [cell.step(tape.leaf(x[None]), tape.leaf(h[None]))
                   for x, h in zip(xs, hs)]
    np.testing.assert_allclose(batched, np.vstack(singles), rtol=0, atol=1e-12)


def test_gru_step_gradients_match_finite_differences():
    tape = Tape()
    cell = GruCell(tape, Xoshiro256(7), input_size=3, hidden_size=4)
    rng = Xoshiro256(8)
    x = tape.leaf(rng.uniforms((1, 3), -1.0, 1.0), name="x")
    h = tape.leaf(rng.uniforms((1, 4), -1.0, 1.0), name="h")
    target = rng.uniforms((1, 4), -0.5, 0.5)
    # the tape's named leaves: the cell's six, then x and h
    report = grad_check(lambda: mse_loss(cell.step(x, h), target), tape.params)
    assert report.passed, report.summary()
    assert report.max_rel_error < 1e-4


def test_gru_rejects_mismatched_widths():
    tape = Tape()
    cell = GruCell(tape, Xoshiro256(1), input_size=3, hidden_size=4)
    with pytest.raises(DimensionError, match="input width 3"):
        cell.step(tape.leaf(np.zeros((1, 5))), tape.leaf(np.zeros((1, 4))))
    with pytest.raises(DimensionError):
        cell.step(tape.leaf(np.zeros((1, 3))), tape.leaf(np.zeros((1, 2))))
    # two input rows for one state would be a two-step unroll, not a step
    with pytest.raises(DimensionError, match="one step"):
        cell.step(tape.leaf(np.zeros((2, 3))), tape.leaf(np.zeros((1, 4))))
    with pytest.raises(DimensionError, match="input width 3"):
        cell.unroll(tape.leaf(np.zeros((2, 5))), tape.leaf(np.zeros((1, 4))))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.floats(min_value=0.1, max_value=5.0))
def test_gru_hidden_state_never_escapes_unit_envelope(seed, scale):
    # Each output component is a convex combination of the previous state
    # and a tanh value, so it can never exceed max(|h_prev|, 1).
    tape = Tape()
    cell = GruCell(tape, Xoshiro256(seed), input_size=2, hidden_size=3)
    rng = Xoshiro256(seed ^ 0xABCDEF)
    x = rng.uniforms((1, 2), -scale, scale)
    h = rng.uniforms((1, 3), -scale, scale)
    with tape.no_grad():
        out = cell.step(tape.leaf(x), tape.leaf(h))
    bound = np.maximum(np.abs(h), 1.0)
    assert np.all(np.abs(out) <= bound + 1e-12)


def test_adam_first_step_from_zero():
    tape = Tape()
    theta = tape.leaf(np.array([0.0]), name="theta")
    opt = Adam(tape, lr=5e-4)
    theta.grad[...] = 1.0
    opt.step()
    # lr * m_hat / (sqrt(v_hat) + eps) with m_hat = v_hat = 1 after one step
    assert theta.value[0] == pytest.approx(-4.99999995e-4, rel=0, abs=1e-12)


def test_adam_zero_gradients_leave_parameters_untouched():
    tape = Tape()
    p = tape.leaf(np.array([1.0, -2.0, 3.5]), name="p")
    before = p.value.copy()
    opt = Adam(tape)
    for _ in range(5):
        opt.step()
    np.testing.assert_array_equal(p.value, before)


def test_adam_treats_identical_parameters_identically():
    tape = Tape()
    a = tape.leaf(np.array([0.5, 0.5]), name="a")
    b = tape.leaf(np.array([0.5, 0.5]), name="b")
    opt = Adam(tape, lr=1e-2)
    for _ in range(10):
        a.grad[...] = [1.0, -0.3]
        b.grad[...] = [1.0, -0.3]
        opt.step()
        tape.reset()
    np.testing.assert_array_equal(a.value, b.value)


def test_adam_raises_on_non_finite_gradient():
    tape = Tape()
    p = tape.leaf(np.array([1.0]), name="w_out")
    p.grad[...] = np.nan
    with pytest.raises(NumericFailure, match="w_out"):
        Adam(tape).step()


def test_adam_names_the_non_finite_parameter_and_updates_nothing():
    tape = Tape()
    first = tape.leaf(np.array([1.0, 2.0]), name="first")
    second = tape.leaf(np.array([[3.0], [4.0]]), name="second")
    opt = Adam(tape, lr=0.1)
    first.grad[...] = 1.0
    second.grad[1, 0] = np.nan
    with pytest.raises(NumericFailure, match="'second'"):
        opt.step()
    np.testing.assert_array_equal(first.value, [1.0, 2.0])
    np.testing.assert_array_equal(second.value, [[3.0], [4.0]])


def test_adam_rejects_a_tape_that_grew_after_it_was_set_up():
    tape = Tape()
    tape.leaf(np.array([1.0]), name="a")
    opt = Adam(tape)
    tape.leaf(np.array([2.0, 3.0]), name="b")
    with pytest.raises(ValidationError, match="gained leaves"):
        opt.step()


def test_adam_matches_a_per_parameter_update_bit_for_bit():
    # The flat update runs the same elementwise IEEE operations as
    # updating each parameter on its own, so the results are identical.
    rng = Xoshiro256(31)
    tape = Tape()
    leaves = [tape.leaf(rng.uniforms(shape, -1.0, 1.0), name=f"p{i}")
              for i, shape in enumerate([(3, 4), (4,), (), (2, 1)])]
    want = [leaf.value.copy() for leaf in leaves]
    moments = [(np.zeros_like(w), np.zeros_like(w)) for w in want]
    opt = Adam(tape, lr=1e-2)
    for t in range(1, 6):
        for leaf in leaves:
            leaf.grad[...] = rng.uniforms(leaf.shape, -2.0, 2.0)
        for w, (m, v), leaf in zip(want, moments, leaves):
            g = leaf.grad
            m *= Adam.beta1
            m += (1.0 - Adam.beta1) * g
            v *= Adam.beta2
            v += (1.0 - Adam.beta2) * g * g
            m_hat = m / (1.0 - Adam.beta1 ** t)
            v_hat = v / (1.0 - Adam.beta2 ** t)
            w -= 1e-2 * m_hat / (np.sqrt(v_hat) + Adam.eps)
        opt.step()
        tape.reset()
    for leaf, w in zip(leaves, want):
        assert leaf.value.tobytes() == w.tobytes()


def test_adam_descends_a_quadratic():
    tape = Tape()
    x = tape.leaf(np.array([3.0]), name="x")
    opt = Adam(tape, lr=0.1)
    for _ in range(200):
        tape.reset()
        loss = mse_loss(dc.mul(x, x), np.array([0.0]))
        tape.backward(loss)
        opt.step()
    assert abs(x.value[0]) < 0.5


def test_mse_loss_values_and_gradient():
    tape = Tape()
    pred = tape.leaf(np.array([1.0, 1.0]))
    assert mse_loss(pred, np.array([1.0, 1.0])).value == 0.0
    tape.reset()
    assert mse_loss(pred, np.array([0.0, 0.0])).value == 1.0

    tape2 = Tape()
    p = tape2.leaf(np.array([2.0]))
    tape2.backward(mse_loss(p, np.array([0.0])))
    np.testing.assert_array_equal(p.grad, [4.0])


def test_mse_loss_rejects_shape_mismatch():
    tape = Tape()
    with pytest.raises(DimensionError, match="shapes differ"):
        mse_loss(tape.leaf(np.zeros(3)), np.zeros(4))


def test_initialization_is_a_pure_function_of_the_seed():
    tapes = []
    for _ in range(2):
        tapes.append(Tape())
        GruCell(tapes[-1], Xoshiro256(42), input_size=3, hidden_size=4)
    for name in tapes[0].params:
        np.testing.assert_array_equal(tapes[0].params[name].value,
                                      tapes[1].params[name].value)


def test_initialization_respects_fan_in_bound():
    w = nnkit.uniform_fan_in(Xoshiro256(1), 64, 16)
    assert w.shape == (64, 16)
    assert np.all(np.abs(w) <= 0.25)
    assert np.std(w) > 0.0


def test_checkpoint_roundtrip_is_bit_exact(tmp_path):
    rng = Xoshiro256(17)
    params = {
        "enc.weight": rng.uniforms((3, 4), -1.0, 1.0),
        "enc.bias": rng.uniforms((3,), -1.0, 1.0),
        "scale": np.asarray(rng.uniform(0.0, 1.0)),
    }
    path = tmp_path / "model.fvlw"
    save_params(path, params, "any text, even é\n")
    header, loaded = load_params(path)
    assert header == "any text, even é\n"
    assert list(loaded) == list(params)
    for name in params:
        assert loaded[name].dtype == np.float64
        assert loaded[name].shape == params[name].shape
        assert loaded[name].tobytes() == params[name].tobytes()
    # the whole layout: prefix, header, table, then one payload
    header_bytes = header.encode()
    table = b"".join(struct.pack(f"<H{len(name)}sB{arr.ndim}I", len(name),
                                 name.encode(), arr.ndim, *arr.shape)
                     for name, arr in params.items())
    assert path.read_bytes() == (
        b"FVLW" + struct.pack("<II", 2, len(header_bytes)) + header_bytes
        + struct.pack("<I", 3) + table
        + b"".join(arr.astype("<f8").tobytes() for arr in params.values()))


def test_checkpoint_accepts_diffarray_values(tmp_path):
    tape = Tape()
    proj = Projection(tape, Xoshiro256(2), in_size=3, out_size=2)
    path = tmp_path / "proj.fvlw"
    save_params(path, tape.params, "")
    header, loaded = load_params(path)
    assert header == ""
    np.testing.assert_array_equal(loaded["proj.weight"], proj.weight.value)


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.fvlw"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(DataFormatError, match="magic"):
        load_params(path)


def test_checkpoint_rejects_truncation_and_trailing_bytes(tmp_path):
    path = tmp_path / "model.fvlw"
    save_params(path, {"w": np.arange(6.0).reshape(2, 3)}, "k=v\n")
    blob = path.read_bytes()

    # every cut of the prefix, header and table, then one in the payload
    for cut in [*range(len(blob) - 48), len(blob) - 4]:
        path.write_bytes(blob[:cut])
        with pytest.raises(DataFormatError, match="offset"):
            load_params(path)

    path.write_bytes(blob + b"xx")
    with pytest.raises(DataFormatError,
                       match="payload of 50 bytes, the parameter table needs 48"):
        load_params(path)


def test_checkpoint_rejects_more_axes_than_numpy_allows(tmp_path):
    # a consistent table and payload whose one value has 65 axes of size 1
    path = tmp_path / "deep.fvlw"
    path.write_bytes(b"FVLW" + struct.pack("<IIIH", 2, 0, 1, 1) + b"w"
                     + struct.pack("<B65I", 65, *[1] * 65) + bytes(8))
    with pytest.raises(DataFormatError, match="parameter 'w': .*64"):
        load_params(path)
