import re
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fvl import diffcore as dc
from fvl.diffcore import Tape, grad_check
from fvl.errors import DataFormatError, DimensionError, NumericFailure, ValidationError
from fvl.fvlmodel import BoxForecaster, ModelConfig
from fvl.nnkit import (Adam, GruCell, Projection, init_fan_in, load_params, mse_loss,
                       save_params)
from fvl.rng import Xoshiro256

import oracles


def test_projection_matches_manual_affine():
    tape = Tape()
    proj = Projection(tape, in_size=4, out_size=3, activation="none")
    init_fan_in(Xoshiro256(3), tape.params.values())
    x = np.array([[0.5, -1.0, 2.0, 0.25]])
    out = proj(tape.leaf(x))
    expected = x @ proj.weight.value.T + proj.bias.value
    np.testing.assert_allclose(out.value, expected, rtol=0, atol=1e-15)


def test_projection_batch_rows_match_single_calls():
    tape = Tape()
    proj = Projection(tape, in_size=4, out_size=3)
    init_fan_in(Xoshiro256(3), tape.params.values())
    batch = Xoshiro256(5).uniforms((6, 4), -2.0, 2.0)
    with tape.no_grad():
        stacked = proj(tape.leaf(batch))
        singles = [proj(tape.leaf(row[None])) for row in batch]
    np.testing.assert_allclose(stacked, np.vstack(singles), rtol=0, atol=1e-12)


def test_projection_relu_clamps_negative():
    tape = Tape()
    proj = Projection(tape, in_size=2, out_size=2, activation="relu")
    proj.weight.value[...] = [[1.0, 0.0], [-1.0, 0.0]]
    out = proj(tape.leaf(np.array([[3.0, 0.0]])))
    np.testing.assert_array_equal(out.value, [[3.0, 0.0]])


def test_gru_zero_weights_halve_the_hidden_state():
    # All-zero weights, as a cell registers them: update gate 0.5,
    # candidate tanh(0) = 0, so the next hidden state is exactly half the
    # previous one.
    tape = Tape()
    cell = GruCell(tape, input_size=3, hidden_size=4)
    assert not np.any(tape.values)
    h_prev = np.array([[1.0, -2.0, 0.5, 4.0]])
    out = cell.step(tape.leaf(np.array([[9.0, 9.0, 9.0]])), tape.leaf(h_prev))
    np.testing.assert_array_equal(out.value, 0.5 * h_prev)


def test_gru_batch_matches_per_row_steps():
    tape = Tape()
    cell = GruCell(tape, input_size=3, hidden_size=5)
    init_fan_in(Xoshiro256(21), tape.params.values())
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
    cell = GruCell(tape, input_size=3, hidden_size=4)
    init_fan_in(Xoshiro256(7), tape.params.values())
    rng = Xoshiro256(8)
    x = tape.leaf(rng.uniforms((1, 3), -1.0, 1.0), name="x")
    h = tape.leaf(rng.uniforms((1, 4), -1.0, 1.0), name="h")
    target = rng.uniforms((1, 4), -0.5, 0.5)
    # the tape's named leaves: the cell's six, then x and h
    loss = lambda: mse_loss(cell.step(x, h), target)
    report = grad_check(loss)
    assert report.passed, report.summary()
    assert report.max_rel_error < 1e-4


def test_gru_rejects_mismatched_widths():
    tape = Tape()
    cell = GruCell(tape, input_size=3, hidden_size=4)
    with pytest.raises(DimensionError, match="input width 3"):
        cell.step(tape.leaf(np.zeros((1, 5))), tape.leaf(np.zeros((1, 4))))
    with pytest.raises(DimensionError,
                       match="hidden width 4; input width 3 and hidden width 2"):
        cell.step(tape.leaf(np.zeros((1, 3))), tape.leaf(np.zeros((1, 2))))
    # two input rows for one state would be a two-step unroll, not a step
    with pytest.raises(DimensionError, match="one step"):
        cell.step(tape.leaf(np.zeros((2, 3))), tape.leaf(np.zeros((1, 4))))
    # the forecaster hands the cell's leaves to the sequence kernel
    with pytest.raises(DimensionError, match="input width 3"):
        dc.gru_sequence(tape.leaf(np.zeros((2, 5))), tape.leaf(np.zeros((1, 4))),
                        *cell.params)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.floats(min_value=0.1, max_value=5.0))
def test_gru_hidden_state_never_escapes_unit_envelope(seed, scale):
    # Each output component is a convex combination of the previous state
    # and a tanh value, so it can never exceed max(|h_prev|, 1).
    tape = Tape()
    cell = GruCell(tape, input_size=2, hidden_size=3)
    init_fan_in(Xoshiro256(seed), tape.params.values())
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


def test_adam_in_place_steps_equal_the_out_of_place_oracle_bit_for_bit():
    tape = BoxForecaster(ModelConfig(variant="xoe", hidden=32, embed=24), seed=3).tape
    opt = Adam(tape, lr=2e-3)
    rng = np.random.default_rng(11)
    values = tape.values.copy()
    m, v = np.zeros_like(values), np.zeros_like(values)
    for step in range(1, 51):
        # adjoints over seven orders of magnitude, some exactly zero
        tape.grads[...] = (rng.uniform(-1.0, 1.0, values.shape)
                           * 10.0 ** rng.integers(-6, 2, values.shape))
        tape.grads[rng.random(values.shape) < 0.05] = 0.0
        values, m, v = oracles.adam_step(values, tape.grads, m, v, step, lr=2e-3)
        opt.step()
        assert tape.values.tobytes() == values.tobytes(), step
        assert opt._m.tobytes() == m.tobytes() and opt._v.tobytes() == v.tobytes()
    # the update allocates no buffer of the tape's size, only scratch
    # such as the finiteness mask (one byte a value)
    tracemalloc.start()
    try:
        opt.step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < tape.values.nbytes


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
    with pytest.raises(DimensionError, match="sub: shapes"):
        mse_loss(tape.leaf(np.zeros(3)), np.zeros(4))


def test_initialization_is_a_pure_function_of_the_seed():
    tapes = []
    for _ in range(2):
        tapes.append(Tape())
        GruCell(tapes[-1], input_size=3, hidden_size=4)
        init_fan_in(Xoshiro256(42), tapes[-1].params.values())
    for name in tapes[0].params:
        np.testing.assert_array_equal(tapes[0].params[name].value,
                                      tapes[1].params[name].value)


def test_initialization_respects_fan_in_bound():
    tape = Tape()
    proj = Projection(tape, in_size=16, out_size=64)
    init_fan_in(Xoshiro256(1), tape.params.values())
    w = proj.weight.value
    assert w.shape == (64, 16)
    assert np.all(np.abs(w) <= 0.25)
    assert np.std(w) > 0.0
    np.testing.assert_array_equal(proj.bias.value, np.zeros(64))


def test_checkpoint_roundtrip_is_bit_exact(tmp_path):
    values = Xoshiro256(17).uniforms((16,), -1.0, 1.0)
    path = tmp_path / "model.fvlw"
    save_params(path, values, "any text, even é\n")
    header, loaded = load_params(path)
    assert header == "any text, even é\n"
    assert loaded.dtype == np.float64
    assert loaded.tobytes() == values.tobytes()
    # the whole layout: prefix, header, the flat payload, then a CRC-32 of
    # every byte before it
    header_bytes = header.encode()
    body = (b"FVLW" + struct.pack("<II", 3, len(header_bytes)) + header_bytes
            + values.astype("<f8").tobytes())
    assert path.read_bytes() == body + struct.pack("<I", zlib.crc32(body))


def test_checkpoint_of_a_tape_is_its_value_buffer(tmp_path):
    tape = Tape()
    proj = Projection(tape, in_size=3, out_size=2)
    init_fan_in(Xoshiro256(2), tape.params.values())
    path = tmp_path / "proj.fvlw"
    save_params(path, tape.values, "")
    header, loaded = load_params(path)
    assert header == ""
    np.testing.assert_array_equal(loaded, np.concatenate(
        [proj.weight.value.ravel(), proj.bias.value]))


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.fvlw"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(DataFormatError, match="magic"):
        load_params(path)


def write_raw(path, version, header: bytes, payload: bytes) -> None:
    """A checkpoint with a valid CRC over any prefix, header and payload."""
    body = b"FVLW" + struct.pack("<II", version, len(header)) + header + payload
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))


def test_checkpoint_refuses_what_its_crc_cannot_see(tmp_path):
    path = tmp_path / "model.fvlw"
    for version, header, payload, message in (
            (2, b"", b"", "unsupported checkpoint version 2, expected 3; retrain"),
            (3, b"k=v\n", bytes(12), "leaves 12 payload bytes, not whole float64s"),
            (3, b"\xff\n", bytes(8), r"header is not UTF-8 .* \(at offset 12\)"),
            (3, b"", struct.pack("<2d", 1.0, np.inf),
             r"non-finite parameter value inf \(at offset 20\)")):
        write_raw(path, version, header, payload)
        with pytest.raises(DataFormatError, match=message):
            load_params(path)
    # a header length that runs past the CRC
    path.write_bytes(b"FVLW" + struct.pack("<II", 3, 99))
    body = path.read_bytes()
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    with pytest.raises(DataFormatError, match=re.escape(
            "header length 99 leaves -99 payload bytes, not whole float64s "
            "(at offset 8)")):
        load_params(path)


def test_checkpoint_rejects_truncation_and_trailing_bytes(tmp_path):
    path = tmp_path / "model.fvlw"
    save_params(path, np.arange(6.0), "k=v\n")
    blob = path.read_bytes()
    # every cut, from the prefix to the CRC's last byte (see also
    # test_fvlmodel for every single-byte change)
    for data in [blob[:cut] for cut in range(len(blob))] + [blob + b"xx", blob + b"\x00"]:
        path.write_bytes(data)
        with pytest.raises(DataFormatError, match=r"model.fvlw: .* \(at offset \d+\)"):
            load_params(path)
