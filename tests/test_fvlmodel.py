"""Forecaster behavior: stream wiring, determinism, training, checkpoints."""

import dataclasses
import gc
import math
import os
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fvl import cli
from fvl import diffcore as dc
from fvl import fvlmodel
from fvl.dataio import Sample, write_dataset
from fvl.errors import DataFormatError, NumericFailure, ValidationError
from fvl.flowfeat import PooledFlow
from fvl.fvlmodel import (
    VARIANTS,
    BoxForecaster,
    ModelConfig,
    Prediction,
    _batch_loss,
    _gradcheck_problem,
    _prepare,
    gradient_check_model,
    load_model,
    save_model,
    train_model,
)
from fvl.nnkit import load_params, save_params
from fvl.rng import Xoshiro256
from oracles import unstaged_grad_check

SMALL = dict(hidden=6, embed=5, tau=3, delta=2, pooled_dim=8)


def small_config(variant="xoe", **overrides):
    return ModelConfig(variant=variant, **{**SMALL, **overrides})


def zero_params(model):
    return {name: np.zeros_like(p.value) for name, p in model.params.items()}


def make_sample(rng, tau=3, delta=2, n=2, width=320, height=160, track=0):
    def box():
        return [rng.uniform(60.0, 260.0), rng.uniform(40.0, 120.0),
                rng.uniform(10.0, 60.0), rng.uniform(10.0, 60.0)]

    past = [box() for _ in range(tau)]
    future = [box() for _ in range(delta)]
    flow = [PooledFlow(values=rng.uniforms(2 * n * n, -3.0, 3.0), n=n)
            for _ in range(tau)]
    ego = [[rng.uniform(-0.2, 0.2), rng.uniform(0.0, 2.0), rng.uniform(-0.5, 0.5)]
           for _ in range(delta)]
    return Sample(track=track, past=past, flow=flow, future=future, ego=ego,
                  width=width, height=height)


def make_samples(seed, count, **kwargs):
    rng = Xoshiro256(seed)
    return [make_sample(rng, track=i, **kwargs) for i in range(count)]


def test_config_validation():
    cfg = ModelConfig(variant="XOE", **SMALL)
    assert cfg.variant == "xoe"
    assert cfg.uses_flow and cfg.uses_ego
    assert not ModelConfig(variant="x", **SMALL).uses_flow
    assert ModelConfig(variant="xe", **SMALL).uses_ego
    assert ModelConfig(variant="xo", **SMALL).uses_flow
    with pytest.raises(ValidationError, match="unknown variant"):
        ModelConfig(variant="q", **SMALL)
    with pytest.raises(ValidationError, match="tau must be an integer >= 2"):
        small_config(tau=1)
    with pytest.raises(ValidationError, match="delta must be a positive integer"):
        small_config(delta=0)
    with pytest.raises(ValidationError, match="hidden"):
        small_config(hidden=0)
    # (u, v) at each of n x n lattice points: 2 n^2 values, n >= 1
    for n in (1, 2, 3, 5):
        assert small_config(pooled_dim=2 * n * n).pooled_dim == 2 * n * n
    for bad in (1, 3, 4, 6, 9, 49):
        with pytest.raises(ValidationError, match="pooled_dim must be 2 n"):
            small_config("x", pooled_dim=bad)
    # sizes are ints, not bools; before, tau=2.5 trained and saved a
    # checkpoint that load_model refused, and hidden=True or embed=3.0
    # died on a bare TypeError when the model was built
    for name, value in [("tau", 2.5), ("tau", 3.0), ("delta", True), ("hidden", True),
                        ("embed", 3.0), ("pooled_dim", np.int64(8)), ("hidden", "6")]:
        with pytest.raises(ValidationError, match=re.escape(
                f"{name} must be "
                f"{'an integer >= 2' if name == 'tau' else 'a positive integer'}, "
                f"got {value!r}")):
            small_config("x", **{name: value})


def test_zero_parameters_give_zero_fused_state():
    # relu(0) embeddings and zero-weight GRUs keep every hidden state at
    # exactly zero, so the fused state is the zero vector, not noise.
    model = BoxForecaster(small_config("xo"), seed=1)
    model.load_values(zero_params(model))
    boxes = np.zeros((1, SMALL["tau"], 4))
    flows = np.zeros((1, SMALL["tau"], SMALL["pooled_dim"]))
    with model.tape.no_grad():
        fused = model.encode(boxes, flows)
    assert np.array_equal(np.asarray(fused), np.zeros((1, SMALL["hidden"])))


def test_zero_parameters_decode_to_anchor():
    model = BoxForecaster(small_config("xe"), seed=1)
    model.load_values(zero_params(model))
    anchor = np.array([0.4, 0.5, 0.1, 0.2])
    ego = np.zeros((1, SMALL["delta"], 3))
    with model.tape.no_grad():
        # a batch of one decodes to its delta residual rows
        residuals = model.decode_steps(np.zeros((1, SMALL["hidden"])), ego)
    assert residuals.shape == (SMALL["delta"], 4)
    pred = Prediction(anchor=anchor, residuals=residuals)
    assert np.array_equal(pred.residuals, np.zeros((SMALL["delta"], 4)))
    assert np.array_equal(pred.absolute, np.tile(anchor, (SMALL["delta"], 1)))
    scaled = pred.pixel_boxes(320.0, 160.0)
    assert np.array_equal(scaled, np.tile(anchor * [320, 160, 320, 160],
                                          (SMALL["delta"], 1)))


def test_prediction_residuals_recover_absolute():
    model = BoxForecaster(small_config(), seed=3)
    sample = make_samples(17, 1)[0]
    pred = model.predict(sample)
    assert np.array_equal(pred.absolute, pred.anchor + pred.residuals)
    scale = np.array([1.0 / 320, 1.0 / 160, 1.0 / 320, 1.0 / 160])
    assert np.array_equal(pred.anchor, sample.past[-1] * scale)
    assert pred.residuals.shape == (SMALL["delta"], 4)


def test_prediction_shape_validation():
    with pytest.raises(ValidationError, match="anchor"):
        Prediction(anchor=np.zeros(3), residuals=np.zeros((2, 4)))
    with pytest.raises(ValidationError, match=re.escape(
            "residuals must be [delta x 4], got (2, 3)")):
        Prediction(anchor=np.zeros(4), residuals=np.zeros((2, 3)))
    # absolute is derived, so no caller can hand in one that disagrees
    with pytest.raises(TypeError, match="absolute"):
        Prediction(anchor=np.zeros(4), residuals=np.zeros((2, 4)),
                   absolute=np.ones((2, 4)))


def test_predictions_are_read_only_and_equal_only_themselves():
    anchor, residuals = np.array([0.4, 0.5, 0.1, 0.2]), np.ones((2, 4))
    pred = Prediction(anchor=anchor, residuals=residuals)
    twin = Prediction(anchor=anchor, residuals=residuals)
    assert pred == pred and pred != twin and hash(pred) != hash(twin)
    # the arrays are copies, so writing the inputs changes nothing
    anchor[0] = residuals[0, 0] = 9.0
    assert pred.anchor[0] == 0.4 and pred.residuals[0, 0] == 1.0
    model = BoxForecaster(small_config(), seed=3)
    batch = model.predict_batch(make_samples(17, 2))
    for p in (pred, *batch):
        for name in ("anchor", "residuals", "absolute"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(p, name)[0] = 5.0
        assert np.array_equal(p.absolute, p.anchor + p.residuals)


def test_same_seed_predicts_identically():
    sample = make_samples(29, 1)[0]
    a = BoxForecaster(small_config(), seed=11).predict(sample)
    b = BoxForecaster(small_config(), seed=11).predict(sample)
    assert np.array_equal(a.residuals, b.residuals)
    assert np.array_equal(a.absolute, b.absolute)
    c = BoxForecaster(small_config(), seed=12).predict(sample)
    assert not np.array_equal(a.residuals, c.residuals)


@pytest.mark.parametrize("variant", ["x", "xe"])
@pytest.mark.parametrize("batch", [2, 3])
def test_first_horizon_matches_shorter_decoder(variant, batch):
    # The decoder is a plain unroll: cutting the horizon from 5 to 1 with
    # identical weights must leave the first residual bit-identical.  The
    # fused state is drawn at random, because an encoded one can be all
    # zero after the fuse relu, and then every residual is exactly 0.
    # Batch 1 is left out: with one row, numpy computes the head and ego
    # projections of the delta=1 decoder by a vector path that rounds
    # differently, by a few 1e-17.
    long_cfg = small_config(variant, delta=5)
    long_model = BoxForecaster(long_cfg, seed=2)
    short_model = BoxForecaster(dataclasses.replace(long_cfg, delta=1),
                                params=long_model.parameter_values())
    rng = Xoshiro256(8)
    fused = rng.uniforms((batch, SMALL["hidden"]), 0.1, 1.0)
    ego = rng.uniforms((batch, 5, 3), -0.4, 0.4) if variant == "xe" else None
    with long_model.tape.no_grad():
        long_steps = long_model.decode_steps(fused, ego)
    with short_model.tape.no_grad():
        short_steps = short_model.decode_steps(
            fused, None if ego is None else ego[:, :1])
    # residual rows: sample b's horizon t is row b*delta + t
    assert long_steps.shape == (batch * 5, 4) and short_steps.shape == (batch, 4)
    assert np.all(long_steps != 0.0)
    assert np.array_equal(long_steps[::5], short_steps)


def test_future_ego_cannot_reach_earlier_horizons():
    cfg = small_config(delta=4)
    model = BoxForecaster(cfg, seed=5)
    rng = Xoshiro256(9)
    boxes = rng.uniforms((1, cfg.tau, 4), 0.1, 0.9)
    flows = rng.uniforms((1, cfg.tau, cfg.pooled_dim), -0.2, 0.2)
    ego = rng.uniforms((1, cfg.delta, 3), -0.4, 0.4)
    altered = ego.copy()
    altered[:, 2:] += 10.0  # horizons 3 and 4 only
    with model.tape.no_grad():
        fused = model.encode(boxes, flows)
        # a batch of one: row t is horizon t
        base = model.decode_steps(fused, ego)
        moved = model.decode_steps(fused, altered)
    assert base.shape == (cfg.delta, 4)
    assert np.array_equal(base[0], moved[0])
    assert np.array_equal(base[1], moved[1])
    assert not np.array_equal(base[2], moved[2])


def test_zero_flow_stream_halves_box_state():
    # With the flow stream zeroed out its hidden state stays exactly zero,
    # so the stream average hands fuse() half the box state.
    cfg = small_config("xo")
    model = BoxForecaster(cfg, seed=4)
    values = model.parameter_values()
    for name in list(values):
        if name.startswith("flow_"):
            values[name] = np.zeros_like(values[name])
    model.load_values(values)
    rng = Xoshiro256(6)
    boxes = rng.uniforms((1, cfg.tau, 4), 0.1, 0.9)
    flows = rng.uniforms((1, cfg.tau, cfg.pooled_dim), -0.5, 0.5)
    with model.tape.no_grad():
        fused = model.encode(boxes, flows)
        h = dc.gru_sequence(model.box_embed(boxes.reshape(cfg.tau, 4)),
                            np.zeros((1, cfg.hidden)), *model.box_encoder.params)
        halved = model.fuse(0.5 * h)
        unhalved = model.fuse(h)
    assert np.array_equal(np.asarray(fused), np.asarray(halved))
    assert not np.array_equal(np.asarray(fused), np.asarray(unhalved))


def test_streams_feed_matching_variants_only():
    sample = make_samples(31, 1)[0]
    shifted_flow = tuple(PooledFlow(values=f.values + 1.0, n=f.n)
                         for f in sample.flow)
    flow_moved = dataclasses.replace(sample, flow=shifted_flow)
    ego_moved = dataclasses.replace(sample, ego=sample.ego + [0.1, 1.0, 0.0])

    box_only = BoxForecaster(small_config("x"), seed=7)
    assert np.array_equal(box_only.predict(sample).residuals,
                          box_only.predict(flow_moved).residuals)
    assert np.array_equal(box_only.predict(sample).residuals,
                          box_only.predict(ego_moved).residuals)

    with_flow = BoxForecaster(small_config("xo"), seed=7)
    assert not np.array_equal(with_flow.predict(sample).residuals,
                              with_flow.predict(flow_moved).residuals)

    with_ego = BoxForecaster(small_config("xe"), seed=7)
    assert not np.array_equal(with_ego.predict(sample).residuals,
                              with_ego.predict(ego_moved).residuals)


def test_stream_argument_validation():
    rng = Xoshiro256(3)
    boxes = rng.uniforms((1, SMALL["tau"], 4), 0.1, 0.9)
    flows = rng.uniforms((1, SMALL["tau"], SMALL["pooled_dim"]), -0.2, 0.2)
    ego = rng.uniforms((1, SMALL["delta"], 3), -0.4, 0.4)

    with_flow = BoxForecaster(small_config("xo"), seed=1)
    with pytest.raises(ValidationError, match="pooled-flow"):
        with_flow.encode(boxes)
    box_only = BoxForecaster(small_config("x"), seed=1)
    with pytest.raises(ValidationError, match="does not take a flow"):
        box_only.encode(boxes, flows)
    with pytest.raises(ValidationError, match="past boxes"):
        box_only.encode(boxes[:, :2])

    with_ego = BoxForecaster(small_config("xe"), seed=1)
    with with_ego.tape.no_grad():
        fused = with_ego.encode(boxes)
        # decode_steps checks the ego rows, steps and width, and names
        # the shape it was given
        refusal = (f"variant 'xe' needs future ego features shaped [batch x "
                   f"{SMALL['delta']} x 3] matching the fused state, got ")
        with pytest.raises(ValidationError, match=re.escape(refusal + "none")):
            with_ego.decode_steps(fused)
        with pytest.raises(ValidationError, match=re.escape(
                refusal + f"(1, {SMALL['delta'] + 1}, 3)")):
            with_ego.decode_steps(fused, np.hstack([ego, ego[:, :1]]))
        with pytest.raises(ValidationError, match=re.escape(
                refusal + f"(1, {SMALL['delta']}, 4)")):
            with_ego.decode_steps(fused, np.dstack([ego, ego[..., :1]]))
        with pytest.raises(ValidationError, match=re.escape(
                refusal + f"(2, {SMALL['delta']}, 3)")):
            with_ego.decode_steps(fused, np.vstack([ego, ego]))
    with box_only.tape.no_grad():
        fused = box_only.encode(boxes)
        with pytest.raises(ValidationError, match="does not take ego"):
            box_only.decode_steps(fused, ego)

    sample = make_samples(41, 1)[0]
    wide = BoxForecaster(small_config(tau=4), seed=1)
    with pytest.raises(ValidationError, match="does not match"):
        wide.predict(sample)
    narrow = BoxForecaster(small_config(pooled_dim=18), seed=1)
    with pytest.raises(ValidationError, match="config expects 18"):
        narrow.predict(sample)


def test_batched_forward_matches_single():
    cfg = small_config()
    model = BoxForecaster(cfg, seed=19)
    rng = Xoshiro256(23)
    boxes = rng.uniforms((3, cfg.tau, 4), 0.1, 0.9)
    flows = rng.uniforms((3, cfg.tau, cfg.pooled_dim), -0.2, 0.2)
    ego = rng.uniforms((3, cfg.delta, 3), -0.4, 0.4)
    with model.tape.no_grad():
        batch_steps = model.decode_steps(model.encode(boxes, flows), ego)
        batch_steps = batch_steps.reshape(3, cfg.delta, 4)
        for row in range(3):
            steps = model.decode_steps(
                model.encode(boxes[row:row + 1], flows[row:row + 1]),
                ego[row:row + 1])
            for i in range(cfg.delta):
                np.testing.assert_allclose(batch_steps[row, i], steps[i],
                                           rtol=0.0, atol=1e-12)


def test_prepare_scales_each_row_by_its_own_dims_bit_for_bit(monkeypatch):
    # A broadcast bug across rows would not show at batch 1 or with equal
    # dims, so the batch mixes two image sizes.
    rng = Xoshiro256(44)
    samples = [make_sample(rng, track=i, width=w, height=h)
               for i, (w, h) in enumerate([(320, 160), (1280, 640),
                                           (1280, 640), (320, 160)])]
    # train_model adds the targets and the pixel futures, which only
    # training reads, to the `_prepare` output it holds
    prepared = []

    def keep(*args):
        prepared.append(_prepare(*args))
        return prepared[-1]

    monkeypatch.setattr(fvlmodel, "_prepare", keep)
    train_model(small_config(), samples, epochs=0)
    data = prepared[0]
    # inference builds none of them
    assert set(_prepare(small_config(), samples)) == {"boxes", "anchors", "flows",
                                                      "egos", "scales"}
    assert set(data) == {"boxes", "anchors", "targets", "flows", "egos",
                         "future_px", "scales"}
    for i, sample in enumerate(samples):
        sx, sy = 1.0 / sample.width, 1.0 / sample.height

        def model_units(box):
            cx, cy, w, h = box.tolist()
            return [cx * sx, cy * sy, w * sx, h * sy]

        anchor = model_units(sample.past[-1])
        assert data["boxes"][i].tolist() == [model_units(b) for b in sample.past]
        assert data["anchors"][i].tolist() == anchor
        assert data["targets"][i].tolist() == [
            [a - b for a, b in zip(model_units(f), anchor)] for f in sample.future]
        assert data["flows"][i].tolist() == [
            [v * (sx if k % 2 == 0 else sy) for k, v in enumerate(f.values.tolist())]
            for f in sample.flow]
        assert data["egos"][i].tolist() == sample.ego.tolist()
        assert data["future_px"][i].tolist() == sample.future.tolist()
        assert data["scales"][i].tolist() == [sample.width, sample.height] * 2
    with pytest.raises(ValidationError, match="sample 2: .*lattice"):
        _prepare(small_config(), samples[:2] + [make_sample(rng, n=3)])


def test_prepare_scales_flow_as_the_tiled_reciprocals_do():
    # the broadcast over [B x tau x n*n x 2] makes the products of a row of
    # reciprocals tiled across every (u, v) column pair, bit for bit
    rng = Xoshiro256(45)
    samples = [make_sample(rng, track=0, width=320, height=160),
               make_sample(rng, track=1, width=1280, height=640)]
    config = small_config()
    data = _prepare(config, samples)
    inverse = (1.0 / np.array([[s.width, s.height] * 2 for s in samples]))[:, None, :]
    tiled = (np.array([[f.values for f in s.flow] for s in samples])
             * np.tile(inverse[..., :2], config.pooled_dim // 2))
    assert data["flows"].shape == tiled.shape
    assert np.array_equal(data["flows"], tiled)


def test_predict_batch_matches_per_sample_predict():
    samples = make_samples(43, 5)
    for variant in VARIANTS:
        model = BoxForecaster(small_config(variant), seed=17)
        batch = model.predict_batch(samples)
        assert len(batch) == len(samples)
        for sample, pred in zip(samples, batch):
            single = model.predict(sample)
            assert np.array_equal(pred.anchor, single.anchor)
            np.testing.assert_allclose(pred.residuals, single.residuals,
                                       rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(pred.absolute, single.absolute,
                                       rtol=0.0, atol=1e-12)
    assert model.predict_batch([]) == []


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("variant", VARIANTS)
def test_recording_and_inference_compute_the_same_forward(variant, batch):
    # predict_batch runs the forward under no_grad, training records it;
    # the kernels' in-place and preallocated writes must not tell them apart
    config = small_config(variant)
    model = BoxForecaster(config, seed=29)
    samples = make_samples(47, batch)
    data = _prepare(config, samples)
    recorded = model.decode_steps(model.encode(data["boxes"], data["flows"]),
                                  data["egos"])
    assert isinstance(recorded, dc.DiffArray) and model.tape._ops
    predictions = model.predict_batch(samples)
    residuals = np.concatenate([p.residuals for p in predictions])
    assert residuals.shape == recorded.shape == (batch * config.delta, 4)
    assert residuals.tobytes() == recorded.value.tobytes()
    anchors = np.array([p.anchor for p in predictions])
    assert anchors.tobytes() == data["anchors"].tobytes()


@pytest.mark.parametrize("variant, nodes", [("x", 10), ("xe", 12), ("xo", 15),
                                            ("xoe", 17)])
def test_one_training_batch_records_a_fixed_number_of_nodes(variant, nodes):
    # x: box embed affine + relu, gru_sequence, fuse affine + relu,
    # gru_decoder, head affine and the loss's sub, mul and mean_all; the
    # ego embed adds an affine and a relu, the flow stream an affine, a
    # relu, a gru_sequence and the add and mul that average the streams
    model, data = _gradcheck_problem(small_config(variant), seed=7)
    loss = _batch_loss(model, data, range(3))
    assert len(model.tape._ops) == nodes
    assert model.tape._ops[-1][0] is loss


def test_gradients_match_finite_differences_for_every_variant():
    for variant in VARIANTS:
        report = gradient_check_model(small_config(variant), seed=7)
        assert report.passed, report.summary()
        assert report.max_rel_error < 1e-4


# the `fvl gradcheck` defaults
GRADCHECK_SIZES = dict(hidden=8, embed=8, tau=3, delta=2, pooled_dim=50)


@pytest.mark.parametrize("sizes", [GRADCHECK_SIZES, SMALL], ids=["cli", "small"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_gradient_check_equals_the_per_element_loop(variant, sizes):
    # Each rerun perturbs up to 64 elements at once on a copy axis; every
    # figure must equal, bit for bit, the loop that reruns the whole
    # training loss for each perturbation.
    config = ModelConfig(variant=variant, **sizes)
    report = gradient_check_model(config, seed=7)
    model, data = _gradcheck_problem(config, 7)
    want = unstaged_grad_check(
        lambda: dc.mul(_batch_loss(model, data, range(3)), 1000.0), model.params)
    assert list(report.per_parameter.items()) == list(want.items())


def test_training_is_deterministic():
    samples = make_samples(21, 8)
    cfg = small_config()
    kwargs = dict(epochs=3, batch_size=4, lr=1e-3, seed=5)
    first = train_model(cfg, samples, **kwargs)
    second = train_model(cfg, samples, **kwargs)
    assert first.train_losses == second.train_losses
    assert first.val_ades == second.val_ades
    assert first.train_indices == second.train_indices
    for name in first.params:
        assert np.array_equal(first.params[name], second.params[name])
        assert np.array_equal(first.best_params[name], second.best_params[name])
    other = train_model(cfg, samples, epochs=3, batch_size=4, lr=1e-3, seed=6)
    assert first.train_losses != other.train_losses


def test_training_zero_epochs_keeps_initial_weights():
    samples = make_samples(22, 4)
    cfg = small_config("xe")
    result = train_model(cfg, samples, epochs=0, seed=9)
    initial = BoxForecaster(cfg, seed=9).parameter_values()
    assert result.best_epoch == -1
    assert result.train_losses == ()
    for name, value in initial.items():
        assert np.array_equal(result.params[name], value)
        assert np.array_equal(result.best_params[name], value)


def test_training_reduces_loss():
    samples = make_samples(23, 8)
    result = train_model(small_config(), samples, epochs=25, batch_size=4,
                         lr=3e-3, seed=2)
    assert result.train_losses[-1] < result.train_losses[0]
    assert all(math.isfinite(v) for v in result.val_ades)
    assert result.best_epoch == int(np.argmin(result.val_ades))


def test_training_split_holds_out_a_tenth():
    samples = make_samples(24, 16)
    result = train_model(small_config("x"), samples, epochs=1, seed=3)
    assert len(result.val_indices) == 2
    assert len(result.train_indices) == 14
    assert set(result.val_indices).isdisjoint(result.train_indices)
    assert sorted(result.val_indices + result.train_indices) == list(range(16))
    assert list(result.train_indices) == sorted(result.train_indices)

    lone = train_model(small_config("x"), samples[:1], epochs=2, seed=3)
    assert lone.val_indices == ()
    assert all(math.isnan(v) for v in lone.val_ades)
    assert lone.best_epoch >= 0


def test_training_validates_inputs():
    samples = make_samples(25, 4)
    cfg = small_config()
    with pytest.raises(ValidationError, match="empty"):
        train_model(cfg, [], epochs=1)
    with pytest.raises(ValidationError, match="epochs"):
        train_model(cfg, samples, epochs=-1)
    with pytest.raises(ValidationError, match="batch"):
        train_model(cfg, samples, epochs=1, batch_size=0)
    with pytest.raises(ValidationError, match="learning rate"):
        train_model(cfg, samples, epochs=1, lr=0.0)
    with pytest.raises(ValidationError,
                       match="learning rate must be positive, got True"):
        train_model(cfg, samples, epochs=1, lr=True)
    # ModelConfig's integer rule: an int, not a float or a bool, from a least value
    for name, value, least in (("epochs", 2.5, 0), ("epochs", True, 0),
                               ("batch_size", 2.5, 1), ("batch_size", True, 1),
                               ("seed", 1.5, 0), ("seed", -1, 0), ("seed", True, 0)):
        with pytest.raises(ValidationError, match=re.escape(
                f"{name} must be {'a positive integer' if least else 'an integer >= 0'}, "
                f"got {value!r}")):
            train_model(cfg, samples, **{"epochs": 1, name: value})
    with pytest.raises(ValidationError, match="sample 0"):
        train_model(small_config(tau=4), samples, epochs=1)


@pytest.mark.filterwarnings("ignore:overflow")
def test_non_finite_loss_aborts_with_location():
    # Squaring a 1e197 residual overflows to inf on the very first batch.
    rng = Xoshiro256(26)
    samples = []
    for track in range(2):
        base = make_sample(rng, track=track)
        huge = np.vstack([[1e200, 1e200, 10.0, 10.0], base.future[1:]])
        samples.append(dataclasses.replace(base, future=huge))
    with pytest.raises(NumericFailure, match=r"epoch 0 batch 0"):
        train_model(small_config("x"), samples, epochs=1, seed=1)


def test_checkpoint_roundtrip(tmp_path):
    cfg = small_config()
    model = BoxForecaster(cfg, seed=13)
    path = tmp_path / "model.fvlw"
    save_model(path, cfg, model.parameter_values())
    loaded = load_model(path)
    assert loaded.config == cfg
    for name, value in model.parameter_values().items():
        assert np.array_equal(loaded.parameter_values()[name], value)
    sample = make_samples(27, 1)[0]
    assert np.array_equal(model.predict(sample).absolute,
                          loaded.predict(sample).absolute)


def test_non_finite_checkpoint_value_is_rejected(tmp_path):
    cfg = small_config()
    values = BoxForecaster(cfg, seed=13).parameter_values()
    values["head.bias"][2] = np.nan
    path = tmp_path / "model.fvlw"
    save_model(path, cfg, values)
    with pytest.raises(DataFormatError, match="non-finite value in parameter 'head.bias'"):
        load_model(path)


def tapes_left_by(run) -> int:
    """How many of the tapes that `run()` makes are still alive when it
    returns, with the cyclic collector off: only reference counting may
    free them."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = {id(o) for o in gc.get_objects() if isinstance(o, dc.Tape)}
        run()
        return sum(isinstance(o, dc.Tape) and id(o) not in before
                   for o in gc.get_objects())
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("case", ["del model", "train_model",
                                  "load_model and predict_batch",
                                  "gradient_check_model", "cli train", "cli evaluate"])
def test_a_model_and_its_tape_are_freed_without_the_cyclic_collector(case, tmp_path):
    cfg = small_config()
    samples = make_samples(28, 4)
    path = tmp_path / "model.fvlw"
    save_model(path, cfg, BoxForecaster(cfg, seed=13).parameter_values())
    dataset = tmp_path / "samples.jsonl"
    write_dataset(samples, dataset)
    train = ["train", "--dataset", str(dataset), "--out", str(tmp_path / "cli.fvlw"),
             "--variant", "xoe", "--hidden", "4", "--embed", "4", "--tau", "3",
             "--delta", "2", "--epochs", "2", "--batch", "2", "--pool-n", "2"]
    exits = []
    # each run drops every model it makes before it returns
    runs = {
        "del model": lambda: BoxForecaster(cfg, seed=1),
        "train_model": lambda: train_model(cfg, samples, epochs=2, batch_size=2, seed=3),
        "load_model and predict_batch": lambda: load_model(path).predict_batch(samples),
        "gradient_check_model": lambda: gradient_check_model(cfg, seed=4),
        "cli train": lambda: exits.append(cli.main(train)),
        "cli evaluate": lambda: exits.append(
            cli.main(["evaluate", str(path), "--dataset", str(dataset)])),
    }
    assert tapes_left_by(runs[case]) == 0
    assert exits in ([], [0])


@pytest.fixture(scope="module")
def small_checkpoint(tmp_path_factory):
    config = ModelConfig(variant="xoe", hidden=2, embed=2, tau=2, delta=1,
                         pooled_dim=2)
    path = tmp_path_factory.mktemp("fvlw") / "m.fvlw"
    save_model(path, config, BoxForecaster(config, seed=1).parameter_values())
    return path


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_damaged_checkpoint_loads_or_raises_data_format_error(small_checkpoint,
                                                             data):
    original = small_checkpoint.read_bytes()
    # about half the damage lands in the prefix, the config header and the
    # parameter count; bytes that matter to key=value text come often
    header_end = 16 + struct.unpack_from("<I", original, 8)[0]
    where = st.one_of(st.integers(0, header_end - 1),
                      st.integers(0, len(original) - 1))
    byte = st.one_of(st.sampled_from(b"\x00\n=0\x7f\xff"), st.integers(0, 255))
    if data.draw(st.booleans(), label="cut"):
        damaged = original[:data.draw(where)]
    else:
        damaged = bytearray(original)
        for _ in range(data.draw(st.integers(1, 4))):
            damaged[data.draw(where)] = data.draw(byte)
    small_checkpoint.write_bytes(bytes(damaged))
    try:
        load_model(small_checkpoint)
    except DataFormatError:
        pass
    finally:
        small_checkpoint.write_bytes(original)


def test_loading_values_draws_no_initial_weights(monkeypatch, tmp_path):
    # every drawn weight would be overwritten, so no weight stream is made
    cfg = small_config()
    values = BoxForecaster(cfg, seed=13).parameter_values()
    path = tmp_path / "model.fvlw"
    save_model(path, cfg, values)
    seeds = []

    class Counting(Xoshiro256):
        def __init__(self, seed):
            seeds.append(seed)
            super().__init__(seed)

    monkeypatch.setattr(fvlmodel, "Xoshiro256", Counting)
    for model in (BoxForecaster(cfg, params=values), load_model(path)):
        for name, value in values.items():
            assert np.array_equal(model.params[name].value, value)
    assert not seeds
    assert np.array_equal(BoxForecaster(cfg, seed=13).params["head.weight"].value,
                          values["head.weight"])
    assert seeds == [13]


def set_header(path, header):
    """Keep a checkpoint's parameters but replace its config header."""
    _, params = load_params(path)
    save_params(path, params, header)


@pytest.mark.parametrize("seed", [0, 13])
def test_gru_weight_is_the_three_gate_draws_stacked(seed):
    # replay the weight stream one scalar draw at a time, in construction
    # order: a GRU's one weight leaf holds what three [hidden x (in +
    # hidden)] gate draws give
    model = BoxForecaster(ModelConfig(variant="xoe", **SMALL), seed=seed)
    rng = Xoshiro256(seed)

    def draw(rows, cols):
        bound = 1.0 / np.sqrt(cols)
        return np.array([[rng.uniform(-bound, bound) for _ in range(cols)]
                         for _ in range(rows)])

    cells = ("box_encoder", "flow_encoder", "decoder")
    for name, p in model.params.items():
        layer, part = name.split(".")
        if part == "bias":
            assert np.array_equal(p.value, np.zeros(p.shape)), name
        elif layer in cells:
            hidden, joint = p.shape[0] // 3, p.shape[1]
            want = np.vstack([draw(hidden, joint) for _ in range(3)])
            assert np.array_equal(p.value, want), name
        else:
            assert np.array_equal(p.value, draw(*p.shape)), name
    assert [n for n in model.params if n.split(".")[0] in cells] == [
        f"{cell}.{part}" for cell in cells for part in ("weight", "bias")]


def test_checkpoint_mismatches_are_rejected(tmp_path):
    cfg = small_config()
    model = BoxForecaster(cfg, seed=13)
    path = tmp_path / "model.fvlw"
    save_model(path, cfg, model.parameter_values())
    header, _ = load_params(path)
    assert header == ("variant=xoe\nhidden=6\nembed=5\ntau=3\ndelta=2\n"
                      "pooled_dim=8\n")

    set_header(path, header.replace("hidden=6", "hidden=7"))
    with pytest.raises(DataFormatError, match="does not match model shape"):
        load_model(path)
    set_header(path, header.replace("variant=xoe", "variant=x"))
    with pytest.raises(DataFormatError, match="does not fit"):
        load_model(path)


@pytest.mark.parametrize("old, new, why", [
    ("hidden=6", "hiden=6", "header keys"),                      # unknown
    ("embed=5\n", "", "header keys"),                            # missing
    ("tau=3\n", "tau=3\ntau=3\n", "header keys"),                # repeated
    ("hidden=6\nembed=5", "embed=5\nhidden=6", "header keys"),   # reordered
    ("variant=xoe", "# a comment\nvariant=xoe", "header keys"),
    ("hidden=6", "hidden 6", "header keys"),
    ("hidden=6", "hidden=six", "invalid literal"),
    ("pooled_dim=8", "pooled_dim=9", "pooled_dim must be 2 n"),
])
def test_checkpoint_header_is_read_strictly(tmp_path, old, new, why):
    cfg = small_config()
    path = tmp_path / "model.fvlw"
    save_model(path, cfg, BoxForecaster(cfg, seed=13).parameter_values())
    header, _ = load_params(path)
    set_header(path, header.replace(old, new))
    with pytest.raises(DataFormatError, match=f"model.fvlw: .*{why}"):
        load_model(path)


def test_interrupted_save_keeps_the_previous_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "model.fvlw"
    old_cfg = small_config()
    old_values = BoxForecaster(old_cfg, seed=13).parameter_values()
    save_model(path, old_cfg, old_values)
    # tau changes no weight shape, so only the header tells the two apart
    new_cfg = small_config(tau=4)

    def interrupted(src, dst):
        raise OSError("interrupted before the rename")

    monkeypatch.setattr(os, "replace", interrupted)
    with pytest.raises(OSError, match="interrupted"):
        save_model(path, new_cfg, BoxForecaster(new_cfg, seed=14).parameter_values())
    monkeypatch.undo()
    loaded = load_model(path)
    assert loaded.config == old_cfg
    for name, value in old_values.items():
        assert np.array_equal(loaded.params[name].value, value)
    assert [p.name for p in tmp_path.iterdir()] == ["model.fvlw"]
