"""Multi-stream GRU forecaster for future vehicle bounding boxes.

Past normalized boxes (and optionally ROI-pooled optical flow) are each
embedded by a relu projection and consumed by their own GRU encoder; the
final hidden states are averaged and projected into one fused state.  A
GRU decoder unrolls from that state for the prediction horizon,
averaging its own state embedding with an embedded future ego-motion
feature at each step when the variant has one, and a linear head emits
each future box as a residual against the last observed box.  Variants:

    x    boxes only
    xe   boxes + future ego-motion
    xo   boxes + pooled flow
    xoe  boxes + pooled flow + future ego-motion

Each encoder stream is one embed `affine`+`relu` over all of its
[batch*tau] rows and one `gru_sequence` tape node; the whole decoder,
head included, is one `gru_decoder` node that returns the residuals as
[batch x delta x 4].  Everything runs in float64 with explicit seeds, so
one (config, seed, dataset) triple reproduces a training run bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import diffcore as dc
from .dataio import Sample
from .diffcore import DiffArray, GradCheckReport, Tape, grad_check
from .errors import DataFormatError, NumericFailure, ValidationError
from .nnkit import Adam, GruCell, Projection, load_params, mse_loss, save_params
from .rng import Xoshiro256

__all__ = [
    "VARIANTS",
    "ModelConfig",
    "Prediction",
    "TrainResult",
    "BoxForecaster",
    "train_model",
    "save_model",
    "load_model",
    "gradient_check_model",
]

VARIANTS = ("x", "xe", "xo", "xoe")

# xor-ed into the seed for streams that must not replay the weight
# initialization draws (data shuffling, gradient-check probe data)
_DATA_STREAM = 0x6A09E667F3BCC908


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters; `variant` picks the input streams."""

    variant: str = "xoe"
    hidden: int = 64
    embed: int = 64
    tau: int = 10
    delta: int = 10
    pooled_dim: int = 50

    def __post_init__(self):
        object.__setattr__(self, "variant", str(self.variant).lower())
        if self.variant not in VARIANTS:
            raise ValidationError(
                f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        if self.tau < 2 or self.delta < 1:
            raise ValidationError(
                f"need tau >= 2 and delta >= 1, got ({self.tau}, {self.delta})")
        for name in ("hidden", "embed", "pooled_dim"):
            if getattr(self, name) < 1:
                raise ValidationError(
                    f"{name} must be >= 1, got {getattr(self, name)}")
        # the flow stream is the interleaved (u, v) of an n x n lattice
        if self.pooled_dim != 2 * math.isqrt(self.pooled_dim // 2) ** 2:
            raise ValidationError(f"pooled_dim must be 2 n^2 for a lattice "
                                  f"size n, got {self.pooled_dim}")

    @property
    def uses_flow(self) -> bool:
        return "o" in self.variant

    @property
    def uses_ego(self) -> bool:
        return "e" in self.variant


@dataclass(frozen=True)
class Prediction:
    """Decoded future boxes in normalized units.

    `absolute` is literally `anchor + residuals`, so subtracting the
    anchor from a reported box recovers the emitted residual exactly.
    """

    anchor: np.ndarray
    residuals: np.ndarray
    absolute: np.ndarray

    def __post_init__(self):
        for name in ("anchor", "residuals", "absolute"):
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), dtype=np.float64))
        if self.anchor.shape != (4,):
            raise ValidationError(
                f"anchor must be one box [cx, cy, w, h], got {self.anchor.shape}")
        if (self.residuals.ndim != 2 or self.residuals.shape[1] != 4
                or self.absolute.shape != self.residuals.shape):
            raise ValidationError(
                f"residuals {self.residuals.shape} and absolute "
                f"{self.absolute.shape} must both be [delta x 4]")

    def pixel_boxes(self, width: float, height: float) -> np.ndarray:
        """Absolute boxes scaled back to pixels, [delta x 4]."""
        return self.absolute * np.array([width, height, width, height])


@dataclass(frozen=True)
class TrainResult:
    """Outcome of one training run.

    `params` are the weights after the last update; `best_params` are the
    snapshot with the lowest held-out pixel ADE (equal to `params` when
    no epochs ran).  Losses are per-epoch means of the batch MSE in
    normalized units; `val_ades` is nan-filled when the dataset was too
    small to hold anything out.
    """

    config: ModelConfig
    params: dict
    best_params: dict
    best_epoch: int
    train_losses: tuple
    val_ades: tuple
    train_indices: tuple
    val_indices: tuple


class _NoDraws:
    """Stands in for the weight stream when checkpoint values will
    overwrite every weight: the layers get zeros instead of draws."""

    @staticmethod
    def uniforms(shape, low=0.0, high=1.0) -> np.ndarray:
        return np.zeros(shape)


class BoxForecaster:
    """One model instance: parameter leaves on a private tape.

    Construction order fixes the weight-draw order, so the initial state
    is a pure function of (config, seed).  Pass `params` to load
    checkpoint values instead; then no weights are drawn.
    """

    def __init__(self, config: ModelConfig, seed: int = 0, params=None):
        self.config = config
        self.tape = Tape()
        rng = Xoshiro256(seed) if params is None else _NoDraws()
        c = config
        self.box_embed = Projection(self.tape, rng, 4, c.embed,
                                    "relu", "box_embed")
        self.box_encoder = GruCell(self.tape, rng, c.embed, c.hidden,
                                   "box_encoder")
        if c.uses_flow:
            self.flow_embed = Projection(self.tape, rng, c.pooled_dim, c.embed,
                                         "relu", "flow_embed")
            self.flow_encoder = GruCell(self.tape, rng, c.embed, c.hidden,
                                        "flow_encoder")
        self.fuse = Projection(self.tape, rng, c.hidden, c.hidden,
                               "relu", "fuse")
        self.state_embed = Projection(self.tape, rng, c.hidden, c.embed,
                                      "relu", "state_embed")
        if c.uses_ego:
            self.ego_embed = Projection(self.tape, rng, 3, c.embed,
                                        "relu", "ego_embed")
        self.decoder = GruCell(self.tape, rng, c.embed, c.hidden, "decoder")
        self.head = Projection(self.tape, rng, c.hidden, 4, "none", "head")
        if params is not None:
            self.load_values(params)

    @property
    def params(self) -> dict[str, DiffArray]:
        """Every parameter leaf by name, in construction order."""
        return self.tape.params

    def parameter_values(self) -> dict[str, np.ndarray]:
        return {name: p.value.copy() for name, p in self.params.items()}

    def load_values(self, values) -> None:
        params = self.params
        missing = sorted(set(params) - set(values))
        extra = sorted(set(values) - set(params))
        if missing or extra:
            raise DataFormatError(
                f"checkpoint does not fit a {self.config.variant!r} model "
                f"(missing {missing}, unexpected {extra})")
        for name, p in params.items():
            arr = np.asarray(values[name], dtype=np.float64)
            if arr.shape != p.value.shape:
                raise DataFormatError(
                    f"parameter {name!r}: checkpoint shape {arr.shape} does "
                    f"not match model shape {p.value.shape}")
            p.value[...] = arr

    # --- forward passes ---------------------------------------------------

    def encode(self, boxes, flows=None):
        """Fused hidden state [batch x hidden] of the past windows.

        The model path is batch-only: `boxes` is [batch x tau x 4] and
        `flows` ([batch x tau x pooled]) must be given exactly when the
        variant has a flow stream.  A single sample is a batch of one.
        """
        c = self.config
        boxes = np.asarray(boxes, dtype=np.float64)
        if boxes.ndim != 3 or boxes.shape[1:] != (c.tau, 4):
            raise ValidationError(
                f"expected past boxes shaped [batch x {c.tau} x 4], "
                f"got {boxes.shape}")
        if c.uses_flow and flows is None:
            raise ValidationError(
                f"variant {c.variant!r} needs the pooled-flow stream")
        if not c.uses_flow and flows is not None:
            raise ValidationError(
                f"variant {c.variant!r} does not take a flow stream")
        h = self._run_encoder(self.box_embed, self.box_encoder, boxes)
        if c.uses_flow:
            flows = np.asarray(flows, dtype=np.float64)
            if flows.shape != (boxes.shape[0], c.tau, c.pooled_dim):
                raise ValidationError(
                    f"expected pooled flow shaped [batch x {c.tau} x "
                    f"{c.pooled_dim}] matching the boxes, got {flows.shape}")
            h_flow = self._run_encoder(self.flow_embed, self.flow_encoder, flows)
            h = 0.5 * (h + h_flow)
        return self.fuse(h)

    def _run_encoder(self, embed, cell, series):
        batch, tau, width = series.shape
        return cell.unroll(embed(series.reshape(batch * tau, width)),
                           np.zeros((batch, self.config.hidden)))

    def decode_steps(self, fused, ego=None):
        """Unroll the decoder into residuals [batch x delta x 4].

        Batch-only like `encode`: `fused` is [batch x hidden] and `ego`
        [batch x delta x 3].  This is the differentiable core behind
        training and prediction: while the tape is recording, the result
        is one DiffArray, the `gru_decoder` node.
        """
        c = self.config
        if c.uses_ego and ego is None:
            raise ValidationError(
                f"variant {c.variant!r} needs {c.delta} future ego features")
        if not c.uses_ego and ego is not None:
            raise ValidationError(
                f"variant {c.variant!r} does not take ego features")
        if ego is not None:
            ego = np.asarray(ego, dtype=np.float64)
            if ego.ndim != 3 or ego.shape[1:] != (c.delta, 3):
                raise ValidationError(
                    f"expected {c.delta} ego features of width 3 per sample, "
                    f"got shape {ego.shape}")
            rows = np.shape(fused)[-2:][0]
            if ego.shape[0] != rows:
                raise ValidationError(f"{ego.shape[0]} ego rows for {rows} samples")
        ego_layer = ((self.ego_embed.weight, self.ego_embed.bias)
                     if ego is not None else (None, None))
        return dc.gru_decoder(fused, ego, self.state_embed.weight,
                              self.state_embed.bias, *ego_layer,
                              *self.decoder.params, self.head.weight,
                              self.head.bias, c.delta)

    def predict(self, sample: Sample) -> Prediction:
        """Pure inference on one dataio sample (pixels in, normalized out)."""
        return self.predict_batch([sample])[0]

    def predict_batch(self, samples) -> list[Prediction]:
        """Inference on many samples in one batched forward pass."""
        samples = list(samples)
        if not samples:
            return []
        data = _prepare(self.config, samples)
        with self.tape.no_grad():
            residuals = _forward(self, data, slice(None))
        return [Prediction(anchor=anchor, residuals=r, absolute=anchor + r)
                for anchor, r in zip(data["anchors"], residuals)]


# --- training -----------------------------------------------------------------


def _prepare(config: ModelConfig, samples) -> dict:
    """Stack pixel-unit samples into model tensors, validating shapes.

    This is the one place where pixels become model units (image
    fractions): box cx and w and flow u are multiplied by 1/width, box cy
    and h and flow v by 1/height, each row by its own sample's dims.  Ego
    poses are metric and stay as they are.
    """
    for i, sample in enumerate(samples):
        if sample.tau != config.tau or sample.delta != config.delta:
            raise ValidationError(
                f"sample {i}: window ({sample.tau}, {sample.delta}) does not "
                f"match config ({config.tau}, {config.delta})")
        if config.uses_flow:
            for f in sample.flow:
                if f.values.size != config.pooled_dim:
                    raise ValidationError(
                        f"sample {i}: pooled flow is {f.values.size} wide, "
                        f"config expects {config.pooled_dim} (lattice mismatch?)")
    # [B x 4] rows (w, h, w, h) and their [B x 1 x 4] reciprocals
    scales = np.array([(s.width, s.height) * 2 for s in samples], dtype=np.float64)
    inverse = (1.0 / scales)[:, None, :]
    past = np.stack([s.past for s in samples]) * inverse
    future_px = np.stack([s.future for s in samples])
    anchors = past[:, -1]
    flows = egos = None
    if config.uses_flow:
        # interleaved u, v columns take (1/w, 1/h) in turn
        flows = (np.array([[f.values for f in s.flow] for s in samples])
                 * np.tile(inverse[..., :2], config.pooled_dim // 2))
    if config.uses_ego:
        egos = np.stack([s.ego for s in samples])
    return {
        "boxes": past,
        "anchors": anchors,
        "targets": future_px * inverse - anchors[:, None, :],
        "flows": flows,
        "egos": egos,
        "future_px": future_px,
        "scales": scales,
    }


def _forward(model: BoxForecaster, data: dict, idx):
    """Residuals [batch x delta x 4] of the indexed rows of `_prepare`
    output."""
    c = model.config
    fused = model.encode(data["boxes"][idx],
                         data["flows"][idx] if c.uses_flow else None)
    return model.decode_steps(fused, data["egos"][idx] if c.uses_ego else None)


def _batch_loss(model: BoxForecaster, data: dict, indices):
    idx = np.asarray(indices, dtype=int)
    return mse_loss(_forward(model, data, idx), data["targets"][idx])


def _pixel_ade(model: BoxForecaster, data: dict, indices) -> float:
    """Mean center displacement error in pixels over the indexed samples."""
    idx = np.asarray(indices, dtype=int)
    with model.tape.no_grad():
        residuals = _forward(model, data, idx)
    absolute = data["anchors"][idx][:, None, :] + residuals
    pred_px = absolute * data["scales"][idx][:, None, :]
    truth = data["future_px"][idx]
    errors = np.hypot(pred_px[..., 0] - truth[..., 0],
                      pred_px[..., 1] - truth[..., 1])
    return float(errors.mean())


def train_model(config: ModelConfig, samples, epochs: int = 40,
                batch_size: int = 64, lr: float = 5e-4,
                seed: int = 0) -> TrainResult:
    """Mini-batch Adam on the MSE of future residuals.

    Weights come from `seed`; the validation split and every epoch
    shuffle come from a second stream derived from the same seed, so runs
    repeat bit-for-bit.  When the dataset has at least two samples, 10%
    (at least one) is held out and the epoch with the lowest held-out
    pixel ADE provides `best_params`; otherwise selection falls back to
    the training loss.
    """
    if epochs < 0:
        raise ValidationError(f"epochs must be >= 0, got {epochs}")
    if batch_size < 1:
        raise ValidationError(f"batch size must be >= 1, got {batch_size}")
    if not (math.isfinite(lr) and lr > 0):
        raise ValidationError(f"learning rate must be positive, got {lr}")
    samples = list(samples)
    if not samples:
        raise ValidationError("cannot train on an empty dataset")

    model = BoxForecaster(config, seed=seed)
    data = _prepare(config, samples)
    data_rng = Xoshiro256(seed ^ _DATA_STREAM)

    n = len(samples)
    order = data_rng.permutation(n)
    val_count = 0 if n < 2 else max(1, int(round(0.1 * n)))
    val_idx = sorted(order[:val_count])
    train_idx = sorted(order[val_count:])

    adam = Adam(model.tape, lr=lr)
    train_losses: list[float] = []
    val_ades: list[float] = []
    best_epoch = -1
    best_score = math.inf
    best_params = model.parameter_values()
    for epoch in range(epochs):
        perm = data_rng.permutation(len(train_idx))
        shuffled = [train_idx[i] for i in perm]
        epoch_loss = 0.0
        for start in range(0, len(shuffled), batch_size):
            batch = shuffled[start:start + batch_size]
            model.tape.reset()
            loss = _batch_loss(model, data, batch)
            if not np.isfinite(loss.value):
                raise NumericFailure(
                    f"epoch {epoch} batch {start // batch_size}: "
                    f"loss is {float(loss.value)!r}")
            model.tape.backward(loss)
            try:
                adam.step()
            except NumericFailure as exc:
                raise NumericFailure(
                    f"epoch {epoch} batch {start // batch_size}: {exc}") from None
            epoch_loss += float(loss.value) * len(batch)
        train_losses.append(epoch_loss / len(shuffled))
        if val_idx:
            score = _pixel_ade(model, data, val_idx)
            val_ades.append(score)
        else:
            score = train_losses[-1]
            val_ades.append(math.nan)
        if score < best_score:
            best_score = score
            best_epoch = epoch
            best_params = model.parameter_values()
    return TrainResult(config=config, params=model.parameter_values(),
                       best_params=best_params, best_epoch=best_epoch,
                       train_losses=tuple(train_losses),
                       val_ades=tuple(val_ades),
                       train_indices=tuple(train_idx),
                       val_indices=tuple(val_idx))


# --- checkpoints ---------------------------------------------------------------
#
# A checkpoint is one nnkit weight file whose header holds the ModelConfig
# as `key=value` lines, one per field in order, so it describes its model.


def save_model(path, config: ModelConfig, params) -> None:
    save_params(path, params, "".join(
        f"{f.name}={getattr(config, f.name)}\n" for f in fields(ModelConfig)))


def load_model(path) -> BoxForecaster:
    """Rebuild a forecaster from save_model output, verifying shapes."""
    header, params = load_params(path)
    lines = [line.partition("=") for line in header.splitlines()]
    keys = [key for key, _, _ in lines]
    if keys != [f.name for f in fields(ModelConfig)]:
        raise DataFormatError(f"{path}: header keys {keys} are not ModelConfig's")
    # each value parses as the type of its field's default
    try:
        config = ModelConfig(**{f.name: type(f.default)(value) for f, (_, _, value)
                                in zip(fields(ModelConfig), lines)})
    except (ValueError, ValidationError) as exc:
        raise DataFormatError(f"{path}: {exc}") from None
    return BoxForecaster(config, params=params)


def _gradcheck_problem(config: ModelConfig, seed: int):
    """The model and the batch of three samples that
    `gradient_check_model` checks: the seed's initial weights with random
    biases, and random inputs and targets."""
    model = BoxForecaster(config, seed=seed)
    rng = Xoshiro256(seed ^ _DATA_STREAM)
    for p in model.params.values():
        if p.value.ndim == 1:
            p.value[...] = rng.uniforms(p.value.shape, -0.1, 0.1)
    c = config
    rows = 3
    data = {
        "boxes": rng.uniforms((rows, c.tau, 4), 0.1, 0.9),
        "flows": (rng.uniforms((rows, c.tau, c.pooled_dim), -0.2, 0.2)
                  if c.uses_flow else None),
        "egos": (rng.uniforms((rows, c.delta, 3), -0.5, 0.5)
                 if c.uses_ego else None),
        "targets": rng.uniforms((rows, c.delta, 4), -0.3, 0.3),
    }
    return model, data


def gradient_check_model(config: ModelConfig, seed: int = 7,
                         step: float = 1e-6,
                         tolerance: float = 1e-4) -> GradCheckReport:
    """Check the full encode-decode gradient of the training loss on a
    batch of three random samples.

    Bias adjoints are sums over rows, so an error in one shows only with
    several rows.  grad_check divides by max(1, |gradient|); the loss is
    scaled by 1000 so that most adjoints exceed 1 and the tolerance acts
    as a relative one.  The weights are the seed's initial ones, but the
    biases are drawn at random: zero biases put a relu input exactly on
    its kink whenever the row feeding it is all zero, where finite
    differences cannot agree with any one-sided derivative.
    """
    model, data = _gradcheck_problem(config, seed)
    rows = range(len(data["boxes"]))
    return grad_check(lambda: dc.mul(_batch_loss(model, data, rows), 1000.0),
                      step=step, tolerance=tolerance)
