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
[batch*tau] rows and one `gru_sequence` tape node; the decoder is the ego
embed `affine`+`relu`, one `gru_decoder` node and the head `affine`, which
emits residual rows [batch*delta x 4].  Everything runs in float64 with
explicit seeds, so one (config, seed, dataset) triple reproduces a
training run bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import diffcore as dc
from .dataio import Sample
from .diffcore import DiffArray, GradCheckReport, Tape, grad_check
from .errors import DataFormatError, NumericFailure, ValidationError, require_int
from .nnkit import (Adam, GruCell, Projection, init_fan_in, load_params, mse_loss,
                    save_params)
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
        # ints, not bools: a checkpoint header must parse back as int
        for name in ("tau", "delta", "hidden", "embed", "pooled_dim"):
            require_int(name, getattr(self, name), 2 if name == "tau" else 1)
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


@dataclass(frozen=True, eq=False)
class Prediction:
    """Decoded future boxes in normalized units.

    `absolute` is not passed in: it is set to `anchor + residuals`, so
    subtracting the anchor from a reported box recovers the emitted
    residual exactly.  All three are read-only float64 copies and, as with
    `Sample`, a prediction equals only itself.
    """

    anchor: np.ndarray
    residuals: np.ndarray
    absolute: np.ndarray = field(init=False)

    def __post_init__(self):
        for name in ("anchor", "residuals"):
            object.__setattr__(self, name,
                               np.array(getattr(self, name), dtype=np.float64))
        if self.anchor.shape != (4,):
            raise ValidationError(
                f"anchor must be one box [cx, cy, w, h], got {self.anchor.shape}")
        if self.residuals.ndim != 2 or self.residuals.shape[1] != 4:
            raise ValidationError(
                f"residuals must be [delta x 4], got {self.residuals.shape}")
        object.__setattr__(self, "absolute", self.anchor + self.residuals)
        for rows in (self.anchor, self.residuals, self.absolute):
            rows.flags.writeable = False

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

    params: dict
    best_params: dict
    best_epoch: int
    train_losses: tuple
    val_ades: tuple
    train_indices: tuple
    val_indices: tuple


class BoxForecaster:
    """One model instance: parameter leaves on a private tape.

    The layers register their leaves in construction order, and the
    weights are then drawn from `seed` as one block in that order, so the
    initial state is a pure function of (config, seed).  Pass `params` to
    load checkpoint values instead; then no weights are drawn.
    """

    def __init__(self, config: ModelConfig, seed: int = 0, params=None):
        self.config = config
        self.tape = tape = Tape()
        c = config
        self.box_embed = Projection(tape, 4, c.embed, "relu", "box_embed")
        self.box_encoder = GruCell(tape, c.embed, c.hidden, "box_encoder")
        if c.uses_flow:
            self.flow_embed = Projection(tape, c.pooled_dim, c.embed,
                                         "relu", "flow_embed")
            self.flow_encoder = GruCell(tape, c.embed, c.hidden, "flow_encoder")
        self.fuse = Projection(tape, c.hidden, c.hidden, "relu", "fuse")
        self.state_embed = Projection(tape, c.hidden, c.embed, "relu", "state_embed")
        if c.uses_ego:
            self.ego_embed = Projection(tape, 3, c.embed, "relu", "ego_embed")
        self.decoder = GruCell(tape, c.embed, c.hidden, "decoder")
        self.head = Projection(tape, c.hidden, 4, "none", "head")
        if params is None:
            init_fan_in(Xoshiro256(seed), self.params.values())
        else:
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
            h = dc.mul(dc.add(h, h_flow), 0.5)
        return self.fuse(h)

    def _run_encoder(self, embed, cell, series):
        batch, tau, width = series.shape
        return dc.gru_sequence(embed(series.reshape(batch * tau, width)),
                               np.zeros((batch, self.config.hidden)), *cell.params)

    def decode_steps(self, fused, ego=None):
        """Unroll the decoder into residual rows [batch*delta x 4], sample
        b's residual at horizon t in row b*delta + t.

        Batch-only like `encode`: `fused` is [batch x hidden] and `ego`
        [batch x delta x 3].  This is the differentiable core behind
        training and prediction: while the tape is recording, the result
        is the DiffArray of the head's `affine` node.
        """
        c = self.config
        if not c.uses_ego and ego is not None:
            raise ValidationError(f"variant {c.variant!r} does not take ego features")
        ego_x = None
        if c.uses_ego:
            ego = None if ego is None else np.asarray(ego)
            # a grad_check rerun may give `fused` a leading copy axis
            if ego is None or ego.shape != (*fused.shape[-2:-1], c.delta, 3):
                raise ValidationError(
                    f"variant {c.variant!r} needs future ego features shaped [batch "
                    f"x {c.delta} x 3] matching the fused state, got "
                    f"{'none' if ego is None else ego.shape}")
            ego_x = self.ego_embed(ego.reshape(-1, 3))
        states = dc.gru_decoder(fused, ego_x, self.state_embed.weight,
                                self.state_embed.bias, *self.decoder.params, c.delta)
        return self.head(states)

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
        return [Prediction(anchor=anchor, residuals=r) for anchor, r
                in zip(data["anchors"], residuals.reshape(len(samples), -1, 4))]


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
        # a sample's flow shares one lattice, so its first frame speaks for all
        if config.uses_flow and sample.flow[0].values.size != config.pooled_dim:
            raise ValidationError(
                f"sample {i}: pooled flow is {sample.flow[0].values.size} wide, "
                f"config expects {config.pooled_dim} (lattice mismatch?)")
    # [B x 4] rows (w, h, w, h) and their [B x 1 x 4] reciprocals
    scales = np.array([(s.width, s.height) * 2 for s in samples], dtype=np.float64)
    inverse = (1.0 / scales)[:, None, :]
    past = np.array([s.past for s in samples]) * inverse
    flows = egos = None
    if config.uses_flow:
        # interleaved u, v columns take (1/w, 1/h) in turn: [B x tau x n*n x 2]
        flows = np.array([[f.values for f in s.flow] for s in samples])
        flows = (flows.reshape(flows.shape[:2] + (-1, 2))
                 * inverse[:, :, None, :2]).reshape(flows.shape)
    if config.uses_ego:
        egos = np.array([s.ego for s in samples])
    return {"boxes": past, "anchors": past[:, -1], "flows": flows, "egos": egos,
            "scales": scales}


def _forward(model: BoxForecaster, data: dict, idx):
    """Residual rows [batch*delta x 4] of the indexed samples of
    `_prepare` output."""
    c = model.config
    fused = model.encode(data["boxes"][idx],
                         data["flows"][idx] if c.uses_flow else None)
    return model.decode_steps(fused, data["egos"][idx] if c.uses_ego else None)


def _batch_loss(model: BoxForecaster, data: dict, indices):
    idx = np.asarray(indices, dtype=int)
    return mse_loss(_forward(model, data, idx), data["targets"][idx].reshape(-1, 4))


def _pixel_ade(model: BoxForecaster, data: dict, indices) -> float:
    """Mean center displacement error in pixels over the indexed samples."""
    idx = np.asarray(indices, dtype=int)
    with model.tape.no_grad():
        residuals = _forward(model, data, idx).reshape(len(idx), -1, 4)
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
    for name, value, least in (("epochs", epochs, 0), ("batch_size", batch_size, 1),
                               ("seed", seed, 0)):
        require_int(name, value, least)
    if isinstance(lr, bool) or not (math.isfinite(lr) and lr > 0):
        raise ValidationError(f"learning rate must be positive, got {lr!r}")
    samples = list(samples)
    if not samples:
        raise ValidationError("cannot train on an empty dataset")

    model = BoxForecaster(config, seed=seed)
    data = _prepare(config, samples)
    # only training reads the future: in pixels, and as residuals in model units
    data["future_px"] = future = np.array([s.future for s in samples])
    data["targets"] = (future * (1.0 / data["scales"])[:, None, :]
                       - data["anchors"][:, None, :])
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
    return TrainResult(params=model.parameter_values(),
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
    biases = [p for p in model.params.values() if p.value.ndim == 1]
    c = config
    rows = 3
    inputs = {
        "boxes": ((rows, c.tau, 4), 0.1, 0.9),
        "flows": ((rows, c.tau, c.pooled_dim), -0.2, 0.2) if c.uses_flow else None,
        "egos": ((rows, c.delta, 3), -0.5, 0.5) if c.uses_ego else None,
        "targets": ((rows, c.delta, 4), -0.3, 0.3),
    }
    # one block: the biases in parameter order, then the inputs
    drawn = iter(Xoshiro256(seed ^ _DATA_STREAM).uniforms_split(
        [(p.shape, -0.1, 0.1) for p in biases]
        + [spec for spec in inputs.values() if spec is not None]))
    for p in biases:
        p.value[...] = next(drawn)
    data = {key: None if spec is None else next(drawn) for key, spec in inputs.items()}
    return model, data


def gradient_check_model(config: ModelConfig, seed: int = 7) -> GradCheckReport:
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
    return grad_check(lambda: dc.mul(_batch_loss(model, data, rows), 1000.0))
