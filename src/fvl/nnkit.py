"""Neural building blocks on top of the autodiff core.

A :class:`GruCell` and :class:`Projection` cover every learnable piece of
the forecasting models; :class:`Adam` trains them; :func:`mse_loss` scores
them.  Cells and projections take row-stacked [B x n] batches only
(a single sample is a batch of one), and each call records one fused
tape node: :func:`fvl.diffcore.affine` for a projection (plus a relu
node when it has one) and :func:`fvl.diffcore.gru_sequence` for a GRU
unroll; a single step is an unroll of length one.  The forecaster's
decoder hands its layers' leaves to :func:`fvl.diffcore.gru_decoder`.

Parameter initialization is uniform fan-in: weights are drawn from
U(-1/sqrt(fan_in), +1/sqrt(fan_in)) elementwise in row-major order from a
single :class:`fvl.rng.Xoshiro256` stream, biases start at zero.  The
draw order is fixed by construction order, which makes a model's initial
state a pure function of its seed.  Each layer registers its leaves on
the tape it is given, named ``<layer>.<part>``, so
:attr:`fvl.diffcore.Tape.params` lists every parameter in that order.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

from . import diffcore as dc
from .diffcore import DiffArray, Tape
from .errors import DataFormatError, DimensionError, NumericFailure, ValidationError
from .rng import Xoshiro256

__all__ = [
    "GruCell",
    "Projection",
    "Adam",
    "mse_loss",
    "uniform_fan_in",
    "save_params",
    "load_params",
    "CHECKPOINT_MAGIC",
]

CHECKPOINT_MAGIC = b"FVLW"
CHECKPOINT_VERSION = 2


def uniform_fan_in(rng: Xoshiro256, out_size: int, in_size: int) -> np.ndarray:
    """Weight matrix [out x in] drawn uniformly within +-1/sqrt(in)."""
    bound = 1.0 / np.sqrt(in_size)
    return rng.uniforms((out_size, in_size), -bound, bound)


class Projection:
    """Linear map with optional relu over row-stacked inputs:
    y = act(x W^T + b) for x [B x in]."""

    def __init__(self, tape: Tape, rng: Xoshiro256, in_size: int, out_size: int,
                 activation: str = "relu", name: str = "proj"):
        if activation not in ("relu", "none"):
            raise ValueError(f"unknown activation {activation!r}")
        self.in_size = in_size
        self.out_size = out_size
        self.activation = activation
        self.name = name
        self.weight = tape.leaf(uniform_fan_in(rng, out_size, in_size),
                                name=f"{name}.weight")
        self.bias = tape.leaf(np.zeros(out_size), name=f"{name}.bias")

    def __call__(self, x):
        y = dc.affine(x, self.weight, self.bias)
        return dc.relu(y) if self.activation == "relu" else y


class GruCell:
    """Gated recurrent unit over concatenated [input; hidden] vectors.

    Uses the reset-before-candidate formulation: the reset gate scales the
    previous hidden state inside the candidate's input.
    """

    def __init__(self, tape: Tape, rng: Xoshiro256, input_size: int,
                 hidden_size: int, name: str = "gru"):
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.name = name
        joint = input_size + hidden_size
        self.w_update = tape.leaf(uniform_fan_in(rng, hidden_size, joint),
                                  name=f"{name}.w_update")
        self.w_reset = tape.leaf(uniform_fan_in(rng, hidden_size, joint),
                                 name=f"{name}.w_reset")
        self.w_cand = tape.leaf(uniform_fan_in(rng, hidden_size, joint),
                                name=f"{name}.w_cand")
        self.b_update = tape.leaf(np.zeros(hidden_size), name=f"{name}.b_update")
        self.b_reset = tape.leaf(np.zeros(hidden_size), name=f"{name}.b_reset")
        self.b_cand = tape.leaf(np.zeros(hidden_size), name=f"{name}.b_cand")

    @property
    def params(self) -> tuple[DiffArray, ...]:
        """The gate leaves in the argument order of the diffcore GRU kernels."""
        return (self.w_update, self.w_reset, self.w_cand,
                self.b_update, self.b_reset, self.b_cand)

    def unroll(self, xs, h0):
        """Run row-stacked sequences from h0 [B x hidden]: xs is [B*tau x
        input] with sample b's step t in row b*tau + t.  Returns the final
        hidden state [B x hidden] as one gru_sequence node."""
        x_shape, h_shape = np.shape(xs), np.shape(h0)
        if (len(x_shape) != 2 or len(h_shape) != 2
                or x_shape[1] != self.input_size or h_shape[1] != self.hidden_size):
            raise DimensionError(
                f"{self.name}: expected input width {self.input_size} and hidden "
                f"width {self.hidden_size} as [B x n] batches, got {x_shape} "
                f"and {h_shape}")
        return dc.gru_sequence(xs, h0, *self.params)

    def step(self, x, h_prev):
        """One recurrence update of a row-stacked batch ([B x input] with
        [B x hidden]); returns the next hidden state [B x hidden]."""
        if np.shape(x)[:1] != np.shape(h_prev)[:1]:
            raise DimensionError(
                f"{self.name}: one step needs as many input rows as hidden "
                f"rows, got {np.shape(x)} and {np.shape(h_prev)}")
        return self.unroll(x, h_prev)


class Adam:
    """Bias-corrected Adam over every leaf of a tape, updating the tape's
    flat value buffer in place with one set of elementwise operations."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, tape: Tape, lr: float = 5e-4):
        self.tape = tape
        self.lr = lr
        self.step_count = 0
        self._m = np.zeros_like(tape.values)
        self._v = np.zeros_like(tape.values)

    def step(self) -> None:
        g = self.tape.grads
        if g.shape != self._m.shape:
            raise ValidationError("the tape gained leaves after Adam was set up")
        if not np.all(np.isfinite(g)):
            name = next((n for n, p in self.tape.params.items()
                         if not np.all(np.isfinite(p.grad))), None)
            raise NumericFailure(f"non-finite gradient for parameter {name!r}")
        self.step_count += 1
        self._m *= self.beta1
        self._m += (1.0 - self.beta1) * g
        self._v *= self.beta2
        self._v += (1.0 - self.beta2) * g * g
        m_hat = self._m / (1.0 - self.beta1 ** self.step_count)
        v_hat = self._v / (1.0 - self.beta2 ** self.step_count)
        self.tape.values -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def mse_loss(pred, target):
    """Mean of squared differences over all elements; target is constant."""
    target = np.asarray(target, dtype=np.float64)
    pred_shape = pred.shape if isinstance(pred, DiffArray) else np.asarray(pred).shape
    if pred_shape != target.shape:
        raise DimensionError(
            f"mse_loss shapes differ: prediction {pred_shape} vs target {target.shape}")
    diff = dc.sub(pred, target)
    return dc.mean_all(dc.mul(diff, diff))


# --- checkpoint file format -------------------------------------------------
#
# Little-endian binary layout, version 2:
#   magic "FVLW" | u32 format version | u32 header length | header (utf-8)
#   | u32 parameter count | per parameter: u16 name length | name (utf-8)
#   | u8 rank | u32 dim per axis
#   then every parameter's float64 values, row-major, in table order


def save_params(path, params: dict[str, np.ndarray | DiffArray], header: str) -> None:
    """Write an opaque text `header` and `params` as one checkpoint file,
    atomically: the bytes go to a temp file beside `path` that replaces it."""
    path = Path(path)
    # note: ascontiguousarray would promote 0-d arrays to 1-d
    arrays = {name: np.asarray(p.value if isinstance(p, DiffArray) else p,
                               dtype="<f8", order="C")
              for name, p in params.items()}
    head = header.encode("utf-8")
    chunks = [CHECKPOINT_MAGIC + struct.pack(f"<II{len(head)}sI", CHECKPOINT_VERSION,
                                             len(head), head, len(arrays))]
    for name, arr in arrays.items():
        name_bytes = name.encode("utf-8")
        chunks.append(struct.pack(f"<H{len(name_bytes)}sB{arr.ndim}I", len(name_bytes),
                                  name_bytes, arr.ndim, *arr.shape))
    chunks += [arr.tobytes() for arr in arrays.values()]
    temp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        temp.write_bytes(b"".join(chunks))
        os.replace(temp, path)
    finally:
        temp.unlink(missing_ok=True)


def load_params(path) -> tuple[str, dict[str, np.ndarray]]:
    """The header and the parameters of a save_params file."""
    path = Path(path)
    data = path.read_bytes()

    def fail(offset: int, why: str):
        raise DataFormatError(f"{path}: {why} at offset {offset}")

    if data[:4] != CHECKPOINT_MAGIC:
        fail(0, f"bad magic {data[:4]!r}, expected {CHECKPOINT_MAGIC!r}")
    offset = 4
    shapes: dict[str, tuple] = {}
    try:
        version, header_size = struct.unpack_from("<II", data, offset)
        if version != CHECKPOINT_VERSION:
            fail(offset, f"unsupported checkpoint version {version}")
        offset = 12 + header_size
        header = data[12:offset].decode("utf-8")
        (count,) = struct.unpack_from("<I", data, offset)
        offset += 4
        for _ in range(count):
            (name_size,) = struct.unpack_from("<H", data, offset)
            name = data[offset + 2:offset + 2 + name_size].decode("utf-8")
            offset += 2 + name_size
            (rank,) = struct.unpack_from("<B", data, offset)
            shapes[name] = struct.unpack_from(f"<{rank}I", data, offset + 1)
            offset += 1 + 4 * rank
    except (struct.error, UnicodeDecodeError) as exc:
        fail(offset, f"malformed header ({exc})")
    # a repeated name's earlier values, if it had any, make the payload too long
    sizes = [math.prod(dims) for dims in shapes.values()]
    if len(data) - offset != 8 * sum(sizes):
        fail(offset, f"payload of {len(data) - offset} bytes, the parameter "
             f"table needs {8 * sum(sizes)}")
    values = np.frombuffer(data, dtype="<f8", offset=offset).astype(np.float64)
    params: dict[str, np.ndarray] = {}
    start = 0
    for (name, dims), size in zip(shapes.items(), sizes):
        try:
            params[name] = values[start:start + size].reshape(dims)
        except ValueError as exc:  # more axes than numpy allows
            fail(offset + 8 * start, f"parameter {name!r}: {exc}")
        if not np.all(np.isfinite(params[name])):
            fail(offset + 8 * start, f"non-finite value in parameter {name!r}")
        start += size
    return header, params
