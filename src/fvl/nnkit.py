"""Neural building blocks on top of the autodiff core.

A :class:`GruCell` and :class:`Projection` cover every learnable piece of
the forecasting models; :class:`Adam` trains them; :func:`mse_loss` scores
them.  Cells and projections take row-stacked [B x n] batches only
(a single sample is a batch of one), and each call records one fused
tape node: :func:`fvl.diffcore.affine` for a projection (plus a relu
node when it has one) and :func:`fvl.diffcore.gru_sequence` for a GRU
step.  The forecaster hands its cells' leaves (:attr:`GruCell.params`)
to both GRU kernels, :func:`fvl.diffcore.gru_sequence` and
:func:`fvl.diffcore.gru_decoder`, which check every shape they read.
A GRU's gates are row blocks of one weight and one bias leaf.

Each layer registers its leaves on the tape it is given, as zeros,
named ``<layer>.<part>``, so :attr:`fvl.diffcore.Tape.params` lists
every parameter in construction order.  Initialization is uniform
fan-in: :func:`init_fan_in` draws every weight of a model as one arena
block of a single :class:`fvl.rng.Xoshiro256` stream, in registration
order, each [out x in] weight row-major from U(-1/sqrt(in), +1/sqrt(in));
biases stay zero.  That makes a model's initial state a pure function of
its seed.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from . import diffcore as dc
from .diffcore import DiffArray, Tape
from .errors import (DataFormatError, DimensionError, NumericFailure,
                     ValidationError, write_atomic)
from .rng import Xoshiro256

__all__ = [
    "GruCell",
    "Projection",
    "Adam",
    "mse_loss",
    "init_fan_in",
    "save_params",
    "load_params",
    "CHECKPOINT_MAGIC",
]

CHECKPOINT_MAGIC = b"FVLW"
CHECKPOINT_VERSION = 2


def init_fan_in(rng: Xoshiro256, leaves) -> None:
    """Draw every weight (2-D leaf) among `leaves` as one block of `rng`,
    in the order given, each [out x in] one within +-1/sqrt(in); the
    other leaves keep their values."""
    weights = [p for p in leaves if p.value.ndim == 2]
    bounds = [1.0 / np.sqrt(p.shape[1]) for p in weights]
    drawn = rng.uniforms_split([(p.shape, -b, b) for p, b in zip(weights, bounds)])
    for p, value in zip(weights, drawn):
        p.value[...] = value


class Projection:
    """Linear map with optional relu over row-stacked inputs:
    y = act(x W^T + b) for x [B x in]."""

    def __init__(self, tape: Tape, in_size: int, out_size: int,
                 activation: str = "relu", name: str = "proj"):
        if activation not in ("relu", "none"):
            raise ValueError(f"unknown activation {activation!r}")
        self.activation = activation
        self.weight = tape.leaf(np.zeros((out_size, in_size)), name=f"{name}.weight")
        self.bias = tape.leaf(np.zeros(out_size), name=f"{name}.bias")

    def __call__(self, x):
        y = dc.affine(x, self.weight, self.bias)
        return dc.relu(y) if self.activation == "relu" else y


class GruCell:
    """Gated recurrent unit over concatenated [input; hidden] vectors.

    Uses the reset-before-candidate formulation: the reset gate scales the
    previous hidden state inside the candidate's input.  The gates are row
    blocks, ordered update, reset, candidate, of ``<name>.weight`` [3*hidden
    x (input + hidden)] and ``<name>.bias`` [3*hidden].
    """

    def __init__(self, tape: Tape, input_size: int, hidden_size: int,
                 name: str = "gru"):
        self.name = name
        self.weight = tape.leaf(np.zeros((3 * hidden_size, input_size + hidden_size)),
                                name=f"{name}.weight")
        self.bias = tape.leaf(np.zeros(3 * hidden_size), name=f"{name}.bias")

    @property
    def params(self) -> tuple[DiffArray, DiffArray]:
        """The gate weight and bias, as the diffcore GRU kernels take them."""
        return self.weight, self.bias

    def step(self, x, h_prev):
        """One recurrence update of a row-stacked batch ([B x input] with
        [B x hidden]); returns the next hidden state [B x hidden]."""
        if np.shape(x)[-2:-1] != np.shape(h_prev)[-2:-1]:
            raise DimensionError(
                f"{self.name}: one step needs as many input rows as hidden "
                f"rows, got {np.shape(x)} and {np.shape(h_prev)}")
        return dc.gru_sequence(x, h_prev, *self.params)


class Adam:
    """Bias-corrected Adam over every leaf of a tape, updating the tape's
    flat value buffer in place with one set of elementwise operations,
    written through two scratch buffers in the order of the textbook
    expressions."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, tape: Tape, lr: float = 5e-4):
        self.tape = tape
        self.lr = lr
        self.step_count = 0
        self._m = np.zeros_like(tape.values)
        self._v = np.zeros_like(tape.values)
        self._scratch = (np.empty_like(tape.values), np.empty_like(tape.values))

    def step(self) -> None:
        g = self.tape.grads
        if g.shape != self._m.shape:
            raise ValidationError("the tape gained leaves after Adam was set up")
        if not np.all(np.isfinite(g)):
            name = next((n for n, p in self.tape.params.items()
                         if not np.all(np.isfinite(p.grad))), None)
            raise NumericFailure(f"non-finite gradient for parameter {name!r}")
        self.step_count += 1
        s, t = self._scratch
        self._m *= self.beta1
        self._m += np.multiply(g, 1.0 - self.beta1, out=s)
        self._v *= self.beta2
        self._v += np.multiply(np.multiply(g, 1.0 - self.beta2, out=s), g, out=s)
        np.divide(self._m, 1.0 - self.beta1 ** self.step_count, out=s)
        np.divide(self._v, 1.0 - self.beta2 ** self.step_count, out=t)
        s *= self.lr
        s /= np.add(np.sqrt(t, out=t), self.eps, out=t)
        self.tape.values -= s


def mse_loss(pred, target):
    """Mean of squared differences over all elements; target is constant
    and, as for `diffcore.sub`, of pred's shape or a scalar."""
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
    atomically (see `write_atomic`)."""
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
    write_atomic(path, b"".join(chunks))


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
