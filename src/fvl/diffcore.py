"""Reverse-mode automatic differentiation over dense float64 arrays.

This is the numerical core the rest of the package trains on: a dynamic
tape that records one backward closure per primitive, replayed in reverse
order by :meth:`Tape.backward`.  It is deliberately small.  Supported
primitives are matrix products, a handful of elementwise functions
(add, sub, mul, sigmoid, tanh, relu), concatenation, row tiling,
transpose, the mean of all elements, and three fused kernels that the
model path runs on row-stacked [B x n] batches:

    affine(x, W, b)             x @ W.T + b, one node
    gru_sequence(xs, h0, ...)   a whole GRU encoder unroll, one node
    gru_decoder(h0, ego_x, ...) the state embed and GRU of every decoder
                                step, one node

Each fused kernel has a closed-form backward (backpropagation through
time for the two GRU kernels, which share one gate forward and one BPTT
loop).  Following Appleyard et al. 2016 (arXiv:1604.01946), a GRU's
gates are row blocks of one weight leaf, read as views, and work that
does not depend on the previous step leaves the recurrence: the encoder
computes the input half of every gate for all timesteps in one product,
the decoder's ego embedding and head are affine nodes of their own, the
decoder computes the ego half of every step's input gates in one product
before its loop, and a step makes one recurrent product for update and
reset.  A step's gates run in place, the logistic as
sigmoid(a) = 0.5 * tanh(0.5 * a) + 0.5, and its state update is
h + z * (c - h).  The backward does the same: the factors of each
step's gate adjoints that depend only on that step's records,
1 - z, z * (1 - c**2), (c - h) * z * (1 - z) and h * r * (1 - r), are
whole-sequence products before the reverse loop, so a step makes only
its recurrent work.  Step records exist only while the tape records:
each step writes them into step-major [steps x B x k] buffers, and under
no_grad a GRU kernel keeps none and builds no backward.
Broadcasting is restricted to exact shape match or scalar-with-array so
every backward rule stays auditable; the structural exceptions are
:func:`tile_rows` and the bias rows of the fused kernels, whose
adjoints are row sums.

Every forward works over trailing axes, for one reason: inside the
reruns of :func:`grad_check`, and only there, a value may carry one
leading copy axis, two copies (+1e-6 and -1e-6) for each of the at most
64 leaf elements one rerun perturbs; the step and the 1e-4 tolerance
are module constants.  Such a value is of a private ndarray subclass
that numpy carries through ufuncs, products, slicing and reshapes, so a
value carries copies exactly when the perturbed leaf feeds it.
Elementwise operands may then differ by the copy axis, a per-copy
scalar meets an array copy by copy, rank checks look at
:func:`core_shape`, and :func:`mean_all` reduces each copy on its own.
Reruns record nothing, so no backward sees a copy axis.

A primitive records through one entry point.  It checks its operands,
computes its forward value, and hands that value to ``_emit`` with a
``backward(g)`` function and the operands.  The first DiffArray operand
decides (``_recording_tape``): if its tape is recording, the value
becomes a new node whose ``backward`` receives the node's adjoint ``g``
during :meth:`Tape.backward` and adds each operand's share through
``_accumulate``, which skips operands that are not DiffArrays.
Otherwise the bare ndarray is returned and nothing is recorded.  The
GRU kernels ask ``_recording_tape`` before their loop, so that they
keep step records only for a call that ``_emit`` will record.
A primitive is a function and has one spelling: ``add(a, b)``, never
``a + b``, for DiffArray defines no arithmetic operators.

The tape is also the parameter registry: :attr:`Tape.params` holds the
named leaves in the order they were registered, and every leaf's value
and adjoint are views into the flat :attr:`Tape.values` and
:attr:`Tape.grads`, laid out in that order.

Ownership runs one way.  The tape owns its leaves and its recording,
and every DiffArray, leaf or node, holds its tape through a weak
reference.  So a tape, with its buffers and its last recording, is
freed by reference counting as soon as nothing outside refers to it,
usually when the model that owns it goes.  Keep the tape, or its model,
alive while you use its arrays: a leaf's ``value`` stays readable after
its tape is freed, but recording on the array, differentiating through
it or reading its ``tape`` raises ValidationError.

Gradient semantics follow the usual tape convention: leaf adjoints
accumulate across repeated :meth:`Tape.backward` calls, intermediate
adjoints are recomputed fresh on each call, and :meth:`Tape.reset`
clears the recording and zeroes every adjoint exactly.

Everything is float64.  A tape and the arrays it owns are confined to a
single thread; run one tape per worker if you want parallelism.
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, ValidationError

__all__ = [
    "DiffArray",
    "Tape",
    "GradCheckReport",
    "matmul",
    "add",
    "sub",
    "mul",
    "sigmoid",
    "tanh",
    "relu",
    "concat_last",
    "tile_rows",
    "transpose",
    "affine",
    "gru_sequence",
    "gru_decoder",
    "mean_all",
    "grad_check",
    "core_shape",
]


class DiffArray:
    """A float64 array plus its adjoint, registered on a tape.  A leaf's
    ``value`` and ``grad`` are views into the tape's flat buffers.

    The array holds its tape weakly: the tape owns its leaves and its
    recording, not the other way round.  Once the tape is freed, the
    array's ``value`` stays readable, but recording on it, or reading
    ``tape``, raises ValidationError.
    """

    __slots__ = ("value", "grad", "_tape", "name")

    # DiffArray has no arithmetic operators, and this keeps numpy from
    # absorbing it as an object element: `ndarray + leaf` and ufuncs on a
    # leaf raise TypeError instead of building an object array.
    __array_ufunc__ = None

    def __init__(self, value: np.ndarray, tape: "Tape", name: str | None = None):
        self.value = value
        self.grad = np.zeros(value.shape, dtype=np.float64)
        self._tape = weakref.ref(tape)
        self.name = name

    @property
    def tape(self) -> "Tape":
        """The tape this array was recorded or registered on."""
        tape = self._tape()
        if tape is None:
            raise ValidationError(
                f"{self!r}: its tape was freed; keep the tape, or the model "
                f"that owns it, alive while its arrays are in use")
        return tape

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def __repr__(self) -> str:
        return f"DiffArray({self.name or 'unnamed'}, shape={self.shape})"


class Tape:
    """Ordered record of primitive applications for one forward pass.

    Leaves (parameters) persist across passes; intermediates belong to
    the current recording and are discarded on :meth:`reset`.  The tape
    owns both; they refer back to it only weakly, so a tape (and a model
    built on it) is freed by reference counting once the last outside
    reference goes.
    """

    def __init__(self):
        self._leaves: list[DiffArray] = []
        # every leaf's value and adjoint, flat, in registration order: the
        # used front of two buffers that double when a leaf overflows them
        self._buffers = (np.zeros(0), np.zeros(0))
        self.values, self.grads = self._buffers
        # (node, backward) per recorded primitive, in forward order
        self._ops: list[tuple[DiffArray, object]] = []
        self.recording = True

    def leaf(self, value, name: str | None = None) -> DiffArray:
        """Register a persistent differentiable array (a parameter): append
        it to the flat buffers, first doubling them if it does not fit and
        re-pointing every earlier leaf at the grown ones, so k leaves copy
        the arena O(log k) times."""
        node = DiffArray(np.asarray(value, dtype=np.float64), self, name=name)
        start = self.values.size
        end = start + node.value.size
        relink, offset = [node], start
        if end > self._buffers[0].size:
            capacity = max(end, 2 * self._buffers[0].size)
            self._buffers = tuple(np.concatenate([used, np.zeros(capacity - start)])
                                  for used in (self.values, self.grads))
            relink, offset = self._leaves + relink, 0
        self._buffers[0][start:end] = node.value.reshape(-1)
        self.values, self.grads = (buffer[:end] for buffer in self._buffers)
        self._leaves.append(node)
        for p in relink:
            stop = offset + p.value.size
            p.value = self.values[offset:stop].reshape(p.shape)
            p.grad = self.grads[offset:stop].reshape(p.shape)
            offset = stop
        return node

    @property
    def params(self) -> dict[str, DiffArray]:
        """The named leaves by name, in registration order."""
        return {p.name: p for p in self._leaves if p.name is not None}

    def _node(self, value: np.ndarray, backward) -> DiffArray:
        """Record an intermediate; :meth:`backward` calls ``backward(g)``
        with its adjoint ``g``."""
        node = DiffArray(value, self)
        self._ops.append((node, backward))
        return node

    @contextmanager
    def no_grad(self):
        """Run forward code without recording; primitives return ndarrays."""
        previous = self.recording
        self.recording = False
        try:
            yield
        finally:
            self.recording = previous

    def backward(self, loss: DiffArray) -> None:
        """Populate adjoints of everything reachable from a scalar loss.

        Leaf adjoints accumulate across calls; intermediate adjoints are
        rebuilt from zero on every call, which makes backward(l1) followed
        by backward(l2) equal to backward(l1 + l2) on the leaves.
        """
        if not isinstance(loss, DiffArray) or loss.tape is not self:
            raise ValidationError("backward requires a DiffArray recorded on this tape")
        if loss.shape != ():
            raise ValidationError(
                f"backward requires a scalar loss, got shape {loss.shape}")
        for node, _ in self._ops:
            node.grad.fill(0.0)
        loss.grad[...] += 1.0
        for node, backward in reversed(self._ops):
            backward(node.grad)

    def reset(self) -> None:
        """Drop the recording and restore every leaf adjoint to exactly zero."""
        self.grads.fill(0.0)
        self._ops.clear()


class _Copies(np.ndarray):
    """The perturbed leaf of a grad_check rerun and every value it feeds."""


# The most leaf elements one grad_check rerun perturbs, its central
# finite-difference step, and the relative error it passes below.
_FD_CHUNK = 64
_FD_STEP = 1e-6
_FD_TOLERANCE = 1e-4


def core_shape(v: np.ndarray) -> tuple[int, ...]:
    """The shape of v after its copy axis when v carries the copies of a
    :func:`grad_check` rerun; otherwise, and always outside such a
    rerun, its whole shape."""
    return v.shape[1:] if isinstance(v, _Copies) else v.shape


def _concat(parts, axis: int) -> np.ndarray:
    """np.concatenate along a trailing ``axis`` of parts of which some
    may carry the copy axis that the others lack; unlike np.concatenate
    and np.stack, it keeps the copy type."""
    lead = next((p.shape[:1] for p in parts if isinstance(p, _Copies)), None)
    if lead is None:
        return np.concatenate(parts, axis=axis)
    return np.concatenate([np.broadcast_to(p, lead + core_shape(p)) for p in parts],
                          axis=axis).view(_Copies)


def _mT(v: np.ndarray) -> np.ndarray:
    """v with its last two axes swapped, numpy 2's ``v.mT``.  A matrix
    takes ``v.T``: np.swapaxes costs about 1 us a call, 7 times as much,
    which batch-1 prediction would feel."""
    return v.T if v.ndim == 2 else np.swapaxes(v, -1, -2)


def _rows_at(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """a @ m.  When a carries a grad_check copy axis, [copies x B x k],
    and m is a plain matrix [k x n], the copies fold into a's rows: one
    product instead of one per copy.  Two matrices take ``a @ m`` as is."""
    if a.ndim == 2 or m.ndim != 2:
        return a @ m
    return (a.reshape(-1, a.shape[-1]) @ m).reshape(a.shape[:-1] + m.shape[-1:])


def _value(x) -> np.ndarray:
    if isinstance(x, DiffArray):
        return x.value
    return np.asanyarray(x, dtype=np.float64)


def _recording_tape(operands):
    """The tape that records a primitive on ``operands``, or None.

    The first DiffArray among them decides: its tape if that tape is
    recording, None under :meth:`Tape.no_grad` or with no DiffArray
    operand.  A freed tape raises ValidationError.
    """
    for a in operands:
        if isinstance(a, DiffArray):
            tape = a.tape
            return tape if tape.recording else None
    return None


def _emit(value: np.ndarray, backward, *operands):
    """Record one primitive application; the single entry point.

    If :func:`_recording_tape` finds a recording tape among ``operands``,
    ``value`` becomes a node on it whose adjoint reaches ``backward(g)``;
    otherwise the bare ndarray is returned.
    """
    tape = _recording_tape(operands)
    return value if tape is None else tape._node(value, backward)


def _accumulate(x, g: np.ndarray) -> None:
    """Add an adjoint contribution to a DiffArray operand.  Unequal shapes
    mean one side is a scalar: a scalar operand takes the sum of an
    array adjoint, and a 0-d adjoint spreads over an array operand."""
    if not isinstance(x, DiffArray):
        return
    if x.shape == g.shape:
        x.grad += g
    else:
        x.grad += g.sum()


def _operands(a, b, op: str) -> tuple[np.ndarray, np.ndarray]:
    """The values of two elementwise operands, which must have equal
    shapes or one must be a scalar.  A per-copy scalar gains unit axes
    so that it meets an array copy by copy."""
    av, bv = _value(a), _value(b)
    a_shape, b_shape = core_shape(av), core_shape(bv)
    if a_shape != b_shape and a_shape != () and b_shape != ():
        raise DimensionError(
            f"{op}: shapes {av.shape} and {bv.shape} are neither equal "
            f"nor scalar-with-array")
    if isinstance(av, _Copies) and not a_shape:
        av = av.reshape(av.shape + (1,) * len(b_shape))
    if isinstance(bv, _Copies) and not b_shape:
        bv = bv.reshape(bv.shape + (1,) * len(a_shape))
    return av, bv


def add(a, b):
    av, bv = _operands(a, b, "add")

    def backward(g):
        _accumulate(a, g)
        _accumulate(b, g)

    return _emit(av + bv, backward, a, b)


def sub(a, b):
    av, bv = _operands(a, b, "sub")

    def backward(g):
        _accumulate(a, g)
        _accumulate(b, -g)

    return _emit(av - bv, backward, a, b)


def mul(a, b):
    av, bv = _operands(a, b, "mul")

    def backward(g):
        _accumulate(a, g * bv)
        _accumulate(b, g * av)

    return _emit(av * bv, backward, a, b)


def _sigmoid_value(xv: np.ndarray) -> np.ndarray:
    """Stable logistic function: 1 / (1 + exp(-x)) for x >= 0 and
    exp(x) / (1 + exp(x)) below, evaluated with one exp(-|x|) that
    cannot overflow, so the result is finite for any float input."""
    e = np.exp(np.copysign(xv, -1.0))
    return np.where(xv >= 0.0, 1.0, e) / (1.0 + e)


def sigmoid(x):
    s = _sigmoid_value(_value(x))

    def backward(g):
        _accumulate(x, g * s * (1.0 - s))

    return _emit(s, backward, x)


def tanh(x):
    t = np.tanh(_value(x))

    def backward(g):
        _accumulate(x, g * (1.0 - t * t))

    return _emit(t, backward, x)


def relu(x):
    xv = _value(x)

    def backward(g):
        # relu'(0) is defined as 0: the mask is strict.
        _accumulate(x, g * (xv > 0.0))

    return _emit(np.maximum(xv, 0.0), backward, x)


def matmul(a, b):
    """Matrix product of a 2-d left operand with a 1-d or 2-d right operand."""
    av, bv = _value(a), _value(b)
    a_shape, b_shape = core_shape(av), core_shape(bv)
    if len(a_shape) != 2 or len(b_shape) not in (1, 2):
        raise DimensionError(
            f"matmul supports [m x k] @ [k] or [m x k] @ [k x n], "
            f"got shapes {av.shape} and {bv.shape}")
    if a_shape[1] != b_shape[0]:
        raise DimensionError(
            f"matmul inner dimensions differ: {av.shape} vs {bv.shape}")

    def backward(g):
        _accumulate(a, g @ bv.T if bv.ndim == 2 else np.outer(g, bv))
        _accumulate(b, av.T @ g)

    if len(b_shape) == 1 and isinstance(bv, _Copies):  # copies of a vector
        return _emit((av @ bv[..., None])[..., 0], backward, a, b)
    return _emit(av @ bv, backward, a, b)


def concat_last(a, b):
    """Concatenate along the last axis (two vectors, or two matrices with
    equal row counts)."""
    av, bv = _value(a), _value(b)
    a_shape, b_shape = core_shape(av), core_shape(bv)
    if len(a_shape) != len(b_shape) or len(a_shape) not in (1, 2):
        raise DimensionError(
            f"concat_last needs two 1-d or two 2-d arrays, got shapes "
            f"{av.shape} and {bv.shape}")
    if a_shape[:-1] != b_shape[:-1]:
        raise DimensionError(
            f"concat_last row counts differ: {av.shape} vs {bv.shape}")
    split = av.shape[-1]

    def backward(g):
        _accumulate(a, g[..., :split])
        _accumulate(b, g[..., split:])

    return _emit(_concat([av, bv], -1), backward, a, b)


def tile_rows(x, count: int):
    """Stack `count` copies of a vector into a matrix.

    The adjoint of a row tiling is the sum over rows, stated here
    explicitly instead of relying on implicit broadcasting.
    """
    xv = _value(x)
    if len(core_shape(xv)) != 1:
        raise DimensionError(f"tile_rows expects a vector, got shape {xv.shape}")
    if count < 1:
        raise ValidationError(f"tile_rows count must be >= 1, got {count}")

    def backward(g):
        _accumulate(x, g.sum(axis=0))

    return _emit(np.repeat(xv[..., None, :], count, axis=-2), backward, x)


def transpose(x):
    xv = _value(x)
    if len(core_shape(xv)) != 2:
        raise DimensionError(f"transpose expects a matrix, got shape {xv.shape}")

    def backward(g):
        _accumulate(x, g.T)

    return _emit(_mT(xv).copy(), backward, x)


def affine(x, w, b):
    """Row-stacked affine map ``x @ w.T + b`` for x [B x in], w [out x in]
    and b [out], recorded as one node."""
    xv, wv, bv = _value(x), _value(w), _value(b)
    x_shape, w_shape = core_shape(xv), core_shape(wv)
    if (len(x_shape) != 2 or len(w_shape) != 2 or x_shape[1] != w_shape[1]
            or core_shape(bv) != w_shape[:1]):
        raise DimensionError(
            f"affine expects x [B x in], W [out x in] and b [out], got "
            f"shapes {xv.shape}, {wv.shape} and {bv.shape}")

    def backward(g):
        _accumulate(x, g @ wv)
        _accumulate(w, g.T @ xv)
        _accumulate(b, g.sum(axis=0))

    return _emit(_rows_at(xv, _mT(wv)) + bv[..., None, :], backward, x, w, b)


def _gru_operands(name, n_in, hidden, w, b, *values):
    """Check the gate weight's and bias's shapes.  Return the copy axis,
    (copies,) if any operand carries grad_check copies and () if none
    does, and as plain views (a numpy call on the copy type costs up to
    0.7 us more) w_x [3*hidden x in], w_zr [2*hidden x hidden] (update,
    reset) and w_c [hidden x hidden] of the weight, b and ``values``."""
    w_shape = core_shape(w)
    if w_shape != (3 * hidden, n_in + hidden) or core_shape(b) != (3 * hidden,):
        rows, cols = w_shape if len(w_shape) == 2 else (0, 0)
        raise DimensionError(
            f"{name} weights {w.shape} and bias {b.shape} take input width "
            f"{cols - rows // 3} and hidden width {rows // 3}; input width {n_in} "
            f"and hidden width {hidden} need [{3 * hidden} x {n_in + hidden}] and "
            f"[{3 * hidden}]")
    parts = (w[..., :n_in], w[..., :2 * hidden, n_in:], w[..., 2 * hidden:, n_in:],
             b, *values)
    if _Copies not in map(type, parts):  # no Python-level loop when none does
        return (), parts
    lead = next(v.shape[:1] for v in parts if type(v) is _Copies)
    return lead, [v.view(np.ndarray) if type(v) is _Copies else v for v in parts]


def _records(tape, steps: int, *shapes) -> list:
    """The step-major buffers [steps x *shape] a GRU kernel writes its
    step records into, one per shape, while ``tape`` records.  With no
    recording tape (None), each is a list of ``steps`` Nones instead, so
    a step's ufuncs take ``out=None``, return new arrays and keep
    nothing."""
    if tape is None:
        return [[None] * steps] * len(shapes)
    return [np.empty((steps,) + shape) for shape in shapes]


def _rows(records: np.ndarray) -> np.ndarray:
    """Step-major records [steps x B x k] as rows [B*steps x k], sample b's
    step t in row b*steps + t, the row order of the kernels' inputs."""
    return records.swapaxes(0, 1).reshape(-1, records.shape[-1])


def _gru_forward(gx, h, w_zr_t, w_c_t, product, zr, rh, c, out):
    """One reset-before-candidate GRU update of h [B x hidden] from its
    input gate terms gx = x @ w_x.T + b [B x 3*hidden], given the
    transposed recurrent weights w_zr_t = w_zr.T and w_c_t = w_c.T:

        z, r = sigmoid(gx[update, reset] + h @ w_zr_t)
        c = tanh(gx[cand] + (r * h) @ w_c_t)
        out = h + z * (c - h)

    The logistic runs in place as sigmoid(a) = 0.5 * tanh(0.5 * a) + 0.5,
    which lies in [0, 1] for any float a; the candidate's tanh runs in
    place too.  ``product`` is the kernel's matrix product, np.matmul or, when
    an operand carries grad_check copies, :func:`_rows_at`.  zr, rh, c
    and out are the arrays that z and r, r * h, c and the new state are
    written into, each None for a new array.  Returns the new state."""
    hidden = h.shape[-1]
    zr = np.add(gx[..., :2 * hidden], product(h, w_zr_t), out=zr)
    zr *= 0.5
    np.tanh(zr, out=zr)
    zr *= 0.5
    zr += 0.5
    rh = np.multiply(zr[..., hidden:], h, out=rh)
    c = np.add(gx[..., 2 * hidden:], product(rh, w_c_t), out=c)
    np.tanh(c, out=c)
    return np.add(h, zr[..., :hidden] * (c - h), out=out)


def _gru_bptt(g, h, zr, c, w_zr, w_c, d_gates, d_out=None, embed=None):
    """Backpropagation through time over the steps of one GRU kernel call.

    h, zr and c are the kernel's step-major records [steps x B x k]: the
    state entering each step, its update and reset gates, and its
    candidate.  g [B x hidden] is the adjoint of the last step's output;
    d_out [B x steps x hidden], when given, adds each step's own output
    adjoint at that step.  The factors that do not depend on g, 1 - z,
    z * (1 - c**2), (c - h) * z * (1 - z) and h * r * (1 - r), are whole-
    sequence products before the loop, so a step makes the three gate
    adjoints, written into its slice of d_gates [B x steps x 3*hidden],
    the products with w_c and w_zr, and the sum that is the adjoint of
    its entering state.  embed = (w_x, state_w, mask, d_state) is the
    decoder's: a step's input is relu of an embed of the state entering
    it, with relu mask [steps x B x embed], so the adjoint of that
    embed's pre-activation, written into d_state [B x steps x embed],
    flows back into the state through state_w.  Returns the adjoint of
    the state entering the first step."""
    hidden = g.shape[-1]
    z, r = zr[..., :hidden], zr[..., hidden:]
    one_z = 1.0 - z
    c_factor = z * (1.0 - c * c)
    z_factor = (c - h) * z * one_z
    r_factor = h * r * (1.0 - r)
    if embed is not None:
        w_x, state_w, mask, d_state = embed
    for t in reversed(range(len(zr))):
        if d_out is not None:
            g = g + d_out[:, t]
        d_gate = d_gates[:, t]
        d_c = np.multiply(g, c_factor[t], out=d_gate[:, 2 * hidden:])
        np.multiply(g, z_factor[t], out=d_gate[:, :hidden])
        d_rh = d_c @ w_c
        np.multiply(d_rh, r_factor[t], out=d_gate[:, hidden:2 * hidden])
        g = g * one_z[t] + d_rh * r[t] + d_gate[:, :2 * hidden] @ w_zr
        if embed is not None:
            d_s = np.multiply(d_gate @ w_x, mask[t], out=d_state[:, t])
            g = g + d_s @ state_w
    return g


def _accumulate_gru(w, b, d_gates, x_rows, h_rows, rh_rows):
    """Add the gate weight's and bias's adjoints in place, each block
    summed over all rows in one product.  Row i of d_gates [N x 3*hidden],
    of the inputs x_rows [N x in], of the entering states h_rows
    [N x hidden] and of r * h, rh_rows [N x hidden], is sample i // steps
    at step i % steps."""
    if isinstance(w, DiffArray):
        n_in, hidden = x_rows.shape[1], h_rows.shape[1]
        w.grad[:, :n_in] += d_gates.T @ x_rows
        w.grad[:2 * hidden, n_in:] += d_gates[:, :2 * hidden].T @ h_rows
        w.grad[2 * hidden:, n_in:] += d_gates[:, 2 * hidden:].T @ rh_rows
    _accumulate(b, d_gates.sum(axis=0))


def gru_sequence(xs, h0, w, b):
    """A whole GRU unroll over row-stacked sequences, recorded as one node.

    xs is [B*tau x in], holding sample b's input at step t in row
    b*tau + t (``series.reshape(B*tau, in)``); h0 is [B x hidden]; the
    gate weight w [3*hidden x (in + hidden)] over [x; h] and bias b
    [3*hidden] hold update, reset and candidate as row blocks.  Returns
    the final hidden state [B x hidden].  The input half of all three
    gates is one product over every row; each step then makes one
    recurrent product for update and reset and one for the candidate.
    While the tape records, each step writes its records into step-major
    buffers; the backward runs the steps in reverse and sums each weight
    block's adjoint over all of them in one product.  Under no_grad the
    kernel keeps no record and returns the bare array.
    """
    xv, hv = _value(xs), _value(h0)
    x_shape, h_shape = core_shape(xv), core_shape(hv)
    if (len(x_shape) != 2 or len(h_shape) != 2 or h_shape[0] < 1
            or x_shape[0] < h_shape[0] or x_shape[0] % h_shape[0]):
        raise DimensionError(
            f"gru_sequence expects xs [B*tau x in] and h0 [B x hidden] with "
            f"tau >= 1, got shapes {xv.shape} and {hv.shape}")
    tape = _recording_tape((xs, h0, w, b))
    batch, hidden = h_shape
    lead, (w_x, w_zr, w_c, bv, xv, hv) = _gru_operands(
        "gru_sequence", x_shape[1], hidden, _value(w), _value(b), xv, hv)
    tau = x_shape[0] // batch
    product = _rows_at if lead else np.matmul
    gx = product(xv, _mT(w_x)) + bv[..., None, :]
    gx = gx.reshape(gx.shape[:-2] + (batch, tau, 3 * hidden))
    h, w_zr_t, w_c_t = hv, _mT(w_zr), _mT(w_c)
    # each step's output state, gates, r * h and candidate
    states, zr, rh, c = _records(tape, tau, (batch, hidden), (batch, 2 * hidden),
                                 (batch, hidden), (batch, hidden))
    for t in range(tau):
        h = _gru_forward(gx[..., t, :], h, w_zr_t, w_c_t, product,
                         zr[t], rh[t], c[t], states[t])
    if tape is None:
        return h.view(_Copies) if lead else h

    def backward(g):
        h_in = np.concatenate([hv[None], states[:-1]])
        d_gates = np.empty((batch, tau, 3 * hidden))
        g = _gru_bptt(g, h_in, zr, c, w_zr, w_c, d_gates)
        d_gates = d_gates.reshape(batch * tau, 3 * hidden)
        _accumulate(xs, d_gates @ w_x)
        _accumulate(h0, g)
        _accumulate_gru(w, b, d_gates, xv, _rows(h_in), _rows(rh))

    return _emit(h, backward, xs, h0, w, b)


def gru_decoder(h0, ego_x, state_w, state_b, w, b, steps: int):
    """A whole GRU decoder recurrence, recorded as one node.

    From h = h0 [B x hidden], each step t of ``steps`` runs

        x = relu(h @ state_w.T + state_b)               [B x embed]
        x[b] = 0.5 * (x[b] + ego_x[b*steps + t])        with ego_x only
        h = the GRU update of h by x with gates w and b (see gru_sequence)

    and returns the state after each step as rows [B*steps x hidden],
    sample b's state after step t in row b*steps + t.  ego_x is the
    embedded ego motion [B*steps x embed] in that row order, or None.
    Only the work that depends on h runs here: the caller embeds ego
    motion before the node and applies a head to its rows after it.
    With ego_x, x = relu(h @ (0.5 * state_w).T + 0.5 * state_b) + 0.5 *
    ego_x[b*steps + t] exactly, so the state embed is halved once per
    call, and the ego half of every step's input gates,
    0.5 * ego_x @ w_x.T + b, is one product over all rows before the
    loop; its adjoint is one product after the backward loop.  Each step
    writes its state into one preallocated step-major array, whose rows
    the result takes in one reshape.  While the tape records, a step also
    writes its relu'd state embed, gates, r * h and candidate into
    step-major buffers, and its relu runs in place there: the backward
    takes x > 0, the same mask as the pre-activation's, from the relu's
    output, for all steps in one comparison.  Under no_grad the kernel
    keeps no record and returns the bare array.
    """
    hv, ws, bs = _value(h0), _value(state_w), _value(state_b)
    h_shape, s_shape = core_shape(hv), core_shape(ws)
    if (len(h_shape) != 2 or len(s_shape) != 2 or steps < 1
            or s_shape[1] != h_shape[1] or core_shape(bs) != s_shape[:1]):
        raise DimensionError(
            f"gru_decoder expects h0 [B x hidden], state_w [embed x hidden], "
            f"state_b [embed] and steps >= 1, got shapes {hv.shape}, "
            f"{ws.shape}, {bs.shape} and steps {steps}")
    (batch, hidden), embed = h_shape, s_shape[0]
    rows = batch * steps
    ev = None
    if ego_x is not None:
        ev = _value(ego_x)
        if core_shape(ev) != (rows, embed):
            raise DimensionError(
                f"gru_decoder ego_x must be [{rows} x {embed}] for h0 "
                f"{hv.shape}, state_w {ws.shape} and {steps} steps, got shape "
                f"{ev.shape}")
    tape = _recording_tape((h0, ego_x, state_w, state_b, w, b))
    lead, (w_x, w_zr, w_c, bv, hv, ws, bs, ev) = _gru_operands(
        "gru_decoder", embed, hidden, _value(w), _value(b), hv, ws, bs, ev)
    product, w_x_t = _rows_at if lead else np.matmul, _mT(w_x)
    # the input gates' share that does not depend on h: [B x steps x 3*hidden]
    if ev is None:
        scale = 1.0
        gates_in = np.broadcast_to(bv[..., None, None, :],
                                   bv.shape[:-1] + (batch, steps, 3 * hidden))
    else:
        scale = 0.5
        gates_in = 0.5 * product(ev, w_x_t) + bv[..., None, :]
        gates_in = gates_in.reshape(gates_in.shape[:-2] + (batch, steps, 3 * hidden))
    ws, bs = scale * ws, scale * bs
    ws_t, bs_row = _mT(ws), bs[..., None, :]
    h, w_zr_t, w_c_t = hv, _mT(w_zr), _mT(w_c)
    # the state after each step, step-major and each step's copies
    # contiguous; every state after step 0 carries the copies or none does
    states = np.empty((steps,) + lead + (batch, hidden))
    # each step's relu'd state embed, gates, r * h and candidate
    xs, zr, rh, c = _records(tape, steps, (batch, embed), (batch, 2 * hidden),
                             (batch, hidden), (batch, hidden))
    for t in range(steps):
        x = np.add(product(h, ws_t), bs_row, out=xs[t])
        np.maximum(x, 0.0, out=x)
        h = _gru_forward(product(x, w_x_t) + gates_in[..., t, :], h, w_zr_t,
                         w_c_t, product, zr[t], rh[t], c[t], states[t])
    # np.moveaxis costs 3.5 us more than swapaxes, which batch-1
    # prediction would feel
    hs = np.moveaxis(states, 0, -2) if lead else states.swapaxes(0, 1)
    hs = hs.reshape(lead + (rows, hidden))
    if tape is None:
        return hs.view(_Copies) if lead else hs

    def backward(g):
        h_in = np.concatenate([hv[None], states[:-1]])
        d_gates = np.empty((batch, steps, 3 * hidden))
        d_state = np.empty((batch, steps, embed))
        d_h = _gru_bptt(np.zeros((batch, hidden)), h_in, zr, c, w_zr, w_c, d_gates,
                        g.reshape(batch, steps, hidden), (w_x, ws, xs > 0.0, d_state))
        d_gates = d_gates.reshape(rows, 3 * hidden)
        d_state = d_state.reshape(rows, embed)
        h_rows = _rows(h_in)
        _accumulate(h0, d_h)
        # d_state is the adjoint of the scaled state embed's pre-activation
        _accumulate(state_w, scale * (d_state.T @ h_rows))
        _accumulate(state_b, scale * d_state.sum(axis=0))
        x_rows = _rows(xs)
        if ev is not None:
            _accumulate(ego_x, 0.5 * (d_gates @ w_x))
            # not in place: at one sample or one step, x_rows is a view of
            # the records, which a second backward reads again
            x_rows = x_rows + 0.5 * ev
        _accumulate_gru(w, b, d_gates, x_rows, h_rows, _rows(rh))

    return _emit(hs, backward, h0, ego_x, state_w, state_b, w, b)


def _total(xv: np.ndarray) -> tuple[np.ndarray, int]:
    """The sum of xv's elements and their count; per copy when xv
    carries a grad_check rerun's copy axis."""
    if isinstance(xv, _Copies):
        rows = xv.reshape(len(xv), -1)
        return rows.sum(axis=1), rows.shape[1]
    return xv.sum(), xv.size


def mean_all(x):
    """Mean of all elements, as a 0-d scalar (one per copy in grad_check)."""
    total, n = _total(_value(x))

    def backward(g):
        _accumulate(x, g / n)

    return _emit(np.asanyarray(total / n), backward, x)


@dataclass
class GradCheckReport:
    """Per-parameter agreement between analytic adjoints and central
    finite differences.  Relative error is |a - n| / max(1, |a|, |n|),
    and the check passes when every one is below ``_FD_TOLERANCE``."""

    per_parameter: dict[str, float] = field(default_factory=dict)

    @property
    def max_rel_error(self) -> float:
        return max(self.per_parameter.values(), default=0.0)

    @property
    def worst_parameter(self) -> str:
        if not self.per_parameter:
            return ""
        return max(self.per_parameter, key=self.per_parameter.get)

    @property
    def passed(self) -> bool:
        return self.max_rel_error < _FD_TOLERANCE

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        lines = [f"gradient check: {status} "
                 f"(max rel err {self.max_rel_error:.3e}, tol {_FD_TOLERANCE:.1e})"]
        width = max((len(n) for n in self.per_parameter), default=0)
        for name, err in sorted(self.per_parameter.items()):
            lines.append(f"  {name:<{width}}  {err:.3e}")
        return "\n".join(lines)


def grad_check(loss) -> GradCheckReport:
    """Compare the analytic gradient of ``loss`` with central finite
    differences for every named leaf of the tape that ``loss`` records on.

    ``loss`` takes no arguments and returns a scalar loss.  Its first
    call is recorded and gives the analytic gradients through one
    :meth:`Tape.backward`; grad_check zeroes the leaf adjoints before it
    and calls :meth:`Tape.reset` after it.  A recording already on the
    tape is replayed too, with zero adjoints, which adds nothing to the
    leaf gradients while its values are finite.  Every later call is a
    rerun under :meth:`Tape.no_grad`.

    A rerun checks up to ``_FD_CHUNK`` = 64 consecutive elements of one
    flattened leaf.  For a chunk of k elements the leaf's ``value`` is
    rebound to a stacked copy [2k x *shape], marked as carrying copies,
    in which copy 2j holds element j + ``_FD_STEP`` = 1e-6 and copy 2j + 1
    element j - 1e-6, so ``loss`` must return 2k losses, one per copy; a 0-d
    loss is one that does not read the leaf.  Every primitive carries
    the mark and the copy axis through to the values the leaf feeds and
    to no other, so the losses are those of perturbing one element per
    pass.  The leaf is bound back to its view
    of :attr:`Tape.values` afterwards, also when a rerun raises; the
    tape's values are never written.

    A relative error that is not finite counts as infinite, so a NaN
    gradient or loss fails the check.  The caller is responsible for
    keeping relu inputs away from their kink; points within
    finite-difference reach of 0 make the numeric estimate meaningless.
    """
    out = loss()
    if not isinstance(out, DiffArray):
        raise ValidationError("grad_check: the loss records on no tape")
    tape = out.tape
    params = tape.params
    if not params:
        raise ValidationError("grad_check: the loss's tape has no named leaf")
    tape.grads.fill(0.0)
    tape.backward(out)
    analytic = {name: p.grad.copy() for name, p in params.items()}
    tape.reset()

    report = GradCheckReport()
    for name, p in params.items():
        view = p.value
        flat = view.reshape(-1)
        grads = analytic[name].reshape(-1)
        worst = 0.0
        for start in range(0, flat.size, _FD_CHUNK):
            index = np.arange(start, min(start + _FD_CHUNK, flat.size))
            copies = 2 * index.size
            pairs = np.arange(0, copies, 2)
            stacked = np.tile(flat, (copies, 1))
            stacked[pairs, index] = flat[index] + _FD_STEP
            stacked[pairs + 1, index] = flat[index] - _FD_STEP
            p.value = stacked.reshape((copies,) + view.shape).view(_Copies)
            try:
                with tape.no_grad():
                    losses = _value(loss())
            finally:
                p.value = view
            if losses.shape not in ((), (copies,)):
                raise ValidationError(
                    f"grad_check: a rerun for {name!r} returned shape "
                    f"{losses.shape}, not one loss per copy ({copies},)")
            losses = np.broadcast_to(losses, (copies,))
            numeric = (losses[0::2] - losses[1::2]) / (2.0 * _FD_STEP)
            a = grads[index]
            rel = np.abs(a - numeric) / np.maximum(
                1.0, np.maximum(np.abs(a), np.abs(numeric)))
            worst = max(worst, float(np.where(np.isfinite(rel), rel, np.inf).max()))
        report.per_parameter[name] = worst
    return report
