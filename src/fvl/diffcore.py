"""Reverse-mode automatic differentiation over dense float64 arrays.

This is the numerical core the rest of the package trains on: a dynamic
tape that records one backward closure per primitive, replayed in reverse
order by :meth:`Tape.backward`.  It is deliberately small.  Supported
primitives are matrix products, a handful of elementwise functions
(add, sub, mul, sigmoid, tanh, relu), concatenation, row tiling,
transpose, full reductions, and two fused layer kernels that the model
path runs on row-stacked [B x n] batches:

    affine(x, W, b)     x @ W.T + b, one node
    gru_step(x, h, ...) one reset-before-candidate GRU update, one node

Each fused kernel has a closed-form backward, so a GRU step records one
tape node instead of a chain of about twenty.  Broadcasting is
restricted to exact shape match or scalar-with-array so every backward
rule stays auditable; the structural exceptions are :func:`tile_rows`
and the bias rows of the fused kernels, whose adjoints are row sums.

A primitive records through one entry point.  It checks its operands,
computes its forward value, and hands that value to ``_emit`` with a
``backward(g)`` function and the operands.  The first DiffArray operand
decides: if its tape is recording, the value becomes a new node whose
``backward`` receives the node's adjoint ``g`` during
:meth:`Tape.backward` and adds each operand's share through
``_accumulate``, which skips operands that are not DiffArrays.
Otherwise the bare ndarray is returned and nothing is recorded.

The tape is also the parameter registry: :attr:`Tape.params` holds the
named leaves in the order they were registered.

Gradient semantics follow the usual tape convention: leaf adjoints
accumulate across repeated :meth:`Tape.backward` calls, intermediate
adjoints are recomputed fresh on each call, and :meth:`Tape.reset`
clears the recording and zeroes every adjoint exactly.

Everything is float64.  A tape and the arrays it owns are confined to a
single thread; run one tape per worker if you want parallelism.
"""

from __future__ import annotations

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
    "gru_step",
    "sum_all",
    "mean_all",
    "grad_check",
]


class DiffArray:
    """A float64 array plus an adjoint buffer, registered on a tape.

    ``grad`` is allocated lazily so that forward-only evaluation never
    pays for adjoint storage.
    """

    __slots__ = ("value", "_grad", "tape", "is_leaf", "name")

    # Keep numpy from absorbing us in mixed expressions like `ndarray + leaf`;
    # returning NotImplemented routes those through our reflected operators.
    __array_ufunc__ = None

    def __init__(self, value: np.ndarray, tape: "Tape", is_leaf: bool,
                 name: str | None = None):
        self.value = value
        self._grad: np.ndarray | None = None
        self.tape = tape
        self.is_leaf = is_leaf
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = np.zeros(self.value.shape, dtype=np.float64)
        return self._grad

    @grad.setter
    def grad(self, value: np.ndarray) -> None:
        self._grad = value

    def zero_grad(self) -> None:
        if self._grad is not None:
            self._grad[...] = 0.0

    def __repr__(self) -> str:
        tag = self.name or ("leaf" if self.is_leaf else "node")
        return f"DiffArray({tag}, shape={self.shape})"

    # Arithmetic sugar; delegates to the module-level primitives.
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return mul(self, -1.0)


class Tape:
    """Ordered record of primitive applications for one forward pass.

    Leaves (parameters) persist across passes; intermediates belong to
    the current recording and are discarded on :meth:`reset`.
    """

    def __init__(self):
        self._leaves: list[DiffArray] = []
        # (node, backward) per recorded primitive, in forward order
        self._ops: list[tuple[DiffArray, object]] = []
        self.recording = True

    def leaf(self, value, name: str | None = None) -> DiffArray:
        """Register a persistent differentiable array (a parameter)."""
        node = DiffArray(np.array(value, dtype=np.float64), self,
                         is_leaf=True, name=name)
        self._leaves.append(node)
        return node

    @property
    def params(self) -> dict[str, DiffArray]:
        """The named leaves by name, in registration order."""
        return {p.name: p for p in self._leaves if p.name is not None}

    def _node(self, value: np.ndarray, backward) -> DiffArray:
        """Record an intermediate; :meth:`backward` calls ``backward(g)``
        with its adjoint ``g``."""
        node = DiffArray(value, self, is_leaf=False)
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
            node.zero_grad()
        loss.grad[...] += 1.0
        for node, backward in reversed(self._ops):
            backward(node.grad)

    def reset(self) -> None:
        """Drop the recording and restore every adjoint to exactly zero."""
        for node in self._leaves:
            node.zero_grad()
        self._ops.clear()


def _value(x) -> np.ndarray:
    if isinstance(x, DiffArray):
        return x.value
    return np.asarray(x, dtype=np.float64)


def _emit(value: np.ndarray, backward, *operands):
    """Record one primitive application; the single entry point.

    The first DiffArray among ``operands`` decides: if its tape is
    recording, ``value`` becomes a node on it whose adjoint reaches
    ``backward(g)``; otherwise, or with no DiffArray operand, the bare
    ndarray is returned.
    """
    for a in operands:
        if isinstance(a, DiffArray):
            return a.tape._node(value, backward) if a.tape.recording else value
    return value


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


def _check_elementwise(av: np.ndarray, bv: np.ndarray, op: str) -> None:
    if av.shape != bv.shape and av.shape != () and bv.shape != ():
        raise DimensionError(
            f"{op}: shapes {av.shape} and {bv.shape} are neither equal "
            f"nor scalar-with-array")


def add(a, b):
    av, bv = _value(a), _value(b)
    _check_elementwise(av, bv, "add")

    def backward(g):
        _accumulate(a, g)
        _accumulate(b, g)

    return _emit(av + bv, backward, a, b)


def sub(a, b):
    av, bv = _value(a), _value(b)
    _check_elementwise(av, bv, "sub")

    def backward(g):
        _accumulate(a, g)
        _accumulate(b, -g)

    return _emit(av - bv, backward, a, b)


def mul(a, b):
    av, bv = _value(a), _value(b)
    _check_elementwise(av, bv, "mul")

    def backward(g):
        _accumulate(a, g * bv)
        _accumulate(b, g * av)

    return _emit(av * bv, backward, a, b)


def _sigmoid_value(xv: np.ndarray) -> np.ndarray:
    """Stable logistic function: 1 / (1 + exp(-x)) for x >= 0 and
    exp(x) / (1 + exp(x)) below, evaluated with one exp(-|x|) that
    cannot overflow, so the result is finite for any float input."""
    e = np.exp(-np.abs(xv))
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
    if av.ndim != 2 or bv.ndim not in (1, 2):
        raise DimensionError(
            f"matmul supports [m x k] @ [k] or [m x k] @ [k x n], "
            f"got shapes {av.shape} and {bv.shape}")
    if av.shape[1] != bv.shape[0]:
        raise DimensionError(
            f"matmul inner dimensions differ: {av.shape} vs {bv.shape}")

    def backward(g):
        _accumulate(a, g @ bv.T if bv.ndim == 2 else np.outer(g, bv))
        _accumulate(b, av.T @ g)

    return _emit(av @ bv, backward, a, b)


def concat_last(a, b):
    """Concatenate along the last axis (two vectors, or two matrices with
    equal row counts)."""
    av, bv = _value(a), _value(b)
    if av.ndim != bv.ndim or av.ndim not in (1, 2):
        raise DimensionError(
            f"concat_last needs two 1-d or two 2-d arrays, got shapes "
            f"{av.shape} and {bv.shape}")
    if av.ndim == 2 and av.shape[0] != bv.shape[0]:
        raise DimensionError(
            f"concat_last row counts differ: {av.shape} vs {bv.shape}")
    split = av.shape[-1]

    def backward(g):
        _accumulate(a, g[..., :split])
        _accumulate(b, g[..., split:])

    return _emit(np.concatenate([av, bv], axis=-1), backward, a, b)


def tile_rows(x, count: int):
    """Stack `count` copies of a vector into a matrix.

    The adjoint of a row tiling is the sum over rows, stated here
    explicitly instead of relying on implicit broadcasting.
    """
    xv = _value(x)
    if xv.ndim != 1:
        raise DimensionError(f"tile_rows expects a vector, got shape {xv.shape}")
    if count < 1:
        raise ValidationError(f"tile_rows count must be >= 1, got {count}")

    def backward(g):
        _accumulate(x, g.sum(axis=0))

    return _emit(np.tile(xv, (count, 1)), backward, x)


def transpose(x):
    xv = _value(x)
    if xv.ndim != 2:
        raise DimensionError(f"transpose expects a matrix, got shape {xv.shape}")

    def backward(g):
        _accumulate(x, g.T)

    return _emit(xv.T.copy(), backward, x)


def affine(x, w, b):
    """Row-stacked affine map ``x @ w.T + b`` for x [B x in], w [out x in]
    and b [out], recorded as one node."""
    xv, wv, bv = _value(x), _value(w), _value(b)
    if (xv.ndim != 2 or wv.ndim != 2 or xv.shape[1] != wv.shape[1]
            or bv.shape != wv.shape[:1]):
        raise DimensionError(
            f"affine expects x [B x in], W [out x in] and b [out], got "
            f"shapes {xv.shape}, {wv.shape} and {bv.shape}")

    def backward(g):
        _accumulate(x, g @ wv)
        _accumulate(w, g.T @ xv)
        _accumulate(b, g.sum(axis=0))

    return _emit(xv @ wv.T + bv, backward, x, w, b)


def gru_step(x, h, w_update, w_reset, w_cand, b_update, b_reset, b_cand):
    """One reset-before-candidate GRU update over row-stacked batches.

    With xh = [x, h] and xrh = [x, r * h]:

        z = sigmoid(xh @ w_update.T + b_update)
        r = sigmoid(xh @ w_reset.T + b_reset)
        c = tanh(xrh @ w_cand.T + b_cand)
        out = (1 - z) * h + z * c

    x is [B x in], h is [B x hidden], each weight [hidden x (in + hidden)]
    and each bias [hidden].  The whole update is one node whose backward
    is the closed-form adjoint of the lines above.
    """
    xv, hv = _value(x), _value(h)
    wz, wr, wc = _value(w_update), _value(w_reset), _value(w_cand)
    bz, br, bc = _value(b_update), _value(b_reset), _value(b_cand)
    if xv.ndim != 2 or hv.ndim != 2 or xv.shape[0] != hv.shape[0]:
        raise DimensionError(
            f"gru_step expects x [B x in] and h [B x hidden], got shapes "
            f"{xv.shape} and {hv.shape}")
    n_in, hidden = xv.shape[1], hv.shape[1]
    if not (wz.shape == wr.shape == wc.shape == (hidden, n_in + hidden)
            and bz.shape == br.shape == bc.shape == (hidden,)):
        raise DimensionError(
            f"gru_step weights must be [{hidden} x {n_in + hidden}] and biases "
            f"[{hidden}], got {wz.shape}, {wr.shape}, {wc.shape} and "
            f"{bz.shape}, {br.shape}, {bc.shape}")
    xh = np.concatenate([xv, hv], axis=1)
    z = _sigmoid_value(xh @ wz.T + bz)
    r = _sigmoid_value(xh @ wr.T + br)
    xrh = np.concatenate([xv, r * hv], axis=1)
    c = np.tanh(xrh @ wc.T + bc)

    def backward(g):
        d_cand = g * z * (1.0 - c * c)
        d_xrh = d_cand @ wc
        d_rh = d_xrh[:, n_in:]
        d_update = g * (c - hv) * z * (1.0 - z)
        d_reset = d_rh * hv * r * (1.0 - r)
        d_xh = d_update @ wz + d_reset @ wr
        _accumulate(x, d_xh[:, :n_in] + d_xrh[:, :n_in])
        _accumulate(h, d_xh[:, n_in:] + d_rh * r + g * (1.0 - z))
        _accumulate(w_update, d_update.T @ xh)
        _accumulate(w_reset, d_reset.T @ xh)
        _accumulate(w_cand, d_cand.T @ xrh)
        _accumulate(b_update, d_update.sum(axis=0))
        _accumulate(b_reset, d_reset.sum(axis=0))
        _accumulate(b_cand, d_cand.sum(axis=0))

    return _emit((1.0 - z) * hv + z * c, backward,
                 x, h, w_update, w_reset, w_cand, b_update, b_reset, b_cand)


def sum_all(x):
    """Sum of all elements, as a 0-d scalar."""

    def backward(g):
        _accumulate(x, g)

    return _emit(np.asarray(_value(x).sum()), backward, x)


def mean_all(x):
    """Mean of all elements, as a 0-d scalar."""
    xv = _value(x)
    n = xv.size

    def backward(g):
        _accumulate(x, g / n)

    return _emit(np.asarray(xv.sum() / n), backward, x)


@dataclass
class GradCheckReport:
    """Per-parameter agreement between analytic adjoints and central
    finite differences.  Relative error is |a - n| / max(1, |a|, |n|)."""

    step: float
    tolerance: float
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
        return self.max_rel_error < self.tolerance

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        lines = [f"gradient check: {status} "
                 f"(max rel err {self.max_rel_error:.3e}, tol {self.tolerance:.1e})"]
        width = max((len(n) for n in self.per_parameter), default=0)
        for name, err in sorted(self.per_parameter.items()):
            lines.append(f"  {name:<{width}}  {err:.3e}")
        return "\n".join(lines)


def grad_check(f, params, step: float = 1e-6,
               tolerance: float = 1e-4) -> GradCheckReport:
    """Compare analytic gradients of ``f`` against central finite differences.

    ``f`` takes no arguments, reads the given parameter leaves, and returns
    a scalar loss.  ``params`` is a mapping of names to leaves, such as
    ``Tape.params``.  Parameter values are perturbed in place and restored
    bit-exactly.  The caller is responsible for keeping relu inputs away
    from their kink; points within finite-difference reach of 0 make the
    numeric estimate meaningless.
    """
    if step <= 0:
        raise ValidationError(f"finite-difference step must be positive, got {step}")
    if not params:
        raise ValidationError("grad_check needs at least one parameter")
    tape = next(iter(params.values())).tape

    tape.reset()
    loss = f()
    tape.backward(loss)
    analytic = {name: p.grad.copy() for name, p in params.items()}
    tape.reset()

    report = GradCheckReport(step=step, tolerance=tolerance)
    for name, p in params.items():
        flat = p.value.reshape(-1)
        grads = analytic[name].reshape(-1)
        worst = 0.0
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + step
            with tape.no_grad():
                loss_plus = float(_value(f()))
            flat[i] = original - step
            with tape.no_grad():
                loss_minus = float(_value(f()))
            flat[i] = original
            numeric = (loss_plus - loss_minus) / (2.0 * step)
            a = grads[i]
            rel = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            if rel > worst:
                worst = rel
        report.per_parameter[name] = worst
    return report
