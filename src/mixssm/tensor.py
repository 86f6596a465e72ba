"""Dense N-dimensional arrays with reverse-mode differentiation.

Values live in numpy arrays, in one of two precisions chosen at
construction time: float32 for training and inference, float64 for gradient
checking.  Overflow or a domain error surfaces as :class:`NumericsError`
instead of propagating NaN/Inf: every op whose finite inputs can give a
non-finite result checks its result in one pass.  Ten ops cannot, so they skip
it: every output element of reshape, transpose, slice, concat, flip,
maximum and reduce_max is an input element, softmax outputs lie in [0, 1],
|gelu(x)| <= |x|, and softplus(x) <= max(x, 0) + log 2
(``_FINITE_PRESERVING``).  An overflowing op still lets numpy emit its
``RuntimeWarning`` before the check raises, unless the op silences it
(exp, log, sqrt, softmax) or the caller does: ``cli.main``, ``train`` and
``evaluate`` run under ``np.errstate``, so under ``python -W error`` they
still end in :class:`NumericsError`, while a direct ``add``, ``mul`` or
``matmul`` call raises the warning first.
The structural ops make views, not copies: reshape and transpose numpy views,
slice and flip basic slices (flip steps by -1); only concat copies.  The
backward rules of transpose, flip and concat return views of the gradient.
An op output may thus share memory with its inputs, so nothing writes into one.

When any input of a primitive has ``requires_grad`` outside a
:func:`no_grad` block (:func:`records`), a :class:`TapeNode` is recorded;
:meth:`Tensor.backward` replays the recorded graph in reverse topological
order, releasing each node once its rule has run, and accumulates
gradients on the leaves.  A graph is walked once; leaf grads
accumulate across graphs until cleared.

Broadcasting follows numpy's trailing-axis rule and nothing more: aligned
from the right, each axis pair must match or one of them must be 1.  Numpy
enforces it, and concat's shape rule; its error surfaces as a ShapeError
naming the op.  Precision is checked once, on every op's result: an input
whose dtype differs from the output's (a float32/float64 mix) raises TypeError.
A gradient has its tensor's dtype: each backward rule computes in the incoming
gradient's, so a float32 model backpropagates in float32 and nothing casts back.
"""

from __future__ import annotations

import itertools
import math
import threading
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

import numpy as np
from scipy.special import erf as _erf
from scipy.special import expit as _sigmoid

from .errors import NumericsError, ShapeError

__all__ = [
    "Tensor",
    "TapeNode",
    "no_grad",
    "records",
    "add",
    "mul",
    "matmul",
    "conv2d",
    "reshape",
    "transpose",
    "slice_",
    "concat",
    "flip",
    "exp",
    "log",
    "sqrt",
    "softplus",
    "gelu",
    "layer_norm",
    "softmax",
    "reduce_sum",
    "reduce_mean",
    "reduce_max",
    "maximum",
]

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)

class _GradMode(threading.local):
    """Per-thread recording switch, so concurrent forwards stay independent."""

    enabled = True


_grad_mode = _GradMode()


@contextmanager
def no_grad() -> Iterator[None]:
    """Disable tape recording inside the block (inference / oracle evals)."""
    prev = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = prev


def records(*inputs: "Tensor") -> bool:
    """Whether an op on ``inputs`` records a tape node: recording is on in
    this thread (no :func:`no_grad` block) and some input requires grad."""
    return _grad_mode.enabled and any(inp.requires_grad for inp in inputs)


class TapeNode:
    """One recorded primitive: op name, input tensors and the backward rule.

    ``backward_fn`` maps the output gradient to one gradient per input.
    Saved intermediates live in the closure of ``backward_fn``.
    """

    __slots__ = ("op", "inputs", "backward_fn")

    def __init__(
        self,
        op: str,
        inputs: tuple["Tensor", ...],
        backward_fn: Callable[[np.ndarray], tuple],
    ):
        self.op = op
        self.inputs = inputs
        self.backward_fn = backward_fn


# the node of a tensor whose graph a backward walk has consumed
_RELEASED = TapeNode("released", (), None)


class Tensor:
    """N-dimensional array of finite floats with optional gradient."""

    __slots__ = ("data", "requires_grad", "grad", "node")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if dtype is None:
            probe = np.asarray(data)
            dtype = probe.dtype if probe.dtype in _FLOAT_DTYPES else np.float32
        dtype = np.dtype(dtype)
        if dtype not in _FLOAT_DTYPES:
            raise TypeError(f"tensor dtype must be float32 or float64, got {dtype}")
        # leaves are C-contiguous: the finite-difference check perturbs
        # parameters in place through the view ``p.data.reshape(-1)``
        arr = np.asarray(data, dtype=dtype, order="C")
        if not np.isfinite(arr).all():
            raise NumericsError("tensor created from non-finite values")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.node: TapeNode | None = None

    # -- inspection ------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() requires a scalar tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype}, requires_grad={self.requires_grad})"

    # -- autograd ---------------------------------------------------------

    def backward(self) -> None:
        """Populate ``grad`` on every reachable leaf with d(self)/d(leaf).

        ``self`` must be scalar; every gradient has its tensor's dtype.  A graph
        is walked once; leaf grads accumulate across graphs until cleared.  A walk
        into a released node raises ``RuntimeError`` before writing any gradient;
        a tapeless root leaves grads absent.
        """
        if self.size != 1:
            raise ShapeError(f"backward requires a scalar loss, got shape {self.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            t, expanded = stack.pop()
            if t.node is _RELEASED:
                raise RuntimeError("backward reached a graph that an earlier backward released")
            if expanded:
                topo.append(t)
            elif t.node is not None and id(t) not in seen:
                seen.add(id(t))
                stack.append((t, True))
                stack.extend((inp, False) for inp in t.node.inputs)
        if not topo:
            return

        # in-flight gradients ride on grad slots; every node here lies on a path to self
        self.grad = np.ones_like(self.data)
        while topo:
            t = topo.pop()
            node, g = t.node, t.grad
            t.node, t.grad = _RELEASED, None
            for inp, ig in zip(node.inputs, node.backward_fn(g)):
                if inp.requires_grad:
                    inp.grad = ig if inp.grad is None else inp.grad + ig


# -- wiring helpers --------------------------------------------------------

# The ops whose result is finite whenever their inputs are (module docstring).
# Skipping their check is safe because every op input is finite, by
# induction: leaves are checked in ``Tensor.__init__``, checkpoint payloads
# in ``load_checkpoint``, and every other op checks its own result.  A value
# written into a leaf in place escapes the first check; it surfaces at the
# first op outside this set that it reaches.
_FINITE_PRESERVING = frozenset(
    {"reshape", "transpose", "slice", "concat", "flip", "maximum", "reduce_max", "softmax",
     "gelu", "softplus"}
)


def _result(op: str, out: np.ndarray, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
    # one walk over the inputs checks their precision and applies :func:`records`
    record = False
    for inp in inputs:
        if inp.data.dtype != out.dtype:
            raise TypeError(f"{op}: mixed precisions {inp.data.dtype} and {out.dtype} in one graph")
        record = record or inp.requires_grad
    if op not in _FINITE_PRESERVING and not np.isfinite(out).all():
        raise NumericsError(f"{op} produced non-finite values (overflow or domain error)")
    t = Tensor.__new__(Tensor)
    t.data = out
    t.grad = None
    t.requires_grad = record = record and _grad_mode.enabled
    t.node = TapeNode(op, inputs, backward_fn) if record else None
    return t


def _binary(op: str, fn, a: Tensor, b: Tensor) -> np.ndarray:
    """``fn(a.data, b.data)``, with numpy's shape error as a :class:`ShapeError`."""
    try:
        return fn(a.data, b.data)
    except ValueError as exc:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not match") from exc


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of trailing-axis broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    keep = tuple(ax for ax, d in enumerate(shape) if d == 1 and g.shape[ax] != 1)
    if keep:
        g = g.sum(axis=keep, keepdims=True)
    return g


def _axis(op: str, axis: int, ndim: int) -> int:
    """``axis`` as an index in [0, ndim); anything outside [-ndim, ndim) raises."""
    if not -ndim <= axis < ndim:
        raise ShapeError(f"{op}: axis {axis} is out of range for a {ndim}-d input")
    return axis % ndim


def _normalize_axes(op: str, axis, ndim: int) -> tuple[int, ...]:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    out = tuple(sorted(_axis(op, a, ndim) for a in axis))
    if len(set(out)) != len(out):
        raise ShapeError(f"{op}: duplicate reduction axes {axis}")
    return out


# -- arithmetic -------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    out = _binary("add", np.add, a, b)
    a_shape, b_shape = a.shape, b.shape

    def backward(g):
        return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)

    return _result("add", out, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = _binary("mul", np.multiply, a, b)
    a_data, b_data = a.data, b.data

    def backward(g):
        return _unbroadcast(g * b_data, a_data.shape), _unbroadcast(g * a_data, b_data.shape)

    return _result("mul", out, (a, b), backward)


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise max; ties split the gradient evenly between operands."""
    out = _binary("maximum", np.maximum, a, b)
    a_data, b_data = a.data, b.data

    def backward(g):
        tie = np.multiply(a_data == b_data, 0.5, dtype=g.dtype)
        ga = g * ((a_data > b_data) + tie)
        gb = g * ((b_data > a_data) + tie)
        return _unbroadcast(ga, a_data.shape), _unbroadcast(gb, b_data.shape)

    return _result("maximum", out, (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul requires >=2-d operands, got {a.shape} @ {b.shape}")
    out = _binary("matmul", np.matmul, a, b)
    a_data, b_data = a.data, b.data

    def backward(g):
        ga = _unbroadcast(g @ b_data.swapaxes(-1, -2), a_data.shape)
        gb = _unbroadcast(a_data.swapaxes(-1, -2) @ g, b_data.shape)
        return ga, gb

    return _result("matmul", out, (a, b), backward)


# -- structural ops ----------------------------------------------------------


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    try:
        out = x.data.reshape(shape)
    except ValueError as exc:
        raise ShapeError(f"reshape: cannot view {x.shape} as {shape}") from exc
    x_shape = x.shape

    def backward(g):
        return (g.reshape(x_shape),)

    return _result("reshape", out, (x,), backward)


def transpose(x: Tensor, axes: Sequence[int]) -> Tensor:
    """Permute the trailing ``len(axes)`` axes of ``x``, numbered from 0; the
    leading axes stay, so ``(1, 0)`` swaps the last two axes of any tensor."""
    axes = tuple(axes)
    lead = x.ndim - len(axes)
    if lead < 0 or sorted(axes) != list(range(len(axes))):
        raise ShapeError(f"transpose: axes {axes} do not permute trailing axes of {x.shape}")
    full = tuple(range(lead)) + tuple(lead + a for a in axes)
    out = x.data.transpose(full)
    inverse = tuple(sorted(range(len(full)), key=full.__getitem__))

    def backward(g):
        return (g.transpose(inverse),)

    return _result("transpose", out, (x,), backward)


def slice_(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    """Entries ``start:stop`` of ``x`` along ``axis``."""
    axis = _axis("slice", axis, x.ndim)
    key = (slice(None),) * axis + (slice(start, stop),)
    out = x.data[key]
    x_shape = x.shape

    def backward(g):
        gx = np.zeros(x_shape, dtype=g.dtype)
        gx[key] = g
        return (gx,)

    return _result("slice", out, (x,), backward)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    tensors = tuple(tensors)
    try:
        out = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError as exc:
        shapes = [t.shape for t in tensors]
        raise ShapeError(f"concat: shapes {shapes} do not join on axis {axis}") from exc
    ends = list(itertools.accumulate(t.shape[axis] for t in tensors[:-1]))

    def backward(g):
        return np.split(g, ends, axis=axis)

    return _result("concat", out, tensors, backward)


def flip(x: Tensor, axis: int) -> Tensor:
    key = (slice(None),) * _axis("flip", axis, x.ndim) + (slice(None, None, -1),)
    out = x.data[key]

    def backward(g):
        return (g[key],)

    return _result("flip", out, (x,), backward)


# -- elementwise nonlinearities ----------------------------------------------


def exp(x: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        out = np.exp(x.data)

    def backward(g):
        return (g * out,)

    return _result("exp", out, (x,), backward)


def log(x: Tensor) -> Tensor:
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(x.data)
    x_data = x.data

    def backward(g):
        return (g / x_data,)

    return _result("log", out, (x,), backward)


def sqrt(x: Tensor) -> Tensor:
    with np.errstate(invalid="ignore"):
        out = np.sqrt(x.data)

    def backward(g):
        return (g * (0.5 / out),)

    return _result("sqrt", out, (x,), backward)


def softplus(x: Tensor) -> Tensor:
    out = np.logaddexp(np.zeros((), dtype=x.dtype), x.data)
    x_data = x.data

    def backward(g):
        return (g * _sigmoid(x_data),)

    return _result("softplus", out, (x,), backward)


def gelu(x: Tensor) -> Tensor:
    """Exact (erf-based) GELU."""
    x_data = x.data
    cdf = 0.5 * (1.0 + _erf(x_data * _INV_SQRT2))
    out = x_data * cdf

    def backward(g):
        pdf = np.exp(-0.5 * x_data * x_data) * _INV_SQRT2PI
        return (g * (cdf + x_data * pdf),)

    return _result("gelu", out, (x,), backward)


# -- normalization and reductions ---------------------------------------------


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize over the trailing (channel) axis with learnable scale/shift;
    the variance is offset by 1e-5."""
    c = x.shape[-1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(
            f"layer_norm: scale/shift shapes {gamma.shape}/{beta.shape} do not match channels {c}"
        )
    # sums divided by c, which numpy's ``mean`` computes bit for bit, without its Python layer
    mean = x.data.sum(axis=-1, keepdims=True) / c
    centered = x.data - mean
    var = (centered * centered).sum(axis=-1, keepdims=True) / c
    inv_std = 1.0 / np.sqrt(var + 1e-5)
    xhat = centered * inv_std
    out = gamma.data * xhat + beta.data
    gamma_data = gamma.data
    lead = tuple(range(x.ndim - 1))

    def backward(g):
        dbeta = g.sum(axis=lead)
        dgamma = (g * xhat).sum(axis=lead)
        dxhat = g * gamma_data
        m1 = dxhat.sum(axis=-1, keepdims=True) / c
        m2 = (dxhat * xhat).sum(axis=-1, keepdims=True) / c
        dx = inv_std * (dxhat - m1 - xhat * m2)
        return dx, dgamma, dbeta

    return _result("layer_norm", out, (x, gamma, beta), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Max-subtracted softmax along ``axis``; inputs that span more than the
    float range shift to -inf and get probability 0."""
    axis = _axis("softmax", axis, x.ndim)
    # one fresh array, exponentiated and normalized in place
    with np.errstate(over="ignore"):
        out = x.data - x.data.max(axis=axis, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)

    def backward(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return ((g - inner) * out,)

    return _result("softmax", out, (x,), backward)


def reduce_sum(x: Tensor, axis=None) -> Tensor:
    axes = _normalize_axes("reduce_sum", axis, x.ndim)
    out = x.data.sum(axis=axes)
    x_shape = x.shape

    def backward(g):
        return (np.broadcast_to(np.expand_dims(g, axes), x_shape),)

    return _result("reduce_sum", out, (x,), backward)


def reduce_mean(x: Tensor, axis=None) -> Tensor:
    axes = _normalize_axes("reduce_mean", axis, x.ndim)
    count = math.prod(x.shape[ax] for ax in axes)
    out = x.data.sum(axis=axes) / count  # bitwise numpy's mean (see layer_norm)
    x_shape = x.shape

    def backward(g):
        return (np.broadcast_to(np.expand_dims(g / count, axes), x_shape),)

    return _result("reduce_mean", out, (x,), backward)


def reduce_max(x: Tensor, axis=None) -> Tensor:
    """Max reduction; the gradient splits evenly among tied maxima."""
    axes = _normalize_axes("reduce_max", axis, x.ndim)
    kept = x.data.max(axis=axes, keepdims=True)
    out = kept.reshape(tuple(d for ax, d in enumerate(x.shape) if ax not in axes))
    x_data = x.data

    def backward(g):
        mask = (x_data == kept).astype(x_data.dtype)
        ties = mask.sum(axis=axes, keepdims=True)
        return (mask * (g.reshape(kept.shape) / ties),)

    return _result("reduce_max", out, (x,), backward)


def conv2d(x: Tensor, w: Tensor) -> Tensor:
    """Stride-1 2-D convolution over the two axes before the trailing channel
    axis, zero-padded so the output keeps the input's H x W.

    ``x``: (..., H, W, C_in).  A (kh, kw, C_in, C_out) kernel is dense, a
    (kh, kw, 1, C_in) kernel depthwise (at C_in = 1 the two are the same sum);
    any other shape raises :class:`ShapeError`.  An even kernel side puts its
    extra row or column of padding after the map.  There is no bias: a layer
    adds its own.
    """
    if x.ndim < 3:
        raise ShapeError(f"conv2d: input must be at least 3-d, got {x.shape}")
    if w.ndim != 4:
        raise ShapeError(f"conv2d: kernel must be 4-d (kh, kw, cin, cout), got {w.shape}")

    h, wdt, cin = x.shape[-3:]
    kh, kw, kin, cout = w.shape
    # per tap: the contraction of a window xs with kernel slice k, and its two adjoints
    if kin == cin:
        def apply(xs, k): return xs @ k
        def grad_x(g, k): return g @ k.T
        def grad_k(xs, g): return np.tensordot(xs, g, axes=([0, 1, 2], [0, 1, 2]))
    elif (kin, cout) == (1, cin):
        def apply(xs, k): return xs * k[0]
        def grad_x(g, k): return g * k[0]
        def grad_k(xs, g): return (xs * g).sum(axis=(0, 1, 2))
    else:
        raise ShapeError(f"conv2d: kernel {w.shape} is neither dense nor depthwise for {cin} channels")

    pt, pl = (kh - 1) // 2, (kw - 1) // 2
    xb = x.data.reshape((-1, h, wdt, cin))
    inner = (slice(None), slice(pt, pt + h), slice(pl, pl + wdt))
    xp = np.zeros((xb.shape[0], h + kh - 1, wdt + kw - 1, cin), dtype=x.dtype)
    xp[inner] = xb
    w_data = w.data
    # (kernel index, the window of the padded map that tap reads)
    taps = [((m, n), (slice(None), slice(m, m + h), slice(n, n + wdt)))
            for m in range(kh) for n in range(kw)]
    out = np.zeros((xb.shape[0], h, wdt, cout), dtype=x.dtype)
    for k, window in taps:
        out += apply(xp[window], w_data[k])
    x_shape = x.shape

    def backward(g):
        gb4 = g.reshape((-1, h, wdt, cout))
        gxp = np.zeros_like(xp, dtype=g.dtype)
        gw = np.zeros_like(w_data, dtype=g.dtype)
        for k, window in taps:
            gw[k] = grad_k(xp[window], gb4)
            gxp[window] += grad_x(gb4, w_data[k])
        return gxp[inner].reshape(x_shape), gw

    return _result("conv2d", out.reshape(x_shape[:-1] + (cout,)), (x, w), backward)
