"""The four visual encoding branches of a mixing block.

Each branch maps a feature map (..., H, W, C) to a same-shape map:

* :class:`ConvBranch` -- one SAME 3x3 convolution plus GELU.
* :class:`AttentionBranch` -- full multi-head self-attention over the
  flattened token sequence, in blocks of 64 query rows; without a tape the
  blocks run on raw arrays and divide the output, not the probabilities, by
  the row sums.
* :class:`ChannelMlpBranch` -- per-position two-layer channel MLP.
* :class:`SsmBranch` -- an input-conditioned diagonal state-space scan of
  the map's four directional traversals, stacked time-major as
  (..., H*W, 4, C) and scanned at once; the per-token terms (step, input
  and output vectors, decay and drive) are computed once on the grid and
  then reordered.  Inverse reordering and summation of the readouts, the
  skip term added once on the grid and a pointwise output mix follow.  The
  scan is the plain recurrence when no tape is recorded and a taped
  odd-even scan when one is.

Leading axes beyond (H, W, C) are treated as batch dimensions everywhere.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericsError, ShapeError
from .modules import Module, trunc_normal
from .tensor import (
    Tensor,
    add,
    concat,
    conv2d,
    exp,
    flip,
    gelu,
    matmul,
    mul,
    records,
    reshape,
    slice_,
    softmax,
    softplus,
    transpose,
)

__all__ = [
    "ConvBranch",
    "AttentionBranch",
    "ChannelMlpBranch",
    "SsmBranch",
    "cross_scan",
    "cross_merge",
    "linear_scan",
    "selective_scan",
]

# read only by bench/tracer.py's PRIMITIVE_TABLES; ConvBranch calls gelu directly
_ACTIVATIONS = {"gelu": gelu}


# -- directional unrolling ---------------------------------------------------


def cross_scan(v: Tensor) -> Tensor:
    """Unroll a (..., H, W, C) map into four 1-d traversals, stacked
    time-major as (..., H*W, 4, C): step t of all four is one contiguous block.

    Directions along the stacking axis: row-major; its reverse; column-major;
    its reverse.
    """
    if v.ndim < 3:
        raise ShapeError(f"cross_scan expects (..., H, W, C), got {v.shape}")
    *lead, h, w, c = v.shape
    seq_shape = (*lead, h * w, 1, c)
    rows = reshape(v, seq_shape)
    cols = reshape(transpose(v, (1, 0, 2)), seq_shape)
    return concat([rows, flip(rows, axis=-3), cols, flip(cols, axis=-3)], axis=-2)


def cross_merge(seqs: Tensor, h: int, w: int) -> Tensor:
    """Reorder the (..., H*W, 4, C) traversals of :func:`cross_scan` back onto
    the (..., H, W, C) grid and sum them."""
    if seqs.ndim < 3 or seqs.shape[-3:-1] != (h * w, 4):
        raise ShapeError(f"cross_merge expects (..., {h}*{w}, 4, C), got {seqs.shape}")
    *lead, t, _, c = seqs.shape
    # (row-major | column-major) x (forward | reversed)
    pairs = reshape(seqs, (*lead, t, 2, 2, c))
    both = add(slice_(pairs, -2, 0, 1), flip(slice_(pairs, -2, 1, 2), axis=-4))
    rows = reshape(slice_(both, -3, 0, 1), (*lead, h, w, c))
    cols = reshape(slice_(both, -3, 1, 2), (*lead, w, h, c))
    return add(rows, transpose(cols, (1, 0, 2)))


# -- linear recurrence -------------------------------------------------------


def linear_scan(decay: Tensor, x: Tensor) -> Tensor:
    """Inclusive scan of h_t = decay_t * h_{t-1} + x_t with h_0 = 0.

    Operands are (..., T, C, N) of one precision; time is the third axis from
    the end.  :func:`selective_scan` passes its four traversals time-major,
    as (..., T, 4*C, N), so one step of one map is one contiguous block.  The
    result is a fresh array, except that a recording call with T <= 1
    returns ``x`` itself (h = x there, and nothing writes into op outputs).

    A call that records no tape node (:func:`~mixssm.tensor.records`: under
    ``no_grad``, or when no operand requires grad) runs the recurrence as it
    reads, one step at a time on raw arrays (Mamba's recurrent mode, Gu & Dao
    2023, Sec. 3.3), and checks the result's finiteness once.  A recording
    call runs an odd-even (work-efficient) scan of vectorized, taped ops:
    adjacent steps are combined in pairs, the half-length sequence is scanned
    recursively, and the even steps are filled in from it.  Its work and tape
    stay O(T); the reassociated products match the recurrence up to roundoff.
    """
    if decay.shape != x.shape or x.ndim < 3:
        raise ShapeError(
            f"linear_scan: needs equal (..., T, C, N) shapes, got {decay.shape} and {x.shape}"
        )
    if decay.dtype != x.dtype:
        raise TypeError(f"linear_scan: mixed precisions {decay.dtype} and {x.dtype}")
    if records(decay, x):
        return _odd_even_scan(decay, x, x.ndim - 3)
    return Tensor(_recurrence(decay.data, x.data))


def _recurrence(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """h_t = a_t * h_{t-1} + b_t along axis -3, step by step, into a fresh array.

    Overflow is left to the caller's finiteness check.
    """
    out = np.empty(b.shape, dtype=b.dtype)
    # time-major views: iterating one walks its steps
    time_major = (b.ndim - 3, *range(b.ndim - 3), b.ndim - 2, b.ndim - 1)
    a_t, b_t, h = (arr.transpose(time_major) for arr in (a, b, out))
    if len(h):
        h[0] = b_t[0]
    with np.errstate(over="ignore", invalid="ignore"):
        for a_s, b_s, prev, step in zip(a_t[1:], b_t[1:], h, h[1:]):
            np.multiply(a_s, prev, out=step)
            np.add(step, b_s, out=step)
    return out


def _odd_even_scan(a: Tensor, b: Tensor, axis: int) -> Tensor:
    """Scan of h_t = a_t * h_{t-1} + b_t along ``axis``; the result has b's shape.

    The operands may carry a singleton axis right after time (the pair axis
    of the level above); the pair reshape folds it away.
    """
    t = b.shape[axis]
    if t <= 1:
        return b
    lead = b.shape[:axis]
    if t % 2:
        # one identity step (a=1, b=0) at the end makes T even; it is sliced off again
        pad_shape = (*lead, 1, *b.shape[axis + 1:])
        a = concat([a, Tensor(np.ones(pad_shape, dtype=a.dtype))], axis)
        padded = concat([b, Tensor(np.zeros(pad_shape, dtype=b.dtype))], axis)
        return slice_(_odd_even_scan(a, padded, axis), axis, 0, t)
    half = t // 2
    pair_shape = (*lead, half, 2, *b.shape[-2:])
    a_pairs, b_pairs = reshape(a, pair_shape), reshape(b, pair_shape)
    # (..., half, 1, C, N): the first and the second step of each pair
    a1 = slice_(a_pairs, axis + 1, 1, 2)
    b0, b1 = slice_(b_pairs, axis + 1, 0, 1), slice_(b_pairs, axis + 1, 1, 2)
    odd_b = add(mul(a1, b0), b1)
    if half == 1:
        # the only odd step is the pair itself; the even step has no predecessor
        h_even, h_odd = b0, odd_b
    else:
        a0 = slice_(a_pairs, axis + 1, 0, 1)
        h_odd = _odd_even_scan(mul(a1, a0), odd_b, axis)
        # each even step continues from the odd step before it (h = 0 before the first)
        zero = Tensor(np.zeros((*lead, 1, *h_odd.shape[axis + 1:]), dtype=b.dtype))
        before = concat([zero, slice_(h_odd, axis, 0, half - 1)], axis)
        h_even = add(mul(a0, before), b0)
    return reshape(concat([h_even, h_odd], axis + 1), b.shape)


def selective_scan(v: Tensor, params: "SsmBranch") -> Tensor:
    """Input-conditioned diagonal SSM over the four :func:`cross_scan`
    traversals of a (..., H, W, C) map; the result is the readouts, stacked
    time-major like the traversals as (..., H*W, 4, C), without the skip term.

    Along each traversal u_1..u_T (T = H*W), per channel c with state h in
    R^N and h_0 = 0:

        dt_t   = softplus(u_t @ W_dt + b_dt)            (per token, per channel)
        A_c    = -exp(a_log_c)                          (negative rates)
        Abar_t = exp(dt_t * A_c)                        (diagonal decay in [0, 1])
        h_t    = Abar_t * h_{t-1} + (dt_t * u_{t,c}) * B_t
        y_t,c  = <C_t, h_t>

    where B_t = u_t @ W_B and C_t = u_t @ W_C are per-token N-vectors.  The
    skip d_skip_c * u_{t,c} of each traversal is left to
    :class:`SsmBranch`: mapped back onto the grid the four are 4 * d_skip * v.

    dt, B, C, the decay and the drive depend on the token alone, not on the
    traversal, so they are computed once on the grid and only then
    reordered by :func:`cross_scan` (the trailing (C, N) viewed as C*N).
    The four directions are scanned as one time-major (..., T, 4*C, N)
    operand pair, so each recurrence step reads one contiguous block; the
    readout is (..., T, 4, C, N) @ (..., T, 4, N, 1).  The drive (dt_t * u_t) B_t^T
    and the readout h_t C_t are batched matmuls, not a broadcast multiply and
    a sum over the short trailing N axis: numpy runs such a sum and its
    broadcast backward with an N-element inner loop, while matmul and its two
    adjoints are batched matrix products.
    """
    # first, as cross_scan refuses anything but a (..., H, W, C) map
    c_seq = cross_scan(matmul(v, params.c_weight))
    *lead, h, w, c = v.shape
    t, n = h * w, params.state_dim

    dt = softplus(add(matmul(v, params.dt_weight), params.dt_bias))
    b_tok = matmul(v, params.b_weight)

    rates = mul(exp(params.a_log), params.minus_one)
    decay = exp(mul(reshape(dt, (*lead, h, w, c, 1)), rates))
    drive = matmul(reshape(mul(dt, v), (*lead, h, w, c, 1)), reshape(b_tok, (*lead, h, w, 1, n)))

    def traversals(grid: Tensor) -> Tensor:
        """(..., H, W, C, N) -> (..., T, 4*C, N): one scan step is one block."""
        return reshape(cross_scan(reshape(grid, (*lead, h, w, c * n))), (*lead, t, 4 * c, n))

    states = reshape(linear_scan(traversals(decay), traversals(drive)), (*lead, t, 4, c, n))
    read = matmul(states, reshape(c_seq, (*lead, t, 4, n, 1)))
    return reshape(read, (*lead, t, 4, c))


# -- branches ----------------------------------------------------------------


class ConvBranch(Module):
    """Shape-preserving SAME 3x3 convolution (kernel layout kh,kw,cin,cout) plus GELU."""

    def __init__(self, channels: int, *, rng: np.random.Generator, dtype=np.float32):
        self.weight = Tensor(
            trunc_normal(rng, (3, 3, channels, channels), dtype=dtype), requires_grad=True
        )
        self.bias = Tensor(np.zeros(channels, dtype=dtype), requires_grad=True)

    def __call__(self, v: Tensor) -> Tensor:
        return gelu(add(conv2d(v, self.weight), self.bias))


# query rows per attention block, on both paths: a (2, 64, 3136) float32
# block of stage-1 scores (1.6 MB) stays in a 2 MB L2; smaller blocks add
# op calls and loop steps
_QUERY_BLOCK = 64


def _attention(q: np.ndarray, k: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """softmax(q k^T) vals over the last two axes, ``_QUERY_BLOCK`` query rows
    at a time, into a fresh array.

    Each block's scores go into one buffer reused across blocks; a
    non-finite score raises :class:`NumericsError` (a -inf one would
    otherwise turn into probability 0).  The row max is subtracted and exp
    taken in place, and the unnormalized product with ``vals`` is written
    into the output rows, which are then divided by the row sums.
    """
    t = q.shape[-2]
    out = np.empty(q.shape[:-1] + vals.shape[-1:], dtype=q.dtype)
    keys = k.swapaxes(-1, -2)
    buffer = np.empty(q.shape[:-2] + (min(t, _QUERY_BLOCK), t), dtype=q.dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(0, t, _QUERY_BLOCK):
            rows = q[..., s : s + _QUERY_BLOCK, :]
            scores = buffer[..., : rows.shape[-2], :]
            np.matmul(rows, keys, out=scores)
            if not np.isfinite(scores).all():
                raise NumericsError("attention produced non-finite scores (overflow)")
            scores -= scores.max(axis=-1, keepdims=True)
            np.exp(scores, out=scores)
            mixed = out[..., s : s + _QUERY_BLOCK, :]
            np.matmul(scores, vals, out=mixed)
            mixed /= scores.sum(axis=-1, keepdims=True)
    return out


class AttentionBranch(Module):
    """Full (non-windowed) multi-head self-attention over the token grid.

    softmax(q k^T) v is computed for blocks of ``_QUERY_BLOCK`` (64) query
    rows, so no (heads, T, T) score array exists at once (Rabe & Staats
    2021, arXiv 2112.05682).  When the call records no tape node
    (:func:`~mixssm.tensor.records`), the blocks run on raw arrays in one
    reused score buffer and are normalized after the product with v: the
    (heads, rows, d) output is divided by the row sums, not the (heads,
    rows, T) probabilities (:func:`_attention`).  A recording call composes
    taped slice, matmul, softmax and concat ops, and its graph keeps every
    block's probabilities for backward.
    """

    def __init__(
        self,
        channels: int,
        heads: int,
        *,
        rng: np.random.Generator,
        dtype=np.float32,
    ):
        head_dim = channels // heads
        self.heads = heads
        self.head_dim = head_dim
        self.q_proj = Tensor(trunc_normal(rng, (heads, channels, head_dim), dtype=dtype), requires_grad=True)
        self.k_proj = Tensor(trunc_normal(rng, (heads, channels, head_dim), dtype=dtype), requires_grad=True)
        self.v_proj = Tensor(trunc_normal(rng, (heads, channels, head_dim), dtype=dtype), requires_grad=True)
        self.out_proj = Tensor(trunc_normal(rng, (channels, channels), dtype=dtype), requires_grad=True)
        self.scale = Tensor(np.asarray(1.0 / math.sqrt(head_dim), dtype=dtype))

    def __call__(self, v: Tensor) -> Tensor:
        if v.ndim < 3:
            raise ShapeError(f"AttentionBranch expects (..., H, W, C), got {v.shape}")
        *lead, h, w, c = v.shape
        t = h * w
        x = reshape(v, (*lead, 1, t, c))
        # scaling q, not the (heads, T, T) scores, saves a pass over the largest array
        q = mul(matmul(x, self.q_proj), self.scale)
        k = matmul(x, self.k_proj)
        vals = matmul(x, self.v_proj)
        if records(q, k, vals):
            keys = transpose(k, (1, 0))
            mixed = concat(
                [
                    matmul(softmax(matmul(slice_(q, -2, s, s + _QUERY_BLOCK), keys), axis=-1), vals)
                    for s in range(0, t, _QUERY_BLOCK)
                ],
                axis=-2,
            )
        else:
            mixed = Tensor(_attention(q.data, k.data, vals.data))
        merged = reshape(transpose(mixed, (1, 0, 2)), (*lead, t, self.heads * self.head_dim))
        return reshape(matmul(merged, self.out_proj), (*lead, h, w, c))


class ChannelMlpBranch(Module):
    """Per-position channel mixer: C -> 2C -> C, pure channel mixing."""

    def __init__(self, channels: int, *, rng: np.random.Generator, dtype=np.float32):
        hidden = 2 * channels
        self.w1 = Tensor(trunc_normal(rng, (channels, hidden), dtype=dtype), requires_grad=True)
        self.b1 = Tensor(np.zeros(hidden, dtype=dtype), requires_grad=True)
        self.w2 = Tensor(trunc_normal(rng, (hidden, channels), dtype=dtype), requires_grad=True)
        self.b2 = Tensor(np.zeros(channels, dtype=dtype), requires_grad=True)

    def __call__(self, v: Tensor) -> Tensor:
        # refused like the other branches' inputs, though it mixes each position alone
        if v.ndim < 3:
            raise ShapeError(f"ChannelMlpBranch expects (..., H, W, C), got {v.shape}")
        h = gelu(add(matmul(v, self.w1), self.b1))
        return add(matmul(h, self.w2), self.b2)


class SsmBranch(Module):
    """Cross-scan selective SSM branch.

    The four scan directions share one set of dt/B/C projections and one
    skip gain D, so their four skips D * u sum on the grid to 4 * D * v,
    which is added once to the merged readouts.  The diagonal rates are
    stored as ``a_log`` and used as A = -exp(a_log), so no finite parameter
    value gives a per-step decay above 1; ``a_log`` starts at log(1..N) per
    channel.  The dt bias is drawn so softplus lands in [1e-3, 1e-1].
    """

    def __init__(
        self,
        channels: int,
        state_dim: int = 8,
        *,
        rng: np.random.Generator,
        dtype=np.float32,
    ):
        self.state_dim = state_dim

        a_log = np.log(np.tile(np.arange(1.0, state_dim + 1.0), (channels, 1)))
        self.a_log = Tensor(a_log.astype(dtype), requires_grad=True)
        self.skip_gain = Tensor(np.ones(channels, dtype=dtype), requires_grad=True)

        dt_init = np.exp(rng.uniform(math.log(1e-3), math.log(1e-1), size=(channels,)))
        self.dt_weight = Tensor(trunc_normal(rng, (channels, channels), dtype=dtype), requires_grad=True)
        self.dt_bias = Tensor(np.log(np.expm1(dt_init)).astype(dtype), requires_grad=True)
        self.b_weight = Tensor(trunc_normal(rng, (channels, state_dim), dtype=dtype), requires_grad=True)
        self.c_weight = Tensor(trunc_normal(rng, (channels, state_dim), dtype=dtype), requires_grad=True)
        self.out_weight = Tensor(trunc_normal(rng, (channels, channels), dtype=dtype), requires_grad=True)
        self.out_bias = Tensor(np.zeros(channels, dtype=dtype), requires_grad=True)
        # scalar constants, built once; needing no grad, they are not parameters
        self.minus_one, self.four = (Tensor(np.asarray(s, dtype=dtype)) for s in (-1.0, 4.0))

    def __call__(self, v: Tensor) -> Tensor:
        read = selective_scan(v, self)  # first, as it refuses anything but a (..., H, W, C) map
        merged = add(cross_merge(read, *v.shape[-3:-1]), mul(v, mul(self.skip_gain, self.four)))
        return add(matmul(merged, self.out_weight), self.out_bias)
