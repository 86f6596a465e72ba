"""The four visual encoding branches of a mixing block.

Each branch maps a feature map (..., H, W, C) to a same-shape map:

* :class:`ConvBranch` -- one SAME 3x3 convolution plus GELU.
* :class:`AttentionBranch` -- full multi-head self-attention over the
  flattened token sequence, in blocks of 64 query rows.
* :class:`ChannelMlpBranch` -- per-position two-layer channel MLP.
* :class:`SsmBranch` -- an input-conditioned diagonal state-space scan of
  the map's four directional traversals, scanned at once
  (:func:`selective_scan`), merged back onto the grid, plus a skip term and
  a pointwise output mix.

The public SSM functions (:func:`cross_scan`, :func:`cross_merge`,
:func:`linear_scan`, :func:`selective_scan`) compose taped ops, recorded or
not.  Raw arrays run only inside the two branch calls that record no tape
node (:func:`~mixssm.tensor.records`): the whole SSM branch as :func:`_ssm`,
the one raw SSM kernel, and attention's blocked softmax core as
:func:`_attention` (its q/k/v and output projections stay tensor ops).

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
    result is a fresh array, except that T <= 1 returns ``x`` itself (h = x
    there, and nothing writes into op outputs).

    Every call, recorded or not, runs an odd-even (work-efficient) scan of
    vectorized, taped ops: adjacent steps are combined in pairs, the
    half-length sequence is scanned recursively, and the even steps are
    filled in from it.  Its work and tape stay O(T); the reassociated
    products match the sequential recurrence up to roundoff.  A tape-free
    :class:`SsmBranch` call does not come here: :func:`_ssm` runs the
    recurrence step by step (Mamba's recurrent mode, Gu & Dao 2023, Sec. 3.3).
    """
    if decay.shape != x.shape or x.ndim < 3:
        raise ShapeError(
            f"linear_scan: needs equal (..., T, C, N) shapes, got {decay.shape} and {x.shape}"
        )
    if decay.dtype != x.dtype:
        raise TypeError(f"linear_scan: mixed precisions {decay.dtype} and {x.dtype}")
    return _odd_even_scan(decay, x, x.ndim - 3)


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
    at a time (scores in one reused buffer), into a fresh array: one product
    with ``vals`` plus a ones column gives weighted and row sums, divided.

    Scores lie in [-B, B], B = max|q_i| * max|k_j| (Cauchy-Schwarz).  If B <=
    log(largest float) / 2, every exp(score) and row sum is finite and nonzero,
    so a first pass skips the max shift.  Over the bound, or if its output is
    not finite, a second pass subtracts each row max first; there a non-finite
    score raises :class:`NumericsError` (a -inf one would become probability 0).
    """
    t, d = q.shape[-2], vals.shape[-1]
    out = np.empty(q.shape[:-1] + (d,), dtype=q.dtype)
    keys = k.swapaxes(-1, -2)
    extended = np.concatenate([vals, np.ones_like(vals[..., :1])], axis=-1)
    buffer = np.empty(q.shape[:-2] + (min(t, _QUERY_BLOCK), t), dtype=q.dtype)
    sums = np.empty(buffer.shape[:-1] + (d + 1,), dtype=q.dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        # squared norms: an overflow or NaN fails the test and skips to the shifted pass
        bound = np.log(np.finfo(q.dtype).max) / 2
        fits = (q * q).sum(-1).max(initial=0) * (k * k).sum(-1).max(initial=0) <= bound * bound
        for shift in (False, True) if fits else (True,):
            for s in range(0, t, _QUERY_BLOCK):
                rows = q[..., s : s + _QUERY_BLOCK, :]
                scores = np.matmul(rows, keys, out=buffer[..., : rows.shape[-2], :])
                if shift:
                    if not np.isfinite(scores).all():
                        raise NumericsError("attention produced non-finite scores (overflow)")
                    scores -= scores.max(axis=-1, keepdims=True)
                np.exp(scores, out=scores)
                part = np.matmul(scores, extended, out=sums[..., : rows.shape[-2], :])
                np.divide(part[..., :d], part[..., d:], out=out[..., s : s + _QUERY_BLOCK, :])
            if shift or np.isfinite(out).all():
                return out


class AttentionBranch(Module):
    """Full (non-windowed) multi-head self-attention over the token grid.

    softmax(q k^T) v is computed for blocks of ``_QUERY_BLOCK`` (64) query
    rows, so no (heads, T, T) score array exists at once (Rabe & Staats
    2021, arXiv 2112.05682).  A call that records no tape node runs the
    blocks on raw arrays (:func:`_attention`); a recording call composes
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


def _traversals(grid: np.ndarray) -> np.ndarray:
    """:func:`cross_scan` on a raw (..., H, W, K) array: one copy per
    traversal, the reversed ones from the forward ones, and no concat."""
    *lead, h, w, k = grid.shape
    seqs = np.empty((*lead, h * w, 4, k), dtype=grid.dtype)
    seqs.reshape(*lead, h, w, 4, k)[..., 0, :] = grid
    seqs.reshape(*lead, w, h, 4, k)[..., 2, :] = grid.swapaxes(-3, -2)
    seqs[..., 1, :] = seqs[..., ::-1, 0, :]
    seqs[..., 3, :] = seqs[..., ::-1, 2, :]
    return seqs


def _recurrence(a: np.ndarray, h: np.ndarray) -> np.ndarray:
    """h_t = a_t * h_{t-1} + h_t along axis -3, step by step, in place: ``h``
    holds the drive on entry and the states on return; overflow is left to
    the caller's finiteness check.  Called only by :func:`_ssm`."""
    # time-major views: iterating one walks its steps
    time_major = (h.ndim - 3, *range(h.ndim - 3), h.ndim - 2, h.ndim - 1)
    a_t, h_t = a.transpose(time_major), h.transpose(time_major)
    carried = np.empty(h_t.shape[1:], dtype=h.dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        for a_s, prev, step in zip(a_t[1:], h_t, h_t[1:]):
            np.multiply(a_s, prev, out=carried)
            np.add(carried, step, out=step)
    return h


def _ssm(v: np.ndarray, branch: "SsmBranch") -> np.ndarray:
    """:class:`SsmBranch` on raw arrays: the taped forward's ops in order, with
    the recurrence run step by step in place on the drive where that forward
    runs :func:`linear_scan`'s odd-even scan.  A non-finite value reaches the
    result (checked by the caller's ``Tensor``) unless exp or softplus makes
    it finite, so the softplus input and the largest |dt * rate| are checked
    here: :class:`NumericsError` is raised exactly when the taped composition
    raises it.
    """
    *lead, h, w, c = v.shape
    t, n = h * w, branch.state_dim
    with np.errstate(over="ignore", invalid="ignore"):
        pre = v @ branch.dt_weight.data + branch.dt_bias.data
        rates = -np.exp(branch.a_log.data)
        dt = np.logaddexp(np.zeros((), dtype=v.dtype), pre)
        # dt >= 0 >= rates, rounding is monotone: not finite iff a dt * rate or a rate is not
        steepest = dt.max(initial=0) * rates.min(initial=0)
        if not (np.isfinite(pre).all() and np.isfinite(steepest)):
            raise NumericsError("SsmBranch: step size or decay rate overflowed")
        # dt repeated N times: a broadcast trailing N axis runs N elements per inner loop
        decay = np.exp(np.repeat(dt, n, axis=-1) * rates.reshape(-1))
        b_tok = v @ branch.b_weight.data
        drive = np.repeat(dt * v, n, axis=-1).reshape(*lead, h, w, c, n) * b_tok[..., None, :]
        decays, drives = (_traversals(g.reshape(*lead, h, w, c * n)) for g in (decay, drive))
        states = _recurrence(decays.reshape(*lead, t, 4 * c, n), drives.reshape(*lead, t, 4 * c, n))
        c_seq = _traversals(v @ branch.c_weight.data)
        read = np.matmul(states.reshape(*lead, t, 4, c, n), c_seq.reshape(*lead, t, 4, n, 1))
        pairs = read.reshape(*lead, t, 2, 2, c)
        both = pairs[..., 0, :] + pairs[..., ::-1, :, 1, :]
        rows = both[..., 0, :].reshape(*lead, h, w, c)
        cols = both[..., 1, :].reshape(*lead, w, h, c).swapaxes(-3, -2)
        merged = rows + cols + v * (branch.skip_gain.data * branch.four.data)
        return merged @ branch.out_weight.data + branch.out_bias.data


class SsmBranch(Module):
    """Cross-scan selective SSM branch.

    The four scan directions share one set of dt/B/C projections and one
    skip gain D, so their four skips D * u sum on the grid to 4 * D * v,
    which is added once to the merged readouts.  The diagonal rates are
    stored as ``a_log`` and used as A = -exp(a_log), so no finite parameter
    value gives a per-step decay above 1; ``a_log`` starts at log(1..N) per
    channel.  The dt bias is drawn so softplus lands in [1e-3, 1e-1].  A
    call that records no tape node runs :func:`_ssm`.
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
        if v.ndim < 3 or v.shape[-1] != self.skip_gain.shape[0]:
            raise ShapeError(f"SsmBranch expects (..., H, W, {self.skip_gain.shape[0]}), got {v.shape}")
        if not records(v, *self.parameters()):
            return Tensor(_ssm(v.data, self))
        read = selective_scan(v, self)
        merged = add(cross_merge(read, *v.shape[-3:-1]), mul(v, mul(self.skip_gain, self.four)))
        return add(matmul(merged, self.out_weight), self.out_bias)
