"""Adaptive aggregation of the branch outputs.

The n branch maps are stacked into one (n, ..., H, W, C) tensor.  The
selective path sums it over the stacking axis, optionally smooths the sum
with a depthwise k x k convolution, pools it to a per-channel descriptor,
runs a squeeze-style MLP to one logit per (channel, strategy) pair,
normalizes over strategies with softmax, and takes the per-channel convex
combination of the branch maps.  The elementwise max / average modes are the non-adaptive
baselines that replace the whole module, and own no parameters.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .modules import Module, trunc_normal
from .tensor import (
    Tensor,
    add,
    concat,
    conv2d,
    gelu,
    matmul,
    mul,
    reduce_max,
    reduce_mean,
    reduce_sum,
    reshape,
    softmax,
    sqrt,
    transpose,
)

__all__ = [
    "SelectiveFusion",
    "pool_global",
    "selective_combine",
    "selective_module",
    "stack_branches",
    "POOLING_METHODS",
    "AGGREGATION_MODES",
    "KERNEL_SIZES",
]

POOLING_METHODS = ("average", "max", "l2", "stochastic")
AGGREGATION_MODES = ("selective", "elementwise-max", "elementwise-average")
KERNEL_SIZES = (1, 3, 5, 7)  # of the depthwise pre-pool kernel


def stack_branches(branch_outputs: list[Tensor]) -> Tensor:
    """Stack n same-shape (..., H, W, C) branch maps into one (n, ..., H, W, C);
    ``concat`` raises :class:`ShapeError` for no maps or differing shapes."""
    return concat([reshape(f, (1, *f.shape)) for f in branch_outputs], axis=0)


def pool_global(f: Tensor, method: str = "average", rng: np.random.Generator | None = None) -> Tensor:
    """Pool (..., H, W, C) down to (..., C).

    ``average`` is the spatial mean; ``max`` the spatial maximum; ``l2`` the
    root of the spatial mean of squares.  ``stochastic`` weights the positions
    of each channel by the softmax of its spatial activations: given an
    ``rng`` it samples one position per channel from those probabilities,
    without one it returns the probability-weighted expectation.  The other
    methods ignore ``rng``.
    """
    if f.ndim < 3:
        raise ShapeError(f"pool_global expects (..., H, W, C), got {f.shape}")
    if method == "average":
        return reduce_mean(f, axis=(-3, -2))
    if method == "max":
        return reduce_max(f, axis=(-3, -2))
    if method == "l2":
        return sqrt(reduce_mean(mul(f, f), axis=(-3, -2)))
    if method == "stochastic":
        *lead, h, w, c = f.shape
        flat = reshape(f, (*lead, h * w, c))
        probs = softmax(flat, axis=-2)
        if rng is None:
            return reduce_sum(mul(probs, flat), axis=-2)
        p = probs.data
        cum = np.cumsum(p, axis=-2)
        draw = rng.random(size=(*lead, 1, c))
        idx = np.sum(cum < draw, axis=-2, keepdims=True)
        np.clip(idx, 0, h * w - 1, out=idx)
        onehot = np.zeros_like(p)
        np.put_along_axis(onehot, idx, 1.0, axis=-2)
        return reduce_sum(mul(flat, Tensor(onehot, dtype=f.dtype)), axis=-2)
    raise ValueError(f"unknown pooling method {method!r}; expected one of {POOLING_METHODS}")


def selective_combine(stacked: Tensor, weights: Tensor) -> Tensor:
    """Per-channel convex combination sum_m p[..., c, m] * F_m(..., c).

    ``stacked`` holds the n maps as (n, ..., H, W, C); ``weights`` must be (..., C, n).
    """
    n, c = stacked.shape[0], stacked.shape[-1]
    if weights.shape[-2:] != (c, n):
        raise ShapeError(f"selective_combine: weights {weights.shape} do not fit maps {stacked.shape}")
    lead = weights.shape[:-2]
    per_branch = transpose(weights, (weights.ndim - 1, *range(weights.ndim - 1)))
    return reduce_sum(mul(reshape(per_branch, (n, *lead, 1, 1, c)), stacked), axis=0)


class SelectiveFusion(Module):
    """Weight generator and combiner for ``n`` encoding strategies.  Only the
    selective mode builds the gate and draws it from ``rng``; the elementwise
    modes own no parameters.  The depthwise pre-pool kernel starts as the identity
    (center tap one) so a freshly built module with k > 1 reproduces the k = 1 path."""

    def __init__(
        self,
        channels: int,
        n: int,
        reduction: int = 4,
        kernel_size: int = 3,
        pooling: str = "average",
        mode: str = "selective",
        *,
        rng: np.random.Generator,
        dtype=np.float32,
    ):
        self.n = n
        self.channels = channels
        self.pooling = pooling
        self.mode = mode
        if mode != "selective":
            return

        kernel = np.zeros((kernel_size, kernel_size, 1, channels), dtype=dtype)
        kernel[kernel_size // 2, kernel_size // 2, 0, :] = 1.0
        self.pre_pool_kernel = Tensor(kernel, requires_grad=True)

        hidden = channels // reduction
        self.w1 = Tensor(trunc_normal(rng, (channels, hidden), dtype=dtype), requires_grad=True)
        self.b1 = Tensor(np.zeros(hidden, dtype=dtype), requires_grad=True)
        self.w2 = Tensor(trunc_normal(rng, (hidden, channels * n), dtype=dtype), requires_grad=True)
        self.b2 = Tensor(np.zeros(channels * n, dtype=dtype), requires_grad=True)

    def selective_weights(self, g: Tensor) -> Tensor:
        """Map a pooled (..., C) descriptor to (..., C, n) softmax weights.

        The MLP output vector reshapes row-major, so logits for channel c
        occupy the block [c*n, (c+1)*n); softmax runs over that strategy
        axis independently per channel.  A descriptor of another width
        fails the first reshape with :class:`ShapeError`.
        """
        lead = g.shape[:-1]
        gm = reshape(g, (*lead, 1, self.channels))
        h = gelu(add(matmul(gm, self.w1), self.b1))
        logits = add(matmul(h, self.w2), self.b2)
        logits = reshape(logits, (*lead, self.channels, self.n))
        return softmax(logits, axis=-1)


def selective_module(
    branch_outputs: list[Tensor],
    params: SelectiveFusion,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Aggregate branch maps by ``params.mode``; only the selective mode has a gate.

    ``rng`` reaches only stochastic pooling: with it the pooled descriptor is
    a sample, without it the expectation (see :func:`pool_global`).  In
    selective mode, a count other than ``params.n`` fails :func:`selective_combine`.
    """
    mode = params.mode
    stacked = stack_branches(branch_outputs)
    if mode == "elementwise-max":
        return reduce_max(stacked, axis=0)
    fused = reduce_sum(stacked, axis=0)
    if mode == "elementwise-average":
        return mul(fused, Tensor(np.asarray(1.0 / len(branch_outputs), dtype=fused.dtype)))
    smoothed = conv2d(fused, params.pre_pool_kernel)
    pooled = pool_global(smoothed, params.pooling, rng=rng)
    return selective_combine(stacked, params.selective_weights(pooled))
