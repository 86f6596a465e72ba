"""Central finite-difference verification of recorded gradients.

This is the oracle used by the test suite and the ``gradcheck`` CLI command:
every differentiable operation and every assembled component is compared
against (f(x + h e_i) - f(x - h e_i)) / 2h, component by component, in
double precision.  Each check returns its largest relative error; the
caller compares it with the tolerance it states.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import ShapeError
from .tensor import Tensor, no_grad

__all__ = ["finite_diff_check", "check_parameter_gradients", "gradient_suite"]


def _rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    if analytic.size == 0:
        return 0.0
    return float(np.max(np.abs(analytic - numeric) / denom))


def _scalar(value: Tensor) -> float:
    if not isinstance(value, Tensor) or value.size != 1:
        raise ShapeError("gradient check requires a scalar-valued function")
    return value.item()


def finite_diff_check(f: Callable[[Tensor], Tensor], x: Tensor, step: float = 1e-4) -> float:
    """Max relative error of the taped gradient of ``f`` at ``x`` against
    central differences.

    ``f`` runs on a gradient-tracking copy of ``x``; see
    :func:`check_parameter_gradients` for the loop and the error measure.
    """
    probe = Tensor(x.data.copy(), requires_grad=True, dtype=x.dtype)
    return check_parameter_gradients(lambda: f(probe), [probe], step)


def check_parameter_gradients(
    loss_fn: Callable[[], Tensor], params: Sequence[Tensor], step: float = 1e-4
) -> float:
    """Max relative error of the gradient of ``loss_fn`` w.r.t. a set of live
    parameters, against central differences.

    Parameters are perturbed in place and restored; the analytic side comes
    from one backward pass.  ``loss_fn`` must be deterministic; two baseline
    evaluations that disagree raise ``ValueError``.  Relative error per
    component uses the denominator max(|analytic|, |numeric|, 1e-8); the
    result is the largest over all parameters.
    """
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    params = list(params)
    with no_grad():
        y0 = _scalar(loss_fn())
        y1 = _scalar(loss_fn())
    if y0 != y1:
        raise ValueError(f"loss_fn is not deterministic: {y0} != {y1}")

    for p in params:
        p.grad = None
    loss_fn().backward()

    worst = 0.0
    with no_grad():
        for p in params:
            analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
            numeric = np.zeros_like(p.data)
            flat_p = p.data.reshape(-1)
            flat_n = numeric.reshape(-1)
            for i in range(flat_p.size):
                orig = flat_p[i]
                flat_p[i] = orig + step
                hi = _scalar(loss_fn())
                flat_p[i] = orig - step
                lo = _scalar(loss_fn())
                flat_p[i] = orig
                flat_n[i] = (hi - lo) / (2.0 * step)
            worst = max(worst, _rel_error(analytic, numeric))

    return worst


def gradient_suite(seed: int = 0, seeds: int = 5) -> dict[str, float]:
    """Max relative gradient error per component, double precision.

    Each of the four branches, the selective fusion module and one full
    mixing block is checked on a 4x4x8 input over ``seeds`` random seeds,
    w.r.t. all of its parameters; ``seeds`` below 1 raises ``ValueError``
    instead of checking nothing.  The step, 1e-3, is larger than the
    primitive checks use because deep components have near-zero gradient
    entries where central differences are cancellation-limited.
    """
    if seeds < 1:
        raise ValueError(f"seeds must be at least 1, got {seeds}")
    # imported here so the substrate module stays free of model dependencies
    from .encoders import AttentionBranch, ChannelMlpBranch, ConvBranch, SsmBranch
    from .fusion import SelectiveFusion, selective_module
    from .network import BRANCH_NAMES, MixSsmBlock
    from .tensor import mul, reduce_sum

    channels, heads, state_dim, f64 = 8, 2, 8, np.float64

    def itself(module):
        return module, module

    def fusion(rng):
        module = SelectiveFusion(channels, n=4, rng=rng, dtype=f64)
        maps = [Tensor(rng.standard_normal((4, 4, channels)), dtype=f64) for _ in range(4)]
        return module, lambda _x: selective_module(maps, module)

    # (component, rng -> (module whose parameters are checked, forward)), in report order
    components = (
        ("conv_branch", lambda rng: itself(ConvBranch(channels, rng=rng, dtype=f64))),
        ("msa_branch", lambda rng: itself(AttentionBranch(channels, heads, rng=rng, dtype=f64))),
        ("mlp_branch", lambda rng: itself(ChannelMlpBranch(channels, rng=rng, dtype=f64))),
        ("ssm_branch", lambda rng: itself(SsmBranch(channels, state_dim, rng=rng, dtype=f64))),
        ("selective_module", fusion),
        ("mix_ssm_block", lambda rng: itself(MixSsmBlock(
            channels, heads, BRANCH_NAMES, state_dim,
            kernel_size=3, pooling="average", aggregation="selective",
            reduction=4, rng=rng, dtype=f64,
        ))),
    )
    results: dict[str, float] = {}
    for name, build in components:
        worst = 0.0
        for offset in range(seeds):
            rng = np.random.default_rng(np.random.SeedSequence([seed + offset, 0xC0DE]))
            component, forward = build(rng)
            x = Tensor(rng.standard_normal((4, 4, channels)), dtype=f64)
            proj = Tensor(rng.standard_normal(forward(x).shape), dtype=f64)
            loss_fn = lambda: reduce_sum(mul(forward(x), proj))  # noqa: B023
            worst = max(worst, check_parameter_gradients(loss_fn, component.parameters(), step=1e-3))
        results[name] = worst
    return results
