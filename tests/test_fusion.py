"""Selective fusion tests: pooling formulas, weight generation, convexity."""

import math

import numpy as np
import pytest
from scipy.special import erf

from mixssm.errors import ShapeError
from mixssm.fusion import (
    SelectiveFusion,
    pool_global,
    selective_combine,
    selective_module,
    stack_branches,
)
from mixssm.tensor import Tensor, add, conv2d, maximum, mul, reduce_sum, reshape, slice_


def t64(values):
    return Tensor(np.asarray(values, dtype=np.float64))


def rand_maps(rng, n, shape=(3, 4, 8)):
    return [t64(rng.standard_normal(shape)) for _ in range(n)]


def branch_sum(maps):
    return reduce_sum(stack_branches(maps), axis=0)


# -- sum of the stacked branches ------------------------------------------------


def test_fuse_sum_zero_branch_is_identity():
    rng = np.random.default_rng(0)
    f = rng.standard_normal((2, 2, 3))
    out = branch_sum([t64(f), t64(np.zeros_like(f))])
    assert np.array_equal(out.data, f)


def test_fuse_sum_four_copies():
    rng = np.random.default_rng(1)
    v = t64(rng.standard_normal((2, 3, 4)))
    assert np.allclose(branch_sum([v, v, v, v]).data, 4.0 * v.data)


def test_fuse_sum_is_order_invariant():
    rng = np.random.default_rng(2)
    maps = rand_maps(rng, 4)
    a = branch_sum(maps).data
    b = branch_sum(maps[::-1]).data
    assert np.allclose(a, b)


def test_fuse_sum_shape_mismatch_errors():
    with pytest.raises(ShapeError):
        branch_sum([t64(np.zeros((2, 2, 3))), t64(np.zeros((2, 2, 4)))])


def test_stack_branches_layout_and_shape_errors():
    rng = np.random.default_rng(3)
    maps = rand_maps(rng, 3, shape=(2, 2, 3, 4))
    stacked = stack_branches(maps)
    assert stacked.shape == (3, 2, 2, 3, 4)
    for m, f in enumerate(maps):
        assert np.array_equal(stacked.data[m], f.data)
    with pytest.raises(ShapeError):
        stack_branches([])
    with pytest.raises(ShapeError):
        stack_branches([t64(np.zeros((2, 2, 3))), t64(np.zeros((2, 3, 3)))])


# -- pooling -------------------------------------------------------------------


def test_pool_constant_map():
    f = t64(np.full((3, 5, 2), 7.25))
    assert np.allclose(pool_global(f, "average").data, 7.25)


def test_pool_formulas_on_documented_example():
    f = t64(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(2, 2, 1))
    assert math.isclose(pool_global(f, "average").item(), 2.5)
    assert math.isclose(pool_global(f, "max").item(), 4.0)
    assert math.isclose(pool_global(f, "l2").item(), math.sqrt(7.5), rel_tol=1e-12)


def test_stochastic_pool_expectation_on_uniform_map_is_average():
    f = t64(np.full((4, 4, 3), 1.5))
    got = pool_global(f, "stochastic").data
    assert np.allclose(got, pool_global(f, "average").data)


def test_stochastic_pool_training_draws_from_passed_stream():
    rng = np.random.default_rng(3)
    f = t64(rng.standard_normal((4, 4, 2)))
    a = pool_global(f, "stochastic", rng=np.random.default_rng(7)).data
    b = pool_global(f, "stochastic", rng=np.random.default_rng(7)).data
    assert np.array_equal(a, b)
    # every pooled value is one of the spatial activations of its channel
    flat = f.data.reshape(16, 2)
    for c in range(2):
        assert a[c] in flat[:, c]
    # without a stream it is the softmax-weighted expectation
    e = np.exp(flat - flat.max(axis=0))
    probs = e / e.sum(axis=0)
    assert np.allclose(pool_global(f, "stochastic").data, (probs * flat).sum(axis=0), atol=1e-12)


def test_pool_unknown_method_errors():
    with pytest.raises(ValueError, match="pooling"):
        pool_global(t64(np.zeros((2, 2, 1))), "median")


# -- weight generation -----------------------------------------------------------


def zeroed_fusion(channels=8, n=4, **kw):
    fusion = SelectiveFusion(channels, n=n, rng=np.random.default_rng(0), dtype=np.float64, **kw)
    fusion.w1.data = np.zeros_like(fusion.w1.data)
    fusion.w2.data = np.zeros_like(fusion.w2.data)
    return fusion


def test_selective_weights_uniform_for_zero_logits():
    fusion = zeroed_fusion()
    w = fusion.selective_weights(t64(np.random.default_rng(4).standard_normal(8)))
    assert w.shape == (8, 4)
    assert np.allclose(w.data, 0.25)


def test_selective_weights_saturate_on_large_logit():
    fusion = zeroed_fusion()
    b2 = fusion.b2.data.reshape(8, 4)
    b2[:, 2] = 20.0
    w = fusion.selective_weights(t64(np.zeros(8)))
    assert (w.data[:, 2] > 0.9999).all()


def weights_oracle(g, fusion):
    """Two matmuls, smooth activation, per-channel softmax, scripted directly."""
    hidden = g @ fusion.w1.data + fusion.b1.data
    hidden = 0.5 * hidden * (1.0 + erf(hidden / math.sqrt(2.0)))
    logits = (hidden @ fusion.w2.data + fusion.b2.data).reshape(fusion.channels, fusion.n)
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def test_selective_weights_match_scripted_oracle():
    rng = np.random.default_rng(5)
    fusion = SelectiveFusion(8, n=4, rng=rng, dtype=np.float64)
    fusion.b2.data = rng.standard_normal(32)
    g = rng.standard_normal(8)
    got = fusion.selective_weights(t64(g)).data
    assert np.abs(got - weights_oracle(g, fusion)).max() < 1e-6


def test_selective_weights_sum_to_one_for_all_inputs():
    rng = np.random.default_rng(6)
    for trial in range(100):
        n = 1 + trial % 4
        fusion = SelectiveFusion(8, n=n, rng=rng, dtype=np.float64)
        fusion.b1.data = rng.standard_normal(fusion.b1.shape)
        fusion.b2.data = rng.standard_normal(fusion.b2.shape)
        w = fusion.selective_weights(t64(rng.standard_normal(8) * 10.0)).data
        assert np.abs(w.sum(axis=-1) - 1.0).max() < 1e-6
        if n == 1:
            assert np.allclose(w, 1.0)  # degenerate single-strategy case
        else:
            assert (w > 0).all() and (w < 1).all()


def test_selective_weights_reject_a_descriptor_of_another_width():
    fusion = zeroed_fusion(channels=8)
    for width in (4, 16):
        with pytest.raises(ShapeError):
            fusion.selective_weights(t64(np.zeros((2, width))))


# -- combination --------------------------------------------------------------------


def test_selective_combine_one_hot_selects_branch():
    rng = np.random.default_rng(7)
    maps = rand_maps(rng, 4, shape=(2, 2, 3))
    weights = np.zeros((3, 4))
    weights[:, 1] = 1.0
    out = selective_combine(stack_branches(maps), t64(weights))
    assert np.allclose(out.data, maps[1].data)


def test_selective_combine_uniform_weights_identical_maps():
    rng = np.random.default_rng(8)
    v = t64(rng.standard_normal((2, 2, 4)))
    weights = t64(np.full((4, 3), 1.0 / 3.0))
    out = selective_combine(stack_branches([v, v, v]), weights)
    assert np.allclose(out.data, v.data)


def test_selective_combine_matches_weighted_sum_oracle():
    rng = np.random.default_rng(9)
    maps = rand_maps(rng, 3, shape=(2, 2, 2))
    raw = rng.uniform(0.0, 1.0, (2, 3))
    raw /= raw.sum(axis=-1, keepdims=True)
    got = selective_combine(stack_branches(maps), t64(raw)).data
    want = np.zeros((2, 2, 2))
    for i in range(2):
        for j in range(2):
            for c in range(2):
                for m in range(3):
                    want[i, j, c] += raw[c, m] * maps[m].data[i, j, c]
    assert np.abs(got - want).max() < 1e-6


def test_selective_combine_stays_in_convex_hull():
    rng = np.random.default_rng(10)
    for trial in range(100):
        n = 1 + trial % 4
        fusion = SelectiveFusion(8, n=n, rng=rng, dtype=np.float64)
        maps = rand_maps(rng, n, shape=(3, 3, 8))
        out = selective_module(maps, fusion).data
        stacked = np.stack([m.data for m in maps])
        lo, hi = stacked.min(axis=0), stacked.max(axis=0)
        assert (out >= lo - 1e-9).all() and (out <= hi + 1e-9).all()


def test_selective_combine_mismatch_errors():
    maps = rand_maps(np.random.default_rng(11), 2, shape=(2, 2, 3))
    with pytest.raises(ShapeError):
        selective_combine(stack_branches(maps), t64(np.full((3, 3), 1 / 3)))
    with pytest.raises(ShapeError):
        selective_combine(stack_branches(maps), t64(np.full((4, 2), 0.5)))


def test_selective_combine_rejects_swapped_weight_axes():
    # n = 3 maps of C = 2 channels: (n, C) weights hold n*C entries, in the wrong order
    maps = rand_maps(np.random.default_rng(11), 3, shape=(2, 2, 2))
    with pytest.raises(ShapeError, match=r"weights \(3, 2\) do not fit maps \(3, 2, 2, 2\)"):
        selective_combine(stack_branches(maps), t64(np.full((3, 2), 0.5)))


# -- assembled module -----------------------------------------------------------------


@pytest.mark.parametrize("mode", ["elementwise-max", "elementwise-average"])
@pytest.mark.parametrize("n", [1, 4])
def test_elementwise_fusion_owns_no_parameters_and_draws_nothing(mode, n):
    rng = np.random.default_rng(11)
    before = rng.bit_generator.state
    fusion = SelectiveFusion(8, n=n, mode=mode, rng=rng, dtype=np.float64)
    assert fusion.parameters() == []
    assert rng.bit_generator.state == before
    # the selective gate, built from the same state, does draw
    SelectiveFusion(8, n=n, rng=rng, dtype=np.float64)
    assert rng.bit_generator.state != before


def test_elementwise_average_of_identical_maps():
    rng = np.random.default_rng(12)
    v = t64(rng.standard_normal((2, 3, 4)))
    fusion = SelectiveFusion(4, n=3, mode="elementwise-average", rng=rng, dtype=np.float64)
    out = selective_module([v, v, v], fusion)
    assert np.allclose(out.data, v.data)


def test_elementwise_max_dominates_shifted_copy():
    rng = np.random.default_rng(13)
    v = t64(rng.standard_normal((2, 3, 4)))
    lower = t64(v.data - 1.0)
    fusion = SelectiveFusion(4, n=2, mode="elementwise-max", rng=rng, dtype=np.float64)
    out = selective_module([v, lower], fusion)
    assert np.allclose(out.data, v.data)


def test_selective_k1_equals_composition_of_stage_ops():
    rng = np.random.default_rng(14)
    fusion = SelectiveFusion(8, n=4, kernel_size=1, rng=rng, dtype=np.float64)
    maps = rand_maps(rng, 4)
    got = selective_module(maps, fusion).data
    fused = branch_sum(maps)
    pooled = pool_global(fused, "average")
    weights = fusion.selective_weights(pooled)
    want = selective_combine(stack_branches(maps), weights).data
    assert np.abs(got - want).max() < 1e-12


def test_fresh_k3_kernel_reproduces_plain_k1_path():
    rng = np.random.default_rng(15)
    fusion3 = SelectiveFusion(8, n=4, kernel_size=3, rng=np.random.default_rng(99), dtype=np.float64)
    fusion1 = SelectiveFusion(8, n=4, kernel_size=1, rng=np.random.default_rng(99), dtype=np.float64)
    maps = rand_maps(rng, 4)
    assert np.allclose(
        selective_module(maps, fusion3).data, selective_module(maps, fusion1).data
    )


def test_selective_module_permutation_invariance():
    rng = np.random.default_rng(16)
    n, c = 4, 8
    fusion = SelectiveFusion(c, n=n, rng=rng, dtype=np.float64)
    fusion.b2.data = rng.standard_normal(c * n)
    maps = rand_maps(rng, n)
    base = selective_module(maps, fusion).data

    perm = [2, 0, 3, 1]
    permuted = SelectiveFusion(c, n=n, rng=np.random.default_rng(0), dtype=np.float64)
    permuted.w1.data = fusion.w1.data.copy()
    permuted.b1.data = fusion.b1.data.copy()
    hidden = fusion.w2.shape[0]
    permuted.w2.data = fusion.w2.data.reshape(hidden, c, n)[:, :, perm].reshape(hidden, c * n)
    permuted.b2.data = fusion.b2.data.reshape(c, n)[:, perm].reshape(c * n)
    permuted.pre_pool_kernel.data = fusion.pre_pool_kernel.data.copy()
    shuffled = selective_module([maps[m] for m in perm], permuted).data
    assert np.abs(base - shuffled).max() < 1e-12


def test_selective_module_strategy_count_must_match():
    fusion = SelectiveFusion(8, n=4, rng=np.random.default_rng(0), dtype=np.float64)
    with pytest.raises(ShapeError):
        selective_module(rand_maps(np.random.default_rng(17), 3), fusion)


def test_elementwise_max_splits_tied_gradient_evenly():
    rng = np.random.default_rng(18)
    v = rng.standard_normal((2, 3, 4))
    maps = [Tensor(x, requires_grad=True) for x in (v, v, v, v - 1.0)]
    fusion = SelectiveFusion(4, n=4, mode="elementwise-max", rng=rng, dtype=np.float64)
    reduce_sum(selective_module(maps, fusion)).backward()
    for tied in maps[:3]:
        assert np.array_equal(tied.grad, np.full(v.shape, 1.0 / 3.0))
    assert np.array_equal(maps[3].grad, np.zeros(v.shape))


def list_based_selective_module(maps, params, rng=None):
    """selective_module with the branches kept as a python list: pairwise
    max / add chains and one sliced weight column per branch."""
    if params.mode == "elementwise-max":
        acc = maps[0]
        for f in maps[1:]:
            acc = maximum(acc, f)
        return acc
    fused = maps[0]
    for f in maps[1:]:
        fused = add(fused, f)
    if params.mode == "elementwise-average":
        return mul(fused, t64(1.0 / len(maps)))
    smoothed = conv2d(fused, params.pre_pool_kernel)
    weights = params.selective_weights(pool_global(smoothed, params.pooling, rng=rng))
    lead, c = weights.shape[:-2], weights.shape[-2]
    acc = None
    for m, f in enumerate(maps):
        term = mul(reshape(slice_(weights, -1, m, m + 1), (*lead, 1, 1, c)), f)
        acc = term if acc is None else add(acc, term)
    return acc


@pytest.mark.parametrize("mode", ["selective", "elementwise-max", "elementwise-average"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_selective_module_matches_list_based_path(mode, n):
    runs = []
    for aggregate in (selective_module, list_based_selective_module):
        rng = np.random.default_rng(19 + n)
        fusion = SelectiveFusion(8, n=n, mode=mode, pooling="stochastic", rng=rng, dtype=np.float64)
        maps = [Tensor(rng.standard_normal((2, 3, 3, 8)), requires_grad=True) for _ in range(n)]
        out = aggregate(maps, fusion, rng=np.random.default_rng(5))
        reduce_sum(mul(out, t64(rng.standard_normal(out.shape)))).backward()
        runs.append((out.data, [f.grad for f in maps] + [p.grad for p in fusion.parameters()]))
    (out, grads), (want_out, want_grads) = runs
    assert np.array_equal(out, want_out)
    for got, want in zip(grads, want_grads):
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
