"""Branch tests: each against a directly scripted oracle or exact identity."""

import math
from contextlib import nullcontext

import numpy as np
import pytest

from mixssm import encoders
from mixssm.encoders import (
    AttentionBranch,
    ChannelMlpBranch,
    ConvBranch,
    SsmBranch,
    cross_merge,
    cross_scan,
    linear_scan,
    selective_scan,
)
from mixssm.errors import NumericsError, ShapeError
from mixssm.gradcheck import finite_diff_check
from mixssm.tensor import (
    Tensor,
    add,
    concat,
    conv2d,
    exp,
    flip,
    gelu,
    matmul,
    mul,
    no_grad,
    reduce_sum,
    reshape,
    slice_,
    softmax,
    softplus,
    transpose,
)

from oracles import five_loop_conv_same, naive_attention, naive_selective_scan, naive_ssm_branch


def t64(values):
    return Tensor(np.asarray(values, dtype=np.float64))


def rand64(rng, shape):
    return Tensor(rng.standard_normal(shape), dtype=np.float64)


# -- conv branch ----------------------------------------------------------------

# the branch is gelu(add(conv2d(v, weight), bias)) bitwise (checked below); the
# other conv tests check the convolution plus bias that gelu is applied to


def identity_kernel(size, channels):
    """A size x size kernel whose center tap is the channel identity."""
    w = np.zeros((size, size, channels, channels))
    w[size // 2, size // 2] = np.eye(channels)
    return w


def test_conv_branch_identity_kernel():
    rng = np.random.default_rng(0)
    v = rand64(rng, (5, 4, 3))
    assert np.array_equal(add(conv2d(v, t64(identity_kernel(3, 3))), t64(np.zeros(3))).data, v.data)
    # the same holds for a 1x1 kernel
    assert np.array_equal(conv2d(v, t64(identity_kernel(1, 3))).data, v.data)


def test_conv_branch_bias_only():
    x = t64(np.random.default_rng(1).standard_normal((3, 3, 2)))
    out = add(conv2d(x, t64(np.zeros((3, 3, 2, 2)))), t64([5.0, -1.0]))
    assert np.allclose(out.data[..., 0], 5.0) and np.allclose(out.data[..., 1], -1.0)


def test_conv_branch_matches_nested_loop_oracle():
    rng = np.random.default_rng(2)
    weight, bias = rng.standard_normal((3, 3, 2, 2)), rng.standard_normal(2)
    x = rng.standard_normal((5, 5, 2))
    got = add(conv2d(t64(x), t64(weight)), t64(bias)).data
    want = five_loop_conv_same(x, weight, bias)
    assert np.abs(got - want).max() < 1e-6


def loop_conv(x, w):
    """``five_loop_conv_same`` at each leading index of ``x`` (..., H, W, C);
    a depthwise (kh, kw, 1, C) kernel is applied to each channel alone."""
    depthwise = w.shape[2] == 1 < x.shape[-1]
    out = np.zeros(x.shape[:-1] + w.shape[-1:])
    for idx in np.ndindex(*x.shape[:-3]):
        if depthwise:
            for c in range(x.shape[-1]):
                one = five_loop_conv_same(x[idx][..., c : c + 1], w[..., c : c + 1], np.zeros(1))
                out[idx][..., c] = one[..., 0]
        else:
            out[idx] = five_loop_conv_same(x[idx], w, np.zeros(w.shape[-1]))
    return out


# (input, kernel): even and non-square kernels pad their extra row or column
# after the map; leading axes are batch axes
CONV_SHAPES = {
    "2x2": ((5, 4, 3), (2, 2, 3, 2)),
    "4x3": ((5, 6, 2), (4, 3, 2, 3)),
    "1x2": ((3, 5, 2), (1, 2, 2, 2)),
    "batch_3x3": ((2, 4, 5, 3), (3, 3, 3, 2)),
    "depthwise_4x3": ((2, 5, 4, 3), (4, 3, 1, 3)),
    "depthwise_2x2": ((4, 4, 2), (2, 2, 1, 2)),
}


@pytest.mark.parametrize("x_shape,w_shape", CONV_SHAPES.values(), ids=list(CONV_SHAPES))
def test_conv2d_matches_loop_oracle_forward_and_gradients(x_shape, w_shape):
    rng = np.random.default_rng(len(x_shape) * 100 + sum(w_shape))
    x, w = rng.standard_normal(x_shape), rng.standard_normal(w_shape)
    assert np.abs(conv2d(t64(x), t64(w)).data - loop_conv(x, w)).max() < 1e-12
    proj = rand64(rng, x_shape[:-1] + w_shape[-1:])
    wrt_x = finite_diff_check(lambda t: reduce_sum(mul(conv2d(t, t64(w)), proj)), t64(x))
    wrt_w = finite_diff_check(lambda t: reduce_sum(mul(conv2d(t64(x), t), proj)), t64(w))
    assert wrt_x < 1e-6 and wrt_w < 1e-6, (wrt_x, wrt_w)


def test_conv_branch_is_gelu_of_convolution_plus_bias_bitwise():
    rng = np.random.default_rng(3)
    branch = ConvBranch(4, rng=rng)
    branch.bias.data = rng.standard_normal(4).astype(np.float32)
    x = Tensor(rng.standard_normal((2, 5, 3, 4)).astype(np.float32))
    want = gelu(add(conv2d(x, branch.weight), branch.bias)).data
    assert np.array_equal(branch(x).data, want)


def test_conv_branch_channel_mismatch_errors():
    branch = ConvBranch(4, rng=np.random.default_rng(0), dtype=np.float64)
    with pytest.raises(ShapeError):
        branch(t64(np.zeros((3, 3, 2))))


def test_conv_branch_1x1_kernel_commutes_with_spatial_permutation():
    # the conv branch's convolution plus activation, with a 1x1 kernel
    rng = np.random.default_rng(18)
    weight = t64(rng.standard_normal((1, 1, 3, 3)))
    bias = t64(np.zeros(3))

    def branch(x):
        return gelu(add(conv2d(x, weight), bias))

    v = rng.standard_normal((2, 4, 3))
    perm = rng.permutation(8)
    out = branch(t64(v)).data.reshape(8, 3)
    out_perm = branch(t64(v.reshape(8, 3)[perm].reshape(2, 4, 3))).data.reshape(8, 3)
    assert np.allclose(out[perm], out_perm)


# -- attention branch -------------------------------------------------------------


def test_attention_single_token():
    rng = np.random.default_rng(3)
    branch = AttentionBranch(4, heads=1, rng=rng, dtype=np.float64)
    v = rand64(rng, (1, 1, 4))
    want = (v.data.reshape(1, 4) @ branch.v_proj.data[0]) @ branch.out_proj.data
    assert np.allclose(branch(v).data.reshape(1, 4), want)


def test_attention_identical_tokens_give_identical_outputs():
    rng = np.random.default_rng(4)
    branch = AttentionBranch(6, heads=2, rng=rng, dtype=np.float64)
    token = rng.standard_normal(6)
    out = branch(t64(np.tile(token, (2, 3, 1)))).data.reshape(6, 6)
    assert np.allclose(out, out[0])


def attention_oracle(branch, v):
    """``naive_attention`` on the tokens of a (..., H, W, C) map, shaped back onto the map."""
    x = v.reshape(v.shape[:-3] + (-1, v.shape[-1]))
    weights = (branch.q_proj.data, branch.k_proj.data, branch.v_proj.data, branch.out_proj.data)
    return naive_attention(x, *weights).reshape(v.shape)


def test_attention_two_tokens_matches_oracle():
    rng = np.random.default_rng(5)
    branch = AttentionBranch(4, heads=1, rng=rng, dtype=np.float64)
    x = rng.standard_normal((2, 1, 4))
    assert np.abs(branch(t64(x)).data - attention_oracle(branch, x)).max() < 1e-12


@pytest.mark.parametrize(
    "shape, check",
    [
        pytest.param((3, 4, 8), "oracle", id="shape0"),
        pytest.param((2, 3, 2, 8), "oracle", id="shape1"),
        # around the 64-row query block: one short block, one full block, a
        # full and a short block, and three blocks per map of a batch of two
        pytest.param((7, 9, 8), "oracle", id="T63"),
        pytest.param((8, 8, 8), "oracle", id="T64"),
        pytest.param((5, 13, 8), "oracle", id="T65"),
        pytest.param((2, 12, 12, 8), "oracle", id="batch-T144"),
        pytest.param((17, 17, 4), "finite_diff", id="T289-finite_diff"),
        pytest.param((17, 17, 8), "permutation", id="T289-permutation"),
    ],
)
def test_attention_matches_naive_oracle(shape, check):
    # once with a tape (taped slice, matmul, softmax and concat ops) and once
    # under no_grad (raw-array blocks normalized after the product with v)
    for taped in (True, False):
        rng = np.random.default_rng(6)
        branch = AttentionBranch(shape[-1], heads=2, rng=rng, dtype=np.float64)
        v = rng.standard_normal(shape)
        with nullcontext() if taped else no_grad():
            if check == "oracle":
                out = branch(t64(v))
                assert out.requires_grad is taped
                assert np.abs(out.data - attention_oracle(branch, v)).max() < 1e-12
            elif check == "finite_diff" and taped:
                # the analytic side runs the taped path, the central differences the tape-free one
                proj = t64(rng.standard_normal(shape))
                err = finite_diff_check(lambda x: reduce_sum(mul(branch(x), proj)), t64(v))
                assert err < 1e-4, err
            elif check == "permutation":
                # tokens from different query blocks trade places; the outputs follow them
                tokens = v.reshape(-1, shape[-1])
                perm = rng.permutation(len(tokens))
                out = branch(t64(v)).data.reshape(tokens.shape)
                out_perm = branch(t64(tokens[perm].reshape(shape))).data.reshape(tokens.shape)
                assert np.abs(out[perm] - out_perm).max() < 1e-12


def scores_then_scale_attention(branch, v):
    """The branch's forward in numpy, with 1/sqrt(head_dim) applied to the
    (heads, T, T) scores instead of to q."""
    *lead, h, w, c = v.shape
    x = v.reshape((*lead, 1, h * w, c))
    q, k, vals = (x @ proj.data for proj in (branch.q_proj, branch.k_proj, branch.v_proj))
    scores = (q @ k.swapaxes(-1, -2)) * v.dtype.type(1.0 / math.sqrt(branch.head_dim))
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    mixed = (e / e.sum(axis=-1, keepdims=True)) @ vals
    merged = np.swapaxes(mixed, -3, -2).reshape((*lead, h * w, c))
    return (merged @ branch.out_proj.data).reshape(v.shape)


def test_attention_at_head_dim_16_is_bitwise_scores_then_scale():
    rng = np.random.default_rng(7)
    branch = AttentionBranch(32, heads=2, rng=rng)
    assert branch.head_dim == 16
    for shape in ((6, 6, 32), (2, 4, 5, 32)):
        v = rng.standard_normal(shape).astype(np.float32)
        assert np.array_equal(branch(Tensor(v)).data, scores_then_scale_attention(branch, v))


def test_attention_at_head_dim_16_without_tape_is_within_1e6_of_scores_then_scale():
    # normalizing the (heads, rows, d) output instead of the probabilities
    # reorders float32 roundoff, so the tape-free path is close, not bitwise
    rng = np.random.default_rng(7)
    branch = AttentionBranch(32, heads=2, rng=rng)
    for shape in ((6, 6, 32), (2, 4, 5, 32), (9, 15, 32)):
        v = rng.standard_normal(shape).astype(np.float32)
        want = scores_then_scale_attention(branch, v)
        with no_grad():
            got = branch(Tensor(v)).data
        assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["plus_inf", "minus_inf_finite_row_max"])
def test_attention_raises_numerics_error_on_a_non_finite_score(sign):
    # two float32 tokens x0 = (1e20, 0), x1 = (0, 1); q = x / sqrt(2) and
    # k = x @ [[0, 0], [sign 1e20, 1]], so k0 = 0 and k1 = (sign 1e20, 1):
    # score (0, 1) = sign 7e39 overflows and the other three are finite.
    # With sign -1, row 0 has a finite max (0), and the max shift alone would
    # quietly give the -inf score probability 0.
    branch = AttentionBranch(2, heads=1, rng=np.random.default_rng(21))
    branch.q_proj.data = np.eye(2, dtype=np.float32)[None]
    branch.k_proj.data = np.array([[[0.0, 0.0], [sign * 1e20, 1.0]]], dtype=np.float32)
    v = Tensor(np.array([[[1e20, 0.0], [0.0, 1.0]]], dtype=np.float32))
    for mode in (nullcontext, no_grad):
        with mode(), np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericsError):
            branch(v)


def test_attention_runs_the_taped_softmax_only_when_it_records(monkeypatch):
    calls = []

    def counting(x, axis=-1):
        calls.append(x.shape)
        return softmax(x, axis=axis)

    monkeypatch.setattr(encoders, "softmax", counting)
    rng = np.random.default_rng(22)
    branch = AttentionBranch(8, heads=2, rng=rng)
    v = Tensor(rng.standard_normal((9, 9, 8)).astype(np.float32))
    with no_grad():
        branch(v)
    assert calls == []
    branch(v)  # the projections require grad: one taped softmax per 64-row block
    assert calls == [(2, 64, 81), (2, 17, 81)]


def test_attention_at_head_dim_8_matches_naive_oracle():
    rng = np.random.default_rng(8)
    branch = AttentionBranch(16, heads=2, rng=rng, dtype=np.float64)
    assert branch.head_dim == 8
    v = rng.standard_normal((3, 5, 16))
    assert np.abs(branch(t64(v)).data - attention_oracle(branch, v)).max() < 1e-12


# -- channel MLP branch -------------------------------------------------------------


def test_mlp_zero_input_zero_biases_gives_zero():
    branch = ChannelMlpBranch(3, rng=np.random.default_rng(0), dtype=np.float64)
    out = branch(t64(np.zeros((2, 2, 3))))
    assert np.array_equal(out.data, np.zeros((2, 2, 3)))


def test_mlp_commutes_with_spatial_permutation():
    rng = np.random.default_rng(7)
    branch = ChannelMlpBranch(4, rng=rng, dtype=np.float64)
    v = rng.standard_normal((3, 5, 4))
    perm = rng.permutation(15)
    out = branch(t64(v)).data.reshape(15, 4)
    out_perm = branch(t64(v.reshape(15, 4)[perm].reshape(3, 5, 4))).data.reshape(15, 4)
    assert np.allclose(out[perm], out_perm)


def gelu_np(x):
    from scipy.special import erf

    return 0.5 * x * (1.0 + erf(x / math.sqrt(2.0)))


def test_mlp_matches_two_matmul_oracle():
    rng = np.random.default_rng(8)
    branch = ChannelMlpBranch(3, rng=rng, dtype=np.float64)
    v = rng.standard_normal((1, 1, 3))
    got = branch(t64(v)).data
    hidden = gelu_np(v @ branch.w1.data + branch.b1.data)
    want = hidden @ branch.w2.data + branch.b2.data
    assert np.abs(got - want).max() < 1e-6


# -- cross-scan ---------------------------------------------------------------------


def test_cross_scan_traversal_orders():
    a, b, c, d = [float(v) for v in (1, 2, 3, 4)]
    v = t64(np.array([[[a], [b]], [[c], [d]]]))
    seqs = cross_scan(v).data
    assert seqs.shape == (4, 4, 1)  # time-major: (T, directions, C)
    d1, d2, d3, d4 = (seqs[:, d, 0].tolist() for d in range(4))
    assert d1 == [a, b, c, d]
    assert d2 == [d, c, b, a]
    assert d3 == [a, c, b, d]
    assert d4 == [d, b, c, a]


def test_cross_scan_single_position():
    v = t64(np.arange(3.0).reshape(1, 1, 3))
    seqs = cross_scan(v).data
    assert seqs.shape == (1, 4, 3)
    for d in range(4):
        assert np.array_equal(seqs[:, d], v.data.reshape(1, 3))


def test_cross_merge_of_cross_scan_is_exactly_four_v():
    rng = np.random.default_rng(9)
    v = Tensor(rng.integers(-8, 9, size=(5, 3, 4)).astype(np.float32))
    merged = cross_merge(cross_scan(v), 5, 3)
    assert np.array_equal(merged.data, 4.0 * v.data)


def test_cross_merge_rejects_wrong_shapes():
    # each refused shape differs from the accepted (T, 4, C) = (6, 4, 2) in one axis
    rng = np.random.default_rng(19)
    assert cross_merge(rand64(rng, (6, 4, 2)), 2, 3).shape == (2, 3, 2)
    with pytest.raises(ShapeError):
        cross_merge(rand64(rng, (6, 3, 2)), 2, 3)  # three directions
    with pytest.raises(ShapeError):
        cross_merge(rand64(rng, (5, 4, 2)), 2, 3)  # 5 tokens on a 2x3 grid
    with pytest.raises(ShapeError):
        cross_merge(rand64(rng, (6, 4)), 2, 3)  # no channel axis


# -- scans --------------------------------------------------------------------------


def test_linear_scan_zero_decay_is_passthrough():
    rng = np.random.default_rng(10)
    u = rng.standard_normal((7, 3, 2))
    h = linear_scan(t64(np.zeros_like(u)), t64(u)).data
    assert np.allclose(h, u)
    # y_t = <ones/N, h_t> recovers u when the drive replicates u over N states
    y = (h * (1.0 / h.shape[-1])).sum(-1)
    assert np.allclose(y, u.mean(-1))


def test_linear_scan_unit_decay_is_prefix_sum():
    rng = np.random.default_rng(11)
    u = rng.standard_normal((9, 1, 1))
    h = linear_scan(t64(np.ones_like(u)), t64(u)).data
    assert np.allclose(h[:, 0, 0], np.cumsum(u[:, 0, 0]), atol=1e-12)


def sequential_scan(decay, x):
    """h_t = decay_t * h_{t-1} + x_t, one time step at a time, in float64."""
    h = np.zeros(x.shape[:-3] + x.shape[-2:])
    out = np.zeros(x.shape)
    for t in range(x.shape[-3]):
        h = decay[..., t, :, :] * h + x[..., t, :, :]
        out[..., t, :, :] = h
    return out


def scan_operands(rng, t, dtype):
    """(B, 4, T, C, N) decays exp(-r), r in [1e-3, 0.8] (dt * rate at init), and drives."""
    shape = (2, 4, t, 3, 2)
    decay = np.exp(-rng.uniform(1e-3, 0.8, shape)).astype(dtype)
    drive = (0.1 * rng.standard_normal(shape)).astype(dtype)
    return decay, drive


# every T up to 70 (odd T at every recursion depth) and the paper's stage lengths,
# which reach the odd length 49 six levels down
SCAN_LENGTHS = list(range(71)) + [196, 784, 3136]


@pytest.mark.parametrize("t", SCAN_LENGTHS)
def test_linear_scan_matches_doubling_reference_and_sequential_loop(t):
    # operands that require grad run the taped odd-even scan; under no_grad
    # the same operands run the tape-free recurrence
    for taped in (True, False):
        rng = np.random.default_rng(1000 + t)
        with nullcontext() if taped else no_grad():
            decay, drive = scan_operands(rng, t, np.float64)
            got = linear_scan(*(Tensor(a, requires_grad=True) for a in (decay, drive)))
            assert got.shape == drive.shape and got.dtype == np.float64
            assert got.requires_grad is taped
            if t:
                assert np.abs(got.data - sequential_scan(decay, drive)).max() < 1e-12

            decay32, drive32 = scan_operands(rng, t, np.float32)
            got32 = linear_scan(*(Tensor(a, requires_grad=True) for a in (decay32, drive32)))
            assert got32.shape == drive32.shape and got32.dtype == np.float32
            if t:
                oracle = sequential_scan(decay32.astype(np.float64), drive32.astype(np.float64))
                assert np.abs(got32.data - oracle).max() < 1e-5


def test_linear_scan_without_tape_edge_cases():
    rng = np.random.default_rng(1100)
    for t in (0, 1, 5):
        decay, drive = (t64(a) for a in scan_operands(rng, t, np.float64))
        got = linear_scan(decay, drive)
        assert got.shape == (2, 4, t, 3, 2) and not got.requires_grad
        assert not np.shares_memory(got.data, drive.data)
        if t == 1:
            assert np.array_equal(got.data, drive.data)


@pytest.mark.parametrize("taped", [True, False])
def test_linear_scan_overflow_raises_numerics_error(taped):
    decay = Tensor(np.ones((2, 1, 1), dtype=np.float32), requires_grad=True)
    drive = Tensor(np.full((2, 1, 1), 3e38, dtype=np.float32), requires_grad=True)
    # the taped scan's add lets numpy warn before its check raises, as a direct
    # add does (tensor module docstring); the tape-free recurrence warns nothing
    warns = pytest.warns(RuntimeWarning, match="overflow encountered in add") if taped else nullcontext()
    with nullcontext() if taped else no_grad(), warns, pytest.raises(NumericsError):
        linear_scan(decay, drive)


def test_linear_scan_rejects_mixed_precisions():
    rng = np.random.default_rng(1200)
    decay, drive = scan_operands(rng, 5, np.float64)
    with pytest.raises(TypeError):
        linear_scan(t64(decay), Tensor(drive.astype(np.float32)))


@pytest.mark.parametrize("t", [1, 2, 3, 5, 7, 16, 49])
def test_linear_scan_gradients_match_finite_differences(t):
    rng = np.random.default_rng(2000 + t)
    shape = (t, 2, 3)
    decay = t64(np.exp(-rng.uniform(0.05, 1.0, shape)))
    drive = rand64(rng, shape)
    proj = rand64(rng, shape)
    wrt_decay = finite_diff_check(lambda d: reduce_sum(mul(linear_scan(d, drive), proj)), decay)
    wrt_drive = finite_diff_check(lambda x: reduce_sum(mul(linear_scan(decay, x), proj)), drive)
    assert wrt_decay < 1e-4, wrt_decay
    assert wrt_drive < 1e-4, wrt_drive


def test_linear_scan_single_step_gives_decay_no_gradient():
    # h_1 = x_1: the decay never enters the output, so backward leaves its grad absent
    rng = np.random.default_rng(2100)
    decay = Tensor(np.exp(-rng.uniform(0.05, 1.0, (1, 2, 3))), requires_grad=True)
    drive = Tensor(rng.standard_normal((1, 2, 3)), requires_grad=True)
    h = linear_scan(decay, drive)
    # a recording call with T <= 1 returns the drive itself, not a copy
    assert h is drive
    empty = Tensor(np.zeros((0, 2, 3)), requires_grad=True)
    assert linear_scan(empty, empty) is empty
    reduce_sum(h).backward()
    assert decay.grad is None
    assert np.array_equal(drive.grad, np.ones((1, 2, 3)))


def test_selective_scan_matches_sequential_oracle():
    rng = np.random.default_rng(12)
    params = SsmBranch(8, state_dim=4, rng=rng, dtype=np.float64)
    u = rng.standard_normal((16, 8))
    v = rng.standard_normal((2, 7, 7, 8))
    for mode in (nullcontext, no_grad):
        with mode():
            # the row-major traversal of a 1 x T map is the sequence itself
            got = selective_scan(t64(u.reshape(1, 16, 8)), params).data
            assert np.abs(got[..., 0, :] - naive_selective_scan(u, params)).max() < 1e-5
            # a batch of odd-sided maps, all four traversals (T = 49); the
            # oracle takes them direction-major, (..., 4, T, C)
            got = selective_scan(t64(v), params).data
            seqs = np.moveaxis(cross_scan(t64(v)).data, -2, -3)
            want = np.moveaxis(naive_selective_scan(seqs, params), -3, -2)
            assert np.abs(got - want).max() < 1e-12


def test_selective_scan_small_step_limit_is_skip_path():
    # as dt -> 0 the readouts vanish and the branch is its skip, (4 D v) W_out + b
    rng = np.random.default_rng(13)
    params = SsmBranch(4, state_dim=3, rng=rng, dtype=np.float64)
    params.dt_weight.data = np.zeros_like(params.dt_weight.data)
    params.dt_bias.data = np.full_like(params.dt_bias.data, np.log(np.expm1(1e-8)))
    params.skip_gain.data = rng.standard_normal(4)
    params.out_bias.data = rng.standard_normal(4)
    v = rand64(rng, (3, 4, 4))
    assert np.abs(selective_scan(v, params).data).max() < 1e-5
    skip = (4.0 * params.skip_gain.data * v.data) @ params.out_weight.data + params.out_bias.data
    assert np.abs(params(v).data - skip).max() < 1e-5


def test_selective_scan_computes_per_token_terms_once(monkeypatch):
    # dt and the decay belong to a token, not to a traversal: one softplus
    # over the H x W x C grid and one decay exp over H x W x C x N, not four;
    # only C, the decay and the drive are cross-scanned (the skip is added
    # once on the grid), each as one map of H x W tokens
    sizes = {"softplus": [], "exp": [], "cross_scan": []}

    def counting(name, op):
        def counted(x):
            sizes[name].append(x.size)
            return op(x)
        return counted

    for name in sizes:
        monkeypatch.setattr(encoders, name, counting(name, getattr(encoders, name)))
    c, n = 6, 4
    branch = SsmBranch(c, state_dim=n, rng=np.random.default_rng(16))
    branch(Tensor(np.random.default_rng(17).standard_normal((5, 4, c)).astype(np.float32)))
    assert sizes["softplus"] == [5 * 4 * c]
    assert sizes["exp"] == [c * n, 5 * 4 * c * n]  # the rates A = -exp(a_log), then the decay
    assert sizes["cross_scan"] == [5 * 4 * n, 5 * 4 * c * n, 5 * 4 * c * n]


# -- assembled SSM branch --------------------------------------------------------------


def test_ssm_branch_single_position_is_four_times_token_scan():
    rng = np.random.default_rng(14)
    branch = SsmBranch(6, state_dim=4, rng=rng, dtype=np.float64)
    v = rand64(rng, (1, 1, 6))
    (directions,) = selective_scan(v, branch).data  # the one step's (4, C) readouts
    y = directions[0]
    assert all(np.array_equal(d, y) for d in directions)
    skip = branch.skip_gain.data * v.data.reshape(1, 6)
    want = (4.0 * y + 4.0 * skip) @ branch.out_weight.data + branch.out_bias.data
    assert np.allclose(branch(v).data.reshape(1, 6), want)


def test_ssm_branch_transpose_symmetry():
    rng = np.random.default_rng(15)
    branch = SsmBranch(5, state_dim=4, rng=rng, dtype=np.float64)
    v = rand64(rng, (3, 3, 5))
    direct = branch(transpose(v, (1, 0, 2))).data
    swapped = branch(v).data.transpose(1, 0, 2)
    assert np.abs(direct - swapped).max() < 1e-10


def test_ssm_branch_zero_input_zero_output():
    branch = SsmBranch(4, state_dim=2, rng=np.random.default_rng(0), dtype=np.float64)
    out = branch(t64(np.zeros((3, 2, 4))))
    assert np.allclose(out.data, 0.0, atol=1e-300)


def list_based_ssm_branch(branch, v):
    """SsmBranch forward with the directions kept as a python list: the
    per-token terms computed on the grid, each unrolled into four traversals
    concatenated for one scan, the readouts sliced apart again and put back
    on the grid one by one before the (g1 + g2) + (g3 + g4) sum, to which the
    skip 4 * D * v is added."""
    *lead, h, w, c = v.shape
    t, n, nl = h * w, branch.state_dim, len(lead)
    to_cols = tuple(range(nl)) + (nl + 1, nl, nl + 2)

    def traversals(grid):
        """(..., H, W, K) -> (..., 4, T, K), one direction at a time."""
        k = grid.shape[-1]
        d1 = reshape(grid, (*lead, t, k))
        d3 = reshape(transpose(grid, to_cols), (*lead, t, k))
        seqs = [d1, flip(d1, axis=-2), d3, flip(d3, axis=-2)]
        return concat([reshape(s, (*lead, 1, t, k)) for s in seqs], axis=-3)

    dt = softplus(add(matmul(v, branch.dt_weight), branch.dt_bias))
    b_tok = matmul(v, branch.b_weight)
    c_tok = matmul(v, branch.c_weight)
    rates = mul(exp(branch.a_log), Tensor(np.asarray(-1.0, dtype=v.dtype)))
    decay = exp(mul(reshape(dt, (*lead, h, w, c, 1)), rates))
    drive = matmul(reshape(mul(dt, v), (*lead, h, w, c, 1)), reshape(b_tok, (*lead, h, w, 1, n)))
    decays, drives = (
        reshape(traversals(reshape(g, (*lead, h, w, c * n))), (*lead, 4, t, c, n))
        for g in (decay, drive)
    )
    read = matmul(linear_scan(decays, drives), reshape(traversals(c_tok), (*lead, 4, t, n, 1)))
    scanned = reshape(read, (*lead, 4, t, c))
    outs = []
    for k in range(4):
        outs.append(reshape(slice_(scanned, nl, k, k + 1), (*lead, t, c)))
    g1 = reshape(outs[0], (*lead, h, w, c))
    g2 = reshape(flip(outs[1], axis=-2), (*lead, h, w, c))
    g3 = transpose(reshape(outs[2], (*lead, w, h, c)), to_cols)
    g4 = transpose(reshape(flip(outs[3], axis=-2), (*lead, w, h, c)), to_cols)
    four = Tensor(np.asarray(4.0, dtype=v.dtype))
    merged = add(add(add(g1, g2), add(g3, g4)), mul(v, mul(branch.skip_gain, four)))
    return add(matmul(merged, branch.out_weight), branch.out_bias)


@pytest.mark.parametrize("taped", [True, False])
def test_ssm_branch_matches_independent_oracle(taped):
    rng = np.random.default_rng(20)
    branch = SsmBranch(6, state_dim=4, rng=rng, dtype=np.float64)
    branch.skip_gain.data = rng.standard_normal(6)
    branch.out_bias.data = rng.standard_normal(6)
    v = rng.standard_normal((2, 7, 5, 6))
    with nullcontext() if taped else no_grad():
        got = branch(t64(v))
    assert got.requires_grad is taped
    assert np.abs(got.data - naive_ssm_branch(v, branch)).max() < 1e-12


def test_ssm_branch_matches_list_based_path_bitwise():
    grads = []
    for forward in (SsmBranch.__call__, list_based_ssm_branch):
        rng = np.random.default_rng(18)
        branch = SsmBranch(6, state_dim=4, rng=rng)
        v = Tensor(rng.standard_normal((2, 3, 5, 6)).astype(np.float32), requires_grad=True)
        out = forward(branch, v)
        reduce_sum(mul(out, Tensor(rng.standard_normal(out.shape).astype(np.float32)))).backward()
        grads.append([out.data, v.grad] + [p.grad for p in branch.parameters()])
    for got, want in zip(*grads):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("a_log", [-20.0, 20.0])
def test_ssm_decays_stay_in_unit_interval_for_extreme_rates(a_log, monkeypatch):
    # T = 3136 is the paper's first-stage scan length, where a decay above 1
    # would grow the state as decay^T; A = -exp(a_log) keeps every decay in
    # [0, 1] (float32 rounds these to exactly 1.0 and 0.0)
    decays = []

    def recording_scan(decay, x):
        decays.append(decay.data)
        return linear_scan(decay, x)

    monkeypatch.setattr(encoders, "linear_scan", recording_scan)
    rng = np.random.default_rng(19)
    branch = SsmBranch(8, state_dim=4, rng=rng)
    branch.a_log.data = np.full_like(branch.a_log.data, a_log)
    with no_grad():
        out = branch(Tensor(rng.standard_normal((56, 56, 8)).astype(np.float32))).data
    (decay,) = decays
    assert decay.shape == (56 * 56, 4 * 8, 4)  # time-major (T, 4 * C, N)
    assert decay.min() >= 0.0 and decay.max() <= 1.0
    assert np.isfinite(out).all()


# -- shared shape contract ---------------------------------------------------------------


@pytest.mark.parametrize("spatial", [(1, 1), (2, 3), (5, 4)])
def test_all_branches_preserve_shape(spatial):
    rng = np.random.default_rng(17)
    h, w = spatial
    c = 4
    v = rand64(rng, (h, w, c))
    branches = [
        ConvBranch(c, rng=rng, dtype=np.float64),
        AttentionBranch(c, heads=2, rng=rng, dtype=np.float64),
        ChannelMlpBranch(c, rng=rng, dtype=np.float64),
        SsmBranch(c, state_dim=3, rng=rng, dtype=np.float64),
    ]
    for branch in branches:
        assert branch(v).shape == (h, w, c)
        batched = rand64(rng, (2, h, w, c))
        assert branch(batched).shape == (2, h, w, c)
    # a map without a row or a column axis is refused
    for branch in branches:
        with pytest.raises(ShapeError):
            branch(rand64(rng, (w, c)))
