"""Substrate tests: primitive semantics, backward rules, finite-difference
verification of every differentiable primitive, and determinism."""

import gc
import warnings

import numpy as np
import pytest

from mixssm import tensor
from mixssm.errors import NumericsError, ShapeError
from mixssm.gradcheck import finite_diff_check
from mixssm.tensor import (
    TapeNode,
    Tensor,
    add,
    concat,
    conv2d,
    exp,
    flip,
    gelu,
    layer_norm,
    log,
    matmul,
    maximum,
    mul,
    no_grad,
    reduce_max,
    reduce_mean,
    reduce_sum,
    reshape,
    slice_,
    softmax,
    softplus,
    sqrt,
    transpose,
)
from mixssm.train import cross_entropy_loss


def tensor64(values, requires_grad=False):
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=requires_grad)


# -- documented forward examples ------------------------------------------------


def test_add_elementwise():
    out = add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
    assert np.array_equal(out.data, [4.0, 6.0])


def test_softmax_of_zeros_is_uniform():
    out = softmax(Tensor(np.zeros(4)), axis=-1)
    assert np.allclose(out.data, 0.25, atol=0)


def triple_loop_matmul(a, b):
    out = np.zeros((a.shape[0], b.shape[1]), dtype=a.dtype)
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            for k in range(a.shape[1]):
                out[i, j] += a[i, k] * b[k, j]
    return out


def test_matmul_matches_triple_loop_oracle():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((2, 3))
    b = rng.standard_normal((3, 4))
    got = matmul(tensor64(a), tensor64(b)).data
    assert np.abs(got - triple_loop_matmul(a, b)).max() < 1e-6


# -- backward examples -----------------------------------------------------------


def test_backward_sum_of_squares():
    x = tensor64([3.0], requires_grad=True)
    loss = reduce_sum(mul(x, x))
    loss.backward()
    assert np.allclose(x.grad, [6.0])


def test_backward_of_sum_is_ones():
    a = tensor64([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
    b = tensor64([[5.0, 6.0], [7.0, 8.0]], requires_grad=True)
    reduce_sum(add(a, b)).backward()
    assert np.array_equal(a.grad, np.ones((2, 2)))
    assert np.array_equal(b.grad, np.ones((2, 2)))


def test_backward_softmax_head_matches_finite_differences():
    rng = np.random.default_rng(11)
    z = tensor64(rng.standard_normal(5))
    onehot = tensor64(np.eye(5)[2])
    err = finite_diff_check(lambda t: reduce_mean(mul(softmax(t, axis=-1), onehot)), z, step=1e-3)
    assert err < 1e-4, err


def test_backward_accumulates_until_cleared():
    x = tensor64([2.0], requires_grad=True)
    reduce_sum(mul(x, x)).backward()
    reduce_sum(mul(x, x)).backward()
    assert np.allclose(x.grad, [8.0])
    x.grad = None
    reduce_sum(mul(x, x)).backward()
    assert np.allclose(x.grad, [4.0])


def test_backward_requires_scalar_loss():
    x = tensor64([1.0, 2.0], requires_grad=True)
    with pytest.raises(ShapeError):
        add(x, x).backward()


def test_detached_graph_leaves_grads_absent():
    x = tensor64([1.0], requires_grad=True)
    with no_grad():
        y = reduce_sum(mul(x, x))
    y.backward()
    assert x.grad is None


def test_second_backward_on_the_same_root_raises():
    x = tensor64([2.0, -1.0], requires_grad=True)
    loss = reduce_sum(mul(x, x))
    loss.backward()
    first = x.grad.copy()
    with pytest.raises(RuntimeError):
        loss.backward()
    assert np.array_equal(x.grad, first)


def test_walk_into_a_released_shared_subgraph_raises_before_any_grad_changes():
    x = tensor64([2.0, -1.0], requires_grad=True)
    w = tensor64([0.5, 3.0], requires_grad=True)
    shared = mul(x, x)
    reduce_sum(shared).backward()
    first = x.grad.copy()
    # the second root's own nodes come before the shared ones in its walk
    second = reduce_sum(mul(shared, w))
    with pytest.raises(RuntimeError):
        second.backward()
    assert np.array_equal(x.grad, first)
    assert w.grad is None


def test_backward_releases_the_tape_while_its_outputs_stay_referenced():
    def live_nodes():
        return sum(isinstance(obj, TapeNode) for obj in gc.get_objects())

    rng = np.random.default_rng(5)
    w = tensor64(rng.standard_normal((3, 4)), requires_grad=True)
    x = tensor64(rng.standard_normal((2, 3)))
    gc.collect()
    before = live_nodes()
    probs = softmax(matmul(x, w), axis=-1)
    loss = cross_entropy_loss(probs, [1, 3])
    assert live_nodes() > before
    loss.backward()
    assert live_nodes() == before
    assert probs.data.shape == (2, 4) and w.grad.shape == (3, 4)


# -- finite_diff_check contract ----------------------------------------------------


def test_finite_diff_check_sum_of_squares():
    rng = np.random.default_rng(0)
    x = tensor64(rng.standard_normal(10))
    err = finite_diff_check(lambda t: reduce_sum(mul(t, t)), x, step=1e-4)
    assert err < 1e-6, err


def test_finite_diff_check_constant_function():
    x = tensor64(np.ones(4))
    assert finite_diff_check(lambda t: reduce_sum(mul(t, tensor64(np.zeros(4)))), x) == 0.0


def test_finite_diff_check_rejects_nondeterministic_function():
    state = {"calls": 0}

    def noisy(t):
        state["calls"] += 1
        return mul(reduce_sum(t), tensor64(float(state["calls"])))

    with pytest.raises(ValueError, match="deterministic"):
        finite_diff_check(noisy, tensor64([1.0]))


# -- per-primitive gradient property ------------------------------------------------

_R = {}


def _proj(rng, shape):
    return tensor64(rng.standard_normal(shape))


def _head(rng):
    """Scalar head: sum(out * R) with a fixed random projection."""

    def wrap(out):
        key = out.shape
        return reduce_sum(mul(out, _R[key]))

    return wrap


PRIMITIVE_CASES = [
    ("add_lhs", lambda rng: rng.standard_normal((3, 4)),
     lambda x, c: add(x, c((3, 4)))),
    ("add_rhs_broadcast", lambda rng: rng.standard_normal(4),
     lambda x, c: add(c((3, 4)), x)),
    ("mul_lhs", lambda rng: rng.standard_normal((3, 4)),
     lambda x, c: mul(x, c((3, 4)))),
    ("mul_rhs_broadcast", lambda rng: rng.standard_normal(4),
     lambda x, c: mul(c((3, 4)), x)),
    ("matmul_lhs", lambda rng: rng.standard_normal((3, 4)),
     lambda x, c: matmul(x, c((4, 2)))),
    ("matmul_rhs", lambda rng: rng.standard_normal((4, 2)),
     lambda x, c: matmul(c((3, 4)), x)),
    ("matmul_batched", lambda rng: rng.standard_normal((2, 3, 4)),
     lambda x, c: matmul(x, c((4, 2)))),
    ("conv2d_input", lambda rng: rng.standard_normal((4, 4, 3)),
     lambda x, c: conv2d(x, c((3, 3, 3, 2)))),
    ("conv2d_kernel", lambda rng: rng.standard_normal((3, 3, 3, 2)),
     lambda x, c: conv2d(c((4, 4, 3)), x)),
    ("conv2d_depthwise", lambda rng: rng.standard_normal((4, 4, 3)),
     lambda x, c: conv2d(x, c((3, 3, 1, 3)))),
    ("conv2d_depthwise_kernel", lambda rng: rng.standard_normal((3, 3, 1, 3)),
     lambda x, c: conv2d(c((4, 4, 3)), x)),
    ("reshape", lambda rng: rng.standard_normal((3, 4)),
     lambda x, c: reshape(x, (2, 6))),
    ("transpose", lambda rng: rng.standard_normal((2, 3, 4)),
     lambda x, c: transpose(x, (2, 0, 1))),
    ("slice", lambda rng: rng.standard_normal((4, 5)),
     lambda x, c: slice_(x, 1, 1, 4)),
    ("concat", lambda rng: rng.standard_normal((2, 3)),
     lambda x, c: concat([x, c((2, 3)), x], axis=1)),
    ("concat_negative_axis_unequal", lambda rng: rng.standard_normal((2, 3, 2)),
     lambda x, c: concat([c((2, 3, 1)), x, c((2, 3, 4))], axis=-1)),
    ("flip", lambda rng: rng.standard_normal((3, 4)),
     lambda x, c: flip(x, axis=0)),
    ("exp", lambda rng: rng.standard_normal((3, 4)),
     lambda x, c: exp(x)),
    ("log", lambda rng: rng.uniform(0.5, 2.0, (3, 4)),
     lambda x, c: log(x)),
    ("sqrt", lambda rng: rng.uniform(0.5, 2.0, (3, 4)),
     lambda x, c: sqrt(x)),
    ("softplus", lambda rng: rng.standard_normal((3, 4)),
     lambda x, c: softplus(x)),
    ("gelu", lambda rng: rng.standard_normal((3, 4)),
     lambda x, c: gelu(x)),
    ("layer_norm_input", lambda rng: rng.standard_normal((3, 6)),
     lambda x, c: layer_norm(x, c((6,)), c((6,)))),
    ("layer_norm_gamma", lambda rng: rng.standard_normal(6),
     lambda x, c: layer_norm(c((3, 6)), x, c((6,)))),
    ("layer_norm_beta", lambda rng: rng.standard_normal(6),
     lambda x, c: layer_norm(c((3, 6)), c((6,)), x)),
    ("softmax_axis", lambda rng: rng.standard_normal((3, 5)),
     lambda x, c: softmax(x, axis=-1)),
    ("reduce_sum_axis", lambda rng: rng.standard_normal((3, 4, 2)),
     lambda x, c: reduce_sum(x, axis=(0, 2))),
    ("reduce_mean_all", lambda rng: rng.standard_normal((3, 4)),
     lambda x, c: reduce_mean(x)),
    ("reduce_mean_split_axes", lambda rng: rng.standard_normal((3, 4, 2)),
     lambda x, c: reduce_mean(x, axis=(0, 2))),
    ("reduce_max_axis", lambda rng: rng.standard_normal((3, 4, 2)),
     lambda x, c: reduce_max(x, axis=(-3, -2))),
    ("elementwise_max", lambda rng: rng.standard_normal((3, 4)),
     lambda x, c: maximum(x, c((3, 4)))),
]


@pytest.mark.parametrize("name,make_input,apply", PRIMITIVE_CASES, ids=[c[0] for c in PRIMITIVE_CASES])
def test_primitive_gradients_match_finite_differences(name, make_input, apply):
    for seed in range(5):
        rng = np.random.default_rng(1000 + seed)
        consts = {}

        def const(shape):
            if shape not in consts:
                consts[shape] = tensor64(rng.standard_normal(shape))
            return consts[shape]

        x = tensor64(make_input(rng))
        probe_out = apply(x, const)
        _R[probe_out.shape] = tensor64(rng.standard_normal(probe_out.shape))
        head = _head(rng)
        err = finite_diff_check(lambda t: head(apply(t, const)), x, step=1e-4)
        assert err < 1e-4, f"{name} seed {seed}: {err}"


@pytest.mark.parametrize("name,make_input,apply", PRIMITIVE_CASES, ids=[c[0] for c in PRIMITIVE_CASES])
def test_float32_gradients_stay_float32(name, make_input, apply):
    """The rule of the module docstring: a float32 graph backpropagates in float32."""
    rng = np.random.default_rng(7)

    def leaf32(values):
        return Tensor(np.asarray(values, dtype=np.float32), requires_grad=True)

    consts = []

    def const(shape):
        consts.append(leaf32(rng.standard_normal(shape)))
        return consts[-1]

    x = leaf32(make_input(rng))
    out = apply(x, const)
    reduce_sum(mul(out, Tensor(rng.standard_normal(out.shape).astype(np.float32)))).backward()
    assert {leaf.grad.dtype for leaf in [x, *consts]} == {np.dtype(np.float32)}, name


# -- structural invariants --------------------------------------------------------


def test_reshape_transpose_round_trip_is_bitwise_identity():
    rng = np.random.default_rng(5)
    x = Tensor(rng.standard_normal((3, 4, 5)).astype(np.float32))
    back = reshape(reshape(x, (12, 5)), (3, 4, 5))
    assert np.array_equal(back.data, x.data)
    twice = transpose(transpose(x, (2, 0, 1)), (1, 2, 0))
    assert np.array_equal(twice.data, x.data)


def test_structural_ops_and_their_backward_rules_return_views():
    x = Tensor(np.arange(24.0).reshape(2, 3, 4), requires_grad=True)
    outs = {
        "reshape": reshape(x, (6, 4)),
        "transpose": transpose(x, (2, 0, 1)),
        "slice": slice_(x, -2, 1, 3),
        "flip": flip(x, axis=1),
        "concat": concat([x, x], axis=2),
    }
    for name in ("reshape", "transpose", "slice", "flip"):
        assert np.shares_memory(outs[name].data, x.data), name
    for name in ("transpose", "flip", "concat"):
        g = np.ones(outs[name].shape)
        for gx in outs[name].node.backward_fn(g):
            assert np.shares_memory(gx, g), name


def test_softmax_rows_sum_to_one_and_shift_invariance():
    rng = np.random.default_rng(6)
    for seed in range(5):
        z = rng.standard_normal((4, 7))
        out = softmax(tensor64(z), axis=-1).data
        assert np.abs(out.sum(axis=-1) - 1.0).max() < 1e-6
        shifted = softmax(tensor64(z + 13.7), axis=-1).data
        assert np.abs(out - shifted).max() < 1e-6
    # single precision carries the same contract
    z32 = Tensor(rng.standard_normal((3, 6)).astype(np.float32))
    out32 = softmax(z32, axis=-1).data
    assert np.abs(out32.sum(axis=-1) - 1.0).max() < 1e-6


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_softmax_is_bitwise_the_out_of_place_formula_and_keeps_its_input(dtype):
    rng = np.random.default_rng(16)
    for shape, axis in (((5, 9), -1), ((3, 4, 6), 1), ((2, 64, 64), -1)):
        z = (rng.standard_normal(shape) * 4).astype(dtype)
        x = Tensor(z.copy())
        out = softmax(x, axis=axis).data
        e = np.exp(z - z.max(axis=axis, keepdims=True))
        assert np.array_equal(out, e / e.sum(axis=axis, keepdims=True))
        assert np.array_equal(x.data, z)


def test_fixed_seed_graph_is_bitwise_deterministic():
    def run():
        rng = np.random.default_rng(42)
        x = Tensor(rng.standard_normal((6, 6, 3)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 3, 3, 3)).astype(np.float32), requires_grad=True)
        out = reduce_mean(gelu(conv2d(x, w)))
        out.backward()
        return out.data.copy(), x.grad.copy(), w.grad.copy()

    first, second = run(), run()
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


# -- error contracts ----------------------------------------------------------------


def test_overflow_surfaces_as_error_not_nan():
    with pytest.raises(NumericsError, match="exp"):
        exp(Tensor([1000.0], dtype=np.float32))


FINITE_PRESERVING_CASES = {
    "reshape": lambda x: reshape(x, (2, 4)),
    "transpose": lambda x: transpose(reshape(x, (2, 4)), (1, 0)),
    "slice": lambda x: slice_(x, 0, 1, 7),
    "concat": lambda x: concat([x, flip(x, axis=0)], axis=0),
    "flip": lambda x: flip(x, axis=0),
    "maximum": lambda x: maximum(x, flip(x, axis=0)),
    "reduce_max": lambda x: reduce_max(reshape(x, (2, 4)), axis=1),
    "softmax": lambda x: softmax(x, axis=0),
    "gelu": gelu,
    "softplus": softplus,
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_ops_that_skip_the_finiteness_check_keep_extreme_finite_inputs_finite(dtype):
    # the skipped set is exactly the set exercised here
    assert set(FINITE_PRESERVING_CASES) == tensor._FINITE_PRESERVING
    info = np.finfo(dtype)
    extremes = np.array([info.max, -info.max, info.smallest_subnormal, -0.0, 0.0,
                         -info.smallest_subnormal, info.tiny, 1.0], dtype=dtype)
    for name, fn in FINITE_PRESERVING_CASES.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = fn(Tensor(extremes))
        assert out.dtype == dtype and np.isfinite(out.data).all(), name


def test_softmax_of_inputs_spanning_more_than_the_float_range_warns_nothing():
    x = Tensor(np.array([-3e38, 3e38, 0.0], dtype=np.float32))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = softmax(x, axis=-1)
    assert np.array_equal(out.data, [0.0, 1.0, 0.0])


def test_non_finite_input_rejected_at_construction():
    with pytest.raises(NumericsError):
        Tensor([np.nan, 1.0])
    with pytest.raises(NumericsError):
        Tensor([np.inf], dtype=np.float64)


def test_shape_mismatch_names_op_and_shapes():
    pairs = {"add": add, "mul": mul, "maximum": maximum}
    for op, fn in pairs.items():
        with pytest.raises(ShapeError) as err:
            fn(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))
        assert op in str(err.value) and "(2, 3)" in str(err.value), op
    for parts in ([(2, 3), (2, 4)], [(2, 3), (2, 3, 1)], []):
        with pytest.raises(ShapeError) as err:
            concat([Tensor(np.zeros(shape)) for shape in parts], axis=0)
        assert "concat" in str(err.value) and all(str(sh) in str(err.value) for sh in parts)
    with pytest.raises(ShapeError) as err:
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))
    assert "matmul" in str(err.value)
    with pytest.raises(ShapeError):
        conv2d(Tensor(np.zeros((4, 4, 3))), Tensor(np.zeros((3, 3, 2, 2))))
    with pytest.raises(ShapeError, match="reduce_sum: duplicate"):
        reduce_sum(Tensor(np.zeros((2, 3))), axis=(0, 0))


# an axis outside [-ndim, ndim) of a 2-d input, per op taking one
OUT_OF_RANGE_AXIS_CASES = {
    "reduce_sum": lambda x: reduce_sum(x, axis=2),
    "reduce_mean": lambda x: reduce_mean(x, axis=(0, -3)),
    "reduce_max": lambda x: reduce_max(x, axis=5),
    "softmax": lambda x: softmax(x, axis=3),
    "flip": lambda x: flip(x, -3),
    "slice": lambda x: slice_(x, 2, 0, 1),
}


@pytest.mark.parametrize("op", list(OUT_OF_RANGE_AXIS_CASES))
def test_out_of_range_axis_rejected_not_wrapped(op):
    with pytest.raises(ShapeError, match=f"{op}: axis"):
        OUT_OF_RANGE_AXIS_CASES[op](tensor64(np.zeros((2, 3))))


def test_conv2d_groups_other_than_dense_or_depthwise_rejected():
    with pytest.raises(ShapeError, match="neither dense nor depthwise"):
        conv2d(Tensor(np.zeros((4, 4, 4))), Tensor(np.zeros((3, 3, 2, 4))))


def f32(shape):
    return Tensor(np.ones(shape, dtype=np.float32))


def f64(shape):
    return Tensor(np.ones(shape, dtype=np.float64))


# one float32 and one float64 operand for each primitive that takes several
MIXED_PRECISION_CASES = {
    "add": lambda: add(f32((1,)), f64((1,))),
    "mul": lambda: mul(f64((2, 1)), f32((3,))),
    "maximum": lambda: maximum(f32((2,)), f64((2,))),
    "matmul": lambda: matmul(f32((2, 3)), f64((3, 2))),
    "concat": lambda: concat([f32((2,)), f64((3,))], axis=0),
    "layer_norm_scale": lambda: layer_norm(f32((2, 3)), f64((3,)), f32((3,))),
    "conv2d_kernel": lambda: conv2d(f32((4, 4, 2)), f64((3, 3, 2, 2))),
    "conv2d_depthwise_kernel": lambda: conv2d(f32((4, 4, 2)), f64((3, 3, 1, 2))),
}


@pytest.mark.parametrize("name", list(MIXED_PRECISION_CASES))
def test_mixed_precision_in_one_graph_rejected(name):
    with pytest.raises(TypeError, match="mixed precisions"):
        MIXED_PRECISION_CASES[name]()


def test_scalar_tensor_is_zero_dimensional():
    assert Tensor(2.0).shape == ()
    assert Tensor(np.float32(2.0)).shape == ()
    probs = Tensor(np.array([[0.5, 0.25, 0.25]], dtype=np.float32), requires_grad=True)
    loss = cross_entropy_loss(probs, [0])
    assert loss.shape == ()
    loss.backward()
    assert np.allclose(probs.grad, [[-2.0, 0.0, 0.0]])


def test_transpose_permutes_the_trailing_axes():
    rng = np.random.default_rng(8)
    x = tensor64(rng.standard_normal((2, 3, 4, 5)))
    partial = {(1, 0): (0, 1, 3, 2), (2, 0, 1): (0, 3, 1, 2), (0,): (0, 1, 2, 3)}
    for axes, full in partial.items():
        assert np.array_equal(transpose(x, axes).data, x.data.transpose(full)), axes
    assert np.array_equal(transpose(x, (3, 1, 0, 2)).data, x.data.transpose(3, 1, 0, 2))
    for bad in ((0, 0), (1, 2), (0, 1, 2, 3, 4), (-1, 0)):
        with pytest.raises(ShapeError):
            transpose(x, bad)
    for axes, full in partial.items():
        weight = tensor64(rng.standard_normal(x.data.transpose(full).shape))
        err = finite_diff_check(lambda t: reduce_sum(mul(transpose(t, axes), weight)), x)
        assert err < 1e-6, (axes, err)
