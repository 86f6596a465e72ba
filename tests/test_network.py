"""Network assembly tests: embedding, block wiring, merging, head, checkpoints."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from mixssm.errors import CheckpointError, ConfigError, NumericsError, ShapeError
from mixssm.gradcheck import check_parameter_gradients, finite_diff_check
from mixssm.network import (
    BRANCH_NAMES,
    MixSsmBlock,
    Model,
    ModelConfig,
    PatchEmbed,
    PatchMerging,
    desk_config,
    load_checkpoint,
    save_checkpoint,
    space_to_depth,
)
from mixssm.tensor import Tensor, mul, no_grad, reduce_sum


def t64(values):
    return Tensor(np.asarray(values, dtype=np.float64))


def micro_config(**overrides):
    base = dict(
        input_size=(16, 16),
        depths=(1, 1),
        channels=8,
        heads=1,
        num_classes=4,
        seed=0,
    )
    base.update(overrides)
    return ModelConfig(**base)


# -- patch embedding ------------------------------------------------------------


def test_patch_embed_224_to_56():
    rng = np.random.default_rng(0)
    embed = PatchEmbed(4, 3, 8, rng, np.float32)
    out = embed(Tensor(rng.standard_normal((224, 224, 3)).astype(np.float32)))
    assert out.shape == (56, 56, 8)


def test_patch_embed_32_to_8():
    rng = np.random.default_rng(1)
    embed = PatchEmbed(4, 3, 16, rng, np.float64)
    assert embed(t64(np.zeros((32, 32, 3)))).shape == (8, 8, 16)


def test_patch_embed_zero_image_zero_bias_is_zero():
    rng = np.random.default_rng(2)
    embed = PatchEmbed(4, 3, 8, rng, np.float64)
    out = embed(t64(np.zeros((8, 8, 3))))
    assert np.allclose(out.data, 0.0)


def test_patch_embed_rejects_indivisible_dims():
    rng = np.random.default_rng(3)
    embed = PatchEmbed(4, 3, 8, rng, np.float64)
    with pytest.raises(ShapeError):
        embed(t64(np.zeros((30, 32, 3))))


def strided_valid_conv(x, w, b):
    """Unpadded convolution at stride p with a p x p kernel, one output pixel at a time."""
    p, cout = w.shape[0], w.shape[-1]
    *lead, h, wd, cin = x.shape
    images = x.reshape(-1, h, wd, cin)
    out = np.zeros((images.shape[0], h // p, wd // p, cout))
    for n in range(images.shape[0]):
        for i in range(h // p):
            for j in range(wd // p):
                for m in range(p):
                    for k in range(p):
                        out[n, i, j] += images[n, i * p + m, j * p + k] @ w[m, k]
    return out.reshape(*lead, h // p, wd // p, cout) + b


@pytest.mark.parametrize("lead", [(), (2,), (2, 3)], ids=["unbatched", "batch", "two_lead_axes"])
@pytest.mark.parametrize("patch", [2, 4])
def test_patch_embed_matches_strided_valid_convolution(patch, lead):
    rng = np.random.default_rng(12)
    embed = PatchEmbed(patch, 3, 5, rng, np.float64)
    embed.kernel.data = rng.standard_normal(embed.kernel.shape)
    embed.bias.data = rng.standard_normal(5)
    x = rng.standard_normal((*lead, 8, 12, 3))
    want = embed.norm(t64(strided_valid_conv(x, embed.kernel.data, embed.bias.data)))
    got = embed(t64(x))
    assert got.shape == (*lead, 8 // patch, 12 // patch, 5)
    assert np.abs(got.data - want.data).max() < 1e-12


@pytest.mark.parametrize("wrt", ["kernel", "bias", "input"])
def test_patch_embed_gradients_match_finite_differences(wrt):
    rng = np.random.default_rng(13)
    embed = PatchEmbed(2, 3, 4, rng, np.float64)
    embed.bias.data = rng.standard_normal(4)
    x = t64(rng.standard_normal((2, 4, 6, 3)))
    proj = t64(rng.standard_normal((2, 2, 3, 4)))

    def loss(t):
        if wrt == "input":
            return reduce_sum(mul(embed(t), proj))
        setattr(embed, wrt, t)
        return reduce_sum(mul(embed(x), proj))

    err = finite_diff_check(loss, x if wrt == "input" else getattr(embed, wrt))
    assert err < 1e-4, err


# -- mixing block -----------------------------------------------------------------


def make_block(branches, rng=None):
    rng = rng if rng is not None else np.random.default_rng(4)
    return MixSsmBlock(
        8, 2, branches, state_dim=4, kernel_size=3, pooling="average",
        aggregation="selective", reduction=4, rng=rng, dtype=np.float64,
    )


def test_block_refuses_per_direction_ssm_projections():
    with pytest.raises(ValueError, match="ssm_shared_directions"):
        MixSsmBlock(
            8, 2, BRANCH_NAMES, state_dim=4, kernel_size=3, pooling="average",
            aggregation="selective", reduction=4, rng=np.random.default_rng(4),
            dtype=np.float64, ssm_shared_directions=False,
        )


def test_block_single_identity_branch_doubles_input():
    # an identity branch after the pre-norm gives v + norm(v)
    block = make_block(("conv",))
    block.conv = lambda u: u
    v = t64(np.random.default_rng(5).standard_normal((4, 4, 8)))
    assert np.allclose(block(v).data, v.data + block.norm(v).data)


def test_block_zero_branch_parameters_is_residual_identity():
    block = make_block(BRANCH_NAMES)
    for branch_name in BRANCH_NAMES:
        branch = getattr(block, branch_name)
        for _, p in branch.named_parameters():
            p.data = np.zeros_like(p.data)
    v = t64(np.random.default_rng(6).standard_normal((4, 4, 8)))
    assert np.array_equal(block(v).data, v.data)


def test_block_preserves_shape_with_batch_axes():
    block = make_block(BRANCH_NAMES)
    v = t64(np.random.default_rng(7).standard_normal((2, 4, 4, 8)))
    assert block(v).shape == (2, 4, 4, 8)


# -- patch merging -------------------------------------------------------------------


def test_patch_merging_shape_halves_and_doubles():
    rng = np.random.default_rng(8)
    merge = PatchMerging(16, rng, np.float64)
    out = merge(t64(rng.standard_normal((8, 8, 16))))
    assert out.shape == (4, 4, 32)


def test_patch_merging_stage_shape_from_56():
    rng = np.random.default_rng(9)
    merge = PatchMerging(8, rng, np.float32)
    out = merge(Tensor(np.random.default_rng(0).standard_normal((56, 56, 8)).astype(np.float32)))
    assert out.shape == (28, 28, 16)


def test_patch_merging_constant_input_constant_output():
    rng = np.random.default_rng(10)
    merge = PatchMerging(4, rng, np.float64)
    merge.reduction.data = np.full((16, 8), 1.0 / 16.0)  # averaging projection
    out = merge(t64(np.full((4, 4, 4), 3.5))).data
    assert np.allclose(out, out.reshape(-1, 8)[0])


def test_patch_merging_rejects_odd_dims():
    rng = np.random.default_rng(11)
    merge = PatchMerging(4, rng, np.float64)
    with pytest.raises(ShapeError):
        merge(t64(np.zeros((3, 4, 4))))


def test_patch_regroups_refuse_a_map_without_row_and_column_axes():
    rng = np.random.default_rng(12)
    flat = t64(np.zeros((3, 4)))
    regroups = (
        lambda x: space_to_depth(x, 2),
        PatchMerging(4, rng, np.float64),
        PatchEmbed(2, 4, 8, rng, np.float64),
    )
    for regroup in regroups:
        with pytest.raises(ShapeError, match="H, W, C"):
            regroup(flat)


# -- classifier ------------------------------------------------------------------------


def test_forward_classify_is_distribution():
    model = Model(micro_config())
    rng = np.random.default_rng(12)
    probs = model.forward_classify(Tensor(rng.standard_normal((2, 16, 16, 3)).astype(np.float32)))
    assert probs.shape == (2, 4)
    assert np.abs(probs.data.sum(-1) - 1.0).max() < 1e-6
    assert (probs.data > 0).all() and (probs.data < 1).all()


def test_zero_head_weights_give_bias_softmax_for_any_image():
    model = Model(micro_config())
    model.head_weight.data = np.zeros_like(model.head_weight.data)
    z = np.array([0.3, -1.2, 2.0, 0.0], dtype=np.float32)
    model.head_bias.data = z.copy()
    e = np.exp(z - z.max())
    want = e / e.sum()
    rng = np.random.default_rng(13)
    for _ in range(2):
        img = Tensor(rng.standard_normal((16, 16, 3)).astype(np.float32))
        probs = model.forward_classify(img)
        assert np.abs(probs.data - want).max() < 1e-6


def test_parameter_made_infinite_in_place_fails_at_the_first_arithmetic_op():
    # an in-place write (an overflowing optimizer update) skips the leaf check;
    # the kernel passes an unchecked reshape, and the matmul after it must refuse
    model = Model(micro_config())
    model.patch_embed.kernel.data[...] = np.inf
    img = Tensor(np.random.default_rng(16).random((16, 16, 3)).astype(np.float32))
    with pytest.raises(NumericsError, match="^matmul produced non-finite"):
        with no_grad():
            model.forward_classify(img)


def test_forward_is_bitwise_repeatable():
    model = Model(desk_config(num_classes=4, seed=3))
    rng = np.random.default_rng(14)
    img = Tensor(rng.standard_normal((32, 32, 3)).astype(np.float32))
    with no_grad():
        a = model.forward_classify(img).data.copy()
        b = model.forward_classify(img).data.copy()
    assert np.array_equal(a, b)
    assert np.argmax(a) == np.argmax(b)


def test_stochastic_pooling_samples_only_when_given_an_rng():
    model = Model(micro_config(pooling="stochastic", seed=5))
    rng = np.random.default_rng(15)
    img = Tensor(rng.standard_normal((2, 16, 16, 3)).astype(np.float32))
    with no_grad():
        expected = model.forward_classify(img).data.copy()
        again = model.forward_classify(img).data.copy()
        first = model.forward_classify(img, rng=np.random.default_rng(8)).data.copy()
        second = model.forward_classify(img, rng=np.random.default_rng(8)).data.copy()
    # without an rng: the expectation, bitwise repeatable
    assert np.array_equal(expected, again)
    # equally seeded rngs draw the same sample, which is not the expectation
    assert np.array_equal(first, second)
    assert not np.array_equal(first, expected)


def test_input_size_mismatch_names_expected_and_actual():
    model = Model(micro_config())
    with pytest.raises(ShapeError, match="16, 16"):
        model.forward_classify(Tensor(np.zeros((32, 32, 3), dtype=np.float32)))


def test_disabling_any_branch_strictly_decreases_parameters():
    full = Model(micro_config()).parameter_count()
    for drop in BRANCH_NAMES:
        kept = tuple(b for b in BRANCH_NAMES if b != drop)
        assert Model(micro_config(branches=kept)).parameter_count() < full


# -- config validation -------------------------------------------------------------------


def test_stage_i_doubles_the_first_stage_width_and_heads_i_times():
    model = Model(micro_config())
    first, second = (stage.blocks[0] for stage in model.stages)
    assert (first.norm.gamma.shape, first.msa.heads) == ((8,), 1)
    assert (second.norm.gamma.shape, second.msa.heads) == ((16,), 2)
    assert model.stages[0].merge.reduction.shape == (32, 16)
    assert model.final_norm.gamma.shape == (16,)
    assert model.head_weight.shape == (16, 4)


def test_config_rejects_bad_geometry():
    with pytest.raises(ConfigError):
        micro_config(input_size=(15, 16))
    with pytest.raises(ConfigError):
        micro_config(branches=())
    with pytest.raises(ConfigError):
        micro_config(heads=3)
    with pytest.raises(ConfigError):
        micro_config(kernel_size=4)
    with pytest.raises(ConfigError):
        micro_config(reduction=3)
    with pytest.raises(ConfigError):
        micro_config(pooling="median")
    with pytest.raises(ConfigError):
        micro_config(aggregation="geometric")
    with pytest.raises(ConfigError):
        micro_config(state_dim=0)
    with pytest.raises(ConfigError):
        dataclasses.replace(desk_config(), input_size=(8, 8))  # embedded grid not divisible


# -- checkpoints ------------------------------------------------------------------------


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    model = Model(micro_config(seed=21))
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    orig = dict(model.named_parameters())
    for name, p in loaded.named_parameters():
        assert np.array_equal(p.data, orig[name].data), name
    # saving the loaded model reproduces the file byte for byte
    path2 = str(tmp_path / "model2.ckpt")
    save_checkpoint(loaded, path2)
    assert open(path, "rb").read() == open(path2, "rb").read()


def test_restored_parameters_are_writable_and_pass_a_gradient_check(tmp_path):
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(Model(micro_config(seed=21)), path)
    loaded = load_checkpoint(path)
    for name, p in loaded.named_parameters():
        assert p.data.flags.writeable and p.data.flags.c_contiguous, name
    x = Tensor(np.random.default_rng(3).standard_normal((16, 16, 3)).astype(np.float32))
    weights = Tensor(np.arange(1.0, 5.0, dtype=np.float32))
    err = check_parameter_gradients(
        lambda: reduce_sum(mul(loaded.forward_classify(x), weights)),
        [loaded.head_bias],
        step=1e-2,
    )
    assert err < 1e-3, err


def test_checkpoint_load_draws_no_initial_weight_and_later_builds_are_unchanged(tmp_path, monkeypatch):
    config = micro_config(seed=21)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(Model(config), path)
    built = [p.data.copy() for p in Model(config).parameters()]
    default_rng = np.random.default_rng

    class NoNormalDraws:
        """The seeded generator, except that a normal draw fails the test."""

        def __init__(self, seed):
            self.rng = default_rng(seed)

        def normal(self, *args, **kwargs):
            raise AssertionError("load_checkpoint drew an initial weight")

        def __getattr__(self, name):
            return getattr(self.rng, name)

    with monkeypatch.context() as patched:
        patched.setattr(np.random, "default_rng", NoNormalDraws)
        load_checkpoint(path)
    # a refused load builds its model first, too
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[:-4])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)
    for want, p in zip(built, Model(config).parameters()):
        assert np.array_equal(p.data, want)


def test_checkpoint_load_holds_the_payload_once(tmp_path):
    path = tmp_path / "default.ckpt"
    save_checkpoint(Model(ModelConfig()), str(path))
    size = path.stat().st_size
    tracemalloc.start()
    try:
        load_checkpoint(str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the rebuilt model (~1.3x the file) plus one read of the file
    assert peak < 3 * size, (peak, size)


def test_checkpoint_truncation_detected(tmp_path):
    model = Model(micro_config())
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(model, path)
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[: len(blob) - 64])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_checkpoint_bad_magic_detected(tmp_path):
    path = str(tmp_path / "junk.ckpt")
    open(path, "wb").write(b"NOTMAGIC" + b"\x00" * 64)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_unsupported_version_detected(tmp_path):
    model = Model(micro_config())
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(model, path)
    blob = open(path, "rb").read()
    header_len = int.from_bytes(blob[8:16], "little")
    header = json.loads(blob[16 : 16 + header_len].decode())
    # version 1 stored the SSM rates as A itself, version 2 per-stage channel
    # and head lists and an input-channel count; their files are refused, not misread
    for version in (1, 2, 999):
        header["version"] = version
        new_header = json.dumps(header, sort_keys=True).encode()
        open(path, "wb").write(
            blob[:8] + len(new_header).to_bytes(8, "little") + new_header + blob[16 + header_len :]
        )
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)


def test_checkpoint_shape_length_mismatch_detected(tmp_path):
    model = Model(micro_config())
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(model, path)
    blob = open(path, "rb").read()
    header_len = int.from_bytes(blob[8:16], "little")
    header = json.loads(blob[16 : 16 + header_len].decode())
    header["tensors"][0]["length"] += 1
    new_header = json.dumps(header, sort_keys=True).encode()
    open(path, "wb").write(
        blob[:8] + len(new_header).to_bytes(8, "little") + new_header + blob[16 + header_len :]
    )
    with pytest.raises(CheckpointError, match="shape"):
        load_checkpoint(path)


def test_checkpoint_parameter_names_are_stable():
    names_a = [n for n, _ in Model(micro_config(seed=1)).named_parameters()]
    names_b = [n for n, _ in Model(micro_config(seed=2)).named_parameters()]
    assert names_a == names_b
    assert len(set(names_a)) == len(names_a)
