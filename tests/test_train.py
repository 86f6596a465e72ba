"""Loss, optimizer, metrics and training-loop contracts."""

import gc
import importlib
import math
import warnings

import numpy as np
import pytest

from mixssm.data import Dataset, generate_synthetic, load_image_folder
from mixssm.errors import NumericsError
from mixssm.network import Model, ModelConfig, save_checkpoint
from mixssm.tensor import TapeNode, Tensor, mul, reduce_sum
from mixssm.train import (
    Adam,
    cross_entropy_loss,
    evaluate,
    metrics_from_predictions,
    train,
)

from oracles import brute_force_metrics

# the module, which the package's ``train`` function shadows as an attribute
train_module = importlib.import_module("mixssm.train")


def micro_config(**overrides):
    base = dict(
        input_size=(16, 16), depths=(1, 1), channels=8, heads=1,
        num_classes=4, seed=0,
    )
    base.update(overrides)
    return ModelConfig(**base)


@pytest.fixture(scope="module")
def micro_dataset(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("data") / "synth")
    generate_synthetic(root, classes=4, per_class=3, size=16, seed=0)
    return load_image_folder(root, (16, 16))


# -- cross entropy -----------------------------------------------------------------


def test_cross_entropy_correct_one_hot_is_zero():
    p = Tensor(np.array([0.0, 1.0, 0.0], dtype=np.float64))
    assert cross_entropy_loss(p, 1).item() == 0.0


def test_cross_entropy_uniform_is_log_k():
    p = Tensor(np.full(4, 0.25, dtype=np.float64))
    assert math.isclose(cross_entropy_loss(p, 2).item(), math.log(4.0), rel_tol=1e-12)


def test_cross_entropy_documented_value():
    p = Tensor(np.array([0.7, 0.2, 0.1], dtype=np.float64))
    loss = cross_entropy_loss(p, 1).item()
    assert math.isclose(loss, 1.6094, abs_tol=5e-5)
    assert math.isclose(loss, -math.log(0.2), rel_tol=1e-12)


def test_cross_entropy_batched_mean():
    p = Tensor(np.array([[0.5, 0.5], [0.9, 0.1]], dtype=np.float64))
    want = (-math.log(0.5) - math.log(0.9)) / 2.0
    assert math.isclose(cross_entropy_loss(p, [0, 0]).item(), want, rel_tol=1e-12)


def test_cross_entropy_label_out_of_range():
    p = Tensor(np.full(3, 1 / 3, dtype=np.float64))
    with pytest.raises(ValueError, match="label"):
        cross_entropy_loss(p, 3)


def test_cross_entropy_clamps_zero_probability():
    p = Tensor(np.array([1.0, 0.0], dtype=np.float64))
    loss = cross_entropy_loss(p, 1).item()
    assert math.isclose(loss, -math.log(1e-12), rel_tol=1e-9)


# -- Adam ---------------------------------------------------------------------------


def test_adam_first_step_is_signed_learning_rate():
    p = Tensor(np.array([1.0, -2.0, 3.0], dtype=np.float64), requires_grad=True)
    p.grad = np.array([0.5, -0.25, 1.5])
    before = p.data.copy()
    opt = Adam([p], lr=1e-3)
    opt.step()
    update = p.data - before
    assert np.allclose(update, -1e-3 * np.sign(p.grad), atol=1e-9)


def test_adam_zero_gradient_leaves_params_bitwise_unchanged():
    p = Tensor(np.array([1.0, 2.0], dtype=np.float32), requires_grad=True)
    # no gradient at all, like the desk model's last-stage decay rates (a one-token scan)
    idle = Tensor(np.array([0.1, -0.0, 3e38, -1e-45], dtype=np.float32), requires_grad=True)
    before, idle_before = p.data.copy(), idle.data.tobytes()
    opt = Adam([p, idle], lr=1e-2)
    p.grad = np.zeros(2, dtype=np.float32)
    opt.step()
    assert opt.t == 1
    assert np.array_equal(p.data, before)
    assert idle.grad is None and idle.data.tobytes() == idle_before
    assert {a.dtype for a in [p.data, idle.data, *opt.m, *opt.v]} == {np.dtype(np.float32)}


def reference_adam(x0, grads, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Textbook recurrence, scalar python floats."""
    x, m, v = x0, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        x -= lr * m_hat / (math.sqrt(v_hat) + eps)
    return x


def test_adam_three_steps_match_reference_recurrence():
    p = Tensor(np.array([1.0], dtype=np.float64), requires_grad=True)
    opt = Adam([p], lr=0.1)
    grads = []
    for _ in range(3):
        loss = reduce_sum(mul(p, p))
        p.grad = None
        loss.backward()
        grads.append(float(p.grad[0]))
        opt.step()
    want = reference_adam(1.0, grads, lr=0.1)
    assert abs(float(p.data[0]) - want) < 1e-10


def test_adam_aborts_on_non_finite_gradient():
    p = Tensor(np.array([1.0], dtype=np.float64), requires_grad=True)
    opt = Adam([p], lr=5e-5)
    p.grad = np.array([np.inf])
    with pytest.raises(NumericsError):
        opt.step()


def test_adam_aborts_when_a_finite_float32_gradient_squares_to_inf():
    # 1e20 is a finite float32, but its square overflows the second moment
    p = Tensor(np.array([1.0, 2.0], dtype=np.float32), requires_grad=True)
    opt = Adam([p], lr=1e-3)
    p.grad = np.array([1e20, 1.0], dtype=np.float32)
    with pytest.raises(NumericsError, match="step 1"):
        opt.step()


# -- metrics -----------------------------------------------------------------------


def test_metrics_all_correct():
    m = metrics_from_predictions(np.array([0, 1, 2]), np.array([0, 1, 2]), 3)
    assert m.accuracy == m.precision == m.recall == m.f1 == 1.0
    assert np.array_equal(m.confusion, np.eye(3, dtype=np.int64))


def test_metrics_documented_confusion_example():
    # true class 0: 3 correct + 1 as class 1; true class 1: 2 as class 0 + 4 correct
    labels = np.array([0] * 4 + [1] * 6)
    preds = np.array([0, 0, 0, 1, 0, 0, 1, 1, 1, 1])
    m = metrics_from_predictions(preds, labels, 2)
    assert np.array_equal(m.confusion, [[3, 1], [2, 4]])
    assert math.isclose(m.accuracy, 0.7, rel_tol=1e-12)
    # macro F1: class 0 gives 2/3, class 1 gives 8/11, mean 23/33 = 0.69697
    assert math.isclose(m.f1, 23.0 / 33.0, rel_tol=1e-12)


def test_metrics_absent_class_contributes_zero():
    labels = np.zeros(5, dtype=np.int64)
    preds = np.zeros(5, dtype=np.int64)
    m = metrics_from_predictions(preds, labels, 2)
    assert m.accuracy == 1.0
    assert math.isclose(m.precision, 0.5) and math.isclose(m.recall, 0.5)


def test_metrics_match_brute_force_on_100_random_sets():
    rng = np.random.default_rng(20)
    for _ in range(100):
        k = int(rng.integers(2, 7))
        n = int(rng.integers(1, 60))
        labels = rng.integers(0, k, size=n)
        preds = rng.integers(0, k, size=n)
        m = metrics_from_predictions(preds, labels, k)
        confusion, acc, prec, rec, f1 = brute_force_metrics(preds.tolist(), labels.tolist(), k)
        assert np.array_equal(m.confusion, confusion)
        assert m.accuracy == acc and m.precision == prec
        assert m.recall == rec and m.f1 == f1


def test_evaluate_metrics_do_not_depend_on_the_pass_size(micro_dataset, monkeypatch):
    # a 16x16 micro image has 16 stage-1 tokens: the whole set in one pass,
    # then passes of 5 images with a short last one
    model = Model(micro_config())
    sizes = []
    forward = model.forward_classify
    model.forward_classify = lambda images: sizes.append(len(images.data)) or forward(images)
    whole = evaluate(model, micro_dataset)
    monkeypatch.setattr(train_module, "EVAL_TOKENS", 80)
    passes = evaluate(model, micro_dataset)
    assert sizes == [12, 5, 5, 2]
    assert (passes.accuracy, passes.precision, passes.recall, passes.f1) == (
        whole.accuracy, whole.precision, whole.recall, whole.f1)
    assert np.array_equal(passes.confusion, whole.confusion)


def test_evaluate_rejects_empty_dataset():
    model = Model(micro_config())
    empty = Dataset(
        images=np.zeros((0, 16, 16, 3), dtype=np.float32),
        labels=np.zeros(0, dtype=np.int64),
        class_names=["a", "b", "c", "d"],
    )
    with pytest.raises(ValueError, match="empty"):
        evaluate(model, empty)


# -- training loop --------------------------------------------------------------------


def test_train_zero_lr_leaves_parameters_bitwise_unchanged(micro_dataset):
    model = Model(micro_config())
    before = {n: p.data.copy() for n, p in model.named_parameters()}
    model, records = train(model, micro_dataset, epochs=2, batch_size=8, lr=0.0, seed=0)
    assert len(records) == 2
    for name, p in model.named_parameters():
        assert np.array_equal(p.data, before[name]), name


def test_train_same_seed_twice_gives_identical_checkpoints(micro_dataset, tmp_path):
    paths = []
    for run in range(2):
        model = Model(micro_config(seed=9))
        model, _ = train(model, micro_dataset, epochs=2, batch_size=8, lr=1e-3, seed=11)
        path = str(tmp_path / f"run{run}.ckpt")
        save_checkpoint(model, path)
        paths.append(path)
    assert open(paths[0], "rb").read() == open(paths[1], "rb").read()


def test_train_reports_epoch_records(micro_dataset):
    model = Model(micro_config())
    model, records = train(model, micro_dataset, epochs=3, batch_size=8, lr=1e-3, seed=0)
    assert [r.epoch for r in records] == [0, 1, 2]
    for r in records:
        assert 0.0 <= r.train_acc <= 1.0 and r.mean_loss >= 0.0


def test_train_releases_each_step_tape_before_the_next_forward(micro_dataset, monkeypatch):
    def live_nodes():
        return sum(isinstance(obj, TapeNode) for obj in gc.get_objects())

    model = Model(micro_config())
    forward = model.forward_classify
    seen = []

    def counting_forward(images, rng=None):
        seen.append(live_nodes())
        return forward(images, rng=rng)

    monkeypatch.setattr(model, "forward_classify", counting_forward)
    gc.collect()
    before = live_nodes()
    train(model, micro_dataset, epochs=2, batch_size=8, lr=1e-3, seed=0)
    assert seen == [before] * 4  # 12 images, 2 batches per epoch


def test_train_aborts_with_batch_diagnostics(micro_dataset):
    model = Model(micro_config())
    # poison a_log so exp(a_log) overflows float32 during the first forward; a
    # finite a_log cannot make a decay above 1, so the rate itself must overflow
    model.stages[0].blocks[0].ssm.a_log.data += 1e4
    with pytest.raises(NumericsError, match="epoch 0 batch 0"):
        train(model, micro_dataset, epochs=1, batch_size=8, lr=1e-3, seed=0)


@pytest.mark.parametrize("run", [
    lambda model, data: train(model, data, epochs=1, batch_size=8, lr=1e-3, seed=0),
    lambda model, data: evaluate(model, data),
], ids=["train", "evaluate"])
def test_overflow_raises_numerics_error_when_warnings_are_errors(run, micro_dataset):
    # the layer-norm mean after a 3e38 patch bias overflows float32; inside
    # train() and evaluate() that is a NumericsError, not numpy's RuntimeWarning
    model = Model(micro_config())
    model.patch_embed.bias.data[:] = 3e38
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericsError):
            run(model, micro_dataset)


def test_train_class_count_mismatch(micro_dataset):
    model = Model(micro_config(num_classes=6))
    with pytest.raises(ValueError, match="classes"):
        train(model, micro_dataset, epochs=1, batch_size=8, lr=1e-3, seed=0)


def test_stochastic_pooling_training_is_seed_deterministic(micro_dataset, tmp_path):
    paths = []
    for run in range(2):
        model = Model(micro_config(pooling="stochastic", seed=2))
        model, _ = train(model, micro_dataset, epochs=1, batch_size=8, lr=1e-3, seed=3)
        path = str(tmp_path / f"sto{run}.ckpt")
        save_checkpoint(model, path)
        paths.append(path)
    assert open(paths[0], "rb").read() == open(paths[1], "rb").read()


def test_float64_images_give_the_float32_run_bitwise(micro_dataset, tmp_path):
    # the model casts its input: a float64 copy of the images must change nothing
    wide = Dataset(
        images=micro_dataset.images.astype(np.float64),
        labels=micro_dataset.labels,
        class_names=micro_dataset.class_names,
    )
    outcomes = []
    for dataset in (micro_dataset, wide):
        model, records = train(Model(micro_config()), dataset, epochs=2, batch_size=8,
                               lr=1e-3, seed=0)
        path = str(tmp_path / f"{dataset.images.dtype}.ckpt")
        save_checkpoint(model, path)
        metrics = evaluate(model, dataset)
        outcomes.append((records, open(path, "rb").read(), metrics))
    (records32, ckpt32, m32), (records64, ckpt64, m64) = outcomes
    assert records32 == records64
    assert ckpt32 == ckpt64
    assert np.array_equal(m32.confusion, m64.confusion)
    assert (m32.accuracy, m32.precision, m32.recall, m32.f1) == (
        m64.accuracy, m64.precision, m64.recall, m64.f1)


@pytest.mark.parametrize("run", [
    lambda model, data: train(model, data, epochs=1, batch_size=8, lr=1e-3, seed=0),
    lambda model, data: evaluate(model, data),
], ids=["train", "evaluate"])
def test_train_and_evaluate_share_the_dataset_checks(run, micro_dataset):
    model = Model(micro_config())
    empty = Dataset(
        images=np.zeros((0, 16, 16, 3), dtype=np.float32),
        labels=np.zeros(0, dtype=np.int64),
        class_names=micro_dataset.class_names,
    )
    with pytest.raises(ValueError, match="empty"):
        run(model, empty)
    with pytest.raises(ValueError, match="classes"):
        run(Model(micro_config(num_classes=6)), micro_dataset)
