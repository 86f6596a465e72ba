"""Loss, optimizer, training loop and the metric suite."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import NumericsError
from .network import Model
from .tensor import Tensor, log, maximum, mul, no_grad, reduce_mean, reduce_sum

__all__ = [
    "Metrics",
    "EpochRecord",
    "Adam",
    "cross_entropy_loss",
    "train",
    "evaluate",
    "metrics_from_predictions",
]

LOG_CLAMP = 1e-12
EVAL_TOKENS = 2048  # stage-1 tokens per evaluate pass: 32 desk images, one 224x224


@dataclass
class Metrics:
    accuracy: float
    precision: float
    recall: float
    f1: float
    confusion: np.ndarray  # (num_classes, num_classes), rows = true label


@dataclass
class EpochRecord:
    epoch: int
    mean_loss: float
    train_acc: float


def cross_entropy_loss(probs: Tensor, labels) -> Tensor:
    """Mean of -log p[label], with p clamped at 1e-12.

    ``probs`` is (num_classes,) with an int label, or (batch, num_classes)
    with a label sequence.
    """
    labels_arr = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    num_classes = probs.shape[-1]
    if labels_arr.min() < 0 or labels_arr.max() >= num_classes:
        raise ValueError(
            f"label out of range: {labels_arr.min()}..{labels_arr.max()} for {num_classes} classes"
        )
    if labels_arr.shape != (probs.shape[:-1] or (1,)):
        raise ValueError(f"labels shape {labels_arr.shape} does not match probs {probs.shape}")
    onehot = np.eye(num_classes, dtype=probs.dtype)[labels_arr].reshape(probs.shape)
    picked = reduce_sum(mul(probs, Tensor(onehot)), axis=-1)
    clamped = maximum(picked, Tensor(np.asarray(LOG_CLAMP, dtype=probs.dtype)))
    return mul(reduce_mean(log(clamped)), Tensor(np.asarray(-1.0, dtype=probs.dtype)))


class Adam:
    """Adam with bias correction: beta1 0.9, beta2 0.999, eps 1e-8.

    A gradient that is non-finite, or whose square overflows the parameter's
    dtype, raises :class:`NumericsError` naming the step.
    """

    def __init__(self, params, lr: float):
        self.params: list[Tensor] = list(params)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        beta1, beta2 = 0.9, 0.999
        self.t += 1
        for i, p in enumerate(self.params):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            # a finite square implies a finite gradient; an overflowed one would
            # make v infinite and freeze the parameter for good
            with np.errstate(over="ignore"):
                g_sq = g * g
            if not np.isfinite(g_sq).all():
                raise NumericsError(
                    f"gradient is non-finite or its square overflows in optimizer step {self.t}"
                )
            self.m[i] = beta1 * self.m[i] + (1.0 - beta1) * g
            self.v[i] = beta2 * self.v[i] + (1.0 - beta2) * g_sq
            m_hat = self.m[i] / (1.0 - beta1 ** self.t)
            v_hat = self.v[i] / (1.0 - beta2 ** self.t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + 1e-8)


def _check_dataset(model: Model, dataset: Dataset, verb: str) -> None:
    if len(dataset) == 0:
        raise ValueError(f"cannot {verb} on an empty dataset")
    if dataset.num_classes != model.config.num_classes:
        raise ValueError(
            f"dataset has {dataset.num_classes} classes, model expects {model.config.num_classes}"
        )


def train(
    model: Model,
    dataset: Dataset,
    epochs: int,
    batch_size: int,
    lr: float,
    seed: int,
) -> tuple[Model, list[EpochRecord]]:
    """Seeded-shuffle minibatch training; deterministic at a fixed seed.

    Stochastic pooling samples from a generator seeded by ``seed``; the
    other pooling methods ignore it.  Images reach the model as stored; the
    model casts them to its own precision.

    An empty dataset or one whose class count differs from the model's
    raises ``ValueError``.  A non-finite loss or gradient aborts with the
    offending epoch/batch in the error message.
    """
    _check_dataset(model, dataset, "train")
    optimizer = Adam(model.parameters(), lr=lr)
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5EED]))
    pool_rng = np.random.default_rng(np.random.SeedSequence([seed, 0xB00C]))
    records: list[EpochRecord] = []
    n = len(dataset)
    # an overflow surfaces as the NumericsError of a result check, not as a
    # RuntimeWarning (a pool thread starts from numpy's default error state)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for epoch in range(epochs):
            order = shuffle_rng.permutation(n)
            total_loss = 0.0
            correct = 0
            for batch_index, start in enumerate(range(0, n, batch_size)):
                idx = order[start : start + batch_size]
                images = Tensor(dataset.images[idx])
                labels = dataset.labels[idx]
                try:
                    probs = model.forward_classify(images, rng=pool_rng)
                    loss = cross_entropy_loss(probs, labels)
                    model.zero_grad()
                    loss.backward()
                    optimizer.step()
                except NumericsError as exc:
                    raise NumericsError(
                        f"training aborted at epoch {epoch} batch {batch_index}: {exc}"
                    ) from exc
                total_loss += loss.item() * len(idx)
                correct += int((np.argmax(probs.data, axis=-1) == labels).sum())
            records.append(
                EpochRecord(epoch=epoch, mean_loss=total_loss / n, train_acc=correct / n)
            )
    return model, records


def metrics_from_predictions(
    predictions: np.ndarray, labels: np.ndarray, num_classes: int
) -> Metrics:
    """Confusion matrix and macro-averaged metrics.

    Classes with a zero denominator contribute 0 to the macro averages.
    """
    predictions = np.asarray(predictions, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if predictions.shape != labels.shape:
        raise ValueError("predictions and labels differ in length")
    if len(labels) == 0:
        raise ValueError("cannot compute metrics on an empty dataset")
    confusion = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(confusion, (labels, predictions), 1)

    accuracy = float(np.trace(confusion)) / float(len(labels))

    def ratio(num, den):
        return np.divide(num, den, out=np.zeros(num_classes), where=den > 0)

    tp = np.diag(confusion)
    precision = ratio(tp, confusion.sum(axis=0))
    recall = ratio(tp, confusion.sum(axis=1))
    f1 = ratio(2.0 * precision * recall, precision + recall)
    return Metrics(
        accuracy=accuracy,
        precision=float(np.mean(precision)),
        recall=float(np.mean(recall)),
        f1=float(np.mean(f1)),
        confusion=confusion,
    )


def evaluate(model: Model, dataset: Dataset) -> Metrics:
    """Deterministic evaluation, one pass of at most ``EVAL_TOKENS`` stage-1
    tokens (and at least one image) at a time; the forward is batch-invariant,
    so the pass size moves no metric.  Stochastic pooling takes its
    expectation: no generator is passed.

    Raises ``ValueError`` on the datasets :func:`train` refuses.
    """
    _check_dataset(model, dataset, "evaluate")
    (h, w), p = model.config.input_size, model.config.patch_size
    per_pass = max(1, EVAL_TOKENS // (h // p * (w // p)))
    preds = []
    with no_grad(), np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for start in range(0, len(dataset), per_pass):
            images = Tensor(dataset.images[start : start + per_pass])
            probs = model.forward_classify(images)
            preds.append(np.argmax(probs.data, axis=-1))
    predictions = np.concatenate(preds)
    return metrics_from_predictions(predictions, dataset.labels, model.config.num_classes)
