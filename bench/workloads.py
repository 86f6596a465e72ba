"""Inputs and workloads of the mixssm benchmark.

All three workloads are closed loops with one client in one process at one
BLAS thread: the next unit of work starts when the previous one has
returned.  A run keeps starting units while the last unit's duration still
fits in the time budget, and always runs at least one.

The speed of a shared machine drifts over seconds, so each run reports
medians: ``latency_ms_p50`` over its steps, images or loss evaluations, and
``throughput_per_s`` as the median over its train() calls, images or suite
passes of each one's work per second.

* ``desk_train``: ``train.train()`` on ``desk_config()`` (32x32, 4 classes,
  batch 32, float32).  Exercises the tape, backward and Adam.
* ``paper_infer``: the default 224x224 ``ModelConfig``, restored with
  ``load_checkpoint`` and classifying one image at a time under ``no_grad``
  as ``train.evaluate`` does at batch 1.  Records no tape; long sequences
  (T=3136) and quadratic attention.
* ``gradcheck``: ``gradcheck.gradient_suite(s, seeds=1)`` at the five seeds
  ``mixssm gradcheck`` checks.  Thousands of small float64 forwards, where
  the cost of each op call dominates.

The images are made here from the seed, written as P6 files and read back
through ``data.load_image_folder``; nothing comes from
``data.generate_synthetic``.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import os
import resource
import shutil
import statistics
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from unittest import mock

import numpy as np

from tracer import Tracer

data = importlib.import_module("mixssm.data")
encoders = importlib.import_module("mixssm.encoders")
fusion = importlib.import_module("mixssm.fusion")
gradcheck = importlib.import_module("mixssm.gradcheck")
network = importlib.import_module("mixssm.network")
tensor = importlib.import_module("mixssm.tensor")
train_mod = importlib.import_module("mixssm.train")
NumericsError = importlib.import_module("mixssm.errors").NumericsError

WORKLOADS = ("desk_train", "paper_infer", "gradcheck")
BATCH = 32
LR = 1e-3  # large enough that the loss falls visibly within one short train() call
GRAD_TOLERANCE = 1e-3  # the defaults of ``mixssm gradcheck``: --tolerance 1e-3 --seeds 5
GATE_SEEDS = 5
PROB_SUM_TOLERANCE = 1e-5
# one colour per class, mixed into a disk over a noise texture
CLASS_COLOURS = np.array([
    [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0], [1.0, 0.0, 1.0],
    [0.0, 1.0, 1.0], [1.0, 0.5, 0.0], [0.5, 0.0, 1.0], [0.0, 0.5, 0.5], [0.5, 0.5, 0.5],
])


@dataclass(frozen=True)
class Sizes:
    """Sizes of the workloads: ``FULL`` is benchmarked, ``TINY`` is self-tested."""

    desk_source: int = 40  # resized to desk_config's 32x32 on load
    desk_per_class: int = 16  # 4 classes x 16 = 64 images: 2 steps per epoch
    desk_epochs: int = 4  # 8 optimizer steps per train() call
    infer_input: int = 224
    infer_source: int = 200  # not 224, so bilinear_resize does work on load
    infer_per_class: int = 1  # 10 classes
    setups: int = 7  # setup_s is the median of this many set-ups
    suite_setups: int = 25  # building the suite's components takes about a millisecond


FULL = Sizes()
TINY = Sizes(desk_per_class=8, desk_epochs=2, infer_input=32, infer_source=40, setups=2,
             suite_setups=2)


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    end_to_end: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    report: dict = field(default_factory=dict)  # issue-level figures, digests, counts

    def fail(self, count: int, reason: str) -> None:
        self.failed += count
        if len(self.failures) < 20:
            self.failures.append(reason)


# -- inputs -------------------------------------------------------------------


def make_images(seed: int, classes: int, per_class: int, size: int) -> list[tuple[int, np.ndarray]]:
    """(label, uint8 HxWx3) pairs: a class-coloured disk over seeded noise."""
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    out = []
    for label in range(classes):
        for i in range(per_class):
            rng = np.random.default_rng(np.random.SeedSequence([seed, label, i]))
            img = rng.uniform(0.25, 0.75, size=(size, size, 3))
            cy, cx = rng.uniform(0.3, 0.7, size=2) * size
            radius = rng.uniform(0.2, 0.35) * size
            disk = (yy - cy) ** 2 + (xx - cx) ** 2 <= radius * radius
            img[disk] = 0.5 * img[disk] + 0.5 * CLASS_COLOURS[label]
            out.append((label, np.round(img * 255.0).astype(np.uint8)))
    return out


def write_folder(root: str, images) -> int:
    """Write an image-folder tree of P6 files; returns the bytes written."""
    total = 0
    counts: dict[int, int] = {}
    for label, img in images:
        class_dir = os.path.join(root, f"class_{label:02d}")
        os.makedirs(class_dir, exist_ok=True)
        index = counts[label] = counts.get(label, -1) + 1
        raw = b"P6\n%d %d\n255\n" % (img.shape[1], img.shape[0]) + img.tobytes()
        with open(os.path.join(class_dir, f"img_{index:04d}.ppm"), "wb") as fh:
            fh.write(raw)
        total += len(raw)
    return total


def digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:16]


# -- shared helpers -----------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def tail_percentile(values) -> tuple[int, float] | None:
    """Highest of p90/p80/p75/p50 with at least ten samples beyond it."""
    for q in (90, 80, 75, 50):
        if len(values) * (100 - q) / 100.0 >= 10:
            return q, percentile(values, q)
    return None


def rows_sum_to_one(probs: np.ndarray) -> bool:
    return bool(np.all(np.isfinite(probs))) and bool(
        np.all(np.abs(probs.sum(axis=-1, dtype=np.float64) - 1.0) <= PROB_SUM_TOLERANCE)
    )


def within_budget(start: float, last: float, seconds: float, done: int) -> bool:
    """Start another unit if none ran yet or the last one would still fit."""
    return done == 0 or (perf_counter() - start) + last <= seconds


class SetUps:
    """Times a workload's set-up ``count`` times, spread through the run.

    Machine speed drifts over seconds, so set-ups run back to back would all
    land in one phase of it; spread out, their median is steadier.  The
    workload keeps the first set-up's result; the rest are only timed.
    """

    def __init__(self, count: int, once):
        self.count, self.once, self.times = count, once, []

    def run(self, n: int = 1):
        """Run up to ``n`` more set-ups; the last one's result."""
        result = None
        for _ in range(min(n, self.count - len(self.times))):
            t0 = perf_counter()
            result = self.once()
            self.times.append(perf_counter() - t0)
        return result

    def median_s(self) -> float:
        self.run(self.count)
        return statistics.median(self.times)


def load_folder(workdir: str, tag: str, images, size) -> tuple[dict, object]:
    """Write, then read back through ``data.load_image_folder``.

    Returns the timing and size figures and the dataset.
    """
    root = os.path.join(workdir, tag)
    written = write_folder(root, images)
    t0 = perf_counter()
    dataset = data.load_image_folder(root, size)
    return {"load_s": perf_counter() - t0, "bytes": written, "images": len(dataset)}, dataset


def data_layers(loads: list[dict]) -> dict[str, float]:
    return {
        "data.load_ms": statistics.median(d["load_s"] for d in loads) * 1e3,
        "data.images_loaded": float(loads[-1]["images"]),
        "data.bytes_read": float(loads[-1]["bytes"]),
    }


def input_report(images, dataset) -> dict:
    return {
        "inputs_sha256": digest(*(img for _, img in images), np.array([lb for lb, _ in images])),
        "loaded_sha256": digest(dataset.images, dataset.labels),
        "images": len(images),
        "source_hw": list(images[0][1].shape[:2]),
    }


# -- desk_train ---------------------------------------------------------------


def desk_train(seed: int, seconds: float, trace: bool, sizes: Sizes, workdir: str) -> Outcome:
    out = Outcome()
    config = network.desk_config(num_classes=4, seed=seed)

    def setup():
        images = make_images(seed, 4, sizes.desk_per_class, sizes.desk_source)
        stats, dataset = load_folder(workdir, f"setup{len(loads)}", images, config.input_size)
        network.Model(config)
        loads.append(stats)
        return images, dataset

    loads: list[dict] = []
    setups = SetUps(sizes.setups, setup)
    images, dataset = setups.run()
    steps_per_call = sizes.desk_epochs * math.ceil(len(dataset) / BATCH)
    stamps: list[float] = []

    def stamp_steps(step):
        def stamped(self):
            step(self)
            stamps.append(perf_counter())

        return stamped

    def train_call(tracer: Tracer | None):
        """One seeded train() on a fresh model: step intervals, records, probs."""
        model = network.Model(config)
        stamps.clear()
        stamps.append(perf_counter())
        try:
            with tracer or nullcontext():
                _, records = train_mod.train(model, dataset, epochs=sizes.desk_epochs,
                                             batch_size=BATCH, lr=LR, seed=seed)
        except NumericsError as exc:
            return None, np.diff(stamps), str(exc)
        with tensor.no_grad():
            probs = model.forward_classify(tensor.Tensor(dataset.images[:BATCH])).data
        return (records, probs), np.diff(stamps), None

    intervals: list[float] = []
    call_rates: list[float] = []  # images per second of each train() call
    reference = None
    ref_intervals = None
    tracer = Tracer() if trace else None
    with mock.patch.object(train_mod.Adam, "step", stamp_steps(train_mod.Adam.step)):
        if trace:
            reference, ref_intervals, error = train_call(None)
            out.attempted += steps_per_call
            if error:
                out.fail(steps_per_call, f"untraced reference: {error}")
        start, last, calls = perf_counter(), 0.0, 0
        while within_budget(start, last, seconds, calls):
            t0 = perf_counter()
            result, call_intervals, error = train_call(tracer)
            last = perf_counter() - t0
            calls += 1
            out.attempted += steps_per_call
            intervals.extend(call_intervals)
            if len(call_intervals):
                call_rates.append(BATCH * len(call_intervals) / sum(call_intervals))
            if error:
                out.fail(steps_per_call, error)
                continue
            records, probs = result
            losses = [r.mean_loss for r in records]
            if not all(math.isfinite(x) for x in losses):
                out.fail(steps_per_call, f"non-finite epoch loss {losses}")
            elif losses[-1] >= losses[0]:
                out.fail(steps_per_call, f"loss did not fall: {losses[0]} -> {losses[-1]}")
            elif not rows_sum_to_one(probs):
                out.fail(steps_per_call, "probability rows do not sum to 1")
            elif reference is None:
                reference = result
            elif not _same_run(reference, result):
                what = "traced run differs from untraced" if trace else "repeat run differs"
                out.fail(steps_per_call, f"{what} at a fixed seed")
            setups.run()

    step_ms = [x * 1e3 for x in intervals]
    train_s = sum(intervals)
    out.end_to_end = {
        "throughput_per_s": statistics.median(call_rates) if call_rates else 0.0,
        "latency_ms_p50": statistics.median(step_ms) if step_ms else 0.0,
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": setups.median_s(),
    }
    loss_end = reference[0][-1].mean_loss if reference else float("nan")
    out.report = {
        "train_images_per_s": out.end_to_end["throughput_per_s"],
        "step_ms_p50": out.end_to_end["latency_ms_p50"],
        "train_loss_end": loss_end,
        "train_loss_first_epoch": reference[0][0].mean_loss if reference else float("nan"),
        "steps_timed": len(step_ms),
        "train_calls": calls,
        **input_report(images, dataset),
    }
    tail = tail_percentile(step_ms)
    if tail:
        out.report[f"step_ms_p{tail[0]}"] = tail[1]
    if trace and step_ms:
        steps = len(step_ms)
        ms = 1e3 / steps
        train_layers = {
            "train.step_ms": train_s * ms,
            "train.forward_ms": tracer.incl_s["network.head"] * ms,
            "train.loss_ms": tracer.incl_s["train.loss"] * ms,
            "train.backward_ms": tracer.incl_s["tensor.backward"] * ms,
            "train.optimizer_ms": tracer.incl_s["train.optimizer"] * ms,
        }
        spans = sum(v for k, v in train_layers.items() if k != "train.step_ms")
        train_layers["train.other_ms"] = train_layers["train.step_ms"] - spans
        out.layers = {
            **tracer.layer_metrics(steps),
            **train_layers,
            **data_layers(loads),
            "trace.overhead_ratio": statistics.median(step_ms) / (
                statistics.median(ref_intervals) * 1e3) if len(ref_intervals) else 0.0,
        }
    return out


def _same_run(a, b) -> bool:
    """Bitwise-equal epoch records and probabilities."""
    (records_a, probs_a), (records_b, probs_b) = a, b
    return records_a == records_b and np.array_equal(probs_a, probs_b)


# -- paper_infer --------------------------------------------------------------


def paper_infer(seed: int, seconds: float, trace: bool, sizes: Sizes, workdir: str) -> Outcome:
    out = Outcome()
    config = network.ModelConfig(input_size=(sizes.infer_input, sizes.infer_input), seed=seed)

    def setup():
        tag = f"setup{len(loads)}"
        images = make_images(seed, config.num_classes, sizes.infer_per_class, sizes.infer_source)
        stats, dataset = load_folder(workdir, tag, images, config.input_size)
        model = network.Model(config)
        path = os.path.join(workdir, f"{tag}.ckpt")
        t0 = perf_counter()
        network.save_checkpoint(model, path)
        t1 = perf_counter()
        restored = network.load_checkpoint(path)
        t2 = perf_counter()
        stats.update(save_s=t1 - t0, load_ckpt_s=t2 - t1, ckpt_bytes=os.path.getsize(path))
        loads.append(stats)
        return images, dataset, model, restored

    loads: list[dict] = []
    setups = SetUps(sizes.setups, setup)
    images, dataset, original, model = setups.run()

    def classify(m, i: int) -> np.ndarray:
        with tensor.no_grad():
            return m.forward_classify(tensor.Tensor(dataset.images[i : i + 1])).data

    # the model as built, before the checkpoint round trip, without tracing
    t0 = perf_counter()
    out.attempted += 1
    try:
        reference = classify(original, 0)
    except NumericsError as exc:
        reference = None
        out.fail(1, f"reference image: {exc}")
    untraced_ms = (perf_counter() - t0) * 1e3
    del original
    if trace and reference is not None:  # the first image pays one-off costs; time a warm one
        t0 = perf_counter()
        classify(model, 0)
        untraced_ms = (perf_counter() - t0) * 1e3

    tracer = Tracer() if trace else None
    image_ms: list[float] = []
    start, last = perf_counter(), 0.0
    while within_budget(start, last, seconds, len(image_ms)):
        i = len(image_ms) % len(dataset)
        out.attempted += 1
        t0 = perf_counter()
        try:
            with tracer or nullcontext():
                probs = classify(model, i)
        except NumericsError as exc:
            probs = None
            out.fail(1, f"image {i}: {exc}")
        last = perf_counter() - t0
        image_ms.append(last * 1e3)
        if probs is None:
            continue
        if not rows_sum_to_one(probs):
            out.fail(1, f"image {i}: probabilities do not sum to 1")
        elif len(image_ms) == 1 and not (reference is not None and np.array_equal(probs, reference)):
            what = "checkpoint round trip" + (" or tracing" if trace else "")
            out.fail(1, f"{what} changed the prediction of image 0")
        setups.run()

    out.end_to_end = {
        "throughput_per_s": 1e3 / statistics.median(image_ms),
        "latency_ms_p50": statistics.median(image_ms),
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": setups.median_s(),
    }
    out.report = {
        "infer_images_per_s": out.end_to_end["throughput_per_s"],
        "infer_ms_p50": out.end_to_end["latency_ms_p50"],
        "images_timed": len(image_ms),
        "checkpoint_bytes": loads[-1]["ckpt_bytes"],
        **input_report(images, dataset),
    }
    tail = tail_percentile(image_ms)
    if tail:
        out.report[f"infer_ms_p{tail[0]}"] = tail[1]
    if trace:
        out.layers = {
            **tracer.layer_metrics(len(image_ms)),
            **data_layers(loads),
            "network.checkpoint_save_ms": statistics.median(d["save_s"] for d in loads) * 1e3,
            "network.checkpoint_load_ms": statistics.median(d["load_ckpt_s"] for d in loads) * 1e3,
            "network.checkpoint_bytes": float(loads[-1]["ckpt_bytes"]),
            "trace.overhead_ratio": statistics.median(image_ms) / untraced_ms,
        }
    return out


# -- gradcheck ----------------------------------------------------------------


def build_suite_components(seed: int) -> list:
    """The six float64 components ``gradient_suite`` checks, at its sizes."""
    rng = np.random.default_rng(seed)
    channels, heads, state_dim, f64 = 8, 2, 8, np.float64
    return [
        encoders.ConvBranch(channels, rng=rng, dtype=f64),
        encoders.AttentionBranch(channels, heads, rng=rng, dtype=f64),
        encoders.ChannelMlpBranch(channels, rng=rng, dtype=f64),
        encoders.SsmBranch(channels, state_dim, rng=rng, dtype=f64),
        fusion.SelectiveFusion(channels, n=4, rng=rng, dtype=f64),
        network.MixSsmBlock(
            channels, heads, network.BRANCH_NAMES, state_dim, kernel_size=3, pooling="average",
            aggregation="selective", reduction=4, ssm_shared_directions=True, rng=rng, dtype=f64,
        ),
    ]


def gradcheck_suite(seed: int, seconds: float, trace: bool, sizes: Sizes, workdir: str) -> Outcome:
    out = Outcome()

    def suite_seed(k: int) -> int:
        # The 1e-3 gate holds at the seeds `mixssm gradcheck` checks (0..4).  At
        # other seeds central-difference truncation on near-zero gradient entries
        # can exceed it (conv_branch, up to 1.7e-2) although the analytic
        # gradient is right: the error shrinks 100x for a 10x smaller step.
        return (seed + k) % GATE_SEEDS

    setups = SetUps(sizes.suite_setups, lambda: build_suite_components(seed))
    eval_s: list[float] = []
    check_s: list[float] = []

    def probe_checks(check):
        def probed(loss_fn, *args, **kwargs):
            def timed_loss():
                t0 = perf_counter()
                value = loss_fn()
                eval_s.append(perf_counter() - t0)
                return value

            t0 = perf_counter()
            try:
                return check(timed_loss, *args, **kwargs)
            finally:
                check_s.append(perf_counter() - t0)

        return probed

    def suite_pass(at_seed: int, tracer: Tracer | None):
        """(errors by component, seconds, loss evals, check seconds) of one pass."""
        first_eval, first_check = len(eval_s), len(check_s)
        t0 = perf_counter()
        try:
            with tracer or nullcontext():
                errors = gradcheck.gradient_suite(at_seed, seeds=1)
        except NumericsError as exc:
            errors = exc
        return errors, perf_counter() - t0, len(eval_s) - first_eval, check_s[first_check:]

    reference = None
    ref_s = 0.0
    tracer = Tracer() if trace else None
    passes: list[tuple] = []
    probed = probe_checks(gradcheck.check_parameter_gradients)
    with mock.patch.object(gradcheck, "check_parameter_gradients", probed):
        if trace:
            reference, ref_s, _, _ = suite_pass(suite_seed(0), None)
            out.attempted += 6
            if isinstance(reference, Exception):
                out.fail(6, f"untraced reference pass: {reference}")
            eval_s.clear()
        start, last = perf_counter(), 0.0
        while within_budget(start, last, seconds, len(passes)):
            errors, last, evals, checks = suite_pass(suite_seed(len(passes)), tracer)
            passes.append((errors, last, evals, checks))
            setups.run(5)  # a pass is several seconds; spread the cheap set-ups 5 at a time
            if isinstance(errors, Exception):
                out.attempted += 6
                out.fail(6, f"suite pass {len(passes)}: {errors}")
                continue
            out.attempted += len(errors)
            for name, err in errors.items():
                if not err < GRAD_TOLERANCE:
                    out.fail(1, f"{name}: max_rel_error {err:.3e} >= {GRAD_TOLERANCE}")
            if trace and len(passes) == 1 and errors != reference:
                out.fail(len(errors), "traced suite pass differs from untraced")

    good = [p for p in passes if not isinstance(p[0], Exception)]
    total_evals = sum(p[2] for p in good)
    out.end_to_end = {
        "throughput_per_s": statistics.median(p[2] / p[1] for p in good) if good else 0.0,
        "latency_ms_p50": statistics.median(eval_s) * 1e3 if eval_s else 0.0,
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": setups.median_s(),
    }
    out.report = {
        "gradcheck_evals_per_s": out.end_to_end["throughput_per_s"],
        "eval_ms_p50": out.end_to_end["latency_ms_p50"],
        "suite_passes": len(passes),
        "suite_seeds": [suite_seed(k) for k in range(len(passes))],
        "loss_evals": total_evals,
    }
    tail = tail_percentile([x * 1e3 for x in eval_s])
    if tail:
        out.report[f"eval_ms_p{tail[0]}"] = tail[1]
    if trace and good:
        n = len(good)
        out.layers = {
            **tracer.layer_metrics(n),
            "gradcheck.loss_evals": total_evals / n,
            "gradcheck.eval_ms": sum(eval_s) * 1e3 / max(len(eval_s), 1),
            "trace.overhead_ratio": statistics.median(p[1] for p in good) / ref_s,
        }
        for i, name in enumerate(good[0][0]):
            out.layers[f"gradcheck.check_ms.{name}"] = statistics.mean(p[3][i] for p in good) * 1e3
            out.layers[f"gradcheck.max_rel_error.{name}"] = max(p[0][name] for p in good)
    return out


RUNNERS = {"desk_train": desk_train, "paper_infer": paper_infer, "gradcheck": gradcheck_suite}


def run(name: str, seed: int, seconds: float, trace: bool, workdir: str,
        sizes: Sizes = FULL) -> Outcome:
    """Run one workload; ``workdir`` is scratch space that is removed afterwards."""
    os.makedirs(workdir, exist_ok=True)
    try:
        return RUNNERS[name](seed, seconds, trace, sizes, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
