"""Command-line surface: train, eval, gradcheck, ablate, analyze, synth, inspect, emit-config.

Exit codes are a stable contract: 0 success, 1 usage/config/data problems,
2 numerical abort, 3 gradient-check failure.  ``--threads`` (default 1)
sets the worker count for the independent settings of ``ablate`` and
``analyze``; the CSV is the same at any count.  Each training field of
the run config has one flag that overrides it (``--batch-size`` for
``batch_size``).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext

import numpy as np

from .config import TRAIN_FIELDS, RunConfig, emit_config, load_config_file
from .data import Dataset, generate_synthetic, load_image_folder
from .errors import ConfigError, NumericsError
from .fusion import KERNEL_SIZES, POOLING_METHODS
from .gradcheck import gradient_suite
from .network import BRANCH_NAMES, Model, ModelConfig, desk_config, load_checkpoint, save_checkpoint
from .train import Metrics, evaluate, train

__all__ = ["main", "ABLATION_VARIANTS", "ANALYSIS_SWEEPS"]

ABLATION_VARIANTS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("full", ("ssm", "conv", "mlp", "msa")),
    ("no_conv", ("ssm", "mlp", "msa")),
    ("no_msa", ("ssm", "conv", "mlp")),
    ("no_mlp", ("ssm", "conv", "msa")),
    ("no_conv_msa", ("ssm", "mlp")),
    ("no_conv_mlp", ("ssm", "msa")),
    ("no_msa_mlp", ("ssm", "conv")),
    ("ssm_only", ("ssm",)),
)

ANALYSIS_SWEEPS = {
    "aggregation": [("selective", {"aggregation": "selective"}),
                    ("max", {"aggregation": "elementwise-max"}),
                    ("average", {"aggregation": "elementwise-average"})],
    "kernel": [(f"k{k}", {"kernel_size": k}) for k in KERNEL_SIZES],
    "pooling": [(m, {"pooling": m}) for m in POOLING_METHODS],
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep exit code 1 for usage problems
        raise _UsageError(message)


def _run_config(args) -> RunConfig:
    """The ``--config`` file, or the desk defaults without one."""
    return load_config_file(args.config) if args.config else RunConfig(model=desk_config())


def _training_run(args) -> tuple[RunConfig, Dataset]:
    """Run config and dataset of ``train``, ``ablate`` and ``analyze``.

    The flags override the ``--config`` file, or the desk defaults without
    one; then the model takes the data directory's class count, unless a
    config file fixed it (a differing count is refused by :func:`train`).
    """
    run = _run_config(args)
    model = run.model if args.seed is None else dataclasses.replace(run.model, seed=args.seed)
    flags = {name: getattr(args, name) for name in TRAIN_FIELDS if getattr(args, name) is not None}
    run = dataclasses.replace(run, model=model, **flags)
    dataset = load_image_folder(args.data, run.model.input_size)
    if not args.config:
        model = dataclasses.replace(run.model, num_classes=dataset.num_classes)
        run = dataclasses.replace(run, model=model)
    return run, dataset


def _write_epoch_log(path: str, records) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "mean_loss", "train_acc"])
        for rec in records:
            writer.writerow([rec.epoch, f"{rec.mean_loss:.6f}", f"{rec.train_acc:.6f}"])


def _format_metrics(metrics: Metrics) -> str:
    rows = ";".join(",".join(str(int(v)) for v in row) for row in metrics.confusion)
    return (
        f"acc {metrics.accuracy:.6f}\n"
        f"prec {metrics.precision:.6f}\n"
        f"rec {metrics.recall:.6f}\n"
        f"f1 {metrics.f1:.6f}\n"
        f"confusion {rows}\n"
    )


@contextmanager
def _claimed(path: str):
    """Create ``path`` before the work in the block, so an unwritable path
    fails before any of it is done.  An existing file is kept as it is; a file
    the claim created is removed again if the block fails."""
    created = not os.path.exists(path)
    open(path, "a").close()
    try:
        yield
    except BaseException:
        if created:
            os.remove(path)
        raise


def _fit(run: RunConfig, config: ModelConfig, dataset: Dataset):
    """Train a fresh ``Model(config)`` with the training fields of ``run``."""
    training = {name: getattr(run, name) for name in TRAIN_FIELDS}
    return train(Model(config), dataset, seed=config.seed, **training)


def _run_sweep(args, settings, header: str) -> None:
    """Train and evaluate one model per ``(name, model overrides)`` setting.

    Writes one ``name,acc,f1`` CSV row per setting, in ``settings`` order,
    whatever the worker count, once every setting is done; ``--out`` is
    claimed (:func:`_claimed`) before the first setting trains.
    """
    if args.threads < 1:
        raise ConfigError(f"--threads must be at least 1, got {args.threads}")
    run, dataset = _training_run(args)

    def runner(setting):
        _, overrides = setting
        model, _ = _fit(run, dataclasses.replace(run.model, **overrides), dataset)
        metrics = evaluate(model, dataset)
        return metrics.accuracy, metrics.f1

    with _claimed(args.out):
        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            results = list(pool.map(runner, settings))
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([header, "acc", "f1"])
            for (name, _), (acc, f1) in zip(settings, results):
                writer.writerow([name, f"{acc:.6f}", f"{f1:.6f}"])


# -- commands ------------------------------------------------------------------


def cmd_train(args) -> int:
    run, dataset = _training_run(args)
    log = args.out + ".log.csv"
    with _claimed(args.out), _claimed(log):
        model, records = _fit(run, run.model, dataset)
        save_checkpoint(model, args.out)
        _write_epoch_log(log, records)
    for rec in records:
        print(f"epoch {rec.epoch}: mean_loss={rec.mean_loss:.6f} train_acc={rec.train_acc:.6f}")
    print(f"checkpoint written to {args.out}")
    return 0


def cmd_eval(args) -> int:
    model = load_checkpoint(args.ckpt)
    dataset = load_image_folder(args.data, model.config.input_size)
    with _claimed(args.metrics_out) if args.metrics_out else nullcontext():
        metrics = evaluate(model, dataset)
        if args.metrics_out:
            with open(args.metrics_out, "w") as fh:
                fh.write(_format_metrics(metrics))
    print(
        f"acc={metrics.accuracy:.4f} prec={metrics.precision:.4f} "
        f"rec={metrics.recall:.4f} f1={metrics.f1:.4f}"
    )
    return 0


def cmd_gradcheck(args) -> int:
    if not 0 <= args.tolerance < math.inf:
        raise ConfigError(f"tolerance must be non-negative and finite, got {args.tolerance}")
    results = gradient_suite(seed=args.seed, seeds=args.seeds)
    failing = []
    for component, err in results.items():
        passed = err < args.tolerance
        print(f"{component}: max_rel_error={err:.3e} {'PASS' if passed else 'FAIL'}")
        if not passed:
            failing.append(component)
    if failing:
        print(f"gradient check failed for: {', '.join(failing)}", file=sys.stderr)
        return 3
    return 0


def cmd_ablate(args) -> int:
    settings = [(name, {"branches": branches}) for name, branches in ABLATION_VARIANTS]
    _run_sweep(args, settings, header="config")
    print(f"ablation results written to {args.out}")
    return 0


def cmd_analyze(args) -> int:
    settings, model = ANALYSIS_SWEEPS[args.sweep], _run_config(args).model
    # each sweep varies only the fusion: without a gate, every setting builds one model
    if not any(dataclasses.replace(model, **overrides).has_gate for _, overrides in settings):
        raise ConfigError(f"--sweep {args.sweep} would train one model: no setting has a selective gate")
    _run_sweep(args, settings, header="setting")
    print(f"{args.sweep} sweep results written to {args.out}")
    return 0


def cmd_synth(args) -> int:
    names = generate_synthetic(
        args.out, classes=args.classes, per_class=args.per_class, size=args.size, seed=args.seed
    )
    print(f"wrote {args.classes * args.per_class} images to {args.out} (classes: {', '.join(names)})")
    return 0


def cmd_inspect(args) -> int:
    model = load_checkpoint(args.ckpt)
    print(json.dumps({"config": dataclasses.asdict(model.config)}, indent=2))
    blocks = [block for stage in model.stages for block in stage.blocks]

    def count(modules) -> int:
        return sum(m.parameter_count() for m in modules if m is not None)

    # each group sums whole modules of the tree; the total is counted separately
    groups = {
        "patch_embed": count([model.patch_embed]),
        **{f"{name}_branch": count(getattr(b, name) for b in blocks) for name in BRANCH_NAMES},
        "fusion": count(b.fusion for b in blocks),
        "patch_merging": count(stage.merge for stage in model.stages),
        "norms": count([*(b.norm for b in blocks), model.final_norm]),
        "head": model.head_weight.size + model.head_bias.size,
    }
    for group, size in groups.items():
        print(f"{group} {size}")
    print(f"total {model.parameter_count()}")
    return 0


def cmd_emit_config(args) -> int:
    sys.stdout.write(emit_config(_run_config(args)))
    return 0


# -- argument wiring -----------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="mixssm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_args(p):
        p.add_argument("--config", default=None, help="JSON run config file")
        p.add_argument("--data", required=True, help="image-folder dataset directory")
        p.add_argument("--out", required=True)
        for name in TRAIN_FIELDS:
            kind = type(getattr(RunConfig, name))
            p.add_argument("--" + name.replace("_", "-"), type=kind, default=None, dest=name)
        p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("train", help="train a model and write a checkpoint + epoch log")
    add_run_args(p)
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on an image folder")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--metrics-out", default=None, dest="metrics_out")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite (double precision)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=1e-3)
    p.add_argument("--seeds", type=int, default=5, help="number of random seeds per component")
    p.set_defaults(handler=cmd_gradcheck)

    p = sub.add_parser("ablate", help="train/eval all 8 branch subsets")
    add_run_args(p)
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(handler=cmd_ablate)

    p = sub.add_parser("analyze", help="sweep aggregation, kernel size or pooling")
    add_run_args(p)
    p.add_argument("--sweep", required=True, choices=sorted(ANALYSIS_SWEEPS))
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("synth", help="generate a synthetic PPM dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--per-class", type=int, default=16, dest="per_class")
    p.add_argument("--size", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_synth)

    p = sub.add_parser("inspect", help="print config and per-module parameter counts")
    p.add_argument("--ckpt", required=True)
    p.set_defaults(handler=cmd_inspect)

    p = sub.add_parser("emit-config", help="print the canonical form of a config")
    p.add_argument("--config", default=None)
    p.set_defaults(handler=cmd_emit_config)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        # an overflow ends in NumericsError (exit 2), not in a RuntimeWarning
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            return args.handler(args)
    except (_UsageError, OSError, ValueError, MemoryError) as exc:
        # ConfigError, DataError, CheckpointError and ShapeError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericsError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
