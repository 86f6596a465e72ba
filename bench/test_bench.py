"""Self-tests of the benchmark: every workload at a tiny size.

They check that a run reports exactly the metric names of BENCHMARK.json,
that the traced run leaves every output bitwise unchanged (the workloads
compare traced against untraced results and count any difference as a
failure) and that the tracer puts back everything it replaced.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def _load_run_module():
    spec = importlib.util.spec_from_file_location("mixssm_bench_run", os.path.join(HERE, "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run_module = _load_run_module()


def _tiny(name, trace, tmp_path):
    return workloads.run(name, seed=3, seconds=0.0, trace=trace,
                         workdir=str(tmp_path / "work"), sizes=workloads.TINY)


def _patchable_state():
    """Identity of every attribute the tracer may replace."""
    state = {}
    for holder in tracer.PRIMITIVE_HOLDERS + ("gradcheck",):
        mod = importlib.import_module(f"mixssm.{holder}")
        for name, value in vars(mod).items():
            state[(holder, name)] = id(value)
    for holder, table in tracer.PRIMITIVE_TABLES:
        for key, value in getattr(importlib.import_module(f"mixssm.{holder}"), table).items():
            state[(holder, table, key)] = id(value)
    for holder, cls_name, method, _ in tracer.METHOD_SPANS:
        cls = getattr(importlib.import_module(f"mixssm.{holder}"), cls_name)
        state[(holder, cls_name, method)] = id(cls.__dict__[method])
    return state


def test_workload_names_match_the_runner():
    assert tuple(w["name"] for w in SPEC["workloads"]) == workloads.WORKLOADS
    assert run_module.WORKLOADS == workloads.WORKLOADS


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_untraced_run_reports_the_end_to_end_metrics(name, tmp_path):
    outcome = _tiny(name, False, tmp_path)
    result = run_module.result_line(outcome, False, SPEC)
    assert outcome.failures == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert set(outcome.end_to_end) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    assert not os.path.exists(tmp_path / "work")


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_run_reports_layers_and_changes_no_output(name, tmp_path):
    before = _patchable_state()
    outcome = _tiny(name, True, tmp_path)
    assert _patchable_state() == before
    # traced losses, probabilities and gradient errors equal the untraced ones
    assert outcome.failures == []
    result = run_module.result_line(outcome, True, SPEC)
    assert result["correct"]
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    layers = outcome.layers
    assert layers["trace.overhead_ratio"] > 0
    assert layers["tensor.op_calls"] > 0
    if name == "desk_train":
        # every recorded node came from a wrapped primitive call
        assert 0 < layers["tensor.tape_nodes"] <= layers["tensor.op_calls"]
        spans = sum(layers[f"train.{part}_ms"] for part in ("forward", "loss", "backward", "optimizer"))
        assert spans >= 0.9 * layers["train.step_ms"]
        assert layers["encoders.linear_scan.bwd_ms"] > 0
    if name == "paper_infer":
        assert layers["tensor.tape_nodes"] == 0
        assert layers["network.checkpoint_bytes"] > 0
    if name == "gradcheck":
        assert layers["gradcheck.loss_evals"] > 0
        assert all(layers[f"gradcheck.max_rel_error.{c}"] > 0 for c in (
            "conv_branch", "msa_branch", "mlp_branch", "ssm_branch", "selective_module",
            "mix_ssm_block"))


def test_numerics_error_is_a_failed_operation(tmp_path, monkeypatch):
    train_mod = importlib.import_module("mixssm.train")

    def overflow(probs, labels):
        raise workloads.NumericsError("injected overflow")

    monkeypatch.setattr(train_mod, "cross_entropy_loss", overflow)
    outcome = _tiny("desk_train", False, tmp_path)
    assert outcome.attempted > 0 and outcome.failed == outcome.attempted
    assert not run_module.result_line(outcome, False, SPEC)["correct"]


def test_inputs_follow_the_seed():
    a = workloads.make_images(5, 2, 2, 12)
    b = workloads.make_images(5, 2, 2, 12)
    c = workloads.make_images(6, 2, 2, 12)
    assert [lb for lb, _ in a] == [0, 0, 1, 1]
    assert workloads.digest(*(img for _, img in a)) == workloads.digest(*(img for _, img in b))
    assert workloads.digest(*(img for _, img in a)) != workloads.digest(*(img for _, img in c))


def test_runner_refuses_without_sources(tmp_path, capsys):
    module = _load_run_module()
    module.SRC = str(tmp_path / "src")
    assert module.main(["--workload", "desk_train", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
