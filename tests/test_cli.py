"""End-to-end CLI contract: flags, outputs, exit codes."""

import csv
import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from mixssm import cli
from mixssm.cli import ABLATION_VARIANTS, main
from mixssm.config import TRAIN_FIELDS, RunConfig, emit_config, parse_config
from mixssm.data import generate_synthetic
from mixssm.errors import CheckpointError, ConfigError
from mixssm.network import (
    BRANCH_NAMES, Model, ModelConfig, desk_config, load_checkpoint, save_checkpoint,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

MICRO_CONFIG = {
    "input_size": [16, 16],
    "patch_size": 4,
    "depths": [1, 1],
    "channels": 8,
    "branches": ["ssm", "conv", "mlp", "msa"],
    "heads": 1,
    "state_dim": 4,
    "kernel_size": 3,
    "pooling": "average",
    "aggregation": "selective",
    "reduction": 4,
    "num_classes": 4,
    "seed": 0,
    "epochs": 2,
    "batch_size": 8,
    "lr": 0.001,
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = str(root / "data")
    generate_synthetic(data, classes=4, per_class=3, size=16, seed=0)
    config = str(root / "run.json")
    with open(config, "w") as fh:
        json.dump(MICRO_CONFIG, fh)
    return {"root": root, "data": data, "config": config}


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def micro_model_config(**overrides):
    fields = {k: v for k, v in MICRO_CONFIG.items() if k not in TRAIN_FIELDS}
    fields.update(overrides)
    return ModelConfig(**fields)


# -- train ---------------------------------------------------------------------


def test_train_writes_checkpoint_and_log(workdir):
    out = str(workdir["root"] / "model.ckpt")
    code = main(["train", "--config", workdir["config"], "--data", workdir["data"], "--out", out])
    assert code == 0
    assert os.path.exists(out)
    rows = read_csv(out + ".log.csv")
    assert rows[0] == ["epoch", "mean_loss", "train_acc"]
    assert len(rows) == 1 + MICRO_CONFIG["epochs"]


def test_train_missing_data_dir_exits_1(workdir, capsys):
    out = str(workdir["root"] / "nope.ckpt")
    code = main(["train", "--config", workdir["config"], "--data", "/no/such/dir", "--out", out])
    assert code == 1
    assert "/no/such/dir" in capsys.readouterr().err


def test_train_zero_lr_checkpoint_equals_initialization(workdir):
    out = str(workdir["root"] / "frozen.ckpt")
    code = main([
        "train", "--config", workdir["config"], "--data", workdir["data"],
        "--out", out, "--lr", "0", "--epochs", "1",
    ])
    assert code == 0
    loaded = load_checkpoint(out)
    fresh = dict(Model(micro_model_config()).named_parameters())
    for name, p in loaded.named_parameters():
        assert np.array_equal(p.data, fresh[name].data), name


def test_train_is_idempotent_given_same_seed(workdir):
    outs = []
    for i in range(2):
        out = str(workdir["root"] / f"rep{i}.ckpt")
        assert main([
            "train", "--config", workdir["config"], "--data", workdir["data"],
            "--out", out, "--epochs", "1",
        ]) == 0
        outs.append(open(out, "rb").read())
    assert outs[0] == outs[1]


def test_train_rejects_unknown_config_key(workdir, capsys):
    # a removed field is refused like any other unknown key
    for key, value in (("learning_rate_warmup", 5), ("ssm_shared_directions", True)):
        bad = str(workdir["root"] / "bad.json")
        with open(bad, "w") as fh:
            json.dump({**MICRO_CONFIG, key: value}, fh)
        code = main(["train", "--config", bad, "--data", workdir["data"],
                     "--out", str(workdir["root"] / "x.ckpt")])
        assert code == 1
        err = capsys.readouterr().err
        assert "unknown config keys" in err and key in err


def test_usage_error_exits_1():
    assert main(["train", "--data"]) == 1
    assert main(["frobnicate"]) == 1


# -- eval ------------------------------------------------------------------------


def test_eval_metrics_file_contract(workdir, capsys):
    ckpt = str(workdir["root"] / "model.ckpt")
    metrics = str(workdir["root"] / "metrics.txt")
    code = main(["eval", "--ckpt", ckpt, "--data", workdir["data"], "--metrics-out", metrics])
    assert code == 0
    printed = capsys.readouterr().out
    assert "acc=" in printed and "f1=" in printed
    lines = [ln.split(" ", 1) for ln in open(metrics).read().splitlines()]
    assert [k for k, _ in lines] == ["acc", "prec", "rec", "f1", "confusion"]
    rows = lines[4][1].split(";")
    assert len(rows) == 4 and sum(int(v) for r in rows for v in r.split(",")) == 12


def test_eval_corrupted_checkpoint_exits_1(workdir, capsys):
    ckpt = str(workdir["root"] / "model.ckpt")
    broken = str(workdir["root"] / "broken.ckpt")
    blob = open(ckpt, "rb").read()
    open(broken, "wb").write(blob[:-50])
    code = main(["eval", "--ckpt", broken, "--data", workdir["data"]])
    assert code == 1
    assert "truncated" in capsys.readouterr().err


def test_eval_class_mismatch_exits_1(workdir, tmp_path, capsys):
    two = str(tmp_path / "two")
    generate_synthetic(two, classes=2, per_class=2, size=16, seed=1)
    code = main(["eval", "--ckpt", str(workdir["root"] / "model.ckpt"), "--data", two])
    assert code == 1
    assert "classes" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["train"], ["ablate"], ["analyze", "--sweep", "aggregation"]])
def test_config_class_mismatch_exits_1(command, workdir, tmp_path, capsys):
    two = str(tmp_path / "two")
    generate_synthetic(two, classes=2, per_class=2, size=16, seed=1)
    out = str(tmp_path / "out")
    assert main([*command, "--config", workdir["config"], "--data", two, "--out", out,
                 "--epochs", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "classes" in err and "Traceback" not in err
    assert not os.path.exists(out)


def test_numerical_abort_exits_2(workdir, capsys):
    model = Model(micro_model_config())
    # exp(a_log) overflows float32 in the first forward; a finite a_log cannot
    # make a decay above 1, so overflowing the rate itself is the way to abort
    model.stages[0].blocks[0].ssm.a_log.data += 1e4
    poisoned = str(workdir["root"] / "poisoned.ckpt")
    save_checkpoint(model, poisoned)
    code = main(["eval", "--ckpt", poisoned, "--data", workdir["data"]])
    assert code == 2
    assert "numerical abort" in capsys.readouterr().err


def test_numerical_abort_exits_2_under_warnings_as_errors(workdir):
    # a float32 patch bias of 3e38 overflows the layer-norm mean right after
    # the embedding; numpy's RuntimeWarning must not preempt the exit code
    model = Model(micro_model_config())
    model.patch_embed.bias.data[:] = 3e38
    poisoned = str(workdir["root"] / "huge_bias.ckpt")
    save_checkpoint(model, poisoned)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "mixssm.cli", "eval",
         "--ckpt", poisoned, "--data", workdir["data"]],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "numerical abort" in proc.stderr
    assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr


# -- gradcheck ----------------------------------------------------------------------


def test_gradcheck_passes_and_prints_components(capsys):
    code = main(["gradcheck", "--seed", "0", "--seeds", "1"])
    out = capsys.readouterr().out
    assert code == 0
    for component in ("conv_branch", "msa_branch", "mlp_branch", "ssm_branch",
                      "selective_module", "mix_ssm_block"):
        assert component in out
    assert "FAIL" not in out


def _tiny_errors(seed, seeds):
    return {"ssm_branch": 1e-9, "mix_ssm_block": 1e-9}


def test_gradcheck_zero_tolerance_exits_3(monkeypatch, capsys):
    # the suite itself runs in the test above; here only the verdict on its errors matters
    monkeypatch.setattr(cli, "gradient_suite", _tiny_errors)
    code = main(["gradcheck", "--seeds", "1", "--tolerance", "0"])
    assert code == 3
    assert "failed" in capsys.readouterr().err


@pytest.mark.parametrize("seeds", ["0", "-2"])
def test_gradcheck_without_seeds_exits_1(seeds, capsys):
    assert main(["gradcheck", "--seeds", seeds]) == 1
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert captured.err.startswith("error:") and "seeds" in captured.err


# -- ablate / analyze ------------------------------------------------------------------


def test_ablate_emits_all_eight_rows(workdir):
    out = str(workdir["root"] / "ablation.csv")
    code = main([
        "ablate", "--config", workdir["config"], "--data", workdir["data"],
        "--out", out, "--epochs", "1",
    ])
    assert code == 0
    rows = read_csv(out)
    assert rows[0] == ["config", "acc", "f1"]
    assert [r[0] for r in rows[1:]] == [name for name, _ in ABLATION_VARIANTS]
    full = Model(micro_model_config()).parameter_count()
    for name, branches in ABLATION_VARIANTS[1:]:
        assert Model(micro_model_config(branches=branches)).parameter_count() < full


def test_analyze_kernel_sweep(workdir):
    out = str(workdir["root"] / "kernel.csv")
    code = main([
        "analyze", "--config", workdir["config"], "--data", workdir["data"],
        "--sweep", "kernel", "--out", out, "--epochs", "1",
    ])
    assert code == 0
    rows = read_csv(out)
    assert [r[0] for r in rows] == ["setting", "k1", "k3", "k5", "k7"]


def test_analyze_pooling_sweep(workdir):
    out = str(workdir["root"] / "pooling.csv")
    code = main([
        "analyze", "--config", workdir["config"], "--data", workdir["data"],
        "--sweep", "pooling", "--out", out, "--epochs", "1",
    ])
    assert code == 0
    assert [r[0] for r in read_csv(out)[1:]] == ["average", "max", "l2", "stochastic"]


def test_analyze_aggregation_sweep_parallel_matches_serial(workdir):
    serial = str(workdir["root"] / "agg1.csv")
    parallel = str(workdir["root"] / "agg2.csv")
    base = ["analyze", "--config", workdir["config"], "--data", workdir["data"],
            "--sweep", "aggregation", "--epochs", "1"]
    assert main(base + ["--out", serial]) == 0
    assert main(base + ["--out", parallel, "--threads", "3"]) == 0
    assert open(serial).read() == open(parallel).read()


def test_analyze_unknown_sweep_exits_1(workdir, capsys):
    code = main([
        "analyze", "--config", workdir["config"], "--data", workdir["data"],
        "--sweep", "dropout", "--out", str(workdir["root"] / "x.csv"),
    ])
    assert code == 1
    assert "sweep" in capsys.readouterr().err


@pytest.mark.parametrize(
    "sweep, overrides",
    [("kernel", {"aggregation": "elementwise-max"}),
     ("pooling", {"aggregation": "elementwise-average"}),
     ("pooling", {"branches": ["msa"]}),
     ("aggregation", {"branches": ["ssm"]})],
    ids=["kernel_elementwise", "pooling_elementwise", "pooling_single_branch",
         "aggregation_single_branch"],
)
def test_analyze_refuses_a_sweep_that_builds_one_model(sweep, overrides, workdir, tmp_path,
                                                        monkeypatch, capsys):
    # without a selective gate, every setting of these sweeps builds the same model
    monkeypatch.setattr(cli, "train", _no_training)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({**MICRO_CONFIG, **overrides}))
    out = tmp_path / "sweep.csv"
    assert main(["analyze", "--config", str(config), "--data", workdir["data"],
                 "--sweep", sweep, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()


def test_sweep_opens_out_before_training(workdir, monkeypatch, capsys):
    calls = []

    def fake_train(*args, **kwargs):
        calls.append(args)
        raise _Trained

    monkeypatch.setattr(cli, "train", fake_train)
    out = str(workdir["root"] / "missing" / "x.csv")
    assert main(["ablate", "--config", workdir["config"], "--data", workdir["data"], "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert calls == []


@pytest.mark.parametrize("command", ["train", "eval"])
def test_train_and_eval_claim_their_outputs_before_working(command, workdir, tmp_path,
                                                           monkeypatch, capsys):
    calls = []

    def work(*args, **kwargs):
        calls.append(args)
        raise ConfigError("the work started")

    monkeypatch.setattr(cli, {"train": "train", "eval": "evaluate"}[command], work)
    ckpt = str(tmp_path / "m.ckpt")
    save_checkpoint(Model(micro_model_config()), ckpt)
    missing = str(tmp_path / "missing" / "out")
    flags = {"train": ["--config", workdir["config"], "--out", missing],
             "eval": ["--ckpt", ckpt, "--metrics-out", missing]}[command]
    assert main([command, "--data", workdir["data"], *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert calls == []


def test_failed_sweep_keeps_an_existing_out(workdir, tmp_path, monkeypatch, capsys):
    def failing_train(*args, **kwargs):
        raise ConfigError("training failed")

    monkeypatch.setattr(cli, "train", failing_train)
    out = tmp_path / "ablate.csv"
    out.write_bytes(b"config,acc,f1\nfull,0.5,0.5\n")
    assert main(["ablate", "--config", workdir["config"], "--data", workdir["data"],
                 "--out", str(out)]) == 1
    assert "training failed" in capsys.readouterr().err
    assert out.read_bytes() == b"config,acc,f1\nfull,0.5,0.5\n"


def test_worker_count_below_one_exits_1(workdir, capsys):
    out = str(workdir["root"] / "no_workers.csv")
    sweep = ["analyze", "--config", workdir["config"], "--data", workdir["data"],
             "--sweep", "aggregation", "--out", out, "--epochs", "1"]
    assert main([*sweep, "--threads", "0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--threads" in err
    assert not os.path.exists(out)


# -- synth / inspect ---------------------------------------------------------------------


def test_synth_same_seed_identical_trees(tmp_path):
    import hashlib

    def digest(root):
        acc = hashlib.sha256()
        for dirpath, dirnames, files in sorted(os.walk(root)):
            dirnames.sort()
            for f in sorted(files):
                acc.update(f.encode())
                acc.update(open(os.path.join(dirpath, f), "rb").read())
        return acc.hexdigest()

    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["synth", "--out", a, "--classes", "3", "--per-class", "2",
                 "--size", "16", "--seed", "4"]) == 0
    assert main(["synth", "--out", b, "--classes", "3", "--per-class", "2",
                 "--size", "16", "--seed", "4"]) == 0
    assert digest(a) == digest(b)


def test_eval_metrics_out_directory_exits_1(workdir, tmp_path, capsys):
    ckpt = str(workdir["root"] / "model.ckpt")
    code = main(["eval", "--ckpt", ckpt, "--data", workdir["data"], "--metrics-out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_synth_out_of_memory_exits_1_without_a_traceback(tmp_path, monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 447. GiB for an array")

    monkeypatch.setattr(cli, "generate_synthetic", exhausted)
    assert main(["synth", "--out", str(tmp_path / "x"), "--size", "200000"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "allocate" in err and "Traceback" not in err


def test_synth_rejects_zero_per_class(tmp_path):
    assert main(["synth", "--out", str(tmp_path / "x"), "--per-class", "0"]) == 1


def test_inspect_counts_sum_to_total(workdir, tmp_path, capsys):
    ablated = micro_model_config(branches=("ssm", "mlp", "msa"))
    ckpt = str(tmp_path / "noconv.ckpt")
    save_checkpoint(Model(ablated), ckpt)
    assert main(["inspect", "--ckpt", ckpt]) == 0
    out = capsys.readouterr().out
    counts = {}
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[1].isdigit():
            counts[parts[0]] = int(parts[1])
    assert counts["conv_branch"] == 0
    assert counts["ssm_branch"] > 0
    total = counts.pop("total")
    assert total == sum(counts.values()) == Model(ablated).parameter_count()


def hand_summed_groups(model):
    """Parameter counts per inspect group, summed from parameter names."""
    groups = dict.fromkeys(["patch_embed", "ssm_branch", "conv_branch", "mlp_branch",
                            "msa_branch", "fusion", "patch_merging", "norms", "head"], 0)
    for name, p in model.named_parameters():
        parts = name.split(".")
        if parts[0] == "patch_embed":
            group = "patch_embed"
        elif parts[0].startswith("head_"):
            group = "head"
        elif parts[0] == "final_norm":
            group = "norms"
        elif parts[2] == "merge":  # stages.<i>.merge.<...>
            group = "patch_merging"
        else:  # stages.<i>.blocks.<j>.<module>.<...>
            module = parts[4]
            group = {"norm": "norms", "fusion": "fusion"}.get(module, f"{module}_branch")
        groups[group] += p.size
    return groups


@pytest.mark.parametrize(
    "overrides, gated",
    [
        ({}, True),
        ({"branches": ("ssm", "mlp", "msa")}, True),
        ({"branches": ("ssm",)}, False),
        ({"aggregation": "elementwise-max"}, False),
    ],
    ids=["full", "no_conv", "ssm_only", "elementwise_max"],
)
def test_inspect_counts_equal_hand_summed_module_counts(overrides, gated, tmp_path, capsys):
    model = Model(dataclasses.replace(desk_config(), **overrides))
    ckpt = str(tmp_path / "desk.ckpt")
    save_checkpoint(model, ckpt)
    capsys.readouterr()
    assert main(["inspect", "--ckpt", ckpt]) == 0
    lines = capsys.readouterr().out.splitlines()[-10:]
    printed = [(name, int(count)) for name, count in (line.split() for line in lines)]
    want = hand_summed_groups(model)
    assert printed == [*want.items(), ("total", model.parameter_count())]
    # only a selective aggregation over two or more branches has a gate
    assert (dict(printed)["fusion"] > 0) == gated


def _rewrite(src, dst, mutate_header, mutate_payload=lambda payload: payload):
    blob = open(src, "rb").read()
    header_len = int.from_bytes(blob[8:16], "little")
    header = mutate_header(json.loads(blob[16 : 16 + header_len].decode()))
    new_header = json.dumps(header).encode()
    payload = mutate_payload(blob[16 + header_len :])
    open(dst, "wb").write(blob[:8] + len(new_header).to_bytes(8, "little") + new_header + payload)


def _set_entry(index, key, value):
    def mutate(header):
        header["tensors"][index][key] = value
        return header
    return mutate


def _shared_offset(header):
    header["tensors"][1]["offset"] = header["tensors"][0]["offset"]
    return header


def _shift_offsets(header):
    for entry in header["tensors"]:
        entry["offset"] += 4
    return header


def _length_as_float(header):
    header["tensors"][0]["length"] = float(header["tensors"][0]["length"])
    return header


MALFORMED_HEADERS = {
    "header_is_list": lambda header: [header],
    "entry_is_int": lambda header: {**header, "tensors": [7] + header["tensors"][1:]},
    "shape_is_string": _set_entry(0, "shape", "ab"),
    "tensors_is_int": lambda header: {**header, "tensors": 7},
    "negative_offset": _set_entry(0, "offset", -4),
    "shared_offset": _shared_offset,
    "seed_is_string": lambda header: {**header, "config": {**header["config"], "seed": "x"}},
    # equal under ==, but not the JSON save_checkpoint writes
    "offset_is_false": _set_entry(0, "offset", False),
    "length_is_float": _length_as_float,
    # the directory must be exactly the one save_checkpoint writes
    "entries_permuted": lambda header: {**header, "tensors": header["tensors"][::-1]},
    "extra_entry_key": _set_entry(0, "dtype", "<f4"),
}
# (header mutation, payload mutation): payload bytes that no tensor covers
MALFORMED_PAYLOADS = {
    "gap_before_first_tensor": (_shift_offsets, lambda payload: bytes(4) + payload),
    "trailing_bytes": (lambda header: header, lambda payload: payload + bytes(4)),
}


@pytest.mark.parametrize("case", [*MALFORMED_HEADERS, *MALFORMED_PAYLOADS, "directory"])
def test_malformed_checkpoint_raises_checkpoint_error_and_exits_1(case, tmp_path, capsys):
    ckpt = str(tmp_path / "model.ckpt")
    save_checkpoint(Model(micro_model_config()), ckpt)
    bad = str(tmp_path / "bad.ckpt")
    if case == "directory":
        bad = str(tmp_path)
    elif case in MALFORMED_PAYLOADS:
        _rewrite(ckpt, bad, *MALFORMED_PAYLOADS[case])
    else:
        _rewrite(ckpt, bad, MALFORMED_HEADERS[case])
    with pytest.raises(CheckpointError):
        load_checkpoint(bad)
    capsys.readouterr()
    assert main(["inspect", "--ckpt", bad]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_gated_checkpoint_relabelled_elementwise_exits_1(workdir, tmp_path, capsys):
    # an elementwise model owns no gate, so the four-branch file's gate tensors
    # do not fit its directory: a file written before the gates went is refused
    ckpt = str(tmp_path / "model.ckpt")
    save_checkpoint(Model(micro_model_config()), ckpt)
    relabelled = str(tmp_path / "relabelled.ckpt")
    _rewrite(ckpt, relabelled,
             lambda header: {**header, "config": {**header["config"], "aggregation": "elementwise-max"}})
    capsys.readouterr()
    assert main(["eval", "--ckpt", relabelled, "--data", workdir["data"]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "directory" in err and "Traceback" not in err


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_checkpoint_value_exits_1(value, workdir, tmp_path, capsys):
    model = Model(micro_model_config())
    model.patch_embed.kernel.data.flat[5] = value
    bad = str(tmp_path / "non_finite.ckpt")
    save_checkpoint(model, bad)
    with pytest.raises(CheckpointError, match="patch_embed.kernel"):
        load_checkpoint(bad)
    capsys.readouterr()
    for command in (["inspect", "--ckpt", bad], ["eval", "--ckpt", bad, "--data", workdir["data"]]):
        assert main(command) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "non-finite" in err and "Traceback" not in err


# -- config round trip ----------------------------------------------------------------------


def test_config_parse_emit_parse_round_trip(workdir):
    text = open(workdir["config"]).read()
    once = parse_config(text)
    again = parse_config(emit_config(once))
    assert once == again
    assert emit_config(once) == emit_config(again)


BAD_CONFIGS = [
    {"epochs": "x"},
    {"lr": None},
    {"depths": 5},
    {"patch_size": 0},
    {"seed": "x"},
    {"batch_size": 2.5},
    {"input_size": [32.0, 32]},
    {"epochs": True},
    {"in_channels": 0},  # removed field: refused as an unknown key
    {"branches": "ssm"},
    {"channels": [8, 16]},
    {"heads": 0},
]


@pytest.mark.parametrize("override", BAD_CONFIGS, ids=lambda o: json.dumps(o))
def test_config_wrong_type_or_size_exits_1(override, tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({**MICRO_CONFIG, **override}))
    with pytest.raises(ConfigError, match=next(iter(override))):
        parse_config(path.read_text())
    assert main(["emit-config", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


class _Trained(Exception):
    """Raised by a stand-in for ``train`` once it has seen its arguments."""


@pytest.mark.parametrize("command", [["train"], ["ablate"], ["analyze", "--sweep", "kernel"]])
def test_every_training_field_has_an_overriding_flag(command, workdir, monkeypatch):
    seen = {}

    def fake_train(model, dataset, **kwargs):
        seen.update(kwargs)
        raise _Trained

    monkeypatch.setattr(cli, "train", fake_train)
    base = parse_config(open(workdir["config"]).read())
    assert TRAIN_FIELDS
    for name in TRAIN_FIELDS:
        value = 2 * getattr(base, name)
        with pytest.raises(_Trained):
            main([*command, "--config", workdir["config"], "--data", workdir["data"],
                  "--out", str(workdir["root"] / "unused"),
                  "--" + name.replace("_", "-"), str(value)])
        want = {field: getattr(base, field) for field in TRAIN_FIELDS}
        assert {field: seen[field] for field in TRAIN_FIELDS} == {**want, name: value}


def test_emit_config_writes_model_then_training_fields_in_declaration_order(workdir, capsys):
    for argv in (["emit-config"], ["emit-config", "--config", workdir["config"]]):
        assert main(argv) == 0
        keys = list(json.loads(capsys.readouterr().out))
        model_fields = [f.name for f in dataclasses.fields(ModelConfig)]
        run_fields = [f.name for f in dataclasses.fields(RunConfig) if f.name != "model"]
        assert keys == model_fields + run_fields


def test_config_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown"):
        parse_config(json.dumps({**MICRO_CONFIG, "optimizer": "sgd"}))


def test_config_data_path_fields_rejected(tmp_path, capsys):
    text = json.dumps({**MICRO_CONFIG, "train_data": "data/"})
    with pytest.raises(ConfigError, match="train_data"):
        parse_config(text)
    path = tmp_path / "run.json"
    path.write_text(text)
    assert main(["emit-config", "--config", str(path)]) == 1
    assert "train_data" in capsys.readouterr().err


# -- numeric flags -----------------------------------------------------------------------


def _subcommands():
    return next(a for a in cli._build_parser()._actions if a.dest == "command").choices


# (subcommand, flag) for every int or float option, so a new flag is covered too
NUMERIC_FLAGS = [
    (name, action.option_strings[0])
    for name, parser in _subcommands().items()
    for action in parser._actions
    if action.type in (int, float)
]


def _no_training(*args, **kwargs):
    raise AssertionError("a refused value reached training")


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
@pytest.mark.parametrize("command, flag", NUMERIC_FLAGS)
def test_numeric_flag_refuses_non_finite_and_negative_values(
    command, flag, value, workdir, tmp_path, monkeypatch, capsys
):
    monkeypatch.setattr(cli, "train", _no_training)
    out = tmp_path / "out"
    # what each subcommand needs besides the flag; the micro config matches the data
    context = {"--config": workdir["config"], "--data": workdir["data"], "--out": str(out),
               "--sweep": "kernel"}
    options = {s for action in _subcommands()[command]._actions for s in action.option_strings}
    given = [word for option, v in context.items() if option in options for word in (option, v)]
    assert main([command, *given, flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()
