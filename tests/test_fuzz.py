"""Seeded fuzzing of the three parsers: checkpoint, P6 PPM and run config.

Every mutated input either loads (a flip can leave a file valid, e.g. one in
header whitespace) or raises the parser's own error type; nothing else may
escape.  A few inputs also go through the CLI, which must exit 1 with no
traceback.
"""

import json

import numpy as np
import pytest

from mixssm.cli import main
from mixssm.config import parse_config
from mixssm.data import decode_ppm
from mixssm.errors import CheckpointError, ConfigError, DataError
from mixssm.network import Model, ModelConfig, load_checkpoint, save_checkpoint

PARSER_ERRORS = (CheckpointError, DataError, ConfigError)
TYPE_SWAPS = ("null", "true", "1.5", '"x"', "[]", "{}", "1e400")
RUN_CONFIG = {
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
MODEL_KEYS = [k for k in RUN_CONFIG if k not in ("epochs", "batch_size", "lr")]


def outcome(label, parse, data):
    """'loaded' or 'refused'; any other exception fails the test with ``label``."""
    try:
        parse(data)
    except PARSER_ERRORS:
        return "refused"
    except Exception as exc:  # noqa: BLE001 - the point is to catch what escapes
        pytest.fail(f"{label}: {type(exc).__name__}: {exc}")
    return "loaded"


def flips(rng, blob, lo, hi, count):
    """``count`` copies of ``blob``, each with one byte in [lo, hi) XORed."""
    for _ in range(count):
        pos = int(rng.integers(lo, hi))
        mutated = bytearray(blob)
        mutated[pos] ^= int(rng.integers(1, 256))
        yield pos, bytes(mutated)


def with_swapped_field(config, key, literal):
    """JSON text of ``config`` with ``key``'s value replaced by a raw literal."""
    return json.dumps({**config, key: "@SWAP@"}).replace('"@SWAP@"', literal)


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "micro.ckpt"
    config = {k: RUN_CONFIG[k] for k in MODEL_KEYS}
    save_checkpoint(Model(ModelConfig(**config)), str(path))
    blob = path.read_bytes()
    return blob, 16 + int.from_bytes(blob[8:16], "little")


def _load_bytes(tmp_path):
    path = tmp_path / "mutated.ckpt"

    def load(blob):
        path.write_bytes(blob)
        load_checkpoint(str(path))

    return load


def test_checkpoint_truncated_at_every_header_byte_is_refused(checkpoint, tmp_path):
    blob, header_end = checkpoint
    load = _load_bytes(tmp_path)
    for n in range(header_end + 1):
        assert outcome(f"truncated at {n}", load, blob[:n]) == "refused", n


def test_checkpoint_byte_flips_load_or_are_refused(checkpoint, tmp_path):
    blob, header_end = checkpoint
    load = _load_bytes(tmp_path)
    rng = np.random.default_rng(8)
    for pos, mutated in flips(rng, blob, 0, header_end, 200):
        outcome(f"header flip at {pos}", load, mutated)
    for pos, mutated in flips(rng, blob, header_end, len(blob), 20):
        outcome(f"payload flip at {pos}", load, mutated)


def test_checkpoint_config_type_swaps_load_or_are_refused(checkpoint, tmp_path):
    blob, header_end = checkpoint
    header = json.loads(blob[16:header_end])
    load = _load_bytes(tmp_path)
    for key in MODEL_KEYS:
        for literal in TYPE_SWAPS:
            text = json.dumps({**header, "config": "@CONFIG@"}).replace(
                '"@CONFIG@"', with_swapped_field(header["config"], key, literal)
            ).encode()
            mutated = blob[:8] + len(text).to_bytes(8, "little") + text + blob[header_end:]
            outcome(f"config {key}={literal}", load, mutated)


def test_ppm_truncations_and_header_flips_load_or_are_refused():
    rng = np.random.default_rng(9)
    blob = b"P6\n# fuzz\n4 3\n255\n" + rng.integers(0, 256, 36, dtype=np.uint8).tobytes()
    header_end = len(blob) - 36
    assert decode_ppm(blob).shape == (3, 4, 3)
    for n in range(len(blob)):
        assert outcome(f"truncated at {n}", decode_ppm, blob[:n]) == "refused", n
    for pos, mutated in flips(rng, blob, 0, header_end, 400):
        outcome(f"header flip at {pos}", decode_ppm, mutated)


def test_run_config_type_swaps_load_or_are_refused():
    parse_config(json.dumps(RUN_CONFIG))
    for key in RUN_CONFIG:
        for literal in TYPE_SWAPS:
            outcome(f"{key}={literal}", parse_config, with_swapped_field(RUN_CONFIG, key, literal))


def test_cli_exits_1_without_traceback_on_fuzzed_inputs(checkpoint, tmp_path, capsys):
    blob, header_end = checkpoint
    ckpts = {
        "truncated_header": blob[: header_end // 2],
        "flipped_magic": bytes([blob[0] ^ 1]) + blob[1:],
        "truncated_payload": blob[:-3],
    }
    config = tmp_path / "swapped.json"
    config.write_text(with_swapped_field(RUN_CONFIG, "depths", "1e400"))
    commands = [["emit-config", "--config", str(config)]]
    for name, mutated in ckpts.items():
        (tmp_path / name).write_bytes(mutated)
        commands.append(["inspect", "--ckpt", str(tmp_path / name)])
    for command in commands:
        capsys.readouterr()
        assert main(command) == 1, command
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err, (command, err)
