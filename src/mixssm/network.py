"""Hierarchical classifier: patch embedding, mixing blocks, patch merging,
classifier head, and the binary checkpoint format.

The stage plan halves the grid and doubles the channels and the attention
heads between stages, so a default 224x224x3 input flows 56x56xC ->
28x28x2C -> 14x14x4C -> 7x7x8C before the head.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from .data import IMAGE_CHANNELS
from .encoders import AttentionBranch, ChannelMlpBranch, ConvBranch, SsmBranch
from .errors import CheckpointError, ConfigError, ShapeError
from .fusion import AGGREGATION_MODES, KERNEL_SIZES, POOLING_METHODS, SelectiveFusion, selective_module
from .modules import _UNDRAWN, LayerNorm, Module, trunc_normal
from .tensor import Tensor, add, matmul, reduce_mean, reshape, softmax, transpose

__all__ = [
    "BRANCH_NAMES",
    "ModelConfig",
    "desk_config",
    "Model",
    "MixSsmBlock",
    "PatchEmbed",
    "PatchMerging",
    "space_to_depth",
    "save_checkpoint",
    "load_checkpoint",
    "config_from_dict",
]

BRANCH_NAMES = ("ssm", "conv", "mlp", "msa")

CHECKPOINT_MAGIC = b"MIXSSM01"
CHECKPOINT_VERSION = 3


@dataclass(frozen=True)
class ModelConfig:
    """Complete architectural description of one model, and the one statement
    of its rules: the modules a model is built from do not check them again.
    ``channels`` and ``heads`` are the first stage's width and head count;
    stage i uses ``channels * 2**i`` and ``heads * 2**i``."""

    input_size: tuple[int, int] = (224, 224)
    patch_size: int = 4
    depths: tuple[int, ...] = (2, 2, 4, 2)
    channels: int = 32
    branches: tuple[str, ...] = BRANCH_NAMES
    heads: int = 2
    state_dim: int = 8
    kernel_size: int = 3
    pooling: str = "average"
    aggregation: str = "selective"
    reduction: int = 4
    num_classes: int = 10
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        unknown = sorted(set(self.branches) - set(BRANCH_NAMES))
        if unknown:
            raise ConfigError(f"unknown branches {unknown}; expected a subset of {BRANCH_NAMES}")
        object.__setattr__(self, "input_size", tuple(self.input_size))
        object.__setattr__(self, "depths", tuple(self.depths))
        object.__setattr__(
            self, "branches", tuple(b for b in BRANCH_NAMES if b in set(self.branches))
        )
        self.validate()

    def validate(self) -> None:
        for name in ("input_size", "patch_size", "depths", "channels", "heads", "reduction", "state_dim"):
            value = getattr(self, name)
            if min(value if isinstance(value, tuple) else (value,), default=1) < 1:
                raise ConfigError(f"{name} must be positive, got {value}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        h, w = self.input_size
        stages = len(self.depths)
        if stages < 1:
            raise ConfigError("need at least one stage")
        if h % self.patch_size or w % self.patch_size:
            raise ConfigError(
                f"input {h}x{w} is not divisible by patch size {self.patch_size}"
            )
        hs, ws = h // self.patch_size, w // self.patch_size
        halvings = 2 ** (stages - 1)
        if hs % halvings or ws % halvings:
            raise ConfigError(
                f"embedded grid {hs}x{ws} is not divisible by 2^(stages-1) = {halvings}"
            )
        if not self.branches:
            raise ConfigError("at least one branch must be enabled")
        # each stage doubles both, so dividing the first stage's width suffices
        for name in ("heads", "reduction"):
            if self.channels % getattr(self, name):
                raise ConfigError(f"{name} {getattr(self, name)} must divide channels {self.channels}")
        if self.kernel_size not in KERNEL_SIZES:
            raise ConfigError(f"selective kernel size must be one of {KERNEL_SIZES}, got {self.kernel_size}")
        if self.pooling not in POOLING_METHODS:
            raise ConfigError(f"unknown pooling {self.pooling!r}")
        if self.aggregation not in AGGREGATION_MODES:
            raise ConfigError(f"unknown aggregation {self.aggregation!r}")
        if self.num_classes < 2:
            raise ConfigError(f"need at least two classes, got {self.num_classes}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_list_of(check):
    return lambda value: isinstance(value, (list, tuple)) and all(map(check, value))


# JSON type of each annotation a config field carries: (description, check)
_FIELD_TYPES = {
    "int": ("an integer", _is_int),
    "float": ("a number", lambda v: _is_int(v) or isinstance(v, float)),
    "str": ("a string", lambda v: isinstance(v, str)),
    "tuple[int, int]": ("a list of two integers", lambda v: _is_list_of(_is_int)(v) and len(v) == 2),
    "tuple[int, ...]": ("a list of integers", _is_list_of(_is_int)),
    "tuple[str, ...]": ("a list of strings", _is_list_of(lambda v: isinstance(v, str))),
    "ModelConfig": ("a model config", lambda v: isinstance(v, ModelConfig)),
}


def check_field_types(config) -> None:
    """Raise :class:`ConfigError` unless each field of a config dataclass holds
    the JSON type its annotation names.  Called before any normalization, so
    ``"branches": "ssm"`` is refused instead of read as a set of characters."""
    for f in dataclasses.fields(config):
        want, check = _FIELD_TYPES[f.type]
        value = getattr(config, f.name)
        if not check(value):
            raise ConfigError(f"{f.name} must be {want}, got {value!r}")


def desk_config(num_classes: int = 4, seed: int = 0) -> ModelConfig:
    """Laptop-scale configuration used by the smoke runs and sweeps: 32x32 input,
    four stages 16, 32, 64 and 128 channels wide.  Its last stage
    scans one token, whose output does not depend on the decay, so that stage's
    ``a_log`` (A = -exp(a_log)) truly gets no gradient and keeps its initial values."""
    return ModelConfig(
        input_size=(32, 32),
        depths=(1, 1, 2, 1),
        channels=16,
        num_classes=num_classes,
        seed=seed,
    )


def config_from_dict(data: dict) -> ModelConfig:
    known = {f.name for f in dataclasses.fields(ModelConfig)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return ModelConfig(**data)


def space_to_depth(x: Tensor, p: int) -> Tensor:
    """Regroup (..., H, W, C) into its non-overlapping p x p patches,
    (..., H/p, W/p, p*p*C), each flattened in (row in patch, column in patch,
    channel) order.  Raises :class:`ShapeError` unless ``x`` has row, column
    and channel axes and p divides H and W."""
    if x.ndim < 3:
        raise ShapeError(f"space_to_depth expects (..., H, W, C), got {x.shape}")
    *lead, h, w, c = x.shape
    grouped = reshape(x, (*lead, h // p, p, w // p, p, c))
    return reshape(transpose(grouped, (0, 2, 1, 3, 4)), (*lead, h // p, w // p, p * p * c))


class PatchEmbed(Module):
    """Non-overlapping p x p patches, each projected to C channels, plus layer norm.

    The projection is ``kernel`` (p, p, C_in, C) read as a (p*p*C_in, C)
    matrix over :func:`space_to_depth` patches, so it equals a stride-p
    convolution with that kernel and keeps its checkpoint layout.
    """

    def __init__(self, patch_size: int, in_channels: int, channels: int, rng, dtype):
        self.kernel = Tensor(
            trunc_normal(rng, (patch_size, patch_size, in_channels, channels), dtype=dtype),
            requires_grad=True,
        )
        self.bias = Tensor(np.zeros(channels, dtype=dtype), requires_grad=True)
        self.norm = LayerNorm(channels, dtype=dtype)
        self.patch_size = patch_size

    def __call__(self, x: Tensor) -> Tensor:
        weight = reshape(self.kernel, (-1, self.kernel.shape[-1]))
        patches = space_to_depth(x, self.patch_size)
        return self.norm(add(matmul(patches, weight), self.bias))


class PatchMerging(Module):
    """2x2 neighborhood concat, layer norm, linear projection to 2C."""

    def __init__(self, channels: int, rng, dtype):
        self.norm = LayerNorm(4 * channels, dtype=dtype)
        self.reduction = Tensor(
            trunc_normal(rng, (4 * channels, 2 * channels), dtype=dtype), requires_grad=True
        )

    def __call__(self, x: Tensor) -> Tensor:
        return matmul(self.norm(space_to_depth(x, 2)), self.reduction)


class MixSsmBlock(Module):
    """Pre-norm residual block running the enabled branches in parallel.

    With a single enabled branch the fusion weights are identically one and
    the block degenerates to v + branch(norm(v)).
    """

    def __init__(
        self,
        channels: int,
        heads: int,
        branches: tuple[str, ...],
        state_dim: int,
        kernel_size: int,
        pooling: str,
        aggregation: str,
        reduction: int,
        rng,
        dtype,
        ssm_shared_directions: bool = True,
    ):
        # accepted only because bench/workloads.py still passes it; the four
        # scan directions always share one set of projections
        if ssm_shared_directions is not True:
            raise ValueError(f"ssm_shared_directions must be True, got {ssm_shared_directions!r}")
        self.branch_order = tuple(b for b in BRANCH_NAMES if b in branches)
        self.norm = LayerNorm(channels, dtype=dtype)
        build = {
            "ssm": lambda: SsmBranch(channels, state_dim, rng=rng, dtype=dtype),
            "conv": lambda: ConvBranch(channels, rng=rng, dtype=dtype),
            "mlp": lambda: ChannelMlpBranch(channels, rng=rng, dtype=dtype),
            "msa": lambda: AttentionBranch(channels, heads, rng=rng, dtype=dtype),
        }
        # built in BRANCH_NAMES order, so the rng draws and parameter names are fixed
        for name in BRANCH_NAMES:
            setattr(self, name, build[name]() if name in self.branch_order else None)
        self.fusion = SelectiveFusion(
            channels,
            n=len(self.branch_order),
            reduction=reduction,
            kernel_size=kernel_size,
            pooling=pooling,
            mode=aggregation,
            rng=rng,
            dtype=dtype,
        )

    def __call__(self, v: Tensor, rng=None) -> Tensor:
        u = self.norm(v)
        outputs = [getattr(self, name)(u) for name in self.branch_order]
        return add(v, selective_module(outputs, self.fusion, rng=rng))


class Stage(Module):
    def __init__(self, blocks: list[MixSsmBlock], merge: PatchMerging | None):
        self.blocks = blocks
        self.merge = merge

    def __call__(self, x: Tensor, rng=None) -> Tensor:
        for block in self.blocks:
            x = block(x, rng=rng)
        if self.merge is not None:
            x = self.merge(x)
        return x


class Model(Module):
    """The assembled classifier, in float32."""

    def __init__(self, config: ModelConfig):
        self.config = config
        self.dtype = np.dtype(np.float32)
        rng = np.random.default_rng(np.random.SeedSequence(config.seed))

        self.patch_embed = PatchEmbed(
            config.patch_size, IMAGE_CHANNELS, config.channels, rng, self.dtype
        )
        stages = []
        for i, depth in enumerate(config.depths):
            channels, heads = config.channels * 2**i, config.heads * 2**i
            blocks = [
                MixSsmBlock(
                    channels,
                    heads,
                    config.branches,
                    config.state_dim,
                    config.kernel_size,
                    config.pooling,
                    config.aggregation,
                    config.reduction,
                    rng,
                    self.dtype,
                )
                for _ in range(depth)
            ]
            merge = PatchMerging(channels, rng, self.dtype) if i + 1 < len(config.depths) else None
            stages.append(Stage(blocks, merge))
        self.stages = stages
        # channels is now the last stage's width
        self.final_norm = LayerNorm(channels, dtype=self.dtype)
        self.head_weight = Tensor(
            trunc_normal(rng, (channels, config.num_classes), dtype=self.dtype),
            requires_grad=True,
        )
        self.head_bias = Tensor(np.zeros(config.num_classes, dtype=self.dtype), requires_grad=True)

    def _check_input(self, images: Tensor) -> Tensor:
        """Check the trailing (H, W, C) and cast to the model's precision;
        the one place an input is cast."""
        expected = (*self.config.input_size, IMAGE_CHANNELS)
        if images.shape[-3:] != expected:
            raise ShapeError(
                f"input image shape {images.shape[-3:]} does not match configured {expected}"
            )
        if images.dtype != self.dtype:
            images = Tensor(images.data.astype(self.dtype), requires_grad=images.requires_grad)
        return images

    def forward_classify(self, images: Tensor, rng=None) -> Tensor:
        """Class probability vector(s): (..., num_classes), rows sum to one.

        ``images`` is (..., H, W, C) in either precision; float64 input is
        cast to float32 first.

        ``rng`` is used only by stochastic pooling, which samples with it and
        takes the expectation without it; every other model is deterministic
        and ignores it.
        """
        x = self.patch_embed(self._check_input(images))
        for stage in self.stages:
            x = stage(x, rng=rng)
        x = self.final_norm(x)
        pooled = reduce_mean(x, axis=(-3, -2))
        lead = pooled.shape[:-1]
        flat = reshape(pooled, (*lead, 1, pooled.shape[-1]))
        logits = add(matmul(flat, self.head_weight), self.head_bias)
        logits = reshape(logits, (*lead, self.config.num_classes))
        return softmax(logits, axis=-1)


# -- checkpoint persistence ---------------------------------------------------


def _directory(model: Model) -> list[dict]:
    """The checkpoint's tensor directory: each parameter's name, shape, payload
    byte offset and element count, back to back in ``named_parameters()`` order."""
    entries, offset = [], 0
    for name, p in model.named_parameters():
        entries.append({"name": name, "shape": list(p.shape), "offset": offset, "length": p.size})
        offset += 4 * p.size
    return entries


def save_checkpoint(model: Model, path: str) -> None:
    """Write magic, 8-byte LE header length, JSON header, then <f4 payload."""
    fields = {"version": CHECKPOINT_VERSION, "config": dataclasses.asdict(model.config)}
    header = json.dumps({**fields, "tensors": _directory(model)}, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(len(header).to_bytes(8, "little"))
        fh.write(header)
        for p in model.parameters():
            fh.write(np.ascontiguousarray(p.data, dtype="<f4"))


def load_checkpoint(path: str) -> Model:
    """Rebuild a model from a checkpoint, bit-exactly.

    The header's config must pass :class:`ModelConfig`, and its tensor
    directory must be, as JSON, exactly the one :func:`save_checkpoint`
    writes for that config.  Every way the file can be malformed
    (unreadable, bad magic or version, any other directory, payload bytes
    missing or left over, non-finite values) raises :class:`CheckpointError`.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot read checkpoint: {exc}") from exc
    if len(raw) < len(CHECKPOINT_MAGIC) + 8 or raw[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a checkpoint file")
    header_len = int.from_bytes(raw[8:16], "little")
    if len(raw) - 16 < header_len:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(raw[16 : 16 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: unreadable header: {exc}") from exc
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    if header.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported version {header.get('version')!r}")
    try:
        config = config_from_dict(header["config"])
        entries = header["tensors"]
    except (KeyError, TypeError, ConfigError) as exc:
        raise CheckpointError(f"{path}: malformed header: {exc}") from exc

    undrawn = _UNDRAWN.set(True)  # the payload below replaces every initial weight
    try:
        model = Model(config)
    finally:
        _UNDRAWN.reset(undrawn)
    directory = _directory(model)
    # compared as JSON text, so true or 1.0 never passes for an integer
    if json.dumps(entries, sort_keys=True) != json.dumps(directory, sort_keys=True):
        raise CheckpointError(
            f"{path}: tensor directory does not match its config's names, shapes, offsets and lengths"
        )
    # a view, not a copy, of the tensor bytes
    payload = memoryview(raw)[16 + header_len :]
    size = 4 * sum(entry["length"] for entry in directory)
    if len(payload) < size:
        raise CheckpointError(f"{path}: truncated payload, {size - len(payload)} bytes short")
    if len(payload) > size:
        raise CheckpointError(f"{path}: {len(payload) - size} payload bytes after the last tensor")
    for entry, target in zip(directory, model.parameters()):
        values = np.frombuffer(payload, "<f4", count=entry["length"], offset=entry["offset"])
        if not np.isfinite(values).all():
            raise CheckpointError(f"{path}: tensor {entry['name']} holds non-finite values")
        # a writable copy: the file's bytes are a read-only buffer
        target.data = values.reshape(target.shape).astype(model.dtype)
    return model
