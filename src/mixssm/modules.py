"""Parameter containers: a minimal module base, layer norm, initializers."""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .tensor import Tensor, layer_norm

__all__ = ["Module", "LayerNorm", "trunc_normal"]


def trunc_normal(rng: np.random.Generator, shape, dtype=np.float32) -> np.ndarray:
    """Normal(0, 0.02) truncated to two standard deviations, by resampling."""
    std = 0.02
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2.0 * std
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2.0 * std
    return out.astype(dtype)


class Module:
    """Base for anything owning parameters.

    Parameters are discovered by walking attributes in definition order, so
    names are stable across runs for a fixed architecture.
    """

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        for name, value in vars(self).items():
            if isinstance(value, Tensor):
                if value.requires_grad:
                    yield prefix + name, value
            elif isinstance(value, Module):
                yield from value.named_parameters(f"{prefix}{name}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(f"{prefix}{name}.{i}.")

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def parameter_count(self) -> int:
        return sum(p.size for p in self.parameters())

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None


class LayerNorm(Module):
    """Channel-axis normalization with learnable scale and shift."""

    def __init__(self, channels: int, dtype=np.float32):
        self.gamma = Tensor(np.ones(channels, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(channels, dtype=dtype), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gamma, self.beta)
