"""Dataset plumbing: P6 PPM codec, image-folder loader, synthetic generator.

The on-disk layout is one subdirectory per class containing PPM images.
Class indices follow the sorted directory names and files load in sorted
order, so datasets are independent of filesystem enumeration order.

The synthetic generator draws a class-specific low-contrast shape over a
seeded noise texture, a stand-in for camouflaged subjects; the same seed
produces byte-identical files.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import DataError

__all__ = [
    "IMAGE_CHANNELS",
    "Dataset",
    "decode_ppm",
    "write_ppm",
    "bilinear_resize",
    "load_image_folder",
    "generate_synthetic",
    "SHAPE_FAMILIES",
]

# P6 pixels are RGB: the one image width the codec, generator and model use
IMAGE_CHANNELS = 3


@dataclass
class Dataset:
    images: np.ndarray  # (N, H, W, IMAGE_CHANNELS) float32, normalized
    labels: np.ndarray  # (N,) int64
    class_names: list[str]

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def num_classes(self) -> int:
        return len(self.class_names)


# -- PPM codec ----------------------------------------------------------------


def _ppm_tokens(raw: bytes, count: int, path: str) -> tuple[list[bytes], int]:
    """Read ``count`` whitespace/comment-separated header tokens, return end offset."""
    tokens: list[bytes] = []
    i = 0
    while len(tokens) < count:
        if i >= len(raw):
            raise DataError(f"{path}: truncated PPM header")
        ch = raw[i : i + 1]
        if ch == b"#":
            while i < len(raw) and raw[i : i + 1] != b"\n":
                i += 1
        elif ch.isspace():
            i += 1
        else:
            start = i
            while i < len(raw) and not raw[i : i + 1].isspace() and raw[i : i + 1] != b"#":
                i += 1
            tokens.append(raw[start:i])
    return tokens, i


def decode_ppm(raw: bytes, path: str = "<bytes>") -> np.ndarray:
    """Decode binary P6 data to a (H, W, IMAGE_CHANNELS) uint8 array."""
    tokens, end = _ppm_tokens(raw, 4, path)
    if tokens[0] != b"P6":
        raise DataError(f"{path}: not a binary P6 PPM file")
    try:
        width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    except ValueError as exc:
        raise DataError(f"{path}: malformed PPM header") from exc
    if width < 1 or height < 1:
        raise DataError(f"{path}: bad PPM dimensions {width}x{height}")
    if not 0 < maxval < 256:
        raise DataError(f"{path}: unsupported PPM max value {maxval} (8-bit only)")
    if not raw[end : end + 1].isspace():
        raise DataError(f"{path}: PPM max value is not followed by a whitespace byte")
    pixels = raw[end + 1 :]
    need = width * height * IMAGE_CHANNELS
    if len(pixels) < need:
        raise DataError(f"{path}: PPM payload has {len(pixels)} bytes, needs {need}")
    img = np.frombuffer(pixels[:need], dtype=np.uint8).reshape(height, width, IMAGE_CHANNELS)
    if maxval != 255:
        if img.max() > maxval:
            raise DataError(f"{path}: PPM sample {img.max()} exceeds max value {maxval}")
        img = np.round(img.astype(np.float64) * (255.0 / maxval)).astype(np.uint8)
    return img


def write_ppm(path: str, img: np.ndarray) -> None:
    if img.ndim != 3 or img.shape[2] != IMAGE_CHANNELS or img.dtype != np.uint8:
        raise DataError(f"write_ppm needs (H, W, {IMAGE_CHANNELS}) uint8, got {img.shape} {img.dtype}")
    with open(path, "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (img.shape[1], img.shape[0]))
        fh.write(np.ascontiguousarray(img).tobytes())


# -- resizing and loading -----------------------------------------------------


def bilinear_resize(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resample with half-pixel centers, into a new array.

    At equal sizes every output pixel takes weight 1 at its own source pixel
    and 0 at the neighbour, so the result equals the input bitwise.
    """
    h, w = img.shape[:2]
    ys = (np.arange(out_h) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w) + 0.5) * (w / out_w) - 0.5
    y0 = np.clip(np.floor(ys), 0, h - 1).astype(np.int64)
    x0 = np.clip(np.floor(xs), 0, w - 1).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = np.clip(ys - y0, 0.0, 1.0)[:, None, None]
    wx = np.clip(xs - x0, 0.0, 1.0)[None, :, None]
    # one (rows, columns) gather per corner keeps the result C-contiguous
    y0, y1 = y0[:, None], y1[:, None]
    top = img[y0, x0] * (1 - wx) + img[y0, x1] * wx
    bottom = img[y1, x0] * (1 - wx) + img[y1, x1] * wx
    return top * (1 - wy) + bottom * wy


def load_image_folder(root: str, target_size: tuple[int, int]) -> Dataset:
    """Load <root>/<class>/<file>.ppm into a normalized float32 dataset.

    Pixels are scaled to [0, 1], bilinearly resized to ``target_size``, an
    (H, W) pair such as ``ModelConfig.input_size``, and normalized to
    (x - 0.5) / 0.5 per channel.
    """
    if not os.path.isdir(root):
        raise DataError(f"dataset root {root} is not a directory")
    class_names = sorted(
        d for d in os.listdir(root) if os.path.isdir(os.path.join(root, d))
    )
    if not class_names:
        raise DataError(f"dataset root {root} contains no class directories")
    images: list[np.ndarray] = []
    labels: list[int] = []
    for label, name in enumerate(class_names):
        class_dir = os.path.join(root, name)
        files = sorted(
            f for f in os.listdir(class_dir) if os.path.isfile(os.path.join(class_dir, f))
        )
        if not files:
            raise DataError(f"class directory {class_dir} is empty")
        for fname in files:
            fpath = os.path.join(class_dir, fname)
            with open(fpath, "rb") as fh:
                img = decode_ppm(fh.read(), fpath).astype(np.float64) / 255.0
            img = bilinear_resize(img, *target_size)
            images.append(((img - 0.5) / 0.5).astype(np.float32))
            labels.append(label)
    return Dataset(
        images=np.stack(images),
        labels=np.asarray(labels, dtype=np.int64),
        class_names=class_names,
    )


# -- synthetic camouflage-style data -------------------------------------------


def _mask_disk(yy, xx, cy, cx, r):
    return (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r


def _mask_bar(yy, xx, cy, cx, r):
    return (np.abs(yy - cy) <= 0.35 * r) & (np.abs(xx - cx) <= r)


def _mask_cross(yy, xx, cy, cx, r):
    horiz = (np.abs(yy - cy) <= 0.3 * r) & (np.abs(xx - cx) <= r)
    vert = (np.abs(xx - cx) <= 0.3 * r) & (np.abs(yy - cy) <= r)
    return horiz | vert


def _mask_ring(yy, xx, cy, cx, r):
    d2 = (yy - cy) ** 2 + (xx - cx) ** 2
    return (d2 <= r * r) & (d2 >= (0.55 * r) ** 2)


def _mask_tri(yy, xx, cy, cx, r):
    rel = yy - (cy - r)
    return (rel >= 0) & (rel <= 2 * r) & (np.abs(xx - cx) <= rel * 0.5)


def _mask_checker(yy, xx, cy, cx, r):
    disk = _mask_disk(yy, xx, cy, cx, r)
    cells = ((yy // 3) + (xx // 3)) % 2 == 0
    return disk & cells

SHAPE_FAMILIES = (
    ("disk", _mask_disk),
    ("bar", _mask_bar),
    ("cross", _mask_cross),
    ("ring", _mask_ring),
    ("tri", _mask_tri),
    ("checker", _mask_checker),
)


def generate_synthetic(
    root: str, classes: int, per_class: int, size: int = 32, seed: int = 0
) -> list[str]:
    """Write a PPM image-folder dataset of shape-family classes under ``root``.

    Returns the class directory names.  Identical seeds produce
    byte-identical trees.
    """
    if classes < 2 or classes > len(SHAPE_FAMILIES):
        raise ValueError(
            f"classes must be between 2 and {len(SHAPE_FAMILIES)} shape families, got {classes}"
        )
    if per_class < 1:
        raise ValueError(f"per_class must be positive, got {per_class}")
    if size < 8:
        raise ValueError(f"size must be at least 8, got {size}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    os.makedirs(root, exist_ok=True)
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    names = []
    for class_index, (name, mask_fn) in enumerate(SHAPE_FAMILIES[:classes]):
        class_dir = os.path.join(root, name)
        os.makedirs(class_dir, exist_ok=True)
        names.append(name)
        for i in range(per_class):
            rng = np.random.default_rng(np.random.SeedSequence([seed, class_index, i]))
            background = rng.uniform(0.25, 0.75, size=(size, size, IMAGE_CHANNELS))
            cy, cx = rng.uniform(0.32, 0.68, size=2) * size
            radius = rng.uniform(0.2, 0.3) * size
            mask = mask_fn(yy, xx, cy, cx, radius)
            img = np.clip(background + 0.25 * mask[:, :, None], 0.0, 1.0)
            write_ppm(
                os.path.join(class_dir, f"img_{i:04d}.ppm"),
                np.round(img * 255.0).astype(np.uint8),
            )
    return names
