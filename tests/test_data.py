"""Dataset plumbing tests: PPM codec, folder loading, resize, synthesis."""

import hashlib
import os

import numpy as np
import pytest

from mixssm.data import (
    SHAPE_FAMILIES,
    bilinear_resize,
    decode_ppm,
    generate_synthetic,
    load_image_folder,
    write_ppm,
)
from mixssm.errors import DataError


def make_ppm_bytes(pixels, maxval=255):
    h, w, _ = pixels.shape
    return b"P6\n%d %d\n%d\n" % (w, h, maxval) + pixels.astype(np.uint8).tobytes()


def test_decode_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, size=(5, 7, 3)).astype(np.uint8)
    path = str(tmp_path / "img.ppm")
    write_ppm(path, img)
    assert np.array_equal(decode_ppm(open(path, "rb").read(), path), img)


def test_decode_ppm_handles_comments_and_whitespace():
    img = np.arange(12, dtype=np.uint8).reshape(2, 2, 3)
    raw = b"P6 # binary pixmap\n# a comment line\n 2\t2 \n255\n" + img.tobytes()
    assert np.array_equal(decode_ppm(raw), img)


def test_decode_ppm_rescales_small_maxval():
    img = np.array([[[100, 0, 40]]], dtype=np.uint8)
    out = decode_ppm(make_ppm_bytes(img, maxval=100))
    assert out[0, 0, 0] == 255 and out[0, 0, 2] == 102


def test_decode_ppm_rejects_bad_inputs():
    with pytest.raises(DataError, match="P6"):
        decode_ppm(b"P3\n1 1\n255\n0 0 0")
    with pytest.raises(DataError, match="P6"):
        decode_ppm(b"P6x 1 1 255\n\x01\x02\x03")
    with pytest.raises(DataError, match="payload"):
        decode_ppm(b"P6\n2 2\n255\n" + b"\x00" * 5)
    with pytest.raises(DataError, match="max value"):
        decode_ppm(b"P6\n1 1\n65535\n" + b"\x00" * 6)
    # 200 > maxval 100: rescaled by 2.55 it would wrap in uint8 to 254
    with pytest.raises(DataError, match="exceeds max value 100"):
        decode_ppm(b"P6\n1 1\n100\n" + bytes([200, 0, 0]))
    # the byte after the max value must be whitespace, not the start of a comment
    with pytest.raises(DataError, match="whitespace"):
        decode_ppm(b"P6 1 1 255#\x01\x02\x03")


def test_loader_pixel_values_from_known_fixture(tmp_path):
    pixels = np.array(
        [[[0, 128, 255], [10, 20, 30]], [[200, 100, 50], [255, 255, 0]]], dtype=np.uint8
    )
    cls = tmp_path / "only"
    cls.mkdir()
    (cls / "img.ppm").write_bytes(make_ppm_bytes(pixels))
    ds = load_image_folder(str(tmp_path), (2, 2))
    want = ((pixels.astype(np.float64) / 255.0 - 0.5) / 0.5).astype(np.float32)
    assert np.array_equal(ds.images[0], want)


def test_loader_assigns_labels_by_sorted_directory_name(tmp_path):
    img = make_ppm_bytes(np.zeros((2, 2, 3), dtype=np.uint8))
    for name in ("bee", "ant"):
        d = tmp_path / name
        d.mkdir()
        (d / "x.ppm").write_bytes(img)
    ds = load_image_folder(str(tmp_path), (2, 2))
    assert ds.class_names == ["ant", "bee"]
    assert ds.labels.tolist() == [0, 1]


def test_loader_errors_name_the_offending_file(tmp_path):
    d = tmp_path / "cls"
    d.mkdir()
    (d / "broken.ppm").write_bytes(b"not an image at all")
    with pytest.raises(DataError, match="broken.ppm"):
        load_image_folder(str(tmp_path), (4, 4))


def test_loader_rejects_empty_class_dir(tmp_path):
    (tmp_path / "empty").mkdir()
    with pytest.raises(DataError, match="empty"):
        load_image_folder(str(tmp_path), (4, 4))


def test_loader_rejects_missing_root(tmp_path):
    with pytest.raises(DataError):
        load_image_folder(str(tmp_path / "nope"), (4, 4))


# -- resizing ---------------------------------------------------------------------


def test_resize_constant_image_stays_constant():
    img = np.full((5, 7, 3), 0.625)
    out = bilinear_resize(img, 11, 3)
    assert np.allclose(out, 0.625)


def test_resize_same_size_is_identity():
    rng = np.random.default_rng(1)
    img = rng.random((4, 6, 3))
    assert np.array_equal(bilinear_resize(img, 4, 6), img)


def test_resize_1x2_to_1x4_half_pixel_centers():
    a, b = 0.2, 0.8
    img = np.array([[[a], [b]]])
    out = bilinear_resize(img, 1, 4)[0, :, 0]
    want = [a, 0.75 * a + 0.25 * b, 0.25 * a + 0.75 * b, b]
    assert np.allclose(out, want)


# -- synthetic generator ------------------------------------------------------------


def tree_digest(root):
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for name in sorted(filenames):
            digest.update(name.encode())
            digest.update(open(os.path.join(dirpath, name), "rb").read())
    return digest.hexdigest()


def test_synthetic_generation_is_byte_deterministic(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    generate_synthetic(a, classes=4, per_class=3, size=16, seed=5)
    generate_synthetic(b, classes=4, per_class=3, size=16, seed=5)
    assert tree_digest(a) == tree_digest(b)
    c = str(tmp_path / "c")
    generate_synthetic(c, classes=4, per_class=3, size=16, seed=6)
    assert tree_digest(a) != tree_digest(c)


def test_synthetic_counts_and_layout(tmp_path):
    root = str(tmp_path / "data")
    names = generate_synthetic(root, classes=4, per_class=16, size=32, seed=0)
    assert len(names) == 4
    files = [f for _, _, fs in os.walk(root) for f in fs]
    assert len(files) == 64
    ds = load_image_folder(root, (32, 32))
    assert len(ds) == 64 and ds.num_classes == 4
    assert ds.images.shape == (64, 32, 32, 3)
    # a training batch's gather is then its only copy
    assert ds.images.flags.c_contiguous


def test_synthetic_rejects_bad_arguments(tmp_path):
    with pytest.raises(ValueError):
        generate_synthetic(str(tmp_path / "x"), classes=4, per_class=0)
    with pytest.raises(ValueError):
        generate_synthetic(str(tmp_path / "y"), classes=len(SHAPE_FAMILIES) + 1, per_class=1)
    with pytest.raises(ValueError):
        generate_synthetic(str(tmp_path / "z"), classes=1, per_class=1)
