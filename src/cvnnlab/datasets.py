"""Dataset ingestion: IDX image files and synthetic data.

IDX is the big-endian binary format of the classic digit benchmarks:
a 4-byte magic (0x00000803 for images, 0x00000801 for labels), 4-byte
dimension fields, then the unsigned-byte payload.  Loading scales pixels
by 1/255 and keeps them real (float64): a real input is a complex input
with zero imaginary part, which the network's first weighted layer
multiplies without forming that part (see :mod:`cvnnlab.network`).

Synthetic regression data feeds the L2-loss theory path: inputs have
i.i.d. standard complex gaussian entries and targets come from a frozen
teacher network plus complex gaussian noise.  The glyph generator renders
a deterministic 10-class image task (smoothed class prototypes with
translation jitter and pixel noise) used where the real benchmarks are not
available; it emits plain uint8 images so the IDX writer can serve them
through the same pipeline.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .network import Network, forward

__all__ = [
    "Dataset",
    "IdxError",
    "IMAGE_MAGIC",
    "LABEL_MAGIC",
    "read_idx_images",
    "read_idx_labels",
    "load_idx",
    "write_idx_images",
    "write_idx_labels",
    "write_idx",
    "synthetic_regression",
    "subsample",
    "synthetic_glyphs",
]

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801


class IdxError(Exception):
    """An IDX file, or a pair of them, that does not read back as a dataset."""


@dataclass
class Dataset:
    """Inputs are real image pixels or complex vectors; image data keeps its
    (h, w, c) shape per sample."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.inputs)):
            raise ValueError("inputs must be finite")
        if len(self.inputs) != len(self.targets):
            raise ValueError("inputs and targets must align")

    @property
    def n(self) -> int:
        return len(self.inputs)

    @property
    def image_shape(self) -> tuple | None:
        """(h, w, c) of image data, None for vector data."""
        return self.inputs.shape[1:] if self.inputs.ndim == 4 else None


def _read_idx(path, magic: int, ndim: int) -> np.ndarray:
    """The uint8 payload of an IDX file, shaped by its ``ndim`` dimension fields."""
    with open(path, "rb") as fh:
        data = fh.read()
    header = 4 + 4 * ndim
    # the magic is checked as soon as its 4 bytes exist, before the dimensions
    if len(data) >= 4 and (found := struct.unpack_from(">I", data)[0]) != magic:
        raise IdxError(f"{path}: magic {found:#010x}, expected {magic:#010x}")
    if len(data) < header:
        raise IdxError(f"{path}: truncated header")
    shape = struct.unpack_from(f">{ndim}I", data, 4)
    expected = header + math.prod(shape)
    if len(data) < expected:
        raise IdxError(f"{path}: payload short by {expected - len(data)} bytes")
    if len(data) > expected:
        raise IdxError(f"{path}: {len(data) - expected} trailing bytes")
    return np.frombuffer(data, dtype=np.uint8, offset=header).reshape(shape).copy()


def read_idx_images(path) -> np.ndarray:
    """uint8 image array (count, rows, cols) from an IDX image file."""
    return _read_idx(path, IMAGE_MAGIC, 3)


def read_idx_labels(path) -> np.ndarray:
    """uint8 label vector (count,) from an IDX label file."""
    return _read_idx(path, LABEL_MAGIC, 1)


def load_idx(images_path, labels_path) -> Dataset:
    """Paired image/label IDX files as an image dataset.

    Inputs are real float64 pixels scaled by 1/255, shaped (n, h, w, 1).
    """
    images = read_idx_images(images_path)
    labels = read_idx_labels(labels_path)
    if images.shape[0] != labels.shape[0]:
        raise IdxError(f"{images.shape[0]} images vs {labels.shape[0]} labels")
    if images.shape[0] == 0:
        raise IdxError(f"{images_path}: no samples")
    pixels = images.astype(np.float64) / 255.0
    return Dataset(inputs=pixels[..., None], targets=labels.astype(np.int64))


def _write_idx(array, path, magic: int, ndim: int, shape_error: str) -> None:
    array = np.asarray(array, dtype=np.uint8)
    if array.ndim != ndim:
        raise ValueError(shape_error)
    with open(path, "wb") as fh:
        fh.write(struct.pack(f">I{ndim}I", magic, *array.shape))
        fh.write(array.tobytes())


def write_idx_images(images: np.ndarray, path) -> None:
    _write_idx(images, path, IMAGE_MAGIC, 3, "images must be (count, rows, cols)")


def write_idx_labels(labels: np.ndarray, path) -> None:
    _write_idx(labels, path, LABEL_MAGIC, 1, "labels must be 1-D")


def write_idx(ds: Dataset, images_path, labels_path) -> None:
    """Re-serialize a loaded image dataset; exact inverse of :func:`load_idx`."""
    if ds.image_shape is None:
        raise ValueError("dataset carries no image shape")
    pixels = np.rint(ds.inputs.real * 255.0).astype(np.uint8)
    h, w, _ = ds.image_shape
    write_idx_images(pixels.reshape(ds.n, h, w), images_path)
    write_idx_labels(ds.targets.astype(np.uint8), labels_path)


def synthetic_regression(n: int, d: int, teacher: Network, noise: float, seed: int) -> Dataset:
    """Teacher-generated regression data with standard complex gaussian inputs.

    Inputs have unit-variance complex entries (re and im each N(0, 1/2));
    targets are teacher outputs plus ``noise``-scaled complex gaussian noise.
    """
    if not noise >= 0:  # also nan
        raise ValueError("noise must be nonnegative")
    rng = np.random.default_rng(seed)
    scale = np.sqrt(0.5)
    z = scale * (rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d)))
    y = forward(teacher, z)
    if noise > 0:
        y = y + noise * scale * (
            rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape)
        )
    return Dataset(inputs=z, targets=y)


def subsample(ds: Dataset, n_keep: int, seed: int) -> Dataset:
    """Deterministic subsample; class-stratified when targets are labels.

    Per-class quotas follow largest-remainder apportionment, so every class
    count is within one sample of exact proportionality.
    """
    if n_keep > ds.n:
        raise ValueError(f"n_keep={n_keep} exceeds dataset size {ds.n}")
    rng = np.random.default_rng(seed)
    if np.issubdtype(ds.targets.dtype, np.integer):
        classes, counts = np.unique(ds.targets, return_counts=True)
        exact = counts * (n_keep / ds.n)
        base = np.floor(exact).astype(int)
        remainder = n_keep - int(base.sum())
        order = np.lexsort((classes, -(exact - base)))
        quotas = base.copy()
        quotas[order[:remainder]] += 1
        keep = []
        for cls, quota in zip(classes, quotas):
            idx = np.flatnonzero(ds.targets == cls)
            keep.append(rng.choice(idx, size=quota, replace=False))
        sel = np.sort(np.concatenate(keep))
    else:
        sel = np.sort(rng.choice(ds.n, size=n_keep, replace=False))
    return Dataset(inputs=ds.inputs[sel], targets=ds.targets[sel])


def _box_blur(img: np.ndarray, passes: int = 2) -> np.ndarray:
    out = img.astype(float)
    for _ in range(passes):
        padded = np.pad(out, 1, mode="edge")
        out = (
            padded[:-2, :-2] + padded[:-2, 1:-1] + padded[:-2, 2:]
            + padded[1:-1, :-2] + padded[1:-1, 1:-1] + padded[1:-1, 2:]
            + padded[2:, :-2] + padded[2:, 1:-1] + padded[2:, 2:]
        ) / 9.0
    return out


def synthetic_glyphs(
    n: int,
    seed: int,
    classes: int = 10,
    size: int = 28,
    noise: float = 0.35,
    max_shift: int = 4,
    prototype_seed: int = 7,
    label_noise: float = 0.0,
):
    """Procedural image classification task: (uint8 images, labels).

    Each class is a fixed smoothed random prototype; samples are random
    translations of their prototype plus pixel noise.  Class prototypes mix
    a shared component with an individual one, which keeps classes
    confusable enough for a visible generalization gap at small sample
    sizes.  ``label_noise`` reassigns that fraction of labels to a random
    other class (images stay rendered from the true class), the standard
    way to induce a generalization gap that widens as training memorizes.
    Fully deterministic in (seed, prototype_seed).
    """
    proto_rng = np.random.default_rng(prototype_seed)
    common = _box_blur(proto_rng.standard_normal((size, size)), passes=3)
    protos = []
    for _ in range(classes):
        own = _box_blur(proto_rng.standard_normal((size, size)), passes=3)
        p = 0.6 * common + 1.0 * own
        p = (p - p.min()) / (p.max() - p.min())
        protos.append(p)
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, classes, size=n)
    shifts = rng.integers(-max_shift, max_shift + 1, size=(n, 2))
    noise_field = rng.normal(0.0, noise, size=(n, size, size))
    images = np.empty((n, size, size), dtype=np.uint8)
    for i in range(n):
        img = np.roll(protos[labels[i]], tuple(shifts[i]), axis=(0, 1))
        img = np.clip(img + noise_field[i], 0.0, 1.0)
        images[i] = np.rint(img * 255.0).astype(np.uint8)
    if label_noise > 0.0:
        flip = rng.random(n) < label_noise
        offsets = rng.integers(1, classes, size=n)
        labels = np.where(flip, (labels + offsets) % classes, labels)
    return images, labels.astype(np.uint8)
