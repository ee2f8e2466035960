"""Dataset ingestion: IDX image files and synthetic data.

IDX is the big-endian binary format of the classic digit benchmarks:
a 4-byte magic (0x00000803 for images, 0x00000801 for labels), 4-byte
dimension fields, then the unsigned-byte payload.  Loading keeps pixels as
the file's uint8 levels, read once into the array the dataset holds; the
network scales them by 1/255 to real float64 pixels where it reads them,
one block at a time (see :mod:`cvnnlab.network`).  A real input is a
complex input with zero imaginary part, which the network's first
weighted layer multiplies without forming that part.

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
import os
import struct
from dataclasses import dataclass

import numpy as np

from .network import Network, forward

__all__ = [
    "Dataset",
    "IdxError",
    "IMAGE_MAGIC",
    "LABEL_MAGIC",
    "load_idx",
    "write_idx_images",
    "write_idx_labels",
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
    """Inputs are image pixels or complex vectors; image data keeps its
    (h, w, c) shape per sample.  IDX pixels are uint8 levels, which the
    network reads as ``levels / 255.0``."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        if self.inputs.dtype.kind not in "biu" and not np.all(np.isfinite(self.inputs)):
            raise ValueError("inputs must be finite")
        if len(self.inputs) != len(self.targets):
            raise ValueError("inputs and targets must align")

    @property
    def n(self) -> int:
        return len(self.inputs)


def _read_idx(path, magic: int, ndim: int) -> np.ndarray:
    """The uint8 payload of an IDX file, shaped by its ``ndim`` dimension
    fields.  The file size is checked against the header before the payload
    is read, straight into the array returned."""
    header = 4 + 4 * ndim
    with open(path, "rb") as fh:
        head = fh.read(header)
        # the magic is checked as soon as its 4 bytes exist, before the dimensions
        if len(head) >= 4 and (found := struct.unpack_from(">I", head)[0]) != magic:
            raise IdxError(f"{path}: magic {found:#010x}, expected {magic:#010x}")
        if len(head) < header:
            raise IdxError(f"{path}: truncated header")
        shape = struct.unpack_from(f">{ndim}I", head, 4)
        size, expected = os.fstat(fh.fileno()).st_size, header + math.prod(shape)
        if size < expected:
            raise IdxError(f"{path}: payload short by {expected - size} bytes")
        if size > expected:
            raise IdxError(f"{path}: {size - expected} trailing bytes")
        payload = np.empty(expected - header, dtype=np.uint8)
        got = fh.readinto(payload)
    if got < payload.size:  # the file shrank after its size was read
        raise IdxError(f"{path}: payload short by {payload.size - got} bytes")
    return payload.reshape(shape)


def load_idx(images_path, labels_path) -> Dataset:
    """Paired image/label IDX files as an image dataset.

    Inputs are the file's uint8 pixel levels, shaped (n, h, w, 1); the
    network scales them by 1/255 where it reads them.
    """
    images = _read_idx(images_path, IMAGE_MAGIC, 3)  # (count, rows, cols)
    labels = _read_idx(labels_path, LABEL_MAGIC, 1)
    if images.shape[0] != labels.shape[0]:
        raise IdxError(f"{images.shape[0]} images vs {labels.shape[0]} labels")
    if images.shape[0] == 0:
        raise IdxError(f"{images_path}: no samples")
    return Dataset(inputs=images[..., None], targets=labels.astype(np.int64))


def _write_idx(array, path, magic: int, ndim: int, shape_error: str) -> None:
    values = np.asarray(array)
    if values.ndim != ndim:
        raise ValueError(shape_error)
    real = values.dtype.kind in "biuf"  # not complex, text or objects
    if real:
        with np.errstate(invalid="ignore"):  # nan and inf fail the comparison below
            array = values.astype(np.uint8)
    if not (real and np.array_equal(array, values)):
        raise ValueError("IDX values must be integers in 0..255")
    with open(path, "wb") as fh:
        fh.write(struct.pack(f">I{ndim}I", magic, *array.shape))
        fh.write(array.tobytes())


def write_idx_images(images: np.ndarray, path) -> None:
    _write_idx(images, path, IMAGE_MAGIC, 3, "images must be (count, rows, cols)")


def write_idx_labels(labels: np.ndarray, path) -> None:
    _write_idx(labels, path, LABEL_MAGIC, 1, "labels must be 1-D")


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
    """Deterministic class-stratified subsample of a labelled dataset.

    Per-class quotas follow largest-remainder apportionment, so every class
    count is within one sample of exact proportionality.
    """
    if n_keep > ds.n:
        raise ValueError(f"n_keep={n_keep} exceeds dataset size {ds.n}")
    rng = np.random.default_rng(seed)
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
    return Dataset(inputs=ds.inputs[sel], targets=ds.targets[sel])


_PIXEL_NOISE = 0.35  # std of the gaussian noise added to each glyph pixel in [0, 1]
_MAX_SHIFT = 4  # largest glyph translation, in pixels along each axis


def _box_blur(img: np.ndarray) -> np.ndarray:
    """Three passes of a 3x3 mean filter with edge padding."""
    out = img.astype(float)
    for _ in range(3):
        padded = np.pad(out, 1, mode="edge")
        out = (
            padded[:-2, :-2] + padded[:-2, 1:-1] + padded[:-2, 2:]
            + padded[1:-1, :-2] + padded[1:-1, 1:-1] + padded[1:-1, 2:]
            + padded[2:, :-2] + padded[2:, 1:-1] + padded[2:, 2:]
        ) / 9.0
    return out


def synthetic_glyphs(n: int, seed: int, label_noise: float = 0.0):
    """Procedural 10-class task of 28x28 images: (uint8 images, labels).

    Each class is a fixed smoothed random prototype; samples are random
    translations of their prototype by up to ``_MAX_SHIFT`` pixels plus
    gaussian pixel noise of std ``_PIXEL_NOISE``.  Class prototypes mix
    a shared component with an individual one, which keeps classes
    confusable enough for a visible generalization gap at small sample
    sizes.  ``label_noise`` reassigns that fraction of labels to a random
    other class (images stay rendered from the true class), the standard
    way to induce a generalization gap that widens as training memorizes.
    Fully deterministic in ``seed``; the prototypes are the same for every seed.
    """
    if not 0.0 <= label_noise <= 1.0:  # also nan
        raise ValueError(f"label_noise must lie in [0, 1], got {label_noise}")
    classes, size = 10, 28
    proto_rng = np.random.default_rng(7)
    common = _box_blur(proto_rng.standard_normal((size, size)))
    protos = []
    for _ in range(classes):
        own = _box_blur(proto_rng.standard_normal((size, size)))
        p = 0.6 * common + 1.0 * own
        p = (p - p.min()) / (p.max() - p.min())
        protos.append(p)
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, classes, size=n)
    shifts = rng.integers(-_MAX_SHIFT, _MAX_SHIFT + 1, size=(n, 2))
    noise_field = rng.normal(0.0, _PIXEL_NOISE, size=(n, size, size))
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
