import hashlib
import math
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvnnlab.activations import SPLIT_TANH
from cvnnlab.datasets import (
    IMAGE_MAGIC,
    IdxError,
    LABEL_MAGIC,
    load_idx,
    subsample,
    synthetic_glyphs,
    synthetic_regression,
    write_idx_images,
    write_idx_labels,
)
from cvnnlab.network import Dense, build_network


@pytest.fixture
def idx_fixture(tmp_path):
    """One 2x2 image with pixels (0, 255, 128, 0) and label 7."""
    image_bytes = struct.pack(">IIII", IMAGE_MAGIC, 1, 2, 2) + bytes([0, 255, 128, 0])
    label_bytes = struct.pack(">II", LABEL_MAGIC, 1) + bytes([7])
    images_path = tmp_path / "images.idx"
    labels_path = tmp_path / "labels.idx"
    images_path.write_bytes(image_bytes)
    labels_path.write_bytes(label_bytes)
    return images_path, labels_path, image_bytes, label_bytes


def idx_readers(images_path, labels_path):
    """:func:`load_idx` reading a file as the image file beside ``labels_path``,
    and as the label file beside ``images_path``."""
    return lambda path: load_idx(path, labels_path), lambda path: load_idx(images_path, path)


def write_back(ds, images_path, labels_path):
    """Write a loaded image dataset back as IDX files."""
    write_idx_images(ds.inputs[..., 0], images_path)
    write_idx_labels(ds.targets, labels_path)


class TestLoadIdx:
    def test_hand_crafted_fixture(self, idx_fixture):
        images_path, labels_path, _, _ = idx_fixture
        ds = load_idx(images_path, labels_path)
        assert ds.inputs.dtype == np.uint8  # the file's levels; the network scales them
        assert ds.inputs.ravel().tolist() == [0, 255, 128, 0]
        assert ds.targets.tolist() == [7]
        assert ds.inputs.shape == (1, 2, 2, 1)

    def test_wrong_magic(self, idx_fixture):
        images_path, labels_path, _, _ = idx_fixture
        read_images, read_labels = idx_readers(images_path, labels_path)
        # the 9-byte label file is shorter than an image header: the magic is
        # still what gets reported
        with pytest.raises(IdxError, match="magic 0x00000801, expected 0x00000803"):
            read_images(labels_path)
        with pytest.raises(IdxError, match="magic 0x00000803, expected 0x00000801"):
            read_labels(images_path)

    def test_truncated_payload(self, idx_fixture, tmp_path):
        images_path, labels_path, image_bytes, label_bytes = idx_fixture
        read_images, read_labels = idx_readers(images_path, labels_path)
        bad = tmp_path / "trunc.idx"
        for reader, data in ((read_images, image_bytes), (read_labels, label_bytes)):
            bad.write_bytes(data[:-1])
            with pytest.raises(IdxError, match="payload short by 1 bytes"):
                reader(bad)

    def test_truncated_header(self, idx_fixture, tmp_path):
        read_images, read_labels = idx_readers(*idx_fixture[:2])
        bad = tmp_path / "tiny.idx"
        for reader, magic in ((read_images, IMAGE_MAGIC), (read_labels, LABEL_MAGIC)):
            for data in (b"\x00\x00", struct.pack(">I", magic) + b"\x00\x00\x00"):
                bad.write_bytes(data)
                with pytest.raises(IdxError, match="truncated header"):
                    reader(bad)

    def test_trailing_garbage(self, idx_fixture, tmp_path):
        images_path, labels_path, image_bytes, label_bytes = idx_fixture
        read_images, read_labels = idx_readers(images_path, labels_path)
        bad = tmp_path / "extra.idx"
        for reader, data in ((read_images, image_bytes), (read_labels, label_bytes)):
            bad.write_bytes(data + b"\x01")
            with pytest.raises(IdxError, match="1 trailing bytes"):
                reader(bad)

    def test_count_mismatch(self, idx_fixture, tmp_path):
        images_path, _, _, _ = idx_fixture
        two_labels = tmp_path / "two.idx"
        two_labels.write_bytes(struct.pack(">II", LABEL_MAGIC, 2) + bytes([1, 2]))
        with pytest.raises(IdxError, match="1 images vs 2 labels"):
            load_idx(images_path, two_labels)

    def test_pixels_in_unit_interval(self, tmp_path, rng):
        images = rng.integers(0, 256, size=(5, 4, 4)).astype(np.uint8)
        labels = rng.integers(0, 10, size=5).astype(np.uint8)
        write_idx_images(images, tmp_path / "i"), write_idx_labels(labels, tmp_path / "l")
        ds = load_idx(tmp_path / "i", tmp_path / "l")
        # the levels as written, which the network reads as levels / 255 in [0, 1]
        assert ds.inputs.dtype == np.uint8 and ds.inputs.shape == (5, 4, 4, 1)
        npt.assert_array_equal(ds.inputs[..., 0], images)

    def test_load_peaks_near_its_payload(self, tmp_path, rng):
        """The pixels are read once, into the array the dataset holds."""
        images = rng.integers(0, 256, size=(4000, 28, 28)).astype(np.uint8)
        write_idx_images(images, tmp_path / "i")
        write_idx_labels(rng.integers(0, 10, size=4000), tmp_path / "l")
        tracemalloc.start()
        try:
            ds = load_idx(tmp_path / "i", tmp_path / "l")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        npt.assert_array_equal(ds.inputs[..., 0], images)
        assert peak <= 1.25 * images.nbytes

    def test_header_beyond_the_file_is_refused_before_allocating(self, idx_fixture, tmp_path):
        big = tmp_path / "big.idx"
        dims = (2**32 - 1,) * 3
        big.write_bytes(struct.pack(">IIII", IMAGE_MAGIC, *dims) + bytes(4))
        tracemalloc.start()
        try:
            with pytest.raises(IdxError, match=f"payload short by {math.prod(dims) - 4} bytes"):
                load_idx(big, idx_fixture[1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    def test_dataset_rejects_non_finite_inputs(self):
        from cvnnlab.datasets import Dataset

        with pytest.raises(ValueError, match="finite"):
            Dataset(inputs=np.array([[np.nan]]), targets=np.array([0]))


class TestRoundTrip:
    def test_fixture_round_trip_byte_identical(self, idx_fixture, tmp_path):
        images_path, labels_path, image_bytes, label_bytes = idx_fixture
        ds = load_idx(images_path, labels_path)
        out_i, out_l = tmp_path / "out_i", tmp_path / "out_l"
        write_back(ds, out_i, out_l)
        assert out_i.read_bytes() == image_bytes
        assert out_l.read_bytes() == label_bytes

    def test_random_images_round_trip(self, tmp_path, rng):
        images = rng.integers(0, 256, size=(20, 6, 5)).astype(np.uint8)
        labels = rng.integers(0, 10, size=20).astype(np.uint8)
        write_idx_images(images, tmp_path / "i")
        write_idx_labels(labels, tmp_path / "l")
        ds = load_idx(tmp_path / "i", tmp_path / "l")
        write_back(ds, tmp_path / "i2", tmp_path / "l2")
        assert (tmp_path / "i").read_bytes() == (tmp_path / "i2").read_bytes()
        assert (tmp_path / "l").read_bytes() == (tmp_path / "l2").read_bytes()

    @pytest.mark.parametrize("write, values", [
        (write_idx_labels, np.array([300, -1, 7])),  # would wrap to 44, 255, 7
        (write_idx_labels, np.array([2.0, np.nan])),
        (write_idx_images, np.array([[[0.7, 1.9, 255.9]]])),  # would truncate to 0, 1, 255
        (write_idx_images, np.array([[[0.0, np.inf]]])),
        (write_idx_labels, np.array([1 + 1j])),
        (write_idx_labels, np.array(["1"])),
    ])
    def test_writers_refuse_values_a_byte_cannot_hold(self, tmp_path, write, values):
        with pytest.raises(ValueError, match="integers in 0..255"):
            write(values, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_writers_take_in_range_integers_of_any_dtype(self, tmp_path):
        write_idx_labels(np.array([0, 255, 7], dtype=np.int64), tmp_path / "l")
        write_idx_images(np.array([[[0.0, 255.0]]]), tmp_path / "i")
        assert (tmp_path / "l").read_bytes()[-3:] == bytes([0, 255, 7])
        assert (tmp_path / "i").read_bytes()[-2:] == bytes([0, 255])


class TestSyntheticRegression:
    def test_teacher_outputs_at_zero_noise(self):
        teacher = build_network([Dense(6, 3, SPLIT_TANH)], seed=1)
        ds = synthetic_regression(32, 6, teacher, noise=0.0, seed=2)
        from cvnnlab.network import forward

        npt.assert_array_equal(ds.targets, forward(teacher, ds.inputs))

    def test_deterministic_per_seed(self):
        teacher = build_network([Dense(6, 3, SPLIT_TANH)], seed=1)
        a = synthetic_regression(16, 6, teacher, noise=0.5, seed=9)
        b = synthetic_regression(16, 6, teacher, noise=0.5, seed=9)
        npt.assert_array_equal(a.inputs, b.inputs)
        npt.assert_array_equal(a.targets, b.targets)

    def test_negative_noise_rejected(self):
        teacher = build_network([Dense(6, 3, SPLIT_TANH)], seed=1)
        with pytest.raises(ValueError, match="noise must be nonnegative"):
            synthetic_regression(16, 6, teacher, noise=-0.5, seed=9)

    def test_unit_variance_entries(self):
        teacher = build_network([Dense(120, 2, SPLIT_TANH)], seed=1)
        ds = synthetic_regression(100, 120, teacher, noise=0.0, seed=3)
        ratio = float(np.sum(np.abs(ds.inputs) ** 2)) / (100 * 120)
        assert abs(ratio - 1.0) <= 0.05


class TestSubsample:
    def _labeled(self, rng, n=400):
        images = rng.integers(0, 256, size=(n, 3, 3)).astype(np.uint8)
        labels = rng.integers(0, 10, size=n).astype(np.uint8)
        from cvnnlab.datasets import Dataset

        return Dataset(inputs=images[..., None] / 255.0, targets=labels.astype(np.int64))

    def test_full_keep_preserves_content(self, rng):
        ds = self._labeled(rng)
        out = subsample(ds, ds.n, seed=0)
        npt.assert_array_equal(np.sort(out.targets), np.sort(ds.targets))

    def test_proportions_within_one(self, rng):
        ds = self._labeled(rng)
        out = subsample(ds, 100, seed=1)
        assert out.n == 100
        exact = np.bincount(ds.targets, minlength=10) * (100 / ds.n)
        got = np.bincount(out.targets, minlength=10)
        assert np.all(np.abs(got - exact) <= 1.0 + 1e-9)

    def test_seeds_change_indices_not_histogram(self, rng):
        ds = self._labeled(rng)
        a = subsample(ds, 100, seed=1)
        b = subsample(ds, 100, seed=2)
        npt.assert_array_equal(
            np.bincount(a.targets, minlength=10), np.bincount(b.targets, minlength=10)
        )
        assert not np.array_equal(a.inputs, b.inputs)

    def test_rejects_oversized_keep(self, rng):
        ds = self._labeled(rng, n=50)
        with pytest.raises(ValueError, match="exceeds"):
            subsample(ds, 51, seed=0)


class TestGlyphs:
    def test_deterministic(self):
        a_imgs, a_lbls = synthetic_glyphs(64, seed=5)
        b_imgs, b_lbls = synthetic_glyphs(64, seed=5)
        npt.assert_array_equal(a_imgs, b_imgs)
        npt.assert_array_equal(a_lbls, b_lbls)

    def test_shapes_and_classes(self):
        imgs, lbls = synthetic_glyphs(128, seed=6)
        assert imgs.shape == (128, 28, 28)
        assert imgs.dtype == np.uint8
        assert set(np.unique(lbls)).issubset(set(range(10)))

    def test_feeds_idx_pipeline(self, tmp_path):
        imgs, lbls = synthetic_glyphs(32, seed=7)
        write_idx_images(imgs, tmp_path / "gi")
        write_idx_labels(lbls, tmp_path / "gl")
        ds = load_idx(tmp_path / "gi", tmp_path / "gl")
        assert ds.inputs.shape == (32, 28, 28, 1)

    @pytest.mark.parametrize("kwargs, name", [
        ({"label_noise": -0.1}, "label_noise"),
        ({"label_noise": 1.5}, "label_noise"),
        ({"label_noise": float("nan")}, "label_noise"),
    ])
    def test_refuses_bad_arguments(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            synthetic_glyphs(8, seed=0, **kwargs)

    def test_bytes_pinned(self):
        # the 10 classes, 28x28 size, prototype seed 7 and 3 blur passes are
        # constants; these digests pin the images and labels they produce
        imgs, lbls = synthetic_glyphs(64, seed=5, label_noise=0.1)
        assert hashlib.sha256(imgs.tobytes()).hexdigest() == (
            "1f01bb0711f94c87b285e375ddb0fcbc71965666e82ae4073a92ef2acc71eaa4"
        )
        assert hashlib.sha256(lbls.tobytes()).hexdigest() == (
            "09a01e41d19d8b95241ee66081b9c3529375ee7e09f1240924f8f8caf7189391"
        )


# a right magic, or a whole small header, in front of arbitrary bytes
# reaches the size checks and the payload reshape
small = st.integers(0, 3)
idx_bytes = (
    st.binary(max_size=64)
    | st.builds(
        lambda magic, rest: struct.pack(">I", magic) + rest,
        st.sampled_from([IMAGE_MAGIC, LABEL_MAGIC]),
        st.binary(max_size=64),
    )
    | st.builds(
        lambda dims, rest: struct.pack(">IIII", IMAGE_MAGIC, *dims) + rest,
        st.tuples(small, small, small),
        st.binary(max_size=32),
    )
    | st.builds(lambda n, rest: struct.pack(">II", LABEL_MAGIC, n) + rest, small, st.binary(max_size=8))
)


@settings(max_examples=300, deadline=None)
@given(idx_bytes)
def test_idx_readers_on_arbitrary_bytes(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "file.idx"
        path.write_bytes(data)
        images_path, labels_path = Path(tmp) / "images.idx", Path(tmp) / "labels.idx"
        images_path.write_bytes(struct.pack(">IIII", IMAGE_MAGIC, 1, 1, 1) + bytes([9]))
        labels_path.write_bytes(struct.pack(">II", LABEL_MAGIC, 1) + bytes([2]))
        for reader in idx_readers(images_path, labels_path):
            try:
                reader(path)
            except IdxError:
                pass
