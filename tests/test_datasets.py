import struct
import tempfile
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
    read_idx_images,
    read_idx_labels,
    subsample,
    synthetic_glyphs,
    synthetic_regression,
    write_idx,
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


class TestLoadIdx:
    def test_hand_crafted_fixture(self, idx_fixture):
        images_path, labels_path, _, _ = idx_fixture
        ds = load_idx(images_path, labels_path)
        npt.assert_allclose(ds.inputs.real.ravel(), [0.0, 1.0, 128 / 255, 0.0])
        npt.assert_array_equal(ds.inputs.imag, np.zeros_like(ds.inputs.imag))
        assert ds.targets.tolist() == [7]
        assert ds.image_shape == (2, 2, 1)

    def test_wrong_magic(self, idx_fixture):
        images_path, labels_path, _, _ = idx_fixture
        # the 9-byte label file is shorter than an image header: the magic is
        # still what gets reported
        with pytest.raises(IdxError, match="magic 0x00000801, expected 0x00000803"):
            read_idx_images(labels_path)
        with pytest.raises(IdxError, match="magic 0x00000803, expected 0x00000801"):
            read_idx_labels(images_path)

    def test_truncated_payload(self, idx_fixture, tmp_path):
        _, _, image_bytes, label_bytes = idx_fixture
        bad = tmp_path / "trunc.idx"
        for reader, data in ((read_idx_images, image_bytes), (read_idx_labels, label_bytes)):
            bad.write_bytes(data[:-1])
            with pytest.raises(IdxError, match="payload short by 1 bytes"):
                reader(bad)

    def test_truncated_header(self, tmp_path):
        bad = tmp_path / "tiny.idx"
        for reader, magic in ((read_idx_images, IMAGE_MAGIC), (read_idx_labels, LABEL_MAGIC)):
            for data in (b"\x00\x00", struct.pack(">I", magic) + b"\x00\x00\x00"):
                bad.write_bytes(data)
                with pytest.raises(IdxError, match="truncated header"):
                    reader(bad)

    def test_trailing_garbage(self, idx_fixture, tmp_path):
        _, _, image_bytes, label_bytes = idx_fixture
        bad = tmp_path / "extra.idx"
        for reader, data in ((read_idx_images, image_bytes), (read_idx_labels, label_bytes)):
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
        # real pixels, finite, in [0, 1]: no complex cast on the way in
        assert ds.inputs.dtype == np.float64 and ds.inputs.shape == (5, 4, 4, 1)
        assert np.all(np.isfinite(ds.inputs))
        assert np.all(ds.inputs >= 0.0) and np.all(ds.inputs <= 1.0)
        # pixels are exact multiples of 1/255
        npt.assert_array_equal(np.rint(ds.inputs * 255), ds.inputs * 255)

    def test_dataset_rejects_non_finite_inputs(self):
        from cvnnlab.datasets import Dataset

        with pytest.raises(ValueError, match="finite"):
            Dataset(inputs=np.array([[np.nan]]), targets=np.array([0]))


class TestRoundTrip:
    def test_fixture_round_trip_byte_identical(self, idx_fixture, tmp_path):
        images_path, labels_path, image_bytes, label_bytes = idx_fixture
        ds = load_idx(images_path, labels_path)
        out_i, out_l = tmp_path / "out_i", tmp_path / "out_l"
        write_idx(ds, out_i, out_l)
        assert out_i.read_bytes() == image_bytes
        assert out_l.read_bytes() == label_bytes

    def test_random_images_round_trip(self, tmp_path, rng):
        images = rng.integers(0, 256, size=(20, 6, 5)).astype(np.uint8)
        labels = rng.integers(0, 10, size=20).astype(np.uint8)
        write_idx_images(images, tmp_path / "i")
        write_idx_labels(labels, tmp_path / "l")
        ds = load_idx(tmp_path / "i", tmp_path / "l")
        write_idx(ds, tmp_path / "i2", tmp_path / "l2")
        assert (tmp_path / "i").read_bytes() == (tmp_path / "i2").read_bytes()
        assert (tmp_path / "l").read_bytes() == (tmp_path / "l2").read_bytes()


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
        assert ds.n == 32
        assert ds.image_shape == (28, 28, 1)


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
        for reader in (read_idx_images, read_idx_labels):
            try:
                reader(path)
            except IdxError:
                pass
