import re
import struct
import tracemalloc

import numpy as np
import pytest

from bfel import data
from bfel.data import DataFormatError, Dataset, PartitionError
from reference import save_idx


def forged_bfeldata(path, count, shape=(3, 5), samples=2):
    """A BFELDATA header declaring `count` samples over `samples` real ones."""
    rng = np.random.default_rng(0)
    data.save_bfeldata(
        Dataset(rng.random((samples,) + shape), np.zeros(samples, int), 2), path
    )
    blob = bytearray(path.read_bytes())
    blob[12:20] = struct.pack("<Q", count)
    path.write_bytes(bytes(blob))
    return path


def rejection_peak_bytes(load, *paths, match="truncated"):
    """Assert `load` rejects a forged size; return its peak allocation."""
    tracemalloc.start()
    try:
        with pytest.raises(DataFormatError, match=match):
            load(*paths)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def zero_size_bfeldata(path, count=40, shape=(0,)):
    """A BFELDATA file of `count` samples of a shape that holds no values,
    written byte by byte: `Dataset` refuses to make one."""
    header = struct.pack("<IQI", 1, count, len(shape))
    dims = b"".join(struct.pack("<Q", d) for d in shape)
    labels = (np.arange(count) % 2).astype("<u2").tobytes()
    path.write_bytes(b"BFELDATA" + header + dims + struct.pack("<I", 2) + labels)
    return path


def write_idx_pair(tmp_path, pixels, labels):
    """Build a raw IDX image/label pair byte by byte."""
    pixels = np.asarray(pixels, dtype=np.uint8)
    n, rows, cols = pixels.shape
    img = tmp_path / "images.idx"
    lab = tmp_path / "labels.idx"
    img.write_bytes(struct.pack(">IIII", 0x803, n, rows, cols) + pixels.tobytes())
    lab.write_bytes(
        struct.pack(">II", 0x801, n) + np.asarray(labels, dtype=np.uint8).tobytes()
    )
    return img, lab


class TestIdx:
    def test_two_image_fixture_scaling_endpoints(self, tmp_path):
        pixels = np.zeros((2, 2, 2), dtype=np.uint8)
        pixels[1, :, :] = 255
        img, lab = write_idx_pair(tmp_path, pixels, [3, 7])
        ds = data.load_idx(img, lab)
        assert len(ds) == 2
        assert np.array_equal(ds.samples[0], np.zeros((2, 2)))
        assert np.array_equal(ds.samples[1], np.ones((2, 2)))
        assert list(ds.labels) == [3, 7]

    def test_bad_magic_on_labels(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8), [0])
        # image magic in the label file slot
        lab.write_bytes(struct.pack(">II", 0x803, 1) + b"\x00")
        with pytest.raises(DataFormatError, match="bad magic"):
            data.load_idx(img, lab)

    def test_count_mismatch(self, tmp_path):
        img, _ = write_idx_pair(tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), [0, 1])
        lab = tmp_path / "short-labels.idx"
        lab.write_bytes(struct.pack(">II", 0x801, 1) + b"\x00")
        with pytest.raises(DataFormatError, match="count mismatch"):
            data.load_idx(img, lab)

    def test_truncated_file(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, np.zeros((2, 3, 3), dtype=np.uint8), [0, 1])
        img.write_bytes(img.read_bytes()[:-5])
        with pytest.raises(DataFormatError, match="truncated"):
            data.load_idx(img, lab)

    @pytest.mark.parametrize("count", [2**16, 2**32 - 1])
    def test_forged_image_count_rejected_before_reading(self, tmp_path, count):
        img, lab = write_idx_pair(tmp_path, np.zeros((2, 28, 28), dtype=np.uint8), [0, 1])
        blob = bytearray(img.read_bytes())
        blob[4:8] = struct.pack(">I", count)
        img.write_bytes(bytes(blob))
        assert rejection_peak_bytes(data.load_idx, img, lab) < 2**20

    @pytest.mark.parametrize("rows,cols", [(0, 4), (4, 0), (0, 0)])
    def test_zero_size_sample_shape_rejected(self, tmp_path, rows, cols):
        img, lab = write_idx_pair(tmp_path, np.zeros((3, rows, cols)), [0, 1, 0])
        want = f"{img}: sample shape ({rows}, {cols}) holds no values"
        with pytest.raises(DataFormatError, match=re.escape(want)):
            data.load_idx(img, lab)

    def test_forged_label_count_rejected(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), [0, 1])
        lab.write_bytes(struct.pack(">II", 0x801, 2**32 - 1) + b"\x00\x01")
        with pytest.raises(DataFormatError, match="truncated"):
            data.load_idx(img, lab)

    def test_trailing_bytes_rejected(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), [0, 1])
        img.write_bytes(img.read_bytes() + b"\x00")
        with pytest.raises(DataFormatError, match="beyond the declared"):
            data.load_idx(img, lab)

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = Dataset(rng.integers(0, 256, (5, 4, 4)) / 255.0, rng.integers(0, 3, 5), 3)
        img, lab = tmp_path / "i.idx", tmp_path / "l.idx"
        save_idx(ds, img, lab)
        back = data.load_idx(img, lab)
        assert np.array_equal(back.samples, ds.samples)
        assert np.array_equal(back.labels, ds.labels)


class TestBfeldata:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        ds = Dataset(rng.random((7, 3, 5)), rng.integers(0, 4, 7), 4)
        path = tmp_path / "d.bfel"
        data.save_bfeldata(ds, path)
        back = data.load_bfeldata(path)
        assert np.array_equal(back.samples, ds.samples)
        assert np.array_equal(back.labels, ds.labels)
        assert back.class_count == 4

    @pytest.mark.parametrize("count", [2**61, 2**17])
    def test_forged_count_rejected_before_reading(self, tmp_path, count):
        path = forged_bfeldata(tmp_path / "forged.bfel", count)
        assert rejection_peak_bytes(data.load_bfeldata, path) < 2**20

    @pytest.mark.parametrize("classes", [0, 2**16 + 1, 2**32 - 1])
    def test_forged_class_count_rejected(self, tmp_path, classes):
        path = forged_bfeldata(tmp_path / "forged.bfel", 2)
        blob = bytearray(path.read_bytes())
        blob[40:44] = struct.pack("<I", classes)  # after two sample dimensions
        path.write_bytes(bytes(blob))
        peak = rejection_peak_bytes(data.load_bfeldata, path, match="class count")
        assert peak < 2**20

    def test_largest_class_count_loads(self, tmp_path):
        path = tmp_path / "d.bfel"
        data.save_bfeldata(Dataset(np.zeros((1, 2)), [2**16 - 1], 2**16), path)
        assert data.load_bfeldata(path).class_count == 2**16

    def test_forged_shape_rejected(self, tmp_path):
        path = forged_bfeldata(tmp_path / "d.bfel", 2)
        blob = bytearray(path.read_bytes())
        blob[24:32] = struct.pack("<Q", 2**40)  # first sample dimension
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError, match="truncated"):
            data.load_bfeldata(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = forged_bfeldata(tmp_path / "d.bfel", 1)
        with pytest.raises(DataFormatError, match="beyond the declared"):
            data.load_bfeldata(path)

    def test_non_finite_sample_rejected_at_load(self, tmp_path):
        rng = np.random.default_rng(2)
        ds = Dataset(rng.random((6, 4)), rng.integers(0, 3, 6), 3)
        path = tmp_path / "d.bfel"
        data.save_bfeldata(ds, path)
        blob = bytearray(path.read_bytes())
        header = 8 + 16 + 8 + 4  # magic, version/count/ndim, one dim, classes
        at = header + 8 * (3 * 4 + 1)  # sample 3, feature 1
        blob[at : at + 8] = struct.pack("<d", float("nan"))
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError, match="NaN/Inf.*index 3"):
            data.load_bfeldata(path)

    @pytest.mark.parametrize("shape", [(0,), (3, 0), (0, 5, 2)])
    def test_zero_size_sample_shape_rejected(self, tmp_path, shape):
        path = zero_size_bfeldata(tmp_path / "d.bfel", shape=shape)
        want = f"{path}: sample shape {shape} holds no values"
        with pytest.raises(DataFormatError, match=re.escape(want)):
            data.load_bfeldata(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bfel"
        path.write_bytes(b"NOTBFEL!" + b"\x00" * 32)
        with pytest.raises(DataFormatError, match="bad magic"):
            data.load_bfeldata(path)


class TestDataset:
    def test_zero_size_sample_shape_rejected(self):
        with pytest.raises(DataFormatError, match=re.escape("(2, 0) holds no")):
            Dataset(np.zeros((4, 2, 0)), np.zeros(4, dtype=int), 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_rejected(self, bad):
        samples = np.zeros((5, 2))
        samples[4, 1] = bad
        with pytest.raises(DataFormatError, match="1 sample.*index 4"):
            Dataset(samples, np.zeros(5, dtype=int), 2)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_magnitude_bound(self, sign):
        bound = data.SAMPLE_MAGNITUDE_BOUND
        assert np.isfinite(np.float64(bound) ** 2)
        samples = np.zeros((5, 2))
        samples[3, 0] = sign * bound  # the bound itself is accepted
        Dataset(samples, np.zeros(5, dtype=int), 2)
        samples[2, 1] = sign * np.nextafter(bound, np.inf)
        with pytest.raises(DataFormatError, match="1 sample.*above.*index 2"):
            Dataset(samples, np.zeros(5, dtype=int), 2)


class TestPartition:
    def test_iid_two_clients(self):
        ds = data.synth_blobs(2, 5, 2, 0.1, seed=0)
        parts = data.partition(ds, 2, "iid", 2, seed=1)
        assert [len(p) for p in parts] == [5, 5]
        all_samples = np.concatenate([p.samples for p in parts])
        assert sorted(map(tuple, all_samples)) == sorted(map(tuple, ds.samples))

    def test_iid_remainder_to_earliest(self):
        ds = data.synth_blobs(1, 11, 2, 0.1, seed=0)
        parts = data.partition(ds, 3, "iid", 2, seed=1)
        assert [len(p) for p in parts] == [4, 4, 3]

    def test_noniid_shards_limit_distinct_labels(self):
        ds = data.synth_blobs(10, 100, 2, 0.1, seed=2)
        parts = data.partition(ds, 5, "noniid_shards", shards_per_client=2, seed=3)
        distinct = [len(set(p.labels.tolist())) for p in parts]
        # fine shards: roughly 2 labels per client, never close to all 10
        assert np.mean(distinct) < 4

    def test_noniid_exhaustive_disjoint(self):
        ds = data.synth_blobs(4, 25, 3, 0.2, seed=4)
        parts = data.partition(ds, 5, "noniid_shards", shards_per_client=2, seed=5)
        assert sum(len(p) for p in parts) == len(ds)

    def test_seed_determinism(self):
        ds = data.synth_blobs(3, 30, 2, 0.2, seed=6)
        for mode in ("iid", "noniid_shards"):
            a = data.partition(ds, 3, mode, shards_per_client=2, seed=7)
            b = data.partition(ds, 3, mode, shards_per_client=2, seed=7)
            for pa, pb in zip(a, b):
                assert np.array_equal(pa.samples, pb.samples)
                assert np.array_equal(pa.labels, pb.labels)

    def test_too_many_shards(self):
        ds = data.synth_blobs(2, 2, 2, 0.1, seed=0)
        with pytest.raises(PartitionError):
            data.partition(ds, 4, "noniid_shards", shards_per_client=2, seed=0)

    @pytest.mark.parametrize("mode, match", [
        ("iid", "1000000 clients requested from 10 samples"),
        ("noniid_shards", "2000000 shards requested from 10 samples"),
    ])
    def test_fewer_samples_than_clients_raises_before_any_split(
        self, monkeypatch, mode, match
    ):
        ds = data.synth_blobs(2, 5, 2, 0.1, seed=0)
        subsets = []
        monkeypatch.setattr(data.Dataset, "subset", lambda *a: subsets.append(a))
        with pytest.raises(PartitionError, match=match):
            data.partition(ds, 10**6, mode, shards_per_client=2, seed=0)
        assert subsets == []

    @pytest.mark.parametrize(
        "clients, mode, shards, match",
        [
            (0, "iid", 2, "client_count must be >= 1"),
            (2, "noniid_shards", 0, "shards_per_client must be >= 1"),
            (2, "by_label", 2, "unknown partition mode 'by_label'"),
        ],
    )
    def test_unsatisfiable_arguments(self, clients, mode, shards, match):
        ds = data.synth_blobs(2, 5, 2, 0.1, seed=0)
        with pytest.raises(PartitionError, match=match):
            data.partition(ds, clients, mode, shards_per_client=shards, seed=0)


class TestSynthBlobs:
    def test_counts(self):
        ds = data.synth_blobs(2, 3, 4, 0.5, seed=0)
        assert len(ds) == 6
        assert list(np.bincount(ds.labels)) == [3, 3]

    def test_zero_spread_nearest_centroid_perfect(self):
        ds = data.synth_blobs(4, 10, 3, 0.0, seed=1)
        centers = np.stack(
            [ds.samples[ds.labels == c][0] for c in range(4)]
        )
        dists = np.linalg.norm(ds.samples[:, None] - centers[None], axis=2)
        assert np.array_equal(dists.argmin(axis=1), ds.labels)

    def test_seed_determinism(self):
        a = data.synth_blobs(3, 5, 2, 0.3, seed=42)
        b = data.synth_blobs(3, 5, 2, 0.3, seed=42)
        assert np.array_equal(a.samples, b.samples)
