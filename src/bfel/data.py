"""Dataset ingestion, client partitioning, and synthetic data.

Supports the IDX binary container (big-endian, magic 0x803/0x801) and a
generic little-endian raw tensor container ("BFELDATA") for everything
else. Partitioning covers seeded iid splits and the label-sorted shard
protocol for non-iid clients.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801
BFELDATA_MAGIC = b"BFELDATA"
BFELDATA_VERSION = 1
BFELDATA_MAX_CLASSES = 1 << 16  # labels are stored as <u2
# The largest sample magnitude whose square is finite: the Fisher squares
# its inputs, so a larger sample would overflow in the first round.
SAMPLE_MAGNITUDE_BOUND = math.sqrt(np.finfo(np.float64).max)


class DataFormatError(ValueError):
    """A dataset file failed to parse."""


class PartitionError(ValueError):
    """A partition cannot be made."""


@dataclass(frozen=True)
class Dataset:
    """The one sample-set type: samples at most SAMPLE_MAGNITUDE_BOUND in
    magnitude (so finite), with integer class labels."""

    samples: np.ndarray  # (N, ...) float64
    labels: np.ndarray  # (N,) int64
    class_count: int

    def __post_init__(self):
        samples = np.ascontiguousarray(np.asarray(self.samples, dtype=np.float64))
        labels = np.asarray(self.labels, dtype=np.int64)
        if samples.shape[0] != labels.shape[0]:
            raise DataFormatError(
                f"{samples.shape[0]} samples but {labels.shape[0]} labels"
            )
        if 0 in samples.shape[1:]:
            raise DataFormatError(f"sample shape {samples.shape[1:]} holds no values")
        if labels.size and (labels.min() < 0 or labels.max() >= self.class_count):
            raise DataFormatError("label out of range")
        # min and max make no temporary, and NaN fails either comparison
        bound = SAMPLE_MAGNITUDE_BOUND
        if samples.size and not -bound <= samples.min() <= samples.max() <= bound:
            fit = np.abs(samples.reshape(len(samples), -1)) <= bound
            bad = np.flatnonzero(~fit.all(1))
            raise DataFormatError(
                f"{bad.size} sample(s) hold NaN/Inf values or magnitudes above "
                f"{bound:.3g}, the first at index {bad[0]}"
            )
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.samples.shape[0]

    def subset(self, indices: np.ndarray) -> "Dataset":
        """The samples at `indices`. They are bounded and labelled in range,
        as this set's are, so they are not checked again."""
        sub = object.__new__(Dataset)
        object.__setattr__(sub, "samples", np.ascontiguousarray(self.samples[indices]))
        object.__setattr__(sub, "labels", self.labels[indices])
        object.__setattr__(sub, "class_count", self.class_count)
        return sub


def _check_payload(f, n: int, path) -> None:
    """Raise unless exactly n bytes remain in f; reads nothing."""
    left = os.fstat(f.fileno()).st_size - f.tell()
    if n > left:
        raise DataFormatError(
            f"{path}: truncated file (header declares {n} payload bytes, "
            f"{left} present)"
        )
    if n < left:
        raise DataFormatError(
            f"{path}: {left - n} bytes beyond the declared {n}-byte payload"
        )


def _read_exact(f, n: int, path) -> bytes:
    buf = f.read(n)
    if len(buf) != n:
        raise DataFormatError(f"{path}: truncated file (wanted {n} more bytes)")
    return buf


def load_idx(images_path, labels_path) -> Dataset:
    """Parse an IDX image/label file pair; pixels scaled to [0, 1]."""
    images_path, labels_path = Path(images_path), Path(labels_path)
    with open(images_path, "rb") as f:
        magic, count, rows, cols = struct.unpack(
            ">IIII", _read_exact(f, 16, images_path)
        )
        if magic != IDX_IMAGE_MAGIC:
            raise DataFormatError(
                f"{images_path}: bad magic 0x{magic:08x}, expected 0x{IDX_IMAGE_MAGIC:08x}"
            )
        _check_payload(f, count * rows * cols, images_path)
        raw = _read_exact(f, count * rows * cols, images_path)
    images = np.frombuffer(raw, dtype=np.uint8).reshape(count, rows, cols)
    with open(labels_path, "rb") as f:
        magic, label_count = struct.unpack(">II", _read_exact(f, 8, labels_path))
        if magic != IDX_LABEL_MAGIC:
            raise DataFormatError(
                f"{labels_path}: bad magic 0x{magic:08x}, expected 0x{IDX_LABEL_MAGIC:08x}"
            )
        _check_payload(f, label_count, labels_path)
        labels = np.frombuffer(_read_exact(f, label_count, labels_path), dtype=np.uint8)
    if label_count != count:
        raise DataFormatError(
            f"count mismatch: {count} images in {images_path}, "
            f"{label_count} labels in {labels_path}"
        )
    classes = int(labels.max()) + 1 if count else 1
    return _dataset(images_path, images.astype(np.float64) / 255.0, labels, classes)


def save_bfeldata(dataset: Dataset, path) -> None:
    """Write the little-endian raw tensor container."""
    shape = dataset.samples.shape[1:]
    with open(path, "wb") as f:
        f.write(BFELDATA_MAGIC)
        f.write(struct.pack("<IQI", BFELDATA_VERSION, len(dataset), len(shape)))
        for dim in shape:
            f.write(struct.pack("<Q", dim))
        f.write(struct.pack("<I", dataset.class_count))
        f.write(dataset.samples.astype("<f8").tobytes())
        f.write(dataset.labels.astype("<u2").tobytes())


def load_bfeldata(path) -> Dataset:
    """Read the little-endian raw tensor container."""
    path = Path(path)
    with open(path, "rb") as f:
        magic = _read_exact(f, 8, path)
        if magic != BFELDATA_MAGIC:
            raise DataFormatError(f"{path}: bad magic {magic!r}")
        version, count, ndim = struct.unpack("<IQI", _read_exact(f, 16, path))
        if version != BFELDATA_VERSION:
            raise DataFormatError(f"{path}: unsupported version {version}")
        shape = tuple(
            struct.unpack("<Q", _read_exact(f, 8, path))[0] for _ in range(ndim)
        )
        class_count = struct.unpack("<I", _read_exact(f, 4, path))[0]
        if not 0 < class_count <= BFELDATA_MAX_CLASSES:
            raise DataFormatError(
                f"{path}: class count {class_count} outside 1..{BFELDATA_MAX_CLASSES}"
            )
        per = math.prod(shape)  # Python ints: a forged header cannot wrap
        _check_payload(f, count * per * 8 + count * 2, path)
        samples = np.frombuffer(
            _read_exact(f, count * per * 8, path), dtype="<f8"
        ).reshape((count,) + shape)
        labels = np.frombuffer(_read_exact(f, count * 2, path), dtype="<u2")
    return _dataset(path, samples, labels, class_count)


def _dataset(path, samples, labels, class_count) -> Dataset:
    """The Dataset a loader read from `path`; a rejection names the file."""
    try:
        return Dataset(samples, labels, class_count)
    except DataFormatError as e:
        raise DataFormatError(f"{path}: {e}") from None


def partition(
    dataset: Dataset, client_count: int, mode: str, shards_per_client: int, seed: int
) -> list[Dataset]:
    """Split a dataset into disjoint, exhaustive, non-empty per-client
    datasets: a seeded iid split (mode "iid"), or label-sorted shards dealt
    out shards_per_client to each client (mode "noniid_shards"). Too few
    samples for the clients or shards raise before any split is built."""
    if client_count < 1:
        raise PartitionError("client_count must be >= 1")
    if mode not in ("iid", "noniid_shards"):
        raise PartitionError(f"unknown partition mode {mode!r}")
    n = len(dataset)
    rng = np.random.default_rng(seed)
    if mode == "iid":
        if n < client_count:
            raise PartitionError(f"{client_count} clients requested from {n} samples")
        order = rng.permutation(n)
        splits = np.array_split(order, client_count)
    else:
        if shards_per_client < 1:
            raise PartitionError("shards_per_client must be >= 1")
        shard_count = client_count * shards_per_client
        if shard_count > n:
            raise PartitionError(
                f"{shard_count} shards requested from {n} samples"
            )
        by_label = np.argsort(dataset.labels, kind="stable")
        shards = np.array_split(by_label, shard_count)
        shard_order = rng.permutation(shard_count)
        splits = [
            np.concatenate(
                [
                    shards[shard_order[c * shards_per_client + s]]
                    for s in range(shards_per_client)
                ]
            )
            for c in range(client_count)
        ]
    return [dataset.subset(np.sort(idx)) for idx in splits]


def synth_blobs(
    class_count: int, per_class: int, dim: int, spread: float, seed: int
) -> Dataset:
    """Gaussian clusters at seeded random centers; labels = cluster index."""
    if class_count < 1 or per_class < 1 or dim < 1:
        raise ValueError("class_count, per_class and dim must be positive")
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-1.0, 1.0, size=(class_count, dim))
    # each class's draws go straight into its rows, scaled and shifted in
    # place: the same products and sums as centers[c] + spread * draws
    samples = np.empty((class_count * per_class, dim))
    for c in range(class_count):
        rows = samples[c * per_class : (c + 1) * per_class]
        rng.standard_normal(out=rows)
        rows *= spread
        rows += centers[c]
    labels = np.repeat(np.arange(class_count), per_class)
    return Dataset(samples, labels, class_count)

