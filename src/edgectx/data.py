"""Dataset ingestion, normalization, splitting and synthetic sensor data.

CSV convention: comma-separated UTF-8, decimal-point reals, an optional
single header line, and a label column that is either the final column or
named in the header. Labels are mapped to class indices in order of first
appearance, so row order defines the class numbering.
"""

from __future__ import annotations

import logging
import math
import zlib
from dataclasses import dataclass, replace
from pathlib import Path

from .rng import Rng

log = logging.getLogger(__name__)


class DataFormatError(ValueError):
    """A file or row does not match the expected dataset layout."""


@dataclass(frozen=True)
class Sample:
    features: tuple[float, ...]
    label: int
    timestamp: int | None = None  # milliseconds since epoch, when known

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, self.features)):
            raise ValueError("sample features must be finite")


@dataclass(frozen=True)
class SensorReading:
    sensor_id: str
    timestamp: int  # milliseconds
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, self.values)):
            raise ValueError("sensor reading contains non-finite values")


def json_string(value, name: str) -> str:
    """``value`` when it is a JSON string; a number, a list or an object
    raises TypeError, though ``str()`` would take it."""
    if type(value) is not str:
        raise TypeError(f"{name} is not a string: {value!r}")
    return value


def json_integer(value, name: str) -> int:
    """``value`` when it is a JSON integer; a bool or a float, integral or
    not, raises TypeError, though ``int()`` would take it."""
    if type(value) is not int:
        raise TypeError(f"{name} is not an integer: {value!r}")
    return value


def json_numbers(obj, name: str) -> list:
    """The list ``obj`` when every item is a JSON number, an int or a
    float; a bool or a string raises TypeError, though ``float()`` would
    take it."""
    if not isinstance(obj, list):
        raise TypeError(f"{name} is not a list")
    if not set(map(type, obj)) <= {float, int}:
        raise TypeError(f"{name} holds a value that is not a number")
    return obj


@dataclass(frozen=True)
class Dataset:
    samples: tuple[Sample, ...]
    feature_names: tuple[str, ...]
    class_names: tuple[str, ...]
    normalization: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self) -> None:
        width = len(self.feature_names)
        for i, s in enumerate(self.samples):
            if len(s.features) != width:
                raise DataFormatError(
                    f"sample {i} has {len(s.features)} features, expected {width}"
                )
            if not 0 <= s.label < len(self.class_names):
                raise DataFormatError(f"sample {i} label {s.label} out of range")
        if self.normalization is not None and len(self.normalization) != width:
            raise ValueError("normalization width does not match features")

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    def class_counts(self) -> list[int]:
        counts = [0] * self.n_classes
        for s in self.samples:
            counts[s.label] += 1
        return counts

    def fingerprint(self) -> tuple[int, int]:
        """(row count, CRC-32 of the canonical feature/label text)."""
        text = "\n".join(
            ",".join(repr(v) for v in s.features) + f";{s.label}" for s in self.samples
        )
        return len(self.samples), zlib.crc32(text.encode("utf-8"))


def load_csv(
    path: str | Path,
    *,
    label_column: int | str = -1,
    has_header: bool | None = None,
    missing_token: str | None = None,
) -> Dataset:
    """Read a labeled feature CSV into a Dataset.

    ``label_column`` is a column index (default: final column) or a header
    name (which requires a header line). ``has_header=None`` sniffs: if any
    feature cell of the first row fails to parse as a real, the row is
    treated as a header. Pass an explicit bool for numeric-looking headers.
    Rows containing ``missing_token`` in any cell are dropped (the count is
    logged).
    """
    import csv  # here, so that the server, which reads no CSV, starts without it

    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [(lineno, row) for lineno, row in enumerate(csv.reader(fh), start=1) if row]
    if not rows:
        raise DataFormatError(f"{path}: empty dataset file")

    width = len(rows[0][1])
    header: list[str] | None = None

    if isinstance(label_column, str):
        if has_header is False:
            raise DataFormatError(
                f"{path}: label column {label_column!r} given by name but has_header=False"
            )
        header = [c.strip() for c in rows[0][1]]
        rows = rows[1:]
        if label_column not in header:
            raise DataFormatError(f"{path}: unknown label column {label_column!r}")
        label_idx = header.index(label_column)
    else:
        label_idx = label_column if label_column >= 0 else width + label_column
        if not 0 <= label_idx < width:
            raise DataFormatError(f"{path}: label column {label_column} out of range")
        sniff = has_header
        if sniff is None:
            first = rows[0][1]
            sniff = any(
                not _parses_as_real(cell)
                for i, cell in enumerate(first)
                if i != label_idx
            )
        if sniff:
            header = [c.strip() for c in rows[0][1]]
            rows = rows[1:]
    if not rows:
        raise DataFormatError(f"{path}: header but no data rows")
    samples: list[Sample] = []
    class_index: dict[str, int] = {}
    class_names: list[str] = []
    dropped = 0
    for lineno, row in rows:
        if len(row) != width:
            raise DataFormatError(
                f"{path}:{lineno}: expected {width} columns, found {len(row)}"
            )
        if missing_token is not None and any(c.strip() == missing_token for c in row):
            dropped += 1
            continue
        feats = []
        for i, cell in enumerate(row):
            if i == label_idx:
                continue
            try:
                feats.append(float(cell))
            except ValueError:
                raise DataFormatError(
                    f"{path}:{lineno}: column {i} value {cell!r} is not a real number"
                ) from None
        token = row[label_idx].strip()
        if token not in class_index:
            class_index[token] = len(class_names)
            class_names.append(token)
        samples.append(Sample(tuple(feats), class_index[token]))

    if dropped:
        log.warning("%s: dropped %d row(s) containing %r", path, dropped, missing_token)
    if not samples:
        raise DataFormatError(f"{path}: no usable data rows")
    feature_names = tuple(
        name for i, name in enumerate(header) if i != label_idx
    ) if header else tuple(f"f{i}" for i in range(width - 1))
    return Dataset(tuple(samples), feature_names, tuple(class_names))


def _parses_as_real(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def normalize_minmax(data: Dataset) -> Dataset:
    """Fit per-feature (min, max) on ``data`` and map every feature to [0, 1].

    Constant features map to 0.0. The fitted ranges are stored on the result
    so they can be applied to held-out data with ``apply_minmax``.
    """
    if not data.samples:
        raise ValueError("cannot normalize an empty dataset")
    columns = zip(*(s.features for s in data.samples))
    return apply_minmax(data, tuple((float(min(c)), float(max(c))) for c in columns))


def apply_minmax(data: Dataset, normalization: tuple[tuple[float, float], ...]) -> Dataset:
    """Apply stored (min, max) ranges, clamping unseen values into [0, 1]."""
    samples = tuple(
        replace(s, features=apply_minmax_vector(s.features, normalization))
        for s in data.samples
    )
    return replace(data, samples=samples, normalization=normalization)


def apply_minmax_vector(
    features: tuple[float, ...] | list[float],
    normalization: tuple[tuple[float, float], ...],
) -> tuple[float, ...]:
    if len(features) != len(normalization):
        raise ValueError("feature width does not match normalization")
    out = []
    for v, (lo, hi) in zip(features, normalization):
        if hi <= lo:
            out.append(0.0)
        else:
            out.append(min(1.0, max(0.0, (v - lo) / (hi - lo))))
    return tuple(out)


def stratified_split(
    data: Dataset, test_fraction: float, seed: int
) -> tuple[Dataset, Dataset]:
    """Deterministic per-class proportional train/test split.

    Each class contributes round(fraction * count) test samples, clamped so
    both sides keep at least one sample of every class.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    counts = data.class_counts()
    for c, n in enumerate(counts):
        if n < 2:
            raise ValueError(
                f"class {data.class_names[c]!r} has {n} sample(s); need at least 2 to split"
            )
    rng = Rng(seed)
    by_class: list[list[int]] = [[] for _ in data.class_names]
    for i, s in enumerate(data.samples):
        by_class[s.label].append(i)
    test_idx: set[int] = set()
    for indices in by_class:
        pool = list(indices)
        rng.shuffle(pool)
        take = int(round(test_fraction * len(pool)))
        take = max(1, min(len(pool) - 1, take))
        test_idx.update(pool[:take])
    train_samples = tuple(s for i, s in enumerate(data.samples) if i not in test_idx)
    test_samples = tuple(s for i, s in enumerate(data.samples) if i in test_idx)
    base = replace(data, normalization=None)
    return replace(base, samples=train_samples), replace(base, samples=test_samples)


STILL_CLASS = 0
MOTION_CLASS = 1


def synth_still_motion(
    n: int,
    seed: int,
    *,
    motion_fraction: float = 0.15,
    still_mean: float = 0.12,
    still_sd: float = 0.08,
    motion_mean: float = 2.2,
    motion_sd: float = 0.7,
    reading_period_ms: int = 100,
) -> Dataset:
    """Two-axis accelerometer-magnitude clusters: low/tight for a still
    device, higher and wider for a device in motion.

    Class counts are exact (both classes always present); sample order is a
    seeded shuffle. Defaults skew ~85/15 toward "still" to mimic typical
    phone usage.
    """
    if n < 2:
        raise ValueError("need at least 2 samples")
    if not 0.0 < motion_fraction < 1.0:
        raise ValueError("motion_fraction must be in (0, 1)")
    rng = Rng(seed)
    n_motion = max(1, min(n - 1, int(round(n * motion_fraction))))
    labels = [MOTION_CLASS] * n_motion + [STILL_CLASS] * (n - n_motion)
    rng.shuffle(labels)
    samples = []
    for i, label in enumerate(labels):
        if label == MOTION_CLASS:
            x = abs(rng.gauss(motion_mean, motion_sd))
            y = abs(rng.gauss(motion_mean, motion_sd))
        else:
            x = abs(rng.gauss(still_mean, still_sd))
            y = abs(rng.gauss(still_mean, still_sd))
        samples.append(Sample((x, y), label, timestamp=i * reading_period_ms))
    return Dataset(
        tuple(samples),
        feature_names=("accel_x", "accel_y"),
        class_names=("still", "motion"),
    )


def relabel(data: Dataset, mapping: dict[str, str]) -> Dataset:
    """Merge/rename classes by mapping old class names to new ones.

    New class indices follow first appearance of the new names in the old
    ordering. Used e.g. to collapse multi-grade labels into a binary task.
    """
    new_names: list[str] = []
    old_to_new: list[int] = []
    for name in data.class_names:
        target = mapping.get(name, name)
        if target not in new_names:
            new_names.append(target)
        old_to_new.append(new_names.index(target))
    samples = tuple(replace(s, label=old_to_new[s.label]) for s in data.samples)
    return Dataset(samples, data.feature_names, tuple(new_names))


def dataset_from_readings(
    pairs: list[tuple[SensorReading, int]],
    feature_names: tuple[str, ...],
    class_names: tuple[str, ...],
) -> Dataset:
    """Build a training dataset from labeled uploaded readings."""
    samples = tuple(
        Sample(tuple(r.values), label, timestamp=r.timestamp) for r, label in pairs
    )
    return Dataset(samples, feature_names, class_names)
