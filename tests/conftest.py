"""Shared dataset access and parameter comparison for the test suite.

Test modules import ``same_params`` from here. iris comes from
scikit-learn's bundled copy. The wheat-seeds and heart-disease benchmark
files are user-supplied (UCI downloads, see README): tests that need them
look under $EDGECTX_DATASETS (default ./datasets) and skip with download
instructions when absent.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from edgectx.data import Dataset, Sample, load_csv

DATASET_DIR = Path(
    os.environ.get("EDGECTX_DATASETS", Path(__file__).resolve().parent.parent / "datasets")
)

SEEDS_HINT = (
    "supply the UCI wheat-seeds data as {dir}/seeds.csv or the original "
    "seeds_dataset.txt (7 features + class column; "
    "https://archive.ics.uci.edu/dataset/236/seeds)"
)
HEART_HINT = (
    "supply the UCI Cleveland heart-disease data as {dir}/heart.csv or the "
    "original processed.cleveland.data (13 features + 0-4 label; "
    "https://archive.ics.uci.edu/dataset/45/heart+disease)"
)


def same_params(a, b) -> bool:
    """Whether two ``NetworkParameters`` share a topology and hold the same
    parameters bit for bit. Compared as ``float.hex``, since tuple ``==``
    takes -0.0 for 0.0."""
    return a.spec == b.spec and [v.hex() for v in a.flat] == [v.hex() for v in b.flat]


@pytest.fixture(scope="session")
def iris():
    sklearn = pytest.importorskip("sklearn.datasets")
    raw = sklearn.load_iris()
    samples = tuple(
        Sample(tuple(float(v) for v in row), int(label))
        for row, label in zip(raw.data, raw.target)
    )
    return Dataset(
        samples,
        feature_names=tuple(str(n) for n in raw.feature_names),
        class_names=tuple(str(n) for n in raw.target_names),
    )


def _first_existing(*names: str) -> Path | None:
    for name in names:
        path = DATASET_DIR / name
        if path.exists():
            return path
    return None


def _whitespace_to_csv(path: Path, tmp_dir: Path) -> Path:
    """UCI ships some files whitespace-separated; normalize to CSV."""
    text = path.read_text(encoding="utf-8")
    if "," in text.splitlines()[0]:
        return path
    out = tmp_dir / (path.stem + ".csv")
    lines = []
    for line in text.splitlines():
        parts = line.split()
        if parts:
            lines.append(",".join(parts))
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return out


@pytest.fixture(scope="session")
def seeds(tmp_path_factory):
    path = _first_existing("seeds.csv", "seeds_dataset.txt")
    if path is None:
        pytest.skip(SEEDS_HINT.format(dir=DATASET_DIR))
    path = _whitespace_to_csv(path, tmp_path_factory.mktemp("seeds"))
    data = load_csv(path)
    assert data.n_features == 7 and data.n_classes == 3, "unexpected seeds layout"
    return data


@pytest.fixture(scope="session")
def heart(tmp_path_factory):
    path = _first_existing("heart.csv", "processed.cleveland.data")
    if path is None:
        pytest.skip(HEART_HINT.format(dir=DATASET_DIR))
    path = _whitespace_to_csv(path, tmp_path_factory.mktemp("heart"))
    data = load_csv(path, missing_token="?")
    assert data.n_features == 13 and data.n_classes == 5, "unexpected heart layout"
    return data
