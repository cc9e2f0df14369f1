"""Seeded 13-feature, 5-class cluster data shaped like the Cleveland heart set.

The class geometry (one centre per class) is fixed by a constant stream, so
every seed draws from the same problem; the seed only picks which rows are
drawn. That keeps accuracy comparable from seed to seed while the inputs
still differ. Features sit roughly in [0, 1], the range the server trains
on without normalisation.
"""

from __future__ import annotations

from edgectx.data import Dataset, Sample
from edgectx.rng import Rng

N_FEATURES = 13
N_CLASSES = 5
# class sizes of the 303-row Cleveland file (labels 0-4)
HEART_CLASS_COUNTS = (164, 55, 36, 35, 13)
_GEOMETRY_SEED = 0x5EED_C1A5
# keeps a stream's draws apart from the table drawn with the same seed
_STREAM_SALT = 0x57EA_D1A6
# Tight clusters: at the sweep's epoch count the one-hidden-layer nets at
# lr 0.6 reach 0.7-0.8 while the deeper nets still answer the majority
# class, so the grid mean sits well below 1.0 and moves when a kernel
# changes what training computes. Centres spread over [0, 1] so the
# server, which trains on raw readings, converges in a few epochs.
_CENTRE_LO, _CENTRE_HI = 0.0, 1.0
NOISE_SD = 0.06

FEATURE_NAMES = tuple(f"f{i}" for i in range(N_FEATURES))
CLASS_NAMES = tuple(str(c) for c in range(N_CLASSES))


def class_centres() -> tuple[tuple[float, ...], ...]:
    geo = Rng(_GEOMETRY_SEED)
    span = _CENTRE_HI - _CENTRE_LO
    return tuple(
        tuple(_CENTRE_LO + span * geo.uniform() for _ in range(N_FEATURES))
        for _ in range(N_CLASSES)
    )


def draw_row(rng: Rng, label: int, centres) -> tuple[float, ...]:
    return tuple(rng.gauss(mu, NOISE_SD) for mu in centres[label])


def heart_like(seed: int) -> Dataset:
    """Exact per-class counts, rows in a seeded shuffled order."""
    rng = Rng(seed)
    centres = class_centres()
    labels = [c for c, n in enumerate(HEART_CLASS_COUNTS) for _ in range(n)]
    rng.shuffle(labels)
    samples = tuple(Sample(draw_row(rng, c, centres), c) for c in labels)
    return Dataset(samples, FEATURE_NAMES, CLASS_NAMES)


def stream(seed: int, n: int) -> list[tuple[tuple[float, ...], int]]:
    """``n`` labelled readings with labels drawn at the heart class mix."""
    rng = Rng(seed ^ _STREAM_SALT)
    centres = class_centres()
    total = sum(HEART_CLASS_COUNTS)
    out = []
    for _ in range(n):
        pick = rng.randrange(total)
        label = 0
        while pick >= HEART_CLASS_COUNTS[label]:
            pick -= HEART_CLASS_COUNTS[label]
            label += 1
        out.append((draw_row(rng, label, centres), label))
    return out
