"""Order statistics shared by the workloads."""

from __future__ import annotations

import math
from statistics import median


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 1]."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def predict_p50_us(by_predictor: dict[str, list[int]]) -> float:
    """Median latency of each predictor, averaged over predictors.

    Pooling predictors of different cost puts the pooled median in a gap
    between their modes, where it jumps from run to run.
    """
    return sum(percentile(v, 0.50) for v in by_predictor.values()) / len(by_predictor) / 1e3


def pooled_p99_us(*by_predictor: dict[str, list[int]]) -> float:
    """p99 over every latency of every predictor in every given job."""
    return percentile([x for job in by_predictor for v in job.values() for x in v], 0.99) / 1e3


def jobs_predict_p50_us(jobs: list[dict[str, list[int]]]) -> float:
    """The median over jobs (or live cycles) of each job's ``predict_p50_us``."""
    return median(predict_p50_us(job) for job in jobs)
