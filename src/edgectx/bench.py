"""Wall-clock execution-time comparison of the four algorithms.

Predictors (LCL, ADCL) are timed per prediction; trainers (CL, DCL) per
full training run under their default profiles on the same still/motion
data. Warm-up iterations are excluded from the statistics.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from dataclasses import dataclass

from . import nn
from .data import normalize_minmax, synth_still_motion
from .learners import (
    CL_DEFAULT_CONFIG,
    DCL_DEFAULT_CONFIG,
    adcl_predict,
    cl_train,
    dcl_train,
    lcl_predict,
    p95,
)
from .nn import LayerSpec

BENCH_ALGORITHMS = ("CL", "LCL", "DCL", "ADCL")


@dataclass(frozen=True)
class BenchRow:
    algorithm: str
    phase: str  # "predict" or "train"
    mean_us: float
    p95_us: float
    repetitions: int
    model_size: str


def bench_execution(
    algorithms: tuple[str, ...] = BENCH_ALGORITHMS,
    model_sizes: tuple[int, ...] | None = None,
    repetitions: int = 1_000,
    *,
    train_repetitions: int | None = None,
    dataset_size: int = 400,
    seed: int = 7,
) -> list[BenchRow]:
    """Latency table over the still/motion task.

    ``model_sizes`` lists hidden widths to benchmark for the deep pair; by
    default the standard width rule is used. ``repetitions`` applies to
    per-prediction timing; training runs default to repetitions // 200 (at
    least 3) since a single run is itself thousands of updates. The garbage
    collector is paused inside timed sections so collection pauses from
    surrounding work do not pollute per-call statistics.
    """
    if repetitions < 100:
        raise ValueError("repetitions must be at least 100")
    for a in algorithms:
        if a not in BENCH_ALGORITHMS:
            raise ValueError(f"unknown algorithm {a!r}")
    raw = synth_still_motion(dataset_size, seed)
    data = normalize_minmax(raw)
    inputs = [s.features for s in data.samples]
    train_reps = (
        max(3, repetitions // 200) if train_repetitions is None
        else max(1, train_repetitions)
    )
    widths = model_sizes or (
        nn.hidden_size_default(data.n_features, data.n_classes),
    )
    single = f"{data.n_features}->{data.n_classes}"

    cl_model = cl_train(data, CL_DEFAULT_CONFIG)

    # trainers, and separately predictors, are timed in interleaved rounds
    # so host-load drift hits all of them alike instead of biasing
    # whichever ran later
    trainers: list[tuple[str, object, str]] = []
    predictors: list[tuple[str, object, str]] = []
    if "CL" in algorithms:
        trainers.append(("CL", lambda: cl_train(data, CL_DEFAULT_CONFIG), single))
    if "LCL" in algorithms:
        predictors.append(("LCL", lambda vec: lcl_predict(cl_model, vec), single))

    for width in widths:
        spec = LayerSpec(data.n_features, (width,), data.n_classes)
        deep = f"{data.n_features}->{width}->{data.n_classes}"
        if "DCL" in algorithms:
            trainers.append(
                ("DCL", lambda s=spec: dcl_train(data, s, DCL_DEFAULT_CONFIG), deep)
            )
        if "ADCL" in algorithms:
            dcl_params = dcl_train(data, spec, DCL_DEFAULT_CONFIG)
            predictors.append(
                ("ADCL", lambda vec, p=dcl_params: adcl_predict(p, vec), deep)
            )

    train_lats = _time_runs_interleaved([fn for _, fn, _ in trainers], train_reps)
    rows = [
        BenchRow(name, "train", _mean(lats), p95(lats), train_reps, size)
        for (name, _, size), lats in zip(trainers, train_lats)
    ]
    predict_lats = _time_calls_interleaved(
        [fn for _, fn, _ in predictors], inputs, repetitions
    )
    predict_rows = [
        BenchRow(name, "predict", _mean(lats), p95(lats), len(lats), size)
        for (name, _, size), lats in zip(predictors, predict_lats)
    ]
    # report in the conventional order: CL, LCL, DCL, ADCL
    order = {name: i for i, name in enumerate(BENCH_ALGORITHMS)}
    return sorted(rows + predict_rows, key=lambda r: order[r.algorithm])


def rows_to_csv(rows: list[BenchRow]) -> str:
    lines = ["algorithm,phase,mean_us,p95_us,repetitions,model_size"]
    for r in rows:
        lines.append(
            f"{r.algorithm},{r.phase},{r.mean_us:.3f},{r.p95_us:.3f},"
            f"{r.repetitions},{r.model_size}"
        )
    return "\n".join(lines) + "\n"


@contextmanager
def _gc_paused():
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _time_calls_interleaved(fns, inputs, repetitions: int) -> list[list[float]]:
    """Per-call latencies for several functions, measured in alternating
    chunks over the same inputs."""
    if not fns:
        return []
    warmup = max(50, repetitions // 10)
    for fn in fns:
        for i in range(warmup):
            fn(inputs[i % len(inputs)])
    rounds = 20
    chunk = max(1, repetitions // rounds)
    lats: list[list[float]] = [[] for _ in fns]
    with _gc_paused():
        for r in range(rounds):
            for k, fn in enumerate(fns):
                for i in range(r * chunk, (r + 1) * chunk):
                    vec = inputs[i % len(inputs)]
                    t0 = time.perf_counter_ns()
                    fn(vec)
                    lats[k].append((time.perf_counter_ns() - t0) / 1000.0)
    return lats


def _time_runs_interleaved(fns, repetitions: int) -> list[list[float]]:
    """Whole-run latencies for several functions, one run of each per round."""
    for fn in fns:
        fn()  # warm-up run
    lats: list[list[float]] = [[] for _ in fns]
    with _gc_paused():
        for _ in range(repetitions):
            for k, fn in enumerate(fns):
                t0 = time.perf_counter_ns()
                fn()
                lats[k].append((time.perf_counter_ns() - t0) / 1000.0)
    return lats


def _mean(lats: list[float]) -> float:
    return sum(lats) / len(lats)
