"""The two offline workloads: the DCL k-fold sweep and the outage simulation.

Both call edgectx through its public functions only. The sweep is the
``edgectx train --sweep`` path (``kfold_cross_validate`` over
``make_dcl_trainer``); the simulation goes through ``edgectx simulate``
itself, with the committed scenario file and the seed swapped in.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import edgectx.cli
import edgectx.learners
from edgectx import nn
from edgectx.nn import TrainingConfig

import clusters
from checks import Checks

ROOT = Path(__file__).resolve().parent.parent
SCENARIO = ROOT / "scenarios" / "outage.json"

SWEEP_LRS = (0.3, 0.6)
SWEEP_DEPTHS = (1, 3, 5, 9)
SWEEP_FOLDS = 3
# few enough epochs that one sweep is a few seconds, enough that the
# one-hidden-layer cells move off the majority class
SWEEP_EPOCHS = 6
# `edgectx train --seed` default; the workload seed only picks the rows
TRAIN_SEED = 1
# one scenario run takes 13-17 s on a 2-core VM; three give a median that
# one slow stretch of a shared host cannot move
SIM_MIN_JOBS = 3


@dataclass
class JobRecord:
    """What repeated jobs of one workload measured and checked."""

    job_s: list[float] = field(default_factory=list)
    cpu_s: list[float] = field(default_factory=list)
    # per job, prediction latencies by predictor (client algorithm, or
    # trained model in the sweep)
    predict_ns: list[dict[str, list[int]]] = field(default_factory=list)
    accuracy: float = 0.0
    attempted: int = 0
    failed: int = 0
    checks: Checks = field(default_factory=Checks)
    # what each job computed; repeats of one seed must agree
    results: list = field(default_factory=list)
    # per-layer values the workload counts itself
    layer: dict[str, float] = field(default_factory=dict)


def _repeat(job, seconds: float, min_jobs: int, max_jobs: int | None) -> None:
    """Run ``job`` at least ``min_jobs`` times and until ``seconds`` pass.

    The collector is paused inside each job, as ``edgectx bench`` does, so
    collections triggered by earlier jobs do not land in this one's
    per-prediction latencies.
    """
    start = time.perf_counter()
    done = 0
    while done < min_jobs or (time.perf_counter() - start < seconds
                              and (max_jobs is None or done < max_jobs)):
        gc.collect()
        gc.disable()
        try:
            job()
        finally:
            gc.enable()
        done += 1


# -- train-sweep -------------------------------------------------------------


def _timed_trainer(trainer, predict_ns: dict[str, list[int]], tracer, cell: str):
    """``trainer`` with each fold's predictions timed into ``predict_ns``
    under the fold's own key, which also names the fold's request."""
    fold = 0

    def timed(train_data):
        nonlocal fold
        key = f"{cell}-fold{fold}"
        fold += 1
        if tracer is not None:
            tracer.set_request(key)
        predict = trainer(train_data)
        lats = predict_ns.setdefault(key, [])

        def timed_predict(features):
            t0 = time.perf_counter_ns()
            label = predict(features)
            lats.append(time.perf_counter_ns() - t0)
            return label

        return timed_predict

    return timed


def sweep_once(data, epochs: int, predict_ns: dict[str, list[int]], tracer=None):
    """Fold accuracies of every (lr, depth) cell of the grid.

    Prediction latencies are kept per trained model: whether a model's
    hidden units saturate changes its forward-pass cost by up to 2x, so a
    median pooled over models lands between the two groups and jumps.
    """
    width = nn.hidden_size_default(data.n_features, data.n_classes)
    out = {}
    for lr in SWEEP_LRS:
        for depth in SWEEP_DEPTHS:
            trainer = edgectx.learners.make_dcl_trainer(
                (width,) * depth,
                TrainingConfig(learning_rate=lr, epochs=epochs, seed=TRAIN_SEED),
            )
            timed = _timed_trainer(trainer, predict_ns, tracer, f"lr{lr}-d{depth}")
            result = edgectx.learners.kfold_cross_validate(data, SWEEP_FOLDS, timed, TRAIN_SEED)
            out[(lr, depth)] = result.fold_accuracies
    return out


def train_sweep(seed: int, seconds: float, *, epochs: int = SWEEP_EPOCHS,
                min_jobs: int = 2, max_jobs: int | None = None,
                tracer=None) -> JobRecord:
    rec = JobRecord()
    data = clusters.heart_like(seed)

    def job() -> None:
        t0, c0 = time.perf_counter(), time.process_time()
        by_model: dict[str, list[int]] = {}
        cells = sweep_once(data, epochs, by_model, tracer)
        rec.predict_ns.append(by_model)
        rec.job_s.append(time.perf_counter() - t0)
        rec.cpu_s.append(time.process_time() - c0)
        for cell, accs in cells.items():
            rec.attempted += len(accs)
            bad = [a for a in accs if not (math.isfinite(a) and 0.0 <= a <= 1.0)]
            rec.failed += len(bad)
            rec.checks.check("sweep.accuracy_in_unit_range", not bad, f"cell {cell}: {bad}")
        rec.results.append(cells)
        rec.accuracy = sum(sum(a) / len(a) for a in cells.values()) / len(cells)

    _repeat(job, seconds, min_jobs, max_jobs)
    return rec


def check_repeats(rec: JobRecord, name: str) -> None:
    """Every job of one seed computed what the first one did."""
    differ = sum(1 for r in rec.results[1:] if r != rec.results[0])
    rec.failed += differ
    rec.checks.check(name, len(rec.results) > 1 and not differ,
                     f"{differ} of {len(rec.results) - 1} repeats differ from the first run")


# -- sim-outage --------------------------------------------------------------


def outage_scenario(seed: int, scale: float = 1.0) -> dict:
    """The committed scenario with ``seed`` as the scenario and source seed.

    ``scale`` shrinks every time in it, for quick checks of the harness.
    """
    cfg = json.loads(SCENARIO.read_text(encoding="utf-8"))
    cfg["seed"] = seed
    for node in cfg["nodes"]:
        node["source"]["seed"] = seed
    if scale != 1.0:
        cfg["duration_ms"] = int(cfg["duration_ms"] * scale)
        cfg["link"]["outage_windows"] = [
            [int(a * scale), int(b * scale)] for a, b in cfg["link"]["outage_windows"]
        ]
    return cfg


def simulate(cfg: dict, workdir: Path):
    """Run ``edgectx simulate`` on ``cfg``; returns its ScenarioResult."""
    path = workdir / "scenario.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    captured = []
    run_scenario = edgectx.cli.run_scenario

    def capture(*args, **kwargs):
        result = run_scenario(*args, **kwargs)
        captured.append(result)
        return result

    edgectx.cli.run_scenario = capture
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = edgectx.cli.main(
                ["simulate", "--scenario", str(path), "--out-dir", str(workdir / "sim-out")]
            )
    finally:
        edgectx.cli.run_scenario = run_scenario
    if code != 0 or len(captured) != 1:
        raise RuntimeError(f"edgectx simulate exited {code}")
    return captured[0]


def check_scenario(cfg: dict, result, checks: Checks) -> None:
    """The outage properties the paper claims, on one simulated run."""
    latency = int(cfg["link"].get("latency_ms", 0))
    period = int(cfg["sync_period_ms"])
    for algo in (a for a in cfg["algorithms"] if a in ("ADCL", "LCL")):
        ticks = [t for t in result.ticks if t.algorithm == algo]
        predicted = sum(1 for t in ticks if t.correct is not None)
        checks.check("sim.every_reading_predicted", predicted == result.emitted_readings,
                     f"{algo} predicted {predicted} of {result.emitted_readings} readings")
        for start, end in cfg["link"]["outage_windows"]:
            inside = {t.model_version for t in ticks
                      if start + 2 * latency <= t.sim_time_ms < end + 2 * latency}
            after = {t.model_version for t in ticks if end <= t.sim_time_ms <= end + 2 * period}
            checks.check("sim.version_frozen_in_outage", len(inside) == 1,
                         f"{algo} held versions {sorted(inside)} during {start}-{end}")
            checks.check("sim.version_rises_after_outage",
                         bool(inside) and max(after, default=0) > min(inside),
                         f"{algo} held {sorted(after)} for 2 sync periods after {end}")
    checks.check("sim.received_equals_sent",
                 result.server_received_distinct == result.client_sent_readings,
                 f"server got {result.server_received_distinct} distinct readings, "
                 f"client sent {result.client_sent_readings}")


def sim_outage(seed: int, seconds: float, workdir: Path, *, scale: float = 1.0,
               min_jobs: int = SIM_MIN_JOBS, max_jobs: int | None = None, tracer=None) -> JobRecord:
    rec = JobRecord()
    cfg = outage_scenario(seed, scale)

    def job() -> None:
        t0, c0 = time.perf_counter(), time.process_time()
        result = simulate(cfg, workdir)
        rec.job_s.append(time.perf_counter() - t0)
        rec.cpu_s.append(time.process_time() - c0)
        predicted = [t for t in result.ticks if t.correct is not None]
        # one predictor per client algorithm and bundle version, as in the
        # sweep: saturated and unsaturated models differ in forward cost
        by_model: dict[str, list[int]] = {}
        for t in predicted:
            by_model.setdefault(f"{t.algorithm}-v{t.model_version}", []).append(
                int(t.latency_us * 1e3))
        rec.predict_ns.append(by_model)
        rec.attempted += len(result.ticks)
        rec.failed += len(result.ticks) - len(predicted)
        check_scenario(cfg, result, rec.checks)
        rec.results.append(result.canonical_bytes())
        rec.accuracy = result.metrics["ADCL"].accuracy
        rec.layer["sim.predictions"] = len(predicted)
        rec.layer["sim.publishes"] = len(result.published)

    _repeat(job, seconds, min_jobs, max_jobs)
    return rec
