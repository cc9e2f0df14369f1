"""Deterministic in-process simulation of the three-tier architecture.

A virtual clock drives sensor nodes (sensor delay, duty cycles, sleep
intervals), an edge client that predicts every reading with whatever
parameters it currently holds, a lossy link (latency, random drops, outage
windows applied to each direction at its send time), and a server that
retrains on accumulated uploads and publishes versioned bundles. A published
version is trained when a prediction first reads it, on the rows and seed it
was published with, so a version replaced before any prediction reads it
costs nothing and every output is the same as if it had been trained at
publish time. Everything except wall-clock prediction latency is a pure
function of the configuration and seed.
"""

from __future__ import annotations

import heapq
import json
import time
from dataclasses import dataclass, replace
from functools import cached_property

from . import nn
from .bundle import MODEL_KIND_CL, MODEL_KIND_DCL, ParameterBundle
from .data import Dataset, dataset_from_readings, SensorReading
from .learners import (
    Metrics,
    adcl_predict,
    calibrate_thresholds,
    lcl_predict,
    metrics_from_counts,
)
from .nn import LayerSpec, TrainingConfig
from .rng import Rng

ALGORITHMS = ("CL", "LCL", "DCL", "ADCL")
_CLIENT_ALGOS = {"ADCL": MODEL_KIND_DCL, "LCL": MODEL_KIND_CL}
_SERVER_ALGOS = {"DCL": MODEL_KIND_DCL, "CL": MODEL_KIND_CL}


@dataclass(frozen=True)
class SensorNodeConfig:
    """One sensor: emits ``duty_length`` labeled readings ``sensor_delay_ms``
    apart, pauses ``sleep_interval_ms``, and repeats. Readings are drawn
    from ``source`` with the node's seeded stream."""

    sensor_id: str
    sensor_delay_ms: int
    source: Dataset
    sleep_interval_ms: int = 0
    duty_length: int = 1

    def __post_init__(self) -> None:
        if self.sensor_delay_ms < 1:
            raise ValueError("sensor_delay_ms must be at least 1")
        if self.sleep_interval_ms < 0:
            raise ValueError("sleep_interval_ms must be non-negative")
        if self.duty_length < 1:
            raise ValueError("duty_length must be at least 1")
        if not self.source.samples:
            raise ValueError("node source dataset is empty")


@dataclass(frozen=True)
class LinkConfig:
    latency_ms: int = 0
    drop_probability: float = 0.0
    outage_windows: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.latency_ms < 0:
            raise ValueError("latency must be non-negative")
        if not 0.0 <= self.drop_probability <= 1.0:
            raise ValueError("drop_probability must be in [0, 1]")
        windows = tuple((int(a), int(b)) for a, b in self.outage_windows)
        last_end = None
        for start, end in windows:
            if end <= start:
                raise ValueError(f"outage window ({start}, {end}) is empty")
            if last_end is not None and start < last_end:
                raise ValueError("outage windows must be ordered and non-overlapping")
            last_end = end
        object.__setattr__(self, "outage_windows", windows)

    def in_outage(self, t: int) -> bool:
        return any(start <= t < end for start, end in self.outage_windows)


@dataclass
class TickRecord:
    """One prediction attempt for one algorithm."""

    sim_time_ms: int
    algorithm: str
    model_version: int | None
    staleness_ms: int | None
    correct: bool | None  # None when no parameters were available
    rolling_accuracy: float | None
    latency_us: float  # wall-clock; excluded from the deterministic surface


@dataclass
class ScenarioResult:
    ticks: list[TickRecord]
    metrics: dict[str, Metrics]
    emitted_readings: int
    client_sent_readings: int
    server_received_total: int
    server_received_distinct: int
    dropped_from_queue: int
    published: list[tuple[int, str, int]]  # (sim_time, kind, version)

    def canonical_bytes(self) -> bytes:
        """Deterministic serialization: everything driven by the virtual
        clock and seed; measured wall-clock latencies are excluded."""
        doc = {
            "ticks": [
                [t.sim_time_ms, t.algorithm, t.model_version, t.staleness_ms,
                 t.correct, t.rolling_accuracy]
                for t in self.ticks
            ],
            "confusion": {a: m.confusion for a, m in sorted(self.metrics.items())},
            "accuracy": {a: m.accuracy for a, m in sorted(self.metrics.items())},
            "emitted": self.emitted_readings,
            "sent": self.client_sent_readings,
            "received_total": self.server_received_total,
            "received_distinct": self.server_received_distinct,
            "dropped": self.dropped_from_queue,
            "published": self.published,
        }
        return json.dumps(doc, separators=(",", ":"), sort_keys=True).encode("utf-8")

    def ticks_csv(self) -> str:
        lines = ["sim_time_ms,algorithm,model_version,staleness_ms,correct,"
                 "rolling_accuracy,latency_us"]
        for t in self.ticks:
            lines.append(
                f"{t.sim_time_ms},{t.algorithm},"
                f"{'' if t.model_version is None else t.model_version},"
                f"{'' if t.staleness_ms is None else t.staleness_ms},"
                f"{'' if t.correct is None else int(t.correct)},"
                f"{'' if t.rolling_accuracy is None else repr(t.rolling_accuracy)},"
                f"{t.latency_us:.3f}"
            )
        return "\n".join(lines) + "\n"

    def summary_csv(self) -> str:
        lines = ["algorithm,samples,accuracy,tp_rate,tn_rate,fp_rate,fn_rate,"
                 "mean_latency_us,p95_latency_us"]
        for algo in sorted(self.metrics):
            m = self.metrics[algo]
            def fmt(v):
                return "" if v is None else repr(v)
            lines.append(
                f"{algo},{m.sample_count},{repr(m.accuracy)},{fmt(m.tp_rate)},"
                f"{fmt(m.tn_rate)},{fmt(m.fp_rate)},{fmt(m.fn_rate)},"
                f"{m.mean_latency_us:.3f},{m.p95_latency_us:.3f}"
            )
        return "\n".join(lines) + "\n"


def run_scenario(
    nodes: list[SensorNodeConfig],
    link: LinkConfig,
    retrain_every_ms: int,
    algorithms: tuple[str, ...],
    duration_ms: int,
    seed: int,
    *,
    sync_period_ms: int = 1_000,
    upload_every_ms: int = 500,
    warm_start: bool = True,
    warmup_samples: int = 200,
    rolling_window: int = 100,
    queue_capacity: int = 10_000,
    min_retrain_rows: int = 8,
    max_train_rows: int = 2_000,
    dcl_config: TrainingConfig = TrainingConfig(learning_rate=0.3, epochs=30, seed=0),
    cl_config: TrainingConfig = TrainingConfig(learning_rate=0.05, epochs=30, seed=0),
    drain_ticks: int = 200,
) -> ScenarioResult:
    """Discrete-event run of the sensor/edge/server loop.

    With ``warm_start`` the server trains version 1 on a bootstrap slice of
    the node sources before the run and the client begins fully synced, so
    every reading receives a real prediction. After ``duration_ms`` the
    client keeps retrying queued uploads for up to ``drain_ticks`` more
    upload periods (no new readings), so delivery can complete once an
    outage ends.
    """
    if duration_ms <= 0:
        raise ValueError("duration must be positive")
    if not nodes:
        raise ValueError("at least one sensor node is required")
    if not algorithms:
        raise ValueError("at least one algorithm is required")
    for a in algorithms:
        if a not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {a!r}")
    if retrain_every_ms < 1 or sync_period_ms < 1 or upload_every_ms < 1:
        raise ValueError("periods must be positive")
    first = nodes[0].source
    for node in nodes:
        if (node.source.feature_names != first.feature_names
                or node.source.class_names != first.class_names):
            raise ValueError("all node sources must share features and classes")

    runner = _ScenarioRunner(
        nodes, link, retrain_every_ms, tuple(algorithms), duration_ms, seed,
        sync_period_ms=sync_period_ms, upload_every_ms=upload_every_ms,
        warm_start=warm_start, warmup_samples=warmup_samples,
        rolling_window=rolling_window, queue_capacity=queue_capacity,
        min_retrain_rows=min_retrain_rows, max_train_rows=max_train_rows,
        dcl_config=dcl_config, cl_config=cl_config, drain_ticks=drain_ticks,
    )
    return runner.run()


class _ScenarioRunner:
    def __init__(self, nodes, link, retrain_every_ms, algorithms, duration_ms,
                 seed, *, sync_period_ms, upload_every_ms, warm_start,
                 warmup_samples, rolling_window, queue_capacity,
                 min_retrain_rows, max_train_rows, dcl_config, cl_config,
                 drain_ticks) -> None:
        self.nodes = nodes
        self.link = link
        self.retrain_every_ms = retrain_every_ms
        self.algorithms = algorithms
        self.duration_ms = duration_ms
        self.sync_period_ms = sync_period_ms
        self.upload_every_ms = upload_every_ms
        self.warm_start = warm_start
        self.warmup_samples = warmup_samples
        self.rolling_window = rolling_window
        self.queue_capacity = queue_capacity
        self.min_retrain_rows = min_retrain_rows
        self.max_train_rows = max_train_rows
        self.dcl_config = dcl_config
        self.cl_config = cl_config
        self.drain_ticks = drain_ticks

        master = Rng(seed)
        self.node_rngs = {n.sensor_id: master.fork() for n in nodes}
        self.link_rng = master.fork()
        self.train_rng = master.fork()

        self.feature_names = nodes[0].source.feature_names
        self.class_names = nodes[0].source.class_names
        self.n_classes = len(self.class_names)

        self.client_kinds = sorted(
            {_CLIENT_ALGOS[a] for a in algorithms if a in _CLIENT_ALGOS}
        )
        self.server_kinds = sorted(
            set(self.client_kinds)
            | {_SERVER_ALGOS[a] for a in algorithms if a in _SERVER_ALGOS}
        )

        # server state
        self.server_rows: list[tuple[SensorReading, int]] = []
        self.server_versions: dict[str, int] = {}
        self.server_bundles: dict[str, _PendingBundle] = {}
        self.published: list[tuple[int, str, int]] = []
        self.server_received_total = 0
        self.server_seen_keys: set[tuple[str, int]] = set()

        # client state; upload buffer maps (sensor_id, timestamp) to
        # [reading, label, last_sent_ms], insertion-ordered (oldest first)
        self.client_bundles: dict[str, _PendingBundle | None] = dict.fromkeys(
            self.client_kinds
        )
        self.upload_buffer: dict[tuple[str, int], list] = {}
        self.client_sent_keys: set[tuple[str, int]] = set()
        self.dropped_from_queue = 0

        # results
        self.ticks: list[TickRecord] = []
        self.confusion = {
            a: [[0] * self.n_classes for _ in range(self.n_classes)]
            for a in algorithms
        }
        self.latencies = {a: [] for a in algorithms}
        self.rolling = {a: [] for a in algorithms}
        self.emitted = 0

        self.heap: list[tuple[int, int, object]] = []
        self.seq = 0
        self.drain_budget = drain_ticks
        self.resend_after_ms = max(upload_every_ms, 2 * link.latency_ms + 1)

    # -- event plumbing ----------------------------------------------------

    def schedule(self, t: int, fn) -> None:
        self.seq += 1
        heapq.heappush(self.heap, (t, self.seq, fn))

    def run(self) -> ScenarioResult:
        if self.warm_start:
            self._bootstrap()
        for node in self.nodes:
            self.schedule(0, _NodeEmit(self, node, emitted_in_cycle=0))
        self.schedule(self.sync_period_ms, _SyncTick(self))
        self.schedule(self.upload_every_ms, _UploadTick(self))
        self.schedule(self.retrain_every_ms, _RetrainTick(self))
        while self.heap:
            t, _, fn = heapq.heappop(self.heap)
            fn(t)
        metrics = {
            a: metrics_from_counts(self.confusion[a], self.latencies[a])
            for a in self.algorithms
            if sum(map(sum, self.confusion[a]))
        }
        return ScenarioResult(
            ticks=self.ticks,
            metrics=metrics,
            emitted_readings=self.emitted,
            client_sent_readings=len(self.client_sent_keys),
            server_received_total=self.server_received_total,
            server_received_distinct=len(self.server_seen_keys),
            dropped_from_queue=self.dropped_from_queue,
            published=self.published,
        )

    # -- server ------------------------------------------------------------

    def _bootstrap(self) -> None:
        rows: list[tuple[SensorReading, int]] = []
        for node in self.nodes:
            take = min(self.warmup_samples, len(node.source.samples))
            for i in range(take):
                s = node.source.samples[i]
                rows.append(
                    (SensorReading(node.sensor_id, 0, s.features), s.label)
                )
        self.server_rows.extend(rows)
        for kind in self.server_kinds:
            self._publish(kind, created_at=0)
        for kind in self.client_bundles:
            self.client_bundles[kind] = self.server_bundles.get(kind)

    def _publish(self, kind: str, created_at: int) -> None:
        rows = self.server_rows[-self.max_train_rows:]
        if len(rows) < self.min_retrain_rows:
            return
        version = self.server_versions.get(kind, 0) + 1
        seed = self.train_rng.next_u64()
        self.server_versions[kind] = version
        self.server_bundles[kind] = _PendingBundle(
            self, kind, version, created_at, seed, rows
        )
        self.published.append((created_at, kind, version))

    def _train(self, pending: _PendingBundle) -> ParameterBundle:
        data = dataset_from_readings(
            pending.rows, self.feature_names, self.class_names
        )
        seed = pending.seed
        if pending.kind == MODEL_KIND_DCL:
            cfg = replace(self.dcl_config, seed=seed)
            hidden = (nn.hidden_size_default(data.n_features, data.n_classes),)
            spec = LayerSpec(data.n_features, hidden, data.n_classes)
            params, _ = nn.train(nn.init_network(spec, seed), data, cfg)
            thresholds = None
        else:
            cfg = replace(self.cl_config, seed=seed)
            spec = LayerSpec(data.n_features, (), data.n_classes)
            params, _ = nn.train(nn.init_network(spec, seed), data, cfg)
            thresholds = calibrate_thresholds(params, data)
        return ParameterBundle(
            model_kind=pending.kind,
            params=replace(params, version=pending.model_version),
            model_version=pending.model_version,
            created_at=pending.created_at,
            thresholds=thresholds,
        )

    # -- client ------------------------------------------------------------

    def record_prediction(self, t: int, reading: SensorReading, label: int) -> None:
        self.emitted += 1
        for algo in self.algorithms:
            if algo in _CLIENT_ALGOS:
                pending = self.client_bundles[_CLIENT_ALGOS[algo]]
                staleness = None if pending is None else t - pending.created_at
            else:
                pending = self.server_bundles.get(_SERVER_ALGOS[algo])
                staleness = 0 if pending is not None else None
            if pending is None:
                self.ticks.append(
                    TickRecord(t, algo, None, None, None, None, 0.0)
                )
                continue
            bundle = pending.bundle  # trains on first read, outside the timing
            t0 = time.perf_counter_ns()
            if algo in ("ADCL", "DCL"):
                pred = adcl_predict(bundle.params, reading.values).class_index
            else:
                pred = lcl_predict(bundle.as_cl_model, reading.values).class_index
            latency_us = (time.perf_counter_ns() - t0) / 1000.0
            correct = pred == label
            self.confusion[algo][label][pred] += 1
            self.latencies[algo].append(latency_us)
            window = self.rolling[algo]
            window.append(correct)
            if len(window) > self.rolling_window:
                window.pop(0)
            self.ticks.append(
                TickRecord(
                    t, algo, bundle.model_version, staleness, correct,
                    sum(window) / len(window), latency_us,
                )
            )
        self.upload_buffer[(reading.sensor_id, reading.timestamp)] = [
            reading, label, -1_000_000_000,
        ]
        while len(self.upload_buffer) > self.queue_capacity:
            oldest = next(iter(self.upload_buffer))
            del self.upload_buffer[oldest]
            self.dropped_from_queue += 1

    def link_delivers(self, t: int) -> bool:
        if self.link.in_outage(t):
            return False
        if self.link.drop_probability > 0.0 and self.link_rng.bernoulli(
            self.link.drop_probability
        ):
            return False
        return True


@dataclass(eq=False)
class _PendingBundle:
    """A published version, trained when a prediction first reads it.

    Publishing draws the seed and takes the row window, so the trained
    bundle is the one eager training would have made; syncs only pass the
    record along and compare ``model_version``. A version that is replaced
    before any prediction reads it is never trained.
    """

    runner: _ScenarioRunner
    kind: str
    model_version: int
    created_at: int
    seed: int
    rows: list[tuple[SensorReading, int]] | None

    @cached_property
    def bundle(self) -> ParameterBundle:
        bundle = self.runner._train(self)
        self.rows = None
        return bundle


class _NodeEmit:
    def __init__(self, runner: _ScenarioRunner, node: SensorNodeConfig,
                 emitted_in_cycle: int) -> None:
        self.runner = runner
        self.node = node
        self.emitted_in_cycle = emitted_in_cycle

    def __call__(self, t: int) -> None:
        r = self.runner
        node = self.node
        rng = r.node_rngs[node.sensor_id]
        sample = node.source.samples[rng.randrange(len(node.source.samples))]
        reading = SensorReading(node.sensor_id, t, sample.features)
        r.record_prediction(t, reading, sample.label)
        self.emitted_in_cycle += 1
        if self.emitted_in_cycle >= node.duty_length:
            next_t = t + node.sleep_interval_ms + node.sensor_delay_ms
            self.emitted_in_cycle = 0
        else:
            next_t = t + node.sensor_delay_ms
        if next_t < r.duration_ms:
            r.schedule(next_t, self)


class _SyncTick:
    def __init__(self, runner: _ScenarioRunner) -> None:
        self.runner = runner

    def __call__(self, t: int) -> None:
        r = self.runner
        for kind in r.client_kinds:
            if r.link_delivers(t):  # request leg
                arrive = t + r.link.latency_ms
                r.schedule(arrive, _SyncServerReply(r, kind))
        if t + r.sync_period_ms <= r.duration_ms:
            r.schedule(t + r.sync_period_ms, self)


class _SyncServerReply:
    def __init__(self, runner: _ScenarioRunner, kind: str) -> None:
        self.runner = runner
        self.kind = kind

    def __call__(self, t: int) -> None:
        r = self.runner
        bundle = r.server_bundles.get(self.kind)
        if bundle is None:
            return
        if r.link_delivers(t):  # response leg
            r.schedule(
                t + r.link.latency_ms, _SyncClientApply(r, self.kind, bundle)
            )


class _SyncClientApply:
    def __init__(self, runner: _ScenarioRunner, kind: str,
                 bundle: _PendingBundle) -> None:
        self.runner = runner
        self.kind = kind
        self.bundle = bundle

    def __call__(self, t: int) -> None:
        r = self.runner
        held = r.client_bundles[self.kind]
        if held is None or self.bundle.model_version > held.model_version:
            r.client_bundles[self.kind] = self.bundle


class _UploadTick:
    def __init__(self, runner: _ScenarioRunner) -> None:
        self.runner = runner

    def __call__(self, t: int) -> None:
        r = self.runner
        due = [
            key for key, row in r.upload_buffer.items()
            if t - row[2] >= r.resend_after_ms
        ][:500]  # batch cap per tick
        if due:
            sent_rows = []
            for key in due:
                row = r.upload_buffer[key]
                row[2] = t
                r.client_sent_keys.add(key)
                sent_rows.append((row[0], row[1]))
            if r.link_delivers(t):
                r.schedule(
                    t + r.link.latency_ms, _UploadServerReceive(r, sent_rows, due)
                )
        if t + r.upload_every_ms <= r.duration_ms:
            r.schedule(t + r.upload_every_ms, self)
        elif r.upload_buffer and r.drain_budget > 0:
            r.drain_budget -= 1
            r.schedule(t + r.upload_every_ms, self)


class _UploadServerReceive:
    def __init__(self, runner, rows, keys) -> None:
        self.runner = runner
        self.rows = rows
        self.keys = keys

    def __call__(self, t: int) -> None:
        r = self.runner
        for (reading, label), key in zip(self.rows, self.keys):
            r.server_received_total += 1
            if key not in r.server_seen_keys:
                r.server_seen_keys.add(key)
                r.server_rows.append((reading, label))
        if r.link_delivers(t):  # ack leg
            r.schedule(t + r.link.latency_ms, _UploadClientAck(r, self.keys))


class _UploadClientAck:
    def __init__(self, runner, keys) -> None:
        self.runner = runner
        self.keys = set(keys)

    def __call__(self, t: int) -> None:
        r = self.runner
        for key in self.keys:
            r.upload_buffer.pop(key, None)


class _RetrainTick:
    def __init__(self, runner: _ScenarioRunner) -> None:
        self.runner = runner

    def __call__(self, t: int) -> None:
        r = self.runner
        for kind in r.server_kinds:
            r._publish(kind, created_at=t)
        if t + r.retrain_every_ms <= r.duration_ms:
            r.schedule(t + r.retrain_every_ms, self)
