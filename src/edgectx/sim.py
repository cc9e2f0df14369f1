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
from collections import deque
from dataclasses import KW_ONLY, dataclass, replace
from functools import cached_property

from .bundle import ParameterBundle
from .client import SyncState
from .data import Dataset, dataset_from_readings, SensorReading
from .learners import (
    MODEL_KIND_CL,
    MODEL_KIND_DCL,
    Metrics,
    adcl_predict,
    classifier,
    # unused here, but perfbench's tracer wraps this name and fails without it
    calibrate_thresholds,
    fit,
    lcl_predict,
    metrics_from_counts,
)
from .nn import TrainingConfig
from .rng import Rng

ALGORITHMS = ("CL", "LCL", "DCL", "ADCL")
_CLIENT_ALGOS = {"ADCL": MODEL_KIND_DCL, "LCL": MODEL_KIND_CL}
_SERVER_ALGOS = {"DCL": MODEL_KIND_DCL, "CL": MODEL_KIND_CL}
QUEUE_CAPACITY = 10_000  # readings the edge holds for upload; the oldest go first
ROLLING_WINDOW = 100  # predictions behind each TickRecord.rolling_accuracy
MIN_RETRAIN_ROWS = 8  # the server publishes no version trained on fewer rows


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


def run_scenario(*args, **kwargs) -> ScenarioResult:
    """Discrete-event run of the sensor/edge/server loop.

    Takes the fields of ``_ScenarioRunner``: the first six by position or
    name, the rest by name only. With ``warm_start`` the server trains
    version 1 on a bootstrap slice of the node sources before the run and
    the client begins fully synced, so every reading receives a real
    prediction. After ``duration_ms`` the client keeps retrying queued
    uploads for up to ``drain_ticks`` more upload periods (no new
    readings), so delivery can complete once an outage ends.
    """
    return _ScenarioRunner(*args, **kwargs).run()


@dataclass(eq=False)
class _ScenarioRunner:
    """One scenario: its parameters, its state, and its events, each a
    method run at virtual time ``t``."""

    nodes: list[SensorNodeConfig]
    link: LinkConfig
    retrain_every_ms: int
    algorithms: tuple[str, ...]
    duration_ms: int
    seed: int
    _: KW_ONLY
    sync_period_ms: int = 1_000
    upload_every_ms: int = 500
    warm_start: bool = True
    warmup_samples: int = 200
    max_train_rows: int = 2_000
    dcl_config: TrainingConfig = TrainingConfig(learning_rate=0.3, epochs=30, seed=0)
    cl_config: TrainingConfig = TrainingConfig(learning_rate=0.05, epochs=30, seed=0)
    drain_ticks: int = 200  # counts down as the drain runs

    def __post_init__(self) -> None:
        self.algorithms = tuple(self.algorithms)
        if self.duration_ms <= 0:
            raise ValueError("duration must be positive")
        if not self.nodes:
            raise ValueError("at least one sensor node is required")
        if not self.algorithms:
            raise ValueError("at least one algorithm is required")
        for a in self.algorithms:
            if a not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {a!r}")
        if min(self.retrain_every_ms, self.sync_period_ms, self.upload_every_ms) < 1:
            raise ValueError("periods must be positive")
        first = self.nodes[0].source
        for node in self.nodes:
            if (node.source.feature_names != first.feature_names
                    or node.source.class_names != first.class_names):
                raise ValueError("all node sources must share features and classes")

        master = Rng(self.seed)
        self.node_rngs = {n.sensor_id: master.fork() for n in self.nodes}
        self.link_rng = master.fork()
        self.train_rng = master.fork()

        self.feature_names = first.feature_names
        self.class_names = first.class_names
        n_classes = len(self.class_names)

        self.client_kinds = sorted(
            {_CLIENT_ALGOS[a] for a in self.algorithms if a in _CLIENT_ALGOS}
        )
        self.server_kinds = sorted(
            set(self.client_kinds)
            | {_SERVER_ALGOS[a] for a in self.algorithms if a in _SERVER_ALGOS}
        )

        # server state
        self.server_rows: list[tuple[SensorReading, int]] = []
        self.server_versions: dict[str, int] = {}
        self.server_bundles: dict[str, _PendingBundle] = {}
        self.published: list[tuple[int, str, int]] = []
        self.server_received_total = 0
        self.server_seen_keys: set[tuple[str, int]] = set()

        # client state: one sync state per kind, holding _PendingBundle
        # records; upload buffer maps (sensor_id, timestamp) to
        # [reading, label, last_sent_ms], insertion-ordered (oldest first)
        self.client_states = {kind: SyncState() for kind in self.client_kinds}
        self.upload_buffer: dict[tuple[str, int], list] = {}
        self.client_sent_keys: set[tuple[str, int]] = set()
        self.evicted_keys: set[tuple[str, int]] = set()

        # results
        self.ticks: list[TickRecord] = []
        self.confusion = {
            a: [[0] * n_classes for _ in range(n_classes)] for a in self.algorithms
        }
        self.latencies = {a: [] for a in self.algorithms}
        self.rolling = {a: deque(maxlen=ROLLING_WINDOW) for a in self.algorithms}
        self.emitted = 0

        self.heap: list[tuple] = []
        self.seq = 0
        self.resend_after_ms = max(self.upload_every_ms, 2 * self.link.latency_ms + 1)

    # -- event plumbing ----------------------------------------------------

    def schedule(self, t: int, fn, *args) -> None:
        """Runs ``fn(*args, t)`` at time ``t``, after every event already
        scheduled for ``t``."""
        self.seq += 1
        heapq.heappush(self.heap, (t, self.seq, fn, args))

    def run(self) -> ScenarioResult:
        if self.warm_start:
            self._bootstrap()
        for node in self.nodes:
            self.schedule(0, self._emit, node, 0)
        self.schedule(self.sync_period_ms, self._sync_tick)
        self.schedule(self.upload_every_ms, self._upload_tick)
        self.schedule(self.retrain_every_ms, self._retrain_tick)
        while self.heap:
            t, _, fn, args = heapq.heappop(self.heap)
            fn(*args, t)
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
            # an evicted reading that an upload in flight delivered is not lost
            dropped_from_queue=len(self.evicted_keys - self.server_seen_keys),
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
        for kind, state in self.client_states.items():
            self.client_states[kind] = state.synced(self.server_bundles.get(kind), 0)

    def _publish(self, kind: str, created_at: int) -> None:
        rows = self.server_rows[-self.max_train_rows:]
        if len(rows) < MIN_RETRAIN_ROWS:
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
        cfg = self.dcl_config if pending.kind == MODEL_KIND_DCL else self.cl_config
        params, thresholds, _ = fit(pending.kind, data, replace(cfg, seed=pending.seed))
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
                state = self.client_states[_CLIENT_ALGOS[algo]]
                pending, staleness = state.current_bundle, state.staleness_ms(t)
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
            self.ticks.append(
                TickRecord(
                    t, algo, bundle.model_version, staleness, correct,
                    sum(window) / len(window), latency_us,
                )
            )
        self.upload_buffer[(reading.sensor_id, reading.timestamp)] = [
            reading, label, -1_000_000_000,
        ]
        while len(self.upload_buffer) > QUEUE_CAPACITY:
            oldest = next(iter(self.upload_buffer))
            del self.upload_buffer[oldest]
            self.evicted_keys.add(oldest)

    def link_delivers(self, t: int) -> bool:
        if self.link.in_outage(t):
            return False
        if self.link.drop_probability > 0.0 and self.link_rng.bernoulli(
            self.link.drop_probability
        ):
            return False
        return True

    # -- events --------------------------------------------------------------

    def _emit(self, node: SensorNodeConfig, emitted_in_cycle: int, t: int) -> None:
        rng = self.node_rngs[node.sensor_id]
        sample = node.source.samples[rng.randrange(len(node.source.samples))]
        reading = SensorReading(node.sensor_id, t, sample.features)
        self.record_prediction(t, reading, sample.label)
        emitted_in_cycle += 1
        if emitted_in_cycle >= node.duty_length:
            next_t = t + node.sleep_interval_ms + node.sensor_delay_ms
            emitted_in_cycle = 0
        else:
            next_t = t + node.sensor_delay_ms
        if next_t < self.duration_ms:
            self.schedule(next_t, self._emit, node, emitted_in_cycle)

    def _sync_tick(self, t: int) -> None:
        for kind in self.client_kinds:
            if self.link_delivers(t):  # request leg
                self.schedule(t + self.link.latency_ms, self._sync_reply, kind)
        if t + self.sync_period_ms <= self.duration_ms:
            self.schedule(t + self.sync_period_ms, self._sync_tick)

    def _sync_reply(self, kind: str, t: int) -> None:
        bundle = self.server_bundles.get(kind)
        if bundle is not None and self.link_delivers(t):  # response leg
            self.schedule(t + self.link.latency_ms, self._sync_apply, kind, bundle)

    def _sync_apply(self, kind: str, bundle: _PendingBundle, t: int) -> None:
        self.client_states[kind] = self.client_states[kind].synced(bundle, t)

    def _upload_tick(self, t: int) -> None:
        due = [
            key for key, row in self.upload_buffer.items()
            if t - row[2] >= self.resend_after_ms
        ][:500]  # batch cap per tick
        if due:
            batch = []
            for key in due:
                row = self.upload_buffer[key]
                row[2] = t
                self.client_sent_keys.add(key)
                batch.append((key, row[0], row[1]))
            if self.link_delivers(t):
                self.schedule(t + self.link.latency_ms, self._upload_receive, batch)
        if t + self.upload_every_ms <= self.duration_ms:
            self.schedule(t + self.upload_every_ms, self._upload_tick)
        elif self.upload_buffer and self.drain_ticks > 0:
            self.drain_ticks -= 1
            self.schedule(t + self.upload_every_ms, self._upload_tick)

    def _upload_receive(self, batch: list, t: int) -> None:
        for key, reading, label in batch:
            self.server_received_total += 1
            if key not in self.server_seen_keys:
                self.server_seen_keys.add(key)
                self.server_rows.append((reading, label))
        if self.link_delivers(t):  # ack leg
            self.schedule(t + self.link.latency_ms, self._upload_ack, batch)

    def _upload_ack(self, batch: list, t: int) -> None:
        for key, _, _ in batch:
            self.upload_buffer.pop(key, None)

    def _retrain_tick(self, t: int) -> None:
        for kind in self.server_kinds:
            self._publish(kind, created_at=t)
        if t + self.retrain_every_ms <= self.duration_ms:
            self.schedule(t + self.retrain_every_ms, self._retrain_tick)


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
        classifier(bundle.model)  # bound with the training, outside the timing
        self.rows = None
        return bundle
