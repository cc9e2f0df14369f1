"""Deterministic in-process simulation of the three-tier architecture.

A virtual clock drives sensor nodes (sensor delay, duty cycles, sleep
intervals), an edge client that predicts every reading with whatever
parameters it currently holds, a lossy link (latency, random drops,
outage windows applied to each direction at its send time), and a server
that retrains on accumulated uploads and publishes versioned bundles.
The client syncs and uploads through the request and reply steps of
``edgectx.client``; a lost leg gives the reply ``{}``. It sends the head
of its ``client.UploadQueue`` each upload tick, unless the last batch
sent is unanswered and younger than ``resend_after_ms``.
``server.handle_request`` answers over a shipped ``server.ModelStore``
and ``server.MemoryDataSink``, so a batch replayed after a lost ack is
held twice, as by ``edgectx serve``. Each retrain tick runs
``learners.retrain_round``, the retrain step of ``edgectx serve``, with
the simulator's ``epochs``: the last ``TRAIN_WINDOW_ROWS`` rows, a seed
from the kind and the version it is published as, no candidate for a
kind with no rows since its last publish or refusal; a candidate
continues from the served version, and the step publishes it in the
store, stamped with the virtual time, only if it scores no worse on the
new rows. Everything except wall-clock prediction latency
is a pure function of the configuration and seed.
"""

from __future__ import annotations

import heapq
import json
import time
from collections import deque
from dataclasses import KW_ONLY, dataclass
from functools import partial

from .client import SyncState, UploadQueue, push_request, sync_request
from .data import Dataset, dataset_from_readings, SensorReading
from .learners import (
    MODEL_KIND_CL,
    MODEL_KIND_DCL,
    Metrics,
    # unused here, but perfbench's tracer wraps these names and fails without them
    adcl_predict,
    calibrate_thresholds,
    lcl_predict,
    metrics_from_counts,
    retrain_round,
)
from .protocol import SensorBatch
from .rng import Rng
from .server import MemoryDataSink, ModelStore, handle_request

ALGORITHMS = ("CL", "LCL", "DCL", "ADCL")
_CLIENT_ALGOS = {"ADCL": MODEL_KIND_DCL, "LCL": MODEL_KIND_CL}
_SERVER_ALGOS = {"DCL": MODEL_KIND_DCL, "CL": MODEL_KIND_CL}
ROLLING_WINDOW = 100  # predictions behind each TickRecord.rolling_accuracy
CLIENT_ID = "edge"  # the client id of the simulated uploads


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
    refused: list[tuple[int, str]]  # (sim_time, kind) of each candidate the guard refused

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
            "refused": self.refused,
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
    epochs: int = 30  # of a fresh version; a continued one trains a sixth
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
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        first = self.nodes[0].source
        for node in self.nodes:
            if (node.source.feature_names != first.feature_names
                    or node.source.class_names != first.class_names):
                raise ValueError("all node sources must share features and classes")

        master = Rng(self.seed)
        self.node_rngs = {n.sensor_id: master.fork() for n in self.nodes}
        self.link_rng = master.fork()
        n_classes = len(first.class_names)

        self.client_kinds = sorted(
            {_CLIENT_ALGOS[a] for a in self.algorithms if a in _CLIENT_ALGOS}
        )
        self.server_kinds = sorted(
            set(self.client_kinds)
            | {_SERVER_ALGOS[a] for a in self.algorithms if a in _SERVER_ALGOS}
        )

        # server state; the sink's first ``bootstrapped`` rows are the warm start's
        self.store, self.sink, self.bootstrapped = ModelStore(), MemoryDataSink(), 0
        self.published: list[tuple[int, str, int]] = []
        self.refused: list[tuple[int, str]] = []
        # the served bundle of each kind, held as a SyncState so that the
        # server algorithms predict, as the client ones do, with ``predict``,
        # the classifier bound when the bundle is published
        self.served = {kind: SyncState() for kind in self.server_kinds}

        # client state: one sync state per kind, the upload queue, and the
        # send time of the last batch sent while it is unanswered
        self.client_states = {kind: SyncState() for kind in self.client_kinds}
        self.queue = UploadQueue()
        self.in_flight: int | None = None
        self.client_sent: set[SensorReading] = set()

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
        received = [r for r, _ in self.sink.labeled_pairs()[self.bootstrapped:]]
        distinct = set(received)
        return ScenarioResult(
            ticks=self.ticks,
            metrics=metrics,
            emitted_readings=self.emitted,
            client_sent_readings=len(self.client_sent),
            server_received_total=len(received),
            server_received_distinct=len(distinct),
            dropped_from_queue=self.emitted - len(distinct.union(r for _, r, _ in self.queue)),
            published=self.published,
            refused=self.refused,
        )

    # -- server ------------------------------------------------------------

    def _bootstrap(self) -> None:
        rows = [(SensorReading(node.sensor_id, 0, s.features), s.label)
                for node in self.nodes for s in node.source.samples[:self.warmup_samples]]
        if rows:
            self.bootstrapped = self.sink.store(SensorBatch(CLIENT_ID, *zip(*rows)))
        self._retrain(created_at=0)
        for kind, state in self.client_states.items():
            self.client_states[kind] = state.synced(self.store.get(kind), 0)

    def _retrain(self, created_at: int) -> None:
        """One retrain step (``learners.retrain_round``, which publishes
        each accepted candidate in the store) on the rows the sink holds,
        recorded at ``created_at``."""
        for kind, _, bundle in retrain_round(self.sink.labeled_pairs(), self.server_kinds,
                                             self.store, self.epochs, created_at=created_at,
                                             build=dataset_from_readings):
            if bundle is None:
                self.refused.append((created_at, kind))
            else:
                self.served[kind] = SyncState(bundle)
                self.published.append((created_at, kind, bundle.model_version))

    # -- client ------------------------------------------------------------

    def record_prediction(self, t: int, reading: SensorReading, label: int) -> None:
        self.emitted += 1
        for algo in self.algorithms:
            if algo in _CLIENT_ALGOS:
                state = self.client_states[_CLIENT_ALGOS[algo]]
                staleness = state.staleness_ms(t)
            else:
                state = self.served[_SERVER_ALGOS[algo]]
                staleness = 0
            bundle = state.current_bundle
            if bundle is None:
                self.ticks.append(
                    TickRecord(t, algo, None, None, None, None, 0.0)
                )
                continue
            t0 = time.perf_counter_ns()
            pred = state.predict(reading.values).class_index
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
        self.queue.add(SensorBatch(CLIENT_ID, (reading,), (label,)))

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

    def _request(self, msg: dict, apply, t: int) -> None:
        """Send ``msg`` at ``t``; ``apply(response, t)`` runs when its reply
        reaches the client, with ``{}`` for a lost leg."""
        if self.link_delivers(t):  # request leg
            self.schedule(t + self.link.latency_ms, self._serve, msg, apply)
        else:
            self.schedule(t + 2 * self.link.latency_ms, apply, {})

    def _serve(self, msg: dict, apply, t: int) -> None:
        response, _ = handle_request(msg, self.store, self.sink)
        self.schedule(t + self.link.latency_ms, apply, response if self.link_delivers(t) else {})

    def _sync_tick(self, t: int) -> None:
        for kind in self.client_kinds:
            self._request(sync_request(kind), partial(self._synced, kind), t)
        if t + self.sync_period_ms <= self.duration_ms:
            self.schedule(t + self.sync_period_ms, self._sync_tick)

    def _synced(self, kind: str, response: dict, t: int) -> None:
        self.client_states[kind] = self.client_states[kind].replied(kind, response, t)

    def _upload_tick(self, t: int) -> None:
        batch = self.queue.head()
        if batch and not (self.in_flight is not None and t - self.in_flight < self.resend_after_ms):
            self.in_flight = t
            self.client_sent.update(batch.readings)
            self._request(push_request(batch), partial(self._delivered, batch), t)
        if t + self.upload_every_ms <= self.duration_ms:
            self.schedule(t + self.upload_every_ms, self._upload_tick)
        elif self.queue and self.drain_ticks > 0:
            self.drain_ticks -= 1
            self.schedule(t + self.upload_every_ms, self._upload_tick)

    def _delivered(self, batch: SensorBatch, response: dict, t: int) -> None:
        # a reply lands 2·latency after its send, before any resend
        if self.queue.delivered(batch, response) is not None:
            self.in_flight = None

    def _retrain_tick(self, t: int) -> None:
        self._retrain(created_at=t)
        if t + self.retrain_every_ms <= self.duration_ms:
            self.schedule(t + self.retrain_every_ms, self._retrain_tick)

