"""Edge-side sync loop, upload queue, and prediction wrapper.

The client polls the server for newer parameter bundles on a fixed period.
A failed poll never touches the bundle it already holds, so prediction
keeps working on stale parameters for as long as the link is down; the only
cost is accuracy, never availability. The request and reply steps of sync
and upload do no I/O, so the TCP client and the simulator share them.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field, replace
from itertools import islice, repeat
from pathlib import Path

from .bundle import BundleError, ParameterBundle, decode_bundle
from .data import SensorReading
# adcl_predict and lcl_predict are not called here; they stay importable
# from this module, where the benchmark's traced runs wrap them
from .learners import (  # noqa: F401
    MODEL_KIND_DCL,
    ContextLabel,
    NeverSyncedError,
    adcl_predict,
    classifier,
    lcl_predict,
)
from .protocol import (
    MSG_ACK,
    MSG_ERROR,
    MSG_GET_PARAMS,
    MSG_NOT_READY,
    MSG_PARAMS,
    MSG_PUSH_DATA,
    ProtocolError,
    SensorBatch,
    TransportError,
    batch_to_wire,
    row_from_line,
    row_line,
)

log = logging.getLogger(__name__)

DEFAULT_SYNC_PERIOD_MS = 30_000
DEFAULT_SYNC_TIMEOUT_S = 2.0
QUEUE_CAPACITY = 10_000  # readings an edge client holds for upload
MAX_BATCH_READINGS = 500  # readings in one batch cut from the queue
UPLOAD_RETRIES = 1  # resends of a batch before it waits in the queue


@dataclass(frozen=True)
class SyncPolicy:
    period_ms: int = DEFAULT_SYNC_PERIOD_MS
    timeout_s: float = DEFAULT_SYNC_TIMEOUT_S

    def __post_init__(self) -> None:
        if self.period_ms < 1 or self.timeout_s <= 0:
            raise ValueError("period and timeout must be positive")


def _never_synced(features) -> ContextLabel:
    raise NeverSyncedError("no parameters synced yet")


@dataclass(frozen=True)
class SyncState:
    """What the client knows about its parameters and the link.

    ``predict(features)`` is the label the held bundle gives ``features``:
    the bundle's classifier
    (``learners.classifier(bundle.params, bundle.thresholds)``), bound
    when the state is built, so a prediction is one call into the
    generated function; with no bundle it raises NeverSyncedError.
    """

    current_bundle: ParameterBundle | None = None
    last_sync_at: int | None = None  # ms
    consecutive_failures: int = 0
    predict: Callable[..., ContextLabel] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        bundle = self.current_bundle
        object.__setattr__(self, "predict", _never_synced if bundle is None
                           else classifier(bundle.params, bundle.thresholds))

    def staleness_ms(self, now_ms: int) -> int | None:
        """Age of the held bundle; None before the first sync."""
        if self.current_bundle is None:
            return None
        return now_ms - self.current_bundle.created_at

    @property
    def model_version(self) -> int | None:
        return self.current_bundle.model_version if self.current_bundle else None

    def synced(self, bundle: ParameterBundle | None, t: int) -> SyncState:
        """The state after a sync at ``t`` that reached the server and got
        ``bundle`` (None when it had none): a newer model_version replaces
        the held bundle; any other answer only refreshes last_sync_at."""
        held = self.model_version
        if bundle is not None and (held is None or bundle.model_version > held):
            return SyncState(current_bundle=bundle, last_sync_at=t)
        return replace(self, last_sync_at=t, consecutive_failures=0)

    def replied(self, kind: str, response: dict, t: int) -> SyncState:
        """The state after the reply to ``sync_request(kind)`` at ``t``
        (``{}`` for a failed link) applies by ``synced``; a bundle taken is
        bound when its state is built, not by the first prediction, and one
        no newer than the held version is not decoded. Any other reply
        counts a failure."""
        if response.get("type") == MSG_NOT_READY:
            return self.synced(None, t)
        if response.get("type") == MSG_PARAMS:
            held, version = self.model_version, response.get("model_version")
            if (response.get("model_kind") == kind and type(version) is int
                    and held is not None and version <= held):
                return self.synced(None, t)
            try:
                bundle = decode_bundle(str(response.get("bundle", "")).encode("utf-8"))
            except BundleError as exc:
                log.warning("received undecodable bundle: %s", exc)
            else:
                if bundle.model_kind == kind:
                    return self.synced(bundle, t)
        return replace(self, consecutive_failures=self.consecutive_failures + 1)


def sync_request(kind: str) -> dict:
    """The request that asks the server for its parameters of ``kind``."""
    return {"type": MSG_GET_PARAMS, "model_kind": kind}


def push_request(batch: SensorBatch) -> dict:
    """The request that uploads ``batch``."""
    return {"type": MSG_PUSH_DATA, "batch": batch_to_wire(batch)}


class UploadQueue:
    """The readings an edge client holds for upload, oldest first; no I/O.

    Beyond ``QUEUE_CAPACITY`` the oldest reading is dropped and counted.
    ``head`` cuts the next batch from the front: at most
    ``MAX_BATCH_READINGS`` readings of one client, all labelled or none,
    each sensor's in time order. ``ack`` removes the readings of a
    delivered batch that are still at the front.
    """

    def __init__(self, rows: Iterable[tuple[str, SensorReading, int | None]] = ()) -> None:
        self._rows = deque(rows)
        self.dropped_count = 0
        self.rejected_count = 0

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[tuple[str, SensorReading, int | None]]:
        return iter(self._rows)

    def add(self, batch: SensorBatch) -> None:
        self._rows.extend(zip(repeat(batch.client_id), batch.readings,
                              batch.labels or repeat(None)))
        while len(self._rows) > QUEUE_CAPACITY:
            self._rows.popleft()
            self.dropped_count += 1

    def head(self) -> SensorBatch | None:
        if not self._rows:
            return None
        client_id, labeled = self._rows[0][0], self._rows[0][2] is not None
        readings, labels, last = [], [], {}
        for row_client, reading, label in islice(self._rows, MAX_BATCH_READINGS):
            if ((row_client, label is not None) != (client_id, labeled)
                    or reading.timestamp < last.get(reading.sensor_id, reading.timestamp)):
                break
            last[reading.sensor_id] = reading.timestamp
            readings.append(reading)
            labels.append(label)
        return SensorBatch(client_id, tuple(readings), tuple(labels) if labeled else None)

    def ack(self, batch: SensorBatch) -> None:
        for reading in batch.readings:
            if self._rows and self._rows[0][1] is reading:
                self._rows.popleft()

    def delivered(self, batch: SensorBatch, response: dict) -> int | None:
        """Apply the reply to ``push_request(batch)`` (``{}`` for a failed
        link): the readings acknowledged, 0 for a batch refused as bad and
        dropped, or None when the batch stays queued."""
        if response.get("type") == MSG_ACK:
            self.ack(batch)
            return len(batch)
        if response.get("type") == MSG_ERROR and response.get("code") == "bad_batch":
            # resending cannot succeed and would hold up every later reading
            log.warning("server refused %d readings: %s", len(batch), response.get("message"))
            self.ack(batch)
            self.rejected_count += len(batch)
            return 0
        return None


class Uploader:
    """At-least-once delivery of sensor batches through an ``UploadQueue``.

    A batch the link cannot deliver waits in the queue, whose batches are
    replayed in order before the next batch once the link recovers. A batch
    the server refuses as bad is dropped, not retried, and its readings are
    counted in ``rejected_count``. An optional spool file makes the queue
    survive restarts.
    """

    def __init__(self, transport, *, spool_path: str | Path | None = None) -> None:
        self._transport = transport
        self._spool_path = Path(spool_path) if spool_path is not None else None
        self._queue = UploadQueue(self._spool_rows())

    @property
    def queued_count(self) -> int:
        return len(self._queue)

    @property
    def dropped_count(self) -> int:
        return self._queue.dropped_count

    @property
    def rejected_count(self) -> int:
        return self._queue.rejected_count

    def upload_batch(self, batch: SensorBatch) -> int:
        """Queue this batch behind the readings the link has not delivered
        yet, then deliver the queue. Returns the number of readings
        acknowledged by the server during this call."""
        spooled = bool(self._queue)
        self._queue.add(batch)
        acked = self._replay()
        # a batch queued and delivered within one call never reaches the spool
        if spooled or self._queue:
            self._save_spool()
        return acked

    def flush(self) -> int:
        """Try to deliver everything queued; returns readings acknowledged."""
        queued = len(self._queue)
        acked = self._replay()
        if len(self._queue) != queued:
            self._save_spool()
        return acked

    def _replay(self) -> int:
        """Deliver the queue in order, one ``head`` batch a request, until it
        drains or the link gives out; returns the readings acknowledged."""
        acked = 0
        while (batch := self._queue.head()) is not None:
            msg = push_request(batch)
            for _ in range(UPLOAD_RETRIES + 1):
                try:
                    response = self._transport.request(msg)
                    break
                except TransportError:
                    response = {}
            sent = self._queue.delivered(batch, response)
            if sent is None:
                break
            acked += sent
        return acked

    def _spool_rows(self) -> Iterator[tuple[str, SensorReading, int | None]]:
        if self._spool_path is None or not self._spool_path.exists():
            return
        with open(self._spool_path, encoding="utf-8") as fh:
            for line in fh:
                if not line.strip():
                    continue
                try:
                    yield row_from_line(line, "client_id")
                except ProtocolError as exc:
                    log.warning("skipping corrupt spool row: %s", exc)

    def _save_spool(self) -> None:
        if self._spool_path is None:
            return
        tmp = self._spool_path.with_suffix(".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(row_line(reading, label, client_id=client_id)
                          for client_id, reading, label in self._queue)
        tmp.replace(self._spool_path)


class EdgeClient:
    """Prediction plus background parameter sync for one model kind.

    The state slot holds an immutable snapshot; the sync loop replaces the
    whole reference, so a concurrent prediction always reads one coherent
    bundle. ``predict`` is the held state's ``predict``, swapped with it,
    so a prediction is one call into the bundle's classifier.
    """

    def __init__(
        self,
        transport,
        model_kind: str = MODEL_KIND_DCL,
        policy: SyncPolicy = SyncPolicy(),
    ) -> None:
        self._transport = transport
        self.model_kind = model_kind
        self.policy = policy
        self._state = SyncState()
        self.predict = self._state.predict
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    @property
    def state(self) -> SyncState:
        return self._state

    def sync_tick(self, now_ms: int | None = None) -> SyncState:
        """One poll of the server; a failed link applies as the reply ``{}``."""
        t = int(time.time() * 1000) if now_ms is None else now_ms
        try:
            response = self._transport.request(sync_request(self.model_kind),
                                               timeout=self.policy.timeout_s)
        except TransportError as exc:
            log.debug("sync failed (%s); keeping current parameters", exc)
            response = {}
        return self.replied(response, t)

    def replied(self, response: dict, now_ms: int) -> SyncState:
        """Apply the reply to ``sync_request(self.model_kind)`` sent at
        ``now_ms`` (``{}`` for a failed link), as ``sync_tick`` does."""
        state = self._state = self._state.replied(self.model_kind, response, now_ms)
        self.predict = state.predict
        return state

    def start_sync_loop(self) -> None:
        """Poll the server every ``policy.period_ms`` on a daemon thread,
        the first poll one period after the start: sync once before."""
        if self._thread is not None:
            return
        self._stop.clear()

        def loop() -> None:
            while not self._stop.wait(self.policy.period_ms / 1000.0):
                self.sync_tick()

        self._thread = threading.Thread(target=loop, name="sync-loop", daemon=True)
        self._thread.start()

    def stop_sync_loop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None
