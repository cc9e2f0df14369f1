"""Parameter server: publishes trained model bundles and collects uploads.

The store keeps one immutable bundle per model kind; publishing swaps the
reference under a lock, so readers always see a complete old or new bundle,
never a mix. Versions increase by exactly one per publish and survive
restarts when a persist directory is configured; there, a bundle is on disk
before any client can receive it, and the newest ``KEEP_BUNDLE_FILES`` files
of each kind stay on disk, beside the publish marks (``MARKS_FILE``).
"""

from __future__ import annotations

import json
import logging
import os
import re
import socketserver
import threading
import time
from collections.abc import Iterator
from contextlib import closing
from dataclasses import replace
from pathlib import Path

from . import protocol
from .bundle import BundleError, ParameterBundle, decode_bundle, encode_bundle
from .data import SensorReading
from .learners import MODEL_KINDS, ThresholdVector
from .nn import NetworkParameters
from .protocol import (
    MSG_ACK,
    MSG_GET_PARAMS,
    MSG_NOT_READY,
    MSG_PARAMS,
    MSG_PING,
    MSG_PONG,
    MSG_PUSH_DATA,
    ProtocolError,
    SensorBatch,
    batch_from_wire,
    error_message,
    row_from_line,
    row_line,
)

log = logging.getLogger(__name__)

_BUNDLE_FILE = re.compile(r"bundle-(DCL|CL)-v(\d+)\.json$")
# Bundle files kept per model kind. A restart serves the newest of them that
# decodes; each publish deletes the older ones once its own file is in place.
KEEP_BUNDLE_FILES = 5
# The labelled rows each kind's newest version was trained on, with that
# version's number, as ``{kind: [version, rows]}``.
MARKS_FILE = "publish-marks.json"


def now_ms() -> int:
    return int(time.time() * 1000)


def _write_atomic(path: Path, data: bytes) -> None:
    """A reader or a restart sees the old file or the new one, never a
    partly written one; a failed write leaves no temp file."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


class ModelStore:
    """Latest published bundle per model kind, with monotonic versions.

    Each bundle is held with its encoded text, which requests are served
    from: the text is made once, when the bundle is published or read back
    from its file at start.
    """

    def __init__(self, persist_dir: str | Path | None = None) -> None:
        self._lock = threading.Lock()
        self._bundles: dict[str, tuple[ParameterBundle, str]] = {}
        self._versions: dict[str, int] = {}
        self._marks: dict[str, list[int]] = {}
        self._persist_dir = Path(persist_dir) if persist_dir is not None else None
        if self._persist_dir is not None:
            self._persist_dir.mkdir(parents=True, exist_ok=True)
            self._load_persisted()

    def _bundle_files(self) -> dict[str, list[tuple[int, Path]]]:
        """The persisted bundle files of each kind, newest first."""
        assert self._persist_dir is not None
        files: dict[str, list[tuple[int, Path]]] = {}
        for path in self._persist_dir.iterdir():
            m = _BUNDLE_FILE.match(path.name)
            if m:
                files.setdefault(m.group(1), []).append((int(m.group(2)), path))
        for found in files.values():
            found.sort(reverse=True)
        return files

    def _load_persisted(self) -> None:
        for kind, found in self._bundle_files().items():
            # the next publish must not reuse even a corrupt file's number
            self._versions[kind] = found[0][0]
            for _, path in found:
                raw = path.read_bytes()
                try:
                    self._bundles[kind] = (decode_bundle(raw), raw.decode("utf-8"))
                    break
                except BundleError as exc:
                    log.warning("skipping corrupt bundle file %s: %s", path, exc)
        try:
            marks = json.loads((self._persist_dir / MARKS_FILE).read_bytes())
            self._marks = {kind: [int(version), int(rows)]
                           for kind, (version, rows) in marks.items()}
        except FileNotFoundError:
            pass
        except (OSError, ValueError, TypeError, AttributeError) as exc:
            log.warning("ignoring unreadable %s: %s", MARKS_FILE, exc)

    def _prune(self, model_kind: str) -> None:
        """Delete all but the newest ``KEEP_BUNDLE_FILES`` files of
        ``model_kind``."""
        for _, path in self._bundle_files().get(model_kind, [])[KEEP_BUNDLE_FILES:]:
            try:
                path.unlink()
            except OSError as exc:
                log.warning("could not delete old bundle file %s: %s", path, exc)

    def publish(
        self,
        model_kind: str,
        params: NetworkParameters,
        thresholds: ThresholdVector | None = None,
        created_at: int | None = None,
        rows: int | None = None,
    ) -> ParameterBundle:
        """Wrap freshly trained parameters into the next-version bundle and
        make it the one clients receive; ``rows``, when given, is the count
        of labelled rows it was trained on, kept as its publish mark."""
        with self._lock:
            version = self._versions.get(model_kind, 0) + 1
            bundle = ParameterBundle(
                model_kind=model_kind,
                params=replace(params, version=version),
                model_version=version,
                created_at=now_ms() if created_at is None else created_at,
                thresholds=thresholds,
            )
            encoded = encode_bundle(bundle)
            if self._persist_dir is not None:
                _write_atomic(self._persist_dir / f"bundle-{model_kind}-v{version}.json",
                              encoded)
            # served only once on disk, so a restart never reissues a
            # version number that some client already holds
            self._bundles[model_kind] = (bundle, encoded.decode("utf-8"))
            self._versions[model_kind] = version
            if rows is not None:
                self._marks[model_kind] = [version, rows]
            if self._persist_dir is not None:
                # after the bundle: a mark is never newer than the files
                if rows is not None:
                    _write_atomic(self._persist_dir / MARKS_FILE,
                                  json.dumps(self._marks, sort_keys=True).encode())
                self._prune(model_kind)
        return bundle

    def next_version(self, model_kind: str) -> int:
        """The version number the next publish of ``model_kind`` gets."""
        with self._lock:
            return self._versions.get(model_kind, 0) + 1

    def published_rows(self) -> dict[str, int]:
        """The labelled rows each served version was trained on, for the
        kinds whose served version was published with a mark."""
        with self._lock:
            return {kind: rows for kind, (version, rows) in self._marks.items()
                    if kind in self._bundles and self._bundles[kind][0].model_version == version}

    def get(self, model_kind: str) -> ParameterBundle | None:
        served = self.get_encoded(model_kind)
        return None if served is None else served[0]

    def get_encoded(self, model_kind: str) -> tuple[ParameterBundle, str] | None:
        """The bundle served for ``model_kind`` and its encoded text."""
        with self._lock:
            return self._bundles.get(model_kind)

    def kinds(self) -> list[str]:
        with self._lock:
            return sorted(self._bundles)


# Labels must lie in [0, MAX_CLASSES): a retrain sizes its output layer by
# the largest label held, so this bounds the networks an upload can ask for.
MAX_CLASSES = 256


class BadBatchError(ValueError):
    """Uploaded rows that could not be trained on with the rows already held."""


def _fitting_width(rows: list[tuple[SensorReading, int | None]], width: int | None) -> int:
    """The reading width of ``rows``: ``width``, or the first row's when it
    is None. Raise BadBatchError unless every row has that width and a
    label that is absent or in [0, ``MAX_CLASSES``)."""
    width = len(rows[0][0].values) if width is None else width
    if width < 1:
        raise BadBatchError("readings carry no values")
    for reading, label in rows:
        if len(reading.values) != width:
            raise BadBatchError(
                f"reading width {len(reading.values)} does not match {width}"
            )
        if label is not None and not 0 <= label < MAX_CLASSES:
            raise BadBatchError(f"label {label} is outside [0, {MAX_CLASSES})")
    return width


class MemoryDataSink:
    """Thread-safe accumulator of uploaded (reading, label) pairs.

    Every row has the reading width of the first row stored and a label
    that is absent or in [0, ``MAX_CLASSES``); a batch with any other row
    is refused whole.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._rows: list[tuple[SensorReading, int | None]] = []
        self._width: int | None = None

    def store(self, batch: SensorBatch) -> int:
        rows = list(zip(batch.readings, batch.labels or (None,) * len(batch.readings)))
        with self._lock:
            # the first row of an empty sink fixes the width
            self._width = _fitting_width(rows, self._width)
            self._keep(rows)
        return len(rows)

    def _keep(self, rows: list[tuple[SensorReading, int | None]]) -> None:
        """Hold admitted rows; called under the lock."""
        self._rows.extend(rows)

    def _held(self) -> list[tuple[SensorReading, int | None]]:
        """Every row held, in the order stored; called under the lock."""
        return self._rows

    def __len__(self) -> int:
        with self._lock:
            return len(self._held())

    def labeled_pairs(self) -> list[tuple[SensorReading, int]]:
        with self._lock:
            return [(r, lab) for r, lab in self._held() if lab is not None]


class JsonlDataSink(MemoryDataSink):
    """MemoryDataSink that also appends rows to a JSON-lines file and
    reloads them after a restart.

    A new sink reads its file only up to the first row that fits, which
    fixes the width uploads are checked against, so a restarted server
    listens before it has read its upload log. The first ``len()`` or
    ``labeled_pairs()`` reads the whole file, rows stored since included,
    and from then on the rows are held in memory too.
    """

    def __init__(self, path: str | Path) -> None:
        super().__init__()
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._loaded = not self.path.exists()
        if not self._loaded:
            with closing(self._file_rows(warn=False)) as rows:
                first = next(rows, None)
            if first is not None:
                self._width = _fitting_width([first], None)

    def _file_rows(self, warn: bool) -> Iterator[tuple[SensorReading, int | None]]:
        """Each row of the file that fits the rows before it, in file order;
        the first such row fixes the width, as the first row stored does."""
        width = None
        with open(self.path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    row = row_from_line(line)
                    width = _fitting_width([row], width)
                except (ProtocolError, BadBatchError) as exc:
                    if warn:
                        log.warning("%s:%d: skipping row: %s", self.path, lineno, exc)
                    continue
                yield row

    def _held(self) -> list[tuple[SensorReading, int | None]]:
        if not self._loaded:
            t0 = time.perf_counter()
            self._rows = list(self._file_rows(warn=True))
            self._loaded = True
            log.info("read %d rows from %s in %.1f ms", len(self._rows), self.path,
                     (time.perf_counter() - t0) * 1e3)
        return self._rows

    def _keep(self, rows: list[tuple[SensorReading, int | None]]) -> None:
        # under the sink lock, so the file holds rows in memory order and
        # no other batch's write lands inside this one
        text = "".join(row_line(reading, label) for reading, label in rows)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(text)
        if self._loaded:
            self._rows.extend(rows)


def handle_request(msg: dict, store: ModelStore, sink) -> tuple[dict, bool]:
    """Dispatch one decoded request; returns (response, keep_connection)."""
    kind = msg.get("type")
    if kind == MSG_PING:
        return {"type": MSG_PONG}, True
    if kind == MSG_GET_PARAMS:
        model_kind = msg.get("model_kind")
        if model_kind not in MODEL_KINDS:
            return error_message("bad_model_kind", f"unknown model kind {model_kind!r}"), True
        served = store.get_encoded(model_kind)
        if served is None:
            return {
                "type": MSG_NOT_READY,
                "model_kind": model_kind,
                "available": store.kinds(),
            }, True
        bundle, text = served
        return {
            "type": MSG_PARAMS,
            "model_kind": model_kind,
            "model_version": bundle.model_version,
            "bundle": text,
        }, True
    if kind == MSG_PUSH_DATA:
        try:
            stored = sink.store(batch_from_wire(msg.get("batch") or {}))
        except (ProtocolError, BadBatchError) as exc:
            return error_message("bad_batch", str(exc)), True
        return {"type": MSG_ACK, "stored": stored}, True
    return error_message("bad_type", f"unknown message type {kind!r}"), True


# A connection that sends nothing for this long is closed, so idle clients
# cannot pin handler threads. Three of the client's default 30 s sync
# periods, so a kept connection that syncs on that period is never cut.
IDLE_TIMEOUT_S = 90.0


class _Handler(socketserver.BaseRequestHandler):
    def handle(self) -> None:
        server: ParameterServer = self.server.ctx_server  # type: ignore[attr-defined]
        sock = self.request
        sock.settimeout(IDLE_TIMEOUT_S)
        while True:
            try:
                payload = protocol.recv_frame(sock)
            except protocol.FrameTooLargeError as exc:
                # the stream offset is unknown past an oversized header;
                # answer once, then drop the connection
                self._safe_send(sock, error_message("frame_too_large", str(exc)))
                return
            except (ProtocolError, OSError):
                return
            if payload is None:
                return
            try:
                msg = protocol.decode_message(payload)
            except ProtocolError as exc:
                if not self._safe_send(sock, error_message("bad_message", str(exc))):
                    return
                continue
            response, keep = handle_request(msg, server.model_store, server.data_sink)
            if not self._safe_send(sock, response) or not keep:
                return

    @staticmethod
    def _safe_send(sock, msg: dict) -> bool:
        try:
            protocol.send_frame(sock, protocol.encode_message(msg))
            return True
        except OSError:
            return False


class _ThreadingServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class ParameterServer:
    """Accepts framed requests on a TCP address; thread-per-connection."""

    def __init__(
        self,
        listen_addr: tuple[str, int],
        model_store: ModelStore,
        data_sink: MemoryDataSink,
    ) -> None:
        self.model_store = model_store
        self.data_sink = data_sink
        self._tcp = _ThreadingServer(listen_addr, _Handler)
        self._tcp.ctx_server = self  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self._tcp.server_address[:2]  # type: ignore[return-value]

    def start(self) -> tuple[str, int]:
        self._thread = threading.Thread(
            target=self._tcp.serve_forever, name="param-server", daemon=True
        )
        self._thread.start()
        return self.address

    def stop(self) -> None:
        self._tcp.shutdown()
        self._tcp.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

