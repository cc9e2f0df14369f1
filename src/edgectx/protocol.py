"""Framed TCP message protocol between edge clients and the server.

Each message is one frame: a 4-byte big-endian length prefix followed by a
UTF-8 JSON object with a ``type`` field. One request/response pair per
frame over a persistent stream connection. Frames above 16 MiB are
rejected.

Message types:
  GET_PARAMS {model_kind}            -> PARAMS {bundle} | NOT_READY {model_kind, available}
  PUSH_DATA  {batch}                 -> ACK {stored}
  PING                               -> PONG
  anything malformed                 -> ERROR {code, message}

A reading is one JSON record, ``{sensor_id, timestamp, values}``: a string,
an integer and numbers. Batches, the client's spool and the server's upload
log carry it, and only this module reads or writes it.
"""

from __future__ import annotations

import json
import socket
import struct
from dataclasses import dataclass

from .data import SensorReading, json_integer, json_numbers, json_string

MAX_FRAME_BYTES = 16 * 1024 * 1024
_HEADER = struct.Struct(">I")
# made once: json.dumps with separators builds an encoder on every call
_ROW_ENCODER = json.JSONEncoder(separators=(",", ":"))

MSG_GET_PARAMS = "GET_PARAMS"
MSG_PARAMS = "PARAMS"
MSG_NOT_READY = "NOT_READY"
MSG_PUSH_DATA = "PUSH_DATA"
MSG_ACK = "ACK"
MSG_PING = "PING"
MSG_PONG = "PONG"
MSG_ERROR = "ERROR"


class ProtocolError(Exception):
    """Peer sent something that violates the framing or message schema."""


class FrameTooLargeError(ProtocolError):
    """Frame length prefix exceeds MAX_FRAME_BYTES."""


class TransportError(Exception):
    """The link failed; the request may be retried."""


def send_frame(sock: socket.socket, payload: bytes) -> None:
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameTooLargeError(f"frame of {len(payload)} bytes exceeds limit")
    sock.sendall(_HEADER.pack(len(payload)) + payload)


def recv_frame(sock: socket.socket) -> bytes | None:
    """One frame, or None on clean EOF before any header byte."""
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameTooLargeError(f"announced frame of {length} bytes exceeds limit")
    if length == 0:
        return b""
    payload = _recv_exact(sock, length)
    if payload is None:
        raise ProtocolError("connection closed mid-frame")
    return payload


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    """Exactly n bytes; None on EOF or reset at a frame boundary, error
    mid-frame."""
    chunks = []
    got = 0
    while got < n:
        try:
            chunk = sock.recv(n - got)
        except ConnectionError:
            if got == 0:
                return None
            raise
        if not chunk:
            if got == 0:
                return None
            raise ProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def encode_message(msg: dict) -> bytes:
    return json.dumps(msg, separators=(",", ":")).encode("utf-8")


def decode_message(payload: bytes) -> dict:
    try:
        msg = json.loads(payload.decode("utf-8"))
    # here and in ``row_from_line``, JSON nested deeper than the
    # interpreter's recursion limit raises RecursionError
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ProtocolError(f"unparseable message: {exc}") from exc
    if not isinstance(msg, dict) or not isinstance(msg.get("type"), str):
        raise ProtocolError("message must be an object with a string 'type'")
    return msg


def error_message(code: str, message: str) -> dict:
    return {"type": MSG_ERROR, "code": code, "message": message}


@dataclass(frozen=True)
class SensorBatch:
    """One upload: readings from a client, optionally labeled for training."""

    client_id: str
    readings: tuple[SensorReading, ...]
    labels: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if not self.readings:
            raise ValueError("batch must contain at least one reading")
        per_sensor: dict[str, int] = {}
        for r in self.readings:
            last = per_sensor.get(r.sensor_id)
            if last is not None and r.timestamp < last:
                raise ValueError(
                    f"readings for sensor {r.sensor_id!r} are not time-ordered"
                )
            per_sensor[r.sensor_id] = r.timestamp
        if self.labels is not None and len(self.labels) != len(self.readings):
            raise ValueError("labels must align one-to-one with readings")

    def __len__(self) -> int:
        return len(self.readings)


def reading_to_wire(reading: SensorReading) -> dict:
    """The JSON object of one reading, keys in the order every row has."""
    return {"sensor_id": reading.sensor_id, "timestamp": reading.timestamp,
            "values": list(reading.values)}


def reading_from_wire(obj: dict) -> SensorReading:
    """The reading in ``obj``; TypeError when a field has another JSON type,
    though a cast would take it."""
    return SensorReading(
        sensor_id=json_string(obj["sensor_id"], "sensor_id"),
        timestamp=json_integer(obj["timestamp"], "timestamp"),
        values=tuple(map(float, json_numbers(obj["values"], "values"))),
    )


def batch_to_wire(batch: SensorBatch) -> dict:
    return {
        "client_id": batch.client_id,
        "readings": [reading_to_wire(r) for r in batch.readings],
        "labels": list(batch.labels) if batch.labels is not None else None,
    }


def batch_from_wire(obj: dict) -> SensorBatch:
    try:
        readings = tuple(map(reading_from_wire, obj["readings"]))
        labels = obj.get("labels")
        return SensorBatch(
            client_id=json_string(obj["client_id"], "client_id"),
            readings=readings,
            labels=(tuple(json_integer(x, "label") for x in labels)
                    if labels is not None else None),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ProtocolError(f"malformed sensor batch: {exc}") from exc


def row_line(reading: SensorReading, label: int | None, **head: str) -> str:
    """One JSON-lines row: the ``head`` fields, the reading, then its label."""
    return _ROW_ENCODER.encode({**head, **reading_to_wire(reading), "label": label}) + "\n"


def row_from_line(line: str, *head: str) -> tuple:
    """The ``head`` fields (JSON strings), the reading and the label (None
    when null or absent) of a ``row_line`` row; ProtocolError if malformed."""
    try:
        obj = json.loads(line)
        fields = tuple(json_string(obj[name], name) for name in head)
        reading = reading_from_wire(obj)
        label = obj.get("label")
        return (*fields, reading,
                json_integer(label, "label") if label is not None else None)
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise ProtocolError(f"malformed row: {exc}") from exc


class TcpTransport:
    """Framed request/response over a persistent TCP connection.

    Connects lazily and reconnects after failures; any socket-level problem
    surfaces as TransportError so callers can apply their own retry or
    fallback policy. A connection kept from an earlier call that is closed
    or reset before any reply byte arrives (the server restarted since) is
    retried once on a fresh connection with the same timeout; a connection
    opened in the call itself is never retried.
    """

    def __init__(self, addr: tuple[str, int], timeout: float = 2.0) -> None:
        self.addr = addr
        self.timeout = timeout
        self._sock: socket.socket | None = None

    def request(self, msg: dict, timeout: float | None = None) -> dict:
        deadline = self.timeout if timeout is None else timeout
        data = encode_message(msg)
        kept = self._sock is not None
        reply = self._exchange(data, deadline)
        if reply is None and kept:
            reply = self._exchange(data, deadline)
        if reply is None:
            raise TransportError("server closed the connection")
        return reply

    def _exchange(self, data: bytes, deadline: float) -> dict | None:
        """The reply message; None, with the connection closed, when the
        server closed or reset it before any reply byte. A reply that does
        not decode fails as a broken link does: the connection is closed
        and TransportError raised."""
        try:
            if self._sock is None:
                self._sock = socket.create_connection(self.addr, timeout=deadline)
            self._sock.settimeout(deadline)
            try:
                send_frame(self._sock, data)
            except ConnectionError:
                payload = None
            else:
                payload = recv_frame(self._sock)
            reply = None if payload is None else decode_message(payload)
        except (OSError, ProtocolError) as exc:
            self.close()
            raise TransportError(f"request failed: {exc}") from exc
        if reply is None:
            self.close()
        return reply

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None
