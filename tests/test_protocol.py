import socket
import struct
import threading
import time

import pytest

from edgectx.data import SensorReading
from edgectx.protocol import (
    MAX_FRAME_BYTES,
    FrameTooLargeError,
    ProtocolError,
    SensorBatch,
    TcpTransport,
    TransportError,
    batch_from_wire,
    batch_to_wire,
    decode_message,
    encode_message,
    recv_frame,
    send_frame,
)


@pytest.fixture
def sock_pair():
    a, b = socket.socketpair()
    yield a, b
    a.close()
    b.close()


class TestFraming:
    def test_round_trip(self, sock_pair):
        a, b = sock_pair
        send_frame(a, b'{"type":"PING"}')
        assert recv_frame(b) == b'{"type":"PING"}'

    def test_header_is_big_endian_length(self, sock_pair):
        a, b = sock_pair
        send_frame(a, b"abc")
        raw = b.recv(7)
        assert raw == struct.pack(">I", 3) + b"abc"

    def test_multiple_frames_in_sequence(self, sock_pair):
        a, b = sock_pair
        for i in range(5):
            send_frame(a, f"msg{i}".encode())
        assert [recv_frame(b) for _ in range(5)] == [f"msg{i}".encode() for i in range(5)]

    def test_eof_returns_none(self, sock_pair):
        a, b = sock_pair
        a.close()
        assert recv_frame(b) is None

    def test_mid_frame_eof_is_error(self, sock_pair):
        a, b = sock_pair
        a.sendall(struct.pack(">I", 10) + b"only4")
        a.close()
        with pytest.raises(ProtocolError):
            recv_frame(b)

    def test_reset_at_frame_boundary_returns_none(self):
        listener = socket.create_server(("127.0.0.1", 0))
        with listener:
            a = socket.create_connection(listener.getsockname())
            b, _ = listener.accept()
        with a, b:
            b.sendall(struct.pack(">I", 3) + b"abc")
            time.sleep(0.05)
            b.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            b.close()  # linger 0: the peer sees a reset, not a close
            assert recv_frame(a) == b"abc"
            assert recv_frame(a) is None

    def test_oversized_send_rejected(self, sock_pair):
        a, _ = sock_pair
        with pytest.raises(FrameTooLargeError):
            send_frame(a, b"x" * (MAX_FRAME_BYTES + 1))

    def test_oversized_announcement_rejected(self, sock_pair):
        a, b = sock_pair
        a.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
        with pytest.raises(FrameTooLargeError):
            recv_frame(b)

    def test_large_frame_transfers(self, sock_pair):
        a, b = sock_pair
        payload = b"y" * 300_000
        done = []

        def reader():
            done.append(recv_frame(b))

        t = threading.Thread(target=reader)
        t.start()
        send_frame(a, payload)
        t.join(timeout=5)
        assert done == [payload]


class TestMessages:
    def test_encode_decode(self):
        msg = {"type": "GET_PARAMS", "model_kind": "DCL"}
        assert decode_message(encode_message(msg)) == msg

    def test_rejects_non_object(self):
        with pytest.raises(ProtocolError):
            decode_message(b"[1,2,3]")

    def test_rejects_missing_type(self):
        with pytest.raises(ProtocolError):
            decode_message(b'{"kind":"x"}')

    def test_rejects_garbage(self):
        with pytest.raises(ProtocolError):
            decode_message(b"\xff\xfe not json")


class TestSensorBatch:
    def readings(self, n=3, sensor="acc"):
        return tuple(SensorReading(sensor, 100 * i, (0.1, 0.2)) for i in range(n))

    def test_wire_round_trip(self):
        batch = SensorBatch("client-1", self.readings(), labels=(0, 1, 0))
        again = batch_from_wire(batch_to_wire(batch))
        assert again == batch

    def test_unlabeled_round_trip(self):
        batch = SensorBatch("client-1", self.readings())
        assert batch_from_wire(batch_to_wire(batch)).labels is None

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SensorBatch("c", ())

    def test_time_order_per_sensor_enforced(self):
        bad = (
            SensorReading("a", 200, (1.0,)),
            SensorReading("a", 100, (1.0,)),
        )
        with pytest.raises(ValueError, match="time-ordered"):
            SensorBatch("c", bad)
        # different sensors may interleave freely
        ok = (
            SensorReading("a", 200, (1.0,)),
            SensorReading("b", 100, (1.0,)),
        )
        SensorBatch("c", ok)

    def test_label_alignment(self):
        with pytest.raises(ValueError):
            SensorBatch("c", self.readings(3), labels=(1,))

    @pytest.mark.parametrize("field,value", [
        ("values", [0.1, 10 ** 400]),
        ("timestamp", float("inf")),
        ("labels", [float("inf")]),
    ])
    def test_out_of_float_range_wire_rejected(self, field, value):
        wire = batch_to_wire(SensorBatch("c", self.readings(1), labels=(0,)))
        if field == "labels":
            wire["labels"] = value
        else:
            wire["readings"][0][field] = value
        with pytest.raises(ProtocolError):
            batch_from_wire(wire)

    def test_malformed_wire_rejected(self):
        with pytest.raises(ProtocolError):
            batch_from_wire({"client_id": "c"})
        with pytest.raises(ProtocolError):
            batch_from_wire({"client_id": "c", "readings": [{"sensor_id": "s"}]})


class StubServer:
    """Plain-socket server: connection i is served by ``scripts[i]``, one
    letter per request (R reply PONG, C close unanswered, P send half a
    header and close, S hold the request until ``stop``); the connection
    closes after its script, and the listener after the last script."""

    def __init__(self, scripts, port=0):
        self.listener = socket.create_server(("127.0.0.1", port))
        self.addr = self.listener.getsockname()
        self.scripts = list(scripts)
        self.accepted = 0
        self._release = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        with self.listener:
            for script in self.scripts:
                conn, _ = self.listener.accept()
                self.accepted += 1
                with conn:
                    for step in script:
                        if recv_frame(conn) is None:
                            break
                        if step == "R":
                            send_frame(conn, encode_message({"type": "PONG"}))
                        elif step == "P":
                            conn.sendall(b"\x00\x00")
                            break
                        elif step == "S":
                            self._release.wait(10)
                        else:
                            break

    def stop(self):
        self._release.set()
        self._thread.join(timeout=10)


PING = {"type": "PING"}


class TestTcpTransportReconnect:
    def test_kept_connection_closed_by_a_restart_is_retried_once(self):
        first = StubServer(["R"])
        tp = TcpTransport(first.addr, timeout=5.0)
        assert tp.request(PING) == {"type": "PONG"}
        first.stop()  # closed the connection and the listener
        second = StubServer(["R"], port=first.addr[1])
        try:
            assert tp.request(PING) == {"type": "PONG"}
            assert second.accepted == 1
        finally:
            tp.close()
            second.stop()

    def test_connection_opened_in_the_call_is_not_retried(self):
        stub = StubServer(["C", "R"])
        tp = TcpTransport(stub.addr, timeout=5.0)
        try:
            with pytest.raises(TransportError, match="closed"):
                tp.request(PING)
            assert stub.accepted == 1
            assert tp.request(PING) == {"type": "PONG"}
        finally:
            tp.close()
            stub.stop()

    def test_retry_that_fails_too_is_reported_without_a_third_try(self):
        stub = StubServer(["R", "C", "R"])
        tp = TcpTransport(stub.addr, timeout=5.0)
        try:
            assert tp.request(PING) == {"type": "PONG"}
            with pytest.raises(TransportError):
                tp.request(PING)
            assert stub.accepted == 2
            assert tp.request(PING) == {"type": "PONG"}
            assert stub.accepted == 3
        finally:
            tp.close()
            stub.stop()

    def test_failure_after_a_reply_byte_is_not_retried(self):
        stub = StubServer(["RP"])
        tp = TcpTransport(stub.addr, timeout=5.0)
        try:
            assert tp.request(PING) == {"type": "PONG"}
            with pytest.raises(TransportError, match="mid-frame"):
                tp.request(PING)
            assert stub.accepted == 1
        finally:
            tp.close()
            stub.stop()

    def test_retry_keeps_the_callers_timeout(self):
        stub = StubServer(["R", "S"])
        tp = TcpTransport(stub.addr, timeout=30.0)
        try:
            assert tp.request(PING) == {"type": "PONG"}
            t0 = time.monotonic()
            with pytest.raises(TransportError, match="timed out"):
                tp.request(PING, timeout=0.3)
            assert time.monotonic() - t0 < 5.0
            assert stub.accepted == 2
        finally:
            tp.close()
            stub.stop()
