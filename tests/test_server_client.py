"""Server/client integration over real loopback TCP plus sync/upload policy
against fake transports."""

import builtins
import json
import logging
import os
import socket
import threading
import time
from dataclasses import replace
from types import SimpleNamespace

import pytest

import edgectx.client
import edgectx.protocol
import edgectx.server
from edgectx.bundle import decode_bundle, encode_bundle
from edgectx.client import (
    MAX_BATCH_READINGS,
    QUEUE_CAPACITY,
    EdgeClient,
    SyncPolicy,
    SyncState,
    UploadQueue,
    Uploader,
    sync_request,
)
from edgectx.data import SensorReading, normalize_minmax, synth_still_motion
from edgectx.learners import NeverSyncedError, cl_train, dcl_train
from edgectx.nn import LayerSpec, TrainingConfig, forward
from edgectx.protocol import (
    MAX_FRAME_BYTES,
    SensorBatch,
    TcpTransport,
    TransportError,
    batch_to_wire,
    decode_message,
    encode_message,
    recv_frame,
    send_frame,
)
from edgectx.server import (
    MAX_CLASSES,
    JsonlDataSink,
    MemoryDataSink,
    ModelStore,
    ParameterServer,
    handle_request,
)


@pytest.fixture(scope="module")
def trained_dcl():
    data = normalize_minmax(synth_still_motion(150, 3))
    return dcl_train(data, LayerSpec(2, (2,), 2), TrainingConfig(0.3, 30, 1))


@pytest.fixture(scope="module")
def trained_cl():
    data = normalize_minmax(synth_still_motion(150, 3))
    return cl_train(data, TrainingConfig(0.05, 30, 1))


@pytest.fixture
def server():
    store = ModelStore()
    sink = MemoryDataSink()
    srv = ParameterServer(("127.0.0.1", 0), store, sink)
    srv.start()
    yield srv
    srv.stop()


def make_batch(n=5, sensor="acc0", start=0):
    return SensorBatch(
        "client-1",
        tuple(SensorReading(sensor, start + i, (0.1, 0.2)) for i in range(n)),
        labels=tuple(i % 2 for i in range(n)),
    )


def row_file(path, bad_fields, **head):
    """Three two-value rows, timestamps 0-2, with ``bad_fields`` set on the
    second; ``head`` leads each row, as the spool's client id does."""
    rows = [{**head, "sensor_id": "acc0", "timestamp": t, "values": [0.5, 0.5], "label": 1}
            for t in range(3)]
    rows[1].update(bad_fields)
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))


# row fields of a type the wire refuses, though str(), int() or float() took
# each; the last row once loaded as ('7', 1, (0.5, 1.0)), label 1
WRONG_TYPE_ROWS = {
    "sensor-int": {"sensor_id": 7},
    "timestamp-float": {"timestamp": 1.9},
    "value-string": {"values": ["0.5", 0.5]},
    "label-bool": {"label": True},
    "every-field": {"sensor_id": 7, "timestamp": 1.9, "values": ["0.5", True],
                    "label": True},
}


class TestServer:
    def test_get_params_before_any_publish(self, server):
        tp = TcpTransport(server.address)
        response = tp.request({"type": "GET_PARAMS", "model_kind": "DCL"})
        assert response["type"] == "NOT_READY"
        assert response["available"] == []
        tp.close()

    def test_push_data_ack_and_sink_growth(self, server):
        tp = TcpTransport(server.address)
        response = tp.request(
            {"type": "PUSH_DATA", "batch": batch_to_wire(make_batch(50))}
        )
        assert response == {"type": "ACK", "stored": 50}
        assert len(server.data_sink) == 50
        tp.close()

    def test_sequential_publishes_bump_version_by_one(self, server, trained_dcl):
        server.model_store.publish("DCL", trained_dcl)
        tp = TcpTransport(server.address)
        first = tp.request({"type": "GET_PARAMS", "model_kind": "DCL"})
        server.model_store.publish("DCL", trained_dcl)
        second = tp.request({"type": "GET_PARAMS", "model_kind": "DCL"})
        assert second["model_version"] == first["model_version"] + 1
        tp.close()

    def test_published_bundle_forward_equivalence(self, server, trained_dcl):
        server.model_store.publish("DCL", trained_dcl)
        tp = TcpTransport(server.address)
        response = tp.request({"type": "GET_PARAMS", "model_kind": "DCL"})
        bundle = decode_bundle(response["bundle"].encode())
        for x in ([0.1, 0.9], [0.5, 0.5], [0.9, 0.2]):
            server_out = forward(trained_dcl, x)[-1]
            wire_out = forward(bundle.params, x)[-1]
            assert max(abs(u - v) for u, v in zip(server_out, wire_out)) <= 1e-12
        tp.close()

    def test_cl_bundle_ships_thresholds(self, server, trained_cl):
        server.model_store.publish("CL", trained_cl.params, trained_cl.thresholds)
        tp = TcpTransport(server.address)
        response = tp.request({"type": "GET_PARAMS", "model_kind": "CL"})
        bundle = decode_bundle(response["bundle"].encode())
        assert bundle.thresholds is not None
        assert bundle.thresholds == trained_cl.thresholds
        tp.close()

    def test_malformed_frame_keeps_connection_usable(self, server):
        sock = socket.create_connection(server.address, timeout=2)
        send_frame(sock, b"not json at all")
        response = decode_message(recv_frame(sock))
        assert response["type"] == "ERROR"
        send_frame(sock, encode_message({"type": "PING"}))
        assert decode_message(recv_frame(sock))["type"] == "PONG"
        sock.close()

    def test_unknown_type_gets_error_response(self, server):
        tp = TcpTransport(server.address)
        response = tp.request({"type": "WHATEVER"})
        assert response["type"] == "ERROR" and response["code"] == "bad_type"
        tp.close()

    def test_bad_model_kind(self, server):
        tp = TcpTransport(server.address)
        response = tp.request({"type": "GET_PARAMS", "model_kind": "LOL"})
        assert response["type"] == "ERROR"
        tp.close()

    def test_not_ready_lists_available_kinds(self, server, trained_dcl):
        server.model_store.publish("DCL", trained_dcl)
        tp = TcpTransport(server.address)
        response = tp.request({"type": "GET_PARAMS", "model_kind": "CL"})
        assert response["type"] == "NOT_READY"
        assert response["available"] == ["DCL"]
        tp.close()

    def test_concurrent_clients(self, server, trained_dcl):
        server.model_store.publish("DCL", trained_dcl)
        errors = []

        def worker():
            try:
                tp = TcpTransport(server.address)
                for _ in range(20):
                    r = tp.request({"type": "GET_PARAMS", "model_kind": "DCL"})
                    assert r["type"] == "PARAMS"
                tp.close()
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not errors


class TestModelStorePersistence:
    def test_version_continues_after_restart(self, tmp_path, trained_dcl):
        store = ModelStore(persist_dir=tmp_path)
        store.publish("DCL", trained_dcl)
        store.publish("DCL", trained_dcl)
        reloaded = ModelStore(persist_dir=tmp_path)
        assert reloaded.get("DCL").model_version == 2
        assert reloaded.publish("DCL", trained_dcl).model_version == 3

    def test_reloaded_bundle_bytes_identical(self, tmp_path, trained_dcl):
        store = ModelStore(persist_dir=tmp_path)
        published = store.publish("DCL", trained_dcl)
        reloaded = ModelStore(persist_dir=tmp_path).get("DCL")
        assert encode_bundle(reloaded) == encode_bundle(published)

    def test_corrupt_newest_falls_back_to_last_good(self, tmp_path, trained_dcl):
        store = ModelStore(persist_dir=tmp_path)
        good = store.publish("DCL", trained_dcl)
        store.publish("DCL", trained_dcl)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "bundle-DCL-v1.json", "bundle-DCL-v2.json",
        ]
        v2 = tmp_path / "bundle-DCL-v2.json"
        v2.write_bytes(v2.read_bytes()[:-20])
        reloaded = ModelStore(persist_dir=tmp_path)
        assert encode_bundle(reloaded.get("DCL")) == encode_bundle(good)
        assert reloaded.publish("DCL", trained_dcl).model_version == 3


    def test_failed_persist_keeps_serving_previous_version(
        self, tmp_path, trained_dcl, monkeypatch
    ):
        store = ModelStore(persist_dir=tmp_path)
        v1 = store.publish("DCL", trained_dcl)

        def no_rename(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", no_rename)
        with pytest.raises(OSError):
            store.publish("DCL", trained_dcl)
        monkeypatch.undo()
        # nothing a client could have fetched: v1 is still what is served
        assert store.get("DCL") is v1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bundle-DCL-v1.json"]
        assert ModelStore(persist_dir=tmp_path).publish("DCL", trained_dcl).model_version == 2
        assert store.publish("DCL", trained_dcl).model_version == 2

    def test_keeps_the_newest_files_per_kind(self, tmp_path, trained_dcl, trained_cl):
        keep = edgectx.server.KEEP_BUNDLE_FILES
        store = ModelStore(persist_dir=tmp_path)
        for _ in range(keep + 3):
            store.publish("DCL", trained_dcl)
            store.publish("CL", trained_cl.params, trained_cl.thresholds)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            f"bundle-{kind}-v{v}.json" for kind in ("CL", "DCL")
            for v in range(4, keep + 4)
        )

    def test_restart_after_pruning_falls_back_and_counts_on(self, tmp_path, trained_dcl):
        keep = edgectx.server.KEEP_BUNDLE_FILES
        store = ModelStore(persist_dir=tmp_path)
        for _ in range(keep + 3):
            previous = store.get("DCL")
            store.publish("DCL", trained_dcl)
        newest = tmp_path / f"bundle-DCL-v{keep + 3}.json"
        newest.write_bytes(newest.read_bytes()[:-20])
        reloaded = ModelStore(persist_dir=tmp_path)
        assert reloaded.get("DCL").model_version == keep + 2
        assert encode_bundle(reloaded.get("DCL")) == encode_bundle(previous)
        assert reloaded.publish("DCL", trained_dcl).model_version == keep + 4
        assert len(list(tmp_path.iterdir())) == keep

    def test_old_files_stay_when_the_new_file_is_not_in_place(
        self, tmp_path, trained_dcl, monkeypatch
    ):
        keep = edgectx.server.KEEP_BUNDLE_FILES
        store = ModelStore(persist_dir=tmp_path)
        for _ in range(keep):
            store.publish("DCL", trained_dcl)
        before = sorted(p.name for p in tmp_path.iterdir())

        def no_rename(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", no_rename)
        with pytest.raises(OSError):
            store.publish("DCL", trained_dcl)
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    def test_served_text_is_the_encoded_bundle(self, tmp_path, trained_dcl, trained_cl,
                                               monkeypatch):
        encodes = []

        def counted(bundle):
            encodes.append(bundle.model_kind)
            return encode_bundle(bundle)

        monkeypatch.setattr(edgectx.server, "encode_bundle", counted)
        store = ModelStore(persist_dir=tmp_path)
        for _ in range(2):
            store.publish("DCL", trained_dcl)
            store.publish("CL", trained_cl.params, trained_cl.thresholds)
        for current in (store, ModelStore(persist_dir=tmp_path)):
            for kind in ("DCL", "CL"):
                for _ in range(3):
                    reply, _ = handle_request(
                        {"type": "GET_PARAMS", "model_kind": kind}, current, MemoryDataSink())
                    assert reply["bundle"] == encode_bundle(current.get(kind)).decode("utf-8")
                    assert reply["model_version"] == 2
        # once per publish, never per request
        assert encodes == ["DCL", "CL", "DCL", "CL"]


class TestJsonlSink:
    def test_rows_survive_restart(self, tmp_path):
        path = tmp_path / "readings.jsonl"
        sink = JsonlDataSink(path)
        sink.store(make_batch(7))
        again = JsonlDataSink(path)
        assert len(again) == 7
        assert len(again.labeled_pairs()) == 7

    @pytest.mark.parametrize("bad", ["wide", "negative_label"])
    def test_bad_batch_refused_over_the_wire(self, tmp_path, bad):
        path = tmp_path / "readings.jsonl"
        sink = JsonlDataSink(path)
        srv = ParameterServer(("127.0.0.1", 0), ModelStore(), sink)
        srv.start()
        try:
            tp = TcpTransport(srv.address)
            good = tp.request({"type": "PUSH_DATA", "batch": batch_to_wire(make_batch(4))})
            assert good == {"type": "ACK", "stored": 4}
            before = path.read_bytes()
            readings = [SensorReading("acc0", 10, (0.1, 0.2)), SensorReading("acc0", 11, (0.3, 0.4))]
            labels = (0, 1)
            if bad == "wide":
                readings[1] = SensorReading("acc0", 11, (0.3, 0.4, 0.5))
            else:
                labels = (0, -3)
            batch = SensorBatch("client-1", tuple(readings), labels=labels)
            response = tp.request({"type": "PUSH_DATA", "batch": batch_to_wire(batch)})
            assert response["type"] == "ERROR" and response["code"] == "bad_batch"
            assert path.read_bytes() == before
            assert len(sink) == 4
            tp.close()
        finally:
            srv.stop()

    # str(), int() and float() took each of these values
    @pytest.mark.parametrize("field, value", [
        ("labels", [1.7]),
        ("labels", [True]),
        ("timestamp", 1.9),
        ("timestamp", True),
        ("values", ["1.5", 0.2]),
        ("values", [True, 0.2]),
        ("client_id", [1]),
        ("sensor_id", {"x": 1}),
        ("sensor_id", 7),
    ], ids=["label-float", "label-bool", "timestamp-float", "timestamp-bool",
            "value-string", "value-bool", "client-list", "sensor-object", "sensor-int"])
    def test_wrong_type_upload_refused(self, tmp_path, field, value):
        path = tmp_path / "readings.jsonl"
        sink = JsonlDataSink(path)
        sink.store(make_batch(4))
        before = path.read_bytes()
        wire = batch_to_wire(make_batch(1, start=4))
        if field in ("labels", "client_id"):
            wire[field] = value
        else:
            wire["readings"][0][field] = value
        push = decode_message(encode_message({"type": "PUSH_DATA", "batch": wire}))
        response, _ = handle_request(push, ModelStore(), sink)
        assert response["type"] == "ERROR" and response["code"] == "bad_batch"
        assert path.read_bytes() == before
        assert len(sink) == 4

    @pytest.mark.parametrize("bad_fields", list(WRONG_TYPE_ROWS.values()),
                             ids=list(WRONG_TYPE_ROWS))
    def test_wrong_type_row_skipped_on_load(self, tmp_path, caplog, bad_fields):
        path = tmp_path / "readings.jsonl"
        row_file(path, bad_fields)
        with caplog.at_level(logging.WARNING, logger="edgectx.server"):
            sink = JsonlDataSink(path)
            assert [r.timestamp for r, _ in sink.labeled_pairs()] == [0, 2]
        skipped = [m for m in caplog.messages if "skipping row" in m]
        assert len(skipped) == 1 and skipped[0].startswith(f"{path}:2: ")

    def test_stored_bad_rows_are_skipped_on_load_and_retrain_runs(self, tmp_path):
        from edgectx.cli import _retrain_once

        path = tmp_path / "readings.jsonl"
        rows = [
            {"sensor_id": "acc0", "timestamp": i, "values": [0.1 + 2.0 * (i % 2), 0.2],
             "label": i % 2}
            for i in range(20)
        ]
        rows.insert(5, {"sensor_id": "acc0", "timestamp": 5, "values": [0.1, 0.2, 0.3],
                        "label": 0})
        rows.insert(9, {"sensor_id": "acc0", "timestamp": 9, "values": [0.1, 0.2],
                        "label": -3})
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        sink = JsonlDataSink(path)
        assert len(sink) == 20
        store = ModelStore()

        class Args:
            min_rows = 8
            epochs = 5

        _retrain_once(store, sink, ["DCL", "CL"], Args)
        assert store.get("DCL").model_version == 1
        assert store.get("CL").params.spec.input_count == 2

    def test_out_of_range_label_refused_and_skipped(self, tmp_path):
        from edgectx.cli import _retrain_once

        path = tmp_path / "readings.jsonl"
        sink = JsonlDataSink(path)
        store = ModelStore()
        readings = tuple(
            SensorReading("acc0", i, (0.1 + 2.0 * (i % 2), 0.2)) for i in range(19)
        )
        good = SensorBatch("client-1", readings, labels=tuple(i % 2 for i in range(19)))
        huge = SensorBatch("client-1", (SensorReading("acc0", 19, (0.1, 0.2)),),
                           labels=(5000,))
        push = {"type": "PUSH_DATA", "batch": batch_to_wire(good)}
        assert handle_request(push, store, sink)[0] == {"type": "ACK", "stored": 19}
        push = {"type": "PUSH_DATA", "batch": batch_to_wire(huge)}
        response, _ = handle_request(push, store, sink)
        assert response["type"] == "ERROR" and response["code"] == "bad_batch"
        assert len(sink) == 19

        class Args:
            min_rows = 8
            epochs = 5

        _retrain_once(store, sink, ["DCL", "CL"], Args)
        assert store.get("DCL").params.spec.output_count == 2
        assert store.get("CL").params.spec.output_count == 2

        # a row written before the bound existed is skipped on reload
        with open(path, "a", encoding="utf-8") as fh:
            for label in (MAX_CLASSES - 1, MAX_CLASSES, 5000):
                fh.write(json.dumps({"sensor_id": "acc0", "timestamp": 20,
                                     "values": [0.1, 0.2], "label": label}) + "\n")
        again = JsonlDataSink(path)
        assert len(again) == 20
        assert max(label for _, label in again.labeled_pairs()) == MAX_CLASSES - 1


    def test_out_of_float_range_upload_refused_and_skipped_on_load(self, tmp_path):
        path = tmp_path / "readings.jsonl"
        sink = JsonlDataSink(path)
        store = ModelStore()
        huge = "1" + "0" * 400  # a JSON integer beyond the float range
        text = ('{"type":"PUSH_DATA","batch":{"client_id":"c","readings":'
                '[{"sensor_id":"acc0","timestamp":1,"values":[0.1,%s]}],'
                '"labels":[0]}}' % huge)
        response, keep = handle_request(decode_message(text.encode()), store, sink)
        assert response["type"] == "ERROR" and response["code"] == "bad_batch"
        assert keep and len(sink) == 0
        push = {"type": "PUSH_DATA", "batch": batch_to_wire(make_batch(3))}
        assert handle_request(push, store, sink)[0] == {"type": "ACK", "stored": 3}
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"sensor_id":"acc0","timestamp":9,"values":[%s,0.2],"label":0}\n'
                     % huge)
            fh.write('{"sensor_id":"acc0","timestamp":9,"values":[0.1,0.2],"label":0}\n')
        again = JsonlDataSink(path)
        assert len(again) == 4


    def test_concurrent_stores_reload_in_memory_order(self, tmp_path, monkeypatch):
        # batch a is admitted first but its file write is held back while
        # batch b stores; the file must still list a before b
        path = tmp_path / "readings.jsonl"
        sink = JsonlDataSink(path)
        a_writing, release_a = threading.Event(), threading.Event()

        def held_open(*args, **kwargs):
            if threading.current_thread().name == "store-a":
                a_writing.set()
                release_a.wait(5)
            return builtins.open(*args, **kwargs)

        monkeypatch.setattr(edgectx.server, "open", held_open, raising=False)
        a = threading.Thread(target=sink.store, args=(make_batch(3, "a"),), name="store-a")
        b = threading.Thread(target=sink.store, args=(make_batch(3, "b"),), name="store-b")
        a.start()
        assert a_writing.wait(5)
        b.start()
        b.join(0.5)  # b gets through here only if a's write is outside the lock
        release_a.set()
        a.join(5)
        b.join(5)
        monkeypatch.undo()
        in_memory = [r.sensor_id for r, _ in sink.labeled_pairs()]
        assert in_memory == ["a"] * 3 + ["b"] * 3
        assert [r.sensor_id for r, _ in JsonlDataSink(path).labeled_pairs()] == in_memory


class TestJsonlSinkRestart:
    """A sink over an existing file reads it only up to the first row that
    fits at start, and the whole of it on the first read of its rows."""

    @staticmethod
    def log_rows(path, widths, bad_first=False):
        lines = ['{"sensor_id": "acc0", "timestamp": 0, "values": [0.1'] if bad_first else []
        lines += [json.dumps({"sensor_id": "log", "timestamp": i, "values": [0.5] * width,
                              "label": i % 2}) for i, width in enumerate(widths)]
        path.write_text("".join(line + "\n" for line in lines))

    def test_start_parses_no_row_past_the_first_that_fits(self, tmp_path, monkeypatch,
                                                           caplog):
        path = tmp_path / "readings.jsonl"
        self.log_rows(path, [3] + [2] * 30, bad_first=True)
        parsed = []

        def loads(text):
            parsed.append(text)
            return json.loads(text)

        monkeypatch.setattr(edgectx.protocol, "json", SimpleNamespace(loads=loads,
                                                                      dumps=json.dumps))
        with caplog.at_level(logging.INFO, logger="edgectx.server"):
            sink = JsonlDataSink(path)
            assert len(parsed) == 2
            assert not caplog.records
            assert len(sink) == 1
        assert len(parsed) == 2 + 32
        # the skipped rows are warned about once, when the file is read
        messages = [r.getMessage() for r in caplog.records]
        assert sum("skipping row" in m for m in messages) == 31
        reads = [m for m in messages if m.startswith("read ")]
        assert len(reads) == 1 and reads[0].startswith(f"read 1 rows from {path} in ")

    def test_first_read_holds_logged_rows_then_rows_stored_since(self, tmp_path, caplog):
        path = tmp_path / "readings.jsonl"
        JsonlDataSink(path).store(make_batch(5, "old"))
        sink = JsonlDataSink(path)
        sink.store(make_batch(3, "new", start=5))
        with caplog.at_level(logging.INFO, logger="edgectx.server"):
            pairs = sink.labeled_pairs()
            sink.store(make_batch(2, "later", start=8))
            assert len(sink) == 10
        assert [(r.sensor_id, r.timestamp) for r, _ in pairs] == (
            [("old", i) for i in range(5)] + [("new", 5 + i) for i in range(3)])
        assert [r.getMessage().split(" in ")[0] for r in caplog.records] == [
            f"read 8 rows from {path}"]
        assert sink.labeled_pairs() == JsonlDataSink(path).labeled_pairs()
        assert [r.sensor_id for r, _ in sink.labeled_pairs()][-2:] == ["later"] * 2

    def test_corrupt_first_line_takes_the_width_from_the_first_valid_row(self, tmp_path):
        path = tmp_path / "readings.jsonl"
        self.log_rows(path, [3, 3], bad_first=True)
        sink = JsonlDataSink(path)
        with pytest.raises(edgectx.server.BadBatchError):
            sink.store(make_batch(2))
        wide = SensorBatch("client-1", (SensorReading("acc0", 9, (0.1, 0.2, 0.3)),),
                           labels=(1,))
        assert sink.store(wide) == 1
        assert [len(r.values) for r, _ in sink.labeled_pairs()] == [3, 3, 3]

    def test_wrong_width_refused_before_the_first_retrain(self, tmp_path):
        path = tmp_path / "readings.jsonl"
        JsonlDataSink(path).store(make_batch(4))
        sink = JsonlDataSink(path)
        before = path.read_bytes()
        wide = SensorBatch("client-1", (SensorReading("acc0", 9, (0.1, 0.2, 0.3)),),
                           labels=(1,))
        push = {"type": "PUSH_DATA", "batch": batch_to_wire(wide)}
        response, _ = handle_request(push, ModelStore(), sink)
        assert response["type"] == "ERROR" and response["code"] == "bad_batch"
        assert path.read_bytes() == before
        assert len(sink) == 4


class TestIdleTimeout:
    @pytest.fixture
    def short_timeout_server(self, monkeypatch):
        monkeypatch.setattr(edgectx.server, "IDLE_TIMEOUT_S", 0.3)
        srv = ParameterServer(("127.0.0.1", 0), ModelStore(), MemoryDataSink())
        srv.start()
        yield srv
        srv.stop()

    def test_idle_connection_is_closed(self, short_timeout_server):
        sock = socket.create_connection(short_timeout_server.address, timeout=5)
        t0 = time.monotonic()
        try:
            assert sock.recv(1) == b""  # the server hung up
        except ConnectionResetError:
            pass
        assert time.monotonic() - t0 < 4
        sock.close()

    def test_kept_connection_used_inside_the_timeout_gets_replies(
        self, short_timeout_server
    ):
        tp = TcpTransport(short_timeout_server.address, timeout=2)
        try:
            assert tp.request({"type": "PING"})["type"] == "PONG"
            kept = tp._sock
            for _ in range(8):  # 8 x 0.1 s spans the 0.3 s timeout twice
                time.sleep(0.1)
                assert tp.request({"type": "PING"})["type"] == "PONG"
                assert tp._sock is kept  # served on the same connection
        finally:
            tp.close()

    def test_default_outlasts_the_client_sync_period(self):
        from edgectx.client import DEFAULT_SYNC_PERIOD_MS

        assert edgectx.server.IDLE_TIMEOUT_S > DEFAULT_SYNC_PERIOD_MS / 1000


class FakeTransport:
    """In-process transport with a switchable link."""

    def __init__(self, store: ModelStore | None = None, sink=None):
        self.store = store or ModelStore()
        self.sink = sink if sink is not None else MemoryDataSink()
        self.down = False
        self.requests = 0

    def request(self, msg, timeout=None):
        self.requests += 1
        if self.down:
            raise TransportError("link down")
        response, _ = handle_request(msg, self.store, self.sink)
        return response


class FrameLimitedTransport(FakeTransport):
    """Fails, as ``TcpTransport`` does, on a request above the frame limit,
    and counts such requests in ``oversized``."""

    def __init__(self):
        super().__init__()
        self.oversized = 0

    def request(self, msg, timeout=None):
        if len(encode_message(msg)) > MAX_FRAME_BYTES:
            self.requests += 1
            self.oversized += 1
            raise TransportError("frame too large")
        return super().request(msg, timeout)


def wide_batch(timestamps) -> SensorBatch:
    """One client's unlabelled readings of 100 values, one per timestamp."""
    values = tuple(i / 7 for i in range(100))
    return SensorBatch("c", tuple(SensorReading("acc0", t, values) for t in timestamps))


class UndecodablePeer:
    """Loopback peer that answers every frame with ``[1,2]``, JSON but no
    message, on each connection until the client closes it."""

    def __init__(self):
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.listener.settimeout(0.05)
        self.addr = self.listener.getsockname()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._accept, daemon=True)
        self._thread.start()

    def _accept(self):
        with self.listener:
            while not self._stop.is_set():
                try:
                    conn, _ = self.listener.accept()
                except TimeoutError:
                    continue
                threading.Thread(target=self._answer, args=(conn,), daemon=True).start()

    @staticmethod
    def _answer(conn):
        with conn:
            conn.settimeout(10.0)
            try:
                while recv_frame(conn) is not None:
                    send_frame(conn, b"[1,2]")
            except OSError:
                pass

    def stop(self):
        self._stop.set()
        self._thread.join(timeout=10)
        assert not self._thread.is_alive()


class TestClientSync:
    def test_a_reply_that_does_not_decode_is_a_failed_link(self, trained_dcl):
        # the tick counts a failure and keeps its bundle, the batch stays
        # queued, and the sync loop lives on
        peer = UndecodablePeer()
        links = [TcpTransport(peer.addr, timeout=5.0) for _ in range(3)]
        client = EdgeClient(links[2], "DCL", SyncPolicy(period_ms=10, timeout_s=5.0))
        try:
            held = SyncState().synced(ModelStore().publish("DCL", trained_dcl), 0)
            with pytest.raises(TransportError):
                links[0].request(sync_request("DCL"))
            state = held.replied("DCL", {}, 10)
            assert state.current_bundle is held.current_bundle
            assert (state.consecutive_failures, state.last_sync_at) == (1, 0)
            uploader = Uploader(links[1])
            assert uploader.upload_batch(make_batch(3)) == 0
            assert uploader.queued_count == 3
            client.start_sync_loop()
            deadline = time.monotonic() + 10.0
            while client.state.consecutive_failures < 3 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert client.state.consecutive_failures >= 3
            assert client._thread.is_alive()
        finally:
            client.stop_sync_loop()
            for link in links:
                link.close()
            peer.stop()

    def test_first_sync_adopts_bundle(self, trained_dcl):
        ft = FakeTransport()
        ft.store.publish("DCL", trained_dcl)
        state = EdgeClient(ft, "DCL").sync_tick(now_ms=1000)
        assert state.model_version == 1
        assert state.last_sync_at == 1000
        assert state.consecutive_failures == 0

    def test_newer_version_swaps(self, trained_dcl):
        ft = FakeTransport()
        ft.store.publish("DCL", trained_dcl)
        client = EdgeClient(ft, "DCL")
        client.sync_tick(now_ms=1000)
        ft.store.publish("DCL", trained_dcl)
        state = client.sync_tick(now_ms=2000)
        assert state.model_version == 2

    def test_same_version_refreshes_timestamp_only(self, trained_dcl):
        ft = FakeTransport()
        ft.store.publish("DCL", trained_dcl)
        client = EdgeClient(ft, "DCL")
        bundle_before = client.sync_tick(now_ms=1000).current_bundle
        state = client.sync_tick(now_ms=5000)
        assert state.current_bundle is bundle_before
        assert state.last_sync_at == 5000

    def test_failure_keeps_bundle_and_counts(self, trained_dcl):
        ft = FakeTransport()
        ft.store.publish("DCL", trained_dcl)
        client = EdgeClient(ft, "DCL")
        client.sync_tick(now_ms=1000)
        ft.down = True
        for i in range(1, 6):
            state = client.sync_tick(now_ms=1000 + i)
            assert state.consecutive_failures == i
            assert state.model_version == 1
        ft.down = False
        state = client.sync_tick(now_ms=9000)
        assert state.consecutive_failures == 0

    def test_not_ready_counts_as_contact(self):
        ft = FakeTransport()
        state = SyncState(consecutive_failures=3).replied(
            "DCL", ft.request(sync_request("DCL")), 50)
        assert state.consecutive_failures == 0
        assert state.current_bundle is None
        assert state.last_sync_at == 50

    def test_staleness(self, trained_dcl):
        ft = FakeTransport()
        bundle = ft.store.publish("DCL", trained_dcl, created_at=1_000)
        state = EdgeClient(ft, "DCL").sync_tick(now_ms=1_500)
        assert state.staleness_ms(4_000) == 3_000
        assert SyncState().staleness_ms(99) is None

    def test_predictions_never_touch_network(self, trained_dcl):
        ft = FakeTransport()
        ft.store.publish("DCL", trained_dcl)
        client = EdgeClient(ft, "DCL", SyncPolicy(period_ms=100, timeout_s=0.1))
        client.sync_tick(now_ms=0)
        requests_after_sync = ft.requests
        ft.down = True
        for _ in range(100):
            client.predict((0.4, 0.6))
        assert ft.requests == requests_after_sync

    def test_predict_before_any_sync_raises(self):
        client = EdgeClient(FakeTransport(), "DCL")
        with pytest.raises(NeverSyncedError):
            client.predict((0.1, 0.2))

    def test_synced_keeps_the_newest_bundle(self, trained_dcl):
        ft = FakeTransport()
        v1 = ft.store.publish("DCL", trained_dcl)
        v2 = ft.store.publish("DCL", trained_dcl)
        state = SyncState(consecutive_failures=2).synced(v1, 10)
        assert (state.current_bundle, state.last_sync_at, state.consecutive_failures) == (
            v1, 10, 0)
        state = state.synced(v2, 20)
        assert state.current_bundle is v2 and state.last_sync_at == 20
        for answer in (v1, v2, None):  # older, the same, or nothing published
            stale = replace(state, consecutive_failures=3).synced(answer, 30)
            assert stale.current_bundle is v2
            assert (stale.last_sync_at, stale.consecutive_failures) == (30, 0)

    @pytest.mark.parametrize("kind", ["DCL", "CL"])
    def test_new_version_is_bound_by_the_sync(self, kind, trained_dcl, trained_cl, monkeypatch):
        import edgectx.nn

        def publish():
            if kind == "DCL":
                return ft.store.publish(kind, trained_dcl)
            return ft.store.publish(kind, trained_cl.params, trained_cl.thresholds)

        builds = []
        real = edgectx.nn.bind_classifier

        def counting(*args):
            builds.append(args)
            return real(*args)

        monkeypatch.setattr(edgectx.nn, "bind_classifier", counting)
        ft = FakeTransport()
        publish()
        client = EdgeClient(ft, kind)
        state = client.sync_tick(now_ms=0)
        assert len(builds) == 1 and () in state.current_bundle.model._classifiers
        state.predict((0.1, 0.2))
        state = client.sync_tick(now_ms=10)  # the same version
        state.predict((0.3, 0.2))
        assert len(builds) == 1
        publish()
        state = client.sync_tick(now_ms=20)
        assert state.model_version == 2 and len(builds) == 2
        state.predict((0.1, 0.4))
        assert len(builds) == 2  # no build landed on the prediction

    @pytest.mark.parametrize("kind,change,decodes,failures", [
        ("DCL", {}, 0, 0),
        ("DCL", {"model_version": 0}, 0, 0),
        ("DCL", {"model_version": "1"}, 1, 0),
        ("DCL", {"model_version": 1.0}, 1, 0),
        ("DCL", {"model_version": True}, 1, 0),
        ("DCL", {"model_kind": "CL"}, 1, 0),
        ("CL", {}, 1, 1),  # a DCL bundle answers a CL sync
    ], ids=["same-version", "older-version", "string-version", "float-version",
            "bool-version", "other-kind-field", "other-kind"])
    def test_only_a_reply_that_may_be_newer_is_decoded(self, kind, change, decodes, failures,
                                                       trained_dcl, monkeypatch):
        calls = []
        decode = edgectx.client.decode_bundle
        monkeypatch.setattr(edgectx.client, "decode_bundle",
                            lambda raw: calls.append(raw) or decode(raw))
        ft = FakeTransport()
        held = SyncState().synced(ft.store.publish("DCL", trained_dcl), 0)
        reply = {**ft.request(sync_request("DCL")), **change}
        state = held.replied(kind, reply, 10)
        assert len(calls) == decodes
        assert state.current_bundle is held.current_bundle
        assert state.consecutive_failures == failures
        assert state.last_sync_at == (0 if failures else 10)

    def test_lcl_client_path(self, trained_cl):
        ft = FakeTransport()
        ft.store.publish("CL", trained_cl.params, trained_cl.thresholds)
        client = EdgeClient(ft, "CL")
        client.sync_tick(now_ms=0)
        label = client.predict((0.05, 0.1))
        assert label.class_index in (0, 1)


class TestUploadQueue:
    def test_an_ack_removes_only_the_readings_still_queued(self):
        queue = UploadQueue()
        queue.add(make_batch(QUEUE_CAPACITY - 2))
        batch = queue.head()
        assert len(batch) == MAX_BATCH_READINGS and batch.readings[0].timestamp == 0
        # five readings arrive while the batch is in flight; the capacity
        # drops the first three of the batch
        queue.add(make_batch(5, start=100_000))
        assert (len(queue), queue.dropped_count) == (QUEUE_CAPACITY, 3)
        queue.ack(batch)
        assert len(queue) == QUEUE_CAPACITY - (MAX_BATCH_READINGS - 3)
        assert queue.head().readings[0].timestamp == MAX_BATCH_READINGS
        # a second ack of the same batch finds none of it queued
        queue.ack(batch)
        assert len(queue) == QUEUE_CAPACITY - (MAX_BATCH_READINGS - 3)

    @pytest.mark.parametrize("response,sent,queued,rejected", [
        ({"type": "ACK", "stored": 3}, 3, 0, 0),
        ({"type": "ERROR", "code": "bad_batch", "message": "refused"}, 0, 0, 3),
        ({"type": "ERROR", "code": "bad_type", "message": "refused"}, None, 3, 0),
        ({}, None, 3, 0),
    ], ids=["ack", "bad-batch", "other-error", "failed-link"])
    def test_delivered_applies_each_reply(self, response, sent, queued, rejected):
        queue = UploadQueue()
        queue.add(make_batch(3))
        assert queue.delivered(queue.head(), response) == sent
        assert (len(queue), queue.rejected_count) == (queued, rejected)


class TestUploader:
    def test_healthy_link_acks_full_batch(self):
        ft = FakeTransport()
        uploader = Uploader(ft)
        assert uploader.upload_batch(make_batch(10)) == 10
        assert uploader.queued_count == 0
        assert len(ft.sink) == 10

    @pytest.mark.parametrize("stored", ['"x"', "null", "[1]", "1e400"],
                             ids=["string", "null", "list", "1e400"])
    def test_an_ack_with_a_malformed_count_acknowledges_the_batch(self, stored):
        class OddAck:
            def request(self, msg, timeout=None):
                return decode_message(b'{"type": "ACK", "stored": %s}' % stored.encode())

        uploader = Uploader(OddAck())
        assert uploader.upload_batch(make_batch(1)) == 1
        assert uploader.queued_count == 0

    def test_offline_batches_replayed_in_order(self):
        ft = FakeTransport()
        uploader = Uploader(ft)
        ft.down = True
        for i in range(3):
            assert uploader.upload_batch(make_batch(4, start=100 * i)) == 0
        assert uploader.queued_count == 12
        ft.down = False
        acked = uploader.upload_batch(make_batch(4, start=1000))
        assert acked == 16
        assert uploader.queued_count == 0
        timestamps = [r.timestamp for r, _ in ft.sink.labeled_pairs()]
        assert timestamps == sorted(timestamps)

    def test_replay_splits_where_a_sensor_goes_back_in_time(self):
        ft = FakeTransport()
        uploader = Uploader(ft)
        ft.down = True
        for start in (100, 50, 60):
            assert uploader.upload_batch(make_batch(2, start=start)) == 0
        ft.down = False
        requests = ft.requests
        assert uploader.flush() == 6
        assert ft.requests - requests == 2
        assert [r.timestamp for r, _ in ft.sink.labeled_pairs()] == [100, 101, 50, 51, 60, 61]

    @pytest.mark.parametrize("call", ["flush", "upload_batch"])
    def test_partial_replay_counts_what_was_acknowledged(self, call):
        class LinkFailsForClientB(FakeTransport):
            def request(self, msg, timeout=None):
                if msg["batch"]["client_id"] == "b":
                    self.requests += 1
                    raise TransportError("link down")
                return super().request(msg, timeout)

        ft = LinkFailsForClientB()
        uploader = Uploader(ft)
        ft.down = True
        for client_id, n, start in (("a", 1, 0), ("b", 2, 10)):
            assert uploader.upload_batch(
                replace(make_batch(n, start=start), client_id=client_id)) == 0
        ft.down = False
        if call == "flush":
            acked = uploader.flush()
        else:  # a new batch waits behind client b's queued readings
            acked = uploader.upload_batch(replace(make_batch(1, start=20), client_id="a"))
        # client a's queued reading was delivered, then the link failed
        assert acked == len(ft.sink) == 1
        assert uploader.queued_count == (2 if call == "flush" else 3)

    def test_capacity_drops_oldest(self):
        ft = FakeTransport()
        ft.down = True
        uploader = Uploader(ft)
        uploader.upload_batch(make_batch(QUEUE_CAPACITY, start=0))
        uploader.upload_batch(make_batch(50, start=100_000))
        assert uploader.queued_count == QUEUE_CAPACITY
        assert uploader.dropped_count == 50

    def test_a_full_queue_of_wide_readings_drains(self):
        ft = FrameLimitedTransport()
        uploader = Uploader(ft)
        ft.down = True
        for ts in (range(1), range(1, QUEUE_CAPACITY)):  # the second waits behind the first
            uploader.upload_batch(wide_batch(ts))
        ft.down = False
        # the queue is one run of one client, too large for one frame
        requests = ft.requests
        assert uploader.flush() == QUEUE_CAPACITY
        assert ft.requests - requests == QUEUE_CAPACITY // MAX_BATCH_READINGS

    def test_an_oversized_batch_on_an_empty_queue_is_sent_in_cuts(self):
        ft = FrameLimitedTransport()
        uploader = Uploader(ft)
        assert uploader.upload_batch(wide_batch(range(QUEUE_CAPACITY))) == QUEUE_CAPACITY
        assert (ft.requests, ft.oversized) == (QUEUE_CAPACITY // MAX_BATCH_READINGS, 0)
        assert uploader.queued_count == 0

    def test_refused_batch_is_dropped_not_replayed(self):
        ft = FakeTransport()
        uploader = Uploader(ft)
        assert uploader.upload_batch(make_batch(4)) == 4
        wide = SensorBatch("client-1", (SensorReading("acc0", 50, (0.1, 0.2, 0.3)),),
                           labels=(0,))
        assert uploader.upload_batch(wide) == 0
        assert uploader.queued_count == 0
        assert uploader.rejected_count == 1
        for i in range(4):
            assert uploader.upload_batch(make_batch(1, start=100 + i)) == 1
            assert uploader.queued_count == 0
            assert len(ft.sink) == 5 + i
        assert uploader.rejected_count == 1
        assert uploader.dropped_count == 0

    def test_out_of_float_range_batch_is_refused_not_replayed(self):
        class PoisoningTransport(FakeTransport):
            """Sends JSON text in which every 7.0 reads as a 400-digit integer."""

            def request(self, msg, timeout=None):
                text = encode_message(msg).replace(b"7.0", b"1" + b"0" * 400)
                return super().request(decode_message(text), timeout)

        ft = PoisoningTransport()
        uploader = Uploader(ft)
        assert uploader.upload_batch(make_batch(4)) == 4
        poison = SensorBatch("client-1", (SensorReading("acc0", 50, (0.1, 7.0)),),
                             labels=(0,))
        assert uploader.upload_batch(poison) == 0
        assert uploader.rejected_count == 1
        assert uploader.queued_count == 0
        assert uploader.upload_batch(make_batch(2, start=100)) == 2
        assert len(ft.sink) == 6
        assert uploader.rejected_count == 1

    def test_out_of_float_range_spool_row_skipped(self, tmp_path):
        spool = tmp_path / "spool.jsonl"
        good = '{"client_id":"c","sensor_id":"acc0","timestamp":%d,"values":[0.1,%s],"label":0}\n'
        spool.write_text(good % (1, "0.2") + good % (2, "1" + "0" * 400) + good % (3, "0.2"))
        ft = FakeTransport()
        revived = Uploader(ft, spool_path=spool)
        assert revived.queued_count == 2
        assert revived.flush() == 2
        assert [r.timestamp for r, _ in ft.sink.labeled_pairs()] == [1, 3]

    def test_spool_row_nested_past_the_recursion_limit_skipped(self, tmp_path):
        spool = tmp_path / "spool.jsonl"
        good = '{"client_id":"c","sensor_id":"acc0","timestamp":%d,"values":[0.1,0.2],"label":0}\n'
        spool.write_text(good % 1 + "[" * 100_000 + "\n" + good % 3)
        ft = FakeTransport()
        revived = Uploader(ft, spool_path=spool)
        assert revived.queued_count == 2
        assert revived.flush() == 2
        assert [r.timestamp for r, _ in ft.sink.labeled_pairs()] == [1, 3]

    @pytest.mark.parametrize("bad_fields", [*WRONG_TYPE_ROWS.values(), {"client_id": [1]}],
                             ids=[*WRONG_TYPE_ROWS, "client-list"])
    def test_wrong_type_spool_row_skipped(self, tmp_path, caplog, bad_fields):
        spool = tmp_path / "spool.jsonl"
        row_file(spool, bad_fields, client_id="c")
        ft = FakeTransport()
        with caplog.at_level(logging.WARNING, logger="edgectx.client"):
            revived = Uploader(ft, spool_path=spool)
        assert revived.queued_count == 2
        assert sum("skipping corrupt spool row" in m for m in caplog.messages) == 1
        assert revived.flush() == 2
        assert [r.timestamp for r, _ in ft.sink.labeled_pairs()] == [0, 2]

    def test_spool_written_only_when_the_queue_changes(self, tmp_path, monkeypatch):
        spool = tmp_path / "spool.jsonl"
        ft = FakeTransport()
        uploader = Uploader(ft, spool_path=spool)
        saves = []
        save = Uploader._save_spool

        def counted(up):
            saves.append(up.queued_count)
            save(up)

        monkeypatch.setattr(Uploader, "_save_spool", counted)
        for i in range(5):
            assert uploader.upload_batch(make_batch(2, start=10 * i)) == 2
        assert uploader.flush() == 0
        assert saves == [] and not spool.exists()
        ft.down = True
        assert uploader.upload_batch(make_batch(4, start=100)) == 0
        assert uploader.flush() == 0
        assert saves == [4]  # the enqueue; a replay that moved nothing saves nothing
        ft.down = False
        assert uploader.flush() == 4
        assert saves == [4, 0] and spool.read_text() == ""

    def test_spool_survives_restart(self, tmp_path):
        spool = tmp_path / "spool.jsonl"
        ft = FakeTransport()
        ft.down = True
        uploader = Uploader(ft, spool_path=spool)
        uploader.upload_batch(make_batch(6))
        assert spool.exists()
        revived = Uploader(ft, spool_path=spool)
        assert revived.queued_count == 6
        ft.down = False
        assert revived.flush() == 6
