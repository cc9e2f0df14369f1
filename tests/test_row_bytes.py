"""The reading record's bytes on the wire, in the spool and in the upload log.

The golden files hold rows as the client and the server write them; loading
each one and writing it again must give back the same bytes.
"""

import shutil
from pathlib import Path

from edgectx.client import Uploader
from edgectx.protocol import (
    SensorBatch,
    batch_from_wire,
    batch_to_wire,
    decode_message,
    encode_message,
)
from edgectx.server import JsonlDataSink

GOLDEN = Path(__file__).resolve().parent / "golden"


class Unused:
    def request(self, msg, timeout=None):
        raise AssertionError("the spool is only loaded and saved")


def test_spool_rows_are_written_back_byte_for_byte(tmp_path):
    spool = tmp_path / "spool.jsonl"
    shutil.copy(GOLDEN / "spool.jsonl", spool)
    uploader = Uploader(Unused(), spool_path=spool)
    assert uploader.queued_count == 7
    spool.unlink()
    uploader._save_spool()
    assert spool.read_bytes() == (GOLDEN / "spool.jsonl").read_bytes()


def test_log_rows_are_appended_back_byte_for_byte(tmp_path):
    rows = JsonlDataSink(GOLDEN / "readings.jsonl")._held()
    assert len(rows) == 7 and rows[4][1] is None
    log = tmp_path / "readings.jsonl"
    sink = JsonlDataSink(log)
    for reading, label in rows:
        sink.store(SensorBatch("c", (reading,), None if label is None else (label,)))
    assert log.read_bytes() == (GOLDEN / "readings.jsonl").read_bytes()


def test_push_data_is_encoded_back_byte_for_byte():
    lines = (GOLDEN / "push_data.jsonl").read_bytes().splitlines()
    assert len(lines) == 3
    for line in lines:
        msg = decode_message(line)
        msg["batch"] = batch_to_wire(batch_from_wire(msg["batch"]))
        assert encode_message(msg) == line
