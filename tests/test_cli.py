import importlib
import json
import zlib
from dataclasses import replace
from pathlib import Path

import pytest
from conftest import same_params

import edgectx.cli
import edgectx.client
import edgectx.server
import edgectx.sim
from edgectx.bundle import ParameterBundle, decode_bundle
from edgectx.cli import (
    RetrainMarks,
    UsageError,
    _parse_sweep,
    _retrain_once,
    main,
    resolve_dataset,
)
from edgectx.client import EdgeClient
from edgectx.data import (
    Dataset,
    Sample,
    SensorReading,
    dataset_from_readings,
    load_csv,
    normalize_minmax,
    synth_still_motion,
)
from edgectx.learners import (
    CL_LEARNING_RATE,
    DCL_LEARNING_RATE,
    MODEL_KIND_CL,
    MODEL_KIND_DCL,
    adcl_predict,
    dcl_train,
    fit,
)
from edgectx.nn import LayerSpec, TrainingConfig, init_network
from edgectx.protocol import SensorBatch
from edgectx.server import JsonlDataSink, MemoryDataSink, ModelStore, ParameterServer


@pytest.fixture
def small_csv(tmp_path):
    data = synth_still_motion(120, 5)
    path = tmp_path / "toy.csv"
    lines = ["x,y,label"]
    for s in data.samples:
        lines.append(f"{s.features[0]!r},{s.features[1]!r},{data.class_names[s.label]}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


class TestTrainCommand:
    def test_train_writes_bundle_and_report(self, small_csv, tmp_path, capsys):
        bundle_path = tmp_path / "model.bundle"
        report_path = tmp_path / "report.csv"
        code = run_cli(
            "train", small_csv, "--kind", "dcl", "--epochs", "40",
            "--kfold", "3", "--seed", "2",
            "--out", bundle_path, "--report", report_path,
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["mean_accuracy"] > 0.9
        assert bundle_path.exists()
        text = report_path.read_text()
        assert "kfold,mean_accuracy" in text
        assert "loss_epoch,40," in text

    def test_report_is_deterministic(self, small_csv, tmp_path):
        paths = []
        for run in ("a", "b"):
            report = tmp_path / f"report_{run}.csv"
            assert run_cli(
                "train", small_csv, "--epochs", "20", "--kfold", "3",
                "--seed", "3", "--report", report,
            ) == 0
            paths.append(report.read_bytes())
        assert paths[0] == paths[1]

    def test_cl_kind(self, small_csv, capsys):
        assert run_cli(
            "train", small_csv, "--kind", "cl", "--epochs", "30", "--kfold", "3"
        ) == 0
        assert json.loads(capsys.readouterr().out)["mean_accuracy"] > 0.9

    def test_min_accuracy_gate_failure_is_exit_3(self, tmp_path):
        xor = tmp_path / "xor.csv"
        rows = ["x1,x2,label"]
        for a in (0, 1):
            for b in (0, 1):
                for _ in range(3):
                    rows.append(f"{a}.0,{b}.0,c{int(a != b)}")
        xor.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code = run_cli(
            "train", xor, "--kind", "cl", "--epochs", "20", "--kfold", "3",
            "--min-accuracy", "0.99",
        )
        assert code == 3

    def test_unknown_dataset_is_usage_error(self):
        assert run_cli("train", "no-such-dataset") == 1

    def test_sweep_grid(self, small_csv, tmp_path, capsys):
        report = tmp_path / "grid.csv"
        code = run_cli(
            "train", small_csv, "--sweep", "lr=0.1..0.2", "hidden=1..2",
            "--epochs", "15", "--kfold", "3", "--report", report,
        )
        assert code == 0
        lines = report.read_text().splitlines()
        assert lines[0] == "lr,hidden_layers,hidden_width,mean_accuracy,std_accuracy"
        assert len(lines) == 1 + 2 * 2
        summary = json.loads(capsys.readouterr().out)
        assert summary["grid"] == [2, 2]

    def test_synth_registry_name(self, capsys):
        assert run_cli(
            "train", "synth-still-motion", "--synth-n", "150", "--epochs", "20",
            "--kfold", "3",
        ) == 0

    def test_config_registry(self, small_csv, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"datasets": {"seeds": str(small_csv)}}))
        assert run_cli(
            "train", "seeds", "--config", cfg, "--epochs", "10", "--kfold", "3"
        ) == 0


@pytest.mark.parametrize("kind, hidden_arg, hidden", [
    ("dcl", None, None), ("dcl", "3,2", (3, 2)), ("cl", None, None),
])
def test_train_out_ships_the_fit_model(small_csv, tmp_path, capsys, kind, hidden_arg, hidden):
    # the bundle holds what fit builds on the min-max-normalised rows
    bundle_path = tmp_path / "model.bundle"
    argv = ["train", small_csv, "--kind", kind, "--epochs", "12", "--kfold", "3",
            "--seed", "5", "--out", bundle_path]
    if hidden_arg:
        argv += ["--hidden", hidden_arg]
    assert run_cli(*argv) == 0
    shipped = decode_bundle(bundle_path.read_bytes())
    model_kind = MODEL_KIND_DCL if kind == "dcl" else MODEL_KIND_CL
    lr = DCL_LEARNING_RATE if kind == "dcl" else CL_LEARNING_RATE
    params, thresholds, losses = fit(
        model_kind, normalize_minmax(load_csv(small_csv)), TrainingConfig(lr, 12, 5), hidden
    )
    assert shipped.model_kind == model_kind
    assert same_params(shipped.params, params)
    assert shipped.thresholds == thresholds
    assert json.loads(capsys.readouterr().out)["final_epoch_loss"] == losses[-1]


class TestSweepParsing:
    def test_full_ranges(self):
        lrs, hiddens = _parse_sweep(["lr=0.1..0.9", "hidden=1..9"])
        assert len(lrs) == 9 and abs(lrs[0] - 0.1) < 1e-9 and abs(lrs[-1] - 0.9) < 1e-9
        assert hiddens == list(range(1, 10))

    def test_bad_tokens(self):
        for bad in (["lr=0.5"], ["lr=0.9..0.1", "hidden=1..2"], ["foo=1..2"], ["lr=a..b"]):
            with pytest.raises(UsageError):
                _parse_sweep(bad + (["hidden=1..2"] if "hidden" not in bad[0] else []))

    def test_hidden_required(self):
        with pytest.raises(UsageError):
            _parse_sweep(["lr=0.1..0.3"])


class TestResolveDataset:
    def test_path_direct(self, small_csv):
        data = resolve_dataset(str(small_csv), {})
        assert data.n_features == 2

    def test_iris_via_sklearn(self):
        pytest.importorskip("sklearn")
        data = resolve_dataset("iris", {})
        assert len(data) == 150
        assert data.n_features == 4
        assert data.n_classes == 3


@pytest.fixture
def live_server():
    data = normalize_minmax(synth_still_motion(150, 3))
    params = dcl_train(data, LayerSpec(2, (2,), 2), TrainingConfig(0.3, 30, 1))
    store = ModelStore()
    store.publish("DCL", params)
    srv = ParameterServer(("127.0.0.1", 0), store, MemoryDataSink())
    host, port = srv.start()
    yield f"{host}:{port}"
    srv.stop()


class TestClientCommand:
    def test_stream_predictions(self, live_server, tmp_path):
        infile = tmp_path / "input.txt"
        infile.write_text("0.1,0.1\n2.5,2.4\nbogus,line\n", encoding="utf-8")
        outfile = tmp_path / "out.csv"
        code = run_cli(
            "client", "--server", live_server, "--input", infile,
            "--out", outfile, "--sync-period-ms", "200",
        )
        assert code == 0
        lines = outfile.read_text().splitlines()
        assert lines[0].startswith("timestamp_ms,")
        ok_lines = [l for l in lines[1:] if l.endswith(",OK")]
        err_lines = [l for l in lines[1:] if l.endswith(",ERROR")]
        assert len(ok_lines) == 2
        assert len(err_lines) == 1
        assert ",1," in ok_lines[0] or ok_lines[0].split(",")[-4] in ("0", "1")

    def test_kind_mismatch_is_explicit_error(self, live_server, tmp_path, capsys):
        infile = tmp_path / "input.txt"
        infile.write_text("0.1,0.1\n", encoding="utf-8")
        code = run_cli(
            "client", "--server", live_server, "--algorithm", "lcl",
            "--input", infile, "--out", tmp_path / "o.csv",
        )
        assert code == 2
        assert "available" in capsys.readouterr().err

    def test_a_malformed_not_ready_probe_goes_on_to_the_sync_loop(self, tmp_path, monkeypatch):
        def not_ready(msg, store, sink):
            return {"type": "NOT_READY", "model_kind": msg["model_kind"], "available": [1]}, True

        monkeypatch.setattr(edgectx.server, "handle_request", not_ready)
        srv = ParameterServer(("127.0.0.1", 0), ModelStore(), MemoryDataSink())
        host, port = srv.start()
        try:
            infile = tmp_path / "input.txt"
            infile.write_text("0.2,0.3\n", encoding="utf-8")
            outfile = tmp_path / "out.csv"
            code = run_cli("client", "--server", f"{host}:{port}",
                           "--input", infile, "--out", outfile)
            assert code == 0
            assert outfile.read_text().splitlines()[1].endswith(",NOT_READY")
        finally:
            srv.stop()

    def test_never_synced_emits_not_ready_records(self, tmp_path):
        store = ModelStore()
        srv = ParameterServer(("127.0.0.1", 0), store, MemoryDataSink())
        host, port = srv.start()
        try:
            infile = tmp_path / "input.txt"
            infile.write_text("0.2,0.3\n0.4,0.5\n", encoding="utf-8")
            outfile = tmp_path / "out.csv"
            code = run_cli(
                "client", "--server", f"{host}:{port}",
                "--input", infile, "--out", outfile,
            )
            assert code == 0
            lines = outfile.read_text().splitlines()[1:]
            assert len(lines) == 2
            assert all(l.endswith(",NOT_READY") for l in lines)
        finally:
            srv.stop()

    def test_row_reports_the_version_that_predicted(self, live_server, tmp_path, monkeypatch):
        # a sync lands between the command's read of the state and its
        # prediction: the row must pair the prediction with the version
        # that made it
        real_state = EdgeClient.state

        def newer(bundle, features):
            """The next version, answering the other class on ``features``."""
            other = 1 - adcl_predict(bundle.params, features).class_index
            biases = (*bundle.params.biases[:-1],
                      tuple(100.0 if j == other else -100.0 for j in range(2)))
            params = replace(bundle.params, biases=biases)
            return ParameterBundle(bundle.model_kind, params, bundle.model_version + 1,
                                   bundle.created_at)

        synced = []

        def state_then_sync(client):
            held = real_state.fget(client)
            if held.model_version == 1:
                synced.append(held.current_bundle)
                client._state = replace(held, current_bundle=newer(held.current_bundle,
                                                                   (0.1, 0.1)))
            return held

        monkeypatch.setattr(EdgeClient, "start_sync_loop", lambda client: None)
        monkeypatch.setattr(EdgeClient, "state", property(state_then_sync))
        infile = tmp_path / "input.txt"
        infile.write_text("0.1,0.1\n", encoding="utf-8")
        outfile = tmp_path / "out.csv"
        assert run_cli("client", "--server", live_server, "--input", infile,
                       "--out", outfile) == 0
        row = outfile.read_text().splitlines()[1].split(",")
        expected = adcl_predict(synced[0].params, (0.1, 0.1)).class_index
        assert (row[2], row[3], row[-1]) == (str(expected), "1", "OK")

    def test_bad_address_is_usage_error(self, tmp_path):
        infile = tmp_path / "x.txt"
        infile.write_text("1,2\n")
        assert run_cli("client", "--server", "nohost", "--input", infile) == 1

    @pytest.mark.parametrize("option,value", [
        ("--sync-period-ms", "0"), ("--sync-period-ms", "-5"), ("--sync-period-ms", "x"),
        ("--timeout", "0"), ("--timeout", "-1"), ("--timeout", "nan"), ("--timeout", "inf"),
    ])
    def test_timing_below_its_floor_is_refused_at_parse_time(self, option, value,
                                                             monkeypatch, capsys):
        monkeypatch.setattr(edgectx.cli, "cmd_client", lambda args: pytest.fail("ran"))
        assert run_cli("client", "--server", "127.0.0.1:9", option, value) == 1
        assert f"usage error: argument {option}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-5", "x"])
    def test_sync_period_variable_below_its_floor_is_refused_before_the_probe(
            self, value, monkeypatch, capsys):
        monkeypatch.setenv(edgectx.cli.ENV_SYNC_PERIOD, value)
        monkeypatch.setattr(edgectx.cli, "TcpTransport", lambda *a, **kw: pytest.fail("probed"))
        assert run_cli("client", "--server", "127.0.0.1:9") == 1
        assert f"usage error: ${edgectx.cli.ENV_SYNC_PERIOD}: expected" in capsys.readouterr().err


class TestSimulateCommand:
    def scenario_file(self, tmp_path, **overrides):
        cfg = {
            "seed": 9,
            "duration_ms": 4_000,
            "retrain_every_ms": 1_000,
            "sync_period_ms": 500,
            "upload_every_ms": 500,
            "algorithms": ["ADCL", "LCL"],
            "link": {"latency_ms": 2, "outage_windows": [[1_500, 2_500]]},
            "nodes": [
                {
                    "sensor_id": "acc0",
                    "sensor_delay_ms": 100,
                    "source": {"kind": "synth-still-motion", "n": 300, "seed": 4},
                }
            ],
        }
        cfg.update(overrides)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        return path

    def test_simulate_writes_reports(self, tmp_path, capsys):
        scenario = self.scenario_file(tmp_path)
        out_dir = tmp_path / "out"
        assert run_cli("simulate", "--scenario", scenario, "--out-dir", out_dir) == 0
        assert (out_dir / "ticks.csv").exists()
        assert (out_dir / "summary.csv").exists()
        summary = json.loads(capsys.readouterr().out)
        assert summary["emitted"] == 40 * len(["ADCL"])  # 4000ms / 100ms per reading

    def test_simulate_deterministic(self, tmp_path):
        scenario = self.scenario_file(tmp_path)
        outs = []
        for name in ("o1", "o2"):
            out_dir = tmp_path / name
            assert run_cli("simulate", "--scenario", scenario, "--out-dir", out_dir) == 0
            # latency column is wall-clock; compare the deterministic columns
            rows = [
                ",".join(line.split(",")[:-1])
                for line in (out_dir / "ticks.csv").read_text().splitlines()
            ]
            outs.append(rows)
        assert outs[0] == outs[1]

    def test_missing_scenario_file_is_runtime_error(self, tmp_path):
        assert run_cli("simulate", "--scenario", tmp_path / "nope.json") == 2


class TestBenchCommand:
    def test_bench_table(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = run_cli(
            "bench", "--repetitions", "100", "--dataset-size", "60", "--out", out
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "algorithm,phase,mean_us,p95_us,repetitions,model_size"
        algos = [l.split(",")[0] for l in lines[1:]]
        assert algos == ["CL", "LCL", "DCL", "ADCL"]

    def test_too_few_repetitions_rejected(self):
        assert run_cli("bench", "--repetitions", "10") == 2


class TestServeHelpers:
    def test_retrain_then_get_params_roundtrip(self, tmp_path):
        # exercise the serve loop body once without the blocking command
        from edgectx.cli import _retrain_once
        from edgectx.protocol import SensorBatch, TcpTransport, batch_to_wire
        from edgectx.data import SensorReading

        store = ModelStore(persist_dir=tmp_path)
        from edgectx.server import JsonlDataSink

        sink = JsonlDataSink(tmp_path / "readings.jsonl")
        srv = ParameterServer(("127.0.0.1", 0), store, sink)
        host, port = srv.start()
        try:
            tp = TcpTransport((host, port))
            readings = tuple(
                SensorReading("acc0", i, (0.1 + (i % 2) * 2.0, 0.1 + (i % 2) * 2.0))
                for i in range(40)
            )
            batch = SensorBatch("c1", readings, labels=tuple(i % 2 for i in range(40)))
            assert tp.request({"type": "PUSH_DATA", "batch": batch_to_wire(batch)})["stored"] == 40

            class Args:
                min_rows = 8
                epochs = 10

            _retrain_once(store, sink, ["DCL"], Args)
            response = tp.request({"type": "GET_PARAMS", "model_kind": "DCL"})
            assert response["type"] == "PARAMS"
            from edgectx.bundle import decode_bundle

            bundle = decode_bundle(response["bundle"].encode())
            assert bundle.params.trained_epochs > 0
            assert bundle.model_version == 1
            tp.close()
        finally:
            srv.stop()

    def test_retrain_is_reproducible(self, tmp_path):
        # two servers fed the same readings publish the same parameters,
        # version after version
        from edgectx.cli import _retrain_once
        from edgectx.data import SensorReading
        from edgectx.protocol import SensorBatch
        from edgectx.server import JsonlDataSink

        batches = [SensorBatch("c1", tuple(
            SensorReading("acc0", i, (0.1 + (i % 2) * 2.0, 0.2 * (i % 3))) for i in range(a, b)),
            labels=tuple(i % 2 for i in range(a, b))) for a, b in ((0, 40), (40, 60))]

        class Args:
            min_rows = 8
            epochs = 6

        published = []
        for run in ("a", "b"):
            store = ModelStore(persist_dir=tmp_path / run / "models")
            sink = JsonlDataSink(tmp_path / run / "readings.jsonl")
            marks = RetrainMarks()
            bundles = []
            for batch in batches:
                sink.store(batch)
                _retrain_once(store, sink, ["DCL", "CL"], Args, marks)
                bundles += [store.get("DCL"), store.get("CL")]
            published.append(bundles)
        for a, b in zip(*published):
            assert a.model_version == b.model_version
            assert same_params(a.params, b.params)
        # the next version continues from the served one for 6 // 6 epochs,
        # on every row, with the crc32 seed of its own version
        data = dataset_from_readings(sink.labeled_pairs(), ("f0", "f1"), ("0", "1"))
        for first, second, lr in zip(published[0][:2], published[0][2:],
                                     (DCL_LEARNING_RATE, CL_LEARNING_RATE)):
            kind = first.model_kind
            assert (first.model_version, second.model_version) == (1, 2)
            assert second.params.trained_epochs == first.params.trained_epochs + 1
            seed = zlib.crc32(f"{kind} v2".encode())
            params, thresholds, _ = fit(kind, data, TrainingConfig(lr, 1, seed),
                                        start=first.params)
            assert same_params(second.params, params)
            assert second.thresholds == thresholds

    def test_retrain_publishes_the_fit_model(self, tmp_path):
        # the sink's labelled rows, unnormalised, with the crc32 seed of
        # the kind and the version being published
        readings = tuple(
            SensorReading("acc0", i, (0.3 * (i % 3), 1.0 + (i % 2))) for i in range(30)
        )
        sink = JsonlDataSink(tmp_path / "readings.jsonl")
        sink.store(SensorBatch("c1", readings, labels=tuple(i % 2 for i in range(30))))
        store = ModelStore()

        class Args:
            min_rows = 8
            epochs = 7

        _retrain_once(store, sink, ["DCL", "CL"], Args)
        data = dataset_from_readings(sink.labeled_pairs(), ("f0", "f1"), ("0", "1"))
        for kind, lr in ((MODEL_KIND_DCL, DCL_LEARNING_RATE), (MODEL_KIND_CL, CL_LEARNING_RATE)):
            seed = zlib.crc32(f"{kind} v1".encode())
            params, thresholds, _ = fit(kind, data, TrainingConfig(lr, 7, seed))
            bundle = store.get(kind)
            assert bundle.model_version == 1
            assert same_params(bundle.params, params)
            assert bundle.thresholds == thresholds

    def test_restart_continues_versions(self, tmp_path, live_server):
        from edgectx.cli import _retrain_once

        # persisted store picks up where the old process stopped
        store = ModelStore(persist_dir=tmp_path)
        data = normalize_minmax(synth_still_motion(100, 2))
        params = dcl_train(data, LayerSpec(2, (2,), 2), TrainingConfig(0.3, 10, 1))
        store.publish("DCL", params)
        fresh = ModelStore(persist_dir=tmp_path)
        assert fresh.publish("DCL", params).model_version == 2


def rows_batch(start, stop, label=lambda i: i % 2):
    """Readings ``start`` to ``stop`` of two (or more) clusters apart, each
    at the value of its label."""
    labels = tuple(label(i) for i in range(start, stop))
    return SensorBatch("c1", tuple(
        SensorReading("acc0", i, (0.1 + 2.0 * lab, 0.2 + 0.1 * (i % 3)))
        for i, lab in zip(range(start, stop), labels)), labels=labels)


class RetrainArgs:
    min_rows = 8
    epochs = 30


class StoreTransport:
    """A client transport that answers from ``store`` in process."""

    def __init__(self, store):
        self.store = store

    def request(self, msg, timeout=None):
        from edgectx.server import handle_request

        return handle_request(msg, self.store, MemoryDataSink())[0]


class TestRetrainStep:
    """``serve``'s retrains: no new rows, no candidate; a candidate
    continues from the served version and is published only if it scores
    no worse on the rows since that version's publish."""

    def test_restart_between_retrains_publishes_the_same_bundles(self, tmp_path, monkeypatch,
                                                               capsys):
        monkeypatch.setattr(edgectx.server, "now_ms", lambda: 1_000)
        for run in ("straight", "restarted"):
            data_dir = tmp_path / run
            store, sink = ModelStore(persist_dir=data_dir), JsonlDataSink(data_dir / "r.jsonl")
            marks = RetrainMarks()
            sink.store(rows_batch(0, 40))
            _retrain_once(store, sink, ["DCL", "CL"], RetrainArgs, marks)
            if run == "restarted":
                served = [store.get(kind) for kind in ("DCL", "CL")]
                store, sink = ModelStore(persist_dir=data_dir), JsonlDataSink(data_dir / "r.jsonl")
                marks = RetrainMarks(published_rows=store.published_rows())
                # version 1 decodes exactly, so it is the same warm start
                assert [store.get(kind) for kind in ("DCL", "CL")] == served
            sink.store(rows_batch(40, 60))
            _retrain_once(store, sink, ["DCL", "CL"], RetrainArgs, marks)
        out = capsys.readouterr().out
        # v1's publish mark survives the restart, so both score on the new rows
        assert out.count("published DCL v2 (60 rows): 20 new, continued 5 epochs") == 2
        names = sorted(p.name for p in (tmp_path / "straight").glob("bundle-*.json"))
        assert names == ["bundle-CL-v1.json", "bundle-CL-v2.json", "bundle-DCL-v1.json",
                         "bundle-DCL-v2.json"]
        for name in names:
            assert ((tmp_path / "straight" / name).read_bytes()
                    == (tmp_path / "restarted" / name).read_bytes())

    @staticmethod
    def serve(data_dir, monkeypatch, *options):
        """Run ``edgectx serve`` on ``data_dir`` through one retrain."""
        sleeps = []

        def sleep(seconds):
            sleeps.append(seconds)
            if len(sleeps) > 1:
                raise KeyboardInterrupt

        monkeypatch.setattr(edgectx.cli.time, "sleep", sleep)
        return run_cli("serve", "--addr", "127.0.0.1:0", "--data-dir", data_dir,
                       "--retrain-every", "1", "--epochs", "6", *options)

    def test_restart_with_no_new_rows_trains_nothing(self, tmp_path, monkeypatch, capsys):
        JsonlDataSink(tmp_path / "readings.jsonl").store(rows_batch(0, 40))
        assert self.serve(tmp_path, monkeypatch) == 0
        assert "published DCL v1 (40 rows): all new" in capsys.readouterr().out
        assert json.loads((tmp_path / "publish-marks.json").read_text()) == {
            "CL": [1, 40], "DCL": [1, 40]}
        calls = TestPerfbenchHooks.record(monkeypatch, ["dcl_train", "cl_train"])
        assert self.serve(tmp_path, monkeypatch) == 0
        out = capsys.readouterr().out
        assert calls == [] and out.startswith("listening on ") and len(out.splitlines()) == 1
        JsonlDataSink(tmp_path / "readings.jsonl").store(rows_batch(40, 45))
        assert self.serve(tmp_path, monkeypatch) == 0
        assert "published DCL v2 (45 rows): 5 new, continued 1 epoch" in capsys.readouterr().out

    def test_a_mark_for_an_older_version_is_ignored(self, tmp_path, monkeypatch, capsys):
        JsonlDataSink(tmp_path / "readings.jsonl").store(rows_batch(0, 40))
        assert self.serve(tmp_path, monkeypatch, "--kinds", "DCL") == 0
        # a crash between the v2 bundle's write and its mark's leaves v1's mark
        store = ModelStore(persist_dir=tmp_path)
        store.publish("DCL", store.get("DCL").params)
        assert ModelStore(persist_dir=tmp_path).published_rows() == {}
        capsys.readouterr()
        assert self.serve(tmp_path, monkeypatch, "--kinds", "DCL") == 0
        assert "published DCL v3 (40 rows): all new, continued 1 epoch" in capsys.readouterr().out
        assert ModelStore(persist_dir=tmp_path).published_rows() == {"DCL": 40}

    @pytest.mark.parametrize("option", ["--epochs", "--retrain-every", "--min-rows"])
    @pytest.mark.parametrize("value", ["0", "-3", "x"])
    def test_settings_below_one_are_refused_at_parse_time(self, option, value, tmp_path,
                                                           monkeypatch, capsys):
        monkeypatch.setattr(edgectx.cli, "cmd_serve", lambda args: pytest.fail("served"))
        assert run_cli("serve", "--data-dir", tmp_path, option, value) == 1
        assert f"usage error: argument {option}" in capsys.readouterr().err

    def test_the_seed_is_the_version_published(self, tmp_path, monkeypatch, capsys):
        JsonlDataSink(tmp_path / "readings.jsonl").store(rows_batch(0, 40))
        assert self.serve(tmp_path, monkeypatch, "--kinds", "DCL") == 0
        # v1 is served, and the next publish skips the corrupt file's number
        (tmp_path / "bundle-DCL-v2.json").write_text("not a bundle")
        JsonlDataSink(tmp_path / "readings.jsonl").store(rows_batch(40, 45))
        seeds, dcl_train = [], edgectx.cli.dcl_train

        def recording(data, spec, cfg, **options):
            seeds.append(cfg.seed)
            return dcl_train(data, spec, cfg, **options)

        monkeypatch.setattr(edgectx.cli, "dcl_train", recording)
        capsys.readouterr()
        assert self.serve(tmp_path, monkeypatch, "--kinds", "DCL") == 0
        assert "published DCL v3 (45 rows)" in capsys.readouterr().out
        assert seeds == [zlib.crc32(b"DCL v3")]

    def test_only_the_last_2000_rows_train(self):
        bundles = []
        for start in (0, 1):
            sink, store = MemoryDataSink(), ModelStore()
            sink.store(rows_batch(start, 2001))
            _retrain_once(store, sink, ["DCL", "CL"], RetrainArgs)
            bundles.append([store.get(kind) for kind in ("DCL", "CL")])
        for a, b in zip(*bundles):
            assert same_params(a.params, b.params)
            assert a.thresholds == b.thresholds

    def test_new_class_publishes_a_fresh_wider_net_that_clients_receive(self, capsys):
        store, sink, marks = ModelStore(), MemoryDataSink(), RetrainMarks()
        sink.store(rows_batch(0, 40))
        _retrain_once(store, sink, ["DCL", "CL"], RetrainArgs, marks)
        clients = [EdgeClient(StoreTransport(store), kind) for kind in ("DCL", "CL")]
        for client in clients:
            client.sync_tick(now_ms=0)
        sink.store(rows_batch(40, 70, label=lambda i: i % 3))
        _retrain_once(store, sink, ["DCL", "CL"], RetrainArgs, marks)
        out = capsys.readouterr().out
        for kind, client in zip(("DCL", "CL"), clients):
            assert f"published {kind} v2 (70 rows): 30 new, fresh 30 epochs" in out
            assert client.state.current_bundle.params.spec.output_count == 2
            client.sync_tick(now_ms=1)
            assert client.state.model_version == 2
            assert client.state.current_bundle.params.spec.output_count == 3

    def test_worse_candidate_is_refused_without_using_a_version(self, monkeypatch, capsys):
        real, candidates = edgectx.cli.dcl_train, []

        def spoiled(data, spec, cfg, start=None):
            params = real(data, spec, cfg, start=start)
            candidates.append(start is not None)
            if len(candidates) == 2:
                # the first continued candidate answers class 1 for every row
                return replace(params, flat=(0.0,) * (len(params.flat) - 2) + (-5.0, 5.0))
            return params

        monkeypatch.setattr(edgectx.cli, "dcl_train", spoiled)
        store, sink, marks = ModelStore(), MemoryDataSink(), RetrainMarks()
        for stop in (40, 60, 80):
            sink.store(rows_batch(stop - 20 if stop > 40 else 0, stop))
            _retrain_once(store, sink, ["DCL"], RetrainArgs, marks)
        lines = capsys.readouterr().out.splitlines()
        assert candidates == [False, True, True]
        assert lines[0].startswith("published DCL v1 (40 rows): all new, fresh 30 epochs")
        assert lines[1].startswith("refused DCL candidate (60 rows): 20 new, continued 5 epochs")
        assert lines[1].endswith("score 0.500, served 1.000; 1 refused in all")
        # the rows since v1 include the refused candidate's
        assert lines[2].startswith("published DCL v2 (80 rows): 40 new, continued 5 epochs")
        assert marks.refused == {"DCL": 1} and store.get("DCL").model_version == 2

    def test_refused_candidate_is_not_retrained_on_unchanged_rows(self, monkeypatch, capsys):
        real, starts = edgectx.cli.dcl_train, []

        def spoiled(data, spec, cfg, start=None):
            params = real(data, spec, cfg, start=start)
            starts.append(start is not None)
            if start is not None:
                # every continued candidate answers class 1 for every row
                return replace(params, flat=(0.0,) * (len(params.flat) - 2) + (-5.0, 5.0))
            return params

        monkeypatch.setattr(edgectx.cli, "dcl_train", spoiled)
        store, sink, marks = ModelStore(), MemoryDataSink(), RetrainMarks()
        sink.store(rows_batch(0, 40))
        _retrain_once(store, sink, ["DCL"], RetrainArgs, marks)
        sink.store(rows_batch(40, 60))
        _retrain_once(store, sink, ["DCL"], RetrainArgs, marks)
        lines = capsys.readouterr().out.splitlines()
        assert starts == [False, True] and len(lines) == 2
        assert lines[1].startswith("refused DCL candidate (60 rows): 20 new")
        # the same rows and served version would train the same candidate
        for _ in range(2):
            _retrain_once(store, sink, ["DCL"], RetrainArgs, marks)
        assert starts == [False, True] and capsys.readouterr().out == ""
        sink.store(rows_batch(60, 61))
        _retrain_once(store, sink, ["DCL"], RetrainArgs, marks)
        assert starts == [False, True, True]
        assert capsys.readouterr().out.startswith("refused DCL candidate (61 rows): 21 new")
        assert marks.refused == {"DCL": 2} and store.get("DCL").model_version == 1

    def test_unchanged_rows_build_no_dataset(self, monkeypatch, capsys):
        real, built = edgectx.cli.dataset_from_readings, []

        def counted(*args, **kwargs):
            built.append(len(args[0]))
            return real(*args, **kwargs)

        monkeypatch.setattr(edgectx.cli, "dataset_from_readings", counted)
        store, sink, marks = ModelStore(), MemoryDataSink(), RetrainMarks()
        sink.store(rows_batch(0, 40))
        for _ in range(3):
            _retrain_once(store, sink, ["DCL", "CL"], RetrainArgs, marks)
        assert built == [40]
        assert len(capsys.readouterr().out.splitlines()) == 2

    def test_unchanged_rows_publish_nothing(self, monkeypatch, capsys):
        calls = TestPerfbenchHooks.record(monkeypatch, ["dcl_train", "cl_train"])
        store, sink, marks = ModelStore(), MemoryDataSink(), RetrainMarks()
        sink.store(rows_batch(0, 40))
        for _ in range(3):
            _retrain_once(store, sink, ["DCL", "CL"], RetrainArgs, marks)
        assert calls == ["dcl_train", "cl_train"]
        assert [store.get(kind).model_version for kind in ("DCL", "CL")] == [1, 1]
        assert len(capsys.readouterr().out.splitlines()) == 2


class TestPerfbenchHooks:
    """perfbench traces and replaces these names on ``edgectx.cli``, so the
    commands must look them up there when they run."""

    @staticmethod
    def record(monkeypatch, names):
        """Wrap each of ``names`` on ``edgectx.cli``; returns the list the
        wrappers append their name to when called."""
        calls = []

        def recording(name, real):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapper

        for name in names:
            monkeypatch.setattr(edgectx.cli, name, recording(name, getattr(edgectx.cli, name)))
        return calls

    def test_simulate_calls_run_scenario(self, tmp_path, monkeypatch):
        calls = self.record(monkeypatch, ["run_scenario"])
        scenario = TestSimulateCommand().scenario_file(tmp_path, duration_ms=1_000)
        assert run_cli("simulate", "--scenario", scenario, "--out-dir", tmp_path / "o") == 0
        assert calls == ["run_scenario"]

    def test_retrain_calls_the_trainers(self, monkeypatch):
        calls = self.record(monkeypatch, ["dcl_train", "cl_train"])
        sink = MemoryDataSink()
        sink.store(SensorBatch("c1", tuple(
            SensorReading("acc0", i, (0.1 + 2.0 * (i % 2), 0.2)) for i in range(20)),
            labels=tuple(i % 2 for i in range(20))))

        class Args:
            min_rows = 8
            epochs = 2

        _retrain_once(ModelStore(), sink, ["DCL", "CL"], Args)
        assert calls == ["dcl_train", "cl_train"]

    def test_serve_builds_its_store_and_sink_and_retrains(self, tmp_path, monkeypatch, capsys):
        rows = [{"sensor_id": "acc0", "timestamp": i, "values": [0.1 + 2.0 * (i % 2), 0.2],
                 "label": i % 2} for i in range(20)]
        (tmp_path / "readings.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
        calls = self.record(monkeypatch, ["ModelStore", "JsonlDataSink", "dcl_train",
                                          "cl_train"])
        sleeps = []

        def sleep(seconds):
            # the first retrain runs; the second sleep stops the loop
            sleeps.append(seconds)
            if len(sleeps) > 1:
                raise KeyboardInterrupt

        monkeypatch.setattr(edgectx.cli.time, "sleep", sleep)
        assert run_cli("serve", "--addr", "127.0.0.1:0", "--data-dir", tmp_path,
                       "--retrain-every", "1", "--epochs", "2") == 0
        assert calls == ["ModelStore", "JsonlDataSink", "dcl_train", "cl_train"]
        out = capsys.readouterr().out
        assert "listening on 127.0.0.1:" in out
        assert "published DCL v1 (20 rows)" in out and "published CL v1 (20 rows)" in out

    def test_every_traced_layer_is_still_a_callable_attribute(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        layers = importlib.import_module("layers")
        wrapped = []

        class Recorder:
            def wrap(self, owner, attr, name, **options):
                wrapped.append((owner, attr))

        layers.install_client_side(Recorder())
        layers.install_server_side(Recorder())
        client, learners, server, sim = (edgectx.client, edgectx.learners, edgectx.server,
                                         edgectx.sim)
        table = [
            (edgectx.nn, "train"), (edgectx.rng.Rng, "shuffle"),
            (learners, "kfold_cross_validate"), (learners, "evaluate"),
            (learners, "normalize_minmax"), (learners, "calibrate_thresholds"),
            (sim, "calibrate_thresholds"),
            *((owner, f"{algo}_predict") for owner in (learners, sim, client)
              for algo in ("adcl", "lcl")),
            (sim, "dataset_from_readings"), (edgectx.cli, "run_scenario"),
            (client, "decode_bundle"), (edgectx.protocol.TcpTransport, "request"),
            (client.EdgeClient, "sync_tick"), (client.Uploader, "upload_batch"),
            (client.Uploader, "flush"),
            (server, "handle_request"), (server, "encode_bundle"), (server, "decode_bundle"),
            (server.ModelStore, "publish"), (edgectx.cli, "dcl_train"),
            (edgectx.cli, "cl_train"), (edgectx.cli, "ModelStore"),
            (edgectx.cli, "JsonlDataSink"),
        ]
        assert sorted(map(repr, wrapped)) == sorted(map(repr, table))
        for owner, attr in table:
            assert callable(getattr(owner, attr, None)), (owner, attr)
        # what ``nn.train``'s span reads from its arguments
        params = init_network(LayerSpec(13, (9,), 5), 1)
        data = Dataset((Sample((0.5,) * 13, 0),) * 3, tuple("abcdefghijklm"), ("a", "b"))
        assert layers._train_attrs((params, data, TrainingConfig(epochs=2)), {}, None, None,
                                   None) == {"topo": "13-9x1-5", "weights": 176, "updates": 6}


def test_usage_error_exit_code():
    assert main(["train"]) == 1  # missing dataset argument
    assert main(["no-such-command"]) == 1


class TestPredictHooks:
    """perfbench's ``learners.*_predict`` spans wrap ``adcl_predict`` and
    ``lcl_predict`` on the module each caller looks them up in: the client
    on ``edgectx.client`` and the simulator on ``edgectx.sim``. Each caller
    must still go through those names, or the traced metrics read 0. The
    k-fold trainers' predictors are bound classifiers that scale raw
    features themselves, so they go through neither name."""

    @staticmethod
    def record(monkeypatch):
        calls = []

        def recording(owner, name):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls.append((owner.__name__, name))
                return real(*args, **kwargs)
            return wrapper

        for owner in (edgectx.client, edgectx.sim, edgectx.learners):
            for name in ("adcl_predict", "lcl_predict"):
                monkeypatch.setattr(owner, name, recording(owner, name))
        return calls

    def test_edge_client_predict(self, monkeypatch):
        from edgectx.server import handle_request

        data = synth_still_motion(60, 3)
        store = ModelStore()
        for kind in (MODEL_KIND_DCL, MODEL_KIND_CL):
            params, thresholds, _ = fit(kind, data, TrainingConfig(0.3, 2, 0))
            store.publish(kind, params, thresholds)

        class StoreTransport:
            def request(self, msg, timeout=None):
                return handle_request(msg, store, MemoryDataSink())[0]

        calls = self.record(monkeypatch)
        for kind, name in ((MODEL_KIND_DCL, "adcl_predict"), (MODEL_KIND_CL, "lcl_predict")):
            client = EdgeClient(StoreTransport(), kind)
            client.sync_tick(now_ms=0)
            client.predict((0.1, 0.2))
            assert calls.pop() == ("edgectx.client", name)
        assert calls == []

    def test_run_scenario(self, tmp_path, monkeypatch):
        calls = self.record(monkeypatch)
        scenario = TestSimulateCommand().scenario_file(tmp_path, duration_ms=1_000)
        assert run_cli("simulate", "--scenario", scenario, "--out-dir", tmp_path / "o") == 0
        assert set(calls) == {("edgectx.sim", "adcl_predict"), ("edgectx.sim", "lcl_predict")}

    def test_trainer_predictors(self, monkeypatch):
        from edgectx.learners import make_cl_trainer, make_dcl_trainer

        calls = self.record(monkeypatch)
        data = synth_still_motion(60, 3)
        cfg = TrainingConfig(0.3, 2, 0)
        for make in (lambda: make_dcl_trainer((2,), cfg), lambda: make_cl_trainer(cfg)):
            predict = make()(data)
            predict(data.samples[0].features)
            assert predict.__code__.co_filename.startswith("<edgectx.nn classifier ")
        assert calls == []
