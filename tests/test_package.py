"""What importing the package loads, checked in a fresh interpreter each."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

from edgectx.bundle import ParameterBundle, encode_bundle
from edgectx.learners import ThresholdVector
from edgectx.nn import LayerSpec, init_network

SRC = Path(__file__).resolve().parents[1] / "src"
GOLDEN_CL = Path(__file__).resolve().parent / "golden" / "bundle_cl_golden.json"
GOLDEN_SPOOL = GOLDEN_CL.with_name("spool.jsonl")
SCENARIO = SRC.parent / "scenarios" / "outage.json"

# every public name ``import edgectx`` offers, with the submodule defining it
EXPORTS = {
    **dict.fromkeys(("bench", "bundle", "client", "data", "learners", "nn", "protocol",
                     "rng", "server", "sim")),
    "bench_execution": "bench",
    **dict.fromkeys(("BundleChecksumError", "BundleError", "BundleFormatError",
                     "BundleShapeError", "BundleVersionError", "ParameterBundle",
                     "decode_bundle", "encode_bundle"), "bundle"),
    **dict.fromkeys(("EdgeClient", "SyncPolicy", "SyncState", "Uploader"), "client"),
    **dict.fromkeys(("DataFormatError", "Dataset", "Sample", "SensorReading", "apply_minmax",
                     "load_csv", "normalize_minmax", "stratified_split",
                     "synth_still_motion"), "data"),
    **dict.fromkeys(("MODEL_KIND_CL", "MODEL_KIND_DCL", "ClModel", "ContextLabel",
                     "KFoldResult", "Metrics", "NeverSyncedError", "ThresholdVector",
                     "adcl_predict", "calibrate_thresholds", "cl_train", "dcl_train",
                     "evaluate", "fit", "kfold_cross_validate", "lcl_predict",
                     "make_cl_trainer", "make_dcl_trainer"), "learners"),
    **dict.fromkeys(("DimensionError", "LayerSpec", "NetworkParameters", "TrainingConfig",
                     "apply_update", "backprop", "forward", "hidden_size_default",
                     "init_network", "sigmoid", "squared_error", "train"), "nn"),
    **dict.fromkeys(("SensorBatch", "TcpTransport", "TransportError"), "protocol"),
    **dict.fromkeys(("JsonlDataSink", "MemoryDataSink", "ModelStore", "ParameterServer"),
                    "server"),
    **dict.fromkeys(("LinkConfig", "ScenarioResult", "SensorNodeConfig", "run_scenario"),
                    "sim"),
}
NOT_SERVED = ("edgectx.sim", "edgectx.client", "edgectx.bench")


def run_fresh(code: str) -> str:
    """Run ``code`` in a new interpreter with the package on its path;
    returns its stdout."""
    done = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r})\n{code}"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def loaded_after(code: str) -> set[str]:
    out = run_fresh(f"{code}\nimport json\nprint(json.dumps(sorted(sys.modules)))")
    return set(json.loads(out.splitlines()[-1]))


def test_cli_import_leaves_out_what_serve_does_not_use():
    loaded = loaded_after("import edgectx.cli")
    assert "edgectx.server" in loaded
    assert not loaded & set(NOT_SERVED)
    assert "statistics" not in loaded and "csv" not in loaded


def serve_one_retrain(data_dir: Path) -> str:
    """Code that runs ``serve`` on ``data_dir``, holding a v1 bundle of each
    kind and 20 readings, through one retrain of each kind, then prints
    what it saw as JSON."""
    rows = [{"sensor_id": "acc0", "timestamp": i, "values": [0.1 + 2.0 * (i % 2), 0.2],
             "label": i % 2} for i in range(20)]
    (data_dir / "readings.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
    for kind, hidden, thresholds in (("DCL", (2,), None),
                                     ("CL", (), ThresholdVector((0.5, 0.5)))):
        bundle = ParameterBundle(kind, init_network(LayerSpec(2, hidden, 2), 3), 1, 0,
                                 thresholds)
        (data_dir / f"bundle-{kind}-v1.json").write_bytes(encode_bundle(bundle))
    # the first sleep stands for the wait before the first retrain: it talks
    # to the server, then returns, so one retrain runs; the second sleep
    # stops the loop
    return f"""
import contextlib, io, json, time
import edgectx.cli
from edgectx.protocol import TcpTransport
printed, seen, sleeps = io.StringIO(), {{}}, []
def sleep(seconds):
    sleeps.append(seconds)
    if len(sleeps) > 1:
        seen["after_retrain"] = "numpy" in sys.modules
        raise KeyboardInterrupt
    host, port = printed.getvalue().split("listening on ")[1].split()[0].rsplit(":", 1)
    link = TcpTransport((host, int(port)))
    replies = [link.request({{"type": "PING"}})]
    replies += [link.request({{"type": "GET_PARAMS", "model_kind": k}}) for k in ("DCL", "CL")]
    replies.append(link.request({{"type": "PUSH_DATA", "batch": {{
        "client_id": "c1", "labels": [0, 1],
        "readings": [{{"sensor_id": "acc0", "timestamp": 99, "values": [0.1, 0.2]}},
                     {{"sensor_id": "acc0", "timestamp": 99, "values": [2.1, 0.2]}}]}}}}))
    link.close()
    seen["replies"] = [r["type"] for r in replies]
    seen["before_retrain"] = sorted(m for m in sys.modules if m.split(".")[0] == "numpy")
time.sleep = sleep
with contextlib.redirect_stdout(printed):
    code = edgectx.cli.main(["serve", "--addr", "127.0.0.1:0", "--data-dir", {str(data_dir)!r},
                             "--retrain-every", "1", "--epochs", "2"])
assert code == 0 and len(sleeps) == 2, code
seen["loaded"] = sorted(sys.modules)
print(json.dumps(seen))
"""


def check_one_retrain(data_dir: Path, out: str) -> dict:
    """What ``serve_one_retrain`` printed, once the retrain is checked."""
    seen = json.loads(out.splitlines()[-1])
    assert seen["replies"] == ["PONG", "PARAMS", "PARAMS", "ACK"]
    assert sorted(p.name for p in data_dir.glob("bundle-*.json")) == [
        "bundle-CL-v1.json", "bundle-CL-v2.json", "bundle-DCL-v1.json", "bundle-DCL-v2.json"]
    return seen


def test_serve_through_a_retrain_leaves_out_what_it_does_not_use(tmp_path):
    seen = check_one_retrain(tmp_path, run_fresh(serve_one_retrain(tmp_path)))
    assert seen["before_retrain"] == []
    assert seen["after_retrain"] is False
    assert not set(seen["loaded"]) & set(NOT_SERVED)


def test_train_simulate_and_serve_run_with_numpy_blocked(tmp_path):
    # a None entry in sys.modules makes ``import numpy`` raise ImportError
    serve_dir = tmp_path / "serve"
    serve_dir.mkdir()
    out = run_fresh(f"""
sys.modules["numpy"] = None
import contextlib, io, json
import edgectx.cli
for kind in ("dcl", "cl"):
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        assert edgectx.cli.main(["train", "synth-still-motion", "--kind", kind, "--kfold", "3",
                                 "--epochs", "5", "--synth-n", "200"]) == 0
    assert json.loads(printed.getvalue())["mean_accuracy"] > 0.5, printed.getvalue()
with contextlib.redirect_stdout(io.StringIO()) as printed:
    assert edgectx.cli.main(["simulate", "--scenario", {str(SCENARIO)!r},
                             "--out-dir", {str(tmp_path / "sim")!r}]) == 0
assert json.loads(printed.getvalue())["publishes"] > 0
{serve_one_retrain(serve_dir)}""")
    check_one_retrain(serve_dir, out)


def test_edge_path_leaves_out_numpy(tmp_path):
    # a client import, decoding both bundle kinds and predicting with each,
    # then an uploader that loads a spool, fails an upload and saves again
    dcl = encode_bundle(ParameterBundle("DCL", init_network(LayerSpec(4, (3,), 3), 7), 1, 0))
    spool = tmp_path / "spool.jsonl"
    shutil.copy(GOLDEN_SPOOL, spool)
    loaded = loaded_after(f"""
import edgectx.client
from edgectx.bundle import decode_bundle
from edgectx.data import SensorReading
from edgectx.learners import adcl_predict, lcl_predict
from edgectx.protocol import SensorBatch, TransportError
cl = decode_bundle(open({str(GOLDEN_CL)!r}, "rb").read())
dcl = decode_bundle({dcl!r})
assert lcl_predict(cl.as_cl_model, [0.1, 0.5, 0.9]).class_index in (0, 1)
assert adcl_predict(dcl.params, [0.1, 0.5, 0.9, 0.3]).class_index in (0, 1, 2)
class Down:
    def request(self, msg, timeout=None):
        raise TransportError("link down")
uploader = edgectx.client.Uploader(Down(), spool_path={str(spool)!r})
assert uploader.queued_count == 7
batch = SensorBatch("edge-2", (SensorReading("acc0", 5000, (0.1, 0.2, 0.3)),), labels=(1,))
assert uploader.upload_batch(batch) == 0 and uploader.queued_count == 8
""")
    assert "edgectx.client" in loaded
    assert "numpy" not in loaded
    assert "edgectx.server" not in loaded
    assert len(spool.read_bytes().splitlines()) == 8


def test_scaled_classifier_leaves_out_numpy():
    # binding ADCL and LCL classifiers with min-max ranges and predicting on
    # raw features, through the generated function and through the fallback
    loaded = loaded_after("""
from edgectx.learners import ClModel, ThresholdVector, classifier
from edgectx.nn import LayerSpec, NetworkParameters
norms = ((0.0, 2.0), (1.0, 1.0), (-1.0, 3.0))
dcl = NetworkParameters(LayerSpec(3, (2,), 2), flat=[0.1 * i - 0.7 for i in range(14)])
cl = ClModel(NetworkParameters(LayerSpec(3, (), 2), flat=[0.3 - 0.1 * i for i in range(8)]),
             ThresholdVector((0.4, 0.6)))
for model in (dcl, cl):
    classify = classifier(model, ("a", "b"), norms)
    assert classify.__code__.co_filename.startswith("<edgectx.nn classifier ")
    for x in ([0.5, 7.0, 9.0], (-1.0, 1.0, float("nan")), (True, "x", 2), iter([1, 1, 1])):
        assert classify(x).name in ("a", "b")
    try:
        classify(("0.5", 1.0, 2.0))
    except TypeError:
        pass
    else:
        raise SystemExit("a string was scaled")
""")
    assert "edgectx.learners" in loaded
    assert "numpy" not in loaded


def test_wide_net_predicts_without_numpy():
    # a 13-32-5 net, whose layers run row by row, built from a flat tuple:
    # its bound classifier and final_outputs run the generated kernel
    loaded = loaded_after("""
from edgectx.nn import LayerSpec, NetworkParameters, bind_classifier, final_outputs
count = 32 * 14 + 5 * 33
p = NetworkParameters(LayerSpec(13, (32,), 5), flat=tuple(0.01 * (i % 7) - 0.03
                                                          for i in range(count)))
classify = bind_classifier(p, ("a", "b", "c", "d", "e"))
x = [0.1 * k for k in range(13)]
outputs = final_outputs(p, x)
assert classify(x) == "abcde"[outputs.index(max(outputs))]
assert len(outputs) == 5 and all(0.0 < o < 1.0 for o in outputs)
""")
    assert "edgectx.nn" in loaded
    assert "numpy" not in loaded


# resolves every name of EXPORTS, then prints the names the package does
# not list; a submodule's entry is None: the name is the submodule itself
RESOLVE_EXPORTS = f"""
import importlib
import edgectx
for name, module in {EXPORTS!r}.items():
    namespace = {{}}
    exec(f"from edgectx import {{name}}", namespace)
    if module is None:
        assert namespace[name] is importlib.import_module(f"edgectx.{{name}}"), name
    else:
        assert namespace[name] is getattr(importlib.import_module(f"edgectx.{{module}}"),
                                          name), name
print(sorted(set({sorted(EXPORTS)!r}) - (set(dir(edgectx)) & set(edgectx.__all__))))
"""


def test_every_export_resolves():
    out = run_fresh(RESOLVE_EXPORTS)
    assert out.strip() == "[]"


def test_every_export_resolves_and_nn_runs_with_numpy_blocked():
    # every export, then one step of the network surface on a 2-3-2 net:
    # forward, backprop, apply_update and sigmoid
    out = run_fresh(f"""
sys.modules["numpy"] = None
{RESOLVE_EXPORTS}
from edgectx import LayerSpec, apply_update, backprop, forward, init_network, sigmoid
p = init_network(LayerSpec(2, (3,), 2), 1)
outputs = forward(p, [0.2, 0.7])
grads = backprop(p, [0.2, 0.7], [1.0, 0.0])
q = apply_update(p, grads, 0.3)
assert [len(layer) for layer in outputs] == [3, 2] and len(grads) == len(p.flat) == 17
assert q.flat == tuple(y - 0.3 * g for y, g in zip(p.flat, grads))
(w0, w1), b = p.weights[0][0], p.biases[0][0]
assert sigmoid(0.0) == 0.5 and outputs[0][0] == sigmoid(b + w0 * 0.2 + w1 * 0.7)
""")
    assert out.strip() == "[]"


def test_submodule_is_an_attribute_of_the_package():
    out = run_fresh("import edgectx\nprint(edgectx.sim.__name__, edgectx.sim.run_scenario is "
                    "edgectx.run_scenario)")
    assert out.split() == ["edgectx.sim", "True"]


def test_unknown_name_is_an_attribute_error():
    run_fresh("""
import edgectx
try:
    edgectx.no_such_name
except AttributeError:
    pass
else:
    raise SystemExit("no AttributeError")
""")
