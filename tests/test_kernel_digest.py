import importlib.util
import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "kernel_digest.py"
# runs the script named by the first argument with ``import numpy`` failing:
# a None entry in sys.modules makes the import raise ImportError
NUMPY_BLOCKED = ("import runpy, sys; sys.modules['numpy'] = None; sys.argv = sys.argv[1:]; "
                 "runpy.run_path(sys.argv[0], run_name='__main__')")


def test_digests_repeat():
    # two runs side by side, numpy blocked; the digests themselves vary with
    # the host's floating-point libraries, so no value is pinned
    runs = [
        subprocess.Popen([sys.executable, "-c", NUMPY_BLOCKED, str(TOOL)],
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for _ in range(2)
    ]
    outputs = []
    for proc in runs:
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
        outputs.append(out)
    assert outputs[0] == outputs[1]
    lines = outputs[0].splitlines()
    names = [line.split()[0] for line in lines]
    assert names == [
        "nn.train.2-2", "nn.train.2-2x1-2", "nn.train.13-9x1-5", "nn.train.13-9x3-5",
        "nn.train.13-9x5-5", "nn.train.13-9x9-5", "nn.train.13-32x1-5", "nn.train.13-16x3-5",
        "nn.final_outputs.2-2", "nn.final_outputs.2-2x1-2", "nn.final_outputs.13-9x1-5",
        "nn.final_outputs.13-9x3-5", "nn.final_outputs.13-9x5-5",
        "nn.final_outputs.13-9x9-5", "nn.final_outputs.13-32x1-5",
        "nn.final_outputs.13-16x3-5", "learners.adcl_predict.2-2",
        "learners.adcl_predict.2-2x1-2", "learners.adcl_predict.13-9x1-5",
        "learners.adcl_predict.13-9x3-5", "learners.adcl_predict.13-9x5-5",
        "learners.adcl_predict.13-9x9-5", "learners.adcl_predict.13-32x1-5",
        "learners.adcl_predict.13-16x3-5", "learners.lcl_predict.2-2",
        "learners.adcl_predict.ties", "learners.lcl_predict.ties", "learners.kfold_predict",
        "learners.retrain.chain", "learners.retrain_round.chain", "rng.shuffle.2",
        "rng.shuffle.3", "rng.shuffle.303", "rng.shuffle.2000", "train-dcl-report",
        "train-cl-report", "train-sweep-report", "outage-canonical-bytes",
        "lossy-canonical-bytes",
    ]
    assert all(re.fullmatch(r"\S+ [0-9a-f]{64}", line) for line in lines)


def load_tool():
    spec = importlib.util.spec_from_file_location("kernel_digest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_compare_lists_moved_missing_and_new_names(tmp_path, monkeypatch, capsys):
    tool = load_tool()
    earlier = tmp_path / "earlier.txt"
    earlier.write_text("a 01\nb 02\nc 03\n")
    # the digests are given, not recomputed
    monkeypatch.setattr(tool, "digests", lambda: [("a", "01"), ("b", "02"), ("c", "03")])
    assert tool.main(["--compare", str(earlier)]) == 0
    assert capsys.readouterr().out == ""
    monkeypatch.setattr(tool, "digests", lambda: [("a", "01"), ("b", "ff"), ("d", "04")])
    assert tool.main(["--compare", str(earlier)]) == 1
    assert capsys.readouterr().out.splitlines() == ["moved b", "new d", "missing c"]
    assert tool.main([]) == 0
    assert capsys.readouterr().out == "a 01\nb ff\nd 04\n"
