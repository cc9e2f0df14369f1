"""Fast smoke test of the benchmark harness (no timing gates).

Runs every workload at a tiny size, untraced and traced, and checks that
each metric named in BENCHMARK.json is emitted with its unit and that every
correctness check was evaluated. Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

ROOT = Path(__file__).resolve().parent.parent
SPEC = run.SPEC
run._import_edgectx()

TINY = {
    "train-sweep": {"epochs": 1},
    "sim-outage": {"scale": 0.1},
    "edge-live": {},
}
CHECKS = {
    "train-sweep": {"sweep.accuracy_in_unit_range", "sweep.repeats_identical"},
    "sim-outage": {"sim.every_reading_predicted", "sim.version_frozen_in_outage",
                   "sim.version_rises_after_outage", "sim.received_equals_sent",
                   "sim.canonical_bytes_repeat"},
    "edge-live": {"live.ends_at_newest_version", "live.server_alive_at_end",
                  "live.nothing_dropped", "live.predictions_never_fail",
                  "live.versions_never_decrease", "live.every_reading_persisted"},
}


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_workload_emits_every_metric(workload, trace, tmp_path):
    seconds = 2.0 if workload == "edge-live" else 1.0
    outcome = run.run_workload(workload, 7, seconds, trace, tmp_path, **TINY[workload])
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(outcome.values) == {m["name"] for m in wanted}
    assert all(isinstance(v, (int, float)) for v in outcome.values.values())
    assert CHECKS[workload] <= outcome.checks.ran
    assert outcome.correct, outcome.checks.problems
    assert outcome.attempted >= 1


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_layer_map_covers_every_per_layer_metric():
    props = json.loads((ROOT / "perfbench" / "properties.json").read_text(encoding="utf-8"))
    assert set(props["layer_map"]) == {m["name"] for m in SPEC["per_layer"]}


def test_live_traffic_follows_the_outage_scenario():
    import live

    cfg = json.loads((ROOT / "scenarios" / "outage.json").read_text(encoding="utf-8"))
    (node,) = cfg["nodes"]
    for ours, theirs_ms in ((live.SENSOR_PERIOD_S, node["sensor_delay_ms"]),
                            (live.UPLOAD_PERIOD_S, cfg["upload_every_ms"]),
                            (live.SYNC_PERIOD_S, cfg["sync_period_ms"]),
                            (live.RETRAIN_EVERY_S, cfg["retrain_every_ms"])):
        assert ours == pytest.approx(theirs_ms / 1000 / live.TIME_COMPRESSION)
    (outage,) = cfg["link"]["outage_windows"]
    assert live.OUTAGE_SHARE / live.STEADY_SHARE == (outage[1] - outage[0]) / outage[0]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "train-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
