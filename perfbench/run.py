#!/usr/bin/env python3
"""Benchmark of edgectx: one workload per run, end-to-end or traced.

Usage (from the repository root):
    python3 perfbench/run.py --workload {train-sweep,sim-outage,edge-live}
        --seed N --seconds S --trace {0,1}

The workload's inputs come from ``--seed``. Outputs are checked; any failed
check is reported on stderr and the exit code is 1. The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``,
each metric as ``{"value": v, "unit": u}``. ``--trace 0`` gives the
end-to-end metrics; ``--trace 1`` wraps each layer's public calls in spans
and gives the per-layer metrics, plus the tracing overhead against an
untraced pass over the same inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from checks import Checks
from stats import jobs_predict_p50_us
from tracing import SpanSummary, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
WORKLOADS = ("train-sweep", "sim-outage", "edge-live")
SETUP_REPEATS = 5

# metric names and units come from BENCHMARK.json alone
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
E2E = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def _import_edgectx() -> None:
    """Put the checkout's sources first; refuse any other edgectx.

    The workload modules import edgectx, so they are imported only after
    this has run.
    """
    if not (SRC / "edgectx" / "__init__.py").is_file():
        raise SystemExit(f"error: no edgectx sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import edgectx

    if Path(edgectx.__file__).resolve().parent != SRC / "edgectx":
        raise SystemExit(f"error: edgectx imported from {edgectx.__file__}, not {SRC}")


def offline_setup_s(workload: str, seed: int) -> list[float]:
    """Fresh-interpreter set-up times: imports plus input generation."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
                       check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return times


def _metrics(values: dict[str, float], units: dict[str, str]) -> dict:
    return {name: {"value": value, "unit": units[name]} for name, value in values.items()}


class Outcome:
    """What one run reports: counts, checks and metric values."""

    def __init__(self, values: dict[str, float], *recs) -> None:
        self.values = values
        self.attempted = sum(r.attempted for r in recs)
        self.failed = sum(r.failed for r in recs)
        self.checks = Checks()
        for r in recs:
            self.checks.merge(r.checks)

    @property
    def correct(self) -> bool:
        return not self.checks.problems and self.failed == 0


def run_offline(workload: str, seed: int, seconds: float, trace: bool, workdir: Path,
                spans_dir: Path, **sizes) -> Outcome:
    import offline

    def job(**kwargs):
        if workload == "train-sweep":
            return offline.train_sweep(seed, seconds, **sizes, **kwargs)
        return offline.sim_outage(seed, seconds, workdir, **sizes, **kwargs)

    repeat_check = ("sweep.repeats_identical" if workload == "train-sweep"
                    else "sim.canonical_bytes_repeat")
    if not trace:
        setup = offline_setup_s(workload, seed)
        rec = job()
        offline.check_repeats(rec, repeat_check)
        values = {"setup_s": median(setup), "job_s": median(rec.job_s), "accuracy": rec.accuracy,
                  "predict_p50_us": jobs_predict_p50_us(rec.predict_ns)}
        return Outcome(values, rec)

    import layers

    plain = job(min_jobs=1, max_jobs=1)
    tracer = Tracer()
    layers.install_client_side(tracer)
    try:
        rec = job(tracer=tracer, min_jobs=1, max_jobs=1)
    finally:
        tracer.restore()
    _write_spans(spans_dir, workload, seed, [tracer.spans])
    # the traced job repeats the untraced one: same code, same seed
    rec.results = plain.results + rec.results
    offline.check_repeats(rec, repeat_check)
    values = layers.per_layer(SpanSummary(tracer.spans))
    values.update(rec.layer)
    values["bench.trace_overhead_pct"] = 100.0 * (rec.cpu_s[0] - plain.cpu_s[0]) / plain.cpu_s[0]
    return Outcome(values, plain, rec)


def run_live(seed: int, seconds: float, trace: bool, workdir: Path, spans_dir: Path,
             **sizes) -> Outcome:
    import live

    if not trace:
        rec = live.edge_live(seed, seconds, workdir, **sizes)
        return Outcome(live.e2e_values(rec), rec)

    import layers

    plain = live.edge_live(seed, seconds, workdir / "plain", setups=1, **sizes)
    tracer = Tracer()
    traced_dir = workdir / "traced"
    rec = live.edge_live(seed, seconds, traced_dir, setups=1, **sizes,
                         spans_path=traced_dir / "server-spans.json", tracer=tracer)
    server_spans = [json.loads(p.read_text(encoding="utf-8"))
                    for p in sorted(traced_dir.glob("server-spans-*.json"))]
    _write_spans(spans_dir, "edge-live", seed, [tracer.spans, *server_spans])
    values = layers.per_layer(SpanSummary(tracer.spans, *server_spans))
    # the user-facing live figures come from the untraced pass
    values.update(live.layer_values(plain))
    values["bench.trace_overhead_pct"] = 100.0 * (rec.cpu_s - plain.cpu_s) / plain.cpu_s
    return Outcome(values, plain, rec)


def run_workload(workload: str, seed: int, seconds: float, trace: bool, workdir: Path,
                 spans_dir: Path | None = None, **sizes) -> Outcome:
    """One run; ``sizes`` shrink a workload for quick checks of the harness.

    A traced run writes its spans to ``spans_dir`` (default ``workdir``).
    """
    spans_dir = spans_dir or workdir
    if workload == "edge-live":
        outcome = run_live(seed, seconds, trace, workdir, spans_dir, **sizes)
    else:
        outcome = run_offline(workload, seed, seconds, trace, workdir, spans_dir, **sizes)
    wanted = PER_LAYER if trace else E2E
    unknown = set(outcome.values) - set(wanted)
    if unknown:
        raise KeyError(f"metrics not in BENCHMARK.json: {sorted(unknown)}")
    if trace:
        # a layer the workload never reaches reads 0
        outcome.values = {name: outcome.values.get(name, 0) for name in wanted}
    return outcome


def _write_spans(spans_dir: Path, workload: str, seed: int, span_lists: list) -> None:
    spans_dir.mkdir(parents=True, exist_ok=True)
    path = spans_dir / f"spans-{workload}-seed{seed}.json"
    path.write_text(json.dumps({"processes": span_lists}, separators=(",", ":")),
                    encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_edgectx()
    signal.signal(signal.SIGTERM, _terminate)

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                               workdir, spans_dir=WORK)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in outcome.checks.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": outcome.correct, "attempted": outcome.attempted,
                      "failed": outcome.failed,
                      "metrics": _metrics(outcome.values, PER_LAYER if args.trace else E2E)}))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
