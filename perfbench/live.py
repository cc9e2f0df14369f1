"""The live workload: a real ``edgectx serve`` child, two edge clients and an
uploader over loopback TCP, with the server killed and restarted.

One process drives it with two threads and two connections. The main
thread is an open-loop reading generator (predict with ADCL and LCL, upload
every ``UPLOAD_EVERY`` readings); a second thread runs both clients' sync
ticks on a fixed schedule. Every latency is timed from the moment its
request was due, so a stall shows up in the requests queued behind it.
Phases: a sync-capacity ladder (untraced runs only), then ``CYCLES`` rounds
of steady streaming, an outage (SIGKILL) and recovery (respawn on the same
port, drain the spool, sync both clients).
"""

from __future__ import annotations

import ctypes
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

from edgectx.bundle import MODEL_KIND_CL, MODEL_KIND_DCL
from edgectx.client import EdgeClient, SyncPolicy, Uploader
from edgectx.data import SensorReading
from edgectx.protocol import SensorBatch, TcpTransport

import clusters
from checks import Checks
from layers import install_client_side
from stats import jobs_predict_p50_us, percentile, pooled_p99_us

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# The traffic keeps the periods of scenarios/outage.json (a reading every
# 100 ms from each sensor, an upload every 500 ms, a sync every 1 s, a
# retrain every 2 s), run TIME_COMPRESSION times faster: `edgectx serve
# --retrain-every` takes whole seconds, so 2 s -> 1 s is as far as the
# retrain period compresses. Two syncs per retrain, as in the scenario.
TIME_COMPRESSION = 2
SENSOR_PERIOD_S = 0.1 / TIME_COMPRESSION
UPLOAD_PERIOD_S = 0.5 / TIME_COMPRESSION
SYNC_PERIOD_S = 1.0 / TIME_COMPRESSION
RETRAIN_EVERY_S = 2 // TIME_COMPRESSION
# One sensor at that rate would queue ~50 readings in an outage: too few for
# the spool's whole-file rewrite to show, or for a steady prediction tail.
# The device reads SENSORS of them, round-robin, and uploads what it read
# once an upload period.
SENSORS = 8
READINGS_PER_S = SENSORS / SENSOR_PERIOD_S
UPLOAD_EVERY = round(READINGS_PER_S * UPLOAD_PERIOD_S)
# offered sync rates, from well below to well above one connection's capacity
LADDER_RPS = (250, 500, 1000, 2000, 4000, 8000)
SYNC_LIMIT_NS = 2_000_000
PINGS = 200
# steady -> outage -> recovery cycles per run; more than one, so that the
# recovery time is a median and the prediction tail a pool over outages
CYCLES = 5
# shares of --seconds given to the ladder (all steps), and to the steady and
# outage phase of each cycle; as in the scenario, the outage lasts as long as
# the stretch before it. At 20 s an outage queues 400 readings, enough for the
# spool's whole-file rewrites to dominate the tail of the predictions queued
# behind them
LADDER_SHARE, STEADY_SHARE, OUTAGE_SHARE = 0.15, 0.125, 0.125
# `edgectx serve` trains 60 epochs every 30 s by default; the same epochs per
# second of retrain period, so that a retrain on the growing upload set still
# ends well inside a steady phase
SERVER_EPOCHS = 60 * RETRAIN_EVERY_S // 30
V1_EPOCHS = 10
SETUP_REPEATS = 5
CLIENT_ID = "edge0"
WAIT_S = 30.0
_PR_SET_PDEATHSIG = 1
ALGORITHM = {MODEL_KIND_DCL: "ADCL", MODEL_KIND_CL: "LCL"}
_BUNDLE_FILE = re.compile(r"bundle-(DCL|CL)-v(\d+)\.json$")
_LISTENING = re.compile(rb"listening on [^\s:]+:(\d+)")


class LiveError(RuntimeError):
    """The live system did not reach a state the harness waits for."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"  # the listening line must reach the file at once
    return env


def publish_v1(seed: int, data_dir: Path) -> None:
    """Train and persist the v1 DCL and CL bundles the server starts from."""
    from edgectx.learners import cl_train, dcl_train
    from edgectx.nn import LayerSpec, TrainingConfig, hidden_size_default
    from edgectx.server import ModelStore

    data = clusters.heart_like(seed)
    width = hidden_size_default(data.n_features, data.n_classes)
    spec = LayerSpec(data.n_features, (width,), data.n_classes)
    dcl = dcl_train(data, spec, TrainingConfig(learning_rate=0.3, epochs=V1_EPOCHS, seed=seed))
    cl = cl_train(data, TrainingConfig(learning_rate=0.05, epochs=V1_EPOCHS, seed=seed))
    store = ModelStore(persist_dir=data_dir)
    store.publish(MODEL_KIND_DCL, dcl)
    store.publish(MODEL_KIND_CL, cl.params, cl.thresholds)


def newest_persisted(data_dir: Path) -> dict[str, int]:
    newest: dict[str, int] = {}
    for path in data_dir.iterdir():
        m = _BUNDLE_FILE.match(path.name)
        if m:
            newest[m.group(1)] = max(newest.get(m.group(1), 0), int(m.group(2)))
    return newest


def _die_with_parent() -> None:
    """Have the kernel kill the server if the benchmark itself is killed."""
    ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)


class ServerProcess:
    """One ``edgectx serve`` child; its stdout goes to a file, never a pipe."""

    def __init__(self, workdir: Path, data_dir: Path, spans_path: Path | None) -> None:
        self.workdir = workdir
        self.data_dir = data_dir
        self.spans_path = spans_path
        self.proc: subprocess.Popen | None = None
        self.starts = 0

    def start(self, port: int = 0) -> int:
        self.starts += 1
        out_path = self.workdir / f"server-{self.starts}.out"
        cmd = [sys.executable]
        if self.spans_path is not None:
            cmd += [str(HERE / "serve_traced.py"), str(self._spans_file())]
        else:
            cmd += ["-m", "edgectx.cli"]
        cmd += ["serve", "--addr", f"127.0.0.1:{port}", "--data-dir", str(self.data_dir),
                "--retrain-every", str(RETRAIN_EVERY_S), "--epochs", str(SERVER_EPOCHS),
                "--min-rows", "8"]
        with open(out_path, "wb") as out:
            # spawned while the benchmark runs no other thread, so the
            # pre-exec hook is safe
            self.proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT,
                                         env=child_env(), cwd=self.workdir,
                                         preexec_fn=_die_with_parent)
        deadline = time.monotonic() + WAIT_S
        while True:
            m = _LISTENING.search(out_path.read_bytes())
            if m:
                return int(m.group(1))
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.kill()
                tail = out_path.read_text(errors="replace")[-400:]
                raise LiveError(f"server did not start: {tail}")
            time.sleep(0.002)

    def _spans_file(self) -> Path:
        return self.spans_path.with_name(f"{self.spans_path.stem}-{self.starts}.json")

    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    def dump_spans(self) -> None:
        """Have a traced server write its spans before it is killed."""
        if self.spans_path is None or not self.alive():
            return
        path = self._spans_file()
        path.unlink(missing_ok=True)
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + WAIT_S
        while not path.exists():
            if time.monotonic() > deadline or not self.alive():
                raise LiveError("traced server wrote no spans")
            time.sleep(0.002)

    def kill(self) -> None:
        if self.proc is not None:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()


@dataclass
class LiveRecord:
    setup_s: list[float] = field(default_factory=list)
    # per steady -> outage cycle, prediction latencies by client algorithm
    predict_ns: list[dict[str, list[int]]] = field(default_factory=list)
    sync_steady_ns: list[int] = field(default_factory=list)
    upload_ns: list[int] = field(default_factory=list)
    lag_ns: list[int] = field(default_factory=list)
    sync_max_rps: float = 0.0
    recovery_s: list[float] = field(default_factory=list)
    cpu_s: float = 0.0
    readings: int = 0
    adcl_correct: int = 0
    predictions: int = 0
    predict_failures: int = 0
    syncs_up: int = 0
    sync_failures_up: int = 0
    delivered: int = 0
    version_drops: list[str] = field(default_factory=list)
    checks: Checks = field(default_factory=Checks)

    @property
    def attempted(self) -> int:
        return self.predictions + self.syncs_up + self.readings

    @property
    def failed(self) -> int:
        return self.predict_failures + self.sync_failures_up + (self.readings - self.delivered)


class Pacer:
    """Open-loop timing for one generator thread.

    A request's latency runs from when it was due. If the thread was still
    busy with earlier requests then, that wait counts; if it was idle, the
    sleep's own wake-up slack (up to ~0.1 ms on a 2-core VM) does not, since
    it is the harness's and not the system's. ``lags`` gets how late each
    request started, slack included.
    """

    def __init__(self, lags: list[int] | None = None) -> None:
        self.lags = lags
        self.idle_from = 0.0
        self.start = 0.0
        self.queued = 0.0

    def wait(self, due: float, stop: threading.Event | None = None) -> bool:
        """Block until ``due``; False if ``stop`` was set first."""
        remaining = due - time.perf_counter()
        if stop is not None:
            if stop.wait(max(0.0, remaining)):
                return False
        elif remaining > 0:
            time.sleep(remaining)
        self.start = time.perf_counter()
        if self.lags is not None:
            self.lags.append(int((self.start - due) * 1e9))
        self.queued = max(0.0, self.idle_from - due)
        return True

    def done(self) -> int:
        """Latency in ns of the request begun at the last ``wait``."""
        end = time.perf_counter()
        self.idle_from = end
        return int((end - self.start + self.queued) * 1e9)


class Session:
    """One server data dir, the processes on it, and the two clients."""

    def __init__(self, seed: int, workdir: Path, rec: LiveRecord, spans_path: Path | None):
        self.seed = seed
        self.workdir = workdir
        self.rec = rec
        self.data_dir = workdir / "data"
        self.server = ServerProcess(workdir, self.data_dir, spans_path)
        self.port = 0
        self.server_up = False
        self.sync_tr: TcpTransport | None = None
        self.upload_tr: TcpTransport | None = None
        self.clients: list[EdgeClient] = []
        self.uploader: Uploader | None = None
        self.spool = workdir / "spool.jsonl"
        self.versions: dict[str, int] = {}
        self.lock = threading.Lock()

    # -- set-up --------------------------------------------------------------

    def setup(self) -> float:
        """Inputs, v1 bundles, server spawn, both clients on v1; seconds taken.

        Runs in a child so imports count, as they do for the offline set-up.
        """
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "setup_probe.py"), "edge-live",
                        str(self.seed), str(self.data_dir)],
                       env=child_env(), check=True, timeout=WAIT_S)
        self.port = self.server.start(0)
        self.server_up = True
        addr = ("127.0.0.1", self.port)
        self.sync_tr = TcpTransport(addr, timeout=2.0)
        self.upload_tr = TcpTransport(addr, timeout=2.0)
        policy = SyncPolicy(period_ms=int(SYNC_PERIOD_S * 1000), timeout_s=2.0)
        self.clients = [EdgeClient(self.sync_tr, MODEL_KIND_DCL, policy),
                        EdgeClient(self.sync_tr, MODEL_KIND_CL, policy)]
        deadline = time.monotonic() + WAIT_S
        while any(c.state.model_version != 1 for c in self.clients):
            if time.monotonic() > deadline:
                raise LiveError("clients never reached v1")
            for c in self.clients:
                c.sync_tick()
        return time.perf_counter() - t0

    def close(self) -> None:
        for tr in (self.sync_tr, self.upload_tr):
            if tr is not None:
                tr.close()
        self.server.kill()

    # -- bookkeeping -----------------------------------------------------------

    def _sync(self, client: EdgeClient) -> None:
        """One sync tick, counted and checked."""
        state = client.sync_tick()
        with self.lock:
            if self.server_up:
                self.rec.syncs_up += 1
                if state.consecutive_failures:
                    self.rec.sync_failures_up += 1
            version = state.model_version or 0
            held = self.versions.get(client.model_kind, 0)
            if version < held:
                self.rec.version_drops.append(f"{client.model_kind} v{held} -> v{version}")
            self.versions[client.model_kind] = max(held, version)

    # -- phases ----------------------------------------------------------------

    def ping(self) -> None:
        for _ in range(PINGS):
            self.sync_tr.request({"type": "PING"})

    def capacity(self, step_s: float) -> None:
        """The highest ladder rate served with sync p99 <= SYNC_LIMIT_NS and no backlog."""
        pacer = Pacer()
        for rate in LADDER_RPS:
            lats, start, i = [], time.perf_counter(), 0
            end = start + step_s
            while True:
                due = start + i / rate
                if due >= end or time.perf_counter() >= end:
                    break
                pacer.wait(due)
                self._sync(self.clients[i % 2])
                lats.append(pacer.done())
                i += 1
            elapsed = time.perf_counter() - start
            backlog = int(elapsed * rate) - i
            if lats and percentile(lats, 0.99) <= SYNC_LIMIT_NS and backlog <= 1:
                self.rec.sync_max_rps = i / elapsed

    def _sync_loop(self, stop: threading.Event, record: list[int]) -> None:
        """Each client syncs once a period, the two half a period apart."""
        pacer = Pacer(self.rec.lag_ns)
        start = time.perf_counter()
        k = 0
        while True:
            for offset, client in enumerate(self.clients):
                if not pacer.wait(start + (k + offset / 2) * SYNC_PERIOD_S, stop):
                    return
                up = self.server_up
                self._sync(client)
                elapsed = pacer.done()
                if up and self.server_up:
                    record.append(elapsed)
            k += 1

    def stream(self, rows, first: int, count: int, batch: list) -> None:
        """Open-loop readings ``first .. first+count-1``.

        ADCL predicts each reading when it is due and LCL half a reading
        interval later, so each prediction has a due time of its own.
        """
        pacer = Pacer(self.rec.lag_ns)
        start = time.perf_counter()
        interval = 1.0 / READINGS_PER_S
        adcl, lcl = self.clients
        for j in range(count):
            i = first + j
            features, label = rows[i]
            for offset, client in enumerate((adcl, lcl)):
                pacer.wait(start + (j + offset / 2) * interval)
                self.rec.predictions += 1
                try:
                    predicted = client.predict(features)
                except (RuntimeError, ValueError):
                    self.rec.predict_failures += 1
                    pacer.done()
                    continue
                self.rec.predict_ns[-1][ALGORITHM[client.model_kind]].append(pacer.done())
                if client is adcl and predicted.class_index == label:
                    self.rec.adcl_correct += 1
            self.rec.readings += 1
            batch.append((SensorReading(f"dev{i % SENSORS}", i, features), label))
            if len(batch) == UPLOAD_EVERY:
                self.uploader.upload_batch(SensorBatch(
                    CLIENT_ID, tuple(r for r, _ in batch), tuple(lab for _, lab in batch)))
                # due with the LCL prediction it follows, and timed from there
                self.rec.upload_ns.append(pacer.done())
                batch.clear()

    def synced(self) -> bool:
        newest = newest_persisted(self.data_dir)
        return all(c.state.model_version == newest.get(c.model_kind) for c in self.clients)

    def recover(self) -> None:
        t0 = time.perf_counter()
        self.server.start(self.port)
        with self.lock:
            self.server_up = True
        deadline = time.monotonic() + WAIT_S
        while self.uploader.queued_count:
            if time.monotonic() > deadline:
                raise LiveError("spool never drained")
            self.uploader.flush()
        self.await_synced(deadline)
        self.rec.recovery_s.append(time.perf_counter() - t0)

    def await_synced(self, deadline: float) -> None:
        while not self.synced():
            if time.monotonic() > deadline:
                raise LiveError("clients never reached the newest persisted version")
            for client in self.clients:
                self._sync(client)

    def run_phases(self, seconds: float, ladder: bool) -> None:
        n_steady = int(READINGS_PER_S * seconds * STEADY_SHARE)
        n_outage = int(READINGS_PER_S * seconds * OUTAGE_SHARE)
        rows = clusters.stream(self.seed, CYCLES * (n_steady + n_outage))
        self.uploader = Uploader(self.upload_tr, spool_path=self.spool)
        if ladder:
            self.capacity(seconds * LADDER_SHARE / len(LADDER_RPS))
        c0 = time.process_time()
        self.ping()
        batch: list = []
        for cycle in range(CYCLES):
            first = cycle * (n_steady + n_outage)
            self.rec.predict_ns.append({"ADCL": [], "LCL": []})
            stop = threading.Event()
            syncer = threading.Thread(target=self._sync_loop,
                                      args=(stop, self.rec.sync_steady_ns), name="bench-sync")
            syncer.start()
            try:
                self.stream(rows, first, n_steady, batch)
                with self.lock:
                    self.server_up = False
                self.server.dump_spans()
                self.server.kill()
                self.stream(rows, first + n_steady, n_outage, batch)
            finally:
                stop.set()
                syncer.join()
            if batch:
                self.uploader.upload_batch(SensorBatch(
                    CLIENT_ID, tuple(r for r, _ in batch), tuple(lab for _, lab in batch)))
                batch.clear()
            self.recover()
        self.rec.cpu_s += time.process_time() - c0
        self.final_checks()

    def final_checks(self) -> None:
        rec, checks = self.rec, self.rec.checks
        try:
            self.await_synced(time.monotonic() + 5.0)
            synced = True
        except LiveError:
            synced = False
        checks.check("live.ends_at_newest_version", synced,
                     f"clients hold {[c.state.model_version for c in self.clients]}, "
                     f"newest persisted {newest_persisted(self.data_dir)}")
        checks.check("live.server_alive_at_end", self.server.alive(), "respawned server died")
        checks.check("live.nothing_dropped", self.uploader.dropped_count == 0,
                     f"uploader dropped {self.uploader.dropped_count} readings")
        checks.check("live.predictions_never_fail", rec.predict_failures == 0,
                     f"{rec.predict_failures} predictions failed")
        checks.check("live.versions_never_decrease", not rec.version_drops,
                     ", ".join(rec.version_drops))
        self.server.dump_spans()
        self.server.kill()
        keys = set()
        with open(self.data_dir / "readings.jsonl", encoding="utf-8") as fh:
            for line in fh:
                m = re.search(r'"sensor_id":"([^"]*)","timestamp":(\d+)', line)
                if m:
                    keys.add((m.group(1), int(m.group(2))))
        rec.delivered += len(keys)
        checks.check("live.every_reading_persisted", len(keys) == rec.readings,
                     f"readings.jsonl holds {len(keys)} distinct readings, "
                     f"{rec.readings} were uploaded")


def edge_live(seed: int, seconds: float, workdir: Path, *, setups: int = SETUP_REPEATS,
              spans_path: Path | None = None, tracer=None) -> LiveRecord:
    """Set up ``setups`` times (the last one is kept), then run the phases.

    With a ``tracer`` the sync ladder is left out: thousands of ladder syncs
    would swamp the steady-phase sync spans, and capacity is measured
    untraced.
    """
    rec = LiveRecord()
    for rep in range(setups):
        run_dir = workdir / f"live-{rep}"
        run_dir.mkdir(parents=True)
        session = Session(seed, run_dir, rec, spans_path)
        try:
            rec.setup_s.append(session.setup())
            if rep == setups - 1:
                if tracer is not None:
                    install_client_side(tracer, session.spool)
                try:
                    session.run_phases(seconds, ladder=tracer is None)
                finally:
                    if tracer is not None:
                        tracer.restore()
        finally:
            session.close()
    return rec


def e2e_values(rec: LiveRecord) -> dict:
    return {
        "setup_s": median(rec.setup_s),
        "job_s": median(rec.recovery_s),
        "accuracy": rec.adcl_correct / rec.readings if rec.readings else 0.0,
        "predict_p50_us": jobs_predict_p50_us(rec.predict_ns),
    }


def layer_values(rec: LiveRecord) -> dict[str, float]:
    def p(values, q):
        return percentile(values, q) / 1e3 if values else 0.0

    return {
        # a few events set the tail (which retrains an upload meets, a stall
        # of the host in an outage), so it varies up to 2-3x between runs
        "live.predict_p99_us": pooled_p99_us(*rec.predict_ns),
        "live.sync_p50_us": p(rec.sync_steady_ns, 0.50),
        "live.sync_p99_us": p(rec.sync_steady_ns, 0.99),
        "live.sync_max_rps": rec.sync_max_rps,
        "live.upload_p50_us": p(rec.upload_ns, 0.50),
        "live.upload_p99_us": p(rec.upload_ns, 0.99),
        "live.recovery_s": median(rec.recovery_s),
        "bench.generator.lag_p99_us": p(rec.lag_ns, 0.99),
    }
