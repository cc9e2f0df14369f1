"""Command-line entry points: train, serve, client, bench, simulate.

Exit codes: 0 success, 1 usage error, 2 runtime error, 3 a requested
accuracy gate was not met (for CI gating).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from . import nn
from .bundle import encode_bundle
from .data import (
    Dataset,
    dataset_from_readings,
    load_csv,
    normalize_minmax,
    relabel,
    synth_still_motion,
)
from .learners import (
    CL_LEARNING_RATE,
    DCL_LEARNING_RATE,
    MIN_RETRAIN_ROWS,
    MODEL_KIND_CL,
    MODEL_KIND_DCL,
    Candidate,
    cl_train,
    dcl_train,
    fit,
    kfold_cross_validate,
    make_cl_trainer,
    make_dcl_trainer,
    model_spec,
    retrain_round,
)
from .nn import TrainingConfig
from .protocol import MSG_NOT_READY, TcpTransport, TransportError
from .server import JsonlDataSink, ModelStore, ParameterServer

# `simulate`, `client` and `bench` import the simulator, the edge client and
# the benchmark when they run, so `serve` starts without them

log = logging.getLogger(__name__)

ENV_SERVER_ADDR = "EDGECTX_SERVER_ADDR"
ENV_SYNC_PERIOD = "EDGECTX_SYNC_PERIOD_MS"
ENV_CONFIG = "EDGECTX_CONFIG"

REGISTRY_NAMES = ("iris", "seeds", "heart", "synth-still-motion")


class UsageError(Exception):
    pass


class ThresholdFailure(Exception):
    """An accuracy gate requested with --min-accuracy was not met."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


@dataclass
class RunReport:
    """Everything needed to reproduce a train run: the command, the config
    snapshot, the dataset fingerprint, and the seed-determined numbers.
    Wall-clock timings are printed to stdout, not written to the report, so
    identical invocations produce byte-identical report files."""

    command: str
    config: dict
    dataset_rows: int
    dataset_crc: int
    mean_accuracy: float | None = None
    std_accuracy: float | None = None
    fold_accuracies: tuple[float, ...] = ()
    loss_curve: tuple[float, ...] = ()

    def to_csv(self) -> str:
        lines = ["section,key,value"]
        lines.append(f"command,,{self.command}")
        for k in sorted(self.config):
            lines.append(f"config,{k},{self.config[k]}")
        lines.append(f"fingerprint,rows,{self.dataset_rows}")
        lines.append(f"fingerprint,crc32,{self.dataset_crc}")
        if self.mean_accuracy is not None:
            lines.append(f"kfold,mean_accuracy,{self.mean_accuracy!r}")
            lines.append(f"kfold,std_accuracy,{self.std_accuracy!r}")
            for i, acc in enumerate(self.fold_accuracies, start=1):
                lines.append(f"fold,{i},{acc!r}")
        for i, loss in enumerate(self.loss_curve, start=1):
            lines.append(f"loss_epoch,{i},{loss!r}")
        return "\n".join(lines) + "\n"


def _load_registry(config_path: str | None) -> dict:
    path = config_path or os.environ.get(ENV_CONFIG)
    if not path:
        return {}
    with open(path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    return cfg


def _iris_from_sklearn() -> Dataset:
    try:
        from sklearn.datasets import load_iris
    except ImportError:
        raise UsageError(
            "dataset 'iris' has no configured path and scikit-learn is not "
            "installed; supply a CSV path via the config file"
        ) from None
    raw = load_iris()
    from .data import Sample

    samples = tuple(
        Sample(tuple(float(v) for v in row), int(label))
        for row, label in zip(raw.data, raw.target)
    )
    return Dataset(
        samples,
        feature_names=tuple(str(n) for n in raw.feature_names),
        class_names=tuple(str(n) for n in raw.target_names),
    )


def resolve_dataset(name: str, registry: dict, *, synth_n: int = 2000,
                    synth_seed: int = 42) -> Dataset:
    """Registry name, or a CSV path, to a loaded Dataset."""
    if name == "synth-still-motion":
        return synth_still_motion(synth_n, synth_seed)
    datasets = registry.get("datasets", {}) if registry else {}
    if name in datasets:
        return load_csv(datasets[name])
    if name == "iris":
        return _iris_from_sklearn()
    if Path(name).exists():
        return load_csv(name)
    raise UsageError(
        f"unknown dataset {name!r}: not a registry name with a configured "
        f"path, not an existing file (registry names: {', '.join(REGISTRY_NAMES)})"
    )


def _parse_hidden(text: str | None) -> tuple[int, ...] | None:
    if text is None:
        return None
    try:
        return tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise UsageError(f"bad --hidden value {text!r}") from None


def _parse_sweep(tokens: list[str]) -> tuple[list[float], list[int]]:
    """``lr=0.1..0.9 hidden=1..9`` to (learning rates, hidden layer counts)."""
    lrs: list[float] | None = None
    hiddens: list[int] | None = None
    for token in tokens:
        if "=" not in token or ".." not in token:
            raise UsageError(f"bad sweep token {token!r}; expected name=a..b")
        name, _, rng = token.partition("=")
        lo_s, _, hi_s = rng.partition("..")
        try:
            if name == "lr":
                lo, hi = float(lo_s), float(hi_s)
                if not (0.0 < lo <= hi <= 1.0):
                    raise ValueError
                lrs, v = [], lo
                while v <= hi + 1e-9:
                    lrs.append(round(v, 10))
                    v += 0.1
            elif name == "hidden":
                lo_i, hi_i = int(lo_s), int(hi_s)
                if not (1 <= lo_i <= hi_i):
                    raise ValueError
                hiddens = list(range(lo_i, hi_i + 1))
            else:
                raise UsageError(f"unknown sweep dimension {name!r}")
        except ValueError:
            raise UsageError(f"bad sweep range {token!r}") from None
    if lrs is None or hiddens is None:
        raise UsageError("sweep needs both lr=a..b and hidden=a..b")
    return lrs, hiddens


def cmd_train(args) -> int:
    registry = _load_registry(args.config)
    data = resolve_dataset(
        args.dataset, registry, synth_n=args.synth_n, synth_seed=args.synth_seed
    )
    if args.binarize is not None:
        if args.binarize not in data.class_names:
            raise UsageError(
                f"--binarize class {args.binarize!r} not in {data.class_names}"
            )
        mapping = {
            name: (args.binarize if name == args.binarize else f"not-{args.binarize}")
            for name in data.class_names
        }
        data = relabel(data, mapping)
    rows, crc = data.fingerprint()

    if args.sweep:
        return _run_sweep(args, data, rows, crc)

    lr = args.lr if args.lr is not None else (
        DCL_LEARNING_RATE if args.kind == "dcl" else CL_LEARNING_RATE
    )
    cfg = TrainingConfig(learning_rate=lr, epochs=args.epochs, seed=args.seed)
    hidden = _parse_hidden(args.hidden)
    t0 = time.perf_counter()
    if args.kind == "dcl":
        trainer = make_dcl_trainer(hidden, cfg)
    else:
        if hidden:
            raise UsageError("--hidden does not apply to --kind cl")
        trainer = make_cl_trainer(cfg)
    result = kfold_cross_validate(data, args.kfold, trainer, args.seed)
    kfold_s = time.perf_counter() - t0

    # final model on the full dataset, shipped as the bundle
    kind = MODEL_KIND_DCL if args.kind == "dcl" else MODEL_KIND_CL
    fitted = normalize_minmax(data)
    t0 = time.perf_counter()
    params, thresholds, loss_curve = fit(kind, fitted, cfg, hidden)
    train_s = time.perf_counter() - t0

    if args.out:
        store = ModelStore()
        bundle = store.publish(kind, params, thresholds, created_at=int(time.time() * 1000))
        Path(args.out).write_bytes(encode_bundle(bundle))

    report = RunReport(
        command=f"train {args.dataset}",
        config={
            "kind": args.kind, "lr": lr, "epochs": args.epochs,
            "hidden": list(hidden) if hidden else "default",
            "kfold": args.kfold, "seed": args.seed, "binarize": args.binarize,
        },
        dataset_rows=rows, dataset_crc=crc,
        mean_accuracy=result.mean_accuracy, std_accuracy=result.std_accuracy,
        fold_accuracies=result.fold_accuracies, loss_curve=tuple(loss_curve),
    )
    if args.report:
        Path(args.report).write_text(report.to_csv(), encoding="utf-8")
    print(json.dumps({
        "dataset": args.dataset, "rows": rows, "crc32": crc,
        "kind": args.kind, "kfold": args.kfold,
        "mean_accuracy": result.mean_accuracy,
        "std_accuracy": result.std_accuracy,
        "fold_accuracies": list(result.fold_accuracies),
        "final_epoch_loss": loss_curve[-1],
        "timing_s": {"kfold": round(kfold_s, 3), "final_train": round(train_s, 3)},
        "bundle": args.out, "report": args.report,
    }))
    if args.min_accuracy is not None and result.mean_accuracy < args.min_accuracy:
        raise ThresholdFailure(
            f"mean accuracy {result.mean_accuracy:.4f} below gate {args.min_accuracy}"
        )
    return 0


def _run_sweep(args, data: Dataset, rows: int, crc: int) -> int:
    if args.kind != "dcl":
        raise UsageError("--sweep applies to --kind dcl")
    lrs, layer_counts = _parse_sweep(args.sweep)
    width = nn.hidden_size_default(data.n_features, data.n_classes)
    out_path = Path(args.report or "sweep.csv")
    lines = ["lr,hidden_layers,hidden_width,mean_accuracy,std_accuracy"]
    best = (None, -1.0)
    for lr in lrs:
        for depth in layer_counts:
            cfg = TrainingConfig(learning_rate=lr, epochs=args.epochs, seed=args.seed)
            trainer = make_dcl_trainer((width,) * depth, cfg)
            result = kfold_cross_validate(data, args.kfold, trainer, args.seed)
            lines.append(
                f"{lr},{depth},{width},{result.mean_accuracy!r},{result.std_accuracy!r}"
            )
            if result.mean_accuracy > best[1]:
                best = ((lr, depth), result.mean_accuracy)
    out_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(json.dumps({
        "dataset": args.dataset, "rows": rows, "crc32": crc,
        "grid": [len(lrs), len(layer_counts)], "report": str(out_path),
        "best_lr": best[0][0], "best_hidden_layers": best[0][1],
        "best_mean_accuracy": best[1],
    }))
    if args.min_accuracy is not None and best[1] < args.min_accuracy:
        raise ThresholdFailure(
            f"best mean accuracy {best[1]:.4f} below gate {args.min_accuracy}"
        )
    return 0


def _parse_addr(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise UsageError(f"bad address {text!r}; expected host:port")
    return host, int(port)


def cmd_serve(args) -> int:
    kinds = [k.strip().upper() for k in args.kinds.split(",") if k.strip()]
    for k in kinds:
        if k not in (MODEL_KIND_DCL, MODEL_KIND_CL):
            raise UsageError(f"bad --kinds entry {k!r}")
    data_dir = Path(args.data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)
    store = ModelStore(persist_dir=data_dir)
    sink = JsonlDataSink(data_dir / "readings.jsonl")
    server = ParameterServer(_parse_addr(args.addr), store, sink)
    host, port = server.start()
    log.info("serving on %s:%d, retraining every %ds", host, port, args.retrain_every)
    print(f"listening on {host}:{port}")
    try:
        while True:
            time.sleep(args.retrain_every)
            _retrain_once(store, sink, kinds, args)
    except KeyboardInterrupt:
        return 0
    finally:
        server.stop()


def _retrain_once(store: ModelStore, sink: JsonlDataSink, kinds, args) -> None:
    """One retrain step (``learners.retrain_round``) on the labelled rows
    ``sink`` holds, which publishes each accepted candidate in ``store``;
    prints a line for each publish and each refusal."""
    pairs = sink.labeled_pairs()
    for kind, candidate, bundle in retrain_round(pairs, kinds, store, args.epochs,
                                                 min_rows=args.min_rows,
                                                 build=dataset_from_readings, trainer=_trainer):
        if bundle is None:
            print(f"refused {kind} candidate ({len(pairs)} rows): {_outline(candidate)}; "
                  f"{store.refusals()[kind][0]} refused in all")
        else:
            print(f"published {kind} v{bundle.model_version} ({len(pairs)} rows): "
                  f"{_outline(candidate)}")


def _trainer(kind: str):
    """``learners.retrain``'s ``train`` for ``kind``: (params, thresholds)
    through ``dcl_train`` and ``cl_train`` as this module holds them when it
    runs."""
    def train(data, cfg, start):
        if kind == MODEL_KIND_DCL:
            return dcl_train(data, model_spec(kind, data), cfg, start=start), None
        model = cl_train(data, cfg, start=start)
        return model.params, model.thresholds
    return train


def _outline(candidate: Candidate) -> str:
    """What a publish or refusal line tells after the row count."""
    new = "all" if candidate.new_rows is None else candidate.new_rows
    start = "continued" if candidate.continued else "fresh"
    served = "none" if candidate.served_score is None else f"{candidate.served_score:.3f}"
    epochs = f"{candidate.epochs} epoch{'s' * (candidate.epochs != 1)}"
    return (f"{new} new, {start} {epochs} in {candidate.train_ms:.1f} ms, "
            f"score {candidate.score:.3f}, served {served}")


def cmd_client(args) -> int:
    from .client import EdgeClient, SyncPolicy, sync_request

    addr = _parse_addr(args.server or os.environ.get(ENV_SERVER_ADDR, ""))
    period = _sync_period_ms(args.sync_period_ms)
    kind = MODEL_KIND_DCL if args.algorithm == "adcl" else MODEL_KIND_CL
    transport = TcpTransport(addr, timeout=args.timeout)

    # the probe is the first sync: its reply fails fast when the server has
    # models but not the requested kind, and is applied otherwise
    probed_at = int(time.time() * 1000)
    try:
        probe = transport.request(sync_request(kind))
    except TransportError:
        probe = {}  # stay live; the sync loop keeps retrying
    available = probe.get("available")
    if (probe.get("type") == MSG_NOT_READY and isinstance(available, list) and available
            and all(isinstance(k, str) for k in available) and kind not in available):
        print(
            f"error: server has no {kind} model (available: "
            f"{', '.join(available)}); wrong --algorithm?",
            file=sys.stderr,
        )
        return 2

    client = EdgeClient(transport, kind, SyncPolicy(period_ms=period, timeout_s=args.timeout))
    client.replied(probe, probed_at)
    client.start_sync_loop()

    infile = sys.stdin if args.input == "-" else open(args.input, encoding="utf-8")
    outfile = sys.stdout if args.out == "-" else open(args.out, "w", encoding="utf-8")
    try:
        outfile.write("timestamp_ms,features,predicted_class,model_version,staleness_ms,status\n")
        for line in infile:
            line = line.strip()
            if not line:
                continue
            now = int(time.time() * 1000)
            state = client.state
            try:
                features = tuple(float(x) for x in line.replace(";", ",").split(","))
            except ValueError:
                outfile.write(f"{now},{line.replace(',', ';')},,,,ERROR\n")
                outfile.flush()
                continue
            feat_text = ";".join(repr(v) for v in features)
            if state.current_bundle is None:
                outfile.write(f"{now},{feat_text},,,,NOT_READY\n")
                outfile.flush()
                continue
            try:
                # the version reported is the one that made the prediction
                label = state.predict(features)
            except ValueError as exc:
                outfile.write(f"{now},{feat_text},,,,ERROR\n")
                log.warning("prediction failed: %s", exc)
                outfile.flush()
                continue
            outfile.write(
                f"{now},{feat_text},{label.class_index},"
                f"{state.model_version},{state.staleness_ms(now)},OK\n"
            )
            outfile.flush()
    finally:
        client.stop_sync_loop()
        if infile is not sys.stdin:
            infile.close()
        if outfile is not sys.stdout:
            outfile.close()
    return 0


def cmd_bench(args) -> int:
    from . import bench

    rows = bench.bench_execution(
        repetitions=args.repetitions, dataset_size=args.dataset_size, seed=args.seed
    )
    csv_text = bench.rows_to_csv(rows)
    if args.out:
        Path(args.out).write_text(csv_text, encoding="utf-8")
    print(csv_text, end="")
    return 0


def _scenario_source(obj: dict) -> Dataset:
    kind = obj.get("kind")
    if kind == "synth-still-motion":
        return synth_still_motion(
            int(obj.get("n", 2000)),
            int(obj.get("seed", 42)),
            motion_fraction=float(obj.get("motion_fraction", 0.15)),
        )
    if kind == "csv":
        return load_csv(obj["path"])
    raise UsageError(f"unknown scenario source kind {kind!r}")


def run_scenario(*args, **kwargs):
    """``sim.run_scenario``, with the simulator imported on the call."""
    from .sim import run_scenario as run

    return run(*args, **kwargs)


def cmd_simulate(args) -> int:
    from .sim import LinkConfig, SensorNodeConfig

    with open(args.scenario, encoding="utf-8") as fh:
        cfg = json.load(fh)
    nodes = [
        SensorNodeConfig(
            sensor_id=str(n.get("sensor_id", f"sensor{i}")),
            sensor_delay_ms=int(n.get("sensor_delay_ms", 100)),
            sleep_interval_ms=int(n.get("sleep_interval_ms", 0)),
            duty_length=int(n.get("duty_length", 1)),
            source=_scenario_source(n["source"]),
        )
        for i, n in enumerate(cfg.get("nodes", []))
    ]
    link_cfg = cfg.get("link", {})
    link = LinkConfig(
        latency_ms=int(link_cfg.get("latency_ms", 0)),
        drop_probability=float(link_cfg.get("drop_probability", 0.0)),
        outage_windows=tuple(
            (int(a), int(b)) for a, b in link_cfg.get("outage_windows", [])
        ),
    )
    result = run_scenario(
        nodes,
        link,
        retrain_every_ms=int(cfg.get("retrain_every_ms", 2000)),
        algorithms=tuple(cfg.get("algorithms", ["ADCL"])),
        duration_ms=int(cfg.get("duration_ms", 10_000)),
        seed=int(cfg.get("seed", 1)),
        sync_period_ms=int(cfg.get("sync_period_ms", 1000)),
        upload_every_ms=int(cfg.get("upload_every_ms", 500)),
        warm_start=bool(cfg.get("warm_start", True)),
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "ticks.csv").write_text(result.ticks_csv(), encoding="utf-8")
    (out_dir / "summary.csv").write_text(result.summary_csv(), encoding="utf-8")
    print(json.dumps({
        "emitted": result.emitted_readings,
        "client_sent": result.client_sent_readings,
        "server_received_distinct": result.server_received_distinct,
        "publishes": len(result.published),
        "refused": len(result.refused),
        "accuracy": {a: m.accuracy for a, m in result.metrics.items()},
        "out_dir": str(out_dir),
    }))
    return 0


def _at_least_one(text: str) -> int:
    value = int(text) if text.strip().isdigit() else 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a whole number of at least 1, got {text!r}")
    return value


def _sync_period_ms(flag: int | None) -> int:
    """``--sync-period-ms``, else ``$EDGECTX_SYNC_PERIOD_MS`` by the flag's
    rule, else 30 s."""
    text = os.environ.get(ENV_SYNC_PERIOD)
    if flag is not None or not text:
        return flag or 30_000
    try:
        return _at_least_one(text)
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"${ENV_SYNC_PERIOD}: {exc}") from None


def _positive(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = 0.0
    if not 0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"expected a finite number above 0, got {text!r}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="edgectx", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("train", help="train CL/DCL with k-fold evaluation")
    p.add_argument("dataset", help="registry name or CSV path")
    p.add_argument("--kind", choices=("dcl", "cl"), default="dcl")
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--hidden", default=None, help="comma-separated widths; default: size rule")
    p.add_argument("--epochs", type=int, default=500)
    p.add_argument("--kfold", type=int, default=5)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", default=None, help="bundle file to write")
    p.add_argument("--report", default=None, help="report CSV to write")
    p.add_argument("--sweep", nargs="+", default=None,
                   metavar="DIM=A..B", help="e.g. lr=0.1..0.9 hidden=1..9")
    p.add_argument("--min-accuracy", type=float, default=None)
    p.add_argument("--binarize", default=None,
                   metavar="CLASS", help="keep CLASS, merge all others")
    p.add_argument("--config", default=None)
    p.add_argument("--synth-n", type=int, default=2000)
    p.add_argument("--synth-seed", type=int, default=42)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("serve", help="run the parameter server")
    p.add_argument("--addr", default="127.0.0.1:7787")
    p.add_argument("--retrain-every", type=_at_least_one, default=30, metavar="SECONDS")
    p.add_argument("--data-dir", default="edgectx-data")
    p.add_argument("--kinds", default="DCL,CL")
    p.add_argument("--epochs", type=_at_least_one, default=60,
                   help="epochs of a fresh version; one continued from the served "
                        "version trains a sixth of them, at least 1")
    p.add_argument("--min-rows", type=_at_least_one, default=MIN_RETRAIN_ROWS)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("client", help="stream predictions from stdin or a file")
    p.add_argument("--server", default=None, help=f"host:port (or ${ENV_SERVER_ADDR})")
    p.add_argument("--algorithm", choices=("adcl", "lcl"), default="adcl")
    p.add_argument("--sync-period-ms", type=_at_least_one, default=None)
    p.add_argument("--timeout", type=_positive, default=2.0, metavar="SECONDS")
    p.add_argument("--input", default="-")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_client)

    p = sub.add_parser("bench", help="execution-time comparison table")
    p.add_argument("--repetitions", type=int, default=1000)
    p.add_argument("--dataset-size", type=int, default=400)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("simulate", help="run a scenario file")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out-dir", default="scenario-out")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get("EDGECTX_LOG", "WARNING"),
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ThresholdFailure as exc:
        print(f"threshold failure: {exc}", file=sys.stderr)
        return 3
    except (TransportError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
