"""Which edgectx calls a traced run wraps, and the per-layer metrics they give.

Every wrapper is installed on the attribute the caller looks up, because
edgectx modules import each other's functions by name: ``EdgeClient``
reaches ``adcl_predict`` through ``edgectx.client``, the simulator through
``edgectx.sim``, the sweep's trainer through ``edgectx.learners``.
"""

from __future__ import annotations

import os

import edgectx.cli
import edgectx.client
import edgectx.learners
import edgectx.nn
import edgectx.protocol
import edgectx.rng
import edgectx.server
import edgectx.sim

from tracing import SpanSummary, Tracer

# nets above this many weights sit on the far side of the numpy/pure-Python
# crossover measured for the SGD step
WEIGHT_CROSSOVER = 300
SWEEP_TOPOLOGIES = ("13-9x1-5", "13-9x3-5", "13-9x5-5", "13-9x9-5")
SIM_TOPOLOGIES = ("2-2x1-2", "2-2")
MESSAGE_TYPES = ("GET_PARAMS", "PUSH_DATA", "PING")


def topology(spec) -> str:
    """``<in>-<width>x<depth>-<out>``, or ``<in>-<out>`` without hidden layers."""
    hidden = spec.hidden_sizes
    if not hidden:
        return f"{spec.input_count}-{spec.output_count}"
    if len(set(hidden)) == 1:
        middle = f"{hidden[0]}x{len(hidden)}"
    else:
        middle = "-".join(str(h) for h in hidden)
    return f"{spec.input_count}-{middle}-{spec.output_count}"


def _train_attrs(args, kwargs, result, error, prior):
    params, data, cfg = args
    return {"topo": topology(params.spec), "weights": params.weight_count,
            "updates": cfg.epochs * len(data.samples)}


def _bytes_attrs(args, kwargs, result, error, prior):
    return {"bytes": len(result) if result is not None else 0}


def _request_attrs(args, kwargs, result, error, prior):
    msg = args[1]
    out = {"type": msg.get("type"),
           "bytes_out": 4 + len(edgectx.protocol.encode_message(msg))}
    if error is not None:
        out["failed"] = True
    else:
        out["bytes_in"] = 4 + len(edgectx.protocol.encode_message(result))
    return out


def _sync_before(args):
    return args[0].state.model_version


def _sync_attrs(args, kwargs, result, error, prior):
    if error is not None or result.consecutive_failures > 0:
        return {"outcome": "failure"}
    if result.model_version != prior:
        return {"outcome": "new_version"}
    return {"outcome": "same_version"}


def install_client_side(tracer: Tracer, spool_path=None) -> None:
    """Wrap the layers the benchmark process itself calls into."""
    w = tracer.wrap
    w(edgectx.nn, "train", "nn.train", attrs=_train_attrs)
    w(edgectx.rng.Rng, "shuffle", "rng.shuffle")
    w(edgectx.learners, "kfold_cross_validate", "learners.kfold_cross_validate")
    w(edgectx.learners, "evaluate", "learners.evaluate")
    w(edgectx.learners, "normalize_minmax", "data.normalize_minmax")
    for owner in (edgectx.learners, edgectx.sim):
        w(owner, "calibrate_thresholds", "learners.calibrate_thresholds")
    for owner in (edgectx.learners, edgectx.sim, edgectx.client):
        w(owner, "adcl_predict", "learners.adcl_predict")
        w(owner, "lcl_predict", "learners.lcl_predict")
    w(edgectx.sim, "dataset_from_readings", "data.dataset_from_readings",
      request_prefix="sim-retrain-")
    w(edgectx.cli, "run_scenario", "sim.run_scenario")
    w(edgectx.client, "decode_bundle", "bundle.decode")
    w(edgectx.protocol.TcpTransport, "request", "protocol.request",
      attrs=_request_attrs)
    w(edgectx.client.EdgeClient, "sync_tick", "client.sync_tick",
      before=_sync_before, attrs=_sync_attrs)

    def upload_attrs(args, kwargs, result, error, prior):
        uploader = args[0]
        size = os.path.getsize(spool_path) if spool_path and os.path.exists(spool_path) else 0
        return {"queued": uploader.queued_count, "dropped": uploader.dropped_count,
                "spool_bytes": size}

    w(edgectx.client.Uploader, "upload_batch", "client.upload_batch", attrs=upload_attrs)
    w(edgectx.client.Uploader, "flush", "client.uploader.flush", attrs=upload_attrs)


def _retrain_attrs(args, kwargs, result, error, prior):
    return {"rows": len(args[0].samples)}


def _handle_attrs(args, kwargs, result, error, prior):
    return {"type": args[0].get("type")}


def install_server_side(tracer: Tracer) -> None:
    """Wrap the layers ``edgectx serve`` calls into, inside the server."""
    w = tracer.wrap
    w(edgectx.server, "handle_request", "server.handle_request",
      attrs=_handle_attrs, request_prefix="server-req-")
    w(edgectx.server, "encode_bundle", "bundle.encode", attrs=_bytes_attrs)
    w(edgectx.server, "decode_bundle", "bundle.decode")
    w(edgectx.server.ModelStore, "publish", "server.publish")
    for attr in ("dcl_train", "cl_train"):
        w(edgectx.cli, attr, "server.retrain", attrs=_retrain_attrs,
          request_prefix="server-retrain-")
    for attr in ("ModelStore", "JsonlDataSink"):
        w(edgectx.cli, attr, "server.load")


def per_layer(s: SpanSummary) -> dict[str, float]:
    """Per-layer metrics from the spans of every process in one traced run.

    A layer the workload never reaches reads 0.
    """
    m: dict[str, float] = {}
    updates = s.attr_values("nn.train", "updates")
    weights = s.attr_values("nn.train", "weights")
    for topo in SIM_TOPOLOGIES + SWEEP_TOPOLOGIES:
        def is_topo(a, topo=topo):
            return a.get("topo") == topo
        n = sum(a["updates"] for a in s.attrs.get("nn.train", ()) if is_topo(a))
        m[f"nn.train.us_per_update.{topo}"] = s.self_s("nn.train", is_topo) * 1e6 / n if n else 0.0
    m["nn.train.calls"] = s.calls("nn.train")
    m["nn.train.updates"] = sum(updates)
    m["nn.train.self_s"] = s.self_s("nn.train")
    over = sum(u for u, wc in zip(updates, weights) if wc > WEIGHT_CROSSOVER)
    m["nn.train.share_updates_over_300w"] = over / sum(updates) if updates else 0.0
    m["rng.shuffle.busy_s"] = s.busy_s("rng.shuffle")
    m["learners.kfold_cross_validate.self_s"] = s.self_s("learners.kfold_cross_validate")
    m["learners.evaluate.self_s"] = s.self_s("learners.evaluate")
    m["learners.calibrate_thresholds.busy_s"] = s.busy_s("learners.calibrate_thresholds")
    m["data.dataset_from_readings.busy_s"] = s.busy_s("data.dataset_from_readings")
    m["data.normalize_minmax.busy_s"] = s.busy_s("data.normalize_minmax")
    for algo in ("adcl", "lcl"):
        name = f"learners.{algo}_predict"
        m[f"{name}.p50_us"] = s.p50_us(name)
        m[f"{name}.calls"] = s.calls(name)
    m["sim.run_scenario.busy_s"] = s.busy_s("sim.run_scenario")
    m["sim.self_s"] = s.self_s("sim.run_scenario")
    for kind in ("encode", "decode"):
        name = f"bundle.{kind}"
        m[f"{name}.p50_us"] = s.p50_us(name)
        m[f"{name}.calls"] = s.calls(name)
    m["bundle.encode.bytes"] = sum(s.attr_values("bundle.encode", "bytes"))
    for t in MESSAGE_TYPES:
        m[f"protocol.request.p50_us.{t}"] = s.p50_us(
            "protocol.request", lambda a, t=t: a.get("type") == t and not a.get("failed"))
    m["protocol.bytes_in"] = sum(s.attr_values("protocol.request", "bytes_in"))
    m["protocol.bytes_out"] = sum(s.attr_values("protocol.request", "bytes_out"))
    m["protocol.request.failures"] = s.calls("protocol.request", lambda a: a.get("failed", False))
    for t in ("GET_PARAMS", "PUSH_DATA"):
        m[f"server.handle_request.p50_us.{t}"] = s.p50_us(
            "server.handle_request", lambda a, t=t: a.get("type") == t)
    m["server.retrain.busy_s"] = s.busy_s("server.retrain")
    m["server.retrain.rows"] = sum(s.attr_values("server.retrain", "rows"))
    m["server.publish.busy_s"] = s.busy_s("server.publish")
    m["server.load.busy_s"] = s.busy_s("server.load")
    m["client.sync_tick.p50_us"] = s.p50_us("client.sync_tick")
    outcomes = s.attr_values("client.sync_tick", "outcome")
    for outcome in ("new_version", "same_version", "failure"):
        key = "failures" if outcome == "failure" else outcome
        m[f"client.sync.{key}"] = outcomes.count(outcome)
    new, same = outcomes.count("new_version"), outcomes.count("same_version")
    m["client.sync.useful_ratio"] = new / (new + same) if new + same else 0.0
    m["client.sync.per_new_version"] = (new + same) / new if new else 0.0
    m["client.upload_batch.p50_us"] = s.p50_us("client.upload_batch")
    uploads = s.attrs.get("client.upload_batch", []) + s.attrs.get("client.uploader.flush", [])
    m["client.uploader.queued_max"] = max((a["queued"] for a in uploads), default=0)
    m["client.uploader.dropped"] = max((a["dropped"] for a in uploads), default=0)
    m["client.uploader.spool_bytes_written"] = sum(a["spool_bytes"] for a in uploads)
    return m
