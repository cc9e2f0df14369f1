"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see them
live).

Criteria needing the user-supplied UCI files (wheat seeds, heart disease)
skip with download instructions when the files are absent; everything else
runs self-contained.
"""

import math
import time
from dataclasses import replace

import numpy as np

from edgectx.bundle import ParameterBundle, decode_bundle, encode_bundle, BundleError
from edgectx.data import (
    Dataset,
    normalize_minmax,
    stratified_split,
    synth_still_motion,
)
from edgectx.bench import bench_execution
from edgectx.learners import (
    ClModel,
    ThresholdVector,
    adcl_predict,
    dcl_train,
    evaluate,
    kfold_cross_validate,
    lcl_predict,
    make_cl_trainer,
    make_dcl_trainer,
)
from edgectx.nn import (
    LayerSpec,
    TrainingConfig,
    backprop,
    forward,
    hidden_size_default,
    init_network,
    squared_error,
)
from edgectx.rng import Rng
from edgectx.sim import LinkConfig, SensorNodeConfig, run_scenario


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status}" + (f" - {detail}" if detail else ""))
    assert ok, f"criterion {number} ({name}) failed: {detail}"


# -- 1. gradient correctness ------------------------------------------------

def test_criterion_1_gradient_correctness():
    started = time.perf_counter()
    rng = Rng(20240817)
    worst = 0.0
    h = 1e-5
    for trial in range(50):
        spec = LayerSpec(
            1 + rng.randrange(8), (1 + rng.randrange(8),), 1 + rng.randrange(8)
        )
        params = init_network(spec, trial)
        x = np.array([rng.uniform() for _ in range(spec.input_count)])
        t = np.array([rng.uniform() for _ in range(spec.output_count)])
        grads = backprop(params, x, t)

        def loss(weights, biases):
            p = replace(params, weights=tuple(weights), biases=tuple(biases))
            return squared_error(t, forward(p, x).final_outputs)

        for l in range(len(params.weights)):
            for idx in np.ndindex(*params.weights[l].shape):
                wp = [w.copy() for w in params.weights]
                wm = [w.copy() for w in params.weights]
                wp[l][idx] += h
                wm[l][idx] -= h
                fd = (loss(wp, params.biases) - loss(wm, params.biases)) / (2 * h)
                an = grads.weight_grads[l][idx]
                worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-8))
            for idx in np.ndindex(*params.biases[l].shape):
                bp = [b.copy() for b in params.biases]
                bm = [b.copy() for b in params.biases]
                bp[l][idx] += h
                bm[l][idx] -= h
                fd = (loss(params.weights, bp) - loss(params.weights, bm)) / (2 * h)
                an = grads.bias_grads[l][idx]
                worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-8))
    elapsed = time.perf_counter() - started
    report(
        1, "gradient correctness", worst < 1e-4 and elapsed < 10.0,
        f"max relative error {worst:.2e} over 50 networks in {elapsed:.1f}s",
    )


# -- 2. client/server oracle equivalence -------------------------------------

def _oracle_forward(params, x):
    """Per-node math.exp re-implementation, independent of the generated kernel."""
    acts = list(x)
    for w, b in zip(params.weights, params.biases):
        acts = [
            1.0 / (1.0 + math.exp(-(bi + sum(wij * aj for wij, aj in zip(wi, acts)))))
            for wi, bi in zip(w, b)
        ]
    return acts


def _oracle_argmax(values):
    best, best_v = 0, values[0]
    for i, v in enumerate(values):
        if v > best_v:
            best, best_v = i, v
    return best


def _oracle_lcl(params, taus, x):
    outs = _oracle_forward(params, x)
    best, best_margin = None, 0.0
    for i, (o, t) in enumerate(zip(outs, taus)):
        margin = o - t
        if margin > 0.0 and (best is None or margin > best_margin):
            best, best_margin = i, margin
    return best if best is not None else _oracle_argmax(outs)


def test_criterion_2_oracle_equivalence():
    started = time.perf_counter()
    rng = Rng(77)
    adcl_hits = lcl_hits = 0
    n = 1000
    for trial in range(n):
        spec = LayerSpec(
            1 + rng.randrange(6), (1 + rng.randrange(6),), 2 + rng.randrange(4)
        )
        params = init_network(spec, trial)
        bundle = decode_bundle(encode_bundle(ParameterBundle(
            model_kind="DCL", params=params, model_version=1, created_at=0,
        )))
        x = [rng.uniform() * 2.0 - 0.5 for _ in range(spec.input_count)]
        if adcl_predict(bundle.params, x).class_index == _oracle_argmax(
            _oracle_forward(bundle.params, x)
        ):
            adcl_hits += 1

        single = init_network(LayerSpec(spec.input_count, (), spec.output_count), trial)
        taus = tuple(0.05 + 0.9 * rng.uniform() for _ in range(spec.output_count))
        model = ClModel(single, ThresholdVector(taus))
        if lcl_predict(model, x).class_index == _oracle_lcl(single, taus, x):
            lcl_hits += 1
    elapsed = time.perf_counter() - started
    report(
        2, "oracle equivalence",
        adcl_hits == n and lcl_hits == n and elapsed < 5.0,
        f"adcl {adcl_hits}/{n}, lcl {lcl_hits}/{n} in {elapsed:.1f}s",
    )


# -- 3/4. benchmark reproductions --------------------------------------------

def _reference_protocol(data: Dataset, seed: int = 1):
    """lr 0.3, one hidden layer by the width rule, sigmoid, [0,1) init,
    500 epochs, stratified 5-fold."""
    cfg = TrainingConfig(learning_rate=0.3, epochs=500, seed=seed)
    return kfold_cross_validate(data, 5, make_dcl_trainer(cfg=cfg), seed=seed)


def test_criterion_3_iris_reproduction(iris):
    started = time.perf_counter()
    result = _reference_protocol(iris)
    elapsed = time.perf_counter() - started
    report(
        3, "iris reproduction",
        result.mean_accuracy >= 0.93 and elapsed < 120.0,
        f"mean accuracy {result.mean_accuracy:.4f} (reported 0.9666) in {elapsed:.0f}s",
    )


def test_criterion_4_wheat_seeds_reproduction(seeds):
    started = time.perf_counter()
    result = _reference_protocol(seeds)
    elapsed = time.perf_counter() - started
    report(
        4, "wheat-seeds reproduction",
        result.mean_accuracy >= 0.88 and elapsed < 120.0,
        f"mean accuracy {result.mean_accuracy:.4f} (reported 0.9191) in {elapsed:.0f}s",
    )


# -- 5. heart-disease sweep ---------------------------------------------------

def test_criterion_5_heart_disease_sweep(heart, tmp_path):
    started = time.perf_counter()
    width = hidden_size_default(heart.n_features, heart.n_classes)
    lines = ["lr,hidden_layers,hidden_width,mean_accuracy,std_accuracy"]
    best = (None, -1.0)
    for lr_tenths in range(1, 10):
        lr = lr_tenths / 10.0
        for depth in range(1, 10):
            cfg = TrainingConfig(learning_rate=lr, epochs=300, seed=1)
            result = kfold_cross_validate(
                heart, 3, make_dcl_trainer((width,) * depth, cfg), seed=1
            )
            lines.append(
                f"{lr},{depth},{width},{result.mean_accuracy!r},{result.std_accuracy!r}"
            )
            if result.mean_accuracy > best[1]:
                best = ((lr, depth), result.mean_accuracy)
    grid_path = tmp_path / "heart_sweep.csv"
    grid_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    elapsed = time.perf_counter() - started
    report(
        5, "heart-disease sweep",
        best[1] >= 0.75 and grid_path.exists() and elapsed < 1800.0,
        f"best cell {best[0]} mean accuracy {best[1]:.4f} "
        f"(reported 0.8133; 5-class protocol), grid {grid_path.name}, {elapsed:.0f}s",
    )


# -- 6. still/motion ordering -------------------------------------------------

def test_criterion_6_still_motion_ordering():
    data = synth_still_motion(2000, seed=42)
    train_raw, test_raw = stratified_split(data, 0.2, seed=7)

    dcl_predictor = make_dcl_trainer(cfg=TrainingConfig(0.3, 300, 1))(train_raw)
    dcl_metrics = evaluate(dcl_predictor, test_raw)

    # ADCL: the same parameters after a round trip through the wire format
    fitted = normalize_minmax(train_raw)
    spec = LayerSpec(2, (hidden_size_default(2, 2),), 2)
    params = dcl_train(fitted, spec, TrainingConfig(0.3, 300, 1))
    shipped = decode_bundle(encode_bundle(ParameterBundle(
        model_kind="DCL", params=params, model_version=1, created_at=0,
    )))
    from edgectx.data import apply_minmax_vector

    norms = fitted.normalization
    adcl_metrics = evaluate(
        lambda f: adcl_predict(shipped.params, apply_minmax_vector(tuple(f), norms)),
        test_raw,
    )

    lcl_predictor = make_cl_trainer(TrainingConfig(0.05, 40, 1))(train_raw)
    lcl_metrics = evaluate(lcl_predictor, test_raw)

    rates_ok = all(
        m.tp_rate + m.tn_rate + m.fp_rate + m.fn_rate == 1.0
        for m in (dcl_metrics, adcl_metrics, lcl_metrics)
    )
    ordering_ok = (
        dcl_metrics.accuracy >= 0.97
        and dcl_metrics.accuracy >= adcl_metrics.accuracy
        and adcl_metrics.accuracy >= lcl_metrics.accuracy - 0.01
    )
    report(
        6, "still/motion ordering",
        ordering_ok and rates_ok,
        f"DCL {dcl_metrics.accuracy:.4f} >= ADCL {adcl_metrics.accuracy:.4f} >= "
        f"LCL {lcl_metrics.accuracy:.4f} - 1pt (reported 0.9929/0.9751/0.9317); "
        f"rates sum exactly 1: {rates_ok}",
    )


# -- 7. latency ordering --------------------------------------------------------

def test_criterion_7_latency_ordering():
    started = time.perf_counter()
    rows = bench_execution(
        repetitions=4000, train_repetitions=3, dataset_size=300, seed=7
    )
    by_key = {(r.algorithm, r.phase): r for r in rows}
    lcl = by_key[("LCL", "predict")].mean_us
    adcl = by_key[("ADCL", "predict")].mean_us
    cl_train_us = by_key[("CL", "train")].mean_us
    dcl_train_us = by_key[("DCL", "train")].mean_us
    elapsed = time.perf_counter() - started
    ok = (
        lcl < adcl
        and adcl < 150_000.0  # reported bound: predictions within 150 ms
        and dcl_train_us > 10.0 * cl_train_us
        and elapsed < 120.0
    )
    report(
        7, "latency ordering", ok,
        f"LCL {lcl:.0f}us < ADCL {adcl:.0f}us (<150ms), "
        f"DCL train {dcl_train_us / 1000:.0f}ms > 10x CL train "
        f"{cl_train_us / 1000:.0f}ms (reported 6ms/11ms/76ms/1.5s ordering), "
        f"{elapsed:.0f}s",
    )


# -- 8. partition liveness -----------------------------------------------------

def _liveness_scenario(seed: int):
    source = synth_still_motion(600, seed=3)
    return run_scenario(
        [SensorNodeConfig("acc0", 100, source)],
        LinkConfig(latency_ms=5, outage_windows=((10_000, 20_000),)),
        retrain_every_ms=2_000,
        algorithms=("ADCL",),
        duration_ms=30_000,
        seed=seed,
        sync_period_ms=1_000,
        upload_every_ms=500,
        warm_start=True,
        epochs=10,
    )


def test_criterion_8_partition_liveness():
    started = time.perf_counter()
    result = _liveness_scenario(11)
    again = _liveness_scenario(11)
    ticks = [t for t in result.ticks if t.algorithm == "ADCL"]

    every_reading_predicted = (
        len(ticks) == result.emitted_readings
        and all(t.model_version is not None for t in ticks)
    )
    outage_versions = {
        t.model_version for t in ticks if 10_000 <= t.sim_time_ms < 20_000
    }
    frozen = len(outage_versions) == 1
    v_during = next(iter(outage_versions))
    v_after = max(
        t.model_version for t in ticks if 20_000 <= t.sim_time_ms <= 22_000
    )
    recovered = v_after > v_during
    replay_complete = result.server_received_distinct == result.client_sent_readings
    deterministic = result.canonical_bytes() == again.canonical_bytes()
    elapsed = time.perf_counter() - started
    report(
        8, "partition liveness",
        every_reading_predicted and frozen and recovered and replay_complete
        and deterministic and elapsed < 30.0,
        f"{len(ticks)} predictions for {result.emitted_readings} readings, "
        f"outage version {v_during} -> {v_after} within 2 sync periods, "
        f"replay {result.server_received_distinct}/{result.client_sent_readings}, "
        f"deterministic {deterministic}, {elapsed:.0f}s",
    )


# -- 9. wire-format stability ----------------------------------------------------

def test_criterion_9_wire_format_stability():
    from pathlib import Path
    from test_bundle import cl_bundle, mini_bundle

    golden_dir = Path(__file__).parent / "golden"
    stable = (
        encode_bundle(mini_bundle()) == (golden_dir / "bundle_dcl_mini.json").read_bytes()
        and encode_bundle(cl_bundle()) == (golden_dir / "bundle_cl_golden.json").read_bytes()
    )
    raw = encode_bundle(cl_bundle())
    detected = 0
    for i in range(len(raw)):
        corrupted = bytearray(raw)
        corrupted[i] ^= 0x01
        try:
            decode_bundle(bytes(corrupted))
        except BundleError:
            detected += 1
    report(
        9, "wire-format stability",
        stable and detected == len(raw),
        f"golden bytes identical: {stable}; "
        f"single-byte corruption detected {detected}/{len(raw)}",
    )
