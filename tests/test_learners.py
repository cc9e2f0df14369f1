import importlib.util
import math
import zlib
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from conftest import same_params

from edgectx import nn
from edgectx.data import (
    Dataset,
    Sample,
    SensorReading,
    apply_minmax,
    apply_minmax_vector,
    dataset_from_readings,
    normalize_minmax,
    synth_still_motion,
)
from edgectx.learners import (
    DCL_LEARNING_RATE,
    GUARD_MARGIN,
    MODEL_KIND_CL,
    MODEL_KIND_DCL,
    TRAIN_WINDOW_ROWS,
    ClModel,
    ContextLabel,
    NeverSyncedError,
    ThresholdVector,
    adcl_predict,
    calibrate_thresholds,
    cl_train,
    classifier,
    dcl_train,
    evaluate,
    fit,
    kfold_cross_validate,
    lcl_predict,
    make_cl_trainer,
    make_dcl_trainer,
    metrics_from_counts,
    retrain,
    retrain_round,
)
from edgectx.nn import (
    DimensionError,
    LayerSpec,
    NetworkParameters,
    TrainingConfig,
    forward,
    hidden_size_default,
    init_network,
    train,
)
from edgectx.rng import Rng
from edgectx.server import ModelStore


def logit(p: float) -> float:
    return math.log(p / (1.0 - p))


def single_layer_with_outputs(outputs):
    """Zero-weight single-layer net whose sigmoid outputs equal ``outputs``
    for any input of width 1 (biases carry the logits)."""
    k = len(outputs)
    return NetworkParameters(
        LayerSpec(1, (), k),
        (np.zeros((k, 1)),),
        (np.array([logit(p) for p in outputs]),),
    )


whatever = (0.0,)  # input is irrelevant for zero-weight nets


class TestCalibrateThresholds:
    def test_midpoint_of_separated_outputs(self):
        # node outputs: class-0 samples 0.9, class-1 samples 0.1 on node 0
        # (and mirrored on node 1) via one strong feature
        w = logit(0.9) - logit(0.1)
        params = NetworkParameters(
            LayerSpec(1, (), 2),
            (np.array([[w], [-w]]),),
            (np.array([logit(0.1), logit(0.9)]),),
        )
        data = Dataset(
            tuple(
                [Sample((1.0,), 0), Sample((1.0,), 0), Sample((0.0,), 1), Sample((0.0,), 1)]
            ),
            ("x",),
            ("a", "b"),
        )
        taus = calibrate_thresholds(params, data)
        assert abs(taus.values[0] - 0.5) < 1e-12
        assert abs(taus.values[1] - 0.5) < 1e-12

    def test_absent_class_defaults_to_half(self):
        params = single_layer_with_outputs([0.7, 0.7])
        data = Dataset((Sample(whatever, 0), Sample(whatever, 0)), ("x",), ("a", "b"))
        taus = calibrate_thresholds(params, data)
        assert taus.values[1] == 0.5  # class b has no positives

    def test_degenerate_equal_outputs(self):
        params = single_layer_with_outputs([0.8, 0.8])
        data = Dataset((Sample(whatever, 0), Sample(whatever, 1)), ("x",), ("a", "b"))
        taus = calibrate_thresholds(params, data)
        assert abs(taus.values[0] - 0.8) < 1e-12
        assert abs(taus.values[1] - 0.8) < 1e-12

    def test_clamped_into_open_interval(self):
        params = single_layer_with_outputs([0.999, 0.001])
        data = Dataset((Sample(whatever, 0), Sample(whatever, 1)), ("x",), ("a", "b"))
        taus = calibrate_thresholds(params, data)
        assert all(0.01 <= t <= 0.99 for t in taus.values)

    def test_rejects_hidden_layers(self):
        params = init_network(LayerSpec(2, (2,), 2), 1)
        data = Dataset((Sample((0.1, 0.2), 0),), ("x", "y"), ("a",))
        with pytest.raises(ValueError):
            calibrate_thresholds(params, data)


class TestAdclPredict:
    def test_argmax(self):
        params = single_layer_with_outputs([0.1, 0.9, 0.2])
        assert adcl_predict(params, whatever).class_index == 1

    def test_tie_breaks_low(self):
        params = single_layer_with_outputs([0.5, 0.5])
        assert adcl_predict(params, whatever).class_index == 0

    def test_never_synced(self):
        with pytest.raises(NeverSyncedError):
            adcl_predict(None, whatever)

    def test_matches_independent_forward_oracle(self):
        # oracle: per-node loops on math.exp, no shared code with nn.forward
        def oracle(params, x):
            acts = list(x)
            for w, b in zip(params.weights, params.biases):
                acts = [
                    1.0 / (1.0 + math.exp(-(bi + sum(wij * aj for wij, aj in zip(wi, acts)))))
                    for wi, bi in zip(w, b)
                ]
            best = max(range(len(acts)), key=lambda i: (acts[i], -i))
            return best

        rng = Rng(31)
        for trial in range(100):
            spec = LayerSpec(1 + rng.randrange(5), (1 + rng.randrange(5),), 1 + rng.randrange(4))
            params = init_network(spec, trial)
            x = [rng.uniform() * 2 - 0.5 for _ in range(spec.input_count)]
            assert adcl_predict(params, x).class_index == oracle(params, x)

    def test_shift_invariance_of_decision(self):
        rng = Rng(8)
        for trial in range(50):
            outs = np.array([rng.uniform() for _ in range(4)])
            assert int(np.argmax(outs)) == int(np.argmax(outs + 0.37))

    def test_names_attached(self):
        params = single_layer_with_outputs([0.2, 0.9])
        label = adcl_predict(params, whatever, ("still", "motion"))
        assert label == ContextLabel(1, "motion")

    def test_labels_for_every_class_and_name_list(self):
        model = cl_model_with_outputs([0.2, 0.3, 0.9], [0.5, 0.5, 0.5])
        for names, expected in (
            ((), ContextLabel(2, "")),
            (("a", "b"), ContextLabel(2, "")),  # fewer names than classes
            (("a", "b", "c"), ContextLabel(2, "c")),
            (["a", "b", "c"], ContextLabel(2, "c")),
            (("a", "b", "c", "d"), ContextLabel(2, "c")),
        ):
            assert adcl_predict(model.params, whatever, names) == expected
            assert lcl_predict(model, whatever, names) == expected
        low = single_layer_with_outputs([0.9, 0.3, 0.2])
        assert adcl_predict(low, whatever, ("a", "b", "c")) == ContextLabel(0, "a")
        # built once per names and class count, not per prediction
        assert adcl_predict(low, whatever) is adcl_predict(low, [1.0])


def cl_model_with_outputs(outputs, thresholds):
    return ClModel(single_layer_with_outputs(outputs), ThresholdVector(tuple(thresholds)))


class TestLclPredict:
    def test_single_class_above_threshold(self):
        model = cl_model_with_outputs([0.8, 0.3], [0.5, 0.5])
        assert lcl_predict(model, whatever).class_index == 0

    def test_margin_rule(self):
        model = cl_model_with_outputs([0.6, 0.7], [0.5, 0.3])
        # margins 0.1 vs 0.4
        assert lcl_predict(model, whatever).class_index == 1

    def test_argmax_fallback(self):
        model = cl_model_with_outputs([0.2, 0.3], [0.5, 0.5])
        assert lcl_predict(model, whatever).class_index == 1

    def test_ties_break_toward_lowest_index(self):
        # above-threshold branch: classes 1 and 2 tie on the largest margin,
        # while class 0 has the largest output
        model = cl_model_with_outputs([0.9, 0.7, 0.7], [0.85, 0.3, 0.3])
        assert lcl_predict(model, whatever).class_index == 1
        # fallback branch: no output exceeds its threshold; classes 1 and 2
        # tie on the largest output, while class 0 has the largest margin
        model = cl_model_with_outputs([0.4, 0.7, 0.7], [0.45, 0.9, 0.9])
        assert lcl_predict(model, whatever).class_index == 1

    def test_total_over_random_models(self):
        rng = Rng(77)
        for trial in range(100):
            k = 2 + rng.randrange(3)
            outs = [0.05 + 0.9 * rng.uniform() for _ in range(k)]
            taus = [0.05 + 0.9 * rng.uniform() for _ in range(k)]
            label = lcl_predict(cl_model_with_outputs(outs, taus), whatever)
            assert 0 <= label.class_index < k

    def test_compiled_choice_matches_margin_rule(self):
        def reference(outs, taus):
            margins = [o - t for o, t in zip(outs, taus)]
            idx = margins.index(max(margins))
            return idx if margins[idx] > 0.0 else outs.index(max(outs))

        rng = Rng(78)
        # few distinct outputs, so ties are common, and thresholds drawn
        # from the same outputs, so zero margins are too
        levels = (0.2, 0.4, 0.6, 0.8)
        level_outs = nn.final_outputs(single_layer_with_outputs(levels), whatever)
        for n in range(1, 9):
            for _ in range(200):
                net = single_layer_with_outputs([levels[rng.randrange(4)] for _ in range(n)])
                outs = nn.final_outputs(net, whatever)
                taus = ThresholdVector(tuple(level_outs[rng.randrange(4)] for _ in range(n)))
                label = classifier(net, taus)(whatever)
                assert label.class_index == reference(outs, taus.values)
                # without thresholds: the first largest output
                assert classifier(net)(whatever).class_index == outs.index(max(outs))

    def test_never_synced(self):
        with pytest.raises(NeverSyncedError):
            lcl_predict(None, whatever)

    def test_cl_model_validation(self):
        with pytest.raises(ValueError):
            ClModel(init_network(LayerSpec(2, (2,), 2), 1), ThresholdVector((0.5, 0.5)))
        with pytest.raises(ValueError):
            ClModel(init_network(LayerSpec(2, (), 2), 1), ThresholdVector((0.5,)))


class TestEvaluate:
    def balanced_binary(self, n=40):
        return Dataset(
            tuple(Sample((float(i),), i % 2) for i in range(n)),
            ("x",),
            ("neg", "pos"),
        )

    def test_perfect_predictor(self):
        data = self.balanced_binary()
        metrics = evaluate(lambda f: int(f[0]) % 2, data)
        assert metrics.accuracy == 1.0
        assert metrics.confusion[0][1] == 0 and metrics.confusion[1][0] == 0
        assert metrics.sample_count == 40

    def test_constant_predictor_on_balanced_data(self):
        metrics = evaluate(lambda f: 0, self.balanced_binary())
        assert metrics.accuracy == 0.5

    def test_rates_partition_exactly(self):
        rng = Rng(5)
        data = self.balanced_binary(30)
        metrics = evaluate(lambda f: rng.randrange(2), data)
        assert metrics.tp_rate + metrics.tn_rate + metrics.fp_rate + metrics.fn_rate == 1.0

    def test_accuracy_equals_confusion_diagonal(self):
        rng = Rng(6)
        data = Dataset(
            tuple(Sample((float(i),), rng.randrange(3)) for i in range(60)),
            ("x",),
            ("a", "b", "c"),
        )
        metrics = evaluate(lambda f: rng.randrange(3), data)
        diag = sum(metrics.confusion[i][i] for i in range(3))
        assert metrics.accuracy == diag / metrics.sample_count
        assert sum(map(sum, metrics.confusion)) == len(data)

    def test_multiclass_has_no_binary_rates(self):
        data = Dataset(
            tuple(Sample((float(i),), i % 3) for i in range(9)),
            ("x",), ("a", "b", "c"),
        )
        metrics = evaluate(lambda f: 0, data)
        assert metrics.tp_rate is None

    def test_latency_measured(self):
        metrics = evaluate(lambda f: 0, self.balanced_binary(10))
        assert metrics.mean_latency_us > 0.0
        assert metrics.p95_latency_us >= 0.0

    def test_p95_picks_the_index_the_numpy_formula_picked(self):
        # latencies equal to their own sorted index, so p95 reads the index
        for n in range(1, 1001):
            picked = metrics_from_counts([[n]], [float(i) for i in range(n)]).p95_latency_us
            assert picked == min(n - 1, max(0, int(np.ceil(0.95 * n)) - 1)), n


def memorizing_trainer(train_data: Dataset):
    table = {s.features: s.label for s in train_data.samples}
    return lambda features: table.get(tuple(features), 0)


class TestKFold:
    def spread_data(self, n=24, classes=3):
        return Dataset(
            tuple(Sample((float(i), float(i % 5)), i % classes) for i in range(n)),
            ("x", "y"),
            tuple(str(c) for c in range(classes)),
        )

    def test_leave_one_out_tests_every_sample_once(self):
        data = self.spread_data(12)
        result = kfold_cross_validate(data, len(data), memorizing_trainer, 3)
        assert len(result.fold_accuracies) == 12

    def test_memorizer_on_duplicated_data_scores_one(self):
        base = self.spread_data(12)
        doubled = Dataset(base.samples + base.samples, base.feature_names, base.class_names)
        # seed chosen so every duplicate pair straddles folds: each tested
        # sample is then guaranteed to sit in the training fold too
        result = kfold_cross_validate(doubled, 4, memorizing_trainer, 2)
        assert result.mean_accuracy == 1.0

    def test_deterministic_assignment(self):
        data = self.spread_data(30)
        a = kfold_cross_validate(data, 5, memorizing_trainer, 9)
        b = kfold_cross_validate(data, 5, memorizing_trainer, 9)
        assert a == b

    def test_k_exceeding_smallest_class_rejected(self):
        data = Dataset(
            (
                Sample((1.0,), 0), Sample((2.0,), 0), Sample((3.0,), 0),
                Sample((4.0,), 0), Sample((5.0,), 1), Sample((6.0,), 1),
            ),
            ("x",), ("a", "b"),
        )
        with pytest.raises(ValueError, match="smallest class"):
            kfold_cross_validate(data, 3, memorizing_trainer, 1)

    def test_k_bounds(self):
        data = self.spread_data(9)
        with pytest.raises(ValueError):
            kfold_cross_validate(data, 1, memorizing_trainer, 1)
        with pytest.raises(ValueError):
            kfold_cross_validate(data, 10, memorizing_trainer, 1)


class TestTrainers:
    def test_dcl_requires_hidden_layer(self):
        data = synth_still_motion(50, 1)
        with pytest.raises(ValueError):
            dcl_train(data, LayerSpec(2, (), 2), TrainingConfig(0.3, 5, 1))

    def test_dcl_memorizes_single_sample(self):
        data = Dataset((Sample((0.2, 0.9), 1),), ("x", "y"), ("a", "b"))
        params = dcl_train(data, LayerSpec(2, (2,), 2), TrainingConfig(0.3, 400, 2))
        assert adcl_predict(params, (0.2, 0.9)).class_index == 1

    def test_dcl_deterministic(self):
        data = synth_still_motion(80, 4)
        cfg = TrainingConfig(0.3, 20, 6)
        a = dcl_train(data, LayerSpec(2, (2,), 2), cfg)
        b = dcl_train(data, LayerSpec(2, (2,), 2), cfg)
        assert same_params(a, b)

    def test_cl_on_separable_clusters(self):
        data = synth_still_motion(300, 8)
        from edgectx.data import normalize_minmax

        fitted = normalize_minmax(data)
        model = cl_train(fitted, TrainingConfig(0.05, 80, 3))
        correct = sum(
            lcl_predict(model, s.features).class_index == s.label
            for s in fitted.samples
        )
        assert correct / len(fitted) >= 0.99

    def test_cl_cannot_solve_xor(self):
        xor = Dataset(
            tuple(
                Sample((float(a), float(b)), int(a != b))
                for a in (0, 1) for b in (0, 1) for _ in range(10)
            ),
            ("x1", "x2"), ("same", "diff"),
        )
        model = cl_train(xor, TrainingConfig(0.3, 500, 5))
        correct = sum(
            lcl_predict(model, s.features).class_index == s.label for s in xor.samples
        )
        assert correct / len(xor) <= 0.80

    def test_cl_deterministic(self):
        data = synth_still_motion(60, 2)
        a = cl_train(data, TrainingConfig(0.05, 10, 4))
        b = cl_train(data, TrainingConfig(0.05, 10, 4))
        assert a.thresholds == b.thresholds

    def test_pipeline_trainer_consistency_with_server_decisions(self):
        # the client decision with the shipped parameters is byte-for-byte
        # the server model's argmax
        data = synth_still_motion(200, 12)
        trainer = make_dcl_trainer(cfg=TrainingConfig(0.3, 40, 7))
        predict = trainer(data)
        from edgectx.data import normalize_minmax

        fitted = normalize_minmax(data)
        params = dcl_train(fitted, LayerSpec(2, (2,), 2), TrainingConfig(0.3, 40, 7))
        for s in fitted.samples[:50]:
            outputs = forward(params, s.features)[-1]
            direct = outputs.index(max(outputs))
            via_pipeline = predict(
                tuple(
                    lo + f * (hi - lo)
                    for f, (lo, hi) in zip(s.features, fitted.normalization)
                )
            )
            assert direct == via_pipeline.class_index


class TestFit:
    data = synth_still_motion(60, 9)

    def test_dcl_default_width(self):
        params, thresholds, losses = fit(MODEL_KIND_DCL, self.data, TrainingConfig(0.3, 4, 1))
        width = hidden_size_default(self.data.n_features, self.data.n_classes)
        assert params.spec == LayerSpec(2, (width,), 2)
        assert thresholds is None
        assert len(losses) == 4

    def test_dcl_given_widths(self):
        params, _, _ = fit(MODEL_KIND_DCL, self.data, TrainingConfig(0.3, 2, 1), (3, 4))
        assert params.spec == LayerSpec(2, (3, 4), 2)

    def test_cl_calibrates_thresholds(self):
        params, thresholds, _ = fit(MODEL_KIND_CL, self.data, TrainingConfig(0.05, 3, 1))
        assert params.spec == LayerSpec(2, (), 2)
        assert thresholds == calibrate_thresholds(params, self.data)

    @pytest.mark.parametrize("kind, hidden", [
        ("XCL", None), ("dcl", None), (MODEL_KIND_CL, (2,)), (MODEL_KIND_DCL, ()),
    ])
    def test_refusals(self, kind, hidden):
        with pytest.raises(ValueError):
            fit(kind, self.data, TrainingConfig(0.3, 1, 1), hidden)

    @pytest.mark.parametrize("kind, hidden", [(MODEL_KIND_DCL, (2,)), (MODEL_KIND_CL, ())])
    def test_network_starts_from_cfg_seed(self, kind, hidden):
        cfg = TrainingConfig(0.3, 3, 17)
        params, _, losses = fit(kind, self.data, cfg, hidden)
        spec = LayerSpec(2, hidden, 2)
        expected, expected_losses = train(init_network(spec, 17), self.data, cfg)
        assert same_params(params, expected)
        assert losses == expected_losses
        other, _, _ = fit(kind, self.data, TrainingConfig(0.3, 3, 18), hidden)
        assert not same_params(params, other)

    def test_dcl_train_refuses_a_spec_that_does_not_fit_the_data(self):
        with pytest.raises(ValueError):
            dcl_train(self.data, LayerSpec(2, (2,), 3), TrainingConfig(0.3, 1, 1))


    @pytest.mark.parametrize("kind", [MODEL_KIND_DCL, MODEL_KIND_CL])
    def test_continues_from_start(self, kind):
        first, _, _ = fit(kind, self.data, TrainingConfig(0.3, 3, 1))
        params, _, losses = fit(kind, self.data, TrainingConfig(0.3, 2, 5), start=first)
        assert same_params(params, train(first, self.data, TrainingConfig(0.3, 2, 5))[0])
        assert params.trained_epochs == 5 and len(losses) == 2

    def test_refuses_a_start_of_another_topology(self):
        with pytest.raises(ValueError):
            fit(MODEL_KIND_DCL, self.data, TrainingConfig(0.3, 1, 1),
                start=init_network(LayerSpec(2, (3,), 2), 1))


class TestRetrain:
    data = synth_still_motion(80, 4)
    cfg = TrainingConfig(0.3, 30, 7)

    @pytest.mark.parametrize("kind", [MODEL_KIND_DCL, MODEL_KIND_CL])
    def test_continues_the_served_version_for_a_sixth_of_the_epochs(self, kind):
        first = retrain(kind, self.data, self.cfg)
        assert not first.continued and first.epochs == 30 and first.served_score is None
        assert first.accepted
        second = retrain(kind, self.data, TrainingConfig(0.3, 30, 8), first, new_rows=20)
        assert second.continued and second.epochs == 5
        params, thresholds, _ = fit(kind, self.data, TrainingConfig(0.3, 5, 8),
                                    start=first.params)
        assert same_params(second.params, params) and second.thresholds == thresholds
        # both are scored on the last 20 rows
        tail = Dataset(self.data.samples[-20:], self.data.feature_names, self.data.class_names)
        for model, score in ((second, second.score), (first, second.served_score)):
            predict = partial(reference_predict, model.params, model.thresholds)
            assert score == evaluate(predict, tail).accuracy

    def test_a_new_class_starts_fresh(self):
        served = retrain(MODEL_KIND_DCL, self.data, self.cfg)
        wider = Dataset(self.data.samples + (Sample((5.0, 5.0), 2),), self.data.feature_names,
                        self.data.class_names + ("far",))
        candidate = retrain(MODEL_KIND_DCL, wider, self.cfg, served, new_rows=1)
        assert not candidate.continued and candidate.epochs == 30
        assert candidate.params.spec.output_count == 3
        assert candidate.served_score == 0.0

    def test_the_guard_allows_the_margin_and_no_more(self):
        served = retrain(MODEL_KIND_DCL, self.data, self.cfg)
        candidate = retrain(MODEL_KIND_DCL, self.data, self.cfg, served)
        for served_score, accepted in ((candidate.score + GUARD_MARGIN, True),
                                       (candidate.score + GUARD_MARGIN + 1e-9, False)):
            assert replace(candidate, served_score=served_score).accepted is accepted


def reading_rows(n, label=lambda i: i % 2):
    return [(SensorReading("acc0", i, (0.1 + 2.0 * label(i), 0.2 + 0.1 * (i % 3))), label(i))
            for i in range(n)]


class TestRetrainRound:
    """``retrain_round``: the retrain step of ``serve`` and the simulator,
    which publishes into, and reads its marks from, a ``ModelStore``."""

    @staticmethod
    def counted_build(built):
        def build(rows, feature_names, class_names):
            built.append(len(rows))
            return dataset_from_readings(rows, feature_names, class_names)
        return build

    def test_no_new_rows_no_candidate(self):
        rows, built, store = reading_rows(40), [], ModelStore()
        store.publish(MODEL_KIND_DCL, init_network(LayerSpec(2, (2,), 2), 1), rows=40)
        assert retrain_round(rows, [MODEL_KIND_DCL], store, 30,
                             build=self.counted_build(built)) == []
        assert built == []
        ((_, candidate, bundle),) = retrain_round(rows + reading_rows(41)[-1:],
                                                  [MODEL_KIND_DCL], store, 30)
        assert candidate.new_rows == 1 and bundle.model_version == 2
        assert store.published_rows() == {MODEL_KIND_DCL: 41}

    def test_a_refused_kind_waits_for_a_new_row(self):
        rows, built, store = reading_rows(40), [], ModelStore()
        store.refuse(MODEL_KIND_DCL, 40)
        args = ([MODEL_KIND_DCL, MODEL_KIND_CL], store, 3)
        ((kind, _, _),) = retrain_round(rows, *args, build=self.counted_build(built))
        assert kind == MODEL_KIND_CL and built == [40]
        assert retrain_round(rows, *args) == []

    def test_too_few_rows_or_one_class_train_nothing(self):
        store = ModelStore()
        assert retrain_round(reading_rows(7), [MODEL_KIND_DCL], store, 3) == []
        assert retrain_round(reading_rows(7), [MODEL_KIND_DCL], store, 3, min_rows=7)
        assert retrain_round(reading_rows(40, label=lambda i: 0), [MODEL_KIND_DCL],
                             ModelStore(), 3) == []

    def test_seed_window_and_config(self):
        rows = reading_rows(TRAIN_WINDOW_ROWS + 1)
        ((_, candidate, _),) = retrain_round(rows, [MODEL_KIND_DCL], ModelStore(), 3)
        window = dataset_from_readings(rows[1:], ("f0", "f1"), ("0", "1"))
        params, _, _ = fit(MODEL_KIND_DCL, window, TrainingConfig(
            DCL_LEARNING_RATE, 3, zlib.crc32(b"DCL v1")))
        assert same_params(candidate.params, params)
        # the last 2000 rows alone train the same bits
        ((_, alone, _),) = retrain_round(rows[1:], [MODEL_KIND_DCL], ModelStore(), 3)
        assert same_params(alone.params, params)
        # a served v4 makes the candidate v5, seeded as such
        store = ModelStore()
        for _ in range(4):
            store.publish(MODEL_KIND_DCL, init_network(LayerSpec(2, (3,), 2), 1))
        ((_, fifth, _),) = retrain_round(rows, [MODEL_KIND_DCL], store, 3)
        params, _, _ = fit(MODEL_KIND_DCL, window, TrainingConfig(
            DCL_LEARNING_RATE, 3, zlib.crc32(b"DCL v5")))
        assert not fifth.continued and same_params(fifth.params, params)

    def test_class_count_follows_the_largest_label(self):
        rows = reading_rows(40, label=lambda i: 2 * (i % 2))
        for kind in (MODEL_KIND_DCL, MODEL_KIND_CL):
            ((_, candidate, _),) = retrain_round(rows, [kind], ModelStore(), 2)
            assert candidate.params.spec.output_count == 3
        # a label held outside the window still sizes the output layer
        rows = reading_rows(1, label=lambda i: 4) + reading_rows(TRAIN_WINDOW_ROWS)
        ((_, candidate, _),) = retrain_round(rows, [MODEL_KIND_CL], ModelStore(), 1)
        assert candidate.params.spec.output_count == 5

    def test_records_publishes_and_refusals(self):
        # v1, of another topology, was published on the first 30 rows
        rows, store = reading_rows(40), ModelStore()
        store.publish(MODEL_KIND_DCL, init_network(LayerSpec(2, (3,), 2), 1), rows=30)
        ((_, first, bundle),) = retrain_round(rows, [MODEL_KIND_DCL], store, 30, created_at=5)
        assert first.accepted and first.new_rows == 10 and first.score == 1.0
        assert (bundle.model_version, bundle.created_at) == (2, 5)
        assert same_params(bundle.params, first.params) and store.get(MODEL_KIND_DCL) is bundle
        assert store.published_rows() == {MODEL_KIND_DCL: 40} and store.refusals() == {}

        def spoiled(data, cfg, start):
            # answers class 1 for every row; the new row is class 0
            return replace(start, flat=(0.0,) * (len(start.flat) - 2) + (-5.0, 5.0)), None

        ((_, refused, bundle),) = retrain_round(reading_rows(41), [MODEL_KIND_DCL], store, 30,
                                                trainer=lambda kind: spoiled)
        assert (refused.score, refused.served_score, refused.accepted) == (0.0, 1.0, False)
        assert bundle is None and store.get(MODEL_KIND_DCL).model_version == 2
        assert store.refusals() == {MODEL_KIND_DCL: (1, 41)}
        assert store.published_rows() == {MODEL_KIND_DCL: 40}


def heart_like(seed: int) -> Dataset:
    """``perfbench/clusters.heart_like``: 303 rows, 13 features, 5 classes."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "clusters.py"
    spec = importlib.util.spec_from_file_location("clusters", path)
    clusters = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(clusters)
    return clusters.heart_like(seed)


def signed_params(spec: LayerSpec, seed: int) -> NetworkParameters:
    """Weights and biases uniform in [-2, 2), so the class varies with the input."""
    rng = Rng(seed)
    sizes = spec.layer_sizes
    count = sum(n_out * (n_in + 1) for n_in, n_out in zip(sizes, sizes[1:]))
    return NetworkParameters(spec, flat=[4.0 * rng.uniform() - 2.0 for _ in range(count)])


def reference_predict(params, thresholds, x, names=()):
    """The label ``adcl_predict`` (thresholds None) or ``lcl_predict`` gives."""
    if thresholds is None:
        return adcl_predict(params, x, names)
    return lcl_predict(ClModel(params, thresholds), x, names)


def outcome(call, x):
    """What ``call(x)`` returns, or the type and text of what it raises."""
    try:
        return call(x)
    except Exception as exc:  # every exception is compared, not handled
        return type(exc), str(exc)


def generated(classify) -> bool:
    return classify.__code__.co_filename.startswith("<edgectx.nn classifier ")


class TestScaledClassifier:
    """A classifier bound with min-max ranges takes raw features: it gives
    the label, or raises what, ``adcl_predict`` or ``lcl_predict`` gives on
    ``apply_minmax_vector(tuple(x), normalization)``."""

    heart = heart_like(7)
    CONSTANT = 3  # the feature made constant in ``constant_heart``

    @classmethod
    def constant_heart(cls) -> Dataset:
        return Dataset(tuple(replace(s, features=s.features[:cls.CONSTANT] + (0.25,)
                                     + s.features[cls.CONSTANT + 1:])
                             for s in cls.heart.samples),
                       cls.heart.feature_names, cls.heart.class_names)

    @classmethod
    def inputs(cls, norms) -> list:
        rows = [s.features for s in cls.heart.samples]
        row = rows[0]
        out = list(rows)
        for j, (lo, hi) in enumerate(norms):
            # below lo, above hi, and exactly at each end
            for v in (lo - 1.0, hi + 1.0, lo, hi, 2 * hi - lo, lo - 1e-12):
                out.append(row[:j] + (v,) + row[j + 1:])
        for j in (0, cls.CONSTANT, len(row) - 1):
            for v in (-0.0, 0.0, math.nan, math.inf, -math.inf, 0, 1, -3, True, False,
                      10**400, "0.5", "x", b"1", None, [0.5], Decimal("0.5"),
                      Fraction(1, 3), np.float64(0.4), np.float32(0.4), np.int64(1),
                      complex(0.5, 0.0)):
                out += [row[:j] + (v,) + row[j + 1:], list(row[:j]) + [v] + list(row[j + 1:])]
        out += [
            tuple(int(v > 0.5) for v in row), tuple(v > 0.5 for v in row),
            (-0.0,) * len(row), (math.nan,) * len(row),
            tuple(np.float32(v) for v in row), tuple(np.float64(v) for v in row),
            list(row), np.array(row), np.array([row]), row[:-1], row + (0.5,), (), [],
            "abc", "0.5" * len(row), None, 5, 0.5, range(len(row)), {"a": 1},
        ]
        return out

    @staticmethod
    def models(fitted: Dataset):
        """(name, params, thresholds) of ADCL on a straight-line net and on
        one whose layers run row by row, and of LCL on a single-layer net,
        trained on ``fitted``; the row-form net is drawn with signed
        weights, as trained it answers one class."""
        cfg = TrainingConfig(0.6, 30, 1)
        dcl_lists, _, _ = fit(MODEL_KIND_DCL, fitted, cfg, (9,))
        dcl_rows = signed_params(LayerSpec(13, (32,), 5), 2)
        cl, thresholds, _ = fit(MODEL_KIND_CL, fitted, cfg)
        assert nn._row_form(dcl_rows.spec.layer_sizes) == [True, True]
        assert not any(nn._row_form(dcl_lists.spec.layer_sizes) + nn._row_form(
            cl.spec.layer_sizes))
        return [("lists", dcl_lists, None), ("rows", dcl_rows, None), ("lcl", cl, thresholds)]

    @pytest.mark.parametrize("constant", [False, True], ids=["ranges", "constant"])
    def test_same_outcome_as_the_reference_for_every_input(self, constant):
        data = self.constant_heart() if constant else self.heart
        # ranges fitted on a part of the rows, so the rest fall outside
        fitted = normalize_minmax(Dataset(data.samples[:100], data.feature_names,
                                          data.class_names))
        norms = fitted.normalization
        assert (norms[self.CONSTANT][0] == norms[self.CONSTANT][1]) is constant
        names = data.class_names
        cases = self.inputs(norms)
        for name, params, thresholds in self.models(fitted):
            predict = partial(reference_predict, params, thresholds)
            scaled = classifier(params, thresholds, names, norms)
            assert generated(scaled)
            labels = set()
            for x in cases:
                got = outcome(scaled, x)
                assert got == outcome(
                    lambda x: predict(apply_minmax_vector(tuple(x), norms), names), x
                ), (name, x)
                labels.add(got)
            # a one-shot iterator is read once
            row = data.samples[5].features
            assert scaled(iter(row)) == predict(apply_minmax_vector(row, norms), names)
            # a set has no feature order
            with pytest.raises(DimensionError):
                scaled(set(row))
            # the nets answer more than one class, and some inputs raise
            assert len({lab for lab in labels if isinstance(lab, ContextLabel)}) > 1, name
            assert any(isinstance(lab, tuple) for lab in labels), name

    def test_both_choice_rules_on_both_kernels(self):
        norms = normalize_minmax(self.heart).normalization
        labels = tuple(ContextLabel(i) for i in range(5))
        cases = self.inputs(norms)[::3]
        for p in (signed_params(LayerSpec(13, (9,), 5), 4),
                  signed_params(LayerSpec(13, (32,), 5), 5)):
            for thresholds in (None, (0.3, 0.6, 0.5, 0.2, 0.7)):
                scaled = nn.bind_classifier(p, labels, thresholds, norms)
                unscaled = nn.bind_classifier(p, labels, thresholds)
                for x in cases:
                    assert outcome(scaled, x) == outcome(
                        lambda x: unscaled(apply_minmax_vector(tuple(x), norms)), x), x

    def test_compiled_once_per_constant_feature_mask(self):
        spec = LayerSpec(4, (3, 2), 2)  # a topology no other test compiles
        norms = ((0.0, 1.0), (2.0, 5.0), (1.0, 1.0), (-1.0, 0.0))
        before = nn._classifier_kernel.cache_info().misses
        for seed in (1, 2):
            classify = classifier(signed_params(spec, seed), None, (), norms)
            classify((0.5, 3.0, 1.0, -0.5))
        # other ranges with the same constant feature
        classifier(signed_params(spec, 3), None, (), tuple((lo - 1.0, hi + 2.0) if lo < hi
                                                            else (lo, hi) for lo, hi in norms))
        assert nn._classifier_kernel.cache_info().misses == before + 1
        # the first fallback binds the unscaled classifier
        with pytest.raises(ValueError):
            classify((0.5, 3.0, 1.0))
        assert nn._classifier_kernel.cache_info().misses == before + 2
        classifier(signed_params(spec, 4), None, (), ((0.0, 1.0),) * 4)
        assert nn._classifier_kernel.cache_info().misses == before + 3

    def test_ranges_of_another_width_take_the_reference_path(self):
        p = signed_params(LayerSpec(13, (9,), 5), 7)
        norms = normalize_minmax(self.heart).normalization[:-1]
        scaled = classifier(p, None, (), norms)
        assert not generated(scaled)
        row = self.heart.samples[0].features
        for x in (row, row[:-1]):
            assert outcome(scaled, x) == outcome(
                lambda x: adcl_predict(p, apply_minmax_vector(tuple(x), norms)), x)

    def test_bound_once_per_model_and_ranges(self):
        p = signed_params(LayerSpec(13, (9,), 5), 6)
        norms = normalize_minmax(self.heart).normalization
        scaled = classifier(p, None, ("a",), norms)
        assert classifier(p, None, ("a",), norms) is scaled
        assert classifier(p, None, ("a",)) is not scaled
        assert classifier(p, None, ("a",), norms[::-1]) is not scaled

    @pytest.mark.parametrize("kind", [MODEL_KIND_DCL, MODEL_KIND_CL])
    def test_kfold_predictors_label_raw_rows_as_the_reference(self, kind):
        cfg = TrainingConfig(0.6, 30, 1)
        hidden = (9,) if kind == MODEL_KIND_DCL else None
        train_data = Dataset(self.heart.samples[:200], self.heart.feature_names,
                             self.heart.class_names)
        make = make_dcl_trainer(hidden, cfg) if hidden else make_cl_trainer(cfg)
        predict = make(train_data)
        assert generated(predict)
        fitted = normalize_minmax(train_data)
        params, thresholds, _ = fit(kind, fitted, cfg, hidden)
        for x in self.inputs(fitted.normalization):
            assert outcome(predict, x) == outcome(
                lambda x: reference_predict(params, thresholds,
                                            apply_minmax_vector(tuple(x), fitted.normalization),
                                            train_data.class_names), x), x

    @pytest.mark.parametrize("constant", [False, True], ids=["ranges", "constant"])
    def test_apply_minmax_rows_match_the_reference_bit_for_bit(self, constant):
        data = self.constant_heart() if constant else self.heart
        fitted = normalize_minmax(Dataset(data.samples[:100], data.feature_names,
                                          data.class_names)).normalization
        # ranges from 0.0, where -0.0 - 0.0 is -0.0
        unit = tuple((0.0, 1.0) if lo < hi else (lo, hi) for lo, hi in fitted)
        row = data.samples[0].features
        for norms in (fitted, unit):
            extra = tuple(Sample(row[:j] + (v,) + row[j + 1:], 0) for j in range(len(row))
                          for v in (-0.0, 0.0, 0, 1, True, False, norms[j][0], norms[j][1],
                                    -1e308, 1e308, 5e-324))
            held = replace(data, samples=data.samples + extra)
            applied = apply_minmax(held, norms)
            assert applied.normalization == norms
            for s, a in zip(held.samples, applied.samples):
                assert (a.label, a.timestamp) == (s.label, s.timestamp)
                assert [float.hex(v) for v in a.features] == \
                    [float.hex(v) for v in apply_minmax_vector(s.features, norms)]


def test_threshold_vector_validation():
    with pytest.raises(ValueError):
        ThresholdVector((0.0, 0.5))
    with pytest.raises(ValueError):
        ThresholdVector((1.0,))
