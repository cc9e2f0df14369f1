import math

import numpy as np
import pytest

from edgectx.data import Dataset, Sample, synth_still_motion
from edgectx.learners import (
    MODEL_KIND_CL,
    MODEL_KIND_DCL,
    ClModel,
    ContextLabel,
    NeverSyncedError,
    ThresholdVector,
    adcl_predict,
    calibrate_thresholds,
    cl_train,
    dcl_train,
    evaluate,
    fit,
    kfold_cross_validate,
    lcl_predict,
    make_dcl_trainer,
    metrics_from_counts,
)
from edgectx.nn import (
    LayerSpec,
    NetworkParameters,
    TrainingConfig,
    forward,
    hidden_size_default,
    init_network,
    train,
)
from edgectx.rng import Rng


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
        from edgectx.nn import _class_choice

        def reference(outs, taus):
            margins = [o - t for o, t in zip(outs, taus)]
            idx = margins.index(max(margins))
            return idx if margins[idx] > 0.0 else outs.index(max(outs))

        rng = Rng(78)
        # few distinct values, so ties and zero margins are common
        levels = (0.2, 0.4, 0.6, 0.8)
        for n in range(1, 9):
            for _ in range(200):
                outs = [levels[rng.randrange(4)] for _ in range(n)]
                taus = tuple(levels[rng.randrange(4)] for _ in range(n))
                assert _class_choice(n)(outs, taus) == reference(outs, taus)
                # without thresholds: the first largest output
                assert _class_choice(n)(outs, None) == outs.index(max(outs))

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
        result = kfold_cross_validate(doubled, 4, memorizing_trainer, 0)
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
        for wa, wb in zip(a.weights, b.weights):
            assert wa.tobytes() == wb.tobytes()

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
            direct = int(np.argmax(forward(params, s.features).final_outputs))
            via_pipeline = predict(
                tuple(
                    lo + f * (hi - lo)
                    for f, (lo, hi) in zip(s.features, fitted.normalization)
                )
            )
            assert direct == via_pipeline.class_index


def same_params(a: NetworkParameters, b: NetworkParameters) -> bool:
    return a.spec == b.spec and all(
        x.tobytes() == y.tobytes()
        for x, y in zip(a.weights + a.biases, b.weights + b.biases)
    )


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


def test_threshold_vector_validation():
    with pytest.raises(ValueError):
        ThresholdVector((0.0, 0.5))
    with pytest.raises(ValueError):
        ThresholdVector((1.0,))
