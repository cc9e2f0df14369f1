import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from edgectx import nn
from edgectx.data import Dataset, Sample
from edgectx.nn import (
    DimensionError,
    GradientSet,
    LayerSpec,
    NetworkParameters,
    TrainingConfig,
    apply_update,
    backprop,
    forward,
    hidden_size_default,
    init_network,
    sigmoid,
    squared_error,
    train,
)
from edgectx.rng import Rng


def make_params(sizes, weights, biases):
    spec = LayerSpec(sizes[0], tuple(sizes[1:-1]), sizes[-1])
    return NetworkParameters(
        spec,
        tuple(np.array(w, dtype=float) for w in weights),
        tuple(np.array(b, dtype=float) for b in biases),
    )


def random_params(spec: LayerSpec, seed: int) -> NetworkParameters:
    return init_network(spec, seed)


class TestSigmoid:
    def test_midpoint(self):
        assert sigmoid(0.0) == 0.5

    def test_antisymmetry(self):
        for x in (0.1, 1.0, 3.7, 12.0, 100.0):
            assert abs(sigmoid(x) + sigmoid(-x) - 1.0) < 1e-12

    def test_value_against_high_precision_oracle(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        expected = float(1 / (1 + mp.e ** -2))
        assert abs(sigmoid(2.0) - expected) < 1e-15

    def test_open_interval_at_extremes(self):
        for x in (-1e308, -1000.0, -40.0, 40.0, 1000.0, 1e308):
            y = sigmoid(x)
            assert 0.0 < y < 1.0
            assert not math.isnan(y)

    def test_monotone(self):
        xs = np.linspace(-30, 30, 301)
        ys = sigmoid(xs)
        assert np.all(np.diff(ys) >= 0)

    def test_bit_identical_to_masked_two_branch_form(self):
        def reference(x):
            out = np.empty_like(x)
            pos = x >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
            ex = np.exp(x[~pos])
            out[~pos] = ex / (1.0 + ex)
            return np.clip(out, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))

        magnitudes = [0.0, 1e-300, 1e-8, 0.5, 1.0, 2.0, 36.7, 40.0, 709.0, 745.0, 1e308]
        xs = np.array([m * sign for m in magnitudes for sign in (1.0, -1.0)])
        xs = np.concatenate([xs, np.linspace(-50.0, 50.0, 1001)])
        expected = reference(xs)
        assert sigmoid(xs).tobytes() == expected.tobytes()
        for x, y in zip(xs, expected):
            assert np.float64(sigmoid(float(x))).tobytes() == y.tobytes()


class TestHiddenSizeDefault:
    def test_mean_rule(self):
        assert hidden_size_default(4, 3) == 3
        assert hidden_size_default(1, 1) == 1
        assert hidden_size_default(7, 3) == 5

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            hidden_size_default(0, 3)


class TestInit:
    def test_deterministic(self):
        spec = LayerSpec(4, (3,), 3)
        a = init_network(spec, 123)
        b = init_network(spec, 123)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
        for ba, bb in zip(a.biases, b.biases):
            assert np.array_equal(ba, bb)

    def test_shapes(self):
        p = init_network(LayerSpec(4, (3,), 3), 1)
        assert [w.shape for w in p.weights] == [(3, 4), (3, 3)]
        assert [b.shape for b in p.biases] == [(3,), (3,)]
        assert p.version == 0 and p.trained_epochs == 0

    def test_values_in_unit_interval(self):
        for seed in (0, 1, 999):
            p = init_network(LayerSpec(5, (4, 4), 2), seed)
            for arr in (*p.weights, *p.biases):
                assert np.all(arr >= 0.0) and np.all(arr < 1.0)

    def test_different_seeds_differ(self):
        a = init_network(LayerSpec(3, (3,), 2), 1)
        b = init_network(LayerSpec(3, (3,), 2), 2)
        assert any(not np.array_equal(x, y) for x, y in zip(a.weights, b.weights))

    def test_rejects_zero_sized_layer(self):
        with pytest.raises(ValueError):
            LayerSpec(0, (3,), 2)
        with pytest.raises(ValueError):
            LayerSpec(3, (0,), 2)

    @pytest.mark.parametrize(
        "sizes",
        [(2.0, (), 2), (2, (3.0,), 2), (2, (), np.int64(2)), (2, (), "2"),
         (True, (), 2), (2, (True,), 2), (2, (), True)],
        ids=["float-input", "float-hidden", "numpy-int", "str",
             "bool-input", "bool-hidden", "bool-output"],
    )
    def test_rejects_non_integer_sizes(self, sizes):
        with pytest.raises(ValueError):
            LayerSpec(*sizes)


class TestForward:
    def test_zero_params_give_half_everywhere(self):
        p = make_params([3, 2, 2], [np.zeros((2, 3)), np.zeros((2, 2))],
                        [np.zeros(2), np.zeros(2)])
        trace = forward(p, [0.3, -1.2, 5.0])
        for layer in trace.outputs:
            assert np.allclose(layer, 0.5)

    def test_two_sigmoid_chain_matches_hand_oracle(self):
        # 1-1-1 net, unit weights, zero biases, input 2.0; oracle built on
        # math.exp, independent of the library's vector path
        p = make_params([1, 1, 1], [[[1.0]], [[1.0]]], [[0.0], [0.0]])
        trace = forward(p, [2.0])
        hidden = 1.0 / (1.0 + math.exp(-2.0))
        output = 1.0 / (1.0 + math.exp(-hidden))
        assert abs(trace.outputs[0][0] - hidden) < 1e-15
        assert abs(trace.final_outputs[0] - output) < 1e-15

    def test_hidden_node_permutation_invariance(self):
        p = random_params(LayerSpec(3, (4,), 2), 5)
        perm = [2, 0, 3, 1]
        w0 = p.weights[0][perm, :]
        b0 = p.biases[0][perm]
        w1 = p.weights[1][:, perm]
        q = make_params([3, 4, 2], [w0, w1], [b0, p.biases[1]])
        x = [0.2, -0.4, 0.9]
        assert np.allclose(
            forward(p, x).final_outputs, forward(q, x).final_outputs, atol=1e-15
        )

    def test_pure_and_bit_identical(self):
        p = random_params(LayerSpec(4, (3,), 3), 9)
        x = [0.1, 0.2, 0.3, 0.4]
        t1 = forward(p, x)
        t2 = forward(p, x)
        for a, b in zip(t1.outputs, t2.outputs):
            assert a.tobytes() == b.tobytes()

    def test_dimension_mismatch(self):
        p = random_params(LayerSpec(4, (3,), 3), 9)
        with pytest.raises(DimensionError):
            forward(p, [1.0, 2.0])


class TestSquaredError:
    def test_zero_residual(self):
        assert squared_error([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_unit_case(self):
        assert squared_error([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_derived_value(self):
        # 0.5 * (0.09 + 0.04 + 0.01) = 0.07
        assert abs(squared_error([1, 0, 0], [0.7, 0.2, 0.1]) - 0.07) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            squared_error([1.0], [1.0, 2.0])


def finite_difference_grads(params, x, target, h=1e-5):
    """Central-difference oracle, elementwise."""

    def loss_with(weights, biases):
        p = replace(params, weights=tuple(weights), biases=tuple(biases))
        return squared_error(target, forward(p, x).final_outputs)

    w_grads, b_grads = [], []
    for l in range(len(params.weights)):
        gw = np.zeros_like(params.weights[l])
        for idx in np.ndindex(*params.weights[l].shape):
            wp = [w.copy() for w in params.weights]
            wm = [w.copy() for w in params.weights]
            wp[l][idx] += h
            wm[l][idx] -= h
            gw[idx] = (
                loss_with(wp, list(params.biases)) - loss_with(wm, list(params.biases))
            ) / (2 * h)
        w_grads.append(gw)
        gb = np.zeros_like(params.biases[l])
        for idx in np.ndindex(*params.biases[l].shape):
            bp = [b.copy() for b in params.biases]
            bm = [b.copy() for b in params.biases]
            bp[l][idx] += h
            bm[l][idx] -= h
            gb[idx] = (
                loss_with(list(params.weights), bp) - loss_with(list(params.weights), bm)
            ) / (2 * h)
        b_grads.append(gb)
    return w_grads, b_grads


def relative_error(a, b):
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)


class TestBackprop:
    def test_zero_error_zero_gradients(self):
        p = random_params(LayerSpec(3, (3,), 2), 4)
        x = [0.5, 0.1, 0.9]
        target = forward(p, x).final_outputs
        g = backprop(p, x, target)
        for arr in (*g.weight_grads, *g.bias_grads):
            assert np.allclose(arr, 0.0, atol=1e-300)

    def test_matches_finite_differences_on_random_networks(self):
        rng = Rng(2024)
        for trial in range(20):
            spec = LayerSpec(
                1 + rng.randrange(4),
                tuple(1 + rng.randrange(4) for _ in range(1 + rng.randrange(2))),
                1 + rng.randrange(3),
            )
            p = init_network(spec, trial)
            x = [rng.uniform() for _ in range(spec.input_count)]
            t = [rng.uniform() for _ in range(spec.output_count)]
            g = backprop(p, x, t)
            fw, fb = finite_difference_grads(p, x, np.array(t))
            for an, fd in zip((*g.weight_grads, *g.bias_grads), (*fw, *fb)):
                assert np.max(relative_error(an, fd)) < 1e-4

    def test_single_layer_closed_form(self):
        # no hidden layer: dE/dw[x][k] = (o_x - a_x) * o_x * (1 - o_x) * i_k
        p = random_params(LayerSpec(3, (), 2), 8)
        x = np.array([0.3, 0.8, 0.5])
        a = np.array([1.0, 0.0])
        o = forward(p, x).final_outputs
        expected = np.outer((o - a) * o * (1 - o), x)
        g = backprop(p, x, a)
        assert np.allclose(g.weight_grads[0], expected, atol=1e-14)

    def test_does_not_mutate_params(self):
        p = random_params(LayerSpec(2, (2,), 2), 3)
        before = [w.tobytes() for w in p.weights]
        backprop(p, [0.1, 0.9], [1.0, 0.0])
        assert [w.tobytes() for w in p.weights] == before

    def test_rejects_bad_targets(self):
        p = random_params(LayerSpec(2, (2,), 2), 3)
        with pytest.raises(ValueError):
            backprop(p, [0.1, 0.9], [2.0, 0.0])


class TestApplyUpdate:
    def test_zero_gradient_is_identity(self):
        p = random_params(LayerSpec(2, (2,), 2), 1)
        zeros = GradientSet(
            tuple(np.zeros_like(w) for w in p.weights),
            tuple(np.zeros_like(b) for b in p.biases),
        )
        q = apply_update(p, zeros, 0.3)
        for a, b in zip(p.weights, q.weights):
            assert np.array_equal(a, b)

    def test_arithmetic(self):
        p = make_params([1, 1], [[[0.5]]], [[0.0]])
        g = GradientSet((np.array([[0.1]]),), (np.array([0.0]),))
        q = apply_update(p, g, 0.3)
        assert abs(q.weights[0][0, 0] - 0.47) < 1e-15

    def test_inverse_step_restores(self):
        p = random_params(LayerSpec(3, (2,), 2), 6)
        g = backprop(p, [0.2, 0.5, 0.7], [1.0, 0.0])
        stepped = apply_update(p, g, 0.3)
        neg = GradientSet(
            tuple(-w for w in g.weight_grads), tuple(-b for b in g.bias_grads)
        )
        back = apply_update(stepped, neg, 0.3)
        for a, b in zip(p.weights, back.weights):
            assert np.allclose(a, b, atol=1e-15)

    def test_version_untouched(self):
        p = replace(random_params(LayerSpec(2, (), 2), 1), version=7)
        g = backprop(p, [0.1, 0.2], [1.0, 0.0])
        assert apply_update(p, g, 0.1).version == 7

    def test_small_step_decreases_loss(self):
        rng = Rng(55)
        for trial in range(10):
            spec = LayerSpec(1 + rng.randrange(4), (1 + rng.randrange(4),), 1 + rng.randrange(3))
            p = init_network(spec, trial + 100)
            x = [rng.uniform() for _ in range(spec.input_count)]
            t = [float(rng.randrange(2)) for _ in range(spec.output_count)]
            g = backprop(p, x, t)
            if all(np.allclose(w, 0) for w in g.weight_grads):
                continue
            before = squared_error(t, forward(p, x).final_outputs)
            after = squared_error(t, forward(apply_update(p, g, 1e-3), x).final_outputs)
            assert after < before

    def test_rejects_non_finite_gradient(self):
        p = random_params(LayerSpec(2, (), 2), 1)
        g = GradientSet((np.full((2, 2), np.nan),), (np.zeros(2),))
        with pytest.raises(ValueError):
            apply_update(p, g, 0.1)


def two_cluster_data(n=200, seed=3):
    rng = Rng(seed)
    samples = []
    for i in range(n):
        label = i % 2
        center = 0.2 if label == 0 else 0.8
        samples.append(
            Sample((center + rng.gauss(0, 0.05), center + rng.gauss(0, 0.05)), label)
        )
    return Dataset(tuple(samples), ("x", "y"), ("a", "b"))


XOR_DATA = Dataset(
    tuple(
        Sample((float(a), float(b)), int(a != b)) for a in (0, 1) for b in (0, 1)
    ),
    ("x1", "x2"),
    ("same", "diff"),
)


def chain_spec(weights: int, layers: int) -> LayerSpec:
    """A topology of ``layers`` weighted layers and exactly ``weights``
    weights and biases: a wide input into a chain of width-1 layers."""
    return LayerSpec(weights - 1 - 2 * (layers - 1), (1,) * (layers - 1), 1)


# (topology, kernel): nets the package and the benchmark train, wide nets
# that stay on numpy, then both sides of the limit the cost model draws at
# a given layer count
KERNEL_TABLE = [
    (LayerSpec(2, (), 2), "lists"),
    (LayerSpec(2, (2,), 2), "lists"),
    (LayerSpec(13, (), 5), "lists"),
    (LayerSpec(13, (9,), 5), "lists"),
    (LayerSpec(13, (9,) * 3, 5), "lists"),
    (LayerSpec(13, (9,) * 5, 5), "lists"),
    (LayerSpec(13, (9,) * 9, 5), "lists"),
    (LayerSpec(13, (16,), 5), "numpy"),
    (LayerSpec(13, (32,), 5), "numpy"),
    (LayerSpec(13, (16,) * 3, 5), "numpy"),
    # one and two layers: 300 weights, as before layers were counted
    (chain_spec(299, 1), "lists"),
    (chain_spec(300, 1), "numpy"),
    (chain_spec(299, 2), "lists"),
    (chain_spec(300, 2), "numpy"),
    # from two layers on: 150 weights per layer
    (chain_spec(449, 3), "lists"),
    (chain_spec(450, 3), "numpy"),
    (chain_spec(599, 4), "lists"),
    (chain_spec(600, 4), "numpy"),
    (chain_spec(899, 6), "lists"),
    (chain_spec(900, 6), "numpy"),
    # the cap of 1000 weights at any depth; 13-12x9-5 has 1481 weights,
    # under 150 per layer
    (LayerSpec(13, (12,) * 9, 5), "numpy"),
    (chain_spec(999, 10), "lists"),
    (chain_spec(1000, 10), "numpy"),
    (chain_spec(999, 40), "lists"),
    (chain_spec(1000, 40), "numpy"),
]


def on_lists(p: NetworkParameters) -> bool:
    return p._lists is not None


class TestKernels:
    """The cost model puts each network on Python lists or on numpy; the
    numpy kernel is the reference."""

    def test_cost_model_selects_kernel(self):
        for spec, kernel in KERNEL_TABLE:
            p = random_params(spec, 1)
            assert on_lists(p) == (kernel == "lists"), (spec.layer_sizes, p.weight_count)
        # the chains carry exactly the weights they are named by
        assert random_params(chain_spec(1000, 40), 1).weight_count == 1000

    def test_list_kernel_saturates_like_numpy(self):
        p = make_params([1, 1], [[[1.0]]], [[0.0]])
        assert on_lists(p)
        for x in (-1e308, -1000.0, 40.0, 1000.0, 1e308):
            assert nn.final_outputs(p, [x]) == [sigmoid(x)]
            assert 0.0 < sigmoid(x) < 1.0

    @pytest.mark.parametrize("side", ["below", "above"])
    def test_list_kernel_matches_numpy_kernel(self, side):
        rng = Rng(404 if side == "below" else 405)
        for trial in range(20):
            if side == "below":
                hidden = tuple(1 + rng.randrange(6) for _ in range(rng.randrange(3)))
                spec = LayerSpec(1 + rng.randrange(5), hidden, 1 + rng.randrange(4))
            else:
                hidden = tuple(16 + rng.randrange(4) for _ in range(2 + rng.randrange(3)))
                spec = LayerSpec(10 + rng.randrange(6), hidden, 2 + rng.randrange(5))
            sizes = spec.layer_sizes
            # weights of both signs, so both sigmoid branches are taken
            weights = [
                np.array([[rng.gauss(0, 2) for _ in range(sizes[l])]
                          for _ in range(sizes[l + 1])])
                for l in range(len(sizes) - 1)
            ]
            biases = [np.array([rng.gauss(0, 2) for _ in range(n)]) for n in sizes[1:]]
            p = NetworkParameters(spec, tuple(weights), tuple(biases))
            assert on_lists(p) == (side == "below")
            x = [rng.uniform() * 2 - 0.5 for _ in range(spec.input_count)]
            t = [float(rng.randrange(2)) for _ in range(spec.output_count)]

            kernel = nn._ArrayKernel(p, gradients=True)
            kernel.forward(np.array(x))
            kernel.backward(np.array(t))
            ref_acts, ref_deltas = kernel.acts, kernel.bias_grads
            # the numpy-kernel nets have no ``_lists``, so flatten them here
            flat = [v for w, b in zip(p.weights, p.biases)
                    for v in w.ravel().tolist() + b.tolist()]
            compiled = nn._list_kernel(spec.layer_sizes)
            acts = compiled.activations(flat, x)
            deltas = compiled.deltas(flat, acts, t)
            for got, ref in zip(acts + deltas, ref_acts + ref_deltas):
                np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize(
        "sizes, limit",
        [((298, 1), 300), ((1, 99, 1), 300), ((13, 15, 5), 300),
         ((1, 16, 16, 16, 1), 600), ((26, *(9,) * 9, 3), 1000)],
        ids=["298-1", "1-99-1", "13-15-5", "1-16x3-1", "26-9x9-3"],
    )
    def test_widest_list_nets_match_numpy_kernel(self, sizes, limit):
        rng = Rng(sum(sizes))
        weights = [
            np.array([[rng.gauss(0, 0.5) for _ in range(sizes[l])]
                      for _ in range(sizes[l + 1])])
            for l in range(len(sizes) - 1)
        ]
        biases = [np.array([rng.gauss(0, 0.5) for _ in range(n)]) for n in sizes[1:]]
        spec = LayerSpec(sizes[0], sizes[1:-1], sizes[-1])
        p = NetworkParameters(spec, tuple(weights), tuple(biases))
        assert limit - 10 <= p.weight_count < limit
        assert on_lists(p)
        samples = tuple(
            Sample(tuple(rng.uniform() for _ in range(sizes[0])), rng.randrange(sizes[-1]))
            for _ in range(4)
        )
        targets = [[float(s.label == c) for c in range(sizes[-1])] for s in samples]
        # the list kernel folds a dot product left, numpy does not: a sum of
        # up to 298 products may differ in its last few hundred ulps
        tol = dict(rtol=1e-11, atol=1e-14)
        for s, t in zip(samples, targets):
            kernel = nn._ArrayKernel(p, gradients=True)
            kernel.forward(np.array(s.features))
            kernel.backward(np.array(t))
            np.testing.assert_allclose(nn.final_outputs(p, s.features), kernel.acts[-1], **tol)
            grads = backprop(p, s.features, t)
            for got, ref in zip(grads.weight_grads + grads.bias_grads,
                                kernel.weight_grads + kernel.bias_grads):
                np.testing.assert_allclose(got, ref, **tol)

        data = Dataset(samples, tuple(f"f{i}" for i in range(sizes[0])),
                       tuple(str(c) for c in range(sizes[-1])))
        cfg = TrainingConfig(0.3, 1, 0, shuffle_each_epoch=False)
        trained, history = train(p, data, cfg)
        kernel = nn._ArrayKernel(p, trainable=True)
        total = sum(kernel.step(np.array(s.features), np.array(t), 0.3)
                    for s, t in zip(samples, targets))
        np.testing.assert_allclose(history, [total / len(samples)], **tol)
        flat = np.concatenate([a.ravel() for w, b in zip(trained.weights, trained.biases)
                               for a in (w, b)])
        np.testing.assert_allclose(flat, kernel.theta, **tol)

    def test_one_topology_shares_one_compiled_kernel(self):
        spec = LayerSpec(3, (4,), 2)
        a, b = random_params(spec, 1), random_params(spec, 2)
        data = Dataset((Sample((0.1, 0.5, 0.9), 1), Sample((0.7, 0.2, 0.4), 0)),
                       ("x", "y", "z"), ("a", "b"))
        cfg = TrainingConfig(0.3, 2, 0)
        train(a, data, cfg)
        misses = nn._list_kernel.cache_info().misses
        trained, _ = train(b, data, cfg)
        for p in (a, b, trained):
            nn.final_outputs(p, (0.3, 0.3, 0.3))
            backprop(p, (0.3, 0.3, 0.3), [1.0, 0.0])
        assert nn._list_kernel.cache_info().misses == misses

    @pytest.mark.parametrize("hidden, kernel",
                             [((3,), "lists"), ((12,) * 3, "lists"), ((24,) * 2, "numpy")],
                             ids=["2-3-2", "2-12x3-2", "2-24x2-2"])
    def test_train_sees_the_outputs_forward_gives(self, hidden, kernel):
        p = random_params(LayerSpec(2, hidden, 2), 8)
        assert on_lists(p) == (kernel == "lists")
        cfg = TrainingConfig(learning_rate=0.3, epochs=1, seed=0)
        rng = Rng(9)
        for _ in range(5):
            s = Sample((rng.uniform(), rng.uniform()), rng.randrange(2))
            target = [float(s.label == c) for c in range(2)]
            outputs = forward(p, s.features).final_outputs
            assert nn.final_outputs(p, s.features) == outputs.tolist()
            _, history = train(p, Dataset((s,), ("x", "y"), ("a", "b")), cfg)
            assert history == [squared_error(target, outputs)]


def manual_train(p, samples, cfg):
    """``train`` without shuffling, as forward + backprop + apply_update."""
    history = []
    for _ in range(cfg.epochs):
        total = 0.0
        for s in samples:
            target = [float(s.label == c) for c in range(p.spec.output_count)]
            total += squared_error(target, forward(p, s.features).final_outputs)
            p = apply_update(p, backprop(p, s.features, target), cfg.learning_rate)
        history.append(total / len(samples))
    return p, history


def assert_concurrent_final_outputs_match_sequential(p):
    """Two threads calling ``final_outputs`` on one net get the sequential
    results; ``p`` takes 13 inputs."""
    rng = Rng(12)
    inputs = [[rng.uniform() for _ in range(13)] for _ in range(200)]
    expected = [nn.final_outputs(p, x) for x in inputs]
    results = [None, None]
    barrier = threading.Barrier(2)

    def work(slot, order):
        barrier.wait(timeout=30)
        results[slot] = [(i, nn.final_outputs(p, inputs[i])) for i in order]

    threads = [
        threading.Thread(target=work, args=(0, range(200))),
        threading.Thread(target=work, args=(1, range(199, -1, -1))),
    ]
    # switch threads often, so the calls interleave inside the kernel
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got in results:
        assert len(got) == 200
        assert all(out == expected[i] for i, out in got)


class TestNumpyKernelThreads:
    def test_concurrent_final_outputs_match_sequential(self):
        p = random_params(LayerSpec(13, (16,) * 3, 5), 3)
        assert not on_lists(p)
        assert_concurrent_final_outputs_match_sequential(p)


class TestListKernelThreads:
    def test_concurrent_final_outputs_match_sequential(self):
        p = random_params(LayerSpec(13, (9,), 5), 3)
        assert on_lists(p)
        assert_concurrent_final_outputs_match_sequential(p)


class TestTrain:
    @pytest.mark.parametrize(
        "hidden, kernel",
        [((), "lists"), ((3,), "lists"), ((3, 3), "lists"), ((12,) * 3, "lists"),
         ((12,) * 6, "lists"), ((24,) * 2, "numpy"), ((24,) * 4, "numpy")],
        ids=["2-2", "2-3-2", "2-3-3-2", "2-12x3-2", "2-12x6-2", "2-24x2-2", "2-24x4-2"],
    )
    def test_equals_backprop_then_apply_update(self, hidden, kernel):
        samples = (Sample((0.2, 0.7), 1), Sample((0.9, 0.1), 0), Sample((0.5, 0.4), 1))
        data = Dataset(samples, ("x", "y"), ("a", "b"))
        p = random_params(LayerSpec(2, hidden, 2), 77)
        assert on_lists(p) == (kernel == "lists")
        cfg = TrainingConfig(learning_rate=0.3, epochs=2, seed=0, shuffle_each_epoch=False)
        trained, history = train(p, data, cfg)
        manual, manual_history = manual_train(p, samples, cfg)

        assert history == manual_history
        for a, b in zip(trained.weights + trained.biases, manual.weights + manual.biases):
            assert a.tobytes() == b.tobytes()
        assert trained.trained_epochs == 2

    def test_saturating_numpy_net_equals_backprop_then_apply_update(self):
        rng = Rng(31)
        spec = LayerSpec(2, (24, 24), 2)
        sizes = spec.layer_sizes
        weights = [
            np.array([[rng.gauss(0, 1000) for _ in range(sizes[l])]
                      for _ in range(sizes[l + 1])])
            for l in range(len(sizes) - 1)
        ]
        biases = [np.array([rng.gauss(0, 1000) for _ in range(n)]) for n in sizes[1:]]
        p = NetworkParameters(spec, tuple(weights), tuple(biases))
        assert not on_lists(p)
        samples = tuple(Sample((rng.uniform(), rng.uniform()), i % 2) for i in range(6))
        # net inputs beyond about -745 and +37 round to 0 and 1: both clips
        outputs = np.concatenate([np.concatenate(forward(p, s.features).outputs)
                                  for s in samples])
        assert np.any(outputs == nn._SIG_LO) and np.any(outputs == nn._SIG_HI)

        cfg = TrainingConfig(learning_rate=0.6, epochs=2, seed=0, shuffle_each_epoch=False)
        trained, history = train(p, Dataset(samples, ("x", "y"), ("a", "b")), cfg)
        manual, manual_history = manual_train(p, samples, cfg)
        assert history == manual_history
        for a, b in zip(trained.weights + trained.biases, manual.weights + manual.biases):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("hidden, kernel",
                             [((3,), "lists"), ((12,) * 3, "lists"), ((24,) * 2, "numpy")],
                             ids=["2-3-2", "2-12x3-2", "2-24x2-2"])
    def test_leaves_params_alone_and_returns_fresh_arrays(self, hidden, kernel):
        p = random_params(LayerSpec(2, hidden, 2), 5)
        assert on_lists(p) == (kernel == "lists")
        before = [a.tobytes() for a in p.weights + p.biases]
        data = two_cluster_data(20)
        cfg = TrainingConfig(0.3, 3, 5)
        a, ha = train(p, data, cfg)
        b, hb = train(p, data, cfg)
        assert [x.tobytes() for x in p.weights + p.biases] == before
        assert ha == hb
        for x, y in zip(a.weights + a.biases, b.weights + b.biases):
            assert x.tobytes() == y.tobytes()
            assert not np.shares_memory(x, y)
            assert not x.flags.writeable

    def test_epochs_accumulate(self):
        data = two_cluster_data(20)
        p = random_params(LayerSpec(2, (2,), 2), 1)
        t1, _ = train(p, data, TrainingConfig(0.3, 3, 5))
        t2, _ = train(t1, data, TrainingConfig(0.3, 4, 5))
        assert t2.trained_epochs == 7

    def test_xor_reaches_full_train_accuracy(self):
        p = init_network(LayerSpec(2, (3,), 2), 1)
        trained, _ = train(p, XOR_DATA, TrainingConfig(0.3, 5000, 1))
        correct = sum(
            int(np.argmax(forward(trained, s.features).final_outputs)) == s.label
            for s in XOR_DATA.samples
        )
        assert correct == 4

    def test_loss_non_increasing_on_separable_data(self):
        data = two_cluster_data(60, seed=9)
        p = init_network(LayerSpec(2, (2,), 2), 4)
        _, history = train(p, data, TrainingConfig(0.3, 200, 4))
        for i in range(100, len(history) - 50):
            assert history[i + 50] <= history[i] + 1e-9

    def test_full_determinism(self):
        data = two_cluster_data(40)
        cfg = TrainingConfig(0.3, 30, 12)
        a, ha = train(init_network(LayerSpec(2, (3,), 2), 12), data, cfg)
        b, hb = train(init_network(LayerSpec(2, (3,), 2), 12), data, cfg)
        assert ha == hb
        for wa, wb in zip(a.weights, b.weights):
            assert wa.tobytes() == wb.tobytes()

    def test_rejects_empty_and_mismatched(self):
        p = random_params(LayerSpec(2, (2,), 2), 1)
        with pytest.raises(ValueError):
            train(p, Dataset((), ("x", "y"), ("a",)), TrainingConfig(0.3, 1, 0))
        wide = Dataset((Sample((1.0, 2.0, 3.0), 0),), ("a", "b", "c"), ("k",))
        with pytest.raises(DimensionError):
            train(p, wide, TrainingConfig(0.3, 1, 0))

    def test_epochs_zero_forbidden(self):
        with pytest.raises(ValueError):
            TrainingConfig(0.3, 0, 0)
