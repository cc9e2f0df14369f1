import math
import re
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from conftest import same_params

from edgectx import nn
from edgectx.data import Dataset, Sample
from edgectx.nn import (
    DimensionError,
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
    return NetworkParameters(spec, weights, biases)


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

    def test_clip_bounds_are_the_neighbours_numpy_gives(self):
        assert nn._SIG_LO.hex() == float(np.nextafter(0.0, 1.0)).hex() == "0x0.0000000000001p-1022"
        assert nn._SIG_HI.hex() == float(np.nextafter(1.0, 0.0)).hex() == "0x1.fffffffffffffp-1"

    def test_open_interval_at_extremes(self):
        for x in (-1e308, -1000.0, -40.0, 40.0, 1000.0, 1e308):
            y = sigmoid(x)
            assert 0.0 < y < 1.0
            assert not math.isnan(y)

    def test_monotone(self):
        ys = [sigmoid(x) for x in np.linspace(-30, 30, 301).tolist()]
        assert all(a <= b for a, b in zip(ys, ys[1:]))

    def test_bit_identical_to_masked_two_branch_form(self):
        # the two branches on math.exp, as every network node computes them;
        # numpy's exp differs from it in the last bit on some inputs
        magnitudes = [0.0, 1e-300, 1e-8, 0.5, 1.0, 2.0, 36.7, 40.0, 709.0, 745.0, 1e308]
        xs = [m * sign for m in magnitudes for sign in (1.0, -1.0)]
        xs += np.linspace(-50.0, 50.0, 1001).tolist()
        assert bits([sigmoid(x) for x in xs]) == bits([ref_sigmoid(x) for x in xs])


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
        assert same_params(init_network(spec, 123), init_network(spec, 123))

    def test_shapes(self):
        p = init_network(LayerSpec(4, (3,), 3), 1)
        assert [[len(row) for row in w] for w in p.weights] == [[4] * 3, [3] * 3]
        assert [len(b) for b in p.biases] == [3, 3]
        assert p.version == 0 and p.trained_epochs == 0

    def test_values_in_unit_interval(self):
        for seed in (0, 1, 999):
            p = init_network(LayerSpec(5, (4, 4), 2), seed)
            assert all(0.0 <= v < 1.0 for v in p.flat)

    def test_different_seeds_differ(self):
        a = init_network(LayerSpec(3, (3,), 2), 1)
        b = init_network(LayerSpec(3, (3,), 2), 2)
        assert a.weights != b.weights

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
        for layer in forward(p, [0.3, -1.2, 5.0]):
            assert np.allclose(layer, 0.5)

    def test_two_sigmoid_chain_matches_hand_oracle(self):
        # 1-1-1 net, unit weights, zero biases, input 2.0; oracle built on
        # math.exp, independent of the library's vector path
        p = make_params([1, 1, 1], [[[1.0]], [[1.0]]], [[0.0], [0.0]])
        trace = forward(p, [2.0])
        hidden = 1.0 / (1.0 + math.exp(-2.0))
        output = 1.0 / (1.0 + math.exp(-hidden))
        assert abs(trace[0][0] - hidden) < 1e-15
        assert abs(trace[-1][0] - output) < 1e-15

    def test_hidden_node_permutation_invariance(self):
        p = random_params(LayerSpec(3, (4,), 2), 5)
        perm = [2, 0, 3, 1]
        w0 = [p.weights[0][j] for j in perm]
        b0 = [p.biases[0][j] for j in perm]
        w1 = [[row[j] for j in perm] for row in p.weights[1]]
        q = make_params([3, 4, 2], [w0, w1], [b0, p.biases[1]])
        x = [0.2, -0.4, 0.9]
        assert np.allclose(forward(p, x)[-1], forward(q, x)[-1], atol=1e-15)

    def test_pure_and_bit_identical(self):
        p = random_params(LayerSpec(4, (3,), 3), 9)
        x = [0.1, 0.2, 0.3, 0.4]
        assert bits(forward(p, x)) == bits(forward(p, x))

    def test_dimension_mismatch(self):
        p = random_params(LayerSpec(4, (3,), 3), 9)
        with pytest.raises(DimensionError):
            forward(p, [1.0, 2.0])

    def test_refuses_a_set(self):
        # a set's iteration order is not defined, so it holds no feature order
        p = random_params(LayerSpec(2, (2,), 2), 9)
        for x in ({0.1, 0.9}, frozenset((0.1, 0.9)), {0.1: 0, 0.9: 1}.keys()):
            for run in (forward, nn.final_outputs):
                with pytest.raises(DimensionError, match="input is a set"):
                    run(p, x)


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
    """Central-difference oracle, one entry of ``flat`` at a time."""

    def loss_with(flat):
        return squared_error(target, forward(replace(params, flat=flat), x)[-1])

    grads = []
    for i in range(len(params.flat)):
        plus, minus = list(params.flat), list(params.flat)
        plus[i] += h
        minus[i] -= h
        grads.append((loss_with(plus) - loss_with(minus)) / (2 * h))
    return grads


def relative_error(a, b):
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)


class TestBackprop:
    def test_zero_error_zero_gradients(self):
        p = random_params(LayerSpec(3, (3,), 2), 4)
        x = [0.5, 0.1, 0.9]
        target = forward(p, x)[-1]
        assert np.allclose(backprop(p, x, target), 0.0, atol=1e-300)

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
            an = np.array(backprop(p, x, t))
            fd = np.array(finite_difference_grads(p, x, t))
            assert an.shape == fd.shape and np.max(relative_error(an, fd)) < 1e-4

    def test_single_layer_closed_form(self):
        # no hidden layer: dE/dw[x][k] = (o_x - a_x) * o_x * (1 - o_x) * i_k
        p = random_params(LayerSpec(3, (), 2), 8)
        x = np.array([0.3, 0.8, 0.5])
        a = np.array([1.0, 0.0])
        o = np.array(forward(p, x)[-1])
        expected = np.outer((o - a) * o * (1 - o), x)
        g = backprop(p, x, a)
        assert np.allclose(np.reshape(g[:6], (2, 3)), expected, atol=1e-14)

    def test_does_not_mutate_params(self):
        p = random_params(LayerSpec(2, (2,), 2), 3)
        before = bits(p.flat)
        backprop(p, [0.1, 0.9], [1.0, 0.0])
        assert bits(p.flat) == before

    def test_rejects_bad_targets(self):
        p = random_params(LayerSpec(2, (2,), 2), 3)
        with pytest.raises(ValueError):
            backprop(p, [0.1, 0.9], [2.0, 0.0])


class TestApplyUpdate:
    def test_zero_gradient_is_identity(self):
        p = random_params(LayerSpec(2, (2,), 2), 1)
        q = apply_update(p, (0.0,) * p.weight_count, 0.3)
        assert same_params(p, q)

    def test_arithmetic(self):
        p = make_params([1, 1], [[[0.5]]], [[0.0]])
        q = apply_update(p, (0.1, 0.0), 0.3)
        assert abs(q.weights[0][0][0] - 0.47) < 1e-15

    def test_inverse_step_restores(self):
        p = random_params(LayerSpec(3, (2,), 2), 6)
        g = backprop(p, [0.2, 0.5, 0.7], [1.0, 0.0])
        stepped = apply_update(p, g, 0.3)
        back = apply_update(stepped, [-v for v in g], 0.3)
        assert np.allclose(p.flat, back.flat, atol=1e-15)

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
            if np.allclose(g, 0):
                continue
            before = squared_error(t, forward(p, x)[-1])
            after = squared_error(t, forward(apply_update(p, g, 1e-3), x)[-1])
            assert after < before

    def test_rejects_non_finite_gradient(self):
        p = random_params(LayerSpec(2, (), 2), 1)
        with pytest.raises(ValueError):
            apply_update(p, (math.nan,) * 4 + (0.0,) * 2, 0.1)

    def test_rejects_gradient_of_another_length(self):
        p = random_params(LayerSpec(2, (), 2), 1)
        with pytest.raises(DimensionError):
            apply_update(p, (0.0,) * 5, 0.1)


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


def ref_sigmoid(z):
    """The clipped two-branch sigmoid on ``math.exp``."""
    if z >= 0.0:
        return min(1.0 / (1.0 + math.exp(-z)), nn._SIG_HI)
    e = math.exp(z)
    return max(e / (1.0 + e), nn._SIG_LO)


def ref_layers(flat, sizes):
    """(rows, biases, offsets) of each layer: its weight rows and biases as
    lists, and the flat index of its first weight and of its first bias."""
    layers, at = [], 0
    for n_in, n_out in zip(sizes, sizes[1:]):
        rows = [list(flat[at + j * n_in:at + (j + 1) * n_in]) for j in range(n_out)]
        layers.append((rows, list(flat[at + n_out * n_in:at + n_out * (n_in + 1)]),
                       (at, at + n_out * n_in)))
        at += n_out * (n_in + 1)
    return layers


def ref_activations(flat, sizes, x):
    """The input and each layer's outputs, each net input a left fold from
    the bias."""
    acts = [list(x)]
    for rows, biases, _ in ref_layers(flat, sizes):
        out = []
        for row, z in zip(rows, biases):
            for w, a in zip(row, acts[-1]):
                z = z + w * a
            out.append(ref_sigmoid(z))
        acts.append(out)
    return acts


def ref_deltas(flat, sizes, acts, t):
    """dE/dnet of each layer; each hidden sum starts from 0.0 and adds the
    next layer's rows in order."""
    layers = ref_layers(flat, sizes)
    deltas = [[(o - y) * o * (1.0 - o) for o, y in zip(acts[-1], t)]]
    for l in range(len(layers) - 1, 0, -1):
        rows, d = layers[l][0], []
        for k, a in enumerate(acts[l]):
            s = 0.0
            for row, dn in zip(rows, deltas[0]):
                s = s + row[k] * dn
            d.append(s * a * (1.0 - a))
        deltas.insert(0, d)
    return deltas


def ref_epochs(flat, sizes, samples, cfg):
    """``train``'s (flat parameters, loss history) as nested loops: every
    delta of a sample is taken before any parameter moves."""
    p, history, rng = list(flat), [], Rng(cfg.seed)
    order = list(range(len(samples)))
    for _ in range(cfg.epochs):
        if cfg.shuffle_each_epoch:
            rng.shuffle(order)
        total = 0.0
        for i in order:
            x, label = samples[i].features, samples[i].label
            t = [float(label == c) for c in range(sizes[-1])]
            acts = ref_activations(p, sizes, x)
            loss = 0.0
            for y, o in zip(t, acts[-1]):
                loss = loss + (y - o) * (y - o)
            total += 0.5 * loss
            deltas = ref_deltas(p, sizes, acts, t)
            for (rows, biases, (w_at, b_at)), d, a in zip(ref_layers(p, sizes), deltas, acts):
                for j, row in enumerate(rows):
                    for k, w in enumerate(row):
                        p[w_at + j * len(row) + k] = w - cfg.learning_rate * (d[j] * a[k])
                    p[b_at + j] = biases[j] - cfg.learning_rate * d[j]
        history.append(total / len(order))
    return p, history


def bits(values) -> list[str]:
    """Every float of ``values``, nested lists flattened, as hex: equal
    lists hold the same bits, signed zeros included."""
    if isinstance(values, (list, tuple)):
        return [h for v in values for h in bits(v)]
    return [float.hex(float(values))]


def gauss_params(spec: LayerSpec, rng: Rng, sd: float) -> NetworkParameters:
    """Weights and biases drawn from N(0, ``sd``), so nodes see net inputs
    of both signs, and at large ``sd`` both saturated ends."""
    sizes = spec.layer_sizes
    count = sum(n_out * (n_in + 1) for n_in, n_out in zip(sizes, sizes[1:]))
    return NetworkParameters(spec, flat=[rng.gauss(0, sd) for _ in range(count)])


def random_spec(rng: Rng, side: str) -> LayerSpec:
    """A topology whose layers all stay straight-line ("below"), or one
    with at least one layer that runs row by row ("above"), often next to
    straight-line layers."""
    if side == "below":
        hidden = tuple(1 + rng.randrange(6) for _ in range(rng.randrange(4)))
        return LayerSpec(1 + rng.randrange(8), hidden, 1 + rng.randrange(6))
    while True:
        hidden = tuple(4 + rng.randrange(18) for _ in range(rng.randrange(4)))
        spec = LayerSpec(4 + rng.randrange(24), hidden, 1 + rng.randrange(8))
        if any(nn._row_form(spec.layer_sizes)):
            return spec


# (topology, form of each layer): the nets the package and the benchmark
# train, wide nets, and both sides of the rule at 150 weights and biases
# for rows of 16 inputs or more and at 300 for narrower rows
FORM_TABLE = [
    (LayerSpec(2, (), 2), "s"),
    (LayerSpec(2, (2,), 2), "ss"),
    (LayerSpec(13, (), 5), "s"),
    (LayerSpec(13, (9,), 5), "ss"),
    (LayerSpec(13, (9,) * 9, 5), "s" * 10),
    (LayerSpec(13, (24,), 5), "rs"),
    (LayerSpec(13, (32,), 5), "rr"),
    (LayerSpec(13, (16,) * 3, 5), "srrs"),
    (LayerSpec(13, (12,) * 9, 5), "s" * 10),
    (LayerSpec(149, (), 1), "s"),
    (LayerSpec(150, (), 1), "r"),
    (LayerSpec(16, (), 8), "s"),
    (LayerSpec(16, (), 9), "r"),
    (LayerSpec(15, (), 18), "s"),
    (LayerSpec(15, (), 19), "r"),
    (LayerSpec(2, (100,), 1), "ss"),
    (LayerSpec(2, (101,), 1), "rs"),
    (LayerSpec(2, (50, 3), 2), "srs"),
    (LayerSpec(14, (10,), 14), "ss"),
    (LayerSpec(14, (10,), 28), "sr"),
]


class TestKernels:
    """The generated kernel against the nested-loop reference above, bit
    for bit, on nets whose layers are straight-line code, run row by row,
    or both."""

    def test_row_rule_selects_form(self):
        for spec, form in FORM_TABLE:
            sizes = spec.layer_sizes
            rows = nn._row_form(sizes)
            assert "".join("r" if r else "s" for r in rows) == form, sizes
            # the kernel calls the dot function of each row layer's input width
            called = set(map(int, re.findall(r"dot(\d+)\(", nn._list_kernel_source(sizes))))
            assert called == {n_in for n_in, row in zip(sizes, rows) if row}, sizes
            # a layer's form follows its own weights and biases and row width
            assert all(r == (n_out * (n_in + 1) > (150 if n_in >= 16 else 300))
                       for (n_in, n_out), r in zip(zip(sizes, sizes[1:]), rows))

    def test_list_kernel_saturates_like_numpy(self):
        p = make_params([1, 1], [[[1.0]]], [[0.0]])
        for x in (-1e308, -1000.0, -745.0, -40.0, 40.0, 1000.0, 1e308):
            assert nn.final_outputs(p, [x]) == [sigmoid(x)] == [ref_sigmoid(x)]
            assert 0.0 < sigmoid(x) < 1.0
        assert sigmoid(-1000.0) == nn._SIG_LO and sigmoid(1000.0) == nn._SIG_HI

    @pytest.mark.parametrize("side", ["below", "above"])
    def test_kernel_matches_reference(self, side):
        rng = Rng(404 if side == "below" else 405)
        seen = set()
        for trial in range(24):
            spec = random_spec(rng, side)
            sizes = spec.layer_sizes
            assert any(nn._row_form(sizes)) is (side == "above")
            # every fourth net saturates: its net inputs reach both clips
            p = gauss_params(spec, rng, 1000.0 if trial % 4 == 3 else 2.0)
            kernel = nn._list_kernel(sizes)
            taus = tuple(0.05 + 0.9 * rng.uniform() for _ in range(spec.output_count))
            labels = tuple(range(spec.output_count))
            classify = nn.bind_classifier(p, labels)
            margins = nn.bind_classifier(p, labels, taus)
            assert generated(classify) and generated(margins)
            samples = []
            for _ in range(6):
                x = [4.0 * rng.uniform() - 2.0 for _ in range(spec.input_count)]
                t = [float(rng.randrange(2)) for _ in range(spec.output_count)]
                acts = kernel.activations(p.flat, x)
                ref = ref_activations(p.flat, sizes, x)
                assert bits(acts) == bits(ref), (sizes, x)
                assert bits(kernel.deltas(p.flat, acts, t)) == \
                    bits(ref_deltas(p.flat, sizes, ref, t)), (sizes, x)
                assert classify(x) == first_argmax(ref[-1])
                assert margins(x) == margin_choice(ref[-1], taus)
                seen.update(("lo" if a == nn._SIG_LO else "hi" if a == nn._SIG_HI else
                             "below 0.5" if a < 0.5 else "above 0.5")
                            for layer in ref[1:] for a in layer)
                samples.append(Sample(tuple(x), rng.randrange(spec.output_count)))
            data = Dataset(tuple(samples), tuple(f"f{i}" for i in range(spec.input_count)),
                           tuple(str(c) for c in range(spec.output_count)))
            cfg = TrainingConfig(0.6, 2, trial)
            trained, history = train(p, data, cfg)
            ref_flat, ref_history = ref_epochs(p.flat, sizes, samples, cfg)
            assert bits(trained.flat) == bits(ref_flat), sizes
            assert bits(history) == bits(ref_history), sizes
        assert seen == {"lo", "hi", "below 0.5", "above 0.5"}

    @pytest.mark.parametrize(
        "sizes, form",
        [((298, 1), "r"), ((1, 99, 1), "ss"), ((1, 151, 1), "rr"), ((13, 15, 5), "ss"),
         ((13, 22, 5), "rs"), ((1, 16, 16, 16, 1), "srrs"), ((26, *(9,) * 9, 3), "r" + "s" * 9)],
        ids=["298-1", "1-99-1", "1-151-1", "13-15-5", "13-22-5", "1-16x3-1", "26-9x9-3"],
    )
    def test_widest_nets_match_reference(self, sizes, form):
        # one wide layer alone, or wide layers next to straight-line ones
        rng = Rng(sum(sizes))
        spec = LayerSpec(sizes[0], sizes[1:-1], sizes[-1])
        p = gauss_params(spec, rng, 0.5)
        assert layer_forms(p) == form
        kernel = nn._list_kernel(sizes)
        samples = tuple(
            Sample(tuple(rng.uniform() for _ in range(sizes[0])), rng.randrange(sizes[-1]))
            for _ in range(4)
        )
        for s in samples:
            t = [float(s.label == c) for c in range(sizes[-1])]
            acts = kernel.activations(p.flat, list(s.features))
            ref = ref_activations(p.flat, sizes, s.features)
            assert bits(acts) == bits(ref)
            assert bits(nn.final_outputs(p, s.features)) == bits(ref[-1])
            assert bits(kernel.deltas(p.flat, acts, t)) == bits(ref_deltas(p.flat, sizes, ref, t))
        data = Dataset(samples, tuple(f"f{i}" for i in range(sizes[0])),
                       tuple(str(c) for c in range(sizes[-1])))
        cfg = TrainingConfig(0.3, 1, 0, shuffle_each_epoch=False)
        trained, history = train(p, data, cfg)
        ref_flat, ref_history = ref_epochs(p.flat, sizes, samples, cfg)
        assert bits(trained.flat) == bits(ref_flat)
        assert bits(history) == bits(ref_history)

    def test_one_epoch_of_a_wide_net_matches_reference(self):
        spec = LayerSpec(13, (128,), 5)
        rng = Rng(128)
        p = gauss_params(spec, rng, 0.5)
        samples = tuple(Sample(tuple(rng.uniform() for _ in range(13)), rng.randrange(5))
                        for _ in range(12))
        data = Dataset(samples, tuple(f"f{i}" for i in range(13)), tuple("abcde"))
        cfg = TrainingConfig(0.3, 1, 7)
        trained, history = train(p, data, cfg)
        ref_flat, ref_history = ref_epochs(p.flat, spec.layer_sizes, samples, cfg)
        assert bits(trained.flat) == bits(ref_flat)
        assert bits(history) == bits(ref_history)

    @pytest.mark.parametrize("hidden", [(256,), (64,) * 3], ids=["13-256-5", "13-64x3-5"])
    def test_source_grows_with_widths_not_weights(self, hidden):
        def measure(hidden):
            sizes = (13, *hidden, 5)
            weights = sum(n_out * (n_in + 1) for n_in, n_out in zip(sizes, sizes[1:]))
            lines = [*nn._list_kernel_source(sizes).splitlines(),
                     *nn._classifier_source(sizes, True, (False,) * 13).splitlines()]
            return sum(sizes[1:]), weights, len(lines), max(map(len, lines))

        nodes, weights, lines, longest = measure(hidden)
        # about 40 lines a node in the three kernel functions and the classifier
        assert lines <= 50 * nodes
        # twice as wide: about twice the lines, three to four times the weights
        nodes2, weights2, lines2, longest2 = measure(tuple(2 * n for n in hidden))
        assert weights2 > 3.5 * weights if len(hidden) > 1 else weights2 > 1.9 * weights
        assert lines2 <= 2.05 * lines and longest2 <= 2.2 * longest
        # no line lists a wide layer's weights one by one
        assert longest < 20 * (nodes + 150)

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

    def test_one_input_width_shares_one_set_of_row_functions(self):
        nn._row_functions.cache_clear()
        for sizes in ((13, 24, 5), (13, 32, 5), (13, 16, 5)):
            nn._list_kernel(sizes)
        # 13 inputs into each first layer, 32 into 13-32-5's output layer
        assert sorted(fn for width in (13, 32) for fn in nn._row_functions(width)) == \
            ["col13", "col32", "dot13", "dot32", "upd13", "upd32"]
        assert nn._row_functions.cache_info().misses == 2

    @pytest.mark.parametrize("hidden, form",
                             [((3,), "ss"), ((12,) * 3, "ssss"), ((16,) * 3, "srrs"),
                              ((24,) * 2, "srs")],
                             ids=["2-3-2", "2-12x3-2", "2-16x3-2", "2-24x2-2"])
    def test_train_sees_the_outputs_forward_gives(self, hidden, form):
        p = random_params(LayerSpec(2, hidden, 2), 8)
        assert layer_forms(p) == form
        cfg = TrainingConfig(learning_rate=0.3, epochs=1, seed=0)
        rng = Rng(9)
        for _ in range(5):
            s = Sample((rng.uniform(), rng.uniform()), rng.randrange(2))
            target = [float(s.label == c) for c in range(2)]
            outputs = forward(p, s.features)[-1]
            assert nn.final_outputs(p, s.features) == list(outputs)
            _, history = train(p, Dataset((s,), ("x", "y"), ("a", "b")), cfg)
            assert history == [squared_error(target, outputs)]


def layer_forms(p: NetworkParameters) -> str:
    """Each weighted layer's form: "s" for straight-line code, "r" for row
    by row."""
    return "".join("r" if r else "s" for r in nn._row_form(p.spec.layer_sizes))


def manual_train(p, samples, cfg):
    """``train`` without shuffling, as forward + backprop + apply_update."""
    history = []
    for _ in range(cfg.epochs):
        total = 0.0
        for s in samples:
            target = [float(s.label == c) for c in range(p.spec.output_count)]
            total += squared_error(target, forward(p, s.features)[-1])
            p = apply_update(p, backprop(p, s.features, target), cfg.learning_rate)
        history.append(total / len(samples))
    return p, history


def assert_concurrent_calls_match_sequential(call):
    """Two threads calling ``call`` on the same 13-value inputs get the
    sequential results."""
    rng = Rng(12)
    inputs = [[rng.uniform() for _ in range(13)] for _ in range(200)]
    expected = [call(x) for x in inputs]
    results = [None, None]
    barrier = threading.Barrier(2)

    def work(slot, order):
        barrier.wait(timeout=30)
        results[slot] = [(i, call(inputs[i])) for i in order]

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


class TestListKernelThreads:
    def test_concurrent_final_outputs_match_sequential(self):
        p = random_params(LayerSpec(13, (9,), 5), 3)
        assert layer_forms(p) == "ss"
        assert_concurrent_calls_match_sequential(lambda x: nn.final_outputs(p, x))

    def test_concurrent_row_form_final_outputs_match_sequential(self):
        p = random_params(LayerSpec(13, (16,) * 3, 5), 3)
        assert layer_forms(p) == "srrs"
        assert_concurrent_calls_match_sequential(lambda x: nn.final_outputs(p, x))

    def test_concurrent_predict_class_match_sequential(self):
        p = signed_params(LayerSpec(13, (9,), 5), 3)
        taus = (0.3, 0.5, 0.7, 0.5, 0.3)
        for thresholds in (None, taus):
            # bound on every call, and bound once and shared by the threads
            for pick in (lambda x: fresh_pick(p, x, thresholds),
                         nn.bind_classifier(p, range(5), thresholds)):
                assert_concurrent_calls_match_sequential(pick)


def signed_params(spec: LayerSpec, seed: int) -> NetworkParameters:
    """Weights and biases uniform in [-2, 2), so that, unlike with
    ``init_network``'s [0, 1), the class a net picks varies with its input."""
    rng = Rng(seed)
    sizes = spec.layer_sizes
    return make_params(
        sizes,
        [[[4.0 * rng.uniform() - 2.0 for _ in range(n_in)] for _ in range(n_out)]
         for n_in, n_out in zip(sizes, sizes[1:])],
        [[4.0 * rng.uniform() - 2.0 for _ in range(n)] for n in sizes[1:]],
    )


def first_argmax(outputs):
    return max(range(len(outputs)), key=outputs.__getitem__)


def margin_choice(outputs, thresholds):
    """LCL's rule as a loop: the first largest margin o - t when positive,
    else the first largest output."""
    i, m = 0, outputs[0] - thresholds[0]
    for k in range(1, len(outputs)):
        if outputs[k] - thresholds[k] > m:
            i, m = k, outputs[k] - thresholds[k]
    if m <= 0.0:
        i = first_argmax(outputs)
    return i


def reference_class(p, x, thresholds=None):
    outputs = nn.final_outputs(p, x)
    return first_argmax(outputs) if thresholds is None else margin_choice(outputs, thresholds)


def raised(call, *args):
    with pytest.raises(Exception) as info:
        call(*args)
    return type(info.value), str(info.value)


class BoundPicker:
    """The class index of the label one classifier, bound once per net and
    thresholds and then reused, returns; checks it returns one of the label
    objects it was bound with, not a copy."""

    def __init__(self):
        self.bound = {}

    def __call__(self, p, x, thresholds=None):
        key = (id(p), thresholds)
        if key not in self.bound:
            labels = tuple(object() for _ in range(p.spec.output_count))
            self.bound[key] = (p, labels, nn.bind_classifier(p, labels, thresholds))
        _, labels, classify = self.bound[key]
        label = classify(x)
        (i,) = [k for k, each in enumerate(labels) if each is label]
        return i


def fresh_pick(p, x, thresholds=None):
    """The class index a classifier labelled by index, bound for this call
    alone, returns."""
    return nn.bind_classifier(p, range(p.spec.output_count), thresholds)(x)


def pickers():
    """A classifier bound on every call, and one bound once and reused
    across calls."""
    return (fresh_pick, BoundPicker())


def generated(classify) -> bool:
    """Whether ``classify`` is the function generated for its topology."""
    return classify.__code__.co_filename.startswith("<edgectx.nn classifier ")


def with_tied_outputs(p: NetworkParameters) -> NetworkParameters:
    """``p`` with output nodes 1 and 2 given node 1's weights and bias, so
    their outputs are equal bit for bit."""
    weights, biases = p.weights, p.biases
    last, bias = weights[-1], biases[-1]
    return NetworkParameters(p.spec, (*weights[:-1], (*last[:2], last[1], *last[3:])),
                             (*biases[:-1], (*bias[:2], bias[1], *bias[3:])))


class TestPredictClass:
    """The class classifiers from ``bind_classifier`` pick, against
    ``final_outputs`` and the choice rules written as loops."""

    def test_matches_reference_on_random_list_topologies(self):
        rng = Rng(91)
        # saturating and overflowing inputs next to ordinary ones
        extremes = (0.0, -0.0, 1e-300, 40.0, -40.0, 745.0, -745.0, 1e308, -1e308)
        for pick in pickers():
            for trial in range(60):
                hidden = tuple(1 + rng.randrange(6) for _ in range(rng.randrange(4)))
                spec = LayerSpec(1 + rng.randrange(8), hidden, 1 + rng.randrange(6))
                p = signed_params(spec, trial)
                taus = tuple(0.05 + 0.9 * rng.uniform() for _ in range(spec.output_count))
                for _ in range(20):
                    x = [extremes[rng.randrange(len(extremes))] if rng.uniform() < 0.3
                         else 4.0 * rng.uniform() - 2.0 for _ in range(spec.input_count)]
                    for thresholds in (None, taus):
                        for vec in (x, tuple(x)):
                            assert pick(p, vec, thresholds) == \
                                reference_class(p, x, thresholds), (spec, x, thresholds)
                for thresholds in (None, taus):  # the generated function ran
                    assert generated(nn.bind_classifier(p, range(spec.output_count), thresholds))

    def test_exact_output_ties_go_to_the_lowest_index(self):
        # outputs 1 and 2 identical, output 0 lower; then all three equal
        nets = [make_params([2, 3], [w0], [[0.0, 0.0, 0.0]])
                for w0 in ([[0.1, 0.2], [0.3, 0.4], [0.3, 0.4]], [[0.3, 0.4]] * 3)]
        xs = [[0.5, 0.5], [1e308, 1e308], [-1e308, -1e308], [2.0, -3.0]]
        deep = with_tied_outputs(signed_params(LayerSpec(13, (16,) * 3, 4), 5))
        assert layer_forms(deep) == "srrs"
        rng = Rng(3)
        deep_xs = [[4.0 * rng.uniform() - 2.0 for _ in range(13)] for _ in range(20)]
        for pick in pickers():
            for p, inputs in [*((net, xs) for net in nets), (deep, deep_xs)]:
                n = p.spec.output_count
                for x in inputs:
                    outputs = nn.final_outputs(p, x)
                    assert outputs[1] == outputs[2]
                    assert pick(p, x) == first_argmax(outputs)
                    for taus in ((0.5, 0.2, 0.2, 0.4), (0.9, 0.99, 0.99, 0.9),
                                 (0.1, 0.5, 0.3, 0.2)):
                        assert pick(p, x, taus[:n]) == margin_choice(outputs, taus[:n])

    @pytest.mark.parametrize("spec", [LayerSpec(3, (2,), 2), LayerSpec(3, (16,) * 3, 2)])
    def test_refuses_what_final_outputs_refuses(self, spec):
        p = random_params(spec, 4)
        inf, nan = float("inf"), float("nan")
        bad = [
            [0.1, 0.2], (0.1, 0.2, 0.3, 0.4), [],  # wrong width
            np.zeros((1, 3)), np.zeros((3, 1)),  # 2-D arrays
            [[0.1], [0.2], [0.3]], [0.1, [0.2], 0.3],  # nested lists
            5, None, 0.5,  # not iterable
            ["a", "0.2", "0.3"], "abc", (b"x", 0.2, 0.3),  # not numbers
            [nan, 0.2, 0.3], (0.1, inf, 0.3), [0.1, 0.2, -inf], ["nan", 0.2, 0.3],
            [1e308 * 10, 0.0, 0.0], [10**400, 0.0, 0.0],
            {0.1, 0.2, 0.3}, frozenset((0.1, 0.2, 0.3)),  # sets: no order
        ]
        for pick in pickers():
            for x in bad:
                expected = raised(nn.final_outputs, p, x)
                assert raised(pick, p, x) == expected, x
                assert raised(pick, p, x, (0.5, 0.5)) == expected, x
            # a one-shot iterator of the wrong width is read once, by the check
            for thresholds in (None, (0.5, 0.5)):
                assert raised(pick, p, iter([0.1, 0.2]), thresholds) == \
                    (DimensionError, "input length 2 does not match 3")

    def test_accepts_what_final_outputs_accepts(self):
        from decimal import Decimal
        from fractions import Fraction

        p = random_params(LayerSpec(3, (2,), 2), 4)
        for pick in pickers():
            for x in (["1.5", 0.2, "-3"], "123", [True, 0, 2], np.array([0.1, 0.2, 0.3]),
                      [np.float32(0.5), np.int64(2), 0.1], range(3),
                      [Decimal("0.1"), Fraction(1, 3), 2**60 + 1], (np.float32(0.1),) * 3):
                assert pick(p, x) == reference_class(p, x)
            # a one-shot iterator is read once
            assert pick(p, iter([0.5, 0.25, 2])) == reference_class(p, [0.5, 0.25, 2])

    def test_compiled_on_first_predict_apart_from_training(self):
        spec = LayerSpec(3, (4, 2), 2)  # a topology no other test compiles
        nn._classifier_kernel.cache_clear()
        data = Dataset(tuple(Sample((0.1 * i, 0.2, 0.3), i % 2) for i in range(4)),
                       ("a", "b", "c"), ("0", "1"))
        p, _ = train(random_params(spec, 1), data, TrainingConfig(epochs=2))
        assert nn._classifier_kernel.cache_info().currsize == 0
        fresh_pick(p, [0.1, 0.2, 0.3])
        assert nn._classifier_kernel.cache_info().currsize == 1
        fresh_pick(p, [0.1, 0.2, 0.3])
        fresh_pick(random_params(spec, 2), [0.1, 0.2, 0.3])
        assert nn._classifier_kernel.cache_info().misses == 1  # once per topology
        fresh_pick(p, [0.1, 0.2, 0.3], (0.5, 0.5))
        assert nn._classifier_kernel.cache_info().currsize == 2  # and choice rule

    @pytest.mark.parametrize("hidden", [(2,), (16,) * 3], ids=["lists", "rows"])
    def test_learner_labels_carry_the_class_names(self, hidden):
        from edgectx.learners import (
            ClModel, ContextLabel, ThresholdVector, adcl_predict, classifier, lcl_predict,
        )

        names = ("still", "walk", "run")
        dcl = signed_params(LayerSpec(3, hidden, 3), 8)
        cl = ClModel(signed_params(LayerSpec(3, (), 3), 9), ThresholdVector((0.3, 0.6, 0.5)))
        assert layer_forms(dcl) == ("ss" if hidden == (2,) else "srrs")
        rng = Rng(5)
        for _ in range(30):
            x = [4.0 * rng.uniform() - 2.0 for _ in range(3)]
            for predict, model, params, taus in ((adcl_predict, dcl, dcl, None),
                                                 (lcl_predict, cl, cl.params, cl.thresholds)):
                ref = reference_class(params, x, None if taus is None else taus.values)
                for given in ((), names, list(names), names[:2]):
                    label = predict(model, x, given)
                    assert label == ContextLabel(ref, given[ref] if ref < len(given) else "")
                    # one label object per class
                    assert label is classifier(params, taus, given)(x)
        # one classifier per thresholds and names, kept on the network
        given = ((), names, names[:2])
        assert set(dcl._classifiers) == {(None, g, None) for g in given}
        assert set(cl.params._classifiers) == {(cl.thresholds.values, g, None) for g in given}


class TestTrain:
    @pytest.mark.parametrize(
        "hidden, form",
        [((), "s"), ((3,), "ss"), ((3, 3), "sss"), ((12,) * 3, "ssss"),
         ((12,) * 6, "sssssss"), ((16,) * 3, "srrs"), ((16,) * 6, "srrrrrs"),
         ((24,) * 2, "srs"), ((24,) * 4, "srrrs"), ((80,) * 2, "srr"), ((160,) * 2, "rrr")],
        ids=["2-2", "2-3-2", "2-3-3-2", "2-12x3-2", "2-12x6-2", "2-16x3-2", "2-16x6-2",
             "2-24x2-2", "2-24x4-2", "2-80x2-2", "2-160x2-2"],
    )
    def test_equals_backprop_then_apply_update(self, hidden, form):
        samples = (Sample((0.2, 0.7), 1), Sample((0.9, 0.1), 0), Sample((0.5, 0.4), 1))
        data = Dataset(samples, ("x", "y"), ("a", "b"))
        p = random_params(LayerSpec(2, hidden, 2), 77)
        assert layer_forms(p) == form
        cfg = TrainingConfig(learning_rate=0.3, epochs=2, seed=0, shuffle_each_epoch=False)
        trained, history = train(p, data, cfg)
        manual, manual_history = manual_train(p, samples, cfg)

        assert history == manual_history
        assert same_params(trained, manual)
        assert trained.trained_epochs == 2

    def test_saturating_row_net_equals_backprop_then_apply_update(self):
        rng = Rng(31)
        spec = LayerSpec(2, (24, 24), 2)
        sizes = spec.layer_sizes
        weights = [
            [[rng.gauss(0, 1000) for _ in range(sizes[l])] for _ in range(sizes[l + 1])]
            for l in range(len(sizes) - 1)
        ]
        biases = [[rng.gauss(0, 1000) for _ in range(n)] for n in sizes[1:]]
        p = NetworkParameters(spec, weights, biases)
        assert layer_forms(p) == "srs"
        samples = tuple(Sample((rng.uniform(), rng.uniform()), i % 2) for i in range(6))
        # net inputs beyond about -745 and +37 round to 0 and 1: both clips
        outputs = [a for s in samples for layer in forward(p, s.features) for a in layer]
        assert nn._SIG_LO in outputs and nn._SIG_HI in outputs

        cfg = TrainingConfig(learning_rate=0.6, epochs=2, seed=0, shuffle_each_epoch=False)
        trained, history = train(p, Dataset(samples, ("x", "y"), ("a", "b")), cfg)
        manual, manual_history = manual_train(p, samples, cfg)
        assert history == manual_history
        assert same_params(trained, manual)

    @pytest.mark.parametrize("hidden, form",
                             [((3,), "ss"), ((12,) * 3, "ssss"), ((16,) * 3, "srrs"),
                              ((24,) * 2, "srs")],
                             ids=["2-3-2", "2-12x3-2", "2-16x3-2", "2-24x2-2"])
    def test_leaves_params_alone_and_returns_fresh_arrays(self, hidden, form):
        p = random_params(LayerSpec(2, hidden, 2), 5)
        assert layer_forms(p) == form
        before = bits(p.flat)
        data = two_cluster_data(20)
        cfg = TrainingConfig(0.3, 3, 5)
        a, ha = train(p, data, cfg)
        b, hb = train(p, data, cfg)
        assert bits(p.flat) == before
        assert ha == hb
        assert same_params(a, b)
        # each snapshot holds its own immutable tuple
        assert type(a.flat) is tuple and a.flat is not b.flat

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
            int(np.argmax(forward(trained, s.features)[-1])) == s.label
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
        assert same_params(a, b)

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
