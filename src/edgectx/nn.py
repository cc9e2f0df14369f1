"""Feedforward sigmoid network trained by per-sample gradient descent.

Every node computes net = bias + sum(weight_k * input_k), passes it through
the logistic function, and feeds the next layer. Training minimizes the
summed squared error 0.5 * sum((actual - output)^2) with the update
w <- w - learning_rate * dE/dw applied after each sample.

A network's parameters are stored as one flat tuple of floats: each layer's
weight rows, then its biases. Every view of them is tuples of floats:
``weights`` and ``biases`` slice the flat tuple by layer and row,
``forward`` returns each layer's outputs, ``backprop`` returns gradients
in the flat tuple's order and ``apply_update`` steps the flat tuple. The
package imports nothing outside the standard library.

One kernel computes the math: straight-line Python generated once per
topology from the layer sizes, one function for a forward pass, one for
the deltas and one for a whole SGD epoch, each reading the parameters
from that flat tuple, so a sample of a net of small layers costs no
Python call. A layer of more than ``_ROW_FORM_WEIGHTS`` (150) weights
and biases whose rows take ``_ROW_FORM_WIDTH`` (16) inputs or more, and
any layer of more than twice that many, is not written out weight by
weight: it runs row by row, one call per row into three functions
generated once per input width (``_row_functions``), a dot product, the
column sum a hidden delta needs and a row's update. They do the same
float operations in the same order as the straight-line code, so a
net's bits do not depend on which form runs a layer, and a kernel's
source grows with the layer widths, not with the weight count.
``forward``, ``final_outputs``, ``backprop``, ``train`` and the
classifiers all run the one kernel, so they agree bit for bit on any net.

A fourth function, compiled apart when a net's first classifier is bound
(``bind_classifier``), takes the parameters, the labels and LCL's
thresholds once per net and returns one function that checks an input,
runs the same forward pass and returns the label of the class it picks.
An input it refuses is checked as ``final_outputs`` checks it, which
raises what it always raised, and the checked list of floats, which the
function never refuses, goes through it again. A prediction is one call
into that function, so one that arrives with cold caches walks little
code: on a 2-core VM (Python 3.11), with a 1.5 ms sleep before each
call, a 13-9-5 ADCL prediction took about 41 us and a 13-5 LCL one
31 us, against 52 and 43 us when a generated function returned the
class index and a cached lookup its label; in a tight loop 7.3 and
3.7 us, against 8.1 and 4.4. Bound
with the min-max ranges of a fitted ``Dataset.normalization``, the same
function first scales raw features (``_minmax_lines``, the ranges
bound as closure variables, one compile per topology, choice rule and
constant-feature mask), so a k-fold predictor is one call from raw
features to label. On ``heart_like(42)``, 6-epoch nets, 13-9x1-5 and
13-9x9-5 ADCL took about 24 and 65 us cold against 49 and 92 through
``apply_minmax_vector`` and ``adcl_predict``, and 8.4 and 29 us warm
against 16.6 and 34; the scaling adds about 0.2 us to the unscaled
classifier's call.
"""

from __future__ import annotations

import math
from collections.abc import Set as AbstractSet
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple

from .data import Dataset, apply_minmax_vector
from .rng import Rng


class DimensionError(ValueError):
    """Vector width does not match the network topology."""


# sigmoid saturates to the nearest representable doubles inside (0, 1)
# instead of returning exactly 0 or 1 at extreme inputs.
_SIG_LO = math.nextafter(0.0, 1.0)
_SIG_HI = math.nextafter(1.0, 0.0)

# A layer with more weights and biases than this runs row by row
# (``_row_functions``) if its rows take at least ``_ROW_FORM_WIDTH``
# inputs, and whatever their width past twice this. The row form pays a
# call a row, a larger share of a narrow row's work, so narrow rows stay
# straight-line longer: 13-12x9-5 (layers of 156 and 168) trains about a
# quarter faster straight-line than row by row. Straight-line code costs
# 30-60 us a weight to compile, so the rule bounds a straight-line layer's
# compile to 9-18 ms (a 14-20 layer, 300 weights and biases, took 8 ms on
# a 2-core x86-64 VM, Python 3.11); every layer the benchmark's workloads
# train has at most 126.
_ROW_FORM_WEIGHTS = 150
_ROW_FORM_WIDTH = 16


@dataclass(frozen=True)
class LayerSpec:
    """Topology: input width, hidden-layer widths (may be empty for the
    single-layer model), output width."""

    input_count: int
    hidden_sizes: tuple[int, ...]
    output_count: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "hidden_sizes", tuple(self.hidden_sizes))
        sizes = (self.input_count, *self.hidden_sizes, self.output_count)
        # a bool is an int, but True is no layer width
        if any(type(s) is bool or not isinstance(s, int) or s < 1 for s in sizes):
            raise ValueError(f"all layer sizes must be positive integers, got {sizes}")

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return (self.input_count, *self.hidden_sizes, self.output_count)


@dataclass(frozen=True, init=False)
class NetworkParameters:
    """Complete weight/bias snapshot; the unit shipped server to client.

    ``flat`` holds every parameter as one tuple of floats: per layer, its
    weight rows, then its biases. ``weights[l][j]`` (row j of layer l, one
    weight per input) and ``biases[l]`` are tuples sliced from it. Built
    from nested ``weights`` and ``biases`` or from ``flat``; layers given
    with ``flat`` replace the ones it holds, so ``dataclasses.replace``
    takes either. Snapshots compare by value.
    """

    spec: LayerSpec
    flat: tuple[float, ...]
    activation: str = "sigmoid"
    version: int = 0
    trained_epochs: int = 0

    def __init__(self, spec: LayerSpec, weights=None, biases=None,
                 activation: str = "sigmoid", version: int = 0, trained_epochs: int = 0,
                 *, flat=None) -> None:
        if activation != "sigmoid":
            raise ValueError(f"unsupported activation {activation!r}")
        if version < 0 or trained_epochs < 0:
            raise ValueError("version and trained_epochs must be non-negative")
        sizes = spec.layer_sizes
        if weights is not None or biases is not None:
            # the layers not given are the ones ``flat`` holds
            held_w, held_b = _layer_views(() if flat is None else tuple(flat), sizes)
            flat = _flattened(held_w if weights is None else weights,
                              held_b if biases is None else biases, sizes)
        elif flat is None:
            raise TypeError("NetworkParameters needs weights and biases, or flat")
        flat = tuple(map(float, flat))
        count = sum(n_out * (n_in + 1) for n_in, n_out in zip(sizes, sizes[1:]))
        if len(flat) != count:
            raise DimensionError(f"{len(flat)} parameters do not match spec ({count})")
        if not all(map(math.isfinite, flat)):
            raise ValueError("network contains non-finite parameters")
        # ``_classifiers`` keeps classifiers bound to this net
        # (``bind_classifier``), each under a key of whoever bound it
        vars(self).update(spec=spec, flat=flat, activation=activation, version=version,
                          trained_epochs=trained_epochs, _classifiers={})

    @property
    def weight_count(self) -> int:
        return len(self.flat)

    @property
    def weights(self) -> tuple[tuple[tuple[float, ...], ...], ...]:
        return _layer_views(self.flat, self.spec.layer_sizes)[0]

    @property
    def biases(self) -> tuple[tuple[float, ...], ...]:
        return _layer_views(self.flat, self.spec.layer_sizes)[1]

    @cached_property
    def _list_fns(self) -> _ListKernel:
        """The compiled kernel of this topology."""
        return _list_kernel(self.spec.layer_sizes)


def _flattened(weights, biases, sizes) -> list:
    """Per-layer ``weights`` and ``biases`` of ``sizes``, nested sequences
    (numpy arrays among them), as one list in the order of ``flat``."""
    if len(weights) != len(sizes) - 1 or len(biases) != len(sizes) - 1:
        raise DimensionError("layer count does not match spec")
    flat: list = []
    for l, (w, b) in enumerate(zip(weights, biases)):
        try:
            fits = len(w) == len(b) == sizes[l + 1] and all(len(r) == sizes[l] for r in w)
        except TypeError:  # a number where a row or a layer belongs
            fits = False
        if not fits:
            raise DimensionError(f"layer {l} shapes do not match spec ({sizes[l + 1]}, {sizes[l]})")
        for row in w:
            flat.extend(row)
        flat.extend(b)
    if any(hasattr(v, "__len__") for v in flat):
        raise DimensionError("parameters nest deeper than the spec's layers")
    return flat


@dataclass(frozen=True)
class TrainingConfig:
    learning_rate: float = 0.3
    epochs: int = 100
    seed: int = 0
    shuffle_each_epoch: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")


def sigmoid(x: float) -> float:
    """Logistic activation 1 / (1 + exp(-x)) of a real number.

    A finite input never produces NaN, and the result saturates just inside
    (0, 1) at the extremes. It is the output of the generated kernel's 1-1
    net with weight 1 and bias 0, whose net input is exactly x, so it is
    the value any network's node computes.
    """
    return _list_kernel((1, 1)).activations((1.0, 0.0), [float(x)])[1][0]


def hidden_size_default(input_count: int, output_count: int) -> int:
    """Default hidden-layer width: floor of the mean of input and output
    widths, at least 1."""
    if input_count < 1 or output_count < 1:
        raise ValueError("layer widths must be positive")
    return max(1, (input_count + output_count) // 2)


def init_network(spec: LayerSpec, seed: int) -> NetworkParameters:
    """Fresh parameters with every weight and bias uniform in [0, 1).

    Draw order is fixed (per layer: weight rows in order, then biases), so a
    given (spec, seed) yields the same model on any platform.
    """
    rng = Rng(seed)
    sizes = spec.layer_sizes
    count = sum(n_out * (n_in + 1) for n_in, n_out in zip(sizes, sizes[1:]))
    return NetworkParameters(spec, flat=[rng.uniform() for _ in range(count)])


def forward(params: NetworkParameters, features) -> tuple[tuple[float, ...], ...]:
    """Propagate one feature vector through every layer: each computed
    layer's outputs, the class scores last; the input is not included."""
    acts = params._list_fns.activations(params.flat, _check_input(params, features))
    return tuple(map(tuple, acts[1:]))


def final_outputs(params: NetworkParameters, features) -> list[float]:
    """The class scores ``forward(params, features)[-1]`` holds, as a
    list, without building the other layers' tuples."""
    return params._list_fns.activations(params.flat, _check_input(params, features))[-1]


def dataset_outputs(params: NetworkParameters, data: Dataset) -> list[list[float]]:
    """``final_outputs`` of every sample of ``data``, in order. A Dataset's
    rows were checked when it was built, so only its width is checked here."""
    if data.n_features != params.spec.input_count:
        raise DimensionError(
            f"dataset width {data.n_features} does not match input count "
            f"{params.spec.input_count}"
        )
    activations = params._list_fns.activations
    return [activations(params.flat, s.features)[-1] for s in data.samples]


def squared_error(actual, predicted) -> float:
    """Summed squared error 0.5 * sum((actual - predicted)^2), the squares
    added in order from the first, as ``train`` adds a sample's loss."""
    a, o = list(actual), list(predicted)
    if len(a) != len(o):
        raise DimensionError(f"length mismatch: {len(a)} vs {len(o)}")
    total = 0.0
    for t, y in zip(a, o):
        e = float(t) - float(y)
        total += e * e
    return 0.5 * total


def backprop(params: NetworkParameters, features, target) -> tuple[float, ...]:
    """Exact gradients of the squared error for one (input, target) pair,
    one per parameter in the order of ``params.flat``: per layer, each
    row's d_j * a_k, then the deltas d_j, the bias gradients.

    Output-layer delta is (output - actual) * output * (1 - output); hidden
    deltas chain back through the transposed weights. Does not mutate
    ``params``.
    """
    x = _check_input(params, features)
    t = _vector(target, params.spec.output_count, "target")
    if not all(0.0 <= v <= 1.0 for v in t):
        raise ValueError("targets must lie in [0, 1]")
    acts = params._list_fns.activations(params.flat, x)
    grads: list[float] = []
    for d, a in zip(params._list_fns.deltas(params.flat, acts, t), acts):
        grads += [dj * ak for dj in d for ak in a]
        grads += d
    return tuple(grads)


def _layer_views(flat: tuple[float, ...], sizes) -> tuple[tuple, tuple]:
    """Per-layer weights and biases of a flat tuple that holds each layer's
    weight rows followed by its biases: slices of it, one per row."""
    weights, biases, at = [], [], 0
    for n_in, n_out in zip(sizes, sizes[1:]):
        weights.append(tuple(flat[k:k + n_in] for k in range(at, at + n_out * n_in, n_in)))
        at += n_out * n_in
        biases.append(flat[at:at + n_out])
        at += n_out
    return tuple(weights), tuple(biases)


class _ListKernel(NamedTuple):
    """Generated Python for one topology, all reading the flat parameter
    tuple ``NetworkParameters.flat``.

    ``activations(p, x)`` returns the input and each layer's output;
    ``deltas(p, acts, t)`` returns dE/dnet of each layer, so dE/dw of layer
    l is outer(deltas[l], acts[l]); ``epoch(p, features, targets, order,
    lr)`` runs one SGD update per index in ``order`` on the list ``p`` and
    returns the summed per-sample loss.
    """

    activations: Callable
    deltas: Callable
    epoch: Callable


@lru_cache(maxsize=64)
def _list_kernel(sizes: tuple[int, ...]) -> _ListKernel:
    """The kernel for ``sizes``, generated once per topology; every
    network of that topology shares it. The source is built from the layer
    sizes alone, and the parameters, inputs and targets arrive as arguments,
    so no value a caller supplies is ever compiled."""
    namespace = _compiled(_list_kernel_source(sizes), "list kernel", sizes)
    return _ListKernel(*(namespace[f] for f in _ListKernel._fields))


def _row_form(sizes) -> list[bool]:
    """For each weighted layer of ``sizes``, whether it runs row by row."""
    return [n_out * (n_in + 1) > (_ROW_FORM_WEIGHTS if n_in >= _ROW_FORM_WIDTH
                                  else 2 * _ROW_FORM_WEIGHTS)
            for n_in, n_out in zip(sizes, sizes[1:])]


@lru_cache(maxsize=64)
def _row_functions(n: int) -> dict[str, Callable]:
    """The functions a layer of ``n`` inputs that runs row by row calls,
    under the names the generated code gives them: ``dot<n>(b, w, x)``,
    the net input b + w0*x0 + w1*x1 + ..., folded left from the bias;
    ``col<n>(c, w, d)``, each c_k + w_k*d, which adds a row to the column
    sums of a hidden delta; and ``upd<n>(w, d, x, lr)``, each
    w_k - lr * (d * x_k). These are the operations of the straight-line
    code, in its order, and no ``sum``, which Python 3.12 compensates."""
    w, x, c = ([f"{v}{k}" for k in range(n)] for v in "wxc")
    source = "\n".join([
        "def dot(b, w, x):",
        *_indent([_unpack(w, "w"), _unpack(x, "x")], 1),
        f"    return {' + '.join(('b', *(f'{wk} * {xk}' for wk, xk in zip(w, x))))}",
        "",
        "def col(c, w, d):",
        *_indent([_unpack(c, "c"), _unpack(w, "w")], 1),
        f"    return ({', '.join(f'{ck} + {wk} * d' for ck, wk in zip(c, w))},)",
        "",
        "def upd(w, d, x, lr):",
        *_indent([_unpack(w, "w"), _unpack(x, "x")], 1),
        f"    return ({', '.join(f'{wk} - lr * (d * {xk})' for wk, xk in zip(w, x))},)",
        "",
    ])
    namespace = _compiled(source, "row functions", (n,))
    return {f"{f}{n}": namespace[f] for f in ("dot", "col", "upd")}


def _list_kernel_source(sizes) -> str:
    """Python source of the three ``_ListKernel`` functions for ``sizes``.

    The arithmetic is ``apply_update``'s, one operation at a time in a fixed
    order, which keeps a topology's result bits the same on every run:
    the forward pass is the one ``_forward_lines`` writes; each hidden
    delta sum starts from zero, so a -0.0 sum reads 0.0; and every delta is
    taken before any update p -= lr * (delta * input). A layer that runs
    row by row adds a row of the next layer to its delta sums with one
    ``col<n>`` call, and updates a row with one ``upd<n>`` call.
    """
    sizes = [int(n) for n in sizes]
    rows = _row_form(sizes)
    weights, biases, load, store, acts, forward = _forward_lines(sizes)
    deltas = [None, *([f"d{l}_{j}" for j in range(n)] for l, n in enumerate(sizes) if l)]
    targets = [f"t{j}" for j in range(sizes[-1])]

    def listed(names):
        return f"[{', '.join(names)}]"

    backward = [f"{d} = ({a} - {t}) * {a} * (1.0 - {a})"
                for d, a, t in zip(deltas[-1], acts[-1], targets)]
    for l in range(len(sizes) - 2, 0, -1):
        if rows[l]:
            sums = [f"c{k}" for k in range(sizes[l])]
            backward.append(f"c = (0.0,) * {sizes[l]}")
            backward += [f"c = col{sizes[l]}(c, {w}, {dn})"
                         for w, dn in zip(weights[l], deltas[l + 1])]
            backward.append(_unpack(sums, "c"))
            backward += [f"{d} = {c} * {a} * (1.0 - {a})"
                         for d, a, c in zip(deltas[l], acts[l], sums)]
            continue
        for k, (d, a) in enumerate(zip(deltas[l], acts[l])):
            terms = (f"{row[k]} * {dn}" for row, dn in zip(weights[l], deltas[l + 1]))
            backward.append(f"{d} = ({' + '.join(('0.0', *terms))}) * {a} * (1.0 - {a})")
    update = []
    for l in range(1, len(sizes)):
        for j, d in enumerate(deltas[l]):
            if rows[l - 1]:
                w = weights[l - 1][j]
                update.append(f"{w} = upd{sizes[l - 1]}({w}, {d}, v{l - 1}, lr)")
            else:
                update += [f"{w} -= lr * ({d} * {x})"
                           for w, x in zip(weights[l - 1][j], acts[l - 1])]
            update.append(f"{biases[l - 1][j]} -= lr * {d}")
    # each sample's loss sums the squared errors from the first: a square
    # is never -0.0, so starting from 0.0 would not change a bit
    errors = [f"e{j}" for j in range(sizes[-1])]
    loss = [f"{e} = {t} - {a}" for e, t, a in zip(errors, targets, acts[-1])]
    loss.append(f"total += 0.5 * ({' + '.join(f'{e} * {e}' for e in errors)})")

    return "\n".join([
        "def activations(p, x):",
        *_indent([*load, _unpack(acts[0], "x"), *forward], 1),
        f"    return [x, {', '.join(listed(a) for a in acts[1:])}]",
        "",
        "def deltas(p, acts, t):",
        *_indent([*load, _unpack(targets, "t")], 1),
        *_indent([_unpack(acts[l], f"acts[{l}]") for l in range(1, len(sizes))], 1),
        *_indent(backward, 1),
        f"    return [{', '.join(listed(d) for d in deltas[1:])}]",
        "",
        "def epoch(p, features, targets, order, lr):",
        *_indent([*load, "total = 0.0", "for i in order:"], 1),
        *_indent([_unpack(acts[0], "features[i]"), _unpack(targets, "targets[i]"), *forward,
                  *loss, *backward, *update], 2),
        f"    p[:] = {store}",
        "    return total",
        "",
    ])


def _forward_lines(sizes: list[int]):
    """The names the generated functions give the parameters and
    activations of ``sizes``, and the lines of one forward pass.

    Returns (weights, biases, load, store, acts, forward):
    ``weights[l][j][k]`` and ``biases[l][j]`` name entries of the flat
    parameter sequence, except that ``weights[l][j]`` names row j of a
    layer that runs row by row (``_row_form``), a sequence of its weights;
    ``load`` are the lines that read all these names from the flat
    parameters ``p`` and ``store`` is a list display of every parameter in
    flat order; ``acts[l][j]`` names node j's output of layer l (layer 0
    is the input), and ``forward`` computes every ``acts[l]`` from
    ``acts[0]``. Each net input folds left from the bias,
    b + w0*a0 + w1*a1 + ..., written out or, for a layer that runs row by
    row, as ``dot<n>(b, row, v)`` on the tuple ``v<l>`` of the layer's
    inputs; the sigmoid is 1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z)
    below, clipped to (``_SIG_LO``, ``_SIG_HI``), written as literals: a
    constant loads faster than a global.
    """
    rows = _row_form(sizes)
    at, weights, biases, load, stored = 0, [], [], [], []
    for l, (n_in, n_out) in enumerate(zip(sizes, sizes[1:]), start=1):
        if rows[l - 1]:
            weights.append([f"w{l}_{j}" for j in range(n_out)])
            load += [f"{w} = p[{at + j * n_in}:{at + (j + 1) * n_in}]"
                     for j, w in enumerate(weights[-1])]
            stored += [f"*{w}" for w in weights[-1]]
            scalars = []
        else:
            weights.append([[f"p{at + j * n_in + k}" for k in range(n_in)] for j in range(n_out)])
            scalars = [w for row in weights[-1] for w in row]
        at += n_out * n_in
        biases.append([f"p{at + j}" for j in range(n_out)])
        at += n_out
        scalars += biases[-1]
        load.append(_unpack(scalars, f"p[{at - len(scalars)}:{at}]"))
        stored += scalars
    if not any(rows):
        load = [_unpack(stored, "p")]
    acts = [[f"a{l}_{j}" for j in range(n)] for l, n in enumerate(sizes)]
    forward, lo, hi = [], repr(_SIG_LO), repr(_SIG_HI)
    for l in range(1, len(sizes)):
        if rows[l - 1]:
            forward.append(f"v{l - 1} = ({', '.join(acts[l - 1])},)")
        for j, a in enumerate(acts[l]):
            if rows[l - 1]:
                z = f"dot{sizes[l - 1]}({biases[l - 1][j]}, {weights[l - 1][j]}, v{l - 1})"
            else:
                z = " + ".join((biases[l - 1][j], *(f"{w} * {x}" for w, x in
                                                    zip(weights[l - 1][j], acts[l - 1]))))
            forward += [
                f"z = {z}",
                "if z >= 0.0:",
                f"    {a} = 1.0 / (1.0 + exp(-z))",
                f"    if {a} > {hi}:",
                f"        {a} = {hi}",
                "else:",
                f"    {a} = exp(z)",
                f"    {a} = {a} / (1.0 + {a})",
                f"    if {a} < {lo}:",
                f"        {a} = {lo}",
            ]
    return weights, biases, load, f"[{', '.join(stored)}]", acts, forward


def _choice_lines(outs: list[str], margins: bool) -> list[str]:
    """Lines that set ``i`` to the class the outputs named ``outs`` pick.

    Without ``margins``: the first largest output, the index
    ``max(range(n), key=outputs.__getitem__)`` gives. With them, LCL's rule
    over thresholds named ``t0``, ``t1``, ...: the first largest margin
    o - t when it is positive, else the first largest output. A list of
    margins and two argmax calls would cost more than the hidden layer the
    single-layer LCL saves over ADCL on a 2-2-2 net.
    """
    def first_largest(values):
        lines = [f"i, m = 0, {values[0]}"]
        for k, v in enumerate(values[1:], start=1):
            lines += [f"if {v} > m:", f"    i, m = {k}, {v}"]
        return lines

    if not margins:
        return first_largest(outs)
    return [*first_largest([f"{o} - t{k}" for k, o in enumerate(outs)]),
            "if m <= 0.0:", *_indent(first_largest(outs), 1)]


def _minmax_ranges(
    normalization: tuple[tuple[float, float], ...],
) -> tuple[tuple[bool, ...], tuple[float, ...]]:
    """(constant, bounds) of ``normalization`` for ``_minmax_lines``:
    whether each feature is constant, and lo, hi - lo of each other feature
    in order, the values its ``lo<j>, r<j>`` names take."""
    constant = tuple(hi <= lo for lo, hi in normalization)
    bounds = tuple(v for (lo, hi), c in zip(normalization, constant) if not c
                   for v in (lo, hi - lo))
    return constant, bounds


def _minmax_lines(names: list[str], constant: tuple[bool, ...]) -> tuple[list[str], list[str]]:
    """(bound names, lines): lines that min-max scale the value held in each
    of ``names`` in place, as ``apply_minmax_vector`` does, reading the
    bounds ``_minmax_ranges`` gives, in the order of the bound names.

    A constant feature becomes 0.0 without being read. Any other becomes
    y = (v - lo) / r, then 0.0 unless y > 0.0, else 1.0 unless y < 1.0:
    the value ``min(1.0, max(0.0, y))`` takes bit for bit, -0.0, NaN and
    +-inf included. A value the arithmetic refuses raises what it raises
    there.
    """
    bounds, lines = [], []
    for j, (v, c) in enumerate(zip(names, constant)):
        if c:
            lines.append(f"{v} = 0.0")
            continue
        bounds += [f"lo{j}", f"r{j}"]
        lines += [f"{v} = ({v} - lo{j}) / r{j}",
                  f"if not {v} > 0.0:", f"    {v} = 0.0",
                  f"elif not {v} < 1.0:", f"    {v} = 1.0"]
    return bounds, lines


def _classifier_source(sizes, margins: bool, constant: tuple[bool, ...] | None) -> str:
    """Python source of ``bind(p, t, s, labels, fallback)`` for ``sizes``.

    ``bind`` unpacks the parameters ``p`` and, with ``margins``, the
    thresholds ``t`` once, and returns ``predict(x)``: a tuple or list ``x``
    through the forward pass to ``labels[i]`` of the class
    ``_choice_lines`` picks. Without ``constant``, ``x`` is read as floats
    and refused when any is not finite. With it (one flag per input),
    ``x`` is first min-max scaled by ``_minmax_lines``, reading the bounds
    ``s`` unpacked once, and each scaled value, which lies in [0, 1], is
    read as a float. Any other ``x``, and any the scaling or the reading
    refuses, goes to ``fallback(x)``.
    """
    sizes = [int(n) for n in sizes]
    _, _, load, _, acts, forward = _forward_lines(sizes)
    x = acts[0]
    thresholds = [f"t{k}" for k in range(sizes[-1])]
    as_floats = [f"{a} = float({a})" for a in x]
    if constant is None:
        bounds = []
        # x - x is 0.0 for every finite x and NaN for NaN and +-inf
        finite = " + ".join(f"({a} - {a})" for a in x)
        read = ["try:", *_indent([_unpack(x, "x"), *as_floats], 1),
                "except (TypeError, ValueError):", "    return fallback(x)",
                f"if {finite} != 0.0:", "    return fallback(x)"]
    else:
        bounds, scaling = _minmax_lines(x, constant)
        # the fallback raises what the reference raises; anything else the
        # arithmetic raises, it raises on the same value
        read = ["try:", *_indent([_unpack(x, "x"), *scaling, *as_floats], 1),
                "except (TypeError, ValueError, ArithmeticError):", "    return fallback(x)"]
    return "\n".join([
        "def bind(p, t, s, labels, fallback):",
        *_indent([*load, *([_unpack(thresholds, "t")] if margins else []),
                  *([_unpack(bounds, "s")] if bounds else []), "def predict(x):"], 1),
        *_indent([
            "if type(x) is not tuple and type(x) is not list:",
            "    return fallback(x)",
            *read, *forward, *_choice_lines(acts[-1], margins), "return labels[i]"], 2),
        "    return predict",
        "",
    ])


@lru_cache(maxsize=128)
def _classifier_kernel(sizes: tuple[int, ...], margins: bool,
                       constant: tuple[bool, ...] | None = None) -> Callable:
    """The generated ``bind`` for ``sizes``, compiled once per topology,
    choice rule and constant-feature mask on the first classifier bound,
    apart from the training kernel."""
    return _compiled(_classifier_source(sizes, margins, constant), "classifier", sizes)["bind"]


def bind_classifier(params: NetworkParameters, labels, thresholds=None,
                    normalization=None) -> Callable:
    """``classify(features)``: ``labels[i]`` of the class
    ``final_outputs(params, features)`` picks, the first largest output,
    or with ``thresholds`` (one per output) the first largest positive
    margin output - threshold, else the first largest output.

    With ``normalization``, the (min, max) range of each input that
    ``Dataset.normalization`` holds, ``features`` are first scaled as
    ``apply_minmax_vector(tuple(features), normalization)`` scales them.

    A tuple or list of features runs one function generated per topology,
    choice rule and constant-feature mask, with the parameters, thresholds
    and ranges bound when this is called. Any other input, and any input
    that function refuses (a wrong width among them), go through the
    reference: without ``normalization``, the check ``final_outputs``
    makes, and then that function on the checked list; with it,
    ``apply_minmax_vector`` and then the classifier bound without it.
    Either way it raises what the reference raises, and the class is the
    same. A set is refused, since its features have no order.
    """
    if normalization is None:
        bounds = constant = None

        def fallback(features):
            return predict(_check_input(params, features))
    else:
        constant, bounds = _minmax_ranges(normalization)

        # bound on the first fallback: most classifiers never need it
        @lru_cache(maxsize=None)
        def unscaled():
            return bind_classifier(params, labels, thresholds)

        def fallback(features):
            features = tuple(_ordered(features, "input"))
            return unscaled()(apply_minmax_vector(features, normalization))

        if len(constant) != params.spec.input_count:
            return fallback
    bind = _classifier_kernel(params.spec.layer_sizes, thresholds is not None, constant)
    # the unscaled fallback hands the list it checked back to ``predict``
    predict = bind(params.flat, thresholds, bounds, labels, fallback)
    return predict


def _unpack(names, value) -> str:
    return f"{', '.join(names)}, = {value}"


def _indent(lines, depth: int) -> list[str]:
    return [" " * (4 * depth) + line for line in lines]


def _compiled(source: str, what: str, sizes) -> dict:
    """The namespace ``source``, generated for ``sizes``, defines its
    functions in, which holds the row functions its layers call."""
    namespace = {"exp": math.exp}
    for n_in, row in zip(sizes, _row_form(sizes)):
        if row:
            namespace.update(_row_functions(n_in))
    name = "-".join(str(int(n)) for n in sizes)
    exec(compile(source, f"<edgectx.nn {what} {name}>", "exec"), namespace)
    return namespace


def apply_update(params: NetworkParameters, grads, learning_rate: float) -> NetworkParameters:
    """One gradient-descent step: each parameter y of ``params.flat``
    becomes y - learning_rate * g, g its gradient in ``grads`` (in
    ``backprop``'s order). Version bookkeeping is left to the sync layer."""
    if learning_rate <= 0.0:
        raise ValueError("learning_rate must be positive")
    g = _vector(grads, len(params.flat), "gradient")
    if not all(map(math.isfinite, g)):
        raise ValueError("non-finite gradient")
    return replace(params, flat=[y - learning_rate * gy for y, gy in zip(params.flat, g)])


def train(
    params: NetworkParameters, data: Dataset, cfg: TrainingConfig
) -> tuple[NetworkParameters, list[float]]:
    """Per-sample stochastic gradient descent over ``cfg.epochs`` passes.

    Targets are one-hot class encodings. Returns the trained snapshot (with
    trained_epochs advanced) and the mean per-sample loss of each epoch,
    measured on the forward pass that produced each update. Deterministic
    for a fixed (params, data, cfg).
    """
    if not data.samples:
        raise ValueError("cannot train on an empty dataset")
    if data.n_features != params.spec.input_count:
        raise DimensionError(
            f"dataset width {data.n_features} does not match input count "
            f"{params.spec.input_count}"
        )
    if data.n_classes > params.spec.output_count:
        raise DimensionError(
            f"{data.n_classes} classes do not fit {params.spec.output_count} outputs"
        )

    classes = range(params.spec.output_count)
    one_hot = [[float(c == k) for c in classes] for k in classes]
    targets = [one_hot[s.label] for s in data.samples]
    theta, epoch = list(params.flat), params._list_fns.epoch
    features = [s.features for s in data.samples]
    lr = cfg.learning_rate
    rng = Rng(cfg.seed)
    order = list(range(len(data.samples)))
    loss_history: list[float] = []

    for _ in range(cfg.epochs):
        if cfg.shuffle_each_epoch:
            rng.shuffle(order)
        loss_history.append(epoch(theta, features, targets, order, lr) / len(order))

    trained = replace(params, flat=theta, trained_epochs=params.trained_epochs + cfg.epochs)
    return trained, loss_history


def _ordered(values, what: str):
    """``values``, refused when they are a set, whose order is not defined."""
    if isinstance(values, AbstractSet):
        raise DimensionError(f"{what} is a set, which has no order")
    return values


def _vector(values, width: int, what: str) -> list[float]:
    """``values`` as a list of exactly ``width`` floats."""
    # an array of other than one dimension iterates as rows, not numbers
    if getattr(values, "ndim", 1) != 1:
        raise DimensionError(f"{what} shape {values.shape} is not a vector")
    try:
        vec = [float(v) for v in _ordered(values, what)]
    except TypeError as exc:
        raise DimensionError(f"{what} is not a flat vector: {exc}") from None
    if len(vec) != width:
        raise DimensionError(f"{what} length {len(vec)} does not match {width}")
    return vec


def _check_input(params: NetworkParameters, features) -> list[float]:
    x = _vector(features, params.spec.input_count, "input")
    if not all(map(math.isfinite, x)):
        raise ValueError("input contains non-finite values")
    return x
