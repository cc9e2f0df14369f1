"""Feedforward sigmoid network trained by per-sample gradient descent.

Every node computes net = bias + sum(weight_k * input_k), passes it through
the logistic function, and feeds the next layer. Training minimizes the
summed squared error 0.5 * sum((actual - output)^2) with the update
w <- w - learning_rate * dE/dw applied after each sample.

Two kernels compute the same math. Networks whose arithmetic costs less
than numpy's fixed cost per call run on straight-line Python generated once
per topology from the layer sizes: one function for a forward pass, one
for the deltas and one for a whole SGD epoch, each reading the parameters
from one flat sequence of floats, so a sample costs no Python call. The
rest run on numpy arrays, written in place into buffers allocated once per
call (once per ``train``, not per sample). The list kernel's cost grows
with the weight count and the numpy kernel's with the layer count, so a
cost model on those two picks a network's kernel, and ``forward``,
``backprop``, ``train`` and the predictors agree bit for bit on any one
net.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .data import Dataset
from .rng import Rng


class DimensionError(ValueError):
    """Vector width does not match the network topology."""


# sigmoid saturates to the nearest representable doubles inside (0, 1)
# instead of returning exactly 0 or 1 at extreme inputs.
_SIG_LO = float(np.nextafter(0.0, 1.0))
_SIG_HI = float(np.nextafter(1.0, 0.0))
# (0, -1, 1, lower clip, upper clip): the constants of ``_sigmoid_into``
_SIG_SCALARS = (0.0, -1.0, 1.0, _SIG_LO, _SIG_HI)

# The kernel cost model. A network runs on the list kernel when its weights
# and biases number fewer than ``_LIST_KERNEL_WEIGHTS_PER_LAYER`` times its
# weighted layers, counting at least two layers, and fewer than
# ``_LIST_KERNEL_MAX_WEIGHTS``; see ``NetworkParameters._lists``. One SGD
# update, generated lists against the in-place numpy kernel (2-core host,
# Python 3.11, numpy 2.4, public ``train``, 303 rows, median of 10
# interleaved epochs, compile excluded), in us:
#
#   layers  net        weights  lists  numpy
#   1       13-5            70    8.5   25.6
#   1       40-5           205   21.2   27.3
#   1       60-5           305   33.5   29.5
#   2       13-9-5         176   20.1   43.9
#   2       13-16-5        309   35.8   44.6
#   2       13-32-5        613   67.6   47.9
#   4       13-9x3-5       356   48.2   79.5
#   4       13-12x3-5      545   69.5   79.3
#   4       13-16x3-5      853  105.6   75.1
#   6       13-9x5-5       536   73.0  115.9
#   6       13-12x5-5      857  109.2  115.6
#   6       13-16x5-5     1397  175.5  116.7
#   10      13-9x9-5       896  119.9  180.9
#   10      13-12x9-5     1481  190.8  185.2
#
# Lists cost about 0.12-0.13 us per weight, numpy about 10 us per update
# plus 17 us per layer, so the two cross near 150 weights per layer from
# two layers on. Nets of one and two layers keep the limit of 300 weights
# they had before the model counted layers: every net the server, the
# simulator and the default CL and DCL train has at most two layers, so
# none of them changes kernel (the kernels agree to float64 rounding, not
# bit for bit). Compiling a generated kernel costs about 60 us per weight
# (26 ms at 446 weights, 58 ms at 896, 96 ms at 1481, 208 ms at 3197). A
# hidden layer 11 wide or narrower adds fewer than 150 weights, so such a
# net would stay under the per-layer limit at any depth;
# ``_LIST_KERNEL_MAX_WEIGHTS`` bounds one compile to about 60 ms and each
# of the 64 cached kernels to 1000 weights. Near the cap the list
# kernel saves little per update, so the cap costs little.
_LIST_KERNEL_WEIGHTS_PER_LAYER = 150
_LIST_KERNEL_MAX_WEIGHTS = 1000


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

    @property
    def layer_count(self) -> int:
        """Number of weighted layers (hidden layers plus the output layer)."""
        return len(self.hidden_sizes) + 1


@dataclass(frozen=True)
class NetworkParameters:
    """Complete weight/bias snapshot; the unit shipped server to client.

    weights[l] has shape (to_count, from_count); biases[l] has shape
    (to_count,). Arrays are read-only: operations return new snapshots.
    """

    spec: LayerSpec
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    activation: str = "sigmoid"
    version: int = 0
    trained_epochs: int = 0

    def __post_init__(self) -> None:
        if self.activation != "sigmoid":
            raise ValueError(f"unsupported activation {self.activation!r}")
        if self.version < 0 or self.trained_epochs < 0:
            raise ValueError("version and trained_epochs must be non-negative")
        sizes = self.spec.layer_sizes
        if len(self.weights) != len(sizes) - 1 or len(self.biases) != len(sizes) - 1:
            raise DimensionError("layer count does not match spec")
        frozen_w, frozen_b = [], []
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            w = np.asarray(w, dtype=np.float64)
            b = np.asarray(b, dtype=np.float64)
            if w.shape != (sizes[l + 1], sizes[l]) or b.shape != (sizes[l + 1],):
                raise DimensionError(
                    f"layer {l} shapes {w.shape}/{b.shape} do not match spec "
                    f"({sizes[l + 1]}, {sizes[l]})"
                )
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError(f"layer {l} contains non-finite parameters")
            w.setflags(write=False)
            b.setflags(write=False)
            frozen_w.append(w)
            frozen_b.append(b)
        object.__setattr__(self, "weights", tuple(frozen_w))
        object.__setattr__(self, "biases", tuple(frozen_b))

    @cached_property
    def weight_count(self) -> int:
        return sum(w.size for w in self.weights) + sum(b.size for b in self.biases)

    @cached_property
    def _lists(self) -> tuple[float, ...] | None:
        """Every parameter as one flat tuple of floats, each layer's weight
        rows followed by its biases, built once, for networks the list
        kernel runs; None for the numpy kernel. The cost model described at
        ``_LIST_KERNEL_WEIGHTS_PER_LAYER`` picks the kernel."""
        if self.weight_count >= min(
            _LIST_KERNEL_MAX_WEIGHTS,
            _LIST_KERNEL_WEIGHTS_PER_LAYER * max(self.spec.layer_count, 2),
        ):
            return None
        flat: list[float] = []
        for w, b in zip(self.weights, self.biases):
            flat += w.ravel().tolist()
            flat += b.tolist()
        return tuple(flat)

    @cached_property
    def _list_fns(self) -> _ListKernel:
        """The compiled list kernel of this topology, for nets with
        ``_lists``."""
        return _list_kernel(self.spec.layer_sizes)


@dataclass(frozen=True)
class ActivationTrace:
    """Per-layer sigmoid outputs from one forward pass.

    Index 0 is the first computed layer; the input vector itself is not part
    of the trace. ``final_outputs`` are the class scores.
    """

    outputs: tuple[np.ndarray, ...]

    @property
    def final_outputs(self) -> np.ndarray:
        return self.outputs[-1]


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


@dataclass(frozen=True)
class GradientSet:
    """dE/dw and dE/db, shaped exactly like the network they came from."""

    weight_grads: tuple[np.ndarray, ...]
    bias_grads: tuple[np.ndarray, ...]


def sigmoid(x):
    """Logistic activation 1 / (1 + exp(-x)).

    Accepts a scalar or array; finite inputs never produce NaN, and results
    saturate just inside (0, 1) at the extremes.
    """
    out = np.array(x, dtype=np.float64, ndmin=1)
    _sigmoid_into(out, np.empty(out.shape, dtype=bool), np.empty_like(out), _SIG_SCALARS)
    return float(out[0]) if np.ndim(x) == 0 else out


@lru_cache(maxsize=64)
def _sigmoid_consts(width: int) -> tuple[np.ndarray, ...]:
    """``_SIG_SCALARS`` as read-only arrays of ``width`` elements; a ufunc
    takes an array operand faster than a Python float."""
    consts = tuple(np.full(width, c) for c in _SIG_SCALARS)
    for c in consts:
        c.setflags(write=False)
    return consts


def _sigmoid_into(z: np.ndarray, mask: np.ndarray, den: np.ndarray, consts) -> None:
    """Overwrite ``z`` with its sigmoid, using ``mask`` and ``den`` as scratch.

    1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below, clipped to
    (``_SIG_LO``, ``_SIG_HI``): exp only ever sees -|z|, so it cannot
    overflow.
    """
    zero, neg_one, one, lo, hi = consts
    np.greater_equal(z, zero, out=mask)
    np.copysign(z, neg_one, out=z)
    np.exp(z, out=z)
    np.add(one, z, out=den)
    np.copyto(z, one, where=mask)
    np.divide(z, den, out=z)
    np.maximum(z, lo, out=z)
    np.minimum(z, hi, out=z)


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
    weights, biases = [], []
    for l in range(1, len(sizes)):
        n_out, n_in = sizes[l], sizes[l - 1]
        w = np.empty((n_out, n_in))
        for j in range(n_out):
            for k in range(n_in):
                w[j, k] = rng.uniform()
        b = np.array([rng.uniform() for _ in range(n_out)])
        weights.append(w)
        biases.append(b)
    return NetworkParameters(spec, tuple(weights), tuple(biases))


def forward(params: NetworkParameters, features) -> ActivationTrace:
    """Propagate one feature vector through every layer."""
    acts = _layer_outputs(params, _check_input(params, features))
    outs = [np.asarray(a) for a in acts[1:]]
    for a in outs:
        a.setflags(write=False)
    return ActivationTrace(tuple(outs))


def final_outputs(params: NetworkParameters, features) -> list[float]:
    """The class scores ``forward(params, features).final_outputs`` holds,
    as a list, without building the per-layer trace."""
    out = _layer_outputs(params, _check_input(params, features))[-1]
    return out if isinstance(out, list) else out.tolist()


def dataset_outputs(params: NetworkParameters, data: Dataset) -> list[list[float]]:
    """``final_outputs`` of every sample of ``data``, in order. A Dataset's
    rows were checked when it was built, so only its width is checked here."""
    if data.n_features != params.spec.input_count:
        raise DimensionError(
            f"dataset width {data.n_features} does not match input count "
            f"{params.spec.input_count}"
        )
    outs = [_layer_outputs(params, x)[-1] for x in data.features_matrix().tolist()]
    return outs if params._lists is not None else [o.tolist() for o in outs]


def squared_error(actual, predicted) -> float:
    """Summed squared error 0.5 * sum((actual - predicted)^2)."""
    a = np.asarray(actual, dtype=np.float64)
    o = np.asarray(predicted, dtype=np.float64)
    if a.shape != o.shape:
        raise DimensionError(f"length mismatch: {a.shape} vs {o.shape}")
    return float(0.5 * np.sum((a - o) ** 2))


def backprop(params: NetworkParameters, features, target) -> GradientSet:
    """Exact gradients of the squared error for one (input, target) pair.

    Output-layer delta is (output - actual) * output * (1 - output); hidden
    deltas chain back through the transposed weights. Does not mutate
    ``params``.
    """
    x = _check_input(params, features)
    t = _vector(target, params.spec.output_count, "target")
    if not all(0.0 <= v <= 1.0 for v in t):
        raise ValueError("targets must lie in [0, 1]")
    if params._lists is None:
        kernel = _ArrayKernel(params, gradients=True)
        kernel.forward(np.array(x))
        kernel.backward(np.array(t))
        w_grads, b_grads = kernel.weight_grads, kernel.bias_grads
    else:
        acts = params._list_fns.activations(params._lists, x)
        deltas = params._list_fns.deltas(params._lists, acts, t)
        w_grads = [np.outer(d, a) for d, a in zip(deltas, acts)]
        b_grads = [np.array(d, dtype=np.float64) for d in deltas]
    for g in w_grads + b_grads:
        g.setflags(write=False)
    return GradientSet(tuple(w_grads), tuple(b_grads))


def _layer_outputs(params: NetworkParameters, x: list[float]) -> list:
    """The input followed by each layer's output, from the kernel the
    network's cost model selects."""
    if params._lists is None:
        kernel = _ArrayKernel(params)
        kernel.forward(np.array(x))
        return kernel.acts
    return params._list_fns.activations(params._lists, x)


def _layer_views(flat: np.ndarray, sizes) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer weight and bias views into one flat buffer that holds each
    layer's weight rows followed by its biases."""
    weights, biases, at = [], [], 0
    for n_in, n_out in zip(sizes, sizes[1:]):
        weights.append(flat[at:at + n_out * n_in].reshape(n_out, n_in))
        at += n_out * n_in
        biases.append(flat[at:at + n_out])
        at += n_out
    return weights, biases


class _ArrayKernel:
    """The numpy kernel for one network: every pass writes into buffers made
    with the kernel, so a sample allocates no array.

    ``acts`` holds the input and each layer's output. With ``gradients``,
    ``backward`` writes each layer's deltas into its bias-gradient view of
    the flat ``grad`` buffer and its weight gradients next to them. With
    ``trainable``, the kernel also owns a writable flat copy of the
    parameters (``theta``, laid out like ``grad``) and ``step`` updates it.
    Buffers are never shared: a kernel belongs to one call.
    """

    def __init__(self, params: NetworkParameters, *, gradients: bool = False,
                 trainable: bool = False) -> None:
        sizes = params.spec.layer_sizes
        if trainable:
            self.theta = np.empty(params.weight_count)
            self.weights, self.biases = _layer_views(self.theta, sizes)
            for dst, src in zip(self.weights + self.biases, params.weights + params.biases):
                np.copyto(dst, src)
        else:
            self.weights, self.biases = params.weights, params.biases
        widths = sizes[1:]
        # (mask, scratch, sigmoid constants) per width: a pass finishes with
        # one layer before it starts the next, so layers of a width share them
        scratch = {n: (np.empty(n, dtype=bool), np.empty(n), _sigmoid_consts(n))
                   for n in set(widths)}
        self.acts = [None, *(np.empty(n) for n in widths)]
        self._scratch = [scratch[n] for n in widths]
        self._layers = [
            (w, b, z, *scratch[n])
            for w, b, z, n in zip(self.weights, self.biases, self.acts[1:], widths)
        ]
        if gradients or trainable:
            self.grad = np.empty(params.weight_count)
            self.weight_grads, self.bias_grads = _layer_views(self.grad, sizes)
            self._delta_cols = [d[:, None] for d in self.bias_grads]
            self._weights_t = [w.T for w in self.weights]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Fill ``acts`` for input ``x``; returns the final layer's output."""
        self.acts[0] = prev = x
        for w, b, z, mask, den, consts in self._layers:
            np.matmul(w, prev, out=z)
            z += b
            _sigmoid_into(z, mask, den, consts)
            prev = z
        return prev

    def backward(self, target: np.ndarray) -> None:
        """dE/dnet of each layer into ``bias_grads`` and dE/dw into
        ``weight_grads``, for the activations ``forward`` left in ``acts``."""
        acts, deltas, scratch = self.acts, self.bias_grads, self._scratch
        final, delta = acts[-1], deltas[-1]
        _, tmp, (_, _, one, _, _) = scratch[-1]
        # (o - t) * o * (1 - o), then (W^T d) * a * (1 - a) back through
        # the hidden layers
        np.subtract(final, target, out=delta)
        delta *= final
        np.subtract(one, final, out=tmp)
        delta *= tmp
        for l in range(len(deltas) - 1, 0, -1):
            prev, delta = acts[l], deltas[l - 1]
            _, tmp, (_, _, one, _, _) = scratch[l - 1]
            np.matmul(self._weights_t[l], deltas[l], out=delta)
            delta *= prev
            np.subtract(one, prev, out=tmp)
            delta *= tmp
        for col, prev, gw in zip(self._delta_cols, acts, self.weight_grads):
            np.multiply(col, prev, out=gw)

    def step(self, x: np.ndarray, target: np.ndarray, lr: float) -> float:
        """One in-place SGD update of ``theta``; returns the sample's loss.
        Each parameter becomes p - (delta * input) * lr, the bits of
        ``apply_update``'s p - lr * (delta * input)."""
        final = self.forward(x)
        tmp = self._scratch[-1][1]
        np.subtract(target, final, out=tmp)
        tmp *= tmp
        loss = 0.5 * float(tmp.sum())
        self.backward(target)
        grad = self.grad
        grad *= lr
        self.theta -= grad
        return loss


class _ListKernel(NamedTuple):
    """Straight-line Python for one topology, all reading the flat
    parameter sequence of ``NetworkParameters._lists``.

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
    """The list kernel for ``sizes``, generated once per topology; every
    network of that topology shares it. The source is built from the layer
    sizes alone, and the parameters, inputs and targets arrive as arguments,
    so no value a caller supplies is ever compiled."""
    namespace = {"exp": math.exp, "LO": _SIG_LO, "HI": _SIG_HI}
    name = "-".join(str(int(n)) for n in sizes)
    code = compile(_list_kernel_source(sizes), f"<edgectx.nn list kernel {name}>", "exec")
    exec(code, namespace)
    return _ListKernel(*(namespace[f] for f in _ListKernel._fields))


def _list_kernel_source(sizes) -> str:
    """Python source of the three ``_ListKernel`` functions for ``sizes``.

    The arithmetic is ``apply_update``'s, one operation at a time in a fixed
    order, which keeps a topology's result bits the same on every run:
    each net input folds left from the bias, b + w0*a0 + w1*a1 + ...; the
    sigmoid is 1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below,
    clipped to (``LO``, ``HI``); each hidden delta sum starts from zero, so
    a -0.0 sum reads 0.0; and every delta is taken before any update
    p -= lr * (delta * input).
    """
    sizes = [int(n) for n in sizes]
    at, weights, biases = 0, [], []  # weights[l][j][k] and biases[l][j]: names in p
    for n_in, n_out in zip(sizes, sizes[1:]):
        weights.append([[f"p{at + j * n_in + k}" for k in range(n_in)] for j in range(n_out)])
        at += n_out * n_in
        biases.append([f"p{at + j}" for j in range(n_out)])
        at += n_out
    params = [f"p{i}" for i in range(at)]
    acts = [[f"a{l}_{j}" for j in range(n)] for l, n in enumerate(sizes)]
    deltas = [None, *([f"d{l}_{j}" for j in range(n)] for l, n in enumerate(sizes) if l)]
    targets = [f"t{j}" for j in range(sizes[-1])]

    def unpack(names, value):
        return f"{', '.join(names)}, = {value}"

    def listed(names):
        return f"[{', '.join(names)}]"

    forward = []
    for l in range(1, len(sizes)):
        for j, a in enumerate(acts[l]):
            terms = (f"{w} * {x}" for w, x in zip(weights[l - 1][j], acts[l - 1]))
            forward += [
                f"z = {' + '.join((biases[l - 1][j], *terms))}",
                "if z >= 0.0:",
                f"    {a} = 1.0 / (1.0 + exp(-z))",
                f"    if {a} > HI:",
                f"        {a} = HI",
                "else:",
                f"    {a} = exp(z)",
                f"    {a} = {a} / (1.0 + {a})",
                f"    if {a} < LO:",
                f"        {a} = LO",
            ]
    backward = [f"{d} = ({a} - {t}) * {a} * (1.0 - {a})"
                for d, a, t in zip(deltas[-1], acts[-1], targets)]
    for l in range(len(sizes) - 2, 0, -1):
        for k, (d, a) in enumerate(zip(deltas[l], acts[l])):
            terms = (f"{row[k]} * {dn}" for row, dn in zip(weights[l], deltas[l + 1]))
            backward.append(f"{d} = ({' + '.join(('0.0', *terms))}) * {a} * (1.0 - {a})")
    update = []
    for l in range(1, len(sizes)):
        for j, d in enumerate(deltas[l]):
            update += [f"{w} -= lr * ({d} * {x})" for w, x in zip(weights[l - 1][j], acts[l - 1])]
            update.append(f"{biases[l - 1][j]} -= lr * {d}")
    # each sample's loss sums the squared errors from the first: a square
    # is never -0.0, so starting from 0.0 would not change a bit
    errors = [f"e{j}" for j in range(sizes[-1])]
    loss = [f"{e} = {t} - {a}" for e, t, a in zip(errors, targets, acts[-1])]
    loss.append(f"total += 0.5 * ({' + '.join(f'{e} * {e}' for e in errors)})")

    def body(lines, depth):
        return [" " * (4 * depth) + line for line in lines]

    return "\n".join([
        "def activations(p, x):",
        *body([unpack(params, "p"), unpack(acts[0], "x"), *forward], 1),
        f"    return [x, {', '.join(listed(a) for a in acts[1:])}]",
        "",
        "def deltas(p, acts, t):",
        *body([unpack(params, "p"), unpack(targets, "t")], 1),
        *body([unpack(acts[l], f"acts[{l}]") for l in range(1, len(sizes))], 1),
        *body(backward, 1),
        f"    return [{', '.join(listed(d) for d in deltas[1:])}]",
        "",
        "def epoch(p, features, targets, order, lr):",
        *body([unpack(params, "p"), "total = 0.0", "for i in order:"], 1),
        *body([unpack(acts[0], "features[i]"), unpack(targets, "targets[i]"), *forward,
               *loss, *backward, *update], 2),
        f"    p[:] = {listed(params)}",
        "    return total",
        "",
    ])


def apply_update(
    params: NetworkParameters, grads: GradientSet, learning_rate: float
) -> NetworkParameters:
    """One gradient-descent step: each parameter y becomes
    y - learning_rate * dE/dy. Version bookkeeping is left to the sync layer."""
    if learning_rate <= 0.0:
        raise ValueError("learning_rate must be positive")
    if len(grads.weight_grads) != len(params.weights):
        raise DimensionError("gradient layer count does not match network")
    new_w, new_b = [], []
    for w, b, gw, gb in zip(
        params.weights, params.biases, grads.weight_grads, grads.bias_grads
    ):
        if gw.shape != w.shape or gb.shape != b.shape:
            raise DimensionError("gradient shape does not match network")
        if not (np.all(np.isfinite(gw)) and np.all(np.isfinite(gb))):
            raise ValueError("non-finite gradient")
        new_w.append(w - learning_rate * gw)
        new_b.append(b - learning_rate * gb)
    return replace(params, weights=tuple(new_w), biases=tuple(new_b))


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

    sizes = params.spec.layer_sizes
    classes = range(params.spec.output_count)
    one_hot = [[float(c == k) for c in classes] for k in classes]
    targets = [one_hot[s.label] for s in data.samples]
    features = data.features_matrix()
    if params._lists is None:
        kernel = _ArrayKernel(params, trainable=True)
        theta, step, targets = kernel.theta, kernel.step, np.array(targets)

        def epoch(theta, features, targets, order, lr):
            # ``step`` updates ``theta``, the kernel's own buffer, in place
            total = 0.0
            for i in order:
                total += step(features[i], targets[i], lr)
            return total
    else:
        theta, epoch = list(params._lists), params._list_fns.epoch
        features = features.tolist()
    lr = cfg.learning_rate
    rng = Rng(cfg.seed)
    order = list(range(len(data.samples)))
    loss_history: list[float] = []

    for _ in range(cfg.epochs):
        if cfg.shuffle_each_epoch:
            rng.shuffle(order)
        loss_history.append(epoch(theta, features, targets, order, lr) / len(order))

    weights, biases = _layer_views(np.asarray(theta, dtype=np.float64), sizes)
    trained = replace(
        params,
        weights=tuple(weights),
        biases=tuple(biases),
        trained_epochs=params.trained_epochs + cfg.epochs,
    )
    return trained, loss_history


def _vector(values, width: int, what: str) -> list[float]:
    """``values`` as a list of exactly ``width`` floats."""
    if isinstance(values, np.ndarray) and values.ndim != 1:
        raise DimensionError(f"{what} shape {values.shape} is not a vector")
    try:
        vec = [float(v) for v in values]
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
