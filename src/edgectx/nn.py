"""Feedforward sigmoid network trained by per-sample gradient descent.

Every node computes net = bias + sum(weight_k * input_k), passes it through
the logistic function, and feeds the next layer. Training minimizes the
summed squared error 0.5 * sum((actual - output)^2) with the update
w <- w - learning_rate * dE/dw applied after each sample.

Two kernels compute the same math: nested Python lists for small networks,
where numpy's fixed cost per call outweighs the arithmetic, and numpy arrays
for the rest, written in place into buffers allocated once per call (once
per ``train``, not per sample). A network's size alone picks its kernel, so
``forward``, ``backprop``, ``train`` and the predictors agree bit for bit on
any one net.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache, partial
from operator import mul

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

# Networks with fewer weights and biases than this run on the list kernel.
# One SGD update, lists against the in-place numpy kernel (2-core host,
# Python 3.11, numpy 2.4, median of 7 interleaved epochs): 2-2 4.1 vs 9.8 us,
# 2-2x1-2 6.4 vs 15.4, 13-5 (70 weights) 10.3 vs 10.2, 13-4-5 (81) 14.2 vs
# 15.9, 13-6-5 (119) 17.9 vs 15.7, 13-9-5 (176) 22.8 vs 16.1, 13-16-5 (309)
# 35.3 vs 16.6, 13-9x3-5 (356) 49.9 vs 28.3, 13-9x9-5 (896) 128 vs 64.
# Lists cost per weight, numpy per layer, so numpy now wins from about 100
# weights on one-hidden-layer nets. The limit stays at 300, where the
# allocating numpy kernel crossed, because moving it changes the result
# bits of every net between the two points (list and numpy agree to
# rounding, not bit for bit).
_LIST_KERNEL_WEIGHTS = 300


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
        if any(int(s) != s or s < 1 for s in sizes):
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
    def _lists(self) -> tuple[tuple, tuple] | None:
        """(weight rows, biases) as nested tuples of floats, built once, for
        networks the list kernel runs; None for the numpy kernel."""
        if self.weight_count >= _LIST_KERNEL_WEIGHTS:
            return None
        return (
            tuple(tuple(map(tuple, w.tolist())) for w in self.weights),
            tuple(tuple(b.tolist()) for b in self.biases),
        )


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


def _sigmoid_scalar(z: float) -> float:
    """``sigmoid`` for one float, on ``math.exp``."""
    e = math.exp(-abs(z))
    s = (1.0 if z >= 0.0 else e) / (1.0 + e)
    return _SIG_HI if s > _SIG_HI else _SIG_LO if s < _SIG_LO else s


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
        acts = _list_activations(*params._lists, x)
        deltas = _list_deltas(params._lists[0], acts, t)
        w_grads = [np.outer(d, a) for d, a in zip(deltas, acts)]
        b_grads = [np.array(d, dtype=np.float64) for d in deltas]
    for g in w_grads + b_grads:
        g.setflags(write=False)
    return GradientSet(tuple(w_grads), tuple(b_grads))


def _layer_outputs(params: NetworkParameters, x: list[float]) -> list:
    """The input followed by each layer's output, from the kernel the
    network's size selects: lists below the crossover, arrays from it on."""
    if params._lists is None:
        kernel = _ArrayKernel(params)
        kernel.forward(np.array(x))
        return kernel.acts
    return _list_activations(*params._lists, x)


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


def _list_activations(weights, biases, x: list[float]) -> list[list[float]]:
    """Each layer's sigmoid output, after the input, on weight rows held as
    nested lists or tuples."""
    acts = [x]
    for rows, bs in zip(weights, biases):
        prev = acts[-1]
        acts.append(
            [_sigmoid_scalar(sum(map(mul, row, prev), b)) for row, b in zip(rows, bs)]
        )
    return acts


def _list_deltas(weights, acts: list[list[float]], target) -> list[list[float]]:
    """dE/dnet of each layer on nested lists; dE/dw of layer l is
    outer(deltas[l], acts[l]). The transposed product walks columns."""
    final = acts[-1]
    deltas = [[(o - t) * o * (1.0 - o) for o, t in zip(final, target)]]
    for l in range(len(weights) - 1, 0, -1):
        delta = deltas[-1]
        deltas.append(
            [
                sum(map(mul, col, delta)) * p * (1.0 - p)
                for col, p in zip(zip(*weights[l]), acts[l])
            ]
        )
    return deltas[::-1]


def _list_step(weights, biases, x, target, lr: float) -> float:
    """One in-place SGD update on nested lists; returns the sample's loss.
    Each parameter becomes p - lr * (delta * input), grouped as
    ``apply_update`` groups it, so the result matches ``backprop`` followed
    by ``apply_update`` bit for bit."""
    acts = _list_activations(weights, biases, x)
    for rows, bs, prev, delta in zip(
        weights, biases, acts, _list_deltas(weights, acts, target)
    ):
        for j, d in enumerate(delta):
            row = rows[j]
            for k, p in enumerate(prev):
                row[k] -= lr * (d * p)
            bs[j] -= lr * d
    loss = 0.0
    for t, o in zip(target, acts[-1]):
        loss += (t - o) * (t - o)
    return 0.5 * loss


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

    classes = range(params.spec.output_count)
    targets = [[float(c == s.label) for c in classes] for s in data.samples]
    features = data.features_matrix()
    if params._lists is None:
        kernel = _ArrayKernel(params, trainable=True)
        step, weights, biases = kernel.step, kernel.weights, kernel.biases
        targets = np.array(targets)
    else:
        weights = [[list(row) for row in rows] for rows in params._lists[0]]
        biases = [list(b) for b in params._lists[1]]
        step = partial(_list_step, weights, biases)
        features = features.tolist()
    lr = cfg.learning_rate
    rng = Rng(cfg.seed)
    order = list(range(len(data.samples)))
    loss_history: list[float] = []

    for _ in range(cfg.epochs):
        if cfg.shuffle_each_epoch:
            rng.shuffle(order)
        total = 0.0
        for i in order:
            total += step(features[i], targets[i], lr)
        loss_history.append(total / len(order))

    trained = replace(
        params,
        weights=tuple(np.asarray(w, dtype=np.float64) for w in weights),
        biases=tuple(np.asarray(b, dtype=np.float64) for b in biases),
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
