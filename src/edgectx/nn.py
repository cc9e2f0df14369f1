"""Feedforward sigmoid network trained by per-sample gradient descent.

Every node computes net = bias + sum(weight_k * input_k), passes it through
the logistic function, and feeds the next layer. Training minimizes the
summed squared error 0.5 * sum((actual - output)^2) with the update
w <- w - learning_rate * dE/dw applied after each sample.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset
from .rng import Rng


class DimensionError(ValueError):
    """Vector width does not match the network topology."""


# sigmoid saturates to the nearest representable doubles inside (0, 1)
# instead of returning exactly 0 or 1 at extreme inputs.
_SIG_LO = float(np.nextafter(0.0, 1.0))
_SIG_HI = float(np.nextafter(1.0, 0.0))


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

    @property
    def weight_count(self) -> int:
        return sum(w.size for w in self.weights) + sum(b.size for b in self.biases)


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
    arr = np.asarray(x, dtype=np.float64)
    scalar = arr.ndim == 0
    out = _sigmoid_arr(np.atleast_1d(arr))
    return float(out[0]) if scalar else out


def _sigmoid_arr(x: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below: exp only ever
    # sees -|x|, so it cannot overflow
    e = np.exp(-np.abs(x))
    return np.clip(np.where(x >= 0, 1.0, e) / (1.0 + e), _SIG_LO, _SIG_HI)


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
    x = _check_input(params, features)
    outs = _activations(params.weights, params.biases, x)[1:]
    for a in outs:
        a.setflags(write=False)
    return ActivationTrace(tuple(outs))


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
    t = np.asarray(target, dtype=np.float64)
    if t.shape != (params.spec.output_count,):
        raise DimensionError(
            f"target length {t.shape} does not match output count "
            f"{params.spec.output_count}"
        )
    if not np.all((t >= 0.0) & (t <= 1.0)):
        raise ValueError("targets must lie in [0, 1]")
    _, w_grads, b_grads = _gradients(params.weights, params.biases, x, t)
    for g in w_grads + b_grads:
        g.setflags(write=False)
    return GradientSet(tuple(w_grads), tuple(b_grads))


def _activations(weights, biases, x: np.ndarray) -> list[np.ndarray]:
    """The input followed by each layer's sigmoid output."""
    acts = [x]
    for w, b in zip(weights, biases):
        acts.append(_sigmoid_arr(w @ acts[-1] + b))
    return acts


def _gradients(
    weights, biases, x: np.ndarray, target: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """(final outputs, dE/dw, dE/db) for one sample. Every gradient and
    every delta is taken from ``weights`` as passed in, so a caller that
    updates in place must do so only after this returns."""
    acts = _activations(weights, biases, x)
    final = acts[-1]
    delta = (final - target) * final * (1.0 - final)
    w_grads: list[np.ndarray] = [None] * len(weights)  # type: ignore[list-item]
    b_grads: list[np.ndarray] = [None] * len(weights)  # type: ignore[list-item]
    for l in range(len(weights) - 1, -1, -1):
        prev = acts[l]
        w_grads[l] = np.outer(delta, prev)
        b_grads[l] = delta
        if l > 0:
            delta = (weights[l].T @ delta) * prev * (1.0 - prev)
    return final, w_grads, b_grads


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

    features = data.features_matrix()
    targets = np.zeros((len(data.samples), params.spec.output_count))
    for i, s in enumerate(data.samples):
        targets[i, s.label] = 1.0

    weights = [w.copy() for w in params.weights]
    biases = [b.copy() for b in params.biases]
    lr = cfg.learning_rate
    rng = Rng(cfg.seed)
    order = list(range(len(data.samples)))
    loss_history: list[float] = []

    for _ in range(cfg.epochs):
        if cfg.shuffle_each_epoch:
            rng.shuffle(order)
        total = 0.0
        for i in order:
            t = targets[i]
            a, w_grads, b_grads = _gradients(weights, biases, features[i], t)
            total += 0.5 * float(np.sum((t - a) ** 2))
            for w, b, gw, gb in zip(weights, biases, w_grads, b_grads):
                w -= lr * gw
                b -= lr * gb
        loss_history.append(total / len(order))

    trained = replace(
        params,
        weights=tuple(weights),
        biases=tuple(biases),
        trained_epochs=params.trained_epochs + cfg.epochs,
    )
    return trained, loss_history


def _check_input(params: NetworkParameters, features) -> np.ndarray:
    x = np.asarray(features, dtype=np.float64)
    if x.shape != (params.spec.input_count,):
        raise DimensionError(
            f"input length {x.shape} does not match input count "
            f"{params.spec.input_count}"
        )
    if not np.all(np.isfinite(x)):
        raise ValueError("input contains non-finite values")
    return x
