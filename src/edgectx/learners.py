"""The four context-learning algorithms and their evaluation machinery.

Server side: DCL trains a deep (hidden-layer) network; CL trains a
single-layer network plus per-class decision thresholds. Client side: ADCL
predicts by running the DCL network forward and taking the argmax; LCL
predicts by comparing the single-layer outputs against the CL thresholds.
Clients never learn; they only consume parameters.
"""

from __future__ import annotations

import logging
import math
import time
import zlib
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

from . import nn
from .data import Dataset, SensorReading, dataset_from_readings, normalize_minmax
from .nn import LayerSpec, NetworkParameters, TrainingConfig
from .rng import Rng

# Default training profiles. The server-resident single-layer CL uses a low
# learning rate; models destined for on-device ADCL prediction train at the
# higher client-facing rate. The deep model also trains for more epochs by
# default, which is what makes its training run the expensive one.
CL_LEARNING_RATE = 0.05
DCL_LEARNING_RATE = 0.3
CL_DEFAULT_CONFIG = TrainingConfig(learning_rate=CL_LEARNING_RATE, epochs=40, seed=0)
DCL_DEFAULT_CONFIG = TrainingConfig(learning_rate=DCL_LEARNING_RATE, epochs=300, seed=0)

MODEL_KIND_DCL = "DCL"
MODEL_KIND_CL = "CL"
MODEL_KINDS = (MODEL_KIND_DCL, MODEL_KIND_CL)

THRESHOLD_FLOOR = 0.01
THRESHOLD_CEIL = 0.99

# A retrain that continues from the served version trains this fraction of
# the epochs a fresh version trains, and at least one: 5 of the simulator's
# 30, 10 of serve's default 60.
CONTINUE_EPOCH_DIVISOR = 6
# A candidate is published only if its accuracy on the rows that arrived
# since the served version was published is at least the served version's
# minus this margin.
GUARD_MARGIN = 0.02
# A version learns from at most the last this many labelled rows.
TRAIN_WINDOW_ROWS = 2000
# No version is trained on fewer labelled rows (``serve --min-rows``).
MIN_RETRAIN_ROWS = 8

log = logging.getLogger(__name__)


class NeverSyncedError(RuntimeError):
    """Prediction requested before any parameters were ever received."""


@dataclass(frozen=True)
class ThresholdVector:
    """Per-class decision thresholds for the CL/LCL pair."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if not all(0.0 < v < 1.0 for v in self.values):
            raise ValueError("thresholds must lie strictly inside (0, 1)")

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class ContextLabel:
    class_index: int
    name: str = ""


@dataclass(frozen=True)
class ClModel:
    """Single-layer network (inputs wired directly to sigmoid outputs) plus
    its calibrated thresholds."""

    params: NetworkParameters
    thresholds: ThresholdVector

    def __post_init__(self) -> None:
        if self.params.spec.hidden_sizes:
            raise ValueError("CL model must not have hidden layers")
        if len(self.thresholds) != self.params.spec.output_count:
            raise ValueError("threshold count must equal output count")
        # classifiers bound to this model by ``classifier``, by class-name tuple
        object.__setattr__(self, "_classifiers", {})


@dataclass(frozen=True)
class Metrics:
    """Evaluation summary: accuracy, confusion counts (rows = actual,
    columns = predicted), binary outcome rates, and per-prediction latency.

    For binary tasks class 1 is the positive class and the four rates are
    fractions of all evaluated samples; fn_rate is computed as the residual
    so the four always partition 1 exactly.
    """

    accuracy: float
    confusion: tuple[tuple[int, ...], ...]
    sample_count: int
    mean_latency_us: float
    p95_latency_us: float
    tp_rate: float | None = None
    tn_rate: float | None = None
    fp_rate: float | None = None
    fn_rate: float | None = None


def fit(
    kind: str,
    data: Dataset,
    cfg: TrainingConfig,
    hidden: tuple[int, ...] | None = None,
    start: NetworkParameters | None = None,
) -> tuple[NetworkParameters, ThresholdVector | None, list[float]]:
    """Train a model of ``kind`` on ``data``; every shipped model is built here.

    The network continues from ``start`` when given, which must have the
    model's topology, and otherwise starts fresh from ``cfg.seed``. A DCL
    model takes ``hidden`` as its hidden-layer widths, or one layer of the
    default width when ``hidden`` is None; a CL model has no hidden layers
    and gets thresholds calibrated on ``data``. Returns (params,
    thresholds, per-epoch losses); thresholds are None for DCL.
    """
    spec = model_spec(kind, data, hidden)
    if start is None:
        start = nn.init_network(spec, cfg.seed)
    elif start.spec != spec:
        raise ValueError(f"cannot continue a {start.spec} network as {spec}")
    params, losses = nn.train(start, data, cfg)
    thresholds = calibrate_thresholds(params, data) if kind == MODEL_KIND_CL else None
    return params, thresholds, losses


def model_spec(kind: str, data: Dataset, hidden: tuple[int, ...] | None = None) -> LayerSpec:
    """The topology ``fit`` gives a model of ``kind`` on ``data``."""
    if kind == MODEL_KIND_DCL:
        if hidden is None:
            hidden = (nn.hidden_size_default(data.n_features, data.n_classes),)
        if not hidden:
            raise ValueError("DCL requires at least one hidden layer")
    elif kind == MODEL_KIND_CL:
        if hidden:
            raise ValueError("CL model must not have hidden layers")
        hidden = ()
    else:
        raise ValueError(f"unknown model kind {kind!r}")
    return LayerSpec(data.n_features, hidden, data.n_classes)


def dcl_train(
    data: Dataset,
    spec: LayerSpec,
    cfg: TrainingConfig = DCL_DEFAULT_CONFIG,
    start: NetworkParameters | None = None,
) -> NetworkParameters:
    """Train the deep context learner; the returned network is exactly what
    gets shipped to ADCL clients. ``spec`` must match the data's width and
    class count; ``start`` is as for ``fit``."""
    if (spec.input_count, spec.output_count) != (data.n_features, data.n_classes):
        raise ValueError(f"{spec} does not match the data's width and class count")
    return fit(MODEL_KIND_DCL, data, cfg, spec.hidden_sizes, start)[0]


def cl_train(
    data: Dataset,
    cfg: TrainingConfig = CL_DEFAULT_CONFIG,
    start: NetworkParameters | None = None,
) -> ClModel:
    """Train the single-layer context learner and calibrate its thresholds
    on the training data; ``start`` is as for ``fit``."""
    params, thresholds, _ = fit(MODEL_KIND_CL, data, cfg, start=start)
    return ClModel(params, thresholds)


Model = NetworkParameters | ClModel
# builds a model from (data, cfg, the network to continue or None)
ModelTrainer = Callable[[Dataset, TrainingConfig, NetworkParameters | None], Model]


@dataclass(frozen=True)
class Candidate:
    """A retrained version before it is published, and the guard's scores.

    ``score`` and ``served_score`` are the accuracies of the candidate and
    of the served version on the rows that arrived since the served version
    was published, or on the whole window when that is not known;
    ``served_score`` is None when no version is served.
    """

    model: Model
    continued: bool  # trained on from the served version's parameters
    epochs: int
    new_rows: int | None  # None when it is not known which rows are new
    score: float
    served_score: float | None
    train_ms: float

    @property
    def accepted(self) -> bool:
        return self.served_score is None or self.score >= self.served_score - GUARD_MARGIN

    @property
    def params(self) -> NetworkParameters:
        return self.model.params if isinstance(self.model, ClModel) else self.model

    @property
    def thresholds(self) -> ThresholdVector | None:
        return self.model.thresholds if isinstance(self.model, ClModel) else None


def retrain(
    kind: str,
    data: Dataset,
    cfg: TrainingConfig,
    served: Model | None = None,
    new_rows: int | None = None,
    train: ModelTrainer | None = None,
) -> Candidate:
    """The retrain step of ``retrain_round``: the next version of ``kind``
    on the window ``data``, whose last ``new_rows`` rows arrived since
    ``served`` was published (None when that is not known).

    A served version with the topology ``fit`` gives ``data`` is continued
    for ``max(1, cfg.epochs // CONTINUE_EPOCH_DIVISOR)`` epochs. Otherwise
    (the first version, or a new class that widens the output layer) the
    candidate starts fresh from ``cfg.seed`` for ``cfg.epochs``. CL
    thresholds are calibrated on ``data`` either way. ``train`` builds the
    model (default: ``fit``). The candidate and the served version are
    then scored through their bound classifiers; see ``Candidate``.
    """
    start = served.params if isinstance(served, ClModel) else served
    if start is not None and start.spec != model_spec(kind, data):
        start = None
    if start is not None:
        cfg = replace(cfg, epochs=max(1, cfg.epochs // CONTINUE_EPOCH_DIVISOR))
    t0 = time.perf_counter()
    if train is None:
        params, thresholds, _ = fit(kind, data, cfg, start=start)
        model = params if thresholds is None else ClModel(params, thresholds)
    else:
        model = train(data, cfg, start)
    train_ms = (time.perf_counter() - t0) * 1e3
    scored = data.samples if new_rows is None else data.samples[-new_rows:]
    return Candidate(
        model, start is not None, cfg.epochs, new_rows, _accuracy(model, scored),
        None if served is None else _accuracy(served, scored), train_ms,
    )


@dataclass
class RetrainMarks:
    """What a server's retrains remember: for each model kind, the labelled
    rows held when its served version was published, how many candidates
    the guard refused, and the labelled rows held at its last refusal."""

    published_rows: dict[str, int] = field(default_factory=dict)
    refused: dict[str, int] = field(default_factory=dict)
    refused_rows: dict[str, int] = field(default_factory=dict)


def retrain_round(
    rows: Sequence[tuple[SensorReading, int]],
    kinds: Sequence[str],
    marks: RetrainMarks,
    store,
    epochs: int,
    *,
    min_rows: int = MIN_RETRAIN_ROWS,
    build: Callable[..., Dataset] = dataset_from_readings,
    trainer: Callable[[str], ModelTrainer] | None = None,
) -> list[tuple[str, Candidate]]:
    """The retrain policy of ``serve`` and the simulator: a ``retrain`` of
    each due kind in ``kinds`` on the labelled ``rows`` held, oldest first.

    Nothing trains on fewer than ``min_rows`` rows or on one class. A kind
    is due unless ``marks`` holds the row count at its last publish or
    refusal, since the same rows, seed and served version
    (``store.get(kind)``, a ``ParameterBundle`` or None, of a
    ``server.ModelStore``) give the same candidate. The window is the last
    ``TRAIN_WINDOW_ROWS`` rows, made a Dataset by ``build`` with one class
    per label up to the largest held. A candidate is seeded with
    ``crc32("<kind> v<n>")``, n being the version ``store`` publishes next
    (``store.next_version(kind)``), and trained by ``trainer(kind)``
    (default: ``fit``). Records each publish and refusal in ``marks``; the
    caller publishes each accepted candidate in ``store``.
    """
    held = len(rows)
    n_classes = max((label for _, label in rows), default=0) + 1
    due = [kind for kind in kinds
           if held not in (marks.published_rows.get(kind), marks.refused_rows.get(kind))]
    if held < min_rows or n_classes < 2 or not due:
        log.info("%d labelled rows of %d classes, %s due; nothing to retrain",
                 held, n_classes, due)
        return []
    window = rows[-TRAIN_WINDOW_ROWS:]
    data = build(window, tuple(f"f{i}" for i in range(len(window[0][0].values))),
                 tuple(str(i) for i in range(n_classes)))
    out = []
    for kind in due:
        bundle, published = store.get(kind), marks.published_rows.get(kind)
        seed = zlib.crc32(f"{kind} v{store.next_version(kind)}".encode())
        lr = DCL_LEARNING_RATE if kind == MODEL_KIND_DCL else CL_LEARNING_RATE
        candidate = retrain(
            kind, data, TrainingConfig(lr, epochs, seed),
            None if bundle is None else bundle.model,
            # a mark above the rows held counts rows that are gone
            None if published is None or published > held else held - published,
            None if trainer is None else trainer(kind),
        )
        if candidate.accepted:
            marks.published_rows[kind] = held
        else:
            marks.refused[kind] = marks.refused.get(kind, 0) + 1
            marks.refused_rows[kind] = held
        out.append((kind, candidate))
    return out


def _accuracy(model: Model, samples: Sequence) -> float:
    classify = classifier(model)
    return sum(classify(s.features).class_index == s.label for s in samples) / len(samples)


def calibrate_thresholds(params: NetworkParameters, data: Dataset) -> ThresholdVector:
    """Per-class threshold: midpoint between the class node's mean output on
    positive samples and on negative samples, clamped into (0.01, 0.99).

    A class with no positives gets the 0.5 default; a class with no
    negatives uses its positive mean.
    """
    if params.spec.hidden_sizes:
        raise ValueError("thresholds are calibrated for single-layer models only")
    if not data.samples:
        raise ValueError("cannot calibrate on an empty dataset")
    import numpy as np

    outputs = np.array(nn.dataset_outputs(params, data))
    labels = data.label_array()
    thresholds = []
    for c in range(params.spec.output_count):
        pos = outputs[labels == c, c]
        neg = outputs[labels != c, c]
        if pos.size == 0:
            t = 0.5
        elif neg.size == 0:
            t = float(pos.mean())
        else:
            t = float((pos.mean() + neg.mean()) / 2.0)
        thresholds.append(min(THRESHOLD_CEIL, max(THRESHOLD_FLOOR, t)))
    return ThresholdVector(tuple(thresholds))


def adcl_predict(
    params: NetworkParameters | None,
    features: Sequence[float],
    class_names: Sequence[str] = (),
) -> ContextLabel:
    """Forward pass plus argmax; no learning happens on the device.

    Ties break toward the lowest class index. Raises NeverSyncedError when
    no parameters have been received yet.
    """
    if params is None:
        raise NeverSyncedError("no network parameters received yet")
    try:
        classify = params._classifiers[class_names]
    except (KeyError, TypeError):  # not bound yet, or names in a list
        classify = classifier(params, class_names)
    return classify(features)


def lcl_predict(
    model: ClModel | None,
    features: Sequence[float],
    class_names: Sequence[str] = (),
) -> ContextLabel:
    """Single-layer outputs compared against the thresholds.

    Among classes whose output exceeds its threshold, the one with the
    largest margin (output - threshold) wins; when none exceeds, falls back
    to plain argmax. Ties break toward the lowest index, so a prediction is
    always produced. Raises NeverSyncedError when no model has been
    received yet.
    """
    if model is None:
        raise NeverSyncedError("no CL model received yet")
    try:
        classify = model._classifiers[class_names]
    except (KeyError, TypeError):  # not bound yet, or names in a list
        classify = classifier(model, class_names)
    return classify(features)


def classifier(
    model: NetworkParameters | ClModel,
    class_names: Sequence[str] = (),
    normalization: tuple[tuple[float, float], ...] | None = None,
) -> Callable[[Sequence[float]], ContextLabel]:
    """The classifier ``adcl_predict`` (for a network) or ``lcl_predict``
    (for a ClModel) calls: features to the ContextLabel, named from
    ``class_names`` where a class has a name. With ``normalization`` (a
    fitted ``Dataset.normalization``) it takes raw features and scales them
    first, as ``apply_minmax_vector`` does (``nn.bind_classifier``). Bound
    once per model, class-name tuple and normalization and kept on the
    model, so a prediction is one call."""
    names = tuple(class_names)
    key = names if normalization is None else (names, normalization)
    bound = model._classifiers.get(key)
    if bound is None:
        if isinstance(model, ClModel):
            params, thresholds = model.params, model.thresholds.values
        else:
            params, thresholds = model, None
        labels = tuple(ContextLabel(i, names[i] if i < len(names) else "")
                       for i in range(params.spec.output_count))
        bound = model._classifiers[key] = nn.bind_classifier(params, labels, thresholds,
                                                             normalization)
    return bound


def evaluate(
    predict_fn: Callable[[tuple[float, ...]], ContextLabel | int],
    data: Dataset,
) -> Metrics:
    """Run the predictor over every sample, timing each call.

    ``predict_fn`` may return a ContextLabel or a bare class index. Latency
    covers the predict call only.
    """
    if not data.samples:
        raise ValueError("cannot evaluate on an empty dataset")
    k = data.n_classes
    confusion = [[0] * k for _ in range(k)]
    latencies_us = []
    for s in data.samples:
        t0 = time.perf_counter_ns()
        pred = predict_fn(s.features)
        latencies_us.append((time.perf_counter_ns() - t0) / 1000.0)
        idx = pred.class_index if isinstance(pred, ContextLabel) else int(pred)
        if not 0 <= idx < k:
            raise ValueError(f"predictor returned class {idx} outside [0, {k})")
        confusion[s.label][idx] += 1
    return metrics_from_counts(confusion, latencies_us)


def p95(values: Sequence[float]) -> float:
    """The nearest-rank 95th percentile: the value at index
    ``ceil(0.95 n) - 1`` of the sorted values; 0.0 for none."""
    s = sorted(values)
    return s[min(len(s) - 1, max(0, math.ceil(0.95 * len(s)) - 1))] if s else 0.0


def metrics_from_counts(
    confusion: Sequence[Sequence[int]], latencies_us: Sequence[float]
) -> Metrics:
    """Assemble Metrics from a filled confusion matrix and raw latencies."""
    k = len(confusion)
    n = sum(sum(row) for row in confusion)
    if n == 0:
        raise ValueError("no predictions to summarize")
    correct = sum(confusion[i][i] for i in range(k))
    lats = sorted(latencies_us)
    rates: dict[str, float | None] = dict.fromkeys(
        ("tp_rate", "tn_rate", "fp_rate", "fn_rate")
    )
    if k == 2:
        tp, tn, fp = confusion[1][1], confusion[0][0], confusion[0][1]
        rates["tp_rate"] = tp / n
        rates["tn_rate"] = tn / n
        rates["fp_rate"] = fp / n
        rates["fn_rate"] = 1.0 - rates["tp_rate"] - rates["tn_rate"] - rates["fp_rate"]
    return Metrics(
        accuracy=correct / n,
        confusion=tuple(tuple(int(c) for c in row) for row in confusion),
        sample_count=n,
        mean_latency_us=sum(lats) / len(lats) if lats else 0.0,
        p95_latency_us=p95(lats),
        **rates,
    )


@dataclass(frozen=True)
class KFoldResult:
    mean_accuracy: float
    std_accuracy: float
    fold_accuracies: tuple[float, ...]


Trainer = Callable[[Dataset], Callable[[tuple[float, ...]], ContextLabel | int]]


def kfold_cross_validate(
    data: Dataset, k: int, trainer: Trainer, seed: int
) -> KFoldResult:
    """Stratified k-fold cross-validation with seeded fold assignment.

    ``trainer`` maps a training dataset to a predict function. k equal to
    the dataset size degenerates to leave-one-out (stratification is
    vacuous with single-sample folds); otherwise k must not exceed the
    smallest class count. Std deviation is the population form.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    n = len(data.samples)
    if k > n:
        raise ValueError(f"k={k} exceeds dataset size {n}")
    if k < n:
        smallest = min(data.class_counts())
        if k > smallest:
            raise ValueError(
                f"k={k} exceeds smallest class count {smallest}; "
                "stratification impossible"
            )
    folds = _stratified_folds(data, k, seed)
    accuracies = []
    for f in range(k):
        test_idx = folds[f]
        train_samples = tuple(
            s for i, s in enumerate(data.samples) if i not in test_idx
        )
        test_samples = tuple(data.samples[i] for i in sorted(test_idx))
        train_ds = Dataset(train_samples, data.feature_names, data.class_names)
        test_ds = Dataset(test_samples, data.feature_names, data.class_names)
        predict_fn = trainer(train_ds)
        accuracies.append(evaluate(predict_fn, test_ds).accuracy)
    # imported here: statistics pulls in fractions and decimal, which no
    # other path needs
    from statistics import pstdev

    return KFoldResult(
        mean_accuracy=sum(accuracies) / k,
        std_accuracy=pstdev(accuracies),
        fold_accuracies=tuple(accuracies),
    )


def _stratified_folds(data: Dataset, k: int, seed: int) -> list[set[int]]:
    """Per-class shuffled round-robin deal into k folds."""
    rng = Rng(seed)
    folds: list[set[int]] = [set() for _ in range(k)]
    by_class: list[list[int]] = [[] for _ in data.class_names]
    for i, s in enumerate(data.samples):
        by_class[s.label].append(i)
    cursor = 0
    for indices in by_class:
        pool = list(indices)
        rng.shuffle(pool)
        for idx in pool:
            folds[cursor % k].add(idx)
            cursor += 1
    return folds


def make_dcl_trainer(
    hidden_sizes: tuple[int, ...] | None = None,
    cfg: TrainingConfig = DCL_DEFAULT_CONFIG,
) -> Trainer:
    """Pipeline factory: min-max normalization fitted on the training fold,
    DCL training, then ADCL prediction on raw features with the fitted
    ranges applied.

    ``hidden_sizes=None`` applies the default width rule with one hidden
    layer. The predictor is the model's classifier bound with those ranges
    (``classifier``), so a prediction is one call from raw features to the
    label: the scaling is written into the function generated for the
    topology, and it labels every input as ``adcl_predict`` on
    ``apply_minmax_vector(tuple(features), ranges)`` would.
    """
    return _make_trainer(MODEL_KIND_DCL, cfg, hidden_sizes)


def make_cl_trainer(cfg: TrainingConfig = CL_DEFAULT_CONFIG) -> Trainer:
    """Pipeline factory: normalization, CL training with threshold
    calibration, then LCL prediction on raw features, one call each as
    for ``make_dcl_trainer``."""
    return _make_trainer(MODEL_KIND_CL, cfg)


def _make_trainer(
    kind: str, cfg: TrainingConfig, hidden: tuple[int, ...] | None = None
) -> Trainer:
    def trainer(train_data: Dataset):
        fitted = normalize_minmax(train_data)
        params, thresholds, _ = fit(kind, fitted, cfg, hidden)
        model = params if thresholds is None else ClModel(params, thresholds)
        return classifier(model, train_data.class_names, fitted.normalization)

    return trainer
