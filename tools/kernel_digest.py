"""Print SHA-256 digests of what the training kernel computes.

    python tools/kernel_digest.py > before.txt
    python tools/kernel_digest.py --compare before.txt

Each line is ``<name> <sha256>``. With ``--compare FILE``, the tool prints
instead each name whose digest moved against FILE, an earlier output
(``moved <name>``), or that only one of the two holds (``missing <name>``,
``new <name>``), and exits 1 if there is any. The names cover:

* ``nn.train`` trained weights, biases and loss history on 2-2, 2-2x1-2,
  13-9x1-5, 13-9x3-5, 13-9x5-5, 13-9x9-5, 13-32x1-5 and 13-16x3-5 over the
  303-row ``perfbench/clusters.heart_like(701)`` set, 3 epochs at learning
  rates 0.3 and 0.6 (the 2-input nets see its first two features and class
  0 against the rest); every layer of the first six is straight-line code,
  while 13-32x1-5 runs both its layers row by row and 13-16x3-5 all but
  its output layer (``nn._row_form``). Those two start from seed 1's
  weights and biases mapped from [0, 1) to [-1, 1): from all-positive
  weights their outputs sit within 1e-3 of 1 on every row (13-32x1-5
  within 2e-6), where a last-bit change in a hidden activation moves no
  output bit; the others start from seed 1 as drawn;
* ``nn.final_outputs`` of the same eight untrained nets on every row of
  that set;
* the class index ``learners.adcl_predict`` gives for every row of that set
  on each of the eight nets trained at both learning rates, and the one
  ``learners.lcl_predict`` gives on the single-layer net with thresholds
  calibrated on the set (the deeper nets, 3 epochs in, answer one class
  for every row);
* the same class indices with each net's first two outputs made equal
  (``learners.*_predict.ties``, all nets in one line per predictor; for
  LCL with every threshold set to the first), so that every row is an
  exact tie and a change to the tie rule moves these lines;
* the class index the predictors of ``learners.make_dcl_trainer`` (on
  13-9x1-5, straight-line code, and 13-24x1-5, whose first layer runs row by
  row) and
  ``learners.make_cl_trainer`` give, trained on that set (30 epochs at
  learning rate 0.6), for every raw row of it, for the ends of the fitted
  ranges and for each row with one feature far outside its range
  (``learners.kfold_predict``);
* a chain of three versions of each kind through ``learners.retrain``
  (``learners.retrain.chain``): a fresh v1 on the first 101 rows of that
  set, then v2 and v3 continued from the version before on the first 202
  and on all 303 rows (12 epochs fresh, 2 continued), each candidate's
  parameters, thresholds, guard scores and verdict (the DCL v3 candidate
  is refused, so the served version stays v2);
* ``Rng.shuffle`` permutations of 2, 3, 303 and 2000 items under seeds 0-9,
  each with the next word of the stream after it;
* the report files of three ``edgectx train`` runs on synth-still-motion
  (DCL, CL, and a DCL sweep);
* ``ScenarioResult.canonical_bytes()`` of ``edgectx simulate`` on
  ``scenarios/outage.json``, which loses no upload and no ack;
* the same bytes of a 16 s ``sim.run_scenario`` run of all four algorithms
  on a lossy link (7 ms latency, 15% of legs dropped, outages at 3-6 s and
  9-13 s; ``tests/test_sim.py::TestDeferredTraining``'s, at seed 5), where
  uploads are resent after lost acks (``lossy-canonical-bytes``).

Run it in two checkouts and compare the output to show that a change keeps
every result bit for bit. The digests depend on the host's floating-point
libraries, so compare runs made on one host only. Takes about 5 s.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from edgectx import cli, learners, nn, sim  # noqa: E402
from edgectx.data import Dataset, Sample, synth_still_motion  # noqa: E402
from edgectx.rng import Rng  # noqa: E402
from perfbench import clusters  # noqa: E402

TOPOLOGIES = (
    (2, (), 2),
    (2, (2,), 2),
    (13, (9,), 5),
    (13, (9,) * 3, 5),
    (13, (9,) * 5, 5),
    (13, (9,) * 9, 5),
    (13, (32,), 5),
    (13, (16,) * 3, 5),
)
# nets whose weights and biases start in [-1, 1), not [0, 1)
SIGNED = {(13, (32,), 5), (13, (16,) * 3, 5)}
LEARNING_RATES = (0.3, 0.6)
EPOCHS = 3
DATA_SEED = 701
SHUFFLE_LENGTHS = (2, 3, 303, 2000)
SHUFFLE_SEEDS = range(10)

TRAIN_RUNS = (
    ("train-dcl-report", ["--kind", "dcl", "--epochs", "20", "--kfold", "3"]),
    ("train-cl-report", ["--kind", "cl", "--epochs", "20", "--kfold", "3"]),
    ("train-sweep-report", ["--sweep", "lr=0.3..0.4", "hidden=1..3",
                            "--epochs", "5", "--kfold", "3"]),
)


def _name(inputs: int, hidden: tuple[int, ...], outputs: int) -> str:
    if not hidden:
        return f"{inputs}-{outputs}"
    return f"{inputs}-{hidden[0]}x{len(hidden)}-{outputs}"


def _datasets() -> tuple[Dataset, Dataset]:
    """The heart-shaped set and its two-feature, two-class narrowing."""
    heart = clusters.heart_like(DATA_SEED)
    narrow = Dataset(
        tuple(Sample(s.features[:2], min(s.label, 1)) for s in heart.samples),
        heart.feature_names[:2],
        ("0", "1-4"),
    )
    return heart, narrow


def _init(inputs: int, hidden: tuple[int, ...], outputs: int) -> nn.NetworkParameters:
    params = nn.init_network(nn.LayerSpec(inputs, hidden, outputs), 1)
    if (inputs, hidden, outputs) in SIGNED:
        params = replace(params, flat=tuple(2.0 * v - 1.0 for v in params.flat))
    return params


def _train(params: nn.NetworkParameters, data: Dataset, lr: float):
    cfg = nn.TrainingConfig(learning_rate=lr, epochs=EPOCHS, seed=1)
    return nn.train(params, data, cfg)


def train_digests() -> list[tuple[str, str]]:
    heart, narrow = _datasets()
    out = []
    for inputs, hidden, outputs in TOPOLOGIES:
        data = heart if inputs == heart.n_features else narrow
        digest = hashlib.sha256()
        for lr in LEARNING_RATES:
            trained, history = _train(_init(inputs, hidden, outputs), data, lr)
            for arr in (*trained.weights, *trained.biases):
                digest.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
            digest.update(np.asarray(history, dtype=np.float64).tobytes())
        out.append((f"nn.train.{_name(inputs, hidden, outputs)}", digest.hexdigest()))
    return out


def final_outputs_digests() -> list[tuple[str, str]]:
    heart, narrow = _datasets()
    out = []
    for inputs, hidden, outputs in TOPOLOGIES:
        data = heart if inputs == heart.n_features else narrow
        params = _init(inputs, hidden, outputs)
        scores = [nn.final_outputs(params, s.features) for s in data.samples]
        digest = hashlib.sha256(np.asarray(scores, dtype=np.float64).tobytes())
        out.append((f"nn.final_outputs.{_name(inputs, hidden, outputs)}", digest.hexdigest()))
    return out


def _tied(params: nn.NetworkParameters) -> nn.NetworkParameters:
    """``params`` with the second output's weights and bias copied from the
    first, so that those two outputs are equal on every row."""
    weights, biases = list(params.weights), list(params.biases)
    weights[-1] = np.vstack([weights[-1][:1], weights[-1][:1], weights[-1][2:]])
    biases[-1] = np.concatenate([biases[-1][:1], biases[-1][:1], biases[-1][2:]])
    return replace(params, weights=tuple(weights), biases=tuple(biases))


def _classes(predict, model, rows) -> bytes:
    return np.asarray([predict(model, x).class_index for x in rows], dtype=np.int64).tobytes()


def predict_digests() -> list[tuple[str, str]]:
    heart, narrow = _datasets()
    adcl, lcl = [], []
    # the same nets with their first two outputs tied, and for LCL its
    # thresholds too: every row is an exact tie
    adcl_ties, lcl_ties = hashlib.sha256(), hashlib.sha256()
    for inputs, hidden, outputs in TOPOLOGIES:
        data = heart if inputs == heart.n_features else narrow
        rows = [s.features for s in data.samples]
        adcl_digest, lcl_digest = hashlib.sha256(), hashlib.sha256()
        for lr in LEARNING_RATES:
            params, _ = _train(_init(inputs, hidden, outputs), data, lr)
            tied = _tied(params)
            adcl_digest.update(_classes(learners.adcl_predict, params, rows))
            adcl_ties.update(_classes(learners.adcl_predict, tied, rows))
            if not hidden:
                thresholds = learners.calibrate_thresholds(params, data)
                model = learners.ClModel(params, thresholds)
                lcl_digest.update(_classes(learners.lcl_predict, model, rows))
                same = learners.ThresholdVector((thresholds.values[0],) * outputs)
                lcl_ties.update(_classes(learners.lcl_predict, learners.ClModel(tied, same),
                                         rows))
        name = _name(inputs, hidden, outputs)
        adcl.append((f"learners.adcl_predict.{name}", adcl_digest.hexdigest()))
        if not hidden:
            lcl.append((f"learners.lcl_predict.{name}", lcl_digest.hexdigest()))
    return [*adcl, *lcl, ("learners.adcl_predict.ties", adcl_ties.hexdigest()),
            ("learners.lcl_predict.ties", lcl_ties.hexdigest())]


def kfold_predict_digest() -> tuple[str, str]:
    heart, _ = _datasets()
    rows = [s.features for s in heart.samples]
    lo, hi = (list(map(end, zip(*rows))) for end in (min, max))
    # every range's ends, then each row with one feature four range widths
    # below its range (even rows) or above it (odd rows)
    far = []
    for i, row in enumerate(rows):
        j = i % len(row)
        far.append(row[:j] + (hi[j] + 4.0 * (hi[j] - lo[j]) if i % 2 else
                              lo[j] - 4.0 * (hi[j] - lo[j]),) + row[j + 1:])
    rows += [tuple(lo), tuple(hi), *far]
    cfg = nn.TrainingConfig(learning_rate=0.6, epochs=10 * EPOCHS, seed=1)
    digest = hashlib.sha256()
    for trainer in (learners.make_dcl_trainer((9,), cfg), learners.make_dcl_trainer((24,), cfg),
                    learners.make_cl_trainer(cfg)):
        predict = trainer(heart)
        digest.update(np.asarray([predict(x).class_index for x in rows],
                                 dtype=np.int64).tobytes())
    return "learners.kfold_predict", digest.hexdigest()


def retrain_chain_digest() -> tuple[str, str]:
    heart, _ = _datasets()
    cfg = nn.TrainingConfig(learning_rate=0.3, epochs=4 * EPOCHS, seed=1)
    digest = hashlib.sha256()
    for kind in learners.MODEL_KINDS:
        served = None
        for version, rows in enumerate((101, 202, 303), start=1):
            window = Dataset(heart.samples[:rows], heart.feature_names, heart.class_names)
            candidate = learners.retrain(kind, window, replace(cfg, seed=version), served,
                                         None if served is None else 101)
            if candidate.accepted:
                served = candidate.model
            digest.update(np.asarray(candidate.params.flat, dtype=np.float64).tobytes())
            thresholds = candidate.thresholds.values if candidate.thresholds else ()
            scores = (candidate.score, -1.0 if candidate.served_score is None
                      else candidate.served_score, candidate.epochs, candidate.accepted,
                      *thresholds)
            digest.update(np.asarray(scores, dtype=np.float64).tobytes())
    return "learners.retrain.chain", digest.hexdigest()


def shuffle_digests() -> list[tuple[str, str]]:
    out = []
    for n in SHUFFLE_LENGTHS:
        digest = hashlib.sha256()
        for seed in SHUFFLE_SEEDS:
            rng = Rng(seed)
            items = list(range(n))
            rng.shuffle(items)
            digest.update(np.asarray(items + [rng.next_u64()], dtype=np.uint64).tobytes())
        out.append((f"rng.shuffle.{n}", digest.hexdigest()))
    return out


def _run_cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"edgectx {' '.join(argv)} exited {code}")


def report_digests(workdir: Path) -> list[tuple[str, str]]:
    out = []
    for name, args in TRAIN_RUNS:
        report = workdir / f"{name}.csv"
        _run_cli(["train", "synth-still-motion", *args, "--report", str(report)])
        out.append((name, hashlib.sha256(report.read_bytes()).hexdigest()))
    return out


def outage_digest(workdir: Path) -> tuple[str, str]:
    # edgectx simulate writes CSV summaries only; catch the ScenarioResult
    # it builds to hash its canonical bytes
    captured = []
    run_scenario = cli.run_scenario

    def capture(*args, **kwargs):
        captured.append(run_scenario(*args, **kwargs))
        return captured[-1]

    cli.run_scenario = capture
    try:
        _run_cli(["simulate", "--scenario", str(ROOT / "scenarios" / "outage.json"),
                  "--out-dir", str(workdir / "sim-out")])
    finally:
        cli.run_scenario = run_scenario
    return "outage-canonical-bytes", hashlib.sha256(captured[0].canonical_bytes()).hexdigest()


def lossy_digest() -> tuple[str, str]:
    link = sim.LinkConfig(latency_ms=7, drop_probability=0.15,
                          outage_windows=((3_000, 6_000), (9_000, 13_000)))
    result = sim.run_scenario(
        [sim.SensorNodeConfig("acc0", 100, synth_still_motion(600, 3))], link, 1_000,
        sim.ALGORITHMS, 16_000, 5, sync_period_ms=500, upload_every_ms=500,
        warmup_samples=60, epochs=4)
    return "lossy-canonical-bytes", hashlib.sha256(result.canonical_bytes()).hexdigest()


def digests() -> list[tuple[str, str]]:
    """Every (name, digest) line, in the order the tool prints them."""
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        return [*train_digests(), *final_outputs_digests(), *predict_digests(),
                kfold_predict_digest(), retrain_chain_digest(), *shuffle_digests(),
                *report_digests(workdir), outage_digest(workdir), lossy_digest()]


def compare(earlier: str, lines: list[tuple[str, str]]) -> list[str]:
    """``moved``, ``new`` and ``missing`` lines for the names whose digest in
    ``lines`` differs from the one in ``earlier``, a previous output."""
    before = dict(line.split() for line in earlier.splitlines() if line.strip())
    now = dict(lines)
    report = [f"{'new' if name not in before else 'moved'} {name}"
              for name, digest in lines if before.get(name) != digest]
    return report + [f"missing {name}" for name in before if name not in now]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Digests of what the training kernel computes.")
    parser.add_argument("--compare", metavar="FILE", type=Path,
                        help="print the names whose digest differs from FILE's; exit 1 if any")
    args = parser.parse_args(argv)
    lines = digests()
    if args.compare is None:
        for name, digest in lines:
            print(f"{name} {digest}")
        return 0
    report = compare(args.compare.read_text(), lines)
    for line in report:
        print(line)
    return 1 if report else 0


if __name__ == "__main__":
    sys.exit(main())
