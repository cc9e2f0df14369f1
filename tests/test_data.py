import numpy as np
import pytest

from edgectx.data import (
    DataFormatError,
    Dataset,
    Sample,
    SensorReading,
    apply_minmax,
    apply_minmax_vector,
    load_csv,
    normalize_minmax,
    relabel,
    stratified_split,
    synth_still_motion,
)

THREE_CLASS_CSV = """\
sepal_l,sepal_w,petal_l,kind
5.1,3.5,1.4,red
4.9,3.0,1.3,red
6.3,2.9,5.6,blue
6.1,3.0,4.9,blue
5.8,2.6,4.0,green
5.5,2.4,3.8,green
"""


@pytest.fixture
def csv_path(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(THREE_CLASS_CSV, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_basic_load_with_header(self, csv_path):
        data = load_csv(csv_path)
        assert data.n_features == 3
        assert data.n_classes == 3
        assert len(data) == 6
        assert data.feature_names == ("sepal_l", "sepal_w", "petal_l")
        # classes numbered by first appearance
        assert data.class_names == ("red", "blue", "green")
        assert data.samples[0].features == (5.1, 3.5, 1.4)
        assert data.samples[2].label == 1

    def test_headerless_numeric_labels(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("1.0,2.0,0\n3.0,4.0,1\n", encoding="utf-8")
        data = load_csv(path)
        assert data.feature_names == ("f0", "f1")
        assert data.class_names == ("0", "1")

    def test_label_column_by_name(self, csv_path):
        data = load_csv(csv_path, label_column="kind")
        assert data.n_features == 3
        with pytest.raises(DataFormatError):
            load_csv(csv_path, label_column="nope")

    def test_label_column_by_index(self, tmp_path):
        path = tmp_path / "first.csv"
        path.write_text("a,1.0,2.0\nb,3.0,4.0\n", encoding="utf-8")
        data = load_csv(path, label_column=0)
        assert data.class_names == ("a", "b")
        assert data.samples[1].features == (3.0, 4.0)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DataFormatError, match="empty"):
            load_csv(path)

    def test_malformed_row_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0,a\n1.0,oops,b\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match=r":2:"):
            load_csv(path)

    def test_inconsistent_width(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1.0,2.0,a\n1.0,b\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="columns"):
            load_csv(path)

    def test_missing_token_rows_dropped(self, tmp_path):
        path = tmp_path / "holes.csv"
        path.write_text("1.0,2.0,a\n?,2.0,b\n3.0,4.0,a\n", encoding="utf-8")
        data = load_csv(path, missing_token="?")
        assert len(data) == 2
        assert data.class_names == ("a",)

    def test_row_order_preserved(self, csv_path):
        data = load_csv(csv_path)
        assert [s.label for s in data.samples] == [0, 0, 1, 1, 2, 2]


class TestNormalize:
    def test_maps_to_unit_interval(self):
        data = Dataset(
            tuple(Sample((v,), 0) for v in (2.0, 4.0, 6.0)), ("x",), ("k",)
        )
        normed = normalize_minmax(data)
        assert [s.features[0] for s in normed.samples] == [0.0, 0.5, 1.0]
        assert normed.normalization == ((2.0, 6.0),)

    def test_constant_feature_maps_to_zero(self):
        data = Dataset(tuple(Sample((5.0,), 0) for _ in range(2)), ("x",), ("k",))
        normed = normalize_minmax(data)
        assert [s.features[0] for s in normed.samples] == [0.0, 0.0]

    def test_unseen_values_clamped(self):
        assert apply_minmax_vector((10.0,), ((2.0, 6.0),)) == (1.0,)
        assert apply_minmax_vector((-3.0,), ((2.0, 6.0),)) == (0.0,)

    def test_refit_is_identity(self):
        data = synth_still_motion(100, 1)
        once = normalize_minmax(data)
        twice = normalize_minmax(once)
        for a, b in zip(once.samples, twice.samples):
            assert max(abs(x - y) for x, y in zip(a.features, b.features)) < 1e-12

    def test_apply_to_test_data(self):
        train = Dataset(tuple(Sample((v,), 0) for v in (0.0, 10.0)), ("x",), ("k",))
        fitted = normalize_minmax(train)
        test = Dataset((Sample((5.0,), 0), Sample((20.0,), 0)), ("x",), ("k",))
        applied = apply_minmax(test, fitted.normalization)
        assert [s.features[0] for s in applied.samples] == [0.5, 1.0]

    def test_pipeline_preserves_counts_and_labels(self):
        data = synth_still_motion(300, 5)
        normed = normalize_minmax(data)
        train, test = stratified_split(normed, 0.25, 8)
        assert len(train) + len(test) == len(data)
        assert sorted(s.label for s in data.samples) == sorted(
            s.label for s in (*train.samples, *test.samples)
        )


class TestStratifiedSplit:
    def balanced(self, per_class=50, classes=3):
        samples = tuple(
            Sample((float(i), float(c)), c)
            for c in range(classes)
            for i in range(per_class)
        )
        return Dataset(samples, ("a", "b"), tuple(str(c) for c in range(classes)))

    def test_proportional_allocation(self):
        train, test = stratified_split(self.balanced(), 0.2, 3)
        counts = test.class_counts()
        assert counts == [10, 10, 10]
        assert train.class_counts() == [40, 40, 40]

    def test_deterministic(self):
        a = stratified_split(self.balanced(), 0.2, 3)
        b = stratified_split(self.balanced(), 0.2, 3)
        assert a[0].samples == b[0].samples
        assert a[1].samples == b[1].samples

    def test_two_per_class_half(self):
        data = self.balanced(per_class=2)
        train, test = stratified_split(data, 0.5, 1)
        assert train.class_counts() == [1, 1, 1]
        assert test.class_counts() == [1, 1, 1]

    def test_disjoint_union(self):
        data = self.balanced(per_class=7)
        train, test = stratified_split(data, 0.3, 11)
        joined = sorted((*train.samples, *test.samples), key=lambda s: s.features)
        assert joined == sorted(data.samples, key=lambda s: s.features)

    def test_class_too_small(self):
        data = Dataset(
            (Sample((1.0,), 0), Sample((2.0,), 0), Sample((3.0,), 1)),
            ("x",), ("a", "b"),
        )
        with pytest.raises(ValueError, match="at least 2"):
            stratified_split(data, 0.5, 1)

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            stratified_split(self.balanced(), 1.5, 1)


class TestSynthStillMotion:
    def test_both_classes_present_and_ordered_magnitudes(self):
        data = synth_still_motion(1000, 17)
        counts = data.class_counts()
        assert counts[0] > 0 and counts[1] > 0
        feats = data.features_matrix()
        labels = data.label_array()
        still_mean = feats[labels == 0].mean()
        motion_mean = feats[labels == 1].mean()
        assert motion_mean > still_mean

    def test_deterministic(self):
        assert synth_still_motion(200, 9).samples == synth_still_motion(200, 9).samples

    def test_default_skew(self):
        counts = synth_still_motion(1000, 2).class_counts()
        assert counts[1] == 150  # exact 15% motion by construction

    def test_linear_model_separates_held_out(self):
        # generator is tuned so a plain linear boundary clears 95%
        from edgectx.learners import evaluate, make_cl_trainer
        from edgectx.nn import TrainingConfig

        data = synth_still_motion(800, 23)
        train, test = stratified_split(data, 0.25, 4)
        predict = make_cl_trainer(TrainingConfig(0.05, 60, 2))(train)
        assert evaluate(predict, test).accuracy >= 0.95

    def test_n_too_small(self):
        with pytest.raises(ValueError):
            synth_still_motion(1, 1)


class TestRelabel:
    def test_merge_to_binary(self):
        data = Dataset(
            tuple(Sample((float(i),), i) for i in range(4)),
            ("x",),
            ("0", "1", "2", "3"),
        )
        merged = relabel(data, {"1": "pos", "2": "pos", "3": "pos"})
        assert merged.class_names == ("0", "pos")
        assert [s.label for s in merged.samples] == [0, 1, 1, 1]


def test_sample_rejects_non_finite():
    with pytest.raises(ValueError):
        Sample((float("nan"),), 0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("make", [
    lambda values: Sample(values, 0),
    lambda values: SensorReading("acc0", 0, values),
], ids=["sample", "reading"])
def test_non_finite_values_refused(make, bad):
    make((0.5, np.float64(0.25)))
    with pytest.raises(ValueError):
        make((0.5, bad))
    with pytest.raises(ValueError):
        make((0.5, np.float64(bad)))


@pytest.mark.parametrize("bad", [1 + 2j, "0.5"], ids=["complex", "string"])
@pytest.mark.parametrize("make", [
    lambda values: Sample(values, 0),
    lambda values: SensorReading("acc0", 0, values),
], ids=["sample", "reading"])
def test_non_real_values_raise_type_error(make, bad):
    with pytest.raises(TypeError):
        make((0.5, bad))


def test_fingerprint_stable_and_sensitive():
    a = synth_still_motion(50, 3)
    b = synth_still_motion(50, 3)
    c = synth_still_motion(50, 4)
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != c.fingerprint()
