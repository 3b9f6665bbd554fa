import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgmclassifier import (
    ClassSetMismatch,
    DimMismatch,
    EmptyEvaluation,
    LabelOutOfRange,
    MetricSetMismatch,
    NonFiniteScore,
    PgmError,
    UndefinedAuc,
    accuracy,
    auc_ovr,
    binary_rates,
    confusion,
    macro_accuracy,
    metric_difference,
    one_vs_rest_rates,
    report_from_predictions,
    win_loss,
)
from pgmclassifier.metrics import rankdata


def brute_force_auc(scores, membership):
    """Average pairwise comparison with ties counted one half."""
    pos = [s for s, m in zip(scores, membership) if m]
    neg = [s for s, m in zip(scores, membership) if not m]
    total = 0.0
    for p, q in itertools.product(pos, neg):
        if p > q:
            total += 1.0
        elif p == q:
            total += 0.5
    return total / (len(pos) * len(neg))


class TestConfusion:
    def test_rows_are_true_columns_predicted(self):
        cm = confusion([0, 0, 1, 1], [0, 1, 1, 1], 2)
        np.testing.assert_array_equal(cm, [[1, 1], [0, 2]])

    def test_counts_every_pair(self):
        rng = np.random.default_rng(3)
        true = rng.integers(0, 4, size=200)
        pred = rng.integers(0, 4, size=200)
        cm = confusion(true, pred, 4)
        assert cm.sum() == 200
        for i, j in itertools.product(range(4), range(4)):
            assert cm[i, j] == np.sum((true == i) & (pred == j))

    def test_empty_inputs_give_zero_matrix(self):
        np.testing.assert_array_equal(confusion([], [], 2), np.zeros((2, 2)))

    def test_rejects_out_of_range(self):
        with pytest.raises(LabelOutOfRange):
            confusion([0, 2], [0, 1], 2)
        with pytest.raises(LabelOutOfRange):
            confusion([0, 1], [0, -1], 2)

    def test_rejects_length_mismatch(self):
        with pytest.raises(DimMismatch):
            confusion([0, 1], [0], 2)


class TestAccuracy:
    def test_worked_balanced_example(self):
        cm = np.array([[8, 2], [4, 6]])
        assert accuracy(cm) == pytest.approx(0.7, abs=1e-12)
        assert macro_accuracy(cm) == pytest.approx(0.7, abs=1e-12)

    def test_worked_imbalanced_example(self):
        cm = np.array([[9, 1], [5, 0]])
        assert accuracy(cm) == pytest.approx(0.6, abs=1e-12)
        assert macro_accuracy(cm) == pytest.approx(0.45, abs=1e-12)

    def test_macro_skips_absent_classes(self):
        cm = np.array([[4, 0, 0], [0, 0, 0], [2, 0, 2]])
        assert macro_accuracy(cm) == pytest.approx(0.75, abs=1e-12)

    def test_equal_row_sums_make_both_agree(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            cm = rng.integers(0, 10, size=(3, 3)).astype(float)
            cm = cm + 1.0
            cm = cm / cm.sum(axis=1, keepdims=True) * 12.0
            assert accuracy(cm) == pytest.approx(macro_accuracy(cm), abs=1e-10)

    def test_empty_matrix_rejected(self):
        with pytest.raises(EmptyEvaluation):
            accuracy(np.zeros((2, 2)))
        with pytest.raises(EmptyEvaluation):
            macro_accuracy(np.zeros((2, 2)))


class TestBinaryRates:
    def test_worked_example(self):
        cm = np.array([[6, 4], [2, 8]])
        rates = binary_rates(cm, positive_class=0)
        assert rates.precision == pytest.approx(0.75, abs=1e-12)
        assert rates.recall == pytest.approx(0.6, abs=1e-12)
        assert rates.specificity == pytest.approx(0.8, abs=1e-12)
        assert rates.f1 == pytest.approx(2 / 3, abs=1e-12)
        assert rates.degenerate == ()

    def test_f1_is_harmonic_mean(self):
        cm = np.array([[6, 4], [2, 8]])
        rates = binary_rates(cm, positive_class=0)
        harmonic = 2 / (1 / rates.precision + 1 / rates.recall)
        assert rates.f1 == pytest.approx(harmonic, abs=1e-12)

    def test_never_predicted_class_flags_precision(self):
        rates = one_vs_rest_rates(np.array([[5, 0], [3, 0]]), 1)
        assert rates.precision == 0.0
        assert "precision" in rates.degenerate
        assert "recall" not in rates.degenerate

    def test_absent_class_flags_recall(self):
        rates = one_vs_rest_rates(np.array([[0, 0], [1, 5]]), 0)
        assert "recall" in rates.degenerate
        assert "f1" not in rates.degenerate

    def test_multiclass_one_vs_rest_pools_rest(self):
        cm = np.array([[3, 1, 0], [0, 4, 1], [1, 0, 2]])
        rates = one_vs_rest_rates(cm, 1)
        assert rates.precision == pytest.approx(4 / 5, abs=1e-12)
        assert rates.recall == pytest.approx(4 / 5, abs=1e-12)
        assert rates.specificity == pytest.approx(6 / 7, abs=1e-12)

    def test_requires_two_by_two(self):
        with pytest.raises(DimMismatch):
            binary_rates(np.zeros((3, 3)), 0)


class TestAuc:
    def test_worked_example(self):
        scores = [0.1, 0.4, 0.35, 0.8]
        membership = [False, False, True, True]
        assert auc_ovr(scores, membership) == pytest.approx(0.75, abs=1e-12)

    def test_perfect_separation(self):
        assert auc_ovr([0.1, 0.2, 0.8, 0.9], [False, False, True, True]) == 1.0
        assert auc_ovr([0.8, 0.9, 0.1, 0.2], [False, False, True, True]) == 0.0

    def test_all_tied_gives_half(self):
        assert auc_ovr([0.5, 0.5, 0.5], [True, False, True]) == pytest.approx(0.5)

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.integers(2, 30))
            scores = rng.choice([0.1, 0.25, 0.5, 0.7], size=n)
            membership = rng.integers(0, 2, size=n).astype(bool)
            if membership.all() or not membership.any():
                continue
            assert auc_ovr(scores, membership) == brute_force_auc(scores, membership)

    def test_complement_sums_to_one(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            scores = rng.choice([0.0, 0.3, 0.6], size=12)
            membership = np.array([True] * 5 + [False] * 7)
            total = auc_ovr(scores, membership) + auc_ovr(-scores, membership)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_single_class_undefined(self):
        with pytest.raises(UndefinedAuc):
            auc_ovr([0.1, 0.9], [True, True])
        with pytest.raises(UndefinedAuc):
            auc_ovr([0.1, 0.9], [False, False])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        assert issubclass(NonFiniteScore, PgmError)
        with pytest.raises(NonFiniteScore):
            auc_ovr([0.1, bad, 0.7, 0.3], [True, True, False, False])

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=4,
            max_size=25,
        ),
        st.randoms(use_true_random=False),
    )
    def test_invariant_under_monotone_transform(self, scores, rand):
        scores = np.round(np.asarray(scores), 6)
        membership = np.array([rand.random() < 0.5 for _ in scores])
        if membership.all() or not membership.any():
            membership[0] = True
            membership[-1] = False
        base = auc_ovr(scores, membership)
        assert auc_ovr(3.0 * scores + 7.0, membership) == pytest.approx(base, abs=1e-12)
        assert auc_ovr(np.tanh(scores / 200.0), membership) == pytest.approx(
            base, abs=1e-9
        )


def mid_rank_oracle(values):
    """Rank of each value: the mean of the 1-based positions its tie group spans."""
    return [
        (sum(w < v for w in values) + sum(w <= v for w in values) + 1) / 2
        for v in values
    ]


class TestRankdata:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_mid_rank_oracle(self, data):
        pool = data.draw(
            st.lists(
                st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=5
            )
        )
        values = data.draw(st.lists(st.sampled_from(pool), max_size=30))
        assert rankdata(values).tolist() == mid_rank_oracle(values)


class TestMetricReport:
    def test_perfect_predictions(self):
        true = np.array([0, 0, 1, 1, 2, 2])
        scores = np.eye(3)[true]
        report = report_from_predictions(true, true, scores, 3)
        assert report.accuracy == 1.0
        assert report.macro_accuracy == 1.0
        assert report.macro_auc == 1.0
        assert report.per_class_auc == (1.0, 1.0, 1.0)
        assert report.degenerate == ()

    def test_flat_names(self):
        true = np.array([0, 1, 0, 1])
        pred = np.array([0, 1, 1, 1])
        scores = np.array([[0.9, 0.1], [0.2, 0.8], [0.4, 0.6], [0.3, 0.7]])
        flat = report_from_predictions(true, pred, scores, 2, positive_class=1).flat()
        expected = {"accuracy", "macro_accuracy", "macro_auc"}
        for i in range(2):
            expected |= {
                f"auc_class_{i}",
                f"precision_class_{i}",
                f"recall_class_{i}",
                f"specificity_class_{i}",
                f"f1_class_{i}",
            }
        expected |= {"precision", "recall", "specificity", "f1"}
        assert set(flat) == expected
        assert flat["recall"] == flat["recall_class_1"]

    def test_missing_class_flags_auc(self):
        true = np.array([0, 0, 1, 1])
        pred = np.array([0, 0, 1, 1])
        scores = np.array([[0.9, 0.1, 0.0]] * 2 + [[0.1, 0.9, 0.0]] * 2)
        report = report_from_predictions(true, pred, scores, 3)
        assert report.per_class_auc[2] is None
        assert "auc_class_2" in report.degenerate
        assert report.macro_auc == pytest.approx(1.0)

    def test_positive_class_needs_two_classes(self):
        true = np.array([0, 1, 2])
        scores = np.eye(3)
        with pytest.raises(LabelOutOfRange):
            report_from_predictions(true, true, scores, 3, positive_class=1)

    def test_score_shape_checked(self):
        with pytest.raises(DimMismatch):
            report_from_predictions([0, 1], [0, 1], np.zeros((2, 3)), 2)


class TestWinLoss:
    def test_worked_example(self):
        table = {
            "a": {0: 0.9, 1: 0.7, 2: 0.6},
            "b": {0: 0.8, 1: 0.7, 2: 0.65},
        }
        result = win_loss(table)
        assert result.names == ("a", "b")
        np.testing.assert_allclose(result.matrix, [[0.0, 1 / 3], [1 / 3, 0.0]])

    def test_ties_count_for_neither(self):
        result = win_loss({"a": {0: 0.5}, "b": {0: 0.5}})
        np.testing.assert_array_equal(result.matrix, np.zeros((2, 2)))

    def test_none_counts_for_neither(self):
        result = win_loss({"a": {0: 0.9, 1: None}, "b": {0: 0.2, 1: 0.1}})
        np.testing.assert_allclose(result.matrix, [[0.0, 0.5], [0.0, 0.0]])

    def test_class_set_mismatch(self):
        with pytest.raises(ClassSetMismatch):
            win_loss({"a": {0: 0.5}, "b": {1: 0.5}})
        with pytest.raises(ClassSetMismatch):
            win_loss({})


class TestMetricDifference:
    def test_worked_example(self):
        diff = metric_difference(
            {"accuracy": 0.80, "macro_auc": 0.91},
            {"accuracy": 0.7952, "macro_auc": 0.93},
        )
        assert diff["accuracy"] == pytest.approx(0.0048, abs=1e-12)
        assert diff["macro_auc"] == pytest.approx(-0.02, abs=1e-12)

    def test_none_propagates(self):
        diff = metric_difference({"auc": None}, {"auc": 0.5})
        assert diff["auc"] is None

    def test_metric_set_mismatch(self):
        with pytest.raises(MetricSetMismatch):
            metric_difference({"accuracy": 0.5}, {"f1": 0.5})
