import json
from dataclasses import asdict

import numpy as np
import pytest

from spectralca.metrics import (
    PARAMS_REF_MILLIONS,
    TIME_REF_S,
    ConfusionMatrix,
    DegenerateMarginalsError,
    EvalReport,
    average_accuracy,
    kappa,
    objective_j,
    overall_accuracy,
    per_class_accuracy,
)


def textbook_kappa(counts):
    """Independent re-derivation: observed vs expected agreement from marginals."""
    counts = np.asarray(counts, dtype=np.float64)
    m = counts.sum()
    p_o = np.trace(counts) / m
    p_e = 0.0
    for c in range(counts.shape[0]):
        p_e += (counts[c, :].sum() / m) * (counts[:, c].sum() / m)
    return (p_o - p_e) / (1.0 - p_e)


class TestOverallAccuracy:
    def test_diagonal_only(self):
        assert overall_accuracy(ConfusionMatrix(np.diag([3, 2, 5]))) == 1.0

    def test_hand_arithmetic(self):
        assert overall_accuracy(ConfusionMatrix([[2, 0], [1, 1]])) == 0.75

    def test_all_off_diagonal(self):
        assert overall_accuracy(ConfusionMatrix([[0, 4], [3, 0]])) == 0.0


class TestAverageAccuracy:
    def test_hand_arithmetic(self):
        assert average_accuracy(ConfusionMatrix([[2, 0], [1, 1]])) == pytest.approx(0.75)

    def test_perfect(self):
        assert average_accuracy(ConfusionMatrix(np.diag([1, 9, 4]))) == 1.0

    def test_empty_class_excluded(self):
        cm = ConfusionMatrix([[5, 0, 0], [0, 0, 0], [1, 0, 1]])
        assert average_accuracy(cm) == pytest.approx((1.0 + 0.5) / 2)
        assert per_class_accuracy(cm) == [1.0, None, 0.5]


class TestKappa:
    def test_perfect_diagonal(self):
        assert kappa(ConfusionMatrix(np.diag([2, 3]))) == 1.0

    def test_uniform_matrix_gives_zero(self):
        assert kappa(ConfusionMatrix([[1, 1], [1, 1]])) == pytest.approx(0.0)

    def test_degenerate_but_perfect(self):
        # all mass in one row and column forces p_e == 1, and in any
        # realizable matrix that also forces p_o == 1
        assert kappa(ConfusionMatrix([[7]])) == 1.0

    def test_matches_textbook_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            counts = rng.integers(0, 30, size=(5, 5))
            counts[0, 0] += 1  # nonempty
            cm = ConfusionMatrix(counts)
            try:
                ours = kappa(cm)
            except DegenerateMarginalsError:
                continue
            assert ours == pytest.approx(textbook_kappa(counts), abs=1e-10)

    def test_kappa_below_oa_when_chance_positive(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            counts = rng.integers(0, 20, size=(4, 4)) + np.diag(rng.integers(1, 10, 4))
            cm = ConfusionMatrix(counts)
            p_o = overall_accuracy(cm)
            rows = counts.sum(axis=1)
            cols = counts.sum(axis=0)
            p_e = float((rows * cols).sum()) / cm.total ** 2
            if p_e > 0 and p_o < 1:
                assert kappa(cm) < p_o
            elif p_o == 1.0:
                assert kappa(cm) == 1.0


class TestBruteForceOracle:
    def test_metric_trio_matches_counting_loop(self):
        rng = np.random.default_rng(42)
        k = 6
        y_true = rng.integers(0, k, size=10_000)
        y_pred = rng.integers(0, k, size=10_000)

        counts = np.zeros((k, k), dtype=np.int64)
        for t, p in zip(y_true, y_pred):
            counts[t, p] += 1

        cm = ConfusionMatrix.from_predictions(y_true, y_pred, k)
        np.testing.assert_array_equal(cm.counts, counts)

        correct = sum(1 for t, p in zip(y_true, y_pred) if t == p)
        assert overall_accuracy(cm) == correct / 10_000

        recalls = []
        for c in range(k):
            nc = (y_true == c).sum()
            if nc:
                recalls.append(((y_true == c) & (y_pred == c)).sum() / nc)
        assert average_accuracy(cm) == pytest.approx(float(np.mean(recalls)), abs=0)
        assert kappa(cm) == pytest.approx(textbook_kappa(counts), abs=1e-14)

    def test_oa_equals_aa_for_uniform_recall(self):
        cm = ConfusionMatrix([[8, 2, 0], [0, 8, 2], [2, 0, 8]])
        assert overall_accuracy(cm) == pytest.approx(average_accuracy(cm))


class TestObjective:
    def test_pure_error_weighting(self):
        assert objective_j(0.31, 0.0, 0.0) == pytest.approx(0.31 / 3.0)

    def test_hand_value_at_reference_point(self):
        assert (TIME_REF_S, PARAMS_REF_MILLIONS) == (50.0, 6.628)
        j = objective_j(0.0666, 50.0, 6.628)
        assert j == pytest.approx((0.0666 + 2.0) / 3.0, abs=1e-12)
        assert j == pytest.approx(0.6889, abs=1e-4)

    def test_normalization_at_reference_point(self):
        # each reference scale scores 1, weighted 1/3 like the error
        assert objective_j(0.0, TIME_REF_S, 0.0) == pytest.approx(1.0 / 3.0)
        assert objective_j(0.0, 0.0, PARAMS_REF_MILLIONS) == pytest.approx(1.0 / 3.0)
        e = 0.25
        assert objective_j(e, TIME_REF_S, PARAMS_REF_MILLIONS) == pytest.approx((e + 2.0) / 3.0)

    def test_monotone_in_each_argument(self):
        base = objective_j(0.1, 10.0, 2.0)
        assert objective_j(0.2, 10.0, 2.0) >= base
        assert objective_j(0.1, 11.0, 2.0) >= base
        assert objective_j(0.1, 10.0, 2.5) >= base

    @pytest.mark.parametrize("time_s", [-1.0, -1e-9, float("nan"), float("inf")])
    def test_negative_or_nonfinite_time_rejected(self, time_s):
        with pytest.raises(ValueError, match="inference time"):
            objective_j(0.1, time_s, 2.0)


class TestEvalReport:
    def test_invariants(self):
        with pytest.raises(ValueError):
            EvalReport(oa=1.2, aa=0.5, kappa=0.0)
        with pytest.raises(ValueError):
            EvalReport(oa=0.5, aa=0.5, kappa=-1.5)

    def test_json_round_trip(self):
        report = EvalReport(oa=0.9, aa=0.85, kappa=0.8, per_class=[1.0, None, 0.7],
                            infer_time_s=1.25, params_millions=0.38, objective_j=0.4)
        text = report.to_json()
        keys = set(json.loads(text))
        assert keys == {"oa", "aa", "kappa", "per_class", "infer_time_s",
                        "params_millions", "objective_j"}
        assert json.loads(text) == asdict(report)
