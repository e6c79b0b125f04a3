import numpy as np
import pytest
from hypothesis import given, strategies as st

from platerec.metrics import (
    ConfusionCounts, b_score, compute_metrics,
    confusion_counts, format_report,
)


class TestConfusionCounts:

    def test_basic(self):
        c = confusion_counts(np.array([0.9, 0.1]), np.array([1, 0]), 0.5)
        assert (c.tp, c.tn, c.fp, c.fn) == (1, 1, 0, 0)

    def test_boundary_probability_predicts_positive(self):
        c = confusion_counts(np.array([0.5]), np.array([0]), 0.5)
        assert c.fp == 1

    def test_all_positive_labels(self):
        c = confusion_counts(np.array([0.2, 0.8]), np.array([1, 1]), 0.5)
        assert c.tn == 0 and c.fp == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion_counts(np.zeros(2), np.zeros(3), 0.5)

    @given(st.lists(st.tuples(st.floats(0, 1), st.integers(0, 1)), min_size=1))
    def test_counts_sum_to_sample_count(self, pairs):
        probs = np.array([p for p, _ in pairs])
        labels = np.array([l for _, l in pairs])
        assert confusion_counts(probs, labels, 0.5).total == len(pairs)


class TestComputeMetrics:

    def test_hand_ratios(self):
        r = compute_metrics(ConfusionCounts(tp=9, fn=1, tn=4, fp=6))
        assert r.sensitivity == pytest.approx(0.9)
        assert r.specificity == pytest.approx(0.4)

    def test_empty_counts_all_undefined(self):
        r = compute_metrics(ConfusionCounts())
        assert r.sensitivity is None and r.specificity is None
        assert r.precision is None and r.f1 is None and r.b_score is None
        assert "n/a" in format_report(r)

    def test_perfect_classifier(self):
        r = compute_metrics(ConfusionCounts(tp=5, tn=5))
        for v in (r.sensitivity, r.specificity, r.precision, r.f1, r.b_score):
            assert v == pytest.approx(1.0)

    @given(st.integers(0, 50), st.integers(0, 50), st.integers(0, 50), st.integers(0, 50))
    def test_never_divides_by_zero(self, tp, tn, fp, fn):
        r = compute_metrics(ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn))
        for v in (r.sensitivity, r.specificity, r.precision, r.f1, r.b_score):
            assert v is None or 0.0 <= v <= 1.0


class TestBScore:

    def test_worked_example_unbalanced(self):
        # 0.5698..., quoted as 0.56 (two decimals, truncated)
        b = b_score(0.99, 0.40)
        assert b == pytest.approx(2 * 0.99 * 0.40 / 1.39)
        assert int(b * 100) == 56

    def test_worked_example_balanced(self):
        b = b_score(0.85, 0.70)
        assert b == pytest.approx(2 * 0.85 * 0.70 / 1.55)
        assert int(b * 100) == 76

    @given(st.floats(0, 1))
    def test_harmonic_mean_of_equals(self, x):
        assert b_score(x, x) == pytest.approx(x)

    def test_zero_annihilates(self):
        assert b_score(1.0, 0.0) == 0.0
        assert b_score(0.0, 0.0) == 0.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            b_score(1.2, 0.5)

    @given(st.floats(0, 1), st.floats(0, 1))
    def test_bounds(self, s, p):
        b = b_score(s, p)
        assert b <= 2 * min(s, p) + 1e-12
        assert b <= (s + p) / 2 + 1e-12  # harmonic <= arithmetic
        assert b == pytest.approx(b_score(p, s))  # symmetry

