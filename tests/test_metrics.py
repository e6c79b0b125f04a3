import numpy as np
import pytest
from hypothesis import given, strategies as st

from platerec.metrics import (
    ConfusionCounts, EarlyStopState, b_score, compute_metrics,
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

    def test_roundtrip_dict(self):
        r = compute_metrics(ConfusionCounts(tp=3, tn=2, fp=1, fn=4))
        from platerec.metrics import MetricsReport
        assert MetricsReport.from_dict(r.to_dict()) == r


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


class TestEarlyStop:

    def test_stop_after_patience_one(self):
        state = EarlyStopState(patience=1)
        assert state.update(0.5, 1, lambda: "w1") is True
        assert state.update(0.6, 2, lambda: "w2") is True
        assert state.update(0.6, 3, lambda: "w3") is False  # tie does not reset
        assert state.best_epoch == 2
        assert state.best_snapshot == "w2"

    def test_rising_scores_never_stop(self):
        state = EarlyStopState(patience=3)
        for epoch in range(1, 100):
            assert state.update(epoch / 100.0, epoch, lambda: epoch) is True

    def test_constant_score_stops_at_patience_plus_one(self):
        state = EarlyStopState(patience=12)
        stopped_at = None
        for epoch in range(1, 100):
            if not state.update(0.7, epoch, lambda: epoch):
                stopped_at = epoch
                break
        assert stopped_at == 13
        assert state.best_epoch == 1

    def test_snapshot_taken_once_per_strict_improvement(self):
        state = EarlyStopState(patience=10)
        taken = []
        for epoch, score in enumerate([0.5, 0.5, 0.7, 0.6, 0.7, 0.8, 0.8], start=1):
            state.update(score, epoch, lambda: taken.append(epoch) or epoch)
        assert taken == [1, 3, 6]  # never on a tie or a drop
        assert state.best_snapshot == 6

    def test_invalid_patience(self):
        with pytest.raises(ValueError):
            EarlyStopState(patience=0)

    @given(st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=40),
           st.integers(1, 10))
    def test_snapshot_matches_maximum(self, scores, patience):
        state = EarlyStopState(patience=patience)
        seen = []
        for epoch, score in enumerate(scores, start=1):
            seen.append(score)
            if not state.update(score, epoch, lambda: score):
                break
        assert state.best_score == max(seen)
        assert state.best_snapshot == max(seen)
