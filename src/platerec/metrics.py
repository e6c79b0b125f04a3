"""Confusion-matrix metrics and the balanced score.

The balanced score (b_score) is the harmonic mean of sensitivity and
specificity; it is the quantity monitored when training the recommender.
Undefined ratios (zero denominators) are reported as None, never silently 0.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np


@dataclass
class ConfusionCounts:
    tp: int = 0
    tn: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def total(self):
        return self.tp + self.tn + self.fp + self.fn


@dataclass
class MetricsReport:
    sensitivity: float | None
    specificity: float | None
    precision: float | None
    f1: float | None
    b_score: float | None
    counts: ConfusionCounts
    threshold: float

    def to_dict(self):
        return asdict(self)


def _fmt(v):
    return "n/a" if v is None else f"{v:.4f}"


def format_report(report: MetricsReport) -> str:
    lines = [
        f"Sensitivity  {_fmt(report.sensitivity)}",
        f"Specificity  {_fmt(report.specificity)}",
        f"Precision    {_fmt(report.precision)}",
        f"F1-Score     {_fmt(report.f1)}",
        f"B-Score      {_fmt(report.b_score)}",
    ]
    return "\n".join(lines)


def confusion_counts(probabilities, labels, threshold) -> ConfusionCounts:
    """Counts with the convention: probability >= threshold predicts 1."""
    probabilities = np.asarray(probabilities)
    labels = np.asarray(labels)
    if probabilities.shape != labels.shape:
        raise ValueError(
            f"length mismatch: {probabilities.shape} vs {labels.shape}"
        )
    pred = probabilities >= threshold
    pos = labels == 1
    return ConfusionCounts(
        tp=int(np.sum(pred & pos)),
        tn=int(np.sum(~pred & ~pos)),
        fp=int(np.sum(pred & ~pos)),
        fn=int(np.sum(~pred & pos)),
    )


def _ratio(num, denom):
    return None if denom == 0 else num / denom


def _harmonic(a, b):
    if a is None or b is None:
        return None
    if a == 0 and b == 0:
        return 0.0
    return 2.0 * a * b / (a + b)


def b_score(sensitivity, specificity):
    """Harmonic mean of sensitivity and specificity; (0, 0) -> 0 by convention."""
    for v in (sensitivity, specificity):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"rates must lie in [0, 1], got {v}")
    return _harmonic(sensitivity, specificity)


def compute_metrics(counts: ConfusionCounts, threshold=0.5) -> MetricsReport:
    sens = _ratio(counts.tp, counts.tp + counts.fn)
    spec = _ratio(counts.tn, counts.tn + counts.fp)
    prec = _ratio(counts.tp, counts.tp + counts.fp)
    return MetricsReport(
        sensitivity=sens,
        specificity=spec,
        precision=prec,
        f1=_harmonic(prec, sens),
        b_score=_harmonic(sens, spec),
        counts=counts,
        threshold=threshold,
    )

