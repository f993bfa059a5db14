"""Evaluation metrics: confusion matrix, overall/average accuracy, Cohen's
kappa, and the objective J that trades error against inference time and
model size."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np


class DegenerateMarginalsError(ValueError):
    """Kappa is undefined: expected agreement is 1 but observed is not."""


@dataclass
class ConfusionMatrix:
    """Integer count grid; rows are true classes, columns predictions."""

    counts: np.ndarray

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.ndim != 2 or self.counts.shape[0] != self.counts.shape[1]:
            raise ValueError(f"confusion matrix must be square, got {self.counts.shape}")
        if (self.counts < 0).any():
            raise ValueError("confusion matrix counts must be nonnegative")

    @classmethod
    def from_predictions(cls, y_true, y_pred, num_classes: int) -> "ConfusionMatrix":
        y_true = np.asarray(y_true, dtype=np.int64)
        y_pred = np.asarray(y_pred, dtype=np.int64)
        if y_true.shape != y_pred.shape:
            raise ValueError("label/prediction length mismatch")
        if y_true.min(initial=0) < 0 or y_true.max(initial=0) >= num_classes:
            raise ValueError("true label outside [0, num_classes)")
        if y_pred.min(initial=0) < 0 or y_pred.max(initial=0) >= num_classes:
            raise ValueError("prediction outside [0, num_classes)")
        counts = np.zeros((num_classes, num_classes), dtype=np.int64)
        np.add.at(counts, (y_true, y_pred), 1)
        return cls(counts)

    @property
    def num_classes(self) -> int:
        return self.counts.shape[0]

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def row_sums(self) -> np.ndarray:
        return self.counts.sum(axis=1)


def overall_accuracy(cm: ConfusionMatrix) -> float:
    if cm.total == 0:
        raise ValueError("empty confusion matrix")
    return float(np.trace(cm.counts)) / cm.total


def average_accuracy(cm: ConfusionMatrix) -> float:
    """Mean per-class recall; classes absent from the test set are excluded."""
    rows = cm.row_sums
    present = rows > 0
    if not present.any():
        raise ValueError("empty confusion matrix")
    recalls = np.diag(cm.counts)[present] / rows[present]
    return float(recalls.mean())


def per_class_accuracy(cm: ConfusionMatrix) -> list[float | None]:
    """Per-class recall, None for classes with no test samples."""
    rows = cm.row_sums
    diag = np.diag(cm.counts)
    return [
        float(d) / r if r > 0 else None for d, r in zip(diag.tolist(), rows.tolist())
    ]


def kappa(cm: ConfusionMatrix) -> float:
    """Chance-corrected agreement (p_o - p_e) / (1 - p_e) with p_e from the
    row/column marginals. When p_e == 1 the formula is undefined: perfect
    observed agreement returns 1.0, anything else is an error."""
    m = cm.total
    if m == 0:
        raise ValueError("empty confusion matrix")
    p_o = overall_accuracy(cm)
    rows = cm.counts.sum(axis=1).astype(np.float64)
    cols = cm.counts.sum(axis=0).astype(np.float64)
    p_e = float((rows * cols).sum()) / (m * m)
    if p_e >= 1.0:
        if p_o == 1.0:
            return 1.0
        raise DegenerateMarginalsError("degenerate marginals")
    return (p_o - p_e) / (1.0 - p_e)


# Reference scales of objective J: an inference time of TIME_REF_S seconds
# and a model of PARAMS_REF_MILLIONS million parameters each score 1.
TIME_REF_S = 50.0
PARAMS_REF_MILLIONS = 6.628


def objective_j(error: float, time_s: float, params_millions: float) -> float:
    """(E + T/TIME_REF_S + P/PARAMS_REF_MILLIONS) / 3: error, inference time
    and model size, equally weighted."""
    if not (math.isfinite(time_s) and time_s >= 0):
        raise ValueError(f"inference time must be finite and >= 0 s, got {time_s}")
    w = 1 / 3  # each term weighted, not the sum divided, so J rounds as in reports on file
    return w * error + w * time_s / TIME_REF_S + w * params_millions / PARAMS_REF_MILLIONS


@dataclass
class EvalReport:
    """OA/AA/kappa plus the efficiency numbers, serializable with stable keys.
    infer_time_s is the wall time of predicting all test_samples entries."""

    oa: float
    aa: float
    kappa: float
    per_class: list[float | None]
    infer_time_s: float
    test_samples: int
    params_millions: float
    objective_j: float

    def __post_init__(self):
        if not 0.0 <= self.oa <= 1.0:
            raise ValueError(f"OA {self.oa} outside [0, 1]")
        if not 0.0 <= self.aa <= 1.0:
            raise ValueError(f"AA {self.aa} outside [0, 1]")
        if not -1.0 <= self.kappa <= 1.0:
            raise ValueError(f"kappa {self.kappa} outside [-1, 1]")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)
