"""Self-training: iteratively promote the model's most confident
predictions on the unlabeled pool to training labels and retrain.

A sample is selected when its top class probability strictly exceeds the
confidence threshold; once pseudo-labeled its label is frozen and it
never returns to the pool, so no sample is selected twice across rounds.
Retraining warm-starts from the current weights.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from .classifier import PatchClassifier
from .data import PatchSet, merge_patchsets
from .trainer import EVAL_BATCH, TrainConfig, evaluate, train


@dataclass(frozen=True)
class SslConfig:
    threshold: float = 0.9
    rounds: int = 3
    per_round_cap: int = 5000
    epochs_per_round: int = 5

    def __post_init__(self):
        if not 0.0 < self.threshold <= 1.0:
            raise ValueError(f"threshold {self.threshold} outside (0, 1]")
        if self.per_round_cap < 0 or self.rounds < 0 or self.epochs_per_round < 0:
            raise ValueError("rounds, cap, and epochs must be nonnegative")


@dataclass
class PseudoLabelSet:
    """Selected pool entries: positions, pixel coords, predicted classes
    (1-based raster ids), and confidences, all strictly above threshold."""

    indices: np.ndarray
    coords: np.ndarray
    labels: np.ndarray
    confidences: np.ndarray
    threshold: float
    round_index: int

    def __post_init__(self):
        if len(self.indices) and not (self.confidences > self.threshold).all():
            raise ValueError("every confidence must strictly exceed the threshold")

    def __len__(self) -> int:
        return len(self.indices)


def pseudo_label_select(model: PatchClassifier, pool: PatchSet, threshold: float,
                        round_index: int = 0, cap: int | None = None) -> PseudoLabelSet:
    """Confidence = max class probability; selection is strict (> threshold).
    With a cap, the highest-confidence entries win; ties resolve by pool order."""
    if len(pool) == 0:
        return PseudoLabelSet(np.empty(0, dtype=np.int64), np.empty((0, 2), dtype=np.int64),
                              np.empty(0, dtype=np.int64), np.empty(0), threshold, round_index)
    probs = np.concatenate([model.predict_proba(patches) for _, patches
                            in pool.batches(np.arange(len(pool)), EVAL_BATCH)])
    confidences = probs.max(axis=1).astype(np.float64)
    selected = np.nonzero(confidences > threshold)[0]
    if cap is not None and len(selected) > cap:
        order = np.argsort(-confidences[selected], kind="stable")
        selected = selected[order[:cap]]
        selected.sort()
    return PseudoLabelSet(
        indices=selected,
        coords=pool.coords[selected].copy(),
        labels=probs[selected].argmax(axis=1).astype(np.int64) + 1,
        confidences=confidences[selected],
        threshold=threshold,
        round_index=round_index,
    )


def self_training_round(model: PatchClassifier, train_set: PatchSet, pool: PatchSet,
                        ssl_cfg: SslConfig, train_cfg: TrainConfig, round_index: int = 0,
                        ) -> tuple[PatchSet, PatchSet, PseudoLabelSet, dict]:
    """One round: select, move selections into the training set under their
    predicted labels, and retrain (warm start). An empty selection skips
    retraining, leaving the model bit-identical."""
    pseudo = pseudo_label_select(model, pool, ssl_cfg.threshold, round_index,
                                 cap=ssl_cfg.per_round_cap)
    stats = {
        "round": round_index,
        "pool_before": len(pool),
        "selected": len(pseudo),
        "mean_confidence": float(pseudo.confidences.mean()) if len(pseudo) else None,
    }
    if len(pseudo) == 0:
        stats.update({"pool_after": len(pool), "train_size": len(train_set), "epochs": 0})
        return train_set, pool, pseudo, stats

    promoted = pool.subset(pseudo.indices, labels=pseudo.labels)
    keep = np.setdiff1d(np.arange(len(pool)), pseudo.indices)
    pool = pool.subset(keep)
    train_set = merge_patchsets(train_set, promoted)

    round_cfg = dataclasses.replace(
        train_cfg, epochs=ssl_cfg.epochs_per_round, seed=train_cfg.seed + round_index + 1,
        eval_cadence=0, target_oa=None,
    )
    train(model, train_set, round_cfg)
    stats.update({"pool_after": len(pool), "train_size": len(train_set),
                  "epochs": ssl_cfg.epochs_per_round})
    return train_set, pool, pseudo, stats


def run_self_training(model: PatchClassifier, train_set: PatchSet, pool: PatchSet,
                      ssl_cfg: SslConfig, train_cfg: TrainConfig,
                      test_set: PatchSet | None = None,
                      log_path=None) -> tuple[PatchSet, PatchSet, list[dict]]:
    """Run the configured number of rounds; per-round stats (and test OA
    when a test set is given) append to a line-delimited log."""
    rounds: list[dict] = []
    for r in range(ssl_cfg.rounds):
        train_set, pool, _, stats = self_training_round(
            model, train_set, pool, ssl_cfg, train_cfg, round_index=r
        )
        if test_set is not None:
            stats["test_oa"] = evaluate(model, test_set).oa
        rounds.append(stats)
        if log_path is not None:
            with open(log_path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(stats, sort_keys=True) + "\n")
    return train_set, pool, rounds
