"""K-fold splitting and F1-weighted voting over per-fold predictions.

Votes are cast token-level over label distributions (soft voting) by
default; ``hard=True`` first collapses each fold to a one-hot vote. The
voted tag sequence is repaired into valid BIO before span scoring.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

TAG_PATTERN = re.compile(r"^(O|[BI]-\S+)$")


def check_tag(tag: str) -> str:
    """``tag`` if it is a BIO tag: ``O``, ``B-X`` or ``I-X``."""
    if not TAG_PATTERN.match(tag):
        raise ValueError(f"invalid BIO tag {tag!r}")
    return tag


@dataclass
class FoldPlan:
    k: int
    assignments: dict[str, int]
    seed: int

    def fold_ids(self, fold: int) -> list[str]:
        return [sid for sid, f in self.assignments.items() if f == fold]


@dataclass
class WeightedPredictions:
    """One label distribution per token per fold, plus a weight per fold.

    Weights are the folds' validation micro F1 scores, used unnormalized:
    the voted argmax is invariant to scaling them by any positive constant.
    """

    labels: list[str]
    weights: list[float]
    distributions: list[list[np.ndarray]]  # [fold][sentence] -> (n_tokens, n_labels)

    def __post_init__(self) -> None:
        if len(self.weights) != len(self.distributions):
            raise ValueError(f"{len(self.weights)} weights for {len(self.distributions)} folds")
        if not self.weights:
            raise ValueError("no folds to vote over")
        if any(w < 0 for w in self.weights):
            raise ValueError("fold weights must be non-negative")
        if not any(w > 0 for w in self.weights):
            raise ValueError("at least one fold weight must be positive")
        first = self.distributions[0]
        for fold, dists in enumerate(self.distributions):
            if len(dists) != len(first):
                raise ValueError(f"fold {fold} covers {len(dists)} sentences, fold 0 covers {len(first)}")
            for s, dist in enumerate(dists):
                if dist.shape != first[s].shape:
                    raise ValueError(f"fold {fold} sentence {s}: token/label counts differ across folds")
                if dist.shape[1] != len(self.labels):
                    raise ValueError(f"distribution has {dist.shape[1]} columns for {len(self.labels)} labels")


def kfold_split(dataset: list, k: int, seed: int) -> FoldPlan:
    """Seeded shuffle then round-robin fold assignment; sizes differ by <= 1."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if k > len(dataset):
        raise ValueError(f"k={k} exceeds dataset size {len(dataset)}")
    ids = [sentence.id for sentence in dataset]
    if len(set(ids)) != len(ids):
        raise ValueError("sentence ids must be unique for fold assignment")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(ids))
    assignments = {ids[idx]: position % k for position, idx in enumerate(order)}
    return FoldPlan(k=k, assignments=assignments, seed=seed)


def _argmax_label(scores: np.ndarray, labels: list[str]) -> str:
    best = scores.max()
    return min(label for label, value in zip(labels, scores) if value == best)


def weighted_vote(preds: WeightedPredictions, hard: bool = False) -> list[list[str]]:
    """Per-token weighted vote, argmax ties broken lexicographically."""
    n_labels = len(preds.labels)
    voted = []
    for s in range(len(preds.distributions[0])):
        scores = np.zeros_like(preds.distributions[0][s])
        for weight, dists in zip(preds.weights, preds.distributions):
            if hard:
                one_hot = np.zeros_like(dists[s])
                for t in range(dists[s].shape[0]):
                    one_hot[t, preds.labels.index(_argmax_label(dists[s][t], preds.labels))] = 1.0
                scores += weight * one_hot
            else:
                scores += weight * dists[s]
        tags = [_argmax_label(scores[t], preds.labels) for t in range(scores.shape[0])]
        voted.append(repair_bio(tags))
    return voted


def repair_bio(tags: list[str]) -> list[str]:
    """Turn orphan continuations into span starts.

    An I-X whose predecessor is neither B-X nor I-X becomes B-X; everything
    else is unchanged. Idempotent.
    """
    repaired = []
    prev_type = None
    for tag in map(check_tag, tags):
        if tag == "O":
            repaired.append(tag)
            prev_type = None
            continue
        prefix, entity_type = tag.split("-", 1)
        if prefix == "I" and entity_type != prev_type:
            repaired.append(f"B-{entity_type}")
        else:
            repaired.append(tag)
        prev_type = entity_type
    return repaired
