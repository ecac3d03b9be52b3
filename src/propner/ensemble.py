"""The BIO tag rules, k-fold splitting and F1-weighted voting over
per-fold predictions.

Votes are cast token-level over label distributions (soft voting) by
default; ``hard=True`` first collapses each fold to a one-hot vote. The
voted tag sequence is repaired into valid BIO before span scoring.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

# Used with fullmatch: "$" would let "O\n" through. A lone surrogate, which
# UTF-8 cannot encode, is refused like whitespace.
TAG_PATTERN = re.compile(r"O|[BI]-[^\s\ud800-\udfff]+")


def check_tag(tag: str) -> str:
    """``tag`` if it is a BIO tag: ``O``, ``B-X`` or ``I-X``."""
    if not TAG_PATTERN.fullmatch(tag):
        raise ValueError(f"invalid BIO tag {tag!r}")
    return tag


def check_labels(labels: list[str]) -> list[str]:
    """``labels`` if a model can have them: a non-empty list of distinct BIO
    tags in sorted order, so that an argmax tie goes to the smallest label."""
    if not isinstance(labels, list) or not labels or not all(isinstance(label, str) for label in labels):
        raise ValueError("'labels' must be a non-empty list of strings")
    try:
        for label in labels:
            check_tag(label)
    except ValueError as exc:
        raise ValueError(f"'labels': {exc}") from None
    if any(a >= b for a, b in zip(labels, labels[1:])):
        raise ValueError("'labels' must be distinct and in sorted order")
    return labels


def extract_spans(tags: list[str]) -> set[tuple[int, int, str]]:
    """Maximal runs as (start, end, type) triples. A run of type X starts at
    ``B-X``, or at an ``I-X`` that does not continue a run of type X, and
    goes on over ``I-X``."""
    spans = set()
    start, current = 0, None
    for i, tag in enumerate(tags):
        entity_type = None if tag == "O" else check_tag(tag)[2:]
        if tag[0] == "B" or entity_type != current:
            if current is not None:
                spans.add((start, i, current))
            start, current = i, entity_type
    if current is not None:
        spans.add((start, len(tags), current))
    return spans


def repair_bio(tags: list[str]) -> list[str]:
    """The tags of ``extract_spans(tags)``: an orphan ``I-X`` becomes
    ``B-X``, everything else is unchanged. Idempotent."""
    repaired = ["O"] * len(tags)
    for start, end, entity_type in extract_spans(tags):
        repaired[start:end] = [f"B-{entity_type}"] + [f"I-{entity_type}"] * (end - start - 1)
    return repaired


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
    Labels are distinct and sorted, so an argmax tie goes to the smallest
    label. Every fold covers the first fold's sentences in its order: each
    fold has as many distributions as the first, and each has the row count
    of the first fold's at its place, one row per token, and one column per
    label. A fold of other shapes raises a ValueError.
    """

    labels: list[str]
    weights: list[float]
    distributions: list[list[np.ndarray]]  # [fold][sentence] -> (n_tokens, n_labels)

    def __post_init__(self) -> None:
        if len(self.weights) != len(self.distributions):
            raise ValueError(f"{len(self.weights)} weights for {len(self.distributions)} folds")
        if not all(math.isfinite(w) and w >= 0 for w in self.weights):
            raise ValueError("fold weights must be finite and non-negative")
        if not any(w > 0 for w in self.weights):
            raise ValueError("at least one fold weight must be positive")
        check_labels(self.labels)
        shapes = [(len(dist), len(self.labels)) for dist in self.distributions[0]]
        for number, fold in enumerate(self.distributions, start=1):
            if [dist.shape for dist in fold] != shapes:
                raise ValueError(f"fold {number} does not have one distribution for each of the {len(shapes)} sentences "
                                 f"of fold 1, with one row per token and one column per label ({len(self.labels)})")


def kfold_split(dataset: list, k: int, seed: int) -> FoldPlan:
    """Seeded shuffle then round-robin fold assignment; sizes differ by <= 1."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if k > len(dataset):
        raise ValueError(f"k={k} exceeds dataset size {len(dataset)}")
    if type(seed) is not int or seed < 0:
        raise ValueError(f"'seed' must be an integer of at least 0, got {seed!r}")
    ids = [sentence.id for sentence in dataset]
    if len(set(ids)) != len(ids):
        raise ValueError("sentence ids must be unique for fold assignment")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(ids))
    assignments = {ids[idx]: position % k for position, idx in enumerate(order)}
    return FoldPlan(k=k, assignments=assignments, seed=seed)


def weighted_vote(preds: WeightedPredictions, hard: bool = False) -> list[list[str]]:
    """Per-token weighted vote, argmax ties going to the smallest label.

    Each fold's sentences are stacked into one (tokens, labels) array, one
    fold at a time, and its weighted votes are added, in fold order, to one
    float64 score array over all tokens; the voted tags are then split by
    sentence and repaired."""
    first = preds.distributions[0]
    if not first:
        return []
    scores = np.zeros((sum(len(dist) for dist in first), len(preds.labels)))
    one_hot = np.eye(len(preds.labels))
    for weight, dists in zip(preds.weights, preds.distributions):
        fold = np.concatenate(dists)
        scores += weight * (one_hot[fold.argmax(axis=1)] if hard else fold)
    tags = [preds.labels[i] for i in scores.argmax(axis=1).tolist()]
    voted, start = [], 0
    for dist in first:
        voted.append(repair_bio(tags[start : start + len(dist)]))
        start += len(dist)
    return voted
