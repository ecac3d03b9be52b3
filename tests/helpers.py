"""Seeded random-case generators shared by the unit and acceptance suites."""

from __future__ import annotations

import json

import numpy as np

from propner.augmenter import AugmentedInput, assemble
from propner.ensemble import WeightedPredictions
from propner.kbstore import DumpErrorReport, KnowledgeBase, build_knowledge_base, parse_dump
from propner.matcher import EntityMatch, Sentence, retrieve

WORD_POOL = [f"w{i}" for i in range(12)]
CONTEXT_POOL = [f"c{i}" for i in range(10)]


def record_line(qid: str, label: str, aliases: list[str] | None = None, p31=(), p279=(), p106=()) -> str:
    return json.dumps(
        {
            "id": qid,
            "labels": {"en": label},
            "aliases": {"en": aliases or []},
            "claims": {"P31": list(p31), "P279": list(p279), "P106": list(p106)},
        }
    )


def kb_from_surfaces(surfaces: list[str]) -> KnowledgeBase:
    """A KB whose entities are labeled with the given surfaces verbatim."""
    lines = [record_line(f"Q{i + 1}", surface) for i, surface in enumerate(surfaces)]
    report = DumpErrorReport()
    kb = build_knowledge_base(parse_dump(lines, report), "en")
    assert not len(report)
    return kb


def random_matcher_case(rng: np.random.Generator) -> tuple[KnowledgeBase, Sentence]:
    """Random dictionary (<= 50 surfaces of 1-4 tokens) and sentence
    (<= 20 tokens) over a small shared word pool, so collisions, nesting and
    multi-qid surfaces all occur."""
    n_surfaces = int(rng.integers(1, 51))
    surfaces = []
    for _ in range(n_surfaces):
        length = int(rng.integers(1, 5))
        words = [WORD_POOL[int(rng.integers(len(WORD_POOL)))] for _ in range(length)]
        surfaces.append(" ".join(words))
    kb = kb_from_surfaces(surfaces)
    n_tokens = int(rng.integers(1, 21))
    tokens = [WORD_POOL[int(rng.integers(len(WORD_POOL)))] for _ in range(n_tokens)]
    return kb, Sentence("r", tokens)


def random_pairs(rng: np.random.Generator, n_tokens: int, tokens: list[str], max_pairs: int = 3) -> list[EntityMatch]:
    pairs = []
    pos = 0
    while pos < n_tokens and len(pairs) < max_pairs:
        if rng.random() < 0.45:
            length = int(rng.integers(1, min(3, n_tokens - pos) + 1))
            n_context = int(rng.integers(0, 5))
            context_words = [CONTEXT_POOL[int(rng.integers(len(CONTEXT_POOL)))] for _ in range(n_context)]
            pairs.append(
                EntityMatch(
                    start=pos,
                    end=pos + length,
                    surface=" ".join(tokens[pos : pos + length]),
                    qid=f"Q{len(pairs) + 1}",
                    context=" | ".join(context_words),
                )
            )
            pos += length
        pos += 1
    return pairs


def random_bio_tags(rng: np.random.Generator, n: int) -> list[str]:
    tags: list[str] = []
    while len(tags) < n:
        if rng.random() < 0.3:
            length = min(n - len(tags), int(rng.integers(1, 3)))
            kind = ("X", "Y")[int(rng.integers(2))]
            tags.append(f"B-{kind}")
            tags.extend(f"I-{kind}" for _ in range(length - 1))
        else:
            tags.append("O")
    return tags


def random_augmented(rng: np.random.Generator, mask_mode: str, labeled: bool = False) -> AugmentedInput:
    n = int(rng.integers(1, 11))
    tokens = [WORD_POOL[int(rng.integers(len(WORD_POOL)))] for _ in range(n)]
    sentence = Sentence("r", tokens, random_bio_tags(rng, n) if labeled else None)
    pairs = random_pairs(rng, n, tokens)
    max_len = n + 2 + int(rng.integers(0, 25))
    return assemble(sentence, pairs, max_len, mask_mode)


def retrieved_augmented(kb: KnowledgeBase, matcher, sentence: Sentence, max_len: int, mask_mode: str) -> AugmentedInput:
    return assemble(sentence, retrieve(kb, matcher, sentence), max_len, mask_mode)


def stacked_predictions(labels: list[str], weights: list[float], folds: list[list[np.ndarray]]) -> WeightedPredictions:
    """``WeightedPredictions`` of ``folds``, each one (tokens, labels) array
    per sentence: the sentences' lengths are the first fold's row counts,
    and each fold's arrays are stacked into one."""
    lengths = [len(dist) for dist in folds[0]] if folds else []
    return WeightedPredictions(labels, weights, lengths,
                               [np.concatenate(fold) if fold else np.zeros((0, len(labels))) for fold in folds])
