"""Entity-level scoring: exact span+type matching, micro and macro F1.

A predicted span counts as a true positive only when an identical
(start, end, type) span exists in gold. Micro scores pool counts over all
classes; macro F1 is the unweighted mean of per-class F1 over the classes
that appear in gold.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Iterable

from propner.ensemble import extract_spans, repair_bio
from propner.kbstore import KnowledgeBase, normalize_surface
from propner.matcher import Sentence

logger = logging.getLogger(__name__)


@dataclass
class ClassScore:
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float


@dataclass
class EvalReport:
    per_class: dict[str, ClassScore]
    micro_precision: float
    micro_recall: float
    micro_f1: float
    macro_f1: float

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "micro": {"precision": self.micro_precision, "recall": self.micro_recall, "f1": self.micro_f1},
            "macro_f1": self.macro_f1,
            "per_class": {name: asdict(cs) for name, cs in sorted(self.per_class.items())},
        }


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def score(gold: list[list[str]], pred: list[list[str]]) -> EvalReport:
    """Score aligned tag sequences (one per sentence).

    Spans are read leniently on both sides: an orphan ``I-X`` starts a span,
    the conventional treatment of malformed BIO.
    """
    if len(gold) != len(pred):
        raise ValueError(f"{len(gold)} gold sentences vs {len(pred)} predicted")
    tp: Counter[str] = Counter()
    fp: Counter[str] = Counter()
    fn: Counter[str] = Counter()
    for i, (gold_tags, pred_tags) in enumerate(zip(gold, pred)):
        if len(gold_tags) != len(pred_tags):
            raise ValueError(f"sentence {i}: {len(gold_tags)} gold tags vs {len(pred_tags)} predicted")
        gold_spans = extract_spans(gold_tags)
        pred_spans = extract_spans(pred_tags)
        for span in pred_spans & gold_spans:
            tp[span[2]] += 1
        for span in pred_spans - gold_spans:
            fp[span[2]] += 1
        for span in gold_spans - pred_spans:
            fn[span[2]] += 1

    per_class = {}
    for name in sorted(tp.keys() | fp.keys() | fn.keys()):
        counts = (tp[name], fp[name], fn[name])
        per_class[name] = ClassScore(*counts, *_prf(*counts))

    micro = _prf(tp.total(), fp.total(), fn.total())
    gold_classes = sorted(tp.keys() | fn.keys())  # a gold span is either matched or missed
    macro = sum(per_class[name].f1 for name in gold_classes) / len(gold_classes) if gold_classes else 0.0
    return EvalReport(per_class=per_class, micro_precision=micro[0], micro_recall=micro[1], micro_f1=micro[2], macro_f1=macro)


def coverage_rate(kb: KnowledgeBase, dataset: Iterable[Sentence]) -> float:
    """Fraction of gold entity mentions whose surface is in the index.

    Counts mention occurrences, not unique surfaces. A dataset without any
    gold mention has coverage 1.0 by convention.
    """
    total = 0
    covered = 0
    for sentence in dataset:
        if sentence.gold_tags is None:
            raise ValueError(f"sentence {sentence.id!r} has no gold tags")
        tags = repair_bio(sentence.gold_tags)
        if tags != list(sentence.gold_tags):
            logger.warning("sentence %s: malformed BIO tags repaired before span extraction", sentence.id)
        for start, end, _ in sorted(extract_spans(tags)):
            total += 1
            surface = normalize_surface(" ".join(sentence.tokens[start:end]))
            if surface in kb.surface_index:
                covered += 1
    if total == 0:
        return 1.0
    return covered / total
