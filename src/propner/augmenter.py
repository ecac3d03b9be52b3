"""Input assembly and the entity-aware attention mask.

The augmented sequence is laid out as

    [CLS] <sentence tokens> [SEP] <segment_0> $ <segment_1> $ ...

where each segment belongs to one matched entity span: it echoes the span's
tokens and then its context string split on whitespace (the "|" between
property labels stays a token of its own). A span that names several
entities gets one segment whose context lists their labels in the order
given, each label once. The binary mask M lets the whole sentence block
attend itself and links each entity span to its own segment only: contexts
of different spans can never see each other.

An input holds what its aug-JSONL line holds: segment ranges, gold tags for
the sentence tokens, and the mask mode; the mask is derived from those.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from propner.ensemble import check_tag
from propner.inputs import parse_lines
from propner.kbstore import CONTEXT_SEPARATOR
from propner.matcher import EntityMatch, Sentence

CLS_TOKEN = "[CLS]"
SEP_TOKEN = "[SEP]"
SEGMENT_SEPARATOR = "$"

MASK_MODES = ("default", "strict-paper")


class SentenceTooLongError(ValueError):
    """The sentence alone does not fit the length budget; it is never truncated."""


@dataclass(frozen=True)
class Segment:
    """Sequence positions of one kept span: the entity (in the sentence copy)
    and its appended segment (entity echo plus context tokens)."""

    entity_positions: range
    context_positions: range


@dataclass
class AttentionMask:
    size: int
    bits: np.ndarray  # (size, size) uint8, bits[i, j] = 1 iff query i may attend key j

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AttentionMask):
            return NotImplemented
        return self.size == other.size and np.array_equal(self.bits, other.bits)


@dataclass
class AugmentedInput:
    """An assembled input. ``gold_tags`` holds one tag per sentence token, or
    None when unlabeled. ``mask`` is computed from the layout and
    ``mask_mode`` at construction, so it cannot disagree with them."""

    tokens: list[str]
    n_sentence: int
    segments: list[Segment]
    gold_tags: list[str] | None
    sentence_id: str = ""
    mask_mode: str = "default"
    mask: AttentionMask = field(init=False)

    def __post_init__(self) -> None:
        gold = self.gold_tags
        if gold is not None and (
            not isinstance(gold, list) or len(gold) != self.n_sentence or not all(isinstance(tag, str) for tag in gold)
        ):
            raise ValueError(f"'gold_tags' must be null or {self.n_sentence} strings, one per sentence token")
        self.mask = _mask_from_layout(len(self.tokens), self.n_sentence, self.segments, self.mask_mode)


def _span_context(group: list[EntityMatch]) -> str:
    """The context of one span: a lone entity's context as it is; for several,
    their labels in the order given, each label once."""
    if len(group) == 1:
        return group[0].context
    labels = (label for pair in group for label in pair.context.split(CONTEXT_SEPARATOR) if label)
    return CONTEXT_SEPARATOR.join(dict.fromkeys(labels))


def assemble(sentence: Sentence, pairs: list[EntityMatch], max_len: int, mask_mode: str = "default") -> AugmentedInput:
    """Build the augmented token sequence, segment layout and mask.

    Adjacent pairs over the same span (one per qid of an ambiguous surface)
    form one segment. Segments are kept all-or-nothing in priority order
    (entity span length desc, start asc) while the total length stays within
    ``max_len``, then laid out in sentence order.
    """
    n = len(sentence.tokens)
    if max_len < n + 2:
        raise SentenceTooLongError(
            f"sentence {sentence.id!r} needs {n + 2} positions but max_len is {max_len}"
        )
    spans = []  # (start, end, segment tokens: entity echo plus context)
    for (start, end), group in groupby(pairs, key=lambda m: (m.start, m.end)):
        if spans and start < spans[-1][1]:
            raise ValueError("pairs must be start-sorted, and distinct spans must not overlap")
        spans.append((start, end, sentence.tokens[start:end] + _span_context(list(group)).split()))

    kept = []
    total = n + 2
    for span in sorted(spans, key=lambda s: (s[0] - s[1], s[0])):
        cost = len(span[2]) + (1 if kept else 0)
        if total + cost <= max_len:
            kept.append(span)
            total += cost
    kept.sort(key=lambda s: s[0])

    tokens = [CLS_TOKEN, *sentence.tokens, SEP_TOKEN]
    segments = []
    for index, (start, end, suffix) in enumerate(kept):
        if index:
            tokens.append(SEGMENT_SEPARATOR)
        segments.append(Segment(range(start + 1, end + 1), range(len(tokens), len(tokens) + len(suffix))))
        tokens.extend(suffix)

    return AugmentedInput(
        tokens=tokens,
        n_sentence=n,
        segments=segments,
        gold_tags=None if sentence.gold_tags is None else list(sentence.gold_tags),
        sentence_id=sentence.id,
        mask_mode=mask_mode,
    )


def _segment_slice(positions: range, name: str, low: int, high: int) -> slice:
    """``positions`` as a slice, checked to be non-empty, unit-stepped and
    inside [low, high)."""
    if positions.step != 1 or not positions:
        raise ValueError(f"{name} {positions} must be non-empty with step 1")
    if positions.start < low or positions.stop > high:
        raise ValueError(f"{name} range [{positions.start}, {positions.stop}) outside [{low}, {high})")
    return slice(positions.start, positions.stop)


def _mask_from_layout(size: int, n_sentence: int, segments: list[Segment], mode: str) -> AttentionMask:
    """Entity-aware mask of a layout.

    Both modes set the full sentence block (queries and keys below
    n_sentence+2) and let each entity span attend its own segment. The
    strict-paper mode stops there, leaving segment positions with all-zero
    query rows; the default mode additionally mirrors entity<->segment
    attention, lets a segment attend itself, and gives "$" separators
    diagonal self-attention, so every query row has at least one key.
    Entity ranges must lie in the sentence, context ranges after [SEP],
    and no two ranges may overlap.
    """
    if mode not in MASK_MODES:
        raise ValueError(f"unknown mask mode {mode!r}")
    block = n_sentence + 2
    if n_sentence < 0 or size < block:
        raise ValueError(f"{size} tokens cannot hold a sentence of {n_sentence} plus [CLS] and [SEP]")
    bits = np.zeros((size, size), dtype=np.uint8)
    bits[:block, :block] = 1
    spans = []
    for seg in segments:
        ent = _segment_slice(seg.entity_positions, "entity", 1, n_sentence + 1)
        ctx = _segment_slice(seg.context_positions, "context", block, size)
        spans += (ent, ctx)
        bits[ent, ctx] = 1
        if mode == "default":
            bits[ctx, ent] = 1
            bits[ctx, ctx] = 1
    spans.sort()
    if any(cur.start < prev.stop for prev, cur in zip(spans, spans[1:])):
        raise ValueError("segment ranges overlap")
    if mode == "default":
        # Diagonal cells from (block, block) on, a flat stride of size+1.
        # Segment diagonals are set already; this adds the "$" separators.
        bits.flat[block * (size + 1) :: size + 1] = 1
    return AttentionMask(size=size, bits=bits)


def to_json_dict(aug: AugmentedInput) -> dict:
    """JSON-serializable form (format 1). ``mask_bits`` lists the set bits
    outside the implicit all-ones sentence block for readers of the format;
    ``from_json_dict`` ignores it and derives the mask from the layout."""
    block = aug.n_sentence + 2
    extra_bits = aug.mask.bits.copy()
    extra_bits[:block, :block] = 0
    return {
        "id": aug.sentence_id,
        "tokens": list(aug.tokens),
        "n_sentence": aug.n_sentence,
        "segments": [
            {
                "entity": [seg.entity_positions.start, seg.entity_positions.stop],
                "context": [seg.context_positions.start, seg.context_positions.stop],
            }
            for seg in aug.segments
        ],
        "mask_mode": aug.mask_mode,
        "mask_bits": np.argwhere(extra_bits).tolist(),
        "gold_tags": aug.gold_tags,
    }


def check_sentence_id(value) -> str:
    """``value`` if it is a non-empty string without whitespace, the form a
    ``# id <string>`` header takes, so a prediction file can carry it."""
    if not isinstance(value, str) or value.split() != [value]:
        raise ValueError(f"'id' must be a non-empty string without whitespace, got {value!r}")
    return value


def _range(bounds: list[int]) -> range:
    start, stop = bounds
    return range(start, stop)


def from_json_dict(data: dict) -> AugmentedInput:
    """Rebuild an input from its JSON form. Raises KeyError, TypeError or
    ValueError on a malformed record. The sentence tokens must be non-empty
    and free of whitespace, as ``read_conll`` makes them, so a prediction
    file can carry them."""
    tokens = data["tokens"]
    if not isinstance(tokens, list) or not all(isinstance(token, str) for token in tokens):
        raise TypeError("'tokens' must be a list of strings")
    sentence = tokens[1 : data["n_sentence"] + 1]
    if " ".join(sentence).split() != sentence:
        raise ValueError("sentence tokens must be non-empty and free of whitespace")
    return AugmentedInput(
        tokens=tokens,
        n_sentence=data["n_sentence"],
        segments=[Segment(_range(seg["entity"]), _range(seg["context"])) for seg in data["segments"]],
        gold_tags=data.get("gold_tags"),
        sentence_id=check_sentence_id(data["id"]),
        mask_mode=data.get("mask_mode", "default"),
    )


def write_jsonl(augs: list[AugmentedInput], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        for aug in augs:
            handle.write(json.dumps(to_json_dict(aug), sort_keys=True, ensure_ascii=False) + "\n")


def read_jsonl(path) -> list[AugmentedInput]:
    """Load an aug-JSONL file; a malformed line, or a gold tag that is not a
    BIO tag, raises an InputError naming ``path:line``. Each distinct tag is
    checked once."""
    tags: set[str] = set()

    def parse(line: str) -> AugmentedInput | None:
        if not line.strip():
            return None
        aug = from_json_dict(json.loads(line))
        if not tags.issuperset(aug.gold_tags or ()):
            tags.update(map(check_tag, aug.gold_tags))
        return aug

    return parse_lines(path, parse)
