"""Input assembly and the entity-aware attention mask.

The augmented sequence is laid out as

    [CLS] <sentence tokens> [SEP] <segment_0> $ <segment_1> $ ...

where each segment echoes the matched entity's tokens and then its context
string split on whitespace (the "|" between property labels stays a token
of its own). The binary mask M lets the whole sentence block attend itself
and links each entity span to its own segment only: contexts of different
entities can never see each other.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from propner.matcher import EntityMatch, Sentence

CLS_TOKEN = "[CLS]"
SEP_TOKEN = "[SEP]"
SEGMENT_SEPARATOR = "$"

MASK_MODES = ("default", "strict-paper")


class SentenceTooLongError(ValueError):
    """The sentence alone does not fit the length budget; it is never truncated."""


@dataclass(frozen=True)
class Segment:
    """Sequence positions of one kept pair: entity span (in the sentence copy)
    and its appended segment (entity echo plus context tokens)."""

    entity_positions: frozenset[int]
    context_positions: frozenset[int]


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
    """An assembled input. ``mask`` is computed from the layout and
    ``mask_mode`` at construction, so it cannot disagree with them."""

    tokens: list[str]
    n_sentence: int
    segments: list[Segment]
    label_alignment: list[str | None]
    sentence_id: str = ""
    mask_mode: str = "default"
    mask: AttentionMask = field(init=False)

    def __post_init__(self) -> None:
        self.mask = _mask_from_layout(len(self.tokens), self.n_sentence, self.segments, self.mask_mode)


def _segment_suffix(sentence: Sentence, pair: EntityMatch) -> list[str]:
    return sentence.tokens[pair.start : pair.end] + pair.context.split()


def assemble(sentence: Sentence, pairs: list[EntityMatch], max_len: int, mask_mode: str = "default") -> AugmentedInput:
    """Build the augmented token sequence, segment layout and mask.

    Pairs are kept all-or-nothing in priority order (entity span length
    desc, start asc) while the total length stays within ``max_len``; kept
    pairs are then laid out in sentence order. Gold tags, when present, are
    aligned to positions 1..n; every other position is ignored by the loss.
    """
    n = len(sentence.tokens)
    if max_len < n + 2:
        raise SentenceTooLongError(
            f"sentence {sentence.id!r} needs {n + 2} positions but max_len is {max_len}"
        )
    for prev, cur in zip(pairs, pairs[1:]):
        if cur.start < prev.end:
            raise ValueError("pairs must be non-overlapping and start-sorted")

    by_priority = sorted(pairs, key=lambda m: (m.start - m.end, m.start))
    kept = []
    total = n + 2
    for pair in by_priority:
        cost = len(_segment_suffix(sentence, pair)) + (1 if kept else 0)
        if total + cost <= max_len:
            kept.append(pair)
            total += cost
    kept.sort(key=lambda m: m.start)

    tokens = [CLS_TOKEN, *sentence.tokens, SEP_TOKEN]
    segments = []
    for index, pair in enumerate(kept):
        if index:
            tokens.append(SEGMENT_SEPARATOR)
        seg_start = len(tokens)
        tokens.extend(_segment_suffix(sentence, pair))
        segments.append(
            Segment(
                entity_positions=frozenset(range(pair.start + 1, pair.end + 1)),
                context_positions=frozenset(range(seg_start, len(tokens))),
            )
        )

    label_alignment: list[str | None] = [None] * len(tokens)
    if sentence.gold_tags is not None:
        label_alignment[1 : n + 1] = sentence.gold_tags

    return AugmentedInput(
        tokens=tokens,
        n_sentence=n,
        segments=segments,
        label_alignment=label_alignment,
        sentence_id=sentence.id,
        mask_mode=mask_mode,
    )


def _segment_slice(positions: frozenset[int], name: str, low: int, high: int) -> slice:
    """The contiguous run ``positions`` covers, checked to lie in [low, high)."""
    if not positions:
        raise ValueError(f"empty {name} range")
    start, stop = min(positions), max(positions) + 1
    if len(positions) != stop - start:
        raise ValueError(f"{name} positions are not contiguous")
    if start < low or stop > high:
        raise ValueError(f"{name} range [{start}, {stop}) outside [{low}, {high})")
    return slice(start, stop)


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


def _ranges(positions: frozenset[int]) -> list[int]:
    return [min(positions), max(positions) + 1]


def to_json_dict(aug: AugmentedInput) -> dict:
    """JSON-serializable form (format 1). ``mask_bits`` lists the set bits
    outside the implicit all-ones sentence block for readers of the format;
    ``from_json_dict`` ignores it and derives the mask from the layout."""
    block = aug.n_sentence + 2
    rows, cols = np.nonzero(aug.mask.bits)
    extra_bits = [[int(i), int(j)] for i, j in zip(rows, cols) if i >= block or j >= block]
    gold = aug.label_alignment[1 : aug.n_sentence + 1]
    return {
        "id": aug.sentence_id,
        "tokens": list(aug.tokens),
        "n_sentence": aug.n_sentence,
        "segments": [
            {"entity": _ranges(seg.entity_positions), "context": _ranges(seg.context_positions)}
            for seg in aug.segments
        ],
        "mask_mode": aug.mask_mode,
        "mask_bits": extra_bits,
        "gold_tags": None if any(tag is None for tag in gold) else list(gold),
    }


def _positions(seg: dict, name: str, size: int) -> frozenset[int]:
    start, stop = seg[name]
    # Bounded before the set is built, so a huge range cannot exhaust
    # memory; AugmentedInput then checks where the range may lie.
    if not 0 <= start <= stop <= size:
        raise ValueError(f"{name} range [{start}, {stop}) outside the {size} tokens")
    return frozenset(range(start, stop))


def from_json_dict(data: dict) -> AugmentedInput:
    """Rebuild an input from its JSON form. Raises KeyError, TypeError or
    ValueError on a malformed record."""
    tokens = data["tokens"]
    if not isinstance(tokens, list) or not all(isinstance(token, str) for token in tokens):
        raise TypeError("'tokens' must be a list of strings")
    n = data["n_sentence"]
    segments = [
        Segment(
            entity_positions=_positions(seg, "entity", len(tokens)),
            context_positions=_positions(seg, "context", len(tokens)),
        )
        for seg in data["segments"]
    ]
    label_alignment: list[str | None] = [None] * len(tokens)
    gold = data.get("gold_tags")
    if gold is not None:
        if not isinstance(gold, list) or len(gold) != n or not all(isinstance(tag, str) for tag in gold):
            raise ValueError(f"'gold_tags' must be null or {n} strings, one per sentence token")
        label_alignment[1 : n + 1] = gold
    return AugmentedInput(
        tokens=tokens,
        n_sentence=n,
        segments=segments,
        label_alignment=label_alignment,
        sentence_id=data.get("id", ""),
        mask_mode=data.get("mask_mode", "default"),
    )


def write_jsonl(augs: list[AugmentedInput], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        for aug in augs:
            handle.write(json.dumps(to_json_dict(aug), sort_keys=True, ensure_ascii=False) + "\n")


def read_jsonl(path) -> list[AugmentedInput]:
    """Load an aug-JSONL file; a malformed line raises a one-line ValueError
    naming ``path:line``."""
    augs = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                augs.append(from_json_dict(json.loads(line)))
            except KeyError as exc:
                raise ValueError(f"{path}:{line_number}: missing key {exc}") from None
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{line_number}: {exc}") from None
    return augs
