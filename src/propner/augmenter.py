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
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from propner.ensemble import check_tag
from propner.inputs import check_utf8, parse_lines, write_text
from propner.kbstore import CONTEXT_SEPARATOR
from propner.matcher import EntityMatch, Sentence

CLS_TOKEN = "[CLS]"
SEP_TOKEN = "[SEP]"
SEGMENT_SEPARATOR = "$"

MASK_MODES = ("default", "strict-paper")


@dataclass(frozen=True)
class Segment:
    """Sequence positions of one kept span: the entity (in the sentence copy)
    and its appended segment (entity echo plus context tokens)."""

    entity_positions: range
    context_positions: range


@dataclass(eq=False)
class AttentionMask:
    """The mask the encoder reads as it is: ``bits`` is a (size, size) bool
    array, ``bits[i, j]`` True iff query i may attend key j."""

    bits: np.ndarray


@dataclass(frozen=True)
class AugmentedInput:
    """An assembled input. ``gold_tags`` holds one tag per sentence token, or
    None when unlabeled. Its tokens, segments and tags are held as tuples,
    so the layout and ``mask_mode``, checked at construction, hold for the
    input's life. The input stores no mask: ``mask`` derives a fresh one
    from the layout on each read, where the encoder reads it, so it cannot
    disagree with it and no input holds a (size, size) array."""

    tokens: tuple[str, ...]
    n_sentence: int
    segments: tuple[Segment, ...]
    gold_tags: tuple[str, ...] | None
    sentence_id: str = ""
    mask_mode: str = "default"

    def __post_init__(self) -> None:
        gold = self.gold_tags  # checked before it is copied, which would make a string one tag a character
        if gold is not None and (
            not isinstance(gold, (list, tuple)) or len(gold) != self.n_sentence or not all(isinstance(t, str) for t in gold)
        ):
            raise ValueError(f"'gold_tags' must be null or {self.n_sentence} strings, one per sentence token")
        object.__setattr__(self, "tokens", tuple(self.tokens))
        object.__setattr__(self, "segments", tuple(self.segments))
        object.__setattr__(self, "gold_tags", None if gold is None else tuple(gold))
        _check_layout(len(self.tokens), self.n_sentence, self.segments, self.mask_mode)

    @property
    def mask(self) -> AttentionMask:
        """The entity-aware mask of the layout, built anew on each read.

        Both modes set the full sentence block (queries and keys below
        n_sentence+2) and let each entity span attend its own segment. The
        strict-paper mode stops there, leaving segment positions with
        all-zero query rows; the default mode additionally mirrors
        entity<->segment attention, lets a segment attend itself, and gives
        "$" separators diagonal self-attention, so every query row has at
        least one key."""
        size, block = len(self.tokens), self.n_sentence + 2
        bits = np.zeros((size, size), dtype=bool)
        bits[:block, :block] = True
        default = self.mask_mode == "default"
        for seg in self.segments:
            ent = slice(seg.entity_positions.start, seg.entity_positions.stop)
            ctx = slice(seg.context_positions.start, seg.context_positions.stop)
            bits[ent, ctx] = True
            if default:
                bits[ctx, ent] = True
                bits[ctx, ctx] = True
        if default:
            # Diagonal cells from (block, block) on, a flat stride of size+1.
            # Segment diagonals are set already; this adds the "$" separators.
            bits.flat[block * (size + 1) :: size + 1] = True
        return AttentionMask(bits=bits)


def _span_context(group: list[EntityMatch]) -> str:
    """The context of one span: a lone entity's context as it is; for several,
    their labels in the order given, each label once."""
    if len(group) == 1:
        return group[0].context
    labels = (label for pair in group for label in pair.context.split(CONTEXT_SEPARATOR) if label)
    return CONTEXT_SEPARATOR.join(dict.fromkeys(labels))


def assemble(sentence: Sentence, pairs: list[EntityMatch], max_len: int, mask_mode: str = "default") -> AugmentedInput:
    """Build the augmented token sequence and segment layout.

    Adjacent pairs over the same span (one per qid of an ambiguous surface)
    form one segment. Segments are kept all-or-nothing in priority order
    (entity span length desc, start asc) while the total length stays within
    ``max_len``, then laid out in sentence order. A sentence that alone
    does not fit ``max_len`` raises ValueError; it is never truncated.
    """
    n = len(sentence.tokens)
    if max_len < n + 2:
        raise ValueError(f"sentence {sentence.id!r} needs {n + 2} positions but max_len is {max_len}")
    spans = []  # (start, end, segment tokens: entity echo plus context)
    for (start, end), group in groupby(pairs, key=lambda m: (m.start, m.end)):
        if spans and start < spans[-1][1]:
            raise ValueError("pairs must be start-sorted, and distinct spans must not overlap")
        spans.append((start, end, [*sentence.tokens[start:end], *_span_context(list(group)).split()]))

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
        gold_tags=sentence.gold_tags,
        sentence_id=sentence.id,
        mask_mode=mask_mode,
    )


def _check_range(positions: range, name: str, low: int, high: int) -> None:
    """Check ``positions`` to be non-empty, unit-stepped and inside [low, high)."""
    if positions.step != 1 or not positions:
        raise ValueError(f"{name} {positions} must be non-empty with step 1")
    if positions.start < low or positions.stop > high:
        raise ValueError(f"{name} range [{positions.start}, {positions.stop}) outside [{low}, {high})")


def _check_layout(size: int, n_sentence: int, segments: tuple[Segment, ...], mode: str) -> None:
    """Check a layout that ``AugmentedInput.mask`` can fill: a known mask
    mode, tokens that hold the sentence block, entity ranges in the
    sentence, context ranges after [SEP], and no two ranges overlapping."""
    if mode not in MASK_MODES:
        raise ValueError(f"unknown mask mode {mode!r}")
    block = n_sentence + 2
    if n_sentence < 0 or size < block:
        raise ValueError(f"{size} tokens cannot hold a sentence of {n_sentence} plus [CLS] and [SEP]")
    ranges = []
    for seg in segments:
        _check_range(seg.entity_positions, "entity", 1, n_sentence + 1)
        _check_range(seg.context_positions, "context", block, size)
        ranges += (seg.entity_positions, seg.context_positions)
    ranges.sort(key=lambda positions: positions.start)
    if any(cur.start < prev.stop for prev, cur in zip(ranges, ranges[1:])):
        raise ValueError("segment ranges overlap")


def _mask_bits(aug: AugmentedInput) -> str:
    """The pairs of format 1's ``mask_bits``, written from the layout: the
    set mask bits outside the sentence block, in the row order of
    ``np.argwhere``. Entity rows attend their context; in the default mode,
    context rows attend their entity and then their context, and every
    other row after [SEP] attends itself."""

    def pairs(columns) -> str:
        return ", ".join([f"[\0, {column}]" for column in columns])

    blocks = []  # (first row, stop row, the pairs of each row, "\0" standing for the row)
    for seg in aug.segments:
        ent, ctx = seg.entity_positions, seg.context_positions
        blocks.append((ent.start, ent.stop, pairs(ctx)))
        if aug.mask_mode == "default":
            blocks.append((ctx.start, ctx.stop, pairs([*ent, *ctx])))
    if aug.mask_mode == "default":
        row = aug.n_sentence + 2
        for start, stop, _ in sorted(blocks[1::2]):  # the context blocks
            blocks.append((row, start, "[\0, \0]"))
            row = stop
        blocks.append((row, len(aug.tokens), "[\0, \0]"))
    rows = [template.replace("\0", str(row)) for start, stop, template in sorted(blocks) for row in range(start, stop)]
    return ", ".join(rows)


def to_json_line(aug: AugmentedInput) -> str:
    """The aug-JSONL line of an input (format 1), without its newline: keys
    sorted, non-ASCII text as it is. ``mask_bits`` lists the set bits
    outside the implicit all-ones sentence block for readers of the format;
    ``from_json_dict`` ignores it, as the mask is derived from the layout,
    and ``read_jsonl`` skips it undecoded when it is the one written here."""
    segments = [{"context": [s.context_positions.start, s.context_positions.stop],
                 "entity": [s.entity_positions.start, s.entity_positions.stop]} for s in aug.segments]
    # "mask_bits" sorts between "id" and "mask_mode"; the rest of the line is encoded in two halves around it.
    head, tail = (json.dumps(half, sort_keys=True, ensure_ascii=False) for half in (
        {"gold_tags": aug.gold_tags, "id": aug.sentence_id},
        {"mask_mode": aug.mask_mode, "n_sentence": aug.n_sentence, "segments": segments, "tokens": aug.tokens},
    ))
    return f'{head[:-1]}, "mask_bits": [{_mask_bits(aug)}], {tail[1:]}'


def check_id_and_tokens(sentence_id, tokens) -> None:
    """Check a record's id and its sentence tokens: each must be a non-empty
    string without whitespace that UTF-8 can encode, and there must be at
    least one token, as ``read_conll`` makes them, so that a prediction
    file's ``# id`` header and token lines can carry them."""
    if not isinstance(sentence_id, str) or sentence_id.split() != [sentence_id]:
        raise ValueError(f"'id' must be a non-empty string without whitespace, got {sentence_id!r}")
    if not isinstance(tokens, list) or not set(map(type, tokens)) <= {str} or " ".join(tokens).split() != tokens:
        raise ValueError("sentence tokens must be non-empty strings without whitespace")
    if not tokens:
        raise ValueError("the sentence has no tokens")
    check_utf8(f"{sentence_id} {' '.join(tokens)}")


def _range(bounds: list[int]) -> range:
    if [type(bound) for bound in bounds] != [int, int]:  # a bool would be written back as an int
        raise TypeError(f"a segment range must be two integers, got {bounds!r}")
    return range(*bounds)


def from_json_dict(data: dict) -> AugmentedInput:
    """Rebuild an input from its JSON form. Raises KeyError, TypeError or
    ValueError on a malformed record, ``check_id_and_tokens`` included.
    Every token must encode as UTF-8, since ``train`` writes the vocabulary
    into the model file."""
    tokens, n_sentence = data["tokens"], data["n_sentence"]
    if not isinstance(tokens, list) or not set(map(type, tokens)) <= {str}:
        raise TypeError("'tokens' must be a list of strings")
    check_utf8("".join(tokens))
    if type(n_sentence) is not int:  # not a bool either, which would be written back as one
        raise TypeError(f"'n_sentence' must be an integer, got {n_sentence!r}")
    check_id_and_tokens(data["id"], tokens[1 : n_sentence + 1])
    return AugmentedInput(
        tokens=tokens,
        n_sentence=n_sentence,
        segments=[Segment(_range(seg["entity"]), _range(seg["context"])) for seg in data["segments"]],
        gold_tags=data["gold_tags"],
        sentence_id=data["id"],
        mask_mode=data["mask_mode"],
    )


def _decode(line: str) -> AugmentedInput:
    """``from_json_dict(json.loads(line))``, without decoding a
    ``mask_bits`` that is the one the writer would write.

    The line is cut at the writer's delimiters, the first
    ``', "mask_bits": ['`` and the first ``'], "mask_mode": '`` after it.
    The rest, with ``', "mask_mode": '`` joined back, is decoded; its input
    is kept if ``_mask_bits`` of it equals the text cut out. Every other
    line, and one whose rest does not decode or check, is decoded whole.

    This is sound. The ``"`` before ``mask_mode`` in the rest follows a
    space, so it is not escaped: it opens or closes a string. It cannot
    close one, because a bare ``mask_mode`` is not JSON, so it opens a key,
    and the comma before it parts two members of an object. The line is
    the rest with a member ``"mask_bits": [...]`` put back before that key,
    and its value, as ``_mask_bits`` writes it, is a list of integer pairs.
    So the whole line decodes to the same data plus that member, and
    ``from_json_dict`` reads no ``mask_bits``, at any depth."""
    head, cut, rest = line.partition(', "mask_bits": [')
    bits, cut_end, tail = rest.partition('], "mask_mode": ')
    if cut and cut_end:
        try:
            aug = from_json_dict(json.loads(f'{head}, "mask_mode": {tail}'))
        except (KeyError, TypeError, ValueError):
            pass
        else:
            if _mask_bits(aug) == bits:
                return aug
    return from_json_dict(json.loads(line))


def write_jsonl(augs: list[AugmentedInput], path) -> None:
    write_text(path, (to_json_line(aug) + "\n" for aug in augs))


def read_jsonl(path, max_len: int | None = None, labeled: bool = False) -> list[AugmentedInput]:
    """Load an aug-JSONL file. A malformed line, a repeated id, a gold tag
    that is not a BIO tag, an input longer than ``max_len`` or, if
    ``labeled``, an input without gold tags raises an InputError naming
    ``path:line``. Each distinct tag is checked once.

    A ``mask_bits`` that is the one ``to_json_line`` writes is skipped
    without being decoded (see ``_decode``); any other is decoded with the
    whole line and ignored, so a line that is not JSON is still refused."""
    tags: set[str] = set()
    ids: set[str] = set()

    def parse(line: str) -> AugmentedInput | None:
        if not line.strip():
            return None
        aug = _decode(line)
        if aug.sentence_id in ids:
            raise ValueError(f"duplicate id {aug.sentence_id!r}")
        ids.add(aug.sentence_id)
        if max_len is not None and len(aug.tokens) > max_len:
            raise ValueError(f"input of length {len(aug.tokens)} exceeds max_len {max_len}")
        if labeled and not aug.gold_tags:
            raise ValueError(f"input {aug.sentence_id!r} has no gold tags to train on")
        if not tags.issuperset(aug.gold_tags or ()):
            tags.update(map(check_tag, aug.gold_tags))
        return aug

    return parse_lines(path, parse)
