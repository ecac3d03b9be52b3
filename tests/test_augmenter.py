import gc
import json
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest

from propner import augmenter
from propner.augmenter import (
    AugmentedInput,
    Segment,
    assemble,
    from_json_dict,
    read_jsonl,
    to_json_line,
    write_jsonl,
)
from propner.inputs import InputError
from propner.matcher import EntityMatch, Sentence

from helpers import random_augmented
from oracles import reference_json_line, rule_mask

VICTOR_PAIR = EntityMatch(0, 2, "victor cousin", "Q434346", "human | philosopher | politician")
VICTOR_SENTENCE = Sentence("s", ["Victor", "Cousin", "was", "a", "philosopher"], ["B-PER", "I-PER", "O", "O", "O"])


class TestAssemble:
    def test_reference_layout(self):
        aug = assemble(VICTOR_SENTENCE, [VICTOR_PAIR], 64)
        assert aug.tokens == (
            "[CLS]", "Victor", "Cousin", "was", "a", "philosopher", "[SEP]",
            "Victor", "Cousin", "human", "|", "philosopher", "|", "politician",
        )
        assert len(aug.segments) == 1
        assert aug.segments[0].entity_positions == range(1, 3)
        assert aug.segments[0].context_positions == range(7, 14)
        assert aug.gold_tags == ("B-PER", "I-PER", "O", "O", "O")
        assert len(aug.gold_tags) == aug.n_sentence

    def test_no_pairs(self):
        aug = assemble(VICTOR_SENTENCE, [], 64)
        assert aug.tokens == ("[CLS]", "Victor", "Cousin", "was", "a", "philosopher", "[SEP]")
        assert aug.segments == () and "$" not in aug.tokens

    def test_budget_keeps_longer_entity(self):
        sentence = Sentence("s", ["a", "b", "c", "d", "e", "f"])
        long_pair = EntityMatch(0, 3, "a b c", "Q1", "alpha beta")
        short_pair = EntityMatch(4, 5, "e", "Q2", "gamma")
        # base 8 tokens; long segment costs 5, short would then cost 1 + 2
        aug = assemble(sentence, [long_pair, short_pair], 13)
        assert len(aug.segments) == 1
        assert aug.segments[0].entity_positions == range(1, 4)
        assert aug.tokens[8:] == ("a", "b", "c", "alpha", "beta")

    def test_separator_between_segments_only(self):
        sentence = Sentence("s", ["a", "b", "c", "d"])
        pairs = [EntityMatch(0, 1, "a", "Q1", "x"), EntityMatch(2, 3, "c", "Q2", "y")]
        aug = assemble(sentence, pairs, 64)
        assert aug.tokens[6:] == ("a", "x", "$", "c", "y")
        assert aug.tokens.count("$") == 1

    def test_sentence_never_truncated(self):
        with pytest.raises(ValueError, match="^sentence 's' needs 7 positions but max_len is 6$"):
            assemble(VICTOR_SENTENCE, [], 6)

    def test_rejects_overlapping_pairs(self):
        with pytest.raises(ValueError):
            assemble(VICTOR_SENTENCE, [EntityMatch(0, 2, "x", "Q1"), EntityMatch(1, 3, "y", "Q2")], 64)
        with pytest.raises(ValueError):  # a span of two pairs overlapping the next span
            assemble(VICTOR_SENTENCE, [EntityMatch(0, 2, "x", "Q1"), EntityMatch(0, 2, "x", "Q2"), EntityMatch(1, 3, "y", "Q3")], 64)

    def test_empty_context_segment_is_echo_only(self):
        aug = assemble(Sentence("s", ["a", "b"]), [EntityMatch(0, 1, "a", "Q1", "")], 64)
        assert aug.tokens == ("[CLS]", "a", "b", "[SEP]", "a")
        assert aug.segments[0].context_positions == range(4, 5)


class TestAmbiguousSpan:
    """Pairs over one span, one per qid of an ambiguous surface, as
    ``retrieve`` returns them."""

    PAIRS = [
        EntityMatch(0, 2, "victor cousin", "Q1", "human | philosopher"),
        EntityMatch(0, 2, "victor cousin", "Q2", "human | politician"),
    ]

    def test_one_segment_with_merged_context(self):
        aug = assemble(VICTOR_SENTENCE, self.PAIRS, 64)
        assert aug.segments == (Segment(range(1, 3), range(7, 14)),)
        assert aug.tokens[7:] == ("Victor", "Cousin", "human", "|", "philosopher", "|", "politician")
        assert "$" not in aug.tokens

    def test_contexts_merge_in_the_order_given(self):
        aug = assemble(VICTOR_SENTENCE, self.PAIRS[::-1], 64)
        assert aug.tokens[9:] == ("human", "|", "politician", "|", "philosopher")

    def test_lone_context_kept_as_it_is(self):
        aug = assemble(Sentence("s", ["a", "b"]), [EntityMatch(0, 1, "a", "Q1", "x | x")], 64)
        assert aug.tokens[4:] == ("a", "x", "|", "x")

    def test_budget_keeps_or_drops_the_whole_span(self):
        # 7 sentence positions plus a merged segment of 7 tokens
        assert len(assemble(VICTOR_SENTENCE, self.PAIRS, 14).segments) == 1
        assert assemble(VICTOR_SENTENCE, self.PAIRS, 13).tokens == assemble(VICTOR_SENTENCE, [], 13).tokens

    def test_next_span_gets_its_own_segment(self):
        pairs = [*self.PAIRS, EntityMatch(4, 5, "philosopher", "Q3", "occupation")]
        aug = assemble(VICTOR_SENTENCE, pairs, 64)
        assert [seg.entity_positions for seg in aug.segments] == [range(1, 3), range(5, 6)]
        assert aug.tokens[14:] == ("$", "philosopher", "occupation")


class TestMask:
    def test_no_pairs_all_ones_both_modes(self):
        aug = assemble(VICTOR_SENTENCE, [], 64)
        for mode in ("default", "strict-paper"):
            mask = replace(aug, mask_mode=mode).mask
            assert mask.bits.shape == (7, 7)
            assert mask.bits.all()

    def test_strict_rows(self):
        aug = assemble(VICTOR_SENTENCE, [VICTOR_PAIR], 64, "strict-paper")
        bits = aug.mask.bits
        # entity row: full sentence block plus its own context span
        assert bits[1].tolist() == [1] * 7 + [1] * 7
        # plain sentence token row: sentence block only
        assert bits[3].tolist() == [1] * 7 + [0] * 7
        # context rows are all zero in strict mode
        assert bits[7:].sum() == 0

    def test_default_adds_transpose_and_intra_segment(self):
        aug = assemble(VICTOR_SENTENCE, [VICTOR_PAIR], 64, "default")
        bits = aug.mask.bits
        assert bits[7, 1] == 1 and bits[7, 2] == 1
        assert bits[np.ix_(range(7, 14), range(7, 14))].all()
        assert bits[7, 3] == 0  # segment cannot see non-entity sentence tokens
        assert (bits.sum(axis=1) >= 1).all()

    def test_two_pairs_cross_isolation(self):
        sentence = Sentence("s", ["a", "b", "c", "d"])
        pairs = [EntityMatch(0, 1, "a", "Q1", "x y"), EntityMatch(2, 3, "c", "Q2", "z")]
        aug = assemble(sentence, pairs, 64, "default")
        seg0, seg1 = aug.segments
        bits = aug.mask.bits
        for i in seg0.entity_positions:
            for j in seg1.context_positions:
                assert bits[i, j] == 0
        for i in seg1.entity_positions:
            for j in seg0.context_positions:
                assert bits[i, j] == 0

    @pytest.mark.parametrize("mode", ["default", "strict-paper"])
    def test_matches_rule_evaluator(self, mode):
        rng = np.random.default_rng(99)
        for _ in range(150):
            aug = random_augmented(rng, mode)
            expected = rule_mask(aug.n_sentence, len(aug.tokens), aug.segments, mode)
            assert np.array_equal(aug.mask.bits, expected)

    def test_separator_diagonal(self):
        sentence = Sentence("s", ["a", "b", "c", "d"])
        pairs = [EntityMatch(0, 1, "a", "Q1", "x"), EntityMatch(2, 3, "c", "Q2", "y")]
        aug = assemble(sentence, pairs, 64, "default")
        sep = aug.tokens.index("$")
        assert aug.mask.bits[sep].sum() == 1 and aug.mask.bits[sep, sep] == 1
        strict = replace(aug, mask_mode="strict-paper").mask
        assert strict.bits[sep].sum() == 0

    def test_pure_function_of_layout(self):
        rng = np.random.default_rng(5)
        aug = random_augmented(rng, "default")
        shuffled = AugmentedInput(
            tokens=aug.tokens,
            n_sentence=aug.n_sentence,
            segments=list(reversed(aug.segments)),
            gold_tags=aug.gold_tags,
        )
        assert np.array_equal(replace(shuffled, mask_mode="default").mask.bits, aug.mask.bits)

    def test_sentence_rows_attend_context_only_from_entity(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            aug = random_augmented(rng, "default")
            block = aug.n_sentence + 2
            entity_positions = set().union(*(s.entity_positions for s in aug.segments)) if aug.segments else set()
            for i in range(block):
                if i not in entity_positions and len(aug.tokens) > block:
                    assert aug.mask.bits[i, block:].sum() == 0

    @pytest.mark.parametrize("segments", [
        [Segment(range(1, 3), range(7, 10, 2))],  # context not contiguous
        [Segment(range(0, 2), range(7, 8))],  # entity covers [CLS]
        [Segment(range(1, 2), range(6, 8))],  # context covers [SEP]
        [Segment(range(1, 1), range(7, 8))],
        [Segment(range(1, 3), range(7, 12)), Segment(range(4, 5), range(11, 13))],
    ])
    def test_bad_layout_rejected(self, segments):
        aug = assemble(VICTOR_SENTENCE, [VICTOR_PAIR], 64)
        with pytest.raises(ValueError):
            replace(aug, segments=segments)

    def test_unknown_mode_rejected(self):
        aug = assemble(VICTOR_SENTENCE, [], 64)
        with pytest.raises(ValueError):
            replace(aug, mask_mode="loose").mask
        with pytest.raises(ValueError):
            assemble(VICTOR_SENTENCE, [], 64, "loose")

    def test_inputs_hold_no_array(self, tmp_path):
        """An input stores its layout only: nothing reachable from one that
        ``assemble``, ``read_jsonl``, ``from_json_dict`` or ``replace``
        returns is a numpy array, and its fields can be neither reassigned
        nor changed in place past the layout check."""
        rng = np.random.default_rng(8)
        augs = [replace(random_augmented(rng, mode, labeled=i % 2 == 0), sentence_id=f"{mode}-{i}")
                for mode in augmenter.MASK_MODES for i in range(20)]
        write_jsonl(augs, tmp_path / "aug.jsonl")
        built = [assemble(VICTOR_SENTENCE, [VICTOR_PAIR], 64), from_json_dict(json.loads(to_json_line(augs[0])))]
        for aug in [*augs, *built, *read_jsonl(tmp_path / "aug.jsonl")]:
            seen, stack = set(), [aug]
            while stack:
                held = stack.pop()
                if id(held) not in seen and not isinstance(held, type):
                    assert not isinstance(held, np.ndarray), aug
                    seen.add(id(held))
                    stack += gc.get_referents(held)
            for field in (held for held in (aug.tokens, aug.segments, aug.gold_tags) if held is not None):
                with pytest.raises(AttributeError):
                    field.append(None)
                with pytest.raises(TypeError):
                    field[0] = None
        with pytest.raises(FrozenInstanceError):
            augs[0].segments = [Segment(range(0, 9), range(0, 9))]


def _gapped_layout(rng: np.random.Generator, mode: str) -> AugmentedInput:
    """A layout as a hand-written file may give it: segments listed in any
    order, and rows after [SEP] that no context covers, a "$" or not."""
    n = int(rng.integers(1, 9))
    tokens = ["[CLS]", *(f"w{i}" for i in range(n)), "[SEP]"]
    segments = []
    for start in range(1, n + 1, 2):
        if rng.random() < 0.6:
            tokens += ["$"] * int(rng.integers(0, 3))
            width = int(rng.integers(1, 4))
            segments.append(Segment(range(start, start + 1), range(len(tokens), len(tokens) + width)))
            tokens += ["x"] * width
    tokens += ["$"] * int(rng.integers(0, 3))
    order = rng.permutation(len(segments))
    return AugmentedInput(tokens, n, [segments[i] for i in order], None, "g", mode)


class TestSerialization:
    @pytest.mark.parametrize("mode", ["default", "strict-paper"])
    def test_json_round_trip(self, mode):
        rng = np.random.default_rng(123)
        for _ in range(40):
            aug = random_augmented(rng, mode)
            assert from_json_dict(json.loads(to_json_line(aug))) == aug

    def test_gold_tags_preserved(self):
        aug = assemble(VICTOR_SENTENCE, [VICTOR_PAIR], 64)
        data = json.loads(to_json_line(aug))
        assert data["gold_tags"] == ["B-PER", "I-PER", "O", "O", "O"]
        assert from_json_dict(data).gold_tags == aug.gold_tags

    def test_sentence_block_not_serialized(self):
        aug = assemble(VICTOR_SENTENCE, [], 64)
        assert json.loads(to_json_line(aug))["mask_bits"] == []

    @pytest.mark.parametrize("mode", ["default", "strict-paper"])
    def test_line_matches_dense_mask_encoding(self, mode):
        """``mask_bits`` is written from the layout; the reference encodes
        ``np.argwhere`` of the dense mask outside the sentence block."""
        rng = np.random.default_rng(31)
        for _ in range(60):
            for aug in (random_augmented(rng, mode, labeled=True), _gapped_layout(rng, mode)):
                assert to_json_line(aug) == reference_json_line(aug)

    GOLDEN_LINES = [
        (
            r'{"gold_tags": ["B-PER", "O", "O", "O", "B-LOC"], "id": "q\"1", "mask_bits": [[1, 7], [1, 8], '
            r'[1, 9], [1, 10], [5, 12], [5, 13], [7, 1], [7, 7], [7, 8], [7, 9], [7, 10], [8, 1], [8, 7], [8, '
            r'8], [8, 9], [8, 10], [9, 1], [9, 7], [9, 8], [9, 9], [9, 10], [10, 1], [10, 7], [10, 8], [10, '
            r'9], [10, 10], [11, 11], [12, 5], [12, 12], [12, 13], [13, 5], [13, 12], [13, 13]], '
            r'"mask_mode": "default", "n_sentence": 5, "segments": [{"context": [7, 11], "entity": [1, 2]}, '
            r'{"context": [12, 14], "entity": [5, 6]}], "tokens": ["[CLS]", "Zoë", "said", "\"hi\"", "to", '
            r'"back\\slash", "[SEP]", "Zoë", "human", "|", "café", "$", "back\\slash", "town"]}'
        ),
        (
            r'{"gold_tags": null, "id": "s2", "mask_bits": [[1, 5], [1, 6], [1, 7], [1, 8], [1, 9], [1, 10], '
            r'[1, 11], [2, 5], [2, 6], [2, 7], [2, 8], [2, 9], [2, 10], [2, 11]], '
            r'"mask_mode": "strict-paper", "n_sentence": 3, "segments": [{"context": [5, 12], "entity": [1, '
            r'3]}], "tokens": ["[CLS]", "Victor", "Cousin", "wrote", "[SEP]", "Victor", "Cousin", "human", '
            r'"|", "philosopher", "|", "politician"]}'
        ),
        (
            r'{"gold_tags": null, "id": "s4", "mask_bits": [[1, 9], [1, 10], [3, 6], [3, 7], [5, 5], [6, 3], '
            r'[6, 6], [6, 7], [7, 3], [7, 6], [7, 7], [8, 8], [9, 1], [9, 9], [9, 10], [10, 1], [10, 9], [10, '
            r'10], [11, 11]], "mask_mode": "default", "n_sentence": 3, "segments": [{"context": [6, 8], '
            r'"entity": [3, 4]}, {"context": [9, 11], "entity": [1, 2]}], "tokens": ["[CLS]", "a", "b", "c", '
            r'"[SEP]", "x", "c", "y", "$", "a", "z", "w"]}'
        ),
        (
            r'{"gold_tags": ["O", "O", "B-X"], "id": "s5", "mask_bits": [[1, 9], [1, 10], [3, 6], [3, 7]], '
            r'"mask_mode": "strict-paper", "n_sentence": 3, "segments": [{"context": [6, 8], "entity": [3, '
            r'4]}, {"context": [9, 11], "entity": [1, 2]}], "tokens": ["[CLS]", "a", "b", "c", "[SEP]", "x", '
            r'"c", "y", "$", "a", "z", "w"]}'
        ),
        (
            r'{"gold_tags": null, "id": "s6", "mask_bits": [], "mask_mode": "default", "n_sentence": 1, '
            r'"segments": [], "tokens": ["[CLS]", "one", "[SEP]"]}'
        ),

    ]

    def test_golden_bytes(self, tmp_path):
        quoted = Sentence('q"1', ["Zoë", "said", '"hi"', "to", "back\\slash"], ["B-PER", "O", "O", "O", "B-LOC"])
        pairs = [EntityMatch(0, 1, "zoë", "Q1", "human | café"), EntityMatch(4, 5, "back\\slash", "Q2", "town")]
        ambiguous = [EntityMatch(0, 2, "victor cousin", "Q3", "human | philosopher"),
                     EntityMatch(0, 2, "victor cousin", "Q4", "human | politician")]
        # Segments out of order, with uncovered rows after [SEP] and at the end.
        tokens = ["[CLS]", "a", "b", "c", "[SEP]", "x", "c", "y", "$", "a", "z", "w"]
        segments = [Segment(range(3, 4), range(6, 8)), Segment(range(1, 2), range(9, 11))]
        augs = [
            assemble(quoted, pairs, 64),
            assemble(Sentence("s2", ["Victor", "Cousin", "wrote"]), ambiguous, 64, "strict-paper"),
            AugmentedInput(tokens, 3, segments, None, "s4", "default"),
            AugmentedInput(tokens, 3, segments, ["O", "O", "B-X"], "s5", "strict-paper"),
            assemble(Sentence("s6", ["one"]), [], 64),
        ]
        write_jsonl(augs, tmp_path / "aug.jsonl")
        assert (tmp_path / "aug.jsonl").read_bytes() == "".join(line + "\n" for line in self.GOLDEN_LINES).encode("utf-8")


def _writer_inputs(seed: int) -> list[AugmentedInput]:
    """Inputs of every layout the generators make, in both mask modes and
    with distinct ids, plus one without segments in each mode."""
    rng = np.random.default_rng(seed)
    augs = [assemble(Sentence(f"e-{mode}", ["one"]), [], 8, mode) for mode in ("default", "strict-paper")]
    for mode in ("default", "strict-paper"):
        for _ in range(15):
            augs += [random_augmented(rng, mode, labeled=True), random_augmented(rng, mode), _gapped_layout(rng, mode)]
    return [replace(aug, sentence_id=f"{index}-{aug.sentence_id}") for index, aug in enumerate(augs)]


def _variants(line: str) -> dict[str, str]:
    """A writer's line, and lines that differ from it where the decode of
    ``read_jsonl`` cuts ``mask_bits`` out."""
    data = json.loads(line)
    bits = data["mask_bits"]

    def dumps(record: dict, **options) -> str:
        return json.dumps(record, ensure_ascii=False, **options)

    return {
        "as written": line,
        "compact separators": dumps(data, sort_keys=True, separators=(",", ":")),
        "keys reversed": dumps(dict(reversed(data.items()))),
        "tokens first": dumps({"tokens": data["tokens"], **data}),
        "space inside mask_bits": line.replace('"mask_bits": [', '"mask_bits": [ ', 1),
        "mask bits edited by hand": dumps({**data, "mask_bits": [[-1, -1], [0, 99]]}, sort_keys=True),
        "one mask bit dropped": dumps({**data, "mask_bits": bits[:-1]}, sort_keys=True),
        "one mask bit added": dumps({**data, "mask_bits": [*bits, [0, 0]]}, sort_keys=True),
        "no mask_bits": dumps({key: value for key, value in data.items() if key != "mask_bits"}, sort_keys=True),
        "mask_bits not JSON": line.replace('"mask_bits": [', '"mask_bits": [[1, 07]' + (", " if bits else ""), 1),
        "escaped delimiters in a string": dumps(
            {**data, "comment": ', "mask_bits": [], "mask_mode": "strict-paper"'}, sort_keys=True),
        "nested object with mask_mode": dumps(
            {**data, "extra": {"a": 1, "mask_bits": [], "mask_mode": "loose"}}, sort_keys=True),
        "key between mask_bits and mask_mode": dumps({**data, "mask_bitz": []}, sort_keys=True),
        "mask_mode not a mode": dumps({**data, "mask_mode": "loose"}, sort_keys=True),
        "text after the object": line + " x",
    }


class TestDecode:
    """``read_jsonl`` skips a ``mask_bits`` the writer would write; what it
    reads must not differ from decoding each line whole."""

    FIRST_LINE = to_json_line(assemble(Sentence("first", ["a"]), [], 8))

    @staticmethod
    def _outcome(path: Path):
        try:
            return [(aug, aug.mask.bits.tobytes()) for aug in read_jsonl(path)]
        except InputError as exc:
            return str(exc)

    def test_same_inputs_or_error_as_a_whole_decode(self, tmp_path, monkeypatch):
        cases = []
        for index, aug in enumerate(_writer_inputs(5)):
            for name, line in _variants(to_json_line(aug)).items():
                path = tmp_path / f"{index}-{name}.jsonl"
                path.write_text(f"{self.FIRST_LINE}\n{line}\n", encoding="utf-8")
                cases.append((name, path, self._outcome(path)))
        monkeypatch.setattr(augmenter, "_decode", lambda line: from_json_dict(json.loads(line)))
        refused = set()
        for name, path, outcome in cases:
            expected = self._outcome(path)
            assert outcome == expected, (name, path.read_text(encoding="utf-8"))
            if isinstance(expected, str):
                assert expected.startswith(f"{path}:2: ")
                refused.add(name)
        assert refused == {"mask_bits not JSON", "mask_mode not a mode", "text after the object"}

    def test_writer_lines_skip_mask_bits(self, tmp_path, monkeypatch):
        """A line the writer wrote is never decoded whole: no text that
        ``json.loads`` gets holds ``mask_bits``. Without this a broken cut
        would fall back to the whole decode and go unseen."""
        augs = _writer_inputs(6)
        write_jsonl(augs, tmp_path / "aug.jsonl")
        decoded = []
        loads = json.loads
        monkeypatch.setattr(json, "loads", lambda text, *args, **options: decoded.append(text) or loads(text, *args, **options))
        assert read_jsonl(tmp_path / "aug.jsonl") == augs
        assert len(decoded) == len(augs) and not any('"mask_bits"' in text for text in decoded)
