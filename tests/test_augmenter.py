from dataclasses import replace

import numpy as np
import pytest

from propner.augmenter import (
    AugmentedInput,
    Segment,
    SentenceTooLongError,
    assemble,
    from_json_dict,
    to_json_dict,
)
from propner.matcher import EntityMatch, Sentence

from helpers import random_augmented
from oracles import rule_mask

VICTOR_PAIR = EntityMatch(0, 2, "victor cousin", "Q434346", "human | philosopher | politician")
VICTOR_SENTENCE = Sentence("s", ["Victor", "Cousin", "was", "a", "philosopher"], ["B-PER", "I-PER", "O", "O", "O"])


class TestAssemble:
    def test_reference_layout(self):
        aug = assemble(VICTOR_SENTENCE, [VICTOR_PAIR], 64)
        assert aug.tokens == [
            "[CLS]", "Victor", "Cousin", "was", "a", "philosopher", "[SEP]",
            "Victor", "Cousin", "human", "|", "philosopher", "|", "politician",
        ]
        assert len(aug.segments) == 1
        assert aug.segments[0].entity_positions == frozenset({1, 2})
        assert aug.segments[0].context_positions == frozenset(range(7, 14))
        assert aug.label_alignment[1:6] == ["B-PER", "I-PER", "O", "O", "O"]
        assert aug.label_alignment[0] is None and all(tag is None for tag in aug.label_alignment[6:])

    def test_no_pairs(self):
        aug = assemble(VICTOR_SENTENCE, [], 64)
        assert aug.tokens == ["[CLS]", "Victor", "Cousin", "was", "a", "philosopher", "[SEP]"]
        assert aug.segments == [] and "$" not in aug.tokens

    def test_budget_keeps_longer_entity(self):
        sentence = Sentence("s", ["a", "b", "c", "d", "e", "f"])
        long_pair = EntityMatch(0, 3, "a b c", "Q1", "alpha beta")
        short_pair = EntityMatch(4, 5, "e", "Q2", "gamma")
        # base 8 tokens; long segment costs 5, short would then cost 1 + 2
        aug = assemble(sentence, [long_pair, short_pair], 13)
        assert len(aug.segments) == 1
        assert aug.segments[0].entity_positions == frozenset({1, 2, 3})
        assert aug.tokens[8:] == ["a", "b", "c", "alpha", "beta"]

    def test_separator_between_segments_only(self):
        sentence = Sentence("s", ["a", "b", "c", "d"])
        pairs = [EntityMatch(0, 1, "a", "Q1", "x"), EntityMatch(2, 3, "c", "Q2", "y")]
        aug = assemble(sentence, pairs, 64)
        assert aug.tokens[6:] == ["a", "x", "$", "c", "y"]
        assert aug.tokens.count("$") == 1

    def test_sentence_never_truncated(self):
        with pytest.raises(SentenceTooLongError):
            assemble(VICTOR_SENTENCE, [], 6)

    def test_rejects_overlapping_pairs(self):
        with pytest.raises(ValueError):
            assemble(VICTOR_SENTENCE, [EntityMatch(0, 2, "x", "Q1"), EntityMatch(1, 3, "y", "Q2")], 64)

    def test_empty_context_segment_is_echo_only(self):
        aug = assemble(Sentence("s", ["a", "b"]), [EntityMatch(0, 1, "a", "Q1", "")], 64)
        assert aug.tokens == ["[CLS]", "a", "b", "[SEP]", "a"]
        assert aug.segments[0].context_positions == frozenset({4})


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
            label_alignment=aug.label_alignment,
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
        [Segment(frozenset({1, 2}), frozenset({7, 9}))],  # context not contiguous
        [Segment(frozenset({0, 1}), frozenset({7}))],  # entity covers [CLS]
        [Segment(frozenset({1}), frozenset({6, 7}))],  # context covers [SEP]
        [Segment(frozenset(), frozenset({7}))],
        [Segment(frozenset({1, 2}), frozenset(range(7, 12))), Segment(frozenset({4}), frozenset({11, 12}))],
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


class TestSerialization:
    @pytest.mark.parametrize("mode", ["default", "strict-paper"])
    def test_json_round_trip(self, mode):
        rng = np.random.default_rng(123)
        for _ in range(40):
            aug = random_augmented(rng, mode)
            assert from_json_dict(to_json_dict(aug)) == aug

    def test_gold_tags_preserved(self):
        aug = assemble(VICTOR_SENTENCE, [VICTOR_PAIR], 64)
        data = to_json_dict(aug)
        assert data["gold_tags"] == ["B-PER", "I-PER", "O", "O", "O"]
        assert from_json_dict(data).label_alignment == aug.label_alignment

    def test_sentence_block_not_serialized(self):
        aug = assemble(VICTOR_SENTENCE, [], 64)
        assert to_json_dict(aug)["mask_bits"] == []
