import numpy as np
import pytest

from propner.matcher import EntityMatch, Sentence, build_matcher, find_candidates, resolve_overlaps, retrieve

from helpers import kb_from_surfaces, random_matcher_case
from oracles import brute_force_candidates, check_selection, pairwise_resolve


def as_keys(matches):
    return sorted((m.start, m.end, m.surface, m.qid) for m in matches)


class TestSentence:
    def test_tag_length_mismatch(self):
        with pytest.raises(ValueError):
            Sentence("s", ["a", "b"], ["O"])

    def test_empty_token_rejected(self):
        with pytest.raises(ValueError):
            Sentence("s", ["a", ""])


class TestBuildMatcher:
    def test_reports_both_patterns(self):
        kb = kb_from_surfaces(["victor cousin", "human"])
        matcher = build_matcher(kb)
        hits = find_candidates(matcher, Sentence("s", ["victor", "cousin", "human"]))
        assert {m.surface for m in hits} == {"victor cousin", "human"}

    def test_empty_kb_matches_nothing(self):
        matcher = build_matcher(kb_from_surfaces([]))
        assert find_candidates(matcher, Sentence("s", ["anything", "at", "all"])) == []

    def test_nested_surfaces_overlap(self):
        kb = kb_from_surfaces(["new york", "new york city"])
        matcher = build_matcher(kb)
        hits = find_candidates(matcher, Sentence("s", ["new", "york", "city"]))
        assert {(m.start, m.end) for m in hits} == {(0, 2), (0, 3)}


class TestFindCandidates:
    def test_victor_cousin_span(self, table_kb):
        matcher = build_matcher(table_kb)
        sentence = Sentence("s", ["Victor", "Cousin", "was", "a", "tutor"])
        hits = find_candidates(matcher, sentence)
        assert [(m.start, m.end, m.qid) for m in hits] == [(0, 2, "Q434346")]

    def test_no_match(self, table_kb):
        matcher = build_matcher(table_kb)
        assert find_candidates(matcher, Sentence("s", ["nothing", "here"])) == []

    def test_case_and_width_folding(self, table_kb):
        matcher = build_matcher(table_kb)
        hits = find_candidates(matcher, Sentence("s", ["VICTOR", "cousin"]))
        assert [(m.start, m.end, m.surface) for m in hits] == [(0, 2, "victor cousin")]

    def test_nested_equals_brute_force(self):
        kb = kb_from_surfaces(["new york", "new york city"])
        matcher = build_matcher(kb)
        tokens = ["new", "york", "city"]
        assert as_keys(find_candidates(matcher, Sentence("s", tokens))) == brute_force_candidates(kb, tokens)

    def test_random_oracle_equivalence(self):
        rng = np.random.default_rng(20240521)
        for _ in range(60):
            kb, sentence = random_matcher_case(rng)
            matcher = build_matcher(kb)
            got = as_keys(find_candidates(matcher, sentence))
            assert got == brute_force_candidates(kb, sentence.tokens)

    def test_long_surface_equals_brute_force(self):
        # The 19-word prefix of the 20-word surface is in the prefix set, so
        # the scan from token 0 runs to it and stops at the diverging word.
        words = [f"w{i}" for i in range(20)]
        kb = kb_from_surfaces([" ".join(words), "w18 w19", "w5"])
        matcher = build_matcher(kb)
        for tokens in (words, words[:19] + ["other", "w19"], ["x", *words, "w5"]):
            got = as_keys(find_candidates(matcher, Sentence("s", tokens)))
            assert got == brute_force_candidates(kb, tokens)
        assert {k[:2] for k in as_keys(find_candidates(matcher, Sentence("s", words)))} == {(0, 20), (18, 20), (5, 6)}

    def test_shared_surface_emits_pair_per_qid(self):
        kb = kb_from_surfaces(["human", "human"])
        matcher = build_matcher(kb)
        hits = find_candidates(matcher, Sentence("s", ["human"]))
        assert [(m.start, m.end, m.qid) for m in hits] == [(0, 1, "Q1"), (0, 1, "Q2")]

    def test_unicode_folding_equals_brute_force(self):
        # sharp s casefolds to ss, fullwidth letters NFKC-fold to ascii, an
        # NBSP inside a token splits it into two pattern words, and a bare
        # NBSP token normalizes to nothing at all
        surfaces = ["strasse", "new york", "x y"]
        kb = kb_from_surfaces(surfaces)
        matcher = build_matcher(kb)
        for tokens in (
            ["Straße"],
            ["ＮＥＷ", "York"],
            ["x y"],
            ["x", " ", "y"],
            [" "],
        ):
            got = as_keys(find_candidates(matcher, Sentence("s", tokens)))
            assert got == brute_force_candidates(kb, tokens)
        assert as_keys(find_candidates(matcher, Sentence("s", ["Straße"])))[0][2] == "strasse"
        assert {k[:2] for k in as_keys(find_candidates(matcher, Sentence("s", ["x", " ", "y"])))} == {(0, 3)}


def match(start, end, qid="Q1"):
    return EntityMatch(start, end, surface="x", qid=qid)


class TestResolveOverlaps:
    def test_containment_keeps_longer(self):
        resolved = resolve_overlaps([match(0, 2), match(0, 3)])
        assert [(m.start, m.end) for m in resolved] == [(0, 3)]

    def test_equal_length_leftmost_wins(self):
        resolved = resolve_overlaps([match(1, 3), match(0, 2)])
        assert [(m.start, m.end) for m in resolved] == [(0, 2)]

    def test_disjoint_kept_in_order(self):
        resolved = resolve_overlaps([match(2, 4), match(0, 1)])
        assert [(m.start, m.end) for m in resolved] == [(0, 1), (2, 4)]

    def test_same_span_qids_survive_together(self):
        resolved = resolve_overlaps([match(0, 2, "Q7"), match(0, 2, "Q3"), match(1, 3, "Q9")])
        assert [(m.start, m.end, m.qid) for m in resolved] == [(0, 2, "Q3"), (0, 2, "Q7")]

    def test_random_greedy_contract(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            candidates = []
            for index in range(int(rng.integers(0, 12))):
                start = int(rng.integers(0, 15))
                end = start + int(rng.integers(1, 5))
                candidates.append(match(start, end, f"Q{index + 1}"))
            check_selection(candidates, resolve_overlaps(candidates))

    def test_same_selection_as_the_pairwise_rule(self):
        """The occupancy array selects what a scan of every selected span
        would, on candidate sets with nested, crossing and shared spans."""
        rng = np.random.default_rng(11)
        for _ in range(500):
            candidates = []
            for index in range(int(rng.integers(0, 30))):
                if candidates and rng.random() < 0.3:  # another qid of a span already listed
                    start, end = candidates[int(rng.integers(0, len(candidates)))][:2]
                else:
                    start = int(rng.integers(0, 20))
                    end = start + int(rng.integers(1, 6))
                candidates.append((start, end, f"Q{index + 1}"))
            order = rng.permutation(len(candidates))
            matches = [match(*candidates[i]) for i in order]
            assert resolve_overlaps(matches) == pairwise_resolve(matches)


class TestRetrieve:
    def test_victor_cousin_pair(self, table_kb):
        matcher = build_matcher(table_kb)
        sentence = Sentence("s", ["Victor", "Cousin", "was", "a", "tutor"])
        pairs = retrieve(table_kb, matcher, sentence)
        assert [(m.start, m.end, m.qid, m.context) for m in pairs] == [
            (0, 2, "Q434346", "human | philosopher | politician")
        ]

    def test_no_match_empty(self, table_kb):
        matcher = build_matcher(table_kb)
        assert retrieve(table_kb, matcher, Sentence("s", ["quiet"])) == []

    def test_two_disjoint_pairs_in_order(self, table_kb):
        matcher = build_matcher(table_kb)
        sentence = Sentence("s", ["Victor", "Cousin", "studied", "the", "human"])
        pairs = retrieve(table_kb, matcher, sentence)
        assert [(m.start, m.end, m.qid) for m in pairs] == [(0, 2, "Q434346"), (4, 5, "Q5")]
        for pair in pairs:
            assert pair.context == table_kb.contexts[pair.qid]

    def test_deterministic(self, table_kb):
        matcher = build_matcher(table_kb)
        sentence = Sentence("s", ["Victor", "Cousin", "and", "humankind"])
        first = retrieve(table_kb, matcher, sentence)
        second = retrieve(table_kb, build_matcher(table_kb), sentence)
        assert first == second
