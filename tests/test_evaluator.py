import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from propner.ensemble import extract_spans
from propner.evaluator import score

from oracles import brute_force_counts

TAG = st.sampled_from(["O", "B-A", "I-A", "B-B", "I-B", "I-C"])
ALIGNED = st.integers(1, 6).flatmap(lambda n: st.tuples(*[st.lists(TAG, min_size=n, max_size=n)] * 2))


class TestExtractSpans:
    def test_simple_span(self):
        assert extract_spans(["B-PER", "I-PER", "O"]) == {(0, 2, "PER")}

    def test_all_outside(self):
        assert extract_spans(["O", "O", "O"]) == set()

    def test_adjacent_begins_are_singletons(self):
        assert extract_spans(["B-PER", "B-PER"]) == {(0, 1, "PER"), (1, 2, "PER")}

    def test_span_at_sequence_end(self):
        assert extract_spans(["O", "B-LOC", "I-LOC"]) == {(1, 3, "LOC")}

    def test_type_switch_starts_new_span(self):
        assert extract_spans(["B-PER", "B-LOC", "I-LOC"]) == {(0, 1, "PER"), (1, 3, "LOC")}

    def test_orphan_i_starts_a_span(self):
        assert extract_spans(["O", "I-PER"]) == {(1, 2, "PER")}
        assert extract_spans(["B-PER", "I-LOC"]) == {(0, 1, "PER"), (1, 2, "LOC")}

    def test_garbage_tag_rejected(self):
        with pytest.raises(ValueError):
            extract_spans(["B-PER", "MID-PER"])


class TestScore:
    def test_perfect_prediction(self):
        gold = [["B-PER", "I-PER", "O", "B-LOC"]]
        report = score(gold, gold)
        assert report.micro_f1 == 1.0 and report.macro_f1 == 1.0

    def test_all_outside_prediction(self):
        gold = [["B-PER", "I-PER", "O"]]
        report = score(gold, [["O", "O", "O"]])
        assert report.micro_f1 == 0.0
        assert report.micro_precision == 0.0 and report.micro_recall == 0.0

    def test_hand_counted_mixed_case(self):
        # gold spans {(0,2,PER), (3,4,LOC)}, predicted {(0,2,PER), (3,4,PER)}
        gold = [["B-PER", "I-PER", "O", "B-LOC"]]
        pred = [["B-PER", "I-PER", "O", "B-PER"]]
        report = score(gold, pred)
        assert report.micro_precision == pytest.approx(0.5)
        assert report.micro_recall == pytest.approx(0.5)
        assert report.micro_f1 == pytest.approx(0.5)
        assert report.per_class["PER"].f1 == pytest.approx(2 / 3, abs=1e-9)
        assert report.per_class["LOC"].f1 == 0.0
        assert report.macro_f1 == pytest.approx(1 / 3, abs=1e-9)

    def test_exact_match_required(self):
        gold = [["B-PER", "I-PER", "O"]]
        pred = [["B-PER", "O", "O"]]  # boundary off by one token
        report = score(gold, pred)
        assert report.micro_f1 == 0.0

    def test_micro_f1_one_iff_identical_spans(self):
        rng = np.random.default_rng(0)
        tags = ["O", "B-A", "I-A", "B-B"]
        for _ in range(60):
            gold = [[tags[int(rng.integers(len(tags)))] for _ in range(6)] for _ in range(3)]
            pred = [[tags[int(rng.integers(len(tags)))] for _ in range(6)] for _ in range(3)]
            from propner.ensemble import repair_bio

            gold = [repair_bio(g) for g in gold]
            pred = [repair_bio(p) for p in pred]
            report = score(gold, pred)
            identical = all(
                extract_spans(g) == extract_spans(p) for g, p in zip(gold, pred)
            )
            assert (report.micro_f1 == 1.0) == identical

    def test_sentence_order_invariance(self):
        gold = [["B-PER", "O"], ["B-LOC", "I-LOC"], ["O", "O"]]
        pred = [["B-PER", "O"], ["O", "B-LOC"], ["B-PER", "O"]]
        forward_report = score(gold, pred)
        reversed_report = score(gold[::-1], pred[::-1])
        assert forward_report.micro_f1 == reversed_report.micro_f1
        assert forward_report.macro_f1 == reversed_report.macro_f1

    def test_macro_between_min_and_max_class_f1(self):
        gold = [["B-PER", "O", "B-LOC", "O", "B-ORG"]]
        pred = [["B-PER", "O", "B-LOC", "O", "O"]]
        report = score(gold, pred)
        class_f1 = [cs.f1 for name, cs in report.per_class.items()]
        assert min(class_f1) <= report.macro_f1 <= max(class_f1)

    def test_macro_ignores_classes_absent_from_gold(self):
        gold = [["O", "O"]]
        pred = [["B-PER", "O"]]
        report = score(gold, pred)
        assert report.per_class["PER"].fp == 1
        assert report.macro_f1 == 0.0
        assert report.micro_precision == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            score([["O", "O"]], [["O"]])
        with pytest.raises(ValueError):
            score([["O"]], [["O"], ["O"]])

    def test_malformed_pred_repaired(self):
        gold = [["B-PER", "I-PER"]]
        report = score(gold, [["I-PER", "I-PER"]])
        assert report.micro_f1 == 1.0

    def test_counts_match_gold_totals(self):
        gold = [["B-PER", "I-PER", "O", "B-LOC"], ["B-PER", "O", "O", "O"]]
        pred = [["B-PER", "O", "O", "B-LOC"], ["O", "B-PER", "O", "O"]]
        report = score(gold, pred)
        for name, cs in report.per_class.items():
            gold_count = sum(1 for tags in gold for span in extract_spans(tags) if span[2] == name)
            assert cs.tp + cs.fn == gold_count

    @settings(max_examples=60)
    @given(st.lists(ALIGNED, max_size=4))
    def test_counts_match_brute_force(self, sentences):
        """Per-class counts equal a count made one class at a time; macro F1
        averages the classes that have a gold span, micro F1 pools counts."""
        gold, pred = [g for g, _ in sentences], [p for _, p in sentences]
        report = score(gold, pred)
        counts = brute_force_counts(gold, pred)
        assert {name: (cs.tp, cs.fp, cs.fn) for name, cs in report.per_class.items()} == counts
        f1 = [2 * tp / (2 * tp + fp + fn) for tp, fp, fn in counts.values() if tp + fn]
        assert report.macro_f1 == pytest.approx(sum(f1) / len(f1) if f1 else 0.0, abs=1e-12)
        tp, fp, fn = map(sum, zip((0, 0, 0), *counts.values()))
        assert report.micro_f1 == pytest.approx(2 * tp / (2 * tp + fp + fn) if tp else 0.0, abs=1e-12)

    def test_report_dict_schema(self):
        report = score([["B-PER", "O"]], [["B-PER", "O"]])
        data = report.to_dict()
        assert data["schema_version"] == 1
        assert data["micro"]["f1"] == 1.0
        assert "PER" in data["per_class"]
