import json
import multiprocessing
import time

import pytest

from propner import synthetic
from propner.cli import main
from propner.synthetic import FIRST_NAMES, LAST_NAMES, PERSON_CLASSES, TEMPLATES, SyntheticConfig, run_synthetic_ab

QUICK = SyntheticConfig(
    n_train_entities=36,
    n_test_entities=12,
    sentences_per_train_entity=1,
    epochs=6,
)


class TestCorpusHygiene:
    def test_name_pools_disjoint_from_fillers(self):
        filler = {word.casefold() for template in TEMPLATES for word in template.split() if word != "<NAME>"}
        names = {n.casefold() for n in FIRST_NAMES} | {n.casefold() for n in LAST_NAMES}
        kb_labels = {"human"} | {label for _, label, _ in PERSON_CLASSES}
        assert not filler & names
        assert not filler & kb_labels
        assert not names & kb_labels

    def test_pools_have_no_duplicates(self):
        assert len(set(FIRST_NAMES)) == len(FIRST_NAMES)
        assert len(set(LAST_NAMES)) == len(LAST_NAMES)


class _KnowledgeBaseSeen(Exception):
    pass


def _ab_knowledge_base(monkeypatch, **options):
    """The knowledge base ``run_synthetic_ab`` compiles, caught where the
    matcher is built, before any training."""

    def build_matcher(kb):
        raise _KnowledgeBaseSeen(kb)

    monkeypatch.setattr(synthetic, "build_matcher", build_matcher)
    with pytest.raises(_KnowledgeBaseSeen) as seen:
        run_synthetic_ab(5, config=QUICK, **options)
    return seen.value.args[0]


class TestKnowledgeBase:
    def test_each_name_maps_to_one_person_with_its_occupation(self, monkeypatch):
        kb = _ab_knowledge_base(monkeypatch)
        occupations = {label for _, label, _ in PERSON_CLASSES}
        people = {surface: qids for surface, qids in kb.surface_index.items() if " " in surface}
        assert len(people) == QUICK.n_train_entities + QUICK.n_test_entities
        for qids in people.values():
            [qid] = qids
            human, occupation = kb.contexts[qid].split(" | ")
            assert human == "human" and occupation in occupations
        assert set(kb.surface_index) - set(people) == {"human"} | occupations

    def test_without_occupation_the_context_is_human(self, monkeypatch):
        kb = _ab_knowledge_base(monkeypatch, properties=frozenset({"instanceof", "subclassof"}))
        people = [qids for surface, qids in kb.surface_index.items() if " " in surface]
        assert people and all(kb.contexts[qid] == "human" for [qid] in people)


class TestRunSyntheticAb:
    def test_report_structure(self):
        report = run_synthetic_ab(5, config=QUICK)
        assert set(report) == {
            "seed", "mask_mode", "properties", "n_train_sentences", "n_test_sentences",
            "epochs", "baseline_micro_f1", "augmented_micro_f1", "gap",
        }
        assert report["seed"] == 5
        assert report["properties"] == ["instanceof", "subclassof", "occupation"]
        assert report["gap"] == pytest.approx(report["augmented_micro_f1"] - report["baseline_micro_f1"])
        assert 0.0 <= report["baseline_micro_f1"] <= 1.0
        assert 0.0 <= report["augmented_micro_f1"] <= 1.0

    def test_deterministic(self):
        assert run_synthetic_ab(5, config=QUICK) == run_synthetic_ab(5, config=QUICK)

    def test_corpus_independent_of_property_mask(self):
        full = run_synthetic_ab(5, config=QUICK)
        masked = run_synthetic_ab(5, properties=frozenset({"instanceof"}), config=QUICK)
        assert full["n_train_sentences"] == masked["n_train_sentences"]
        assert full["baseline_micro_f1"] == masked["baseline_micro_f1"]

    def test_name_pools_too_small_before_training(self, monkeypatch):
        def train(dataset, config):
            raise AssertionError("trained")

        monkeypatch.setattr(synthetic, "train", train)
        with pytest.raises(ValueError, match="^name pools too small for requested entity counts$"):
            run_synthetic_ab(1, config=SyntheticConfig(n_train_entities=900, n_test_entities=1))

    def test_both_mask_modes_produce_reports(self):
        default = run_synthetic_ab(5, config=QUICK)
        strict = run_synthetic_ab(5, mask_mode="strict-paper", config=QUICK)
        assert default["mask_mode"] == "default" and strict["mask_mode"] == "strict-paper"


class TestArmsAtOnce:
    """The augmented arm trains in a forked child while the caller trains
    the baseline arm."""

    TWO_EPOCHS = SyntheticConfig(epochs=2)

    def test_report_equals_both_arms_in_process(self, monkeypatch):
        forked = run_synthetic_ab(1, config=self.TWO_EPOCHS)
        monkeypatch.setattr(synthetic, "_pair_map", lambda fn, first, second: (fn(*first), fn(*second)))
        assert run_synthetic_ab(1, config=self.TWO_EPOCHS) == forked

    def test_child_failure_raised_in_the_caller(self, monkeypatch):
        original = synthetic.train

        def train(dataset, config):
            if any(aug.segments for aug in dataset):
                raise ValueError("augmented arm diverged")
            return original(dataset, config)

        monkeypatch.setattr(synthetic, "train", train)
        with pytest.raises(ValueError, match="^augmented arm diverged$"):
            run_synthetic_ab(1, config=self.TWO_EPOCHS)
        assert multiprocessing.active_children() == []

    def test_caller_failure_kills_the_child(self, monkeypatch):
        def train(dataset, config):
            if any(aug.segments for aug in dataset):
                time.sleep(60)  # still running when the caller fails
            raise ValueError("baseline arm failed")

        monkeypatch.setattr(synthetic, "train", train)
        started = time.monotonic()
        with pytest.raises(ValueError, match="baseline arm failed"):
            run_synthetic_ab(1, config=self.TWO_EPOCHS)
        assert multiprocessing.active_children() == []
        assert time.monotonic() - started < 30


class TestCliCommand:
    def test_writes_deterministic_report(self, tmp_path):
        first, second = tmp_path / "r1.json", tmp_path / "r2.json"
        args = ["synthetic-ab", "--seed", "5", "--epochs", "4"]
        assert main([*args, "--out", str(first)]) == 0
        assert main([*args, "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        report = json.loads(first.read_text(encoding="utf-8"))
        assert report["epochs"] == 4

    def test_property_flag(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["synthetic-ab", "--seed", "5", "--epochs", "4",
                     "--properties", "instanceof,subclassof", "--out", str(out)]) == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["properties"] == ["instanceof", "subclassof"]
