"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s`."""

import contextlib
import json
import time
from dataclasses import replace

import numpy as np
import pytest

from propner.cli import main
from propner.encoder import TrainConfig, build_vocab, init_model, masked_attention
from propner.ensemble import WeightedPredictions, repair_bio, weighted_vote
from propner.evaluator import coverage_rate, score
from propner.kbstore import build_knowledge_base, parse_dump, save_kb
from propner.matcher import Sentence, build_matcher, find_candidates, resolve_overlaps
from propner.synthetic import run_synthetic_ab

from conftest import table_dump_lines
from helpers import random_augmented, random_matcher_case
from oracles import brute_force_candidates, check_selection, counting_vote, gradient_check, hidden_states, rule_mask


@contextlib.contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


def test_criterion_1_matcher_oracle_equivalence():
    with criterion(1, "matcher oracle equivalence, 1000 cases"):
        rng = np.random.default_rng(1001)
        started = time.perf_counter()
        for _ in range(1000):
            kb, sentence = random_matcher_case(rng)
            matcher = build_matcher(kb)
            candidates = find_candidates(matcher, sentence)
            got = sorted((m.start, m.end, m.surface, m.qid) for m in candidates)
            assert got == brute_force_candidates(kb, sentence.tokens)
            check_selection(candidates, resolve_overlaps(candidates))
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"


def test_criterion_2_mask_property_suite():
    with criterion(2, "mask property suite, 10000 inputs"):
        rng = np.random.default_rng(2002)
        started = time.perf_counter()
        for index in range(10_000):
            mode = "default" if index % 2 == 0 else "strict-paper"
            aug = random_augmented(rng, mode)
            bits = aug.mask.bits
            block = aug.n_sentence + 2
            assert bits[:block, :block].all(), "sentence block incomplete"
            for k, seg_k in enumerate(aug.segments):
                for l, seg_l in enumerate(aug.segments):
                    if k == l:
                        continue
                    rows = sorted(seg_k.entity_positions)
                    cols = sorted(seg_l.context_positions)
                    assert not bits[np.ix_(rows, cols)].any(), "cross-pair leak"
            if mode == "default":
                assert (bits.sum(axis=1) >= 1).all(), "empty query row in default mode"
            expected = rule_mask(aug.n_sentence, len(aug.tokens), aug.segments, mode)
            assert np.array_equal(bits, expected), "mask differs from rule evaluator"
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"took {elapsed:.1f}s, budget 30s"


def test_criterion_3_masked_attention_and_gradients():
    with criterion(3, "masked attention exactness and 20 gradient checks"):
        started = time.perf_counter()
        rng = np.random.default_rng(3003)
        from propner.encoder import _masked_softmax

        for _ in range(50):
            t = int(rng.integers(2, 10))
            bits = (rng.random((t, t)) < 0.4).astype(np.uint8)
            bits[np.arange(t), rng.integers(0, t, t)] = 1
            weights = _masked_softmax(rng.normal(size=(t, t)), bits)
            assert (weights[bits == 0] == 0.0).all()
            assert np.allclose(weights.sum(axis=1), 1.0, atol=1e-9)
        for _ in range(10):
            t, d = int(rng.integers(2, 8)), 8
            v = rng.normal(size=(t, d))
            out = masked_attention(rng.normal(size=(t, d)), rng.normal(size=(t, d)), v, np.eye(t, dtype=np.uint8))[0]
            assert np.array_equal(out, v)

        for trial in range(20):
            trial_rng = np.random.default_rng(30_000 + trial)
            mode = "default" if trial % 2 == 0 else "strict-paper"
            aug = random_augmented(trial_rng, mode, labeled=True)
            config = TrainConfig(d_model=16, n_heads=4, n_layers=2, ff_dim=24, max_len=64, seed=trial)
            model = init_model(build_vocab([aug]), ["B-X", "B-Y", "I-X", "I-Y", "O"], config)
            error = gradient_check(model, aug, epsilon=1e-4, seed=trial)
            assert error < 1e-4, f"trial {trial}: max relative error {error:.3e}"
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"


def test_criterion_4_context_isolation_strict_one_layer():
    with criterion(4, "strict-paper 1-layer context isolation, 100 trials"):
        rng = np.random.default_rng(4004)
        config = TrainConfig(d_model=16, n_heads=2, n_layers=1, ff_dim=24, max_len=64, seed=44)
        trials = 0
        while trials < 100:
            aug = random_augmented(rng, "strict-paper")
            if len(aug.segments) < 2:
                continue
            model = init_model(build_vocab([aug]), ["O"], config)
            base = hidden_states(model, aug)
            for target, segment in enumerate(aug.segments):
                for position in sorted(segment.context_positions):
                    tokens = list(aug.tokens)
                    tokens[position] = "mutated"
                    mutated = replace(aug, tokens=tokens)
                    changed = hidden_states(model, mutated)
                    for k, other in enumerate(aug.segments):
                        if k == target:
                            continue
                        for entity_pos in sorted(other.entity_positions):
                            assert np.array_equal(base[entity_pos], changed[entity_pos]), (
                                f"hidden state at entity position {entity_pos} changed when "
                                f"context {target} position {position} was mutated"
                            )
            trials += 1


def test_criterion_5_scorer_golden_values():
    with criterion(5, "scorer and coverage golden values"):
        report = score([["B-PER", "I-PER", "O", "B-LOC"]], [["B-PER", "I-PER", "O", "B-PER"]])
        assert report.micro_precision == pytest.approx(0.5)
        assert report.micro_recall == pytest.approx(0.5)
        assert report.micro_f1 == pytest.approx(0.5)
        assert report.per_class["PER"].f1 == pytest.approx(2 / 3, abs=1e-9)
        assert report.per_class["LOC"].f1 == 0.0
        assert report.macro_f1 == pytest.approx(1 / 3, abs=1e-9)

        perfect = score([["B-PER", "O"]], [["B-PER", "O"]])
        assert perfect.micro_f1 == 1.0 and perfect.macro_f1 == 1.0
        empty = score([["B-PER", "O"]], [["O", "O"]])
        assert empty.micro_f1 == 0.0

        kb = build_knowledge_base(parse_dump(table_dump_lines()), "en")
        covered = [Sentence("a", ["Victor", "Cousin"], ["B-PER", "I-PER"])]
        assert coverage_rate(kb, covered) == 1.0
        missing = [Sentence("a", ["Unknown", "Stranger"], ["B-PER", "I-PER"])]
        assert coverage_rate(kb, missing) == 0.0
        two_of_three = [
            Sentence("a", ["Victor", "Cousin", "thinks"], ["B-PER", "I-PER", "O"]),
            Sentence("b", ["a", "human", "walks"], ["O", "B-OTH", "O"]),
            Sentence("c", ["Unknown", "Stranger", "appears"], ["B-PER", "I-PER", "O"]),
        ]
        assert coverage_rate(kb, two_of_three) == pytest.approx(2 / 3, abs=1e-9)


def test_criterion_6_kb_pipeline_golden(tmp_path):
    with criterion(6, "kb pipeline golden contexts and byte-stable files"):
        kb = build_knowledge_base(parse_dump(table_dump_lines()), "en")
        assert kb.contexts["Q434346"] == "human | philosopher | politician"
        assert kb.contexts["Q5"] == "natural person | omnivore | mammal"

        first, second = tmp_path / "kb1", tmp_path / "kb2"
        save_kb(kb, first)
        save_kb(build_knowledge_base(parse_dump(table_dump_lines()), "en"), second)
        for name in ("surfaces.tsv", "contexts.tsv", "meta.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes()


def test_criterion_7_ensemble_properties():
    with criterion(7, "ensemble voting properties, 1000 cases each"):
        labels = ["B-X", "I-X", "O"]
        rng = np.random.default_rng(7007)

        for _ in range(1000):  # unanimity
            n_tokens = int(rng.integers(1, 6))
            dist = rng.dirichlet(np.ones(len(labels)), size=n_tokens)
            n_folds = int(rng.integers(1, 5))
            weights = [float(rng.random()) + 0.01 for _ in range(n_folds)]
            preds = WeightedPredictions(labels, weights, [[dist.copy()] for _ in range(n_folds)])
            single = WeightedPredictions(labels, [1.0], [[dist.copy()]])
            assert weighted_vote(preds) == weighted_vote(single)

        for _ in range(1000):  # weight-scale invariance
            n_tokens = int(rng.integers(1, 6))
            n_folds = int(rng.integers(1, 5))
            dists = [[rng.dirichlet(np.ones(len(labels)), size=n_tokens)] for _ in range(n_folds)]
            weights = [float(rng.random()) + 0.01 for _ in range(n_folds)]
            scale = float(rng.uniform(0.1, 50.0))
            base = weighted_vote(WeightedPredictions(labels, weights, dists))
            scaled = weighted_vote(WeightedPredictions(labels, [scale * w for w in weights], dists))
            assert base == scaled

        for _ in range(1000):  # soft vote equals the counting oracle on one-hot input
            n_tokens = int(rng.integers(1, 6))
            n_folds = int(rng.integers(1, 5))
            weights = [float(rng.random()) + 0.01 for _ in range(n_folds)]
            votes = [[labels[int(rng.integers(len(labels)))] for _ in range(n_tokens)] for _ in range(n_folds)]
            dists = []
            for fold in votes:
                rows = np.zeros((n_tokens, len(labels)))
                for t, vote in enumerate(fold):
                    rows[t, labels.index(vote)] = 1.0
                dists.append([rows])
            got = weighted_vote(WeightedPredictions(labels, weights, dists))[0]
            want = [counting_vote(labels, [fold[t] for fold in votes], weights) for t in range(n_tokens)]
            assert got == repair_bio(want)


def test_criterion_8_synthetic_ab_gaps():
    with criterion(8, "synthetic A/B gap >= 0.30 and occupation ablation < 0.10"):
        started = time.perf_counter()
        no_occupation = frozenset({"instanceof", "subclassof"})
        for seed in (1, 2, 3):
            full = run_synthetic_ab(seed)
            assert full["gap"] >= 0.30, f"seed {seed}: gap {full['gap']:.3f} below +0.30"
            ablated = run_synthetic_ab(seed, properties=no_occupation)
            assert ablated["gap"] < 0.10, f"seed {seed}: ablated gap {ablated['gap']:.3f} not below +0.10"
        elapsed = time.perf_counter() - started
        assert elapsed < 300.0, f"took {elapsed:.1f}s, budget 300s"


def test_criterion_9_cli_artifact_determinism(tmp_path):
    with criterion(9, "byte-identical artifacts for seeded commands"):
        dump = tmp_path / "dump.jsonl"
        dump.write_text("\n".join(table_dump_lines()) + "\n", encoding="utf-8")
        data = tmp_path / "data.conll"
        sentences = [
            Sentence("s1", ["Victor", "Cousin", "taught"], ["B-PER", "I-PER", "O"]),
            Sentence("s2", ["a", "human", "walked"], ["O", "B-OTH", "O"]),
            Sentence("s3", ["plain", "words"], ["O", "O"]),
        ]
        from propner.cli import write_conll

        write_conll(sentences, data)

        kb1, kb2 = tmp_path / "kb1", tmp_path / "kb2"
        assert main(["build-kb", "--dump", str(dump), "--lang", "en", "--out", str(kb1)]) == 0
        assert main(["build-kb", "--dump", str(dump), "--lang", "en", "--out", str(kb2)]) == 0
        for name in ("surfaces.tsv", "contexts.tsv", "meta.json"):
            assert (kb1 / name).read_bytes() == (kb2 / name).read_bytes()

        aug = tmp_path / "aug.jsonl"
        assert main(["augment", "--kb", str(kb1), "--data", str(data), "--out", str(aug), "--max-len", "64"]) == 0
        model1, model2 = tmp_path / "m1.bin", tmp_path / "m2.bin"
        train_args = ["--aug", str(aug), "--seed", "5", "--epochs", "10", "--max-len", "64"]
        assert main(["train", *train_args, "--out", str(model1)]) == 0
        assert main(["train", *train_args, "--out", str(model2)]) == 0
        assert model1.read_bytes() == model2.read_bytes()

        plan1, plan2 = tmp_path / "p1.json", tmp_path / "p2.json"
        assert main(["split", "--data", str(data), "--k", "3", "--seed", "2", "--out", str(plan1)]) == 0
        assert main(["split", "--data", str(data), "--k", "3", "--seed", "2", "--out", str(plan2)]) == 0
        assert plan1.read_bytes() == plan2.read_bytes()

        ab1, ab2 = tmp_path / "ab1.json", tmp_path / "ab2.json"
        ab_args = ["synthetic-ab", "--seed", "3", "--epochs", "4"]
        assert main([*ab_args, "--out", str(ab1)]) == 0
        assert main([*ab_args, "--out", str(ab2)]) == 0
        assert ab1.read_bytes() == ab2.read_bytes()
        report = json.loads(ab1.read_text(encoding="utf-8"))
        assert {"baseline_micro_f1", "augmented_micro_f1", "gap"} <= set(report)
