import numpy as np
import pytest
from hypothesis import given, strategies as st

from propner.ensemble import WeightedPredictions, kfold_split, repair_bio, weighted_vote
from propner.matcher import Sentence

from oracles import counting_vote

LABELS = ["B-X", "I-X", "O"]


def sentences(n):
    return [Sentence(f"s{i}", ["tok"]) for i in range(n)]


def one_hot(label):
    row = np.zeros(len(LABELS))
    row[LABELS.index(label)] = 1.0
    return row


def preds_from_tags(weights, fold_tags):
    """fold_tags: [fold][sentence] -> list of labels"""
    distributions = [
        [np.stack([one_hot(tag) for tag in tags]) for tags in fold]
        for fold in fold_tags
    ]
    return WeightedPredictions(labels=LABELS, weights=weights, distributions=distributions)


class TestKfoldSplit:
    def test_even_split(self):
        plan = kfold_split(sentences(16), 8, seed=1)
        sizes = [len(plan.fold_ids(f)) for f in range(8)]
        assert sizes == [2] * 8

    def test_uneven_split_sizes_differ_by_one(self):
        plan = kfold_split(sentences(17), 8, seed=1)
        sizes = sorted(len(plan.fold_ids(f)) for f in range(8))
        assert sizes == [2] * 7 + [3]
        assert sum(sizes) == 17

    def test_deterministic(self):
        data = sentences(23)
        assert kfold_split(data, 8, seed=5).assignments == kfold_split(data, 8, seed=5).assignments

    def test_every_sentence_assigned_once(self):
        data = sentences(11)
        plan = kfold_split(data, 3, seed=0)
        assert sorted(plan.assignments) == sorted(s.id for s in data)

    def test_k_larger_than_dataset_rejected(self):
        with pytest.raises(ValueError):
            kfold_split(sentences(3), 8, seed=0)

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            kfold_split(sentences(3), 1, seed=0)

    def test_duplicate_ids_rejected(self):
        data = [Sentence("same", ["a"]), Sentence("same", ["b"])]
        with pytest.raises(ValueError):
            kfold_split(data, 2, seed=0)


class TestWeightedVote:
    def test_unanimous(self):
        tags = [["B-X", "I-X", "O"], ["O", "O", "O"]]
        preds = preds_from_tags([0.4, 0.8], [tags, tags])
        assert weighted_vote(preds) == tags

    def test_high_weight_wins(self):
        preds = preds_from_tags([0.9, 0.1], [[["B-X"]], [["O"]]])
        assert weighted_vote(preds) == [["B-X"]]
        flipped = preds_from_tags([0.1, 0.9], [[["B-X"]], [["O"]]])
        assert weighted_vote(flipped) == [["O"]]

    def test_uniform_one_hot_equals_plurality(self):
        fold_tags = [[["B-X", "O"]], [["B-X", "O"]], [["O", "O"]]]
        preds = preds_from_tags([1.0, 1.0, 1.0], fold_tags)
        assert weighted_vote(preds) == [["B-X", "O"]]

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n_folds = int(rng.integers(1, 5))
            n_tokens = int(rng.integers(1, 6))
            weights = [float(rng.random()) for _ in range(n_folds)]
            if not any(weights):
                weights[0] = 1.0
            fold_tags = [
                [[LABELS[int(rng.integers(len(LABELS)))] for _ in range(n_tokens)]]
                for _ in range(n_folds)
            ]
            preds = preds_from_tags(weights, fold_tags)
            got = weighted_vote(preds)[0]
            want = [counting_vote(LABELS, [fold[0][t] for fold in fold_tags], weights) for t in range(n_tokens)]
            assert got == repair_bio(want)

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n_folds = int(rng.integers(1, 4))
            dists = [[rng.dirichlet(np.ones(len(LABELS)), size=4)] for _ in range(n_folds)]
            weights = [float(rng.random()) + 0.01 for _ in range(n_folds)]
            base = weighted_vote(WeightedPredictions(LABELS, weights, dists))
            for c in (0.25, 3.0, 117.0):
                scaled = weighted_vote(WeightedPredictions(LABELS, [c * w for w in weights], dists))
                assert scaled == base

    def test_soft_and_hard_modes_differ_when_expected(self):
        # two weak confident folds vs one strong uncertain fold
        dists = [
            [np.array([[0.6, 0.0, 0.4]])],
            [np.array([[0.6, 0.0, 0.4]])],
            [np.array([[0.0, 0.0, 1.0]])],
        ]
        preds = WeightedPredictions(LABELS, [1.0, 1.0, 1.9], dists)
        assert weighted_vote(preds, hard=False) == [["O"]]
        assert weighted_vote(preds, hard=True) == [["B-X"]]

    def test_invalid_weights_rejected(self):
        with pytest.raises(ValueError):
            preds_from_tags([-0.1, 0.5], [[["O"]], [["O"]]])
        with pytest.raises(ValueError):
            preds_from_tags([0.0, 0.0], [[["O"]], [["O"]]])

    def test_non_finite_weight_rejected(self):
        for weight in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                preds_from_tags([weight, 0.5], [[["O"]], [["O"]]])

    def test_repeated_label_rejected(self):
        with pytest.raises(ValueError, match="labels repeat"):
            WeightedPredictions(["O", "B-X", "O"], [1.0], [[np.zeros((1, 3))]])

    def test_mismatched_token_counts_rejected(self):
        good = [np.zeros((2, 3))]
        bad = [np.zeros((3, 3))]
        with pytest.raises(ValueError):
            WeightedPredictions(LABELS, [1.0, 1.0], [good, bad])

    def test_output_is_valid_bio(self):
        preds = preds_from_tags([1.0], [[["I-X", "I-X", "O"]]])
        assert weighted_vote(preds) == [["B-X", "I-X", "O"]]


class TestRepairBio:
    def test_orphan_i_after_o(self):
        assert repair_bio(["O", "I-PER"]) == ["O", "B-PER"]

    def test_valid_sequence_unchanged(self):
        assert repair_bio(["B-LOC", "I-LOC"]) == ["B-LOC", "I-LOC"]

    def test_type_switch_forces_begin(self):
        assert repair_bio(["B-PER", "I-LOC"]) == ["B-PER", "B-LOC"]

    def test_sentence_initial_i(self):
        assert repair_bio(["I-PER", "I-PER"]) == ["B-PER", "I-PER"]

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            repair_bio(["B-PER", "WHAT"])
        with pytest.raises(ValueError):
            repair_bio(["B-"])

    @given(
        st.lists(
            st.sampled_from(["O", "B-PER", "I-PER", "B-LOC", "I-LOC", "I-ORG"]),
            max_size=12,
        )
    )
    def test_idempotent_and_valid(self, tags):
        repaired = repair_bio(tags)
        assert repair_bio(repaired) == repaired
        prev = None
        for tag in repaired:
            if tag.startswith("I-"):
                assert prev is not None and prev[2:] == tag[2:] and prev[0] in "BI"
            prev = tag if tag != "O" else None
