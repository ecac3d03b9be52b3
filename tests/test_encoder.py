import json
import re
from dataclasses import replace

import numpy as np
import pytest

from propner.augmenter import assemble
from propner.encoder import (
    TrainConfig,
    build_vocab,
    forward,
    init_model,
    load_model,
    masked_attention,
    predict,
    predict_tags,
    save_model,
    train,
)
from propner.inputs import InputError
from propner.matcher import EntityMatch, Sentence

from helpers import random_augmented
from oracles import gradient_check, hidden_states, reference_masked_softmax, reference_softmax_row

TINY = TrainConfig(d_model=8, n_heads=2, n_layers=2, ff_dim=16, max_len=64, seed=11)


def tiny_model(augs, labels=("B-X", "I-X", "O"), config=TINY):
    return init_model(build_vocab(list(augs)), sorted(labels), config)


def two_pair_aug(mode, context_a="red green", context_b="blue"):
    sentence = Sentence("s", ["a", "b", "c", "d", "e"], ["B-X", "O", "B-X", "O", "O"])
    pairs = [EntityMatch(0, 1, "a", "Q1", context_a), EntityMatch(2, 3, "c", "Q2", context_b)]
    return assemble(sentence, pairs, 64, mode)


class TestMaskedAttention:
    def test_all_ones_is_plain_softmax(self):
        rng = np.random.default_rng(0)
        q = rng.normal(size=(1, 6))
        k = rng.normal(size=(5, 6))
        v = rng.normal(size=(5, 6))
        got = masked_attention(q, k, v, np.ones((1, 5), np.uint8))[0]
        scores = (q @ k.T / np.sqrt(6))[0]
        weights = reference_softmax_row(scores, list(range(5)))
        assert np.allclose(got, weights @ v, atol=1e-12)

    def test_identity_mask_returns_v(self):
        rng = np.random.default_rng(1)
        q = rng.normal(size=(4, 8))
        v = rng.normal(size=(4, 8))
        assert np.array_equal(masked_attention(q, q, v, np.eye(4, dtype=np.uint8))[0], v)

    def test_two_bit_row_matches_reference(self):
        rng = np.random.default_rng(2)
        q = rng.normal(size=(6, 4))
        k = rng.normal(size=(6, 4))
        v = rng.normal(size=(6, 4))
        bits = np.ones((6, 6), np.uint8)
        bits[0] = 0
        bits[0, [2, 5]] = 1
        out = masked_attention(q, k, v, bits)[0]
        scores = (q @ k.T / np.sqrt(4))[0]
        weights = reference_softmax_row(scores, [2, 5])
        assert np.allclose(out[0], weights @ v, atol=1e-12)
        assert weights[0] == 0.0 and weights[1] == 0.0

    def test_weights_masked_exactly_zero_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        from propner.encoder import _masked_softmax

        for _ in range(25):
            t = int(rng.integers(2, 9))
            bits = (rng.random((t, t)) < 0.5).astype(np.uint8)
            bits[np.arange(t), rng.integers(0, t, t)] = 1  # no empty rows
            weights = _masked_softmax(rng.normal(size=(t, t)), bits)
            assert (weights[bits == 0] == 0.0).all()
            assert np.allclose(weights.sum(axis=1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("heads", [(), (3,)])
    @pytest.mark.parametrize("dtype", [bool, np.uint8])
    def test_softmax_is_the_reference_bit_for_bit(self, dtype, heads):
        # rows with no set bit, and +-inf and NaN scores in kept and masked
        # cells, must come out exactly as the reference formula gives them
        from propner.encoder import _masked_softmax

        rng = np.random.default_rng(5 + len(heads) + 2 * (dtype is bool))
        specials = np.array([np.inf, -np.inf, np.nan])
        with np.errstate(all="ignore"):
            for _ in range(300):
                t = int(rng.integers(1, 9))
                bits = (rng.random((t, t)) < rng.random()).astype(dtype)
                bits[rng.integers(0, t)] = 0
                scores = rng.normal(scale=rng.choice([1.0, 30.0, 800.0]), size=(*heads, t, t))
                cells = rng.random(scores.shape) < rng.random() * 0.4
                scores[cells] = rng.choice(specials, size=int(cells.sum()))
                got, want = _masked_softmax(scores, bits), reference_masked_softmax(scores, bits)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    def test_empty_row_allowed_gives_zero_output(self):
        bits = np.zeros((2, 2), np.uint8)
        bits[1, 1] = 1
        out = masked_attention(np.ones((2, 3)), np.ones((2, 3)), np.full((2, 3), 7.0), bits)[0]
        assert (out[0] == 0.0).all() and np.allclose(out[1], 7.0)


    def test_head_axes_match_per_head_calls(self):
        rng = np.random.default_rng(4)
        q, k, v = (rng.normal(size=(3, 5, 4)) for _ in range(3))
        bits = (rng.random((5, 5)) < 0.5).astype(np.uint8)
        bits[np.arange(5), np.arange(5)] = 1
        out, weights = masked_attention(q, k, v, bits)
        for head in range(3):
            head_out, head_weights = masked_attention(q[head], k[head], v[head], bits)
            assert np.array_equal(out[head], head_out) and np.array_equal(weights[head], head_weights)


class TestForward:
    def test_forward_runs_masked_attention_once_per_layer(self, monkeypatch):
        import propner.encoder as encoder

        seen = []
        original = encoder.masked_attention

        def spy(q, k, v, bits):
            seen.append(bits)
            return original(q, k, v, bits)

        monkeypatch.setattr(encoder, "masked_attention", spy)
        aug = two_pair_aug("default")
        model = tiny_model([aug])
        forward(model, aug)
        assert len(seen) == model.n_layers == 2
        # one boolean mask, the input's, serves every layer of the pass
        assert seen[0] is seen[1] and seen[0].dtype == bool
        assert np.array_equal(seen[0], aug.mask.bits)

    def test_zero_classifier_zero_logits(self):
        aug = assemble(Sentence("s", ["a", "b"], ["O", "O"]), [], 16)
        model = tiny_model([aug])
        model.params["cls.w"][:] = 0.0
        model.params["cls.b"][:] = 0.0
        assert (forward(model, aug) == 0.0).all()

    def test_different_contexts_change_entity_states(self):
        aug1 = two_pair_aug("default")
        aug2 = two_pair_aug("default", context_a="red purple")
        model = tiny_model([aug1, aug2])
        h1 = hidden_states(model, aug1)
        h2 = hidden_states(model, aug2)
        entity = sorted(aug1.segments[0].entity_positions)
        assert not np.array_equal(h1[entity], h2[entity])

    def test_strict_equals_default_without_pairs(self):
        sentence = Sentence("s", ["just", "plain", "words"], ["O", "O", "O"])
        strict = assemble(sentence, [], 16, "strict-paper")
        default = assemble(sentence, [], 16, "default")
        model = tiny_model([default])
        assert np.array_equal(forward(model, strict), forward(model, default))

    def test_unknown_token_maps_to_unk(self):
        aug = assemble(Sentence("s", ["a", "b"], ["O", "O"]), [], 16)
        model = tiny_model([aug])
        mutated = replace(aug, tokens=["[CLS]", "zzz", "b", "[SEP]"])
        forward(model, mutated)  # must not raise

    def test_too_long_input_rejected(self):
        aug = assemble(Sentence("s", ["a"] * 20, ["O"] * 20), [], 64)
        model = tiny_model([aug], config=TrainConfig(d_model=8, n_heads=2, max_len=8))
        with pytest.raises(ValueError):
            forward(model, aug)


class TestContextIsolation:
    @pytest.mark.parametrize("mode", ["strict-paper", "default"])
    def test_one_layer_isolation_exact(self, mode):
        config = TrainConfig(d_model=8, n_heads=2, n_layers=1, ff_dim=16, max_len=64, seed=4)
        rng = np.random.default_rng(8)
        checked = 0
        while checked < 10:
            aug = random_augmented(rng, mode)
            if len(aug.segments) < 2:
                continue
            model = tiny_model([aug], config=config)
            base = hidden_states(model, aug)
            target = int(rng.integers(len(aug.segments)))
            position = sorted(aug.segments[target].context_positions)[0]
            tokens = list(aug.tokens)
            tokens[position] = "mutated-token"
            mutated = replace(aug, tokens=tokens)
            other = hidden_states(model, mutated)
            for k, segment in enumerate(aug.segments):
                if k == target:
                    continue
                for pos in sorted(segment.entity_positions):
                    assert np.array_equal(base[pos], other[pos])
            checked += 1


class TestTrain:
    def memorization_set(self):
        words = ["the", "cat", "sat", "on", "mat", "dog", "ran", "fast", "bird", "flew"]
        rng = np.random.default_rng(42)
        sentences = []
        for i in range(10):
            tokens = [words[int(rng.integers(len(words)))] for _ in range(6)]
            tags = ["O"] * 6
            start = int(rng.integers(5))
            tags[start], tags[start + 1] = "B-E", "I-E"
            sentences.append(Sentence(str(i), tokens, tags))
        return [assemble(s, [], 16) for s in sentences]

    def test_memorizes_small_set(self):
        augs = self.memorization_set()
        model = train(augs, TrainConfig(max_len=16, epochs=200, seed=0))
        from propner.evaluator import score

        pred = [predict_tags(model, aug) for aug in augs]
        gold = [aug.gold_tags for aug in augs]
        assert score(gold, pred).micro_f1 == 1.0
        assert len(model.epoch_losses) == 200
        assert model.epoch_losses[-1] < model.epoch_losses[0]

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train([], TrainConfig())

    def test_empty_label_set_rejected(self):
        aug = assemble(Sentence("s", ["a", "b"]), [], 16)  # no gold tags
        with pytest.raises(ValueError):
            train([aug], TrainConfig(max_len=16))

    def test_same_seed_identical_parameters(self):
        augs = self.memorization_set()
        config = TrainConfig(max_len=16, epochs=20, seed=9)
        first = train(augs, config)
        second = train(augs, config)
        assert all(np.array_equal(first.params[k], second.params[k]) for k in first.params)

    def test_divergence_detected(self):
        augs = self.memorization_set()
        with pytest.raises(ValueError, match="^non-finite loss at epoch 0: lower the learning rate"):
            train(augs, TrainConfig(max_len=16, epochs=50, lr=1e4, seed=0))

    @pytest.mark.parametrize("defect,message", [
        ("too long", "input of length 18 exceeds max_len 16"),
        ("unlabeled", "input 'u' has no labeled positions"),
    ])
    def test_bad_input_fails_before_the_first_step(self, monkeypatch, defect, message):
        from propner import encoder

        def no_step(*args):
            raise AssertionError("a step ran")

        monkeypatch.setattr(encoder, "_loss_and_grads", no_step)
        bad = (assemble(Sentence("long", ["w"] * 16, ["O"] * 16), [], 32) if defect == "too long"
               else assemble(Sentence("u", ["a", "b"]), [], 16))
        with pytest.raises(ValueError, match=re.escape(message)):
            train([*self.memorization_set(), bad], TrainConfig(max_len=16, epochs=1, seed=0))


class TestGradientCheck:
    def test_random_tiny_models(self):
        rng = np.random.default_rng(6)
        for trial in range(3):
            aug = random_augmented(rng, "default")
            aug = replace(aug, gold_tags=[("O", "B-X")[i % 2] for i in range(aug.n_sentence)])
            config = TrainConfig(d_model=8, n_heads=2, n_layers=2, ff_dim=12, max_len=64, seed=trial)
            model = init_model(build_vocab([aug]), ["B-X", "O"], config)
            assert gradient_check(model, aug, 1e-4, seed=trial) < 1e-4

    def test_uniform_labels_classifier_bias(self):
        aug = assemble(Sentence("s", ["a", "b", "c"], ["O", "O", "O"]), [], 16)
        model = tiny_model([aug], labels=("B-A", "O"))
        assert gradient_check(model, aug, 1e-4) < 1e-4

    @pytest.mark.parametrize("layers,heads,mode", [
        (1, 1, "default"),
        (1, 2, "strict-paper"),
        (2, 1, "strict-paper"),
        (2, 2, "default"),
        (2, 4, "default"),
        (2, 4, "strict-paper"),
    ])
    def test_architecture_grid(self, layers, heads, mode):
        # tanh keeps the loss smooth, so this must hold for arbitrary seeds,
        # not just lucky ones
        from helpers import random_augmented as gen

        rng = np.random.default_rng(hash((layers, heads, mode)) % 2**31)
        aug = gen(rng, mode, labeled=True)
        config = TrainConfig(d_model=16, n_heads=heads, n_layers=layers, ff_dim=20, max_len=64, seed=7)
        model = init_model(build_vocab([aug]), ["B-X", "B-Y", "I-X", "I-Y", "O"], config)
        assert gradient_check(model, aug, 1e-4, seed=3) < 1e-4

    def test_unreachable_value_row_has_zero_gradient(self):
        # strict mode: no query attends a "$" separator, so the loss cannot
        # depend on its embedding row; both gradient routes must agree on 0
        from propner.encoder import _cross_entropy, _example, _loss_and_grads

        sentence = Sentence("s", ["a", "b", "c", "d"], ["B-X", "O", "B-X", "O"])
        pairs = [EntityMatch(0, 1, "a", "Q1", "x"), EntityMatch(2, 3, "c", "Q2", "y")]
        aug = assemble(sentence, pairs, 64, "strict-paper")
        model = tiny_model([aug])
        example = _example(model, aug)
        grads = model.views(np.zeros_like(model.flat))
        _loss_and_grads(model, example, grads)
        sep_row = model.vocab["$"]
        assert (grads["embed"][sep_row] == 0.0).all()
        base = _cross_entropy(model, *example)[0]
        model.params["embed"][sep_row, 0] += 1e-4
        assert _cross_entropy(model, *example)[0] == base

    def test_epsilon_range_enforced(self):
        aug = assemble(Sentence("s", ["a"], ["O"]), [], 16)
        model = tiny_model([aug], labels=("O",))
        with pytest.raises(ValueError):
            gradient_check(model, aug, 1e-2)


class TestPredict:
    def test_zero_logits_uniform(self):
        aug = assemble(Sentence("s", ["a", "b"], ["O", "O"]), [], 16)
        model = tiny_model([aug], labels=("B-X", "O"))
        model.params["cls.w"][:] = 0.0
        model.params["cls.b"][:] = 0.0
        assert np.allclose(predict(model, aug), 0.5)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(12)
        aug = random_augmented(rng, "default")
        model = tiny_model([aug], labels=("B-A", "B-B", "B-C"))
        dist = predict(model, aug)
        assert dist.shape == (aug.n_sentence, 3)
        assert np.allclose(dist.sum(axis=1), 1.0, atol=1e-9)

    def test_memorized_argmax_equals_gold(self):
        words = ["alpha", "beta", "gamma", "delta"]
        sentences = [Sentence(str(i), [words[i], words[(i + 1) % 4]], ["B-E", "O"]) for i in range(4)]
        augs = [assemble(s, [], 8) for s in sentences]
        model = train(augs, TrainConfig(max_len=8, epochs=150, seed=1))
        for sentence, aug in zip(sentences, augs):
            assert predict_tags(model, aug) == list(sentence.gold_tags)


class TestConfigAndLabels:
    @pytest.mark.parametrize("key,value", [
        ("d_model", True), ("n_heads", 2.0), ("ff_dim", 0), ("max_len", None), ("n_layers", -1), ("epochs", "3"),
        ("lr", True), ("lr", -0.1), ("lr", float("nan")),
    ])
    def test_config_field_out_of_range(self, key, value):
        with pytest.raises(ValueError, match=f"'{key}'"):
            TrainConfig(**{key: value})

    @pytest.mark.parametrize("labels,needle", [
        ([], "non-empty"),
        (["O", "B-X"], "sorted"),
        (["B-X", "B-X"], "distinct"),
        (["B-X", "X"], "invalid BIO tag 'X'"),
    ])
    def test_init_model_checks_labels(self, labels, needle):
        aug = assemble(Sentence("s", ["a"], ["O"]), [], 8)
        with pytest.raises(ValueError, match=f"'labels'.*{needle}"):
            init_model(build_vocab([aug]), labels, TINY)


class TestModelFile:
    def test_round_trip(self, tmp_path):
        aug = assemble(Sentence("s", ["a", "b"], ["B-X", "O"]), [], 16)
        model = train([aug], TrainConfig(max_len=16, epochs=3, seed=2))
        path = tmp_path / "model.bin"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.vocab == model.vocab and loaded.labels == model.labels
        assert all(np.array_equal(loaded.params[k], model.params[k]) for k in model.params)
        assert np.array_equal(forward(loaded, aug), forward(model, aug))
        second = tmp_path / "again.bin"
        save_model(loaded, second)
        assert path.read_bytes() == second.read_bytes()

    def test_version_1_file_refused(self, tmp_path):
        """Version 1, the format before the digest, is no longer read: such a
        file must be retrained."""
        aug = assemble(Sentence("s", ["a", "b"], ["B-X", "O"]), [], 16)
        path = tmp_path / "model.bin"
        save_model(train([aug], TrainConfig(max_len=16, epochs=3, seed=2)), path)
        header, body = path.read_bytes().split(b"\n", 1)
        record = json.loads(header)
        assert record["version"] == 2 and len(record.pop("digest")) == 128
        record["version"] = 1
        path.write_bytes(json.dumps(record).encode("utf-8") + b"\n" + body)
        with pytest.raises(InputError, match=r"^.*model\.bin:1: not a toy-encoder model file of version 2$"):
            load_model(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bogus.bin"
        path.write_bytes(b'{"format": "other", "version": 9}\n')
        with pytest.raises(ValueError):
            load_model(path)


def _model_at(stage, aug, tmp_path, config=TrainConfig(max_len=16, epochs=2, seed=2)):
    """A model fresh from ``init_model``, from ``train``, or from ``load_model``
    of a trained model's file."""
    if stage == "init":
        return init_model(build_vocab([aug]), ["B-X", "O"], config)
    model = train([aug], config)
    if stage == "load":
        save_model(model, tmp_path / "model.bin")
        model = load_model(tmp_path / "model.bin")
    return model


class TestParameterLayout:
    """The parameters are one float64 buffer, ``flat``, in the order of the
    model file's body; ``params`` holds views into it."""

    AUG = assemble(Sentence("s", ["a", "b"], ["B-X", "O"]), [], 16)

    @pytest.mark.parametrize("stage", ["init", "train", "load"])
    def test_params_are_views_in_name_order(self, tmp_path, stage):
        model = _model_at(stage, self.AUG, tmp_path)
        assert model.flat.dtype == np.float64 and model.flat.ndim == 1
        assert all(np.shares_memory(view, model.flat) for view in model.params.values())
        assert list(model.params) == sorted(model.params)
        model.flat[:] = np.arange(model.flat.size)
        assert np.array_equal(np.concatenate([view.ravel() for view in model.params.values()]), model.flat)

    @pytest.mark.parametrize("stage", ["init", "train", "load"])
    def test_file_body_is_the_buffer(self, tmp_path, stage):
        model = _model_at(stage, self.AUG, tmp_path)
        path = tmp_path / "again.bin"
        save_model(model, path)
        assert path.read_bytes().split(b"\n", 1)[1] == model.flat.astype("<f8").tobytes()

    @pytest.mark.parametrize("stage", ["init", "train", "load"])
    def test_one_step_updates_the_buffer(self, tmp_path, stage):
        from propner.encoder import _example, _loss_and_grads

        model = _model_at(stage, self.AUG, tmp_path)
        config = TrainConfig(max_len=16, epochs=1, seed=2)
        start = model.flat.copy()
        grad = np.zeros_like(model.flat)
        loss = _loss_and_grads(model, _example(model, self.AUG), model.views(grad))
        assert grad.shape == model.flat.shape and np.isfinite(loss)
        if stage == "init":  # train's first step from the same seed
            assert np.array_equal(train([self.AUG], config).flat, start - config.lr * grad)
        model.flat -= config.lr * grad
        expected = model.views(start - config.lr * grad)
        assert all(np.array_equal(view, expected[name]) for name, view in model.params.items())

    def test_non_finite_value_names_its_array(self, tmp_path):
        model = _model_at("train", self.AUG, tmp_path)
        model.params["layers.1.b2"][3] = np.nan
        path = tmp_path / "nan.bin"
        save_model(model, path)
        with pytest.raises(ValueError, match=re.escape(f"{path}: non-finite values in 'layers.1.b2'")):
            load_model(path)
