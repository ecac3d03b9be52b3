"""Small from-scratch transformer tagger driven by a binary attention mask.

Everything is plain float64 numpy with hand-written gradients, so the
masked-softmax path can be verified coordinate by coordinate against
central finite differences. Per layer:

    Q, K, V = X Wq, X Wk, X Wv          (split into H heads)
    S = Q K^T / sqrt(d_head),  S[i, j] = -inf where mask[i, j] = 0
    A = softmax(S)                       (masked weights are exactly 0;
                                          a row with no set bit is all 0)
    X = X + concat_heads(A V) Wo         (residual)
    X = X + tanh(X W1 + b1) W2 + b2      (residual)

followed by a linear classifier per position. The feed-forward activation
is tanh on purpose: the loss stays smooth in every parameter, so central
finite differences agree with the analytic gradients at any point (a relu
kink inside the difference interval would not). Training is plain
per-sentence gradient descent with a fixed seed: two runs with the same
seed and data produce bit-identical parameters.

The parameters live in one float64 buffer, ``ToyEncoderModel.flat``, in
sorted-name order, the order of the model file's body; ``params`` holds
named views into it. A gradient is a buffer of the same layout, so one
update step is one ``flat -= lr * grad``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from propner.augmenter import AugmentedInput
from propner.ensemble import check_labels
from propner.inputs import InputError, located

UNK_TOKEN = "[UNK]"


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite during training."""


@dataclass
class TrainConfig:
    d_model: int = 32
    n_heads: int = 4
    n_layers: int = 2
    ff_dim: int = 64
    max_len: int = 256
    lr: float = 0.05
    epochs: int = 50
    seed: int = 0

    def __post_init__(self) -> None:
        for key, low in (("d_model", 1), ("n_heads", 1), ("ff_dim", 1), ("max_len", 1),
                         ("n_layers", 0), ("epochs", 0), ("seed", 0)):
            value = getattr(self, key)
            if type(value) is not int or value < low:
                raise ValueError(f"{key!r} must be an integer of at least {low}, got {value!r}")
        if self.d_model % self.n_heads:
            raise ValueError(f"'d_model' {self.d_model} is not divisible by 'n_heads' {self.n_heads}")
        if type(self.lr) not in (int, float) or not 0 < self.lr < math.inf:
            raise ValueError(f"'lr' must be a finite positive number, got {self.lr!r}")


@dataclass
class ToyEncoderModel:
    vocab: dict[str, int]
    labels: list[str]
    d_model: int
    n_heads: int
    n_layers: int
    ff_dim: int
    max_len: int
    seed: int
    flat: np.ndarray
    epoch_losses: list[float] = field(default_factory=list)
    params: dict[str, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.params = self.views(self.flat)

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Named views into ``flat``, a buffer laid out like ``self.flat``."""
        return _views(flat, _param_shapes(len(self.vocab), len(self.labels), self))

    def token_ids(self, tokens: list[str]) -> np.ndarray:
        unk = self.vocab[UNK_TOKEN]
        return np.array([self.vocab.get(token, unk) for token in tokens], dtype=np.int64)


def build_vocab(datasets: list[AugmentedInput]) -> dict[str, int]:
    tokens = sorted({token for aug in datasets for token in aug.tokens})
    vocab = {UNK_TOKEN: 0}
    for token in tokens:
        if token != UNK_TOKEN:
            vocab[token] = len(vocab)
    return vocab


# The hyperparameters a model file stores, each a field of TrainConfig and
# of ToyEncoderModel.
_HYPERPARAMS = ("d_model", "n_heads", "n_layers", "ff_dim", "max_len", "seed")


def _param_shapes(n_vocab: int, n_labels: int, config: TrainConfig | ToyEncoderModel) -> dict[str, tuple[int, ...]]:
    """The shape of each parameter, in the order ``init_model`` draws them."""
    d, ff = config.d_model, config.ff_dim
    shapes = {"embed": (n_vocab, d), "pos": (config.max_len, d)}
    for layer in range(config.n_layers):
        prefix = f"layers.{layer}."
        shapes.update({prefix + name: (d, d) for name in ("wq", "wk", "wv", "wo")})
        shapes.update({prefix + "w1": (d, ff), prefix + "b1": (ff,), prefix + "w2": (ff, d), prefix + "b2": (d,)})
    shapes.update({"cls.w": (d, n_labels), "cls.b": (n_labels,)})
    return shapes


def _views(flat: np.ndarray, shapes: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
    """Views into ``flat`` of the given shapes, laid out one after another in
    sorted-name order."""
    views, offset = {}, 0
    for name in sorted(shapes):
        count = math.prod(shapes[name])
        views[name] = flat[offset : offset + count].reshape(shapes[name])
        offset += count
    return views


def init_model(vocab: dict[str, int], labels: list[str], config: TrainConfig) -> ToyEncoderModel:
    check_labels(labels)
    shapes = _param_shapes(len(vocab), len(labels), config)
    model = ToyEncoderModel(
        vocab=dict(vocab),
        labels=list(labels),
        flat=np.zeros(sum(map(math.prod, shapes.values()))),
        **{key: getattr(config, key) for key in _HYPERPARAMS},
    )
    rng = np.random.default_rng(config.seed)
    for name, shape in shapes.items():  # in draw order; biases stay at zero
        if len(shape) > 1:  # embeddings and classifier at std 0.1, other weights at 1/sqrt(fan-in)
            std = 0.1 if name in ("embed", "pos", "cls.w") else 1.0 / np.sqrt(shape[0])
            model.params[name][...] = rng.normal(0.0, std, size=shape)
    return model


def _masked_softmax(scores: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """Row softmax restricted to positions where bits = 1.

    Masked weights come out exactly 0. A row with no set bit gets all-zero
    weights, which makes the attention output of such a query 0 and leaves
    its residual untouched.
    """
    keep = bits.astype(bool, copy=False)
    neg = np.where(keep, scores, -np.inf)
    empty = ~keep.any(axis=-1)
    rowmax = np.where(empty, 0.0, np.max(neg, axis=-1, initial=-np.inf))
    weights = np.exp(neg - rowmax[..., None])
    denom = weights.sum(axis=-1, keepdims=True)
    return weights / np.where(denom == 0.0, 1.0, denom)


def masked_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scaled dot-product attention over the keys each query may see.

    ``q``, ``k`` and ``v`` may carry leading head axes that share ``bits``.
    A query whose mask row has no set bit gets zero weights and a zero
    output. Returns the output and the attention weights.
    """
    scores = q @ k.swapaxes(-1, -2) / np.sqrt(k.shape[-1])
    weights = _masked_softmax(scores, bits)
    return weights @ v, weights


def _split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    t, d = x.shape
    return x.reshape(t, n_heads, d // n_heads).transpose(1, 0, 2)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    h, t, dk = x.shape
    return x.transpose(1, 0, 2).reshape(t, h * dk)


def _prepare(model: ToyEncoderModel, aug: AugmentedInput) -> tuple[np.ndarray, np.ndarray]:
    """The token ids and the boolean attention mask of an input, all that
    the forward pass reads of it."""
    if len(aug.tokens) > model.max_len:
        raise ValueError(f"input of length {len(aug.tokens)} exceeds max_len {model.max_len}")
    return model.token_ids(aug.tokens), aug.mask.bits.astype(bool)


def _forward_pass(model: ToyEncoderModel, ids: np.ndarray, keep: np.ndarray) -> tuple[np.ndarray, dict]:
    """Logits of a ``_prepare``d input and the cache the backward pass
    reads; ``cache["final"]`` holds the final-layer hidden states."""
    p = model.params
    t = len(ids)
    x = p["embed"][ids] + p["pos"][:t]
    cache = {"layers": []}
    for layer in range(model.n_layers):
        prefix = f"layers.{layer}."
        q = x @ p[prefix + "wq"]
        k = x @ p[prefix + "wk"]
        v = x @ p[prefix + "wv"]
        qh = _split_heads(q, model.n_heads)
        kh = _split_heads(k, model.n_heads)
        vh = _split_heads(v, model.n_heads)
        heads, weights = masked_attention(qh, kh, vh, keep)
        merged = _merge_heads(heads)
        attn_out = merged @ p[prefix + "wo"]
        x1 = x + attn_out
        pre = x1 @ p[prefix + "w1"] + p[prefix + "b1"]
        hidden = np.tanh(pre)
        x2 = x1 + hidden @ p[prefix + "w2"] + p[prefix + "b2"]
        cache["layers"].append(
            {"x": x, "qh": qh, "kh": kh, "vh": vh, "weights": weights, "merged": merged, "x1": x1, "hidden": hidden}
        )
        x = x2
    cache["final"] = x
    return x @ p["cls.w"] + p["cls.b"], cache


def forward(model: ToyEncoderModel, aug: AugmentedInput) -> np.ndarray:
    """Per-position label logits, shape (len(tokens), len(labels))."""
    return _forward_pass(model, *_prepare(model, aug))[0]


def hidden_states(model: ToyEncoderModel, aug: AugmentedInput) -> np.ndarray:
    """Final-layer hidden states, shape (len(tokens), d_model)."""
    return _forward_pass(model, *_prepare(model, aug))[1]["final"]


def _label_targets(model: ToyEncoderModel, aug: AugmentedInput) -> np.ndarray:
    """Label indices of the sentence tokens, positions 1..n_sentence; empty
    when the input is unlabeled."""
    index = {label: i for i, label in enumerate(model.labels)}
    targets = []
    for tag in aug.gold_tags or ():
        if tag not in index:
            raise ValueError(f"tag {tag!r} not in model label set")
        targets.append(index[tag])
    return np.array(targets, dtype=np.int64)


def _example(model: ToyEncoderModel, aug: AugmentedInput) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A training input as the loss reads it: its ``_prepare``d token ids
    and mask, then its label targets."""
    targets = _label_targets(model, aug)
    if len(targets) == 0:
        raise ValueError(f"input {aug.sentence_id!r} has no labeled positions")
    return (*_prepare(model, aug), targets)


def _cross_entropy(
    model: ToyEncoderModel, ids: np.ndarray, keep: np.ndarray, targets: np.ndarray
) -> tuple[float, np.ndarray, dict]:
    """Mean cross-entropy of an ``_example`` over the sentence tokens, its
    gradient with respect to the logits, and the forward cache."""
    logits, cache = _forward_pass(model, ids, keep)
    labeled = slice(1, len(targets) + 1)
    picked = logits[labeled]
    shifted = picked - picked.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    denom = exp.sum(axis=1, keepdims=True)
    rows = np.arange(len(targets))
    loss = float(np.mean(np.log(denom[:, 0]) - shifted[rows, targets]))
    d_picked = exp / denom
    d_picked[rows, targets] -= 1.0
    d_logits = np.zeros_like(logits)
    d_logits[labeled] = d_picked / len(targets)
    return loss, d_logits, cache


def _loss_and_grads(model: ToyEncoderModel, example: tuple, grads: dict[str, np.ndarray]) -> float:
    """Mean cross-entropy of an ``_example`` over the sentence tokens. Adds
    its gradient into ``grads``, the ``model.views`` of a buffer laid out
    like ``model.flat``."""
    p = model.params
    loss, d_logits, cache = _cross_entropy(model, *example)

    final = cache["final"]
    grads["cls.w"] += final.T @ d_logits
    grads["cls.b"] += d_logits.sum(axis=0)
    dx = d_logits @ p["cls.w"].T

    for layer in reversed(range(model.n_layers)):
        prefix = f"layers.{layer}."
        c = cache["layers"][layer]
        # x2 = x1 + tanh(x1 w1 + b1) w2 + b2
        d_hidden = dx @ p[prefix + "w2"].T
        grads[prefix + "w2"] += c["hidden"].T @ dx
        grads[prefix + "b2"] += dx.sum(axis=0)
        d_pre = d_hidden * (1.0 - c["hidden"] ** 2)
        grads[prefix + "w1"] += c["x1"].T @ d_pre
        grads[prefix + "b1"] += d_pre.sum(axis=0)
        dx1 = dx + d_pre @ p[prefix + "w1"].T
        # x1 = x + merge(A vh) wo
        grads[prefix + "wo"] += c["merged"].T @ dx1
        d_merged = dx1 @ p[prefix + "wo"].T
        d_heads = _split_heads(d_merged, model.n_heads)
        weights = c["weights"]
        d_weights = d_heads @ c["vh"].swapaxes(1, 2)
        d_vh = weights.swapaxes(1, 2) @ d_heads
        # softmax backward; zero rows and masked cells have weights 0, so
        # their score gradient vanishes as well
        d_scores = weights * (d_weights - (d_weights * weights).sum(axis=-1, keepdims=True))
        d_scores *= 1.0 / np.sqrt(c["kh"].shape[-1])
        d_qh = d_scores @ c["kh"]
        d_kh = d_scores.swapaxes(1, 2) @ c["qh"]
        dq = _merge_heads(d_qh)
        dk = _merge_heads(d_kh)
        dv = _merge_heads(d_vh)
        x = c["x"]
        grads[prefix + "wq"] += x.T @ dq
        grads[prefix + "wk"] += x.T @ dk
        grads[prefix + "wv"] += x.T @ dv
        dx = dx1 + dq @ p[prefix + "wq"].T + dk @ p[prefix + "wk"].T + dv @ p[prefix + "wv"].T

    ids = example[0]
    grads["pos"][: len(ids)] += dx
    np.add.at(grads["embed"], ids, dx)
    return loss


def train(dataset: list[AugmentedInput], config: TrainConfig) -> ToyEncoderModel:
    """Fit a tagger by per-sentence gradient descent.

    The vocabulary and label set are read off the training data. Sentence
    order is reshuffled every epoch from the run seed; given one seed and
    one platform the resulting parameters are bit-reproducible.

    Every input is prepared, and so checked, before the first step. The
    steps run with numpy's overflow and invalid-value warnings off: the
    finite-loss check reports a diverging run.
    """
    if not dataset:
        raise ValueError("training dataset is empty")
    vocab = build_vocab(dataset)
    labels = sorted({tag for aug in dataset for tag in aug.gold_tags or ()})
    model = init_model(vocab, labels, config)
    examples = [_example(model, aug) for aug in dataset]
    grad = np.zeros_like(model.flat)
    grads = model.views(grad)

    rng = np.random.default_rng(config.seed)
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            order = rng.permutation(len(dataset))
            epoch_loss = 0.0
            for idx in order:
                grad.fill(0.0)
                loss = _loss_and_grads(model, examples[idx], grads)
                if not np.isfinite(loss):
                    raise TrainingDivergedError(
                        f"non-finite loss at epoch {epoch}: lower the learning rate (current {config.lr})"
                    )
                grad *= config.lr
                model.flat -= grad
                epoch_loss += loss
            model.epoch_losses.append(epoch_loss / len(dataset))
    return model


def predict(model: ToyEncoderModel, aug: AugmentedInput) -> np.ndarray:
    """Label distributions for sentence tokens, shape (n_sentence, len(labels)).

    Softmax over the logits at positions 1..n_sentence; appended context
    positions are discarded.
    """
    logits = forward(model, aug)[1 : aug.n_sentence + 1]
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def predict_tags(model: ToyEncoderModel, aug: AugmentedInput) -> list[str]:
    """Argmax tags per sentence token; ties go to the lexicographically
    smallest label (the label list is sorted at training time)."""
    dist = predict(model, aug)
    return [model.labels[i] for i in dist.argmax(axis=1)]


def gradient_check(model: ToyEncoderModel, aug: AugmentedInput, epsilon: float, n_coords: int = 120, seed: int = 0) -> float:
    """Max relative error between analytic and central-difference gradients.

    Samples at least one coordinate from every parameter group (and
    ``n_coords`` in total) with a seeded generator. The relative error uses
    a small absolute floor so coordinates whose true gradient is 0, e.g.
    value rows visible to no query, compare cleanly against the
    finite-difference noise.
    """
    if not 1e-6 <= epsilon <= 1e-3:
        raise ValueError(f"epsilon {epsilon} outside [1e-6, 1e-3]")
    example = _example(model, aug)
    analytic = model.views(np.zeros_like(model.flat))
    _loss_and_grads(model, example, analytic)
    rng = np.random.default_rng(seed)
    per_group = max(1, -(-n_coords // len(model.params)))

    worst = 0.0
    for name, param in model.params.items():
        for index in rng.integers(0, param.size, size=per_group):
            original = param.flat[index]
            param.flat[index] = original + epsilon
            loss_plus = _cross_entropy(model, *example)[0]
            param.flat[index] = original - epsilon
            loss_minus = _cross_entropy(model, *example)[0]
            param.flat[index] = original
            numeric = (loss_plus - loss_minus) / (2.0 * epsilon)
            exact = analytic[name].flat[index]
            rel = abs(exact - numeric) / max(abs(exact), abs(numeric), 1e-3)
            worst = max(worst, rel)
    return worst


_MODEL_FORMAT = "toy-encoder"
_MODEL_VERSION = 2  # version 1 has no digest


def _digest(header: dict, body: bytes) -> str:
    """blake2b of the canonical header without its digest, then the body."""
    import hashlib  # loads OpenSSL, which commands that read no model never need

    rest = {key: value for key, value in header.items() if key != "digest"}
    canonical = json.dumps(rest, sort_keys=True, ensure_ascii=False).encode("utf-8")
    return hashlib.blake2b(canonical + body).hexdigest()


def save_model(model: ToyEncoderModel, path: str | Path) -> None:
    """Single-file dump: one JSON header line, then ``model.flat`` as raw
    little-endian float64 bytes, which hold the arrays in header order. The
    header's ``digest`` covers the rest of the header and the body.
    Byte-identical across runs."""
    body = model.flat.astype("<f8", copy=False).tobytes()
    header = {
        "format": _MODEL_FORMAT,
        "version": _MODEL_VERSION,
        "hyperparams": {
            **{key: getattr(model, key) for key in _HYPERPARAMS},
            "labels": model.labels,
            "vocab": model.vocab,
        },
        "epoch_losses": model.epoch_losses,
        "arrays": [{"name": name, "shape": list(view.shape)} for name, view in model.params.items()],
    }
    header["digest"] = _digest(header, body)
    with open(path, "wb") as handle:
        handle.write(json.dumps(header, sort_keys=True, ensure_ascii=False).encode("utf-8") + b"\n")
        handle.write(body)


def load_model(path: str | Path) -> ToyEncoderModel:
    """Read a ``save_model`` file, of version 1 or 2. A header line that is
    not such a header, or whose array list is not the one its
    hyperparameters give, a body of another length than those arrays, and
    (version 2) a digest that does not match raise an InputError naming the
    file."""
    with open(path, "rb") as handle:
        header_line, body = handle.readline(), handle.read()
    with located(path, 1):
        header = json.loads(header_line.decode("utf-8"))
        version = header["version"]
        if header["format"] != _MODEL_FORMAT or type(version) is not int or version not in (1, _MODEL_VERSION):
            raise ValueError(f"not a {_MODEL_FORMAT} model file of version 1 or {_MODEL_VERSION}")
        hp = header["hyperparams"]
        config = TrainConfig(**{key: hp[key] for key in _HYPERPARAMS})
        # Every layer has arrays, which bounds the shape table built below.
        if config.n_layers >= len(header["arrays"]):
            raise ValueError("'n_layers' must be below the number of arrays")
        vocab, labels = hp["vocab"], check_labels(hp["labels"])
        if not isinstance(vocab, dict) or sorted(vocab.values()) != list(range(len(vocab))) or UNK_TOKEN not in vocab:
            raise ValueError(f"'vocab' must number its tokens, {UNK_TOKEN!r} among them, from 0 on")
        shapes = dict(sorted(_param_shapes(len(vocab), len(labels), config).items()))
        if header["arrays"] != [{"name": name, "shape": list(shape)} for name, shape in shapes.items()]:
            raise ValueError("the array list does not match the hyperparameters")
        epoch_losses = list(header.get("epoch_losses", []))
    size = 8 * sum(map(math.prod, shapes.values()))
    if len(body) != size:
        raise InputError(path, None, f"the arrays take {size} bytes, {len(body)} follow the header")
    model = ToyEncoderModel(
        vocab=vocab,
        labels=labels,
        flat=np.frombuffer(body, dtype="<f8").astype(np.float64),
        epoch_losses=epoch_losses,
        **{key: getattr(config, key) for key in _HYPERPARAMS},
    )
    if not np.isfinite(model.flat).all():
        name = next(name for name, view in model.params.items() if not np.isfinite(view).all())
        raise InputError(path, None, f"non-finite values in {name!r}")
    if version == _MODEL_VERSION and header.get("digest") != _digest(header, body):
        raise InputError(path, None, "the digest does not match the header and body")
    return model
