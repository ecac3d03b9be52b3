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
named views into it and ``layers`` each layer's views, resolved once. A
gradient is a buffer of the same layout, so one update step is one
``flat -= lr * grad``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path

import numpy as np

from propner.augmenter import AugmentedInput
from propner.ensemble import check_labels
from propner.inputs import InputError, check_utf8, located, naming

UNK_TOKEN = "[UNK]"


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
    layers: list[tuple[np.ndarray, ...]] = field(init=False, repr=False)
    _layer_keys: list[itemgetter] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._layer_keys = [itemgetter(*(f"layers.{layer}.{name}" for name in _LAYER_PARAMS))
                            for layer in range(self.n_layers)]
        self.params = self.views(self.flat)
        self.layers = self.layer_views(self.params)

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Named views into ``flat``, a buffer laid out like ``self.flat``:
        the parameters one after another in sorted-name order."""
        shapes = _param_shapes(len(self.vocab), len(self.labels), self)
        views, offset = {}, 0
        for name in sorted(shapes):
            count = math.prod(shapes[name])
            views[name] = flat[offset : offset + count].reshape(shapes[name])
            offset += count
        return views

    def layer_views(self, views: dict[str, np.ndarray]) -> list[tuple[np.ndarray, ...]]:
        """Each layer's arrays among ``views``, in ``_LAYER_PARAMS`` order."""
        return [keys(views) for keys in self._layer_keys]


def build_vocab(datasets: list[AugmentedInput]) -> dict[str, int]:
    tokens = sorted({token for aug in datasets for token in aug.tokens} - {UNK_TOKEN})
    return {token: index for index, token in enumerate([UNK_TOKEN, *tokens])}


# The hyperparameters a model file stores, each a field of TrainConfig and
# of ToyEncoderModel.
_HYPERPARAMS = ("d_model", "n_heads", "n_layers", "ff_dim", "max_len", "seed")
# The arrays of one layer, in the order the passes unpack them.
_LAYER_PARAMS = ("wq", "wk", "wv", "wo", "w1", "b1", "w2", "b2")


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
    live = np.logical_or.reduce(keep, -1, keepdims=True)
    rowmax = np.maximum.reduce(neg, -1, keepdims=True, initial=-np.inf)
    weights = np.exp(neg - np.where(live, rowmax, 0.0))
    # A live row's sum is at least 1 (its max cell gives exp(0)) or NaN.
    return weights / np.where(live, np.add.reduce(weights, -1, keepdims=True), 1.0)


def masked_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scaled dot-product attention over the keys each query may see.

    ``q``, ``k`` and ``v`` may carry leading head axes that share ``bits``.
    A query whose mask row has no set bit gets zero weights and a zero
    output. Returns the output and the attention weights.
    """
    scores = q @ k.swapaxes(-1, -2) / math.sqrt(k.shape[-1])
    weights = _masked_softmax(scores, bits)
    return weights @ v, weights


def _prepare(model: ToyEncoderModel, aug: AugmentedInput) -> tuple[np.ndarray, np.ndarray]:
    """The token ids and the boolean attention mask of an input, all that
    the forward pass reads of it. The mask is derived from the input's
    layout here, once per pass, and every layer reads that one array."""
    if len(aug.tokens) > model.max_len:
        raise ValueError(f"input of length {len(aug.tokens)} exceeds max_len {model.max_len}")
    unk = model.vocab[UNK_TOKEN]
    return np.array([model.vocab.get(token, unk) for token in aug.tokens], dtype=np.int64), aug.mask.bits


def _forward_pass(model: ToyEncoderModel, ids: np.ndarray, keep: np.ndarray, cache: list | None = None) -> np.ndarray:
    """Logits of a ``_prepare``d input. Given a list as ``cache``, appends
    what the backward pass reads: one tuple per layer, then the final-layer
    hidden states."""
    p = model.params
    t, h = len(ids), model.n_heads
    x = p["embed"][ids] + p["pos"][:t]
    for wq, wk, wv, wo, w1, b1, w2, b2 in model.layers:
        qh = (x @ wq).reshape(t, h, -1).transpose(1, 0, 2)
        kh = (x @ wk).reshape(t, h, -1).transpose(1, 0, 2)
        vh = (x @ wv).reshape(t, h, -1).transpose(1, 0, 2)
        heads, weights = masked_attention(qh, kh, vh, keep)
        merged = heads.transpose(1, 0, 2).reshape(t, -1)
        x1 = x + merged @ wo
        hidden = np.tanh(x1 @ w1 + b1)
        if cache is not None:
            cache.append((x, qh, kh, vh, weights, merged, x1, hidden))
        x = x1 + hidden @ w2 + b2
    if cache is not None:
        cache.append(x)
    return x @ p["cls.w"] + p["cls.b"]


def forward(model: ToyEncoderModel, aug: AugmentedInput) -> np.ndarray:
    """Per-position label logits, shape (len(tokens), len(labels))."""
    return _forward_pass(model, *_prepare(model, aug))


def _example(model: ToyEncoderModel, aug: AugmentedInput) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A training input as the loss reads it: its ``_prepare``d token ids
    and mask, then the label indices of its sentence tokens, positions
    1..n_sentence."""
    if not aug.gold_tags:
        raise ValueError(f"input {aug.sentence_id!r} has no labeled positions")
    index = {label: i for i, label in enumerate(model.labels)}
    targets = np.array([index[tag] for tag in aug.gold_tags], dtype=np.int64)
    return (*_prepare(model, aug), targets)


def _cross_entropy(
    model: ToyEncoderModel, ids: np.ndarray, keep: np.ndarray, targets: np.ndarray
) -> tuple[float, np.ndarray, list]:
    """Mean cross-entropy of an ``_example`` over the sentence tokens, its
    gradient with respect to the logits, and the forward cache."""
    cache = []
    logits = _forward_pass(model, ids, keep, cache)
    labeled = slice(1, len(targets) + 1)
    picked = logits[labeled]
    shifted = picked - np.maximum.reduce(picked, 1, keepdims=True)
    exp = np.exp(shifted)
    denom = np.add.reduce(exp, 1, keepdims=True)
    rows = np.arange(len(targets))
    loss = float(np.add.reduce(np.log(denom[:, 0]) - shifted[rows, targets]) / len(targets))
    d_picked = exp / denom
    d_picked[rows, targets] -= 1.0
    d_logits = np.zeros_like(logits)
    d_logits[labeled] = d_picked / len(targets)
    return loss, d_logits, cache


def _loss_and_grads(model: ToyEncoderModel, example: tuple, grads: dict[str, np.ndarray]) -> float:
    """Mean cross-entropy of an ``_example`` over the sentence tokens. Adds
    its gradient into ``grads``, the ``model.views`` of a buffer laid out
    like ``model.flat``."""
    loss, d_logits, cache = _cross_entropy(model, *example)
    ids = example[0]
    t, h = len(ids), model.n_heads
    scale = 1.0 / math.sqrt(model.d_model // h)

    grads["cls.w"] += cache.pop().T @ d_logits
    grads["cls.b"] += np.add.reduce(d_logits, 0)
    dx = d_logits @ model.params["cls.w"].T

    for layer, layer_grads, saved in reversed(list(zip(model.layers, model.layer_views(grads), cache))):
        wq, wk, wv, wo, w1, b1, w2, b2 = layer
        gq, gk, gv, go, g1, gb1, g2, gb2 = layer_grads
        x, qh, kh, vh, weights, merged, x1, hidden = saved
        # x2 = x1 + tanh(x1 w1 + b1) w2 + b2
        d_hidden = dx @ w2.T
        g2 += hidden.T @ dx
        gb2 += np.add.reduce(dx, 0)
        d_pre = d_hidden * (1.0 - hidden ** 2)
        g1 += x1.T @ d_pre
        gb1 += np.add.reduce(d_pre, 0)
        dx1 = dx + d_pre @ w1.T
        # x1 = x + merge(A vh) wo
        go += merged.T @ dx1
        d_heads = (dx1 @ wo.T).reshape(t, h, -1).transpose(1, 0, 2)
        d_weights = d_heads @ vh.swapaxes(1, 2)
        d_vh = weights.swapaxes(1, 2) @ d_heads
        # softmax backward; zero rows and masked cells have weights 0, so
        # their score gradient vanishes as well
        d_scores = weights * (d_weights - np.add.reduce(d_weights * weights, -1, keepdims=True))
        d_scores *= scale
        dq = (d_scores @ kh).transpose(1, 0, 2).reshape(t, -1)
        dk = (d_scores.swapaxes(1, 2) @ qh).transpose(1, 0, 2).reshape(t, -1)
        dv = d_vh.transpose(1, 0, 2).reshape(t, -1)
        gq += x.T @ dq
        gk += x.T @ dk
        gv += x.T @ dv
        dx = dx1 + dq @ wq.T + dk @ wk.T + dv @ wv.T

    grads["pos"][:t] += dx
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
                    raise ValueError(
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
    exp = np.exp(logits - np.maximum.reduce(logits, 1, keepdims=True))
    return exp / np.add.reduce(exp, 1, keepdims=True)


def predict_tags(model: ToyEncoderModel, aug: AugmentedInput) -> list[str]:
    """Argmax tags per sentence token; ties go to the lexicographically
    smallest label (the label list is sorted at training time)."""
    dist = predict(model, aug)
    return [model.labels[i] for i in dist.argmax(axis=1)]


_MODEL_FORMAT = "toy-encoder"
_MODEL_VERSION = 2


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
    with naming(path), open(path, "wb") as handle:
        handle.write(_header_line(header))
        handle.write(body)


def _header_line(header: dict) -> bytes:
    """The one layout of a model file's header line: sorted keys, no ASCII
    escapes, ``json.dumps``'s separators, then a newline."""
    return json.dumps(header, sort_keys=True, ensure_ascii=False).encode("utf-8") + b"\n"


def load_model(path: str | Path) -> ToyEncoderModel:
    """Read a ``save_model`` file. A header line that is not such a header,
    that holds a string UTF-8 cannot encode (the digest encodes the header),
    or whose array list is not the one its hyperparameters give, a body of
    another length than those arrays, a digest that does not match, and
    then a header whose bytes are not the ones ``save_model`` writes for
    its values (the digest covers the values, not their layout) raise an
    InputError naming the file."""
    with open(path, "rb") as handle:
        header_line, body = handle.readline(), handle.read()
    with located(path, 1):
        header = json.loads(header_line.decode("utf-8"))
        check_utf8(json.dumps(header, ensure_ascii=False))
        if header["format"] != _MODEL_FORMAT or type(header["version"]) is not int or header["version"] != _MODEL_VERSION:
            raise ValueError(f"not a {_MODEL_FORMAT} model file of version {_MODEL_VERSION}")
        hp = header["hyperparams"]
        config = TrainConfig(**{key: hp[key] for key in _HYPERPARAMS})
        # Every layer has arrays, which bounds the shape table built below.
        if config.n_layers >= len(header["arrays"]):
            raise ValueError("'n_layers' must be below the number of arrays")
        vocab, labels = hp["vocab"], check_labels(hp["labels"])
        # A bool would pass the order test, since sorted takes False for 0.
        if (not isinstance(vocab, dict) or set(map(type, vocab.values())) - {int}
                or sorted(vocab.values()) != list(range(len(vocab))) or UNK_TOKEN not in vocab):
            raise ValueError(f"'vocab' must number its tokens, {UNK_TOKEN!r} among them, from 0 on")
        shapes = dict(sorted(_param_shapes(len(vocab), len(labels), config).items()))
        if header["arrays"] != [{"name": name, "shape": list(shape)} for name, shape in shapes.items()]:
            raise ValueError("the array list does not match the hyperparameters")
        epoch_losses = header["epoch_losses"]
        if type(epoch_losses) is not list or not all(type(x) in (int, float) and math.isfinite(x) for x in epoch_losses):
            raise ValueError("'epoch_losses' must be a list of finite numbers")
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
    if header.get("digest") != _digest(header, body):
        raise InputError(path, None, "the digest does not match the header and body")
    if header_line != _header_line(header):
        raise InputError(path, 1, "the header is not laid out as propner writes it")
    return model
