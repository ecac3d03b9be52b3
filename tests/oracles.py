"""Independent reference implementations used to check the fast paths.

Everything here is deliberately naive: exhaustive span scans, cell-by-cell
rule application, per-label counting. None of it shares code with the
package internals it verifies, with three exceptions. The line-by-line
block reader feeds its lines through the package's ``parse_lines`` and checks
its tags with ``check_tag``. The per-sentence vote repairs its tags with the
package's ``repair_bio``. In the encoder probes at the end, the gradient
check differentiates the package's own loss numerically, and the hidden
states are read off its own forward pass.
"""

from __future__ import annotations

import json

import numpy as np

from propner.encoder import ToyEncoderModel, _cross_entropy, _example, _forward_pass, _loss_and_grads, _prepare
from propner.ensemble import WeightedPredictions, check_tag, repair_bio
from propner.inputs import parse_lines
from propner.kbstore import KnowledgeBase, normalize_surface
from propner.matcher import EntityMatch


def line_by_line_blocks(path, widths: tuple[int, ...]) -> list[tuple[str, list[list[str]], int]]:
    """The blocks of ``cli._read_blocks``, read by one closure call per line
    through ``parse_lines``, which adds the empty line past the end and
    names the line of a defect."""
    blocks: list[tuple[str, list[list[str]], int]] = []
    starts: dict[str, int] = {}  # the first line of each id's block
    sentence_id: str | None = None
    rows: list[list[str]] = []
    tags: set[str] = set()
    number = 0  # of the line being parsed

    def claim(sid: str) -> str:
        if sid in starts:
            raise ValueError(f"duplicate id {sid!r}")
        starts[sid] = number
        return sid

    def parse(line: str) -> None:
        nonlocal sentence_id, rows, number
        number += 1
        fields = line.split()
        if not fields:
            if rows:
                blocks.append((sentence_id, rows, starts[sentence_id]))
                sentence_id, rows = None, []
            elif sentence_id is not None:
                raise ValueError(f"header for id {sentence_id!r} has no token lines")
        elif fields[0] == "#" and fields[1:2] == ["id"]:
            if len(fields) != 3:
                raise ValueError("header must look like '# id <string>'")
            if rows:
                raise ValueError("'# id' header inside a sentence block")
            if sentence_id is not None:
                raise ValueError(f"header for id {sentence_id!r} has no token lines")
            sentence_id = claim(fields[2])
        else:
            if sentence_id is None:
                sentence_id = claim(str(len(blocks)))
            width = len(fields)
            if width not in widths:
                raise ValueError(f"expected {' or '.join(map(str, widths))} columns, got {width}")
            if rows and width != len(rows[0]):
                raise ValueError(f"{width} columns in a block whose first line has {len(rows[0])}")
            if width % 2 == 0 and fields[-1] not in tags:
                tags.add(check_tag(fields[-1]))
            rows.append(fields)

    parse_lines(path, parse)
    return blocks


def brute_force_candidates(kb: KnowledgeBase, tokens: list[str]) -> list[tuple[int, int, str, str]]:
    """Every (start, end, surface, qid) whose normalized span is an index key,
    found by scanning all O(n^2) token spans."""
    found = []
    n = len(tokens)
    for start in range(n):
        for end in range(start + 1, n + 1):
            surface = normalize_surface(" ".join(tokens[start:end]))
            if surface and surface in kb.surface_index:
                for qid in kb.surface_index[surface]:
                    found.append((start, end, surface, qid))
    return sorted(found)


def spans_overlap(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return a[0] < b[1] and b[0] < a[1]


def check_selection(candidates: list[EntityMatch], selected: list[EntityMatch]) -> None:
    """Assert the overlap-resolution contract.

    Distinct selected spans never overlap, and every discarded candidate
    overlaps some selected span of a different extent (so in particular no
    discarded candidate is longer than a selected match while being
    disjoint from all of them).
    """
    spans = {(m.start, m.end) for m in selected}
    span_list = sorted(spans)
    for i, a in enumerate(span_list):
        for b in span_list[i + 1 :]:
            assert not spans_overlap(a, b), f"selected spans {a} and {b} overlap"
    selected_keys = {(m.start, m.end, m.qid) for m in selected}
    for cand in candidates:
        if (cand.start, cand.end, cand.qid) in selected_keys:
            continue
        blockers = [s for s in spans if spans_overlap(s, (cand.start, cand.end)) and s != (cand.start, cand.end)]
        assert blockers, f"candidate {(cand.start, cand.end, cand.qid)} was discarded without a conflict"


def pairwise_resolve(candidates: list[EntityMatch]) -> list[EntityMatch]:
    """Greedy overlap resolution by the pairwise rule: in priority order
    (length desc, start asc, qid number asc), a candidate is dropped if it
    overlaps any selected span of a different extent."""
    ordered = sorted(candidates, key=lambda m: (m.start - m.end, m.start, int(m.qid[1:])))
    selected: list[EntityMatch] = []
    spans: set[tuple[int, int]] = set()
    for cand in ordered:
        span = (cand.start, cand.end)
        if any(spans_overlap(s, span) and s != span for s in spans):
            continue
        selected.append(cand)
        spans.add(span)
    return sorted(selected, key=lambda m: (m.start, m.end, int(m.qid[1:])))


def rule_mask(n_sentence: int, size: int, segments, mode: str) -> np.ndarray:
    """Build the attention mask by evaluating the masking rules per cell."""
    entity_of = [-1] * size
    context_of = [-1] * size
    for index, seg in enumerate(segments):
        for pos in seg.entity_positions:
            entity_of[pos] = index
        for pos in seg.context_positions:
            context_of[pos] = index
    block = n_sentence + 2
    bits = np.zeros((size, size), dtype=np.uint8)
    for i in range(size):
        for j in range(size):
            if i < block and j < block:
                value = 1
            elif entity_of[i] >= 0 and context_of[j] == entity_of[i]:
                value = 1
            elif mode == "default" and context_of[i] >= 0 and entity_of[j] == context_of[i]:
                value = 1
            elif mode == "default" and context_of[i] >= 0 and context_of[j] == context_of[i]:
                value = 1
            elif mode == "default" and i == j and i >= block and context_of[i] < 0:
                value = 1
            else:
                value = 0
            bits[i, j] = value
    return bits


def reference_json_line(aug) -> str:
    """An input's aug-JSONL line (format 1) as ``json.dumps`` writes its
    dict, with ``mask_bits`` read off the dense mask by ``np.argwhere``."""
    bits = aug.mask.bits.copy()
    bits[: aug.n_sentence + 2, : aug.n_sentence + 2] = False
    record = {
        "id": aug.sentence_id,
        "tokens": aug.tokens,
        "n_sentence": aug.n_sentence,
        "segments": [
            {"entity": [s.entity_positions.start, s.entity_positions.stop],
             "context": [s.context_positions.start, s.context_positions.stop]}
            for s in aug.segments
        ],
        "mask_mode": aug.mask_mode,
        "mask_bits": np.argwhere(bits).tolist(),
        "gold_tags": aug.gold_tags,
    }
    return json.dumps(record, sort_keys=True, ensure_ascii=False)


def reference_softmax_row(scores: np.ndarray, allowed: list[int]) -> np.ndarray:
    """Softmax over an explicit subset of key positions, computed directly."""
    out = np.zeros(scores.shape[0])
    sub = scores[allowed]
    exp = np.exp(sub - sub.max())
    out[allowed] = exp / exp.sum()
    return out


def reference_masked_softmax(scores: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """The encoder's masked softmax as first written: the row max and the
    row sum through ``np.max`` and ``.sum``, and a zero sum replaced by 1."""
    keep = bits.astype(bool, copy=False)
    neg = np.where(keep, scores, -np.inf)
    empty = ~keep.any(axis=-1)
    rowmax = np.where(empty, 0.0, np.max(neg, axis=-1, initial=-np.inf))
    weights = np.exp(neg - rowmax[..., None])
    denom = weights.sum(axis=-1, keepdims=True)
    return weights / np.where(denom == 0.0, 1.0, denom)


def counting_vote(labels: list[str], fold_votes: list[list[str]], weights: list[float]) -> str:
    """Weighted plurality over hard per-fold votes for one token."""
    totals = {label: 0.0 for label in labels}
    for vote, weight in zip(fold_votes, weights):
        totals[vote] += weight
    best = max(totals.values())
    return min(label for label, total in totals.items() if total == best)


def per_sentence_vote(preds: WeightedPredictions, hard: bool = False) -> list[list[str]]:
    """The weighted vote one sentence at a time: each fold's rows are cut
    into sentences by ``preds.lengths``, a zero score array per sentence gets
    each fold's weighted distribution (or, ``hard``, its one-hot argmax)
    added in fold order, and the argmax, ties going to the smallest label,
    is repaired into valid BIO."""
    one_hot = np.eye(len(preds.labels))
    bounds = np.cumsum([0, *preds.lengths]).tolist()
    voted = []
    for start, end in zip(bounds, bounds[1:]):
        scores = np.zeros((end - start, len(preds.labels)))
        for weight, fold in zip(preds.weights, preds.distributions):
            rows = fold[start:end]
            scores += weight * (one_hot[rows.argmax(axis=1)] if hard else rows)
        voted.append(repair_bio([preds.labels[i] for i in scores.argmax(axis=1)]))
    return voted


def reference_spans(tags: list[str]) -> set[tuple[int, int, str]]:
    """Lenient BIO spans as (start, end, type), each found from its start: a
    tag of type X starts a span unless it is ``I-X`` right after a tag of
    type X, and the span runs on over the ``I-X`` tags that follow."""
    spans = set()
    for start, tag in enumerate(tags):
        kind = tag[2:]
        if tag == "O" or (tag.startswith("I-") and start > 0 and tags[start - 1][2:] == kind):
            continue
        end = start + 1
        while end < len(tags) and tags[end] == f"I-{kind}":
            end += 1
        spans.add((start, end, kind))
    return spans


def brute_force_counts(gold: list[list[str]], pred: list[list[str]]) -> dict[str, tuple[int, int, int]]:
    """(tp, fp, fn) of each type that some gold or predicted span has,
    counted one type and one sentence at a time."""
    kinds = {span[2] for tags in [*gold, *pred] for span in reference_spans(tags)}
    counts = {}
    for kind in sorted(kinds):
        tp = fp = fn = 0
        for gold_tags, pred_tags in zip(gold, pred):
            wanted = {span for span in reference_spans(gold_tags) if span[2] == kind}
            found = {span for span in reference_spans(pred_tags) if span[2] == kind}
            tp += len(wanted & found)
            fp += len(found - wanted)
            fn += len(wanted - found)
        counts[kind] = (tp, fp, fn)
    return counts


def hidden_states(model: ToyEncoderModel, aug) -> np.ndarray:
    """Final-layer hidden states, shape (len(tokens), d_model)."""
    cache = []
    _forward_pass(model, *_prepare(model, aug), cache)
    return cache[-1]


def gradient_check(model: ToyEncoderModel, aug, epsilon: float, n_coords: int = 120, seed: int = 0) -> float:
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
