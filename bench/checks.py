"""Output checks that rely on the generator's ground truth and on code in
this directory, never on the code under test."""

from __future__ import annotations

import random

from workloads import QID_CAP, Inputs, expected_context, normalize


def check_kb(kb, inputs: Inputs, truth: dict[str, list[str]], seed: int, sample: int = 300) -> list[str]:
    """A seeded sample of contexts and surfaces against the ground truth."""
    errors = []
    if len(kb.contexts) != len(inputs.entities):
        errors.append(f"kb has {len(kb.contexts)} entities, dump has {len(inputs.entities)} valid ones")
    if len(kb.surface_index) != len(truth):
        errors.append(f"kb has {len(kb.surface_index)} surfaces, expected {len(truth)}")
    rng = random.Random(seed)
    for qid in rng.sample(sorted(inputs.entities), min(sample, len(inputs.entities))):
        want = expected_context(inputs.entities[qid], inputs.labels)
        if kb.contexts.get(qid) != want:
            errors.append(f"context of {qid}: {kb.contexts.get(qid)!r} != {want!r}")
    for surface in rng.sample(sorted(truth), min(sample, len(truth))):
        if kb.surface_index.get(surface) != truth[surface]:
            errors.append(f"surface {surface!r}: {kb.surface_index.get(surface)} != {truth[surface]}")
    return errors[:5]


def check_round_trip_kb(built, loaded) -> list[str]:
    if built.surface_index != loaded.surface_index or built.contexts != loaded.contexts:
        return ["save_kb/load_kb round trip changed the knowledge base"]
    return []


def candidate_spans(tokens: list[str], truth: dict[str, list[str]], max_words: int) -> list[tuple[int, int]]:
    """Every span of at most ``max_words`` tokens (the longest surface) that
    is a surface."""
    n = len(tokens)
    return [
        (i, j)
        for i in range(n)
        for j in range(i + 1, min(n, i + max_words) + 1)
        if normalize(" ".join(tokens[i:j])) in truth
    ]


def brute_force_pairs(tokens: list[str], truth: dict[str, list[str]], contexts: dict[str, str], max_words: int) -> list[tuple]:
    """All spans looked up, longest first, then leftmost; one pair per qid."""
    n = len(tokens)
    spans = candidate_spans(tokens, truth, max_words)
    taken = [False] * n
    selected = []
    for i, j in sorted(spans, key=lambda span: (span[0] - span[1], span[0])):
        if not any(taken[i:j]):
            taken[i:j] = [True] * (j - i)
            selected.append((i, j))
    pairs = []
    for i, j in sorted(selected):
        for qid in truth[normalize(" ".join(tokens[i:j]))]:
            pairs.append((i, j, qid, contexts[qid]))
    return pairs


def check_retrieval(retrieved: list[tuple[list[str], list[tuple]]], truth, contexts, max_words: int) -> list[str]:
    """``retrieved`` holds (tokens, program pairs as (start, end, qid, context))."""
    errors = []
    for tokens, pairs in retrieved:
        want = brute_force_pairs(tokens, truth, contexts, max_words)
        if pairs != want:
            errors.append(f"retrieval differs from brute force on {' '.join(tokens[:6])} ...")
    return errors[:5]


def aug_layout(aug) -> tuple:
    return (
        list(aug.tokens),
        aug.n_sentence,
        [(sorted(s.entity_positions), sorted(s.context_positions)) for s in aug.segments],
        aug.mask.bits.tobytes(),
        aug.mask.bits.shape,
    )


def check_aug_round_trip(written, read_back) -> list[str]:
    if len(written) != len(read_back):
        return [f"wrote {len(written)} augmented inputs, read back {len(read_back)}"]
    for a, b in zip(written, read_back):
        if aug_layout(a) != aug_layout(b):
            return [f"aug-JSONL round trip changed input {a.sentence_id!r}"]
    return []


def read_tagged(path) -> list[tuple[str, list[str]]]:
    """(id, tags) blocks of a prediction file: '# id' header, token<TAB>tag lines."""
    blocks = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.rstrip("\n")
            if line.startswith("# id "):
                blocks.append((line[5:], []))
            elif line:
                blocks[-1][1].append(line.split("\t")[1])
    return blocks


def check_voted(path, gold: list[tuple[str, list[str], list[str]]]) -> list[str]:
    blocks = read_tagged(path)
    if [sid for sid, _ in blocks] != [sid for sid, _, _ in gold]:
        return ["voted file does not cover the gold sentence ids in order"]
    for (sid, tags), (_, tokens, _) in zip(blocks, gold):
        if len(tags) != len(tokens):
            return [f"sentence {sid}: {len(tags)} voted tags for {len(tokens)} gold tokens"]
    return []


def surface_properties(inputs: Inputs) -> dict:
    """Shares of surfaces with more than one qid and with more than the cap,
    counted before the cap applies."""
    counts: dict[str, set[str]] = {}
    for entity in inputs.entities.values():
        for name in entity.names:
            counts.setdefault(normalize(name), set()).add(entity.qid)
    return {
        "surfaces": len(counts),
        "ambiguous_surface_share": sum(len(q) > 1 for q in counts.values()) / len(counts),
        "capped_surface_share": sum(len(q) > QID_CAP for q in counts.values()) / len(counts),
        "capped_surfaces": sum(len(q) > QID_CAP for q in counts.values()),
    }

