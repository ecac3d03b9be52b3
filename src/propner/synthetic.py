"""Self-contained A/B experiment: does property knowledge help a tagger?

The generated corpus makes person names type-ambiguous on purpose. Every
entity is a first/last name pair dropped into a class-neutral filler
template, and its fine-grained class (scientist, politician, musician) is
decided by a coin flip that only the knowledge base records, via the
entity's occupation property. Test entities are unseen name combinations,
so a model without knowledge can at best guess the class, while a model
that reads the retrieved context sees the occupation word directly.

The knowledge base is compiled straight from ``EntityRecord``s, with no
dump in between: "human" (Q5), the three occupations (Q901-Q903), and each
person (Q1000 on) as an instance of human with its class as occupation.

Both models share seeds, architecture and training schedule; the only
difference is whether retrieved pairs are appended to the input. Dropping
the occupation property from the knowledge base removes the class signal
and collapses the gap, mirroring the property-ablation experiment at desk
scale.

The two trainings share nothing, so they run at the same time: the
augmented arm in a child forked from the caller, the baseline arm in the
caller. Each arm's parameters are bit-identical to a run of that arm alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from propner.augmenter import assemble
from propner.encoder import TrainConfig, predict_tags, train
from propner.evaluator import score
from propner.kbstore import FULL_PROPERTY_MASK, PROPERTY_KINDS, EntityRecord, build_knowledge_base
from propner.matcher import Sentence, build_matcher, retrieve

FIRST_NAMES = (
    "Alice", "Brian", "Clara", "David", "Elena", "Felix", "Grace", "Henry", "Irene", "Jonas",
    "Karen", "Leo", "Mara", "Nils", "Olga", "Peter", "Quinn", "Rosa", "Simon", "Tessa",
    "Ulrich", "Vera", "Walter", "Xenia", "Yusuf", "Zoe", "Anton", "Bella", "Carl", "Dora",
)

LAST_NAMES = (
    "Stone", "Rivers", "Walsh", "Becker", "Fontaine", "Novak", "Ortega", "Lindgren", "Okafor", "Tanaka",
    "Moretti", "Dubois", "Eriksen", "Farkas", "Grimaldi", "Haller", "Ivanov", "Jansen", "Kovacs", "Laurent",
    "Meyer", "Nakamura", "Olsen", "Petrov", "Quirke", "Rossi", "Schmidt", "Takacs", "Ueda", "Vogel",
)

# Filler vocabulary is disjoint from the name pools and from every
# knowledge-base label, so the only retrievable spans are the names.
TEMPLATES = (
    "<NAME> arrived in the capital on monday",
    "reporters met <NAME> outside the old library",
    "the committee thanked <NAME> for the short visit",
    "<NAME> spoke briefly after the ceremony ended",
    "a crowd waited for <NAME> near the station",
    "the interview with <NAME> ran past midnight",
    "<NAME> left early despite the heavy rain",
    "organizers seated <NAME> beside the main stage",
)

#: (BIO type, occupation label, occupation qid)
PERSON_CLASSES = (
    ("SCIENTIST", "scientist", "Q901"),
    ("POLITICIAN", "politician", "Q902"),
    ("MUSICIAN", "musician", "Q903"),
)

HUMAN_QID = "Q5"

MAX_LEN = 64  # model input length in tokens, for assembly and training


@dataclass(frozen=True)
class SyntheticConfig:
    n_train_entities: int = 90
    n_test_entities: int = 45
    sentences_per_train_entity: int = 3
    epochs: int = 50


def _entity_pairs(rng: np.random.Generator, n_train: int, n_test: int) -> tuple[list, list]:
    """Distinct (first, last) pairs; train pairs cover every individual name
    (when n_train allows), test pairs are unseen combinations of seen names."""
    perm = rng.permutation(len(LAST_NAMES))
    chosen = [(FIRST_NAMES[i], LAST_NAMES[int(perm[i])]) for i in range(len(FIRST_NAMES))]
    used = set(chosen)
    for flat in rng.permutation(len(FIRST_NAMES) * len(LAST_NAMES)):
        if len(chosen) >= n_train + n_test:
            break
        pair = (FIRST_NAMES[flat // len(LAST_NAMES)], LAST_NAMES[flat % len(LAST_NAMES)])
        if pair not in used:
            used.add(pair)
            chosen.append(pair)
    if len(chosen) < n_train + n_test:
        raise ValueError("name pools too small for requested entity counts")
    return chosen[:n_train], chosen[n_train : n_train + n_test]


def _assign_classes(rng: np.random.Generator, entities: list) -> dict:
    """Balanced class assignment in a seeded shuffled order."""
    assignment = {}
    for position, idx in enumerate(rng.permutation(len(entities))):
        assignment[entities[int(idx)]] = position % len(PERSON_CLASSES)
    return assignment


def _records(entities: list, class_of: dict) -> list[EntityRecord]:
    records = [EntityRecord(HUMAN_QID, {"en": "human"})]
    records += [EntityRecord(qid, {"en": label}) for _, label, qid in PERSON_CLASSES]
    for index, pair in enumerate(entities):
        occupation_qid = PERSON_CLASSES[class_of[pair]][2]
        records.append(
            EntityRecord(f"Q{1000 + index}", {"en": " ".join(pair)}, instanceof=[HUMAN_QID], occupation=[occupation_qid])
        )
    return records


def _sentences(rng: np.random.Generator, entities: list, class_of: dict, per_entity: int, prefix: str) -> list[Sentence]:
    sentences = []
    for index, pair in enumerate(entities):
        bio_type = PERSON_CLASSES[class_of[pair]][0]
        for copy in range(per_entity):
            template = TEMPLATES[int(rng.integers(len(TEMPLATES)))]
            tokens: list[str] = []
            tags: list[str] = []
            for word in template.split():
                if word == "<NAME>":
                    tokens.extend(pair)
                    tags.extend([f"B-{bio_type}", f"I-{bio_type}"])
                else:
                    tokens.append(word)
                    tags.append("O")
            sentences.append(Sentence(f"{prefix}{index:04d}-{copy}", tokens, tags))
    return sentences


def _train_and_tag(train_inputs: list, test_inputs: list, config: TrainConfig) -> list[list[str]]:
    """One arm of the A/B: train a tagger, then tag the test inputs."""
    model = train(train_inputs, config)
    return [predict_tags(model, aug) for aug in test_inputs]


def _reply(sender, fn, args: tuple) -> None:
    """Send ``(True, fn(*args))``, or ``(False, the exception it raised)``."""
    try:
        reply = (True, fn(*args))
    except Exception as exc:
        reply = (False, exc)
    sender.send(reply)


def _pair_map(fn, first: tuple, second: tuple) -> tuple:
    """``(fn(*first), fn(*second))``, the first call run at the same time in
    a forked child, which sends back only its result. An exception in the
    child is raised here. Whether it is done or not, the child is killed and
    reaped before this returns or raises, so no process outlives the call."""
    import multiprocessing  # only the A/B forks, so no other command loads it

    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    child = context.Process(target=_reply, args=(sender, fn, first))
    child.start()
    sender.close()
    try:
        second_result = fn(*second)
        ok, first_result = receiver.recv()
    finally:
        child.kill()
        child.join()
        receiver.close()
    if not ok:
        raise first_result
    return first_result, second_result


def run_synthetic_ab(
    seed: int,
    properties: frozenset[str] = FULL_PROPERTY_MASK,
    mask_mode: str = "default",
    config: SyntheticConfig | None = None,
) -> dict:
    """Train baseline and knowledge-augmented taggers on one seeded corpus.

    Returns a report with both held-out entity-level micro F1 scores and
    their gap. The corpus depends only on the seed, so runs with different
    property masks or mask modes compare models on identical data.
    """
    cfg = config or SyntheticConfig()
    train_config = TrainConfig(max_len=MAX_LEN, epochs=cfg.epochs, seed=seed)  # checks the seed before numpy takes it
    rng = np.random.default_rng(seed)

    train_entities, test_entities = _entity_pairs(rng, cfg.n_train_entities, cfg.n_test_entities)
    class_of = _assign_classes(rng, train_entities)
    class_of.update(_assign_classes(rng, test_entities))
    train_sents = _sentences(rng, train_entities, class_of, cfg.sentences_per_train_entity, "train-")
    test_sents = _sentences(rng, test_entities, class_of, 1, "test-")

    kb = build_knowledge_base(_records(train_entities + test_entities, class_of), "en", properties)
    matcher = build_matcher(kb)

    def with_knowledge(sentences):
        return [assemble(s, retrieve(kb, matcher, s), MAX_LEN, mask_mode) for s in sentences]

    def without_knowledge(sentences):
        return [assemble(s, [], MAX_LEN, mask_mode) for s in sentences]

    augmented_pred, baseline_pred = _pair_map(
        _train_and_tag,
        (with_knowledge(train_sents), with_knowledge(test_sents), train_config),
        (without_knowledge(train_sents), without_knowledge(test_sents), train_config),
    )

    gold = [list(s.gold_tags) for s in test_sents]
    augmented_f1 = score(gold, augmented_pred).micro_f1
    baseline_f1 = score(gold, baseline_pred).micro_f1

    return {
        "seed": seed,
        "mask_mode": mask_mode,
        "properties": [kind for kind in PROPERTY_KINDS if kind in properties],
        "n_train_sentences": len(train_sents),
        "n_test_sentences": len(test_sents),
        "epochs": cfg.epochs,
        "baseline_micro_f1": baseline_f1,
        "augmented_micro_f1": augmented_f1,
        "gap": augmented_f1 - baseline_f1,
    }
