"""Seeded input generators for the benchmark workloads.

Every workload gets the same kinds of input, sized by its profile:

* a WikiData-style dump: a pool of class entities, "families" of nested
  entity names (a 3-word name whose 1- and 2-word prefixes are entities
  too), namesakes that make a stated share of surfaces ambiguous or push
  them past ``qid_cap``, persons with an occupation, and about 1% malformed
  lines;
* an augment corpus: either dense (30-50 tokens made almost entirely of
  nested entity mentions, a stated share of them holding one ambiguous
  mention) or sparse (one person name in a template, so one 2-token match);
* a tagging corpus: person names in class-neutral templates, whose class
  (the tag type) only the knowledge base records, split into train and
  test with unseen name combinations in test.

The generator also returns the ground truth the output checks compare
against: every valid entity's names and expected context.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

QID_CAP = 4
AB_EPOCHS = 4  # the default SyntheticConfig's 50 make one 13 s sample, too noisy here
MAX_LEN = 256
TAG_MAX_LEN = 64

FILLER = ("and", "with", "near", "of", "from", "after", "before", "beside", "under", "over")

TEMPLATES = (
    "<NAME> arrived in the capital on monday",
    "reporters met <NAME> outside the old library",
    "the committee thanked <NAME> for the short visit",
    "<NAME> spoke briefly after the ceremony ended",
    "a crowd waited for <NAME> near the station",
    "the interview with <NAME> ran past midnight",
    "<NAME> left early despite the heavy rain",
    "organizers seated <NAME> beside the main stage",
    "few people recognized <NAME> at the market",
    "<NAME> signed the letter late that evening",
)

# Names end in a consonant, generated words end in a vowel: they never collide.
FIRST_NAMES = (
    "Alden", "Brent", "Corwin", "Dalton", "Everett", "Floris", "Gideon", "Harlan", "Ingrid", "Jasper",
    "Kirsten", "Lambert", "Marnix", "Norbert", "Oswin", "Percival", "Quentin", "Roswit", "Sigrid", "Torben",
    "Ulrik", "Valdis", "Wendel", "Yorick", "Zelig", "Agnes", "Bertil", "Carsten", "Dagmar", "Edvin",
)
LAST_NAMES = (
    "Ashford", "Blackwood", "Crenshaw", "Dunmore", "Ellsworth", "Fairbank", "Greenhalgh", "Holbrook", "Ingram",
    "Jessop", "Kendrick", "Lockhart", "Merriman", "Northcott", "Oakley", "Pendleton", "Quarrington", "Radcliffe",
    "Sterling", "Thackeray", "Underhill", "Vickers", "Whitlock", "Yardley", "Ashcombe", "Brockhurst",
    "Cogswell", "Darnell", "Eastwick", "Fenwick",
)

HUMAN = ("Q1", "human")
OCCUPATIONS = (("SCIENTIST", "Q2", "scientist"), ("POLITICIAN", "Q3", "politician"), ("MUSICIAN", "Q4", "musician"))
CLASS_POOL = 1000
PERSON_QID0 = 2000
BULK_QID0 = 10000

# Shares of families with one namesake (surface with 2 qids) and with
# QID_CAP + 2 namesakes (surface over the cap); of augment sentences holding
# one ambiguous mention; of malformed dump lines.
AMBIGUOUS_SHARE = 0.01
CAPPED_SHARE = 0.002
AMBIGUOUS_SENTENCE_SHARE = 0.2
MALFORMED_SHARE = 0.01

_SYLLABLES = [onset + vowel for onset in "bdfgklmnprstvz" for vowel in "aeiou"]


@dataclass(frozen=True)
class Profile:
    """Input sizes of one workload."""

    families: int
    aug_sentences: int
    aug_dense: bool  # long sentences of nested mentions, or one person name per sentence
    tag_train: int
    tag_test: int
    folds: int
    fold_epochs: int
    setup: str  # the set-up half timed as setup_s: "kb" (load_kb, build_matcher) or "models" (fold training)
    ab_runs: int = 1  # A/B runs per round


PROFILES = {
    "kb-compile": Profile(families=15_000, aug_sentences=600, aug_dense=False, tag_train=360, tag_test=200,
                          folds=2, fold_epochs=8, setup="kb"),
    "augment-dense": Profile(families=10_000, aug_sentences=300, aug_dense=True, tag_train=360, tag_test=200,
                             folds=2, fold_epochs=8, setup="kb"),
    "synthetic-ab": Profile(families=2_000, aug_sentences=600, aug_dense=False, tag_train=360, tag_test=200,
                            folds=2, fold_epochs=8, setup="models", ab_runs=3),
    "predict-vote": Profile(families=2_000, aug_sentences=600, aug_dense=False, tag_train=240, tag_test=300,
                            folds=8, fold_epochs=4, setup="models"),
}

#: Tiny sizes for the benchmark's own tests; every stage still runs.
SMOKE = Profile(families=300, aug_sentences=20, aug_dense=True, tag_train=60, tag_test=40, folds=2, fold_epochs=2,
                setup="kb")


@dataclass
class Entity:
    qid: str
    names: list[str]
    claims: dict[str, list[str]]

    def property_count(self) -> int:
        return sum(len(values) for values in self.claims.values())


@dataclass
class Inputs:
    dump_lines: list[str]
    entities: dict[str, Entity]  # valid entities only, by qid
    labels: dict[str, str]  # qid -> label, for context ground truth
    malformed_lines: int
    aug_sentences: list[tuple[str, list[str]]]
    tag_train: list[tuple[str, list[str], list[str]]]
    tag_test: list[tuple[str, list[str], list[str]]]


def normalize(text: str) -> str:
    """Generated names are ASCII, so case-folding plus whitespace collapsing
    is the whole normalization."""
    return " ".join(text.casefold().split())


def expected_surfaces(entities: dict[str, Entity]) -> dict[str, list[str]]:
    """surface -> qids as the knowledge base should hold them, cap applied."""
    by_surface: dict[str, set[str]] = {}
    for entity in entities.values():
        for name in entity.names:
            by_surface.setdefault(normalize(name), set()).add(entity.qid)
    out = {}
    for surface, qids in by_surface.items():
        ordered = sorted(qids, key=lambda q: int(q[1:]))
        if len(ordered) > QID_CAP:
            richest = sorted(ordered, key=lambda q: (-entities[q].property_count(), int(q[1:])))[:QID_CAP]
            ordered = sorted(richest, key=lambda q: int(q[1:]))
        out[surface] = ordered
    return out


def expected_context(entity: Entity, labels: dict[str, str]) -> str:
    return " | ".join(labels[q] for pid in ("P31", "P279", "P106") for q in entity.claims.get(pid, []) if q in labels)


class _Words:
    """Capitalized consonant-vowel words. ``take`` never repeats a word;
    ``any`` may. Words of different lengths never meet, which keeps the
    candidate spans of a sentence exactly the nested prefixes of its
    mentions."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.used: set[str] = set(FILLER) | {word for template in TEMPLATES for word in template.split()}

    def any(self, syllables: int) -> str:
        return "".join(self.rng.choices(_SYLLABLES, k=syllables)).capitalize()

    def take(self, syllables: int) -> str:
        while True:
            word = self.any(syllables)
            if word.lower() not in self.used:
                self.used.add(word.lower())
                return word


def _malformed(rng: random.Random, index: int) -> str:
    kind = index % 4
    if kind == 0:
        return '{"id": "Q' + str(rng.randrange(10**6)) + '", "labels": {"en": "trunc'
    if kind == 1:
        return json.dumps({"id": f"X{rng.randrange(10**6)}", "labels": {"en": "bad id"}})
    if kind == 2:
        return json.dumps({"id": f"Q{rng.randrange(10**6)}", "claims": {"P31": "Q1"}})
    return json.dumps({"id": f"Q{rng.randrange(10**6)}", "labels": {"en": 7}})


def _entity_line(entity: Entity, label: str, alias: str | None, sitelink: bool) -> str:
    # Hand-formatted for speed; names are plain ASCII words, so no escaping.
    claims = ", ".join(f'"{pid}": [' + ", ".join(f'"{q}"' for q in qids) + "]" for pid, qids in entity.claims.items())
    line = f'{{"id": "{entity.qid}", "labels": {{"en": "{label}"}}, "claims": {{{claims}}}'
    if alias is not None:
        line += f', "aliases": {{"en": ["{alias}"]}}'
    if sitelink:
        line += f', "sitelinks": {{"enwiki": "{label}"}}'
    return line + "}"


def generate(profile: Profile, seed: int) -> Inputs:
    rng = random.Random(seed)
    words = _Words(rng)
    entities: dict[str, Entity] = {}
    labels: dict[str, str] = {}
    lines: list[str] = []

    def add(qid: str, label: str, claims: dict[str, list[str]], alias: str | None = None, sitelink: bool = False):
        entity = Entity(qid, [label] + ([alias] if alias else []), claims)
        entities[qid] = entity
        labels[qid] = label
        lines.append(_entity_line(entity, label, alias, sitelink))

    add(*HUMAN, {})
    for _, qid, label in OCCUPATIONS:
        add(qid, label, {})
    for i in range(len(OCCUPATIONS) + 2, CLASS_POOL + 1):
        label = words.take(3).lower() if i % 3 else f"{words.take(3).lower()} {words.take(3).lower()}"
        add(f"Q{i}", label, {})

    pool = [f"Q{q}" for q in range(len(OCCUPATIONS) + 2, CLASS_POOL + 1)]

    def claims() -> dict[str, list[str]]:
        draw = rng.random()
        return {
            "P31": rng.choices(pool, k=1 + (draw < 0.5)),
            "P279": rng.choices(pool, k=int(draw * 10) % 2),
            "P106": rng.choices(pool, k=int(draw * 100) % 3),
        }

    # Families of nested names, plus namesakes sharing a family's full name.
    next_qid = BULK_QID0
    families: list[list[str]] = []
    ambiguous: list[list[str]] = []
    for _ in range(profile.families):
        parts = [words.take(4), words.any(2), words.any(2)]
        names = [" ".join(parts[: depth + 1]) for depth in range(3)]
        for name in names:
            alias = f"{words.take(4)} {words.any(3)}" if rng.random() < 0.3 else None
            add(f"Q{next_qid}", name, claims(), alias, sitelink=rng.random() < 0.5)
            next_qid += 1
        draw = rng.random()
        namesakes = QID_CAP + 2 if draw < CAPPED_SHARE else 1 if draw < AMBIGUOUS_SHARE else 0
        for _ in range(namesakes):
            add(f"Q{next_qid}", names[2], claims())
            next_qid += 1
        (ambiguous if namesakes else families).append(names)

    # Persons for the tagging corpus; the occupation decides the tag type.
    person_pairs = [(f, l) for f in FIRST_NAMES for l in LAST_NAMES]
    rng.shuffle(person_pairs)
    n_train_people = max(30, profile.tag_train // 3)
    n_test_people = min(len(person_pairs) - n_train_people, max(30, profile.tag_test // 2))
    people = person_pairs[: n_train_people + n_test_people]
    person_type = {}
    for index, pair in enumerate(people):
        tag_type, occupation, _ = OCCUPATIONS[index % len(OCCUPATIONS)]
        person_type[pair] = tag_type
        add(f"Q{PERSON_QID0 + index}", f"{pair[0]} {pair[1]}", {"P31": [HUMAN[0]], "P106": [occupation]})

    malformed = max(1, round(len(lines) * MALFORMED_SHARE))
    bad_at = set(rng.sample(range(len(lines) + malformed), malformed))
    valid = iter(lines)
    lines = [_malformed(rng, index) if index in bad_at else next(valid) for index in range(len(lines) + malformed)]

    def tagged(pairs, count, prefix):
        out = []
        for index in range(count):
            pair = pairs[index % len(pairs)]
            tokens, tags = [], []
            for word in rng.choice(TEMPLATES).split():
                if word == "<NAME>":
                    tokens.extend(pair)
                    tags.extend([f"B-{person_type[pair]}", f"I-{person_type[pair]}"])
                else:
                    tokens.append(word)
                    tags.append("O")
            out.append((f"{prefix}-{index:05d}", tokens, tags))
        return out

    aug_sentences = []
    for index in range(profile.aug_sentences):
        if not profile.aug_dense:
            aug_sentences.append((f"aug-{index:05d}", tagged([rng.choice(people)], 1, "")[0][1]))
            continue
        target = rng.randint(30, 50)
        tokens: list[str] = []
        if ambiguous and rng.random() < AMBIGUOUS_SENTENCE_SHARE:
            tokens.extend(rng.choice(ambiguous)[2].split())
        while len(tokens) < target:
            if rng.random() < 0.1:
                tokens.append(rng.choice(FILLER))
            family = rng.choice(families)
            tokens.extend(family[rng.choice((0, 1, 2, 2, 2))].split())
        aug_sentences.append((f"aug-{index:05d}", tokens))

    train_people = people[:n_train_people]
    test_people = people[n_train_people:]
    return Inputs(
        dump_lines=lines,
        entities=entities,
        labels=labels,
        malformed_lines=malformed,
        aug_sentences=aug_sentences,
        tag_train=tagged(train_people, profile.tag_train, "train"),
        tag_test=tagged(test_people, profile.tag_test, "test"),
    )
