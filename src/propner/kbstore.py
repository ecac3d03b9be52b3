"""Entity-property knowledge base built from WikiData-style JSON dumps.

Each dump line describes one entity: its qid, per-language names (label,
aliases, sitelink title) and three property claims (P31 instance-of,
P279 subclass-of, P106 occupation) whose values are again qids. The
compiled knowledge base maps normalized surface forms to qids and each
qid to a context string: the labels of its property values joined by
" | ", in instance-of, subclass-of, occupation order.
"""

from __future__ import annotations

import json
import logging
import re
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

from propner.inputs import InputError, located

if TYPE_CHECKING:
    from propner.matcher import Sentence

logger = logging.getLogger(__name__)

QID_PATTERN = re.compile(r"Q[0-9]+")  # used with fullmatch: "$" would let "Q5\n" through
_QID_LINES = re.compile(r"(?:Q[0-9]+\n)*")

#: Property kinds in canonical (context concatenation) order.
PROPERTY_KINDS = ("instanceof", "subclassof", "occupation")
FULL_PROPERTY_MASK = frozenset(PROPERTY_KINDS)

CONTEXT_SEPARATOR = " | "

#: Maximum number of qids kept per ambiguous surface form.
DEFAULT_QID_CAP = 4

SURFACES_FILE = "surfaces.tsv"
CONTEXTS_FILE = "contexts.tsv"
META_FILE = "meta.json"


class KnowledgeBaseInconsistencyError(RuntimeError):
    """A qid referenced by the surface index has no context entry."""


def normalize_surface(text: str) -> str:
    """Normalize a surface form: NFKC, case-fold, collapse whitespace runs.

    The same normalizer runs at index build time and at query time, so
    lookups survive casing and character-width variance.
    """
    folded = unicodedata.normalize("NFKC", text).casefold()
    return " ".join(folded.split())


def _qid_num(qid: str) -> int:
    return int(qid[1:])


@dataclass
class EntityRecord:
    """One dump entity: names per language plus property-value qids."""

    qid: str
    labels: dict[str, str] = field(default_factory=dict)
    aliases: dict[str, list[str]] = field(default_factory=dict)
    sitelink_titles: dict[str, str] = field(default_factory=dict)
    instanceof: list[str] = field(default_factory=list)
    subclassof: list[str] = field(default_factory=list)
    occupation: list[str] = field(default_factory=list)

    def property_count(self) -> int:
        return len(self.instanceof) + len(self.subclassof) + len(self.occupation)


@dataclass
class KnowledgeBase:
    """Compiled dictionary. Treated as immutable once built or loaded, so it
    can be shared freely across concurrent readers."""

    language: str
    surface_index: dict[str, list[str]]
    contexts: dict[str, str]
    property_mask: frozenset[str]


@dataclass
class DumpError:
    line_number: int
    message: str


#: Per-line ingest failures, in input order. Bad lines never abort a run.
DumpErrorReport = list[DumpError]


class _BadLine(ValueError):
    pass


def _string_map(obj: dict, key: str) -> dict[str, str]:
    value = obj.get(key, {})
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise _BadLine(f"field {key!r} must be an object")
    out = {}
    for lang, text in value.items():
        if not isinstance(text, str):
            raise _BadLine(f"field {key!r} has a non-string value for {lang!r}")
        out[lang] = text
    return out


def _alias_map(obj: dict) -> dict[str, list[str]]:
    value = obj.get("aliases", {})
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise _BadLine("field 'aliases' must be an object")
    out = {}
    for lang, items in value.items():
        if not isinstance(items, list) or any(not isinstance(a, str) for a in items):
            raise _BadLine(f"aliases for {lang!r} must be a list of strings")
        out[lang] = list(items)
    return out


def _claim_list(claims: dict, pid: str) -> list[str]:
    value = claims.get(pid, [])
    if value is None:
        return []
    if not isinstance(value, list):
        raise _BadLine(f"claim {pid} must be a list")
    for qid in value:
        if not isinstance(qid, str) or not QID_PATTERN.fullmatch(qid):
            raise _BadLine(f"claim {pid} contains malformed qid {qid!r}")
    return list(value)


def _record_from_line(raw: bytes | str) -> EntityRecord | None:
    """The record of one dump line, or None for a blank line."""
    try:
        line = (raw.decode("utf-8") if isinstance(raw, bytes) else raw).strip()
    except UnicodeDecodeError as exc:
        raise _BadLine(f"invalid UTF-8: {exc}")
    if not line:
        return None
    try:
        obj = json.loads(line)
    except ValueError as exc:
        raise _BadLine(f"invalid JSON: {exc}")
    if not isinstance(obj, dict):
        raise _BadLine("line is not a JSON object")
    qid = obj.get("id")
    if qid is None:
        raise _BadLine("missing 'id' field")
    if not isinstance(qid, str) or not QID_PATTERN.fullmatch(qid):
        raise _BadLine(f"malformed qid {qid!r}")
    claims = obj.get("claims", {}) or {}
    if not isinstance(claims, dict):
        raise _BadLine("field 'claims' must be an object")
    sitelinks = _string_map(obj, "sitelinks")
    # Convention: sitelink key "<lang>wiki" carries the title for <lang>.
    titles = {key[: -len("wiki")]: title for key, title in sitelinks.items() if key.endswith("wiki") and key != "wiki"}
    return EntityRecord(
        qid=qid,
        labels=_string_map(obj, "labels"),
        aliases=_alias_map(obj),
        sitelink_titles=titles,
        instanceof=_claim_list(claims, "P31"),
        subclassof=_claim_list(claims, "P279"),
        occupation=_claim_list(claims, "P106"),
    )


def parse_dump(stream: Iterable[bytes | str], report: DumpErrorReport | None = None) -> Iterator[EntityRecord]:
    """Stream EntityRecords out of a line-oriented dump.

    Malformed lines are recorded in ``report`` with their line number and
    skipped; memory use is constant in the number of entities.
    """
    for line_number, raw in enumerate(stream, start=1):
        try:
            record = _record_from_line(raw)
        except _BadLine as exc:
            if report is not None:
                report.append(DumpError(line_number, str(exc)))
            continue
        if record is not None:
            yield record


def entity_names(record: EntityRecord, language: str) -> set[str]:
    """Label, sitelink title and aliases for one language, deduplicated."""
    names = set()
    label = record.labels.get(language, "")
    if label:
        names.add(label)
    title = record.sitelink_titles.get(language, "")
    if title:
        names.add(title)
    for alias in record.aliases.get(language, []):
        if alias:
            names.add(alias)
    return names


def _check_mask(property_mask: Iterable[str]) -> frozenset[str]:
    mask = frozenset(property_mask)
    unknown = mask - FULL_PROPERTY_MASK
    if unknown:
        raise ValueError(f"unknown property kinds: {sorted(unknown)}")
    return mask


def build_context(record: EntityRecord, label_lookup: dict[str, str], property_mask: Iterable[str]) -> str:
    """Join the labels of the enabled property values with " | ".

    Field order is instance-of, subclass-of, occupation; list order within a
    field is preserved. Qids without a resolvable label are silently
    omitted. Labels are whitespace-collapsed so contexts stay TSV-safe.
    """
    mask = _check_mask(property_mask)
    parts = []
    for kind in PROPERTY_KINDS:
        if kind not in mask:
            continue
        for qid in getattr(record, kind):
            label = label_lookup.get(qid)
            if not label:
                continue
            cleaned = " ".join(label.split())
            if cleaned:
                parts.append(cleaned)
    return CONTEXT_SEPARATOR.join(parts)


def build_knowledge_base(
    records: Iterable[EntityRecord],
    language: str,
    property_mask: Iterable[str] = FULL_PROPERTY_MASK,
    qid_cap: int = DEFAULT_QID_CAP,
) -> KnowledgeBase:
    """Compile records into a surface index plus per-qid contexts.

    Two passes: the first collects qid -> label (property values are qids
    whose labels live in other records), the second builds contexts and the
    surface index. Deterministic for identical input.
    """
    mask = _check_mask(property_mask)
    if qid_cap < 1:
        raise ValueError(f"qid_cap must be at least 1, got {qid_cap}")
    by_qid: dict[str, EntityRecord] = {}
    for record in records:
        if record.qid in by_qid:
            logger.info("duplicate qid %s in dump, later record wins", record.qid)
        by_qid[record.qid] = record

    label_lookup = {}
    for qid, record in by_qid.items():
        label = record.labels.get(language, "")
        if label:
            label_lookup[qid] = label

    contexts = {qid: build_context(record, label_lookup, mask) for qid, record in by_qid.items()}

    surface_qids: dict[str, set[str]] = {}
    for qid, record in by_qid.items():
        for name in sorted(entity_names(record, language)):
            surface = normalize_surface(name)
            if not surface:
                logger.info("dropping name %r of %s: normalizes to empty", name, qid)
                continue
            surface_qids.setdefault(surface, set()).add(qid)

    surface_index: dict[str, list[str]] = {}
    for surface in sorted(surface_qids):
        qids = sorted(surface_qids[surface], key=_qid_num)
        if len(qids) > qid_cap:
            # Keep the most informative entities: most property values first.
            richest = sorted(qids, key=lambda q: (-by_qid[q].property_count(), _qid_num(q)))[:qid_cap]
            qids = sorted(richest, key=_qid_num)
        surface_index[surface] = qids

    return KnowledgeBase(language=language, surface_index=surface_index, contexts=contexts, property_mask=mask)


def coverage_rate(kb: KnowledgeBase, dataset: Iterable["Sentence"]) -> float:
    """Fraction of gold entity mentions whose surface is in the index.

    Counts mention occurrences, not unique surfaces. A dataset without any
    gold mention has coverage 1.0 by convention.
    """
    from propner.ensemble import extract_spans, repair_bio

    total = 0
    covered = 0
    for sentence in dataset:
        if sentence.gold_tags is None:
            raise ValueError(f"sentence {sentence.id!r} has no gold tags")
        tags = repair_bio(sentence.gold_tags)
        if tags != sentence.gold_tags:
            logger.warning("sentence %s: malformed BIO tags repaired before span extraction", sentence.id)
        for start, end, _ in sorted(extract_spans(tags)):
            total += 1
            surface = normalize_surface(" ".join(sentence.tokens[start:end]))
            if surface in kb.surface_index:
                covered += 1
    if total == 0:
        return 1.0
    return covered / total


def save_kb(kb: KnowledgeBase, out_dir: str | Path) -> None:
    """Write surfaces.tsv, contexts.tsv and meta.json. Bit-exact across runs."""
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)

    pairs = sorted((surface, qid) for surface, qids in kb.surface_index.items() for qid in qids)
    with open(path / SURFACES_FILE, "w", encoding="utf-8", newline="") as handle:
        for surface, qid in pairs:
            handle.write(f"{surface}\t{qid}\n")

    with open(path / CONTEXTS_FILE, "w", encoding="utf-8", newline="") as handle:
        for qid in sorted(kb.contexts, key=_qid_num):
            handle.write(f"{qid}\t{kb.contexts[qid]}\n")

    meta = {
        "format_version": 1,
        "language": kb.language,
        "property_mask": [kind for kind in PROPERTY_KINDS if kind in kb.property_mask],
    }
    with open(path / META_FILE, "w", encoding="utf-8", newline="") as handle:
        handle.write(json.dumps(meta, sort_keys=True) + "\n")


def _tsv_lines(path: Path) -> list[str]:
    """The lines of a KB TSV file. The file is decoded whole, which is much
    faster than line by line; the line of a decoding error is found only
    when decoding fails."""
    data = path.read_bytes()
    try:
        return data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise InputError(path, data.count(b"\n", 0, exc.start) + 1, str(exc)) from None


def load_kb(kb_dir: str | Path) -> KnowledgeBase:
    """Load a compiled knowledge base. A malformed file, or a surface whose
    qid has no context entry, raises an InputError naming the file, and the
    line in the TSV files."""
    path = Path(kb_dir)
    with located(path / META_FILE):
        meta = json.loads((path / META_FILE).read_bytes().decode("utf-8"))
        language, kinds = meta["language"], meta["property_mask"]
        if not isinstance(language, str) or not isinstance(kinds, list):
            raise ValueError("'language' must be a string and 'property_mask' a list")
        mask = _check_mask(kinds)

    lines = _tsv_lines(path / CONTEXTS_FILE)
    contexts: dict[str, str] = {}
    for line in lines:
        qid, tab, context = line.partition("\t")
        if not tab:
            raise InputError(path / CONTEXTS_FILE, lines.index(line) + 1, "expected 'qid<TAB>context'")
        contexts[qid] = context
    # One match over all qids costs a third of one match per qid.
    if not _QID_LINES.fullmatch("\n".join([*contexts, ""])):
        bad = next(qid for qid in contexts if not QID_PATTERN.fullmatch(qid))
        number = next(n for n, line in enumerate(lines, start=1) if line.startswith(bad + "\t"))
        raise InputError(path / CONTEXTS_FILE, number, f"malformed qid {bad!r}")

    lines = _tsv_lines(path / SURFACES_FILE)
    surface_index: dict[str, list[str]] = {}
    for line in lines:
        surface, tab, qid = line.partition("\t")
        if qid not in contexts:
            message = f"surface {surface!r} maps to {qid!r}, which has no entry in {CONTEXTS_FILE}"
            if not tab:
                message = "expected 'surface<TAB>qid'"
            raise InputError(path / SURFACES_FILE, lines.index(line) + 1, message)
        surface_index.setdefault(surface, []).append(qid)
    for surface, qids in surface_index.items():
        surface_index[surface] = sorted(set(qids), key=_qid_num)

    return KnowledgeBase(language=language, surface_index=surface_index, contexts=contexts, property_mask=mask)
