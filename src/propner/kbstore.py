"""Entity-property knowledge base built from WikiData-style JSON dumps.

Each dump line describes one entity: its qid, per-language names (label,
aliases, sitelink title) and three property claims (P31 instance-of,
P279 subclass-of, P106 occupation) whose values are again qids. The
compiled knowledge base maps normalized surface forms to qids and each
qid to a context string: the labels of its property values joined by
" | ", in instance-of, subclass-of, occupation order.

The compile reads the records once and keeps of each entity only strings
and an int (label, surfaces, enabled property values, property count), so a
dump-scale compile holds no record and gives CPython's cyclic collector
nothing to rescan.
"""

from __future__ import annotations

import json
import logging
import re
import unicodedata
from dataclasses import dataclass, field
from itertools import groupby
from pathlib import Path
from typing import Callable, Iterable, Iterator

from propner.inputs import InputError, check_utf8, located, read_lines, write_text

logger = logging.getLogger(__name__)

# No leading zero, so that ordering qids by number is a total order.
QID_PATTERN = re.compile(r"Q[1-9][0-9]*")  # used with fullmatch: "$" would let "Q5\n" through
_BAD_QID_LINE = re.compile(rf"^(?!{QID_PATTERN.pattern}$)", re.MULTILINE)
_OTHER_SPACE = re.compile(r"[^\S \n]")  # whitespace other than a space or a newline

#: Property kinds in canonical (context concatenation) order.
PROPERTY_KINDS = ("instanceof", "subclassof", "occupation")
FULL_PROPERTY_MASK = frozenset(PROPERTY_KINDS)

CONTEXT_SEPARATOR = " | "

#: Maximum number of qids kept per ambiguous surface form.
DEFAULT_QID_CAP = 4

SURFACES_FILE = "surfaces.tsv"
CONTEXTS_FILE = "contexts.tsv"
META_FILE = "meta.json"
FORMAT_VERSION = 1  # of the three files, recorded in meta.json


def normalize_surface(text: str) -> str:
    """Normalize a surface form: NFKC, case-fold, NFKC, collapse whitespace runs.

    The same normalizer runs at index build time and at query time, so
    lookups survive casing and character-width variance. Case folding can
    leave text that NFKC changes again (a Greek iota subscript or a dotted
    capital I before a combining mark), so NFKC runs after it too, which
    makes a normalized surface normalize to itself.
    """
    return " ".join(_fold(text).split())


def _fold(text: str) -> str:
    return unicodedata.normalize("NFKC", unicodedata.normalize("NFKC", text).casefold())


def _normalized_lines(text: str) -> bool:
    """Whether every line of ``text``, each ended by a newline, is a
    non-empty surface that ``normalize_surface`` leaves as it is: words
    joined by single spaces, which NFKC and case folding do not change. A
    newline is a boundary for NFKC, so one call covers many lines. The
    tests are substring searches: a regex fullmatch of a repeated group
    keeps backtracking state for each line, 28 MB for 60k surfaces."""
    return (
        not text.startswith((" ", "\n"))
        and not any(pair in text for pair in ("  ", " \n", "\n ", "\n\n"))
        and not _OTHER_SPACE.search(text)
        and _fold(text) == text
    )


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


@dataclass
class KnowledgeBase:
    """Compiled dictionary. Treated as immutable once built or loaded, so it
    can be shared freely across concurrent readers. Its surface index still
    holds lists, not tuples, because the benchmark's KB check
    (``bench/checks.py``) compares them with lists.

    Its order is set when it is built: surfaces sorted, each surface's qids
    and the contexts' qids in increasing number. ``save_kb`` writes it as it
    is held, and ``load_kb`` keeps the order of the files."""

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


def _language_map(obj: dict, key: str, valid: Callable[[object], bool], message: str) -> dict:
    """The per-language object ``obj[key]``, empty when missing or null.
    Each value must pass ``valid``; ``message``, formatted with ``key`` and
    ``lang``, describes one that does not."""
    value = obj.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise _BadLine(f"field {key!r} must be an object")
    for lang, item in value.items():
        if not valid(item):
            raise _BadLine(message.format(key=key, lang=lang))
    return value


# The value check and message of _language_map for names and for alias lists.
_STRING = (lambda v: type(v) is str, "field {key!r} has a non-string value for {lang!r}")
_STRING_LIST = (lambda v: type(v) is list and {*map(type, v)} <= {str}, "aliases for {lang!r} must be a list of strings")


def _claim_list(claims: dict, pid: str) -> list[str]:
    value = claims.get(pid)
    if value is None:
        return []
    if not isinstance(value, list):
        raise _BadLine(f"claim {pid} must be a list")
    for qid in value:
        if not isinstance(qid, str) or not QID_PATTERN.fullmatch(qid):
            raise _BadLine(f"claim {pid} contains malformed qid {qid!r}")
    return list(value)


def _record_from_line(raw: bytes | str) -> EntityRecord | None:
    """The record of one dump line, or None for a blank line. A line with a
    string that UTF-8 cannot encode is a bad line (``check_utf8``)."""
    try:
        line = (raw.decode("utf-8") if isinstance(raw, bytes) else check_utf8(raw)).strip()
    except ValueError as exc:  # a UnicodeDecodeError is one
        raise _BadLine(f"invalid UTF-8: {exc}")
    if not line:
        return None
    try:
        obj = json.loads(line)
    except ValueError as exc:
        raise _BadLine(f"invalid JSON: {exc}")
    if "\\ud" in line or "\\uD" in line:  # only an escape of a surrogate decodes to one
        try:
            check_utf8(json.dumps(obj, ensure_ascii=False))
        except ValueError as exc:
            raise _BadLine(str(exc))
    if not isinstance(obj, dict):
        raise _BadLine("line is not a JSON object")
    qid = obj.get("id")
    if qid is None:
        raise _BadLine("missing 'id' field")
    if not isinstance(qid, str) or not QID_PATTERN.fullmatch(qid):
        raise _BadLine(f"malformed qid {qid!r}")
    claims = {} if obj.get("claims") is None else obj["claims"]
    if not isinstance(claims, dict):
        raise _BadLine("field 'claims' must be an object")
    sitelinks = _language_map(obj, "sitelinks", *_STRING)
    # Convention: sitelink key "<lang>wiki" carries the title for <lang>.
    titles = {key[: -len("wiki")]: title for key, title in sitelinks.items() if key.endswith("wiki") and key != "wiki"}
    return EntityRecord(
        qid=qid,
        labels=_language_map(obj, "labels", *_STRING),
        aliases=_language_map(obj, "aliases", *_STRING_LIST),
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
    names = {record.labels.get(language, ""), record.sitelink_titles.get(language, ""), *record.aliases.get(language, [])}
    return names - {""}  # a missing name, or an empty one


def _check_mask(property_mask: Iterable[str]) -> frozenset[str]:
    mask = frozenset(property_mask)
    unknown = mask - FULL_PROPERTY_MASK
    if unknown:
        raise ValueError(f"unknown property kinds: {sorted(unknown)}")
    return mask


def _values(record: EntityRecord, mask: frozenset[str]) -> str:
    """The record's property values of the kinds in ``mask``, in context
    order, joined by spaces."""
    return " ".join(qid for kind in PROPERTY_KINDS if kind in mask for qid in getattr(record, kind))


def _context(values: str, label_lookup: dict[str, str]) -> str:
    """The context of the property values that ``_values`` joined: their
    labels in ``label_lookup``, in the order given, joined with " | ". A
    value without a label is omitted, and each label's whitespace runs are
    collapsed to single spaces so contexts stay TSV-safe."""
    parts = []
    for qid in values.split():
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

    The records are read once. Of each, only its label, its normalized
    surfaces (one per line), its enabled property values (joined by spaces)
    and its property count are kept, as one tuple of three strings and an
    int; a later record with the same qid replaces the whole entry. The
    first collection that sees such a tuple stops tracking it, since none
    of its items is tracked (a nested tuple could still be), so the pass
    leaves CPython's cyclic collector nothing per record to rescan.
    Contexts, which need the labels of other records, and the surface index
    are built after the pass. Deterministic for identical input.
    """
    mask = _check_mask(property_mask)
    if qid_cap < 1:
        raise ValueError(f"qid_cap must be at least 1, got {qid_cap}")
    entries: dict[str, tuple[str, str, str, int]] = {}
    for record in records:
        if record.qid in entries:
            logger.info("duplicate qid %s in dump, later record wins", record.qid)
        surfaces = []
        for name in sorted(entity_names(record, language)):
            surface = normalize_surface(name)
            if not surface:
                logger.info("dropping name %r of %s: normalizes to empty", name, record.qid)
                continue
            surfaces.append(surface)
        label = record.labels.get(language, "")
        count = len(record.instanceof) + len(record.subclassof) + len(record.occupation)
        entries[record.qid] = (label, "\n".join(surfaces), _values(record, mask), count)

    label_lookup = {qid: entry[0] for qid, entry in entries.items() if entry[0]}
    contexts = {qid: _context(entries[qid][2], label_lookup) for qid in sorted(entries, key=_qid_num)}

    surface_index: dict[str, list[str]] = {}
    # splitlines cuts only at whitespace other than a space, which no normalized surface holds.
    pairs = sorted({(surface, qid) for qid, entry in entries.items() for surface in entry[1].splitlines()})
    for surface, group in groupby(pairs, key=lambda pair: pair[0]):
        qids = sorted((qid for _, qid in group), key=_qid_num)
        if len(qids) > qid_cap:
            # Keep the most informative entities: most property values first.
            richest = sorted(qids, key=lambda q: (-entries[q][3], _qid_num(q)))[:qid_cap]
            qids = sorted(richest, key=_qid_num)
        surface_index[surface] = qids

    return KnowledgeBase(language=language, surface_index=surface_index, contexts=contexts, property_mask=mask)


def save_kb(kb: KnowledgeBase, out_dir: str | Path) -> None:
    """Write surfaces.tsv, contexts.tsv and meta.json, in the order the KB
    holds its surfaces, qids and contexts. Bit-exact across runs."""
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)

    write_text(path / SURFACES_FILE, (f"{surface}\t{qid}\n" for surface, qids in kb.surface_index.items()
                                      for qid in qids))
    write_text(path / CONTEXTS_FILE, (f"{qid}\t{context}\n" for qid, context in kb.contexts.items()))
    meta = {
        "format_version": FORMAT_VERSION,
        "language": kb.language,
        "property_mask": [kind for kind in PROPERTY_KINDS if kind in kb.property_mask],
    }
    write_text(path / META_FILE, [json.dumps(meta, sort_keys=True) + "\n"])


def load_kb(kb_dir: str | Path) -> KnowledgeBase:
    """Load a compiled knowledge base, in the order of its files. A
    malformed file, a surface that is empty or not normalized, a surface
    whose lines are apart or whose qid has no context entry raises an
    InputError naming the file, and the line in the TSV files."""
    path = Path(kb_dir)
    with located(path / META_FILE):
        meta = json.loads((path / META_FILE).read_bytes().decode("utf-8"))
        language, kinds = meta["language"], meta["property_mask"]
        if not isinstance(language, str) or not isinstance(kinds, list):
            raise ValueError("'language' must be a string and 'property_mask' a list")
        mask = _check_mask(kinds)
        if meta.get("format_version") != FORMAT_VERSION:
            raise ValueError(f"'format_version' must be {FORMAT_VERSION}, got {meta.get('format_version')!r}")

    lines = read_lines(path / CONTEXTS_FILE)
    contexts: dict[str, str] = {}
    for number, line in enumerate(lines, start=1):
        qid, tab, context = line.partition("\t")
        if not tab:
            raise InputError(path / CONTEXTS_FILE, number, "expected 'qid<TAB>context'")
        if qid in contexts:
            raise InputError(path / CONTEXTS_FILE, number, f"qid {qid!r} is listed twice")
        contexts[qid] = context
    # One search over all qids takes half the time of one match per qid, and
    # keeps no state per line, as a fullmatch of a repeated group would. Each
    # line holds one distinct qid, so the newlines before a match count the
    # lines before its line.
    joined = "\n".join(contexts)
    if contexts and (bad := _BAD_QID_LINE.search(joined)):
        number = joined.count("\n", 0, bad.start()) + 1
        raise InputError(path / CONTEXTS_FILE, number, f"malformed qid {list(contexts)[number - 1]!r}")

    lines = read_lines(path / SURFACES_FILE)
    surface_index: dict[str, list[str]] = {}
    for number, line in enumerate(lines, start=1):
        surface, tab, qid = line.partition("\t")
        if qid not in contexts:
            message = f"surface {surface!r} maps to {qid!r}, which has no entry in {CONTEXTS_FILE}"
            if not tab:
                message = "expected 'surface<TAB>qid'"
            raise InputError(path / SURFACES_FILE, number, message)
        qids = surface_index.get(surface)
        if qids is None:
            surface_index[surface] = [qid]  # allocated to fit, where append reserves 4 slots; most surfaces have one qid
        elif qid in qids:
            raise InputError(path / SURFACES_FILE, number, f"surface {surface!r} is listed with {qid!r} twice")
        elif not lines[number - 2].startswith(f"{surface}\t"):  # the index holds one list per surface
            raise InputError(path / SURFACES_FILE, number, f"surface {surface!r} is listed again after other surfaces")
        else:
            qids.append(qid)
    # A surface that is not normalized can never match a sentence.
    if not _normalized_lines("\n".join([*surface_index, ""])):
        surfaces = (line.partition("\t")[0] for line in lines)
        number, bad = next((n, s) for n, s in enumerate(surfaces, start=1) if not _normalized_lines(s + "\n"))
        message = f"surface {bad!r} is not normalized" if bad else "surface is empty"
        raise InputError(path / SURFACES_FILE, number, message)

    return KnowledgeBase(language=language, surface_index=surface_index, contexts=contexts, property_mask=mask)
