"""Multi-pattern matching of knowledge-base surfaces against token sequences.

The matcher is the KB's surface index plus the set of every word prefix of
every surface, so a scan from each start position grows its span one token
at a time and stops at the first span that no surface starts with. Matches
respect token boundaries: a surface must cover whole tokens, because the
BIO labels we ultimately predict are token-level. Overlaps are resolved
by preferring longer entities.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from propner.kbstore import KnowledgeBase, _qid_num, normalize_surface


@dataclass(frozen=True)
class Sentence:
    """A sentence and, if labeled, one gold tag per token. Its tokens and
    tags are held as tuples, so the check at construction holds for the
    sentence's life."""

    id: str
    tokens: tuple[str, ...]
    gold_tags: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", tuple(self.tokens))
        object.__setattr__(self, "gold_tags", None if self.gold_tags is None else tuple(self.gold_tags))
        if any(not token for token in self.tokens):
            raise ValueError(f"sentence {self.id!r} contains an empty token")
        if self.gold_tags is not None and len(self.gold_tags) != len(self.tokens):
            raise ValueError(f"sentence {self.id!r}: {len(self.gold_tags)} tags for {len(self.tokens)} tokens")


@dataclass(frozen=True)
class EntityMatch:
    """One matched span: token range [start, end), its surface, qid, context."""

    start: int
    end: int
    surface: str
    qid: str
    context: str = ""


@dataclass(frozen=True)
class Matcher:
    """The KB's surface index and every word prefix of its surfaces. The
    empty prefix is one, so a span may start at a token that normalizes to
    nothing."""

    surfaces: dict[str, list[str]] = field(repr=False)
    prefixes: frozenset[str] = field(repr=False)


def build_matcher(kb: KnowledgeBase) -> Matcher:
    prefixes = {""}
    for surface in kb.surface_index:
        # A surface's words are joined by single spaces, so its word prefixes
        # end where a space starts. The set stays closed under taking word
        # prefixes, so the first prefix already in it ends the walk.
        cut = len(surface)
        while cut > 0 and (prefix := surface[:cut]) not in prefixes:
            prefixes.add(prefix)
            cut = surface.rfind(" ", 0, cut)
    return Matcher(kb.surface_index, frozenset(prefixes))


def find_candidates(matcher: Matcher, sentence: Sentence) -> list[EntityMatch]:
    """All (span, qid) occurrences of KB surfaces, possibly overlapping.

    Tokens are normalized with the KB normalizer before lookup, and a span's
    key is the words of its tokens joined by single spaces, so the matched
    surface always equals the normalization of the span's tokens joined by
    single spaces. A token that normalizes to nothing adds no words, and the
    span goes on past it.
    """
    token_words = [normalize_surface(token) for token in sentence.tokens]
    surfaces, prefixes = matcher.surfaces, matcher.prefixes
    matches = []
    for start in range(len(token_words)):
        key = ""
        for end, words in enumerate(token_words[start:], start=start):
            if words:
                key = f"{key} {words}" if key else words
            if key not in prefixes:
                break
            for qid in surfaces.get(key, ()):
                matches.append(EntityMatch(start, end + 1, key, qid))
    return matches


def resolve_overlaps(candidates: list[EntityMatch]) -> list[EntityMatch]:
    """Greedy non-overlapping selection, longer spans first.

    Priority is (span length desc, start asc, qid asc); ties among
    equal-length overlapping spans go to the leftmost. All qids sharing one
    selected span survive together since they occupy the same tokens. A
    per-token occupancy array makes each test linear in the span's length:
    selected spans never overlap, so a candidate over a selected span is
    kept and any other is dropped if it covers an occupied token.
    """
    ordered = sorted(candidates, key=lambda m: (m.start - m.end, m.start, _qid_num(m.qid)))
    selected: list[EntityMatch] = []
    spans: set[tuple[int, int]] = set()
    occupied = bytearray(max((m.end for m in candidates), default=0))  # 1 at each token of a selected span
    for cand in ordered:
        span = (cand.start, cand.end)
        if span not in spans:
            if any(occupied[cand.start : cand.end]):
                continue
            occupied[cand.start : cand.end] = b"\1" * (cand.end - cand.start)
            spans.add(span)
        selected.append(cand)
    return sorted(selected, key=lambda m: (m.start, m.end, _qid_num(m.qid)))


def retrieve(kb: KnowledgeBase, matcher: Matcher, sentence: Sentence) -> list[EntityMatch]:
    """Entity/context pairs for one sentence, non-overlapping, start-sorted.
    Every indexed qid has a context: ``build_knowledge_base`` gives it one
    and ``load_kb`` refuses a KB without it."""
    return [
        EntityMatch(m.start, m.end, m.surface, m.qid, kb.contexts[m.qid])
        for m in resolve_overlaps(find_candidates(matcher, sentence))
    ]
