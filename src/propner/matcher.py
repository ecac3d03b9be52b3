"""Multi-pattern matching of knowledge-base surfaces against token sequences.

Surfaces are indexed in a word-level trie so every occurrence of every
surface is found in one left-to-right pass per start position. Matches
respect token boundaries: a surface must cover whole tokens, because the
BIO labels we ultimately predict are token-level. Overlaps are resolved
by preferring longer entities.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from propner.kbstore import KnowledgeBase, _collector_paused, _qid_num, normalize_surface


@dataclass
class Sentence:
    id: str
    tokens: list[str]
    gold_tags: list[str] | None = None

    def __post_init__(self) -> None:
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


class _TrieNode:
    __slots__ = ("children", "surface", "qids")

    def __init__(self) -> None:
        self.children: dict[str, _TrieNode] = {}
        self.surface: str | None = None
        self.qids: tuple[str, ...] = ()


@dataclass
class Matcher:
    """Immutable word trie over all KB surfaces."""

    _root: _TrieNode = field(repr=False)
    pattern_count: int = 0


def build_matcher(kb: KnowledgeBase) -> Matcher:
    root = _TrieNode()
    with _collector_paused():
        for surface, qids in kb.surface_index.items():
            node = root
            for word in surface.split(" "):
                node = node.children.setdefault(word, _TrieNode())
            node.surface = surface
            node.qids = tuple(qids)
    return Matcher(root, pattern_count=len(kb.surface_index))


def find_candidates(matcher: Matcher, sentence: Sentence) -> list[EntityMatch]:
    """All (span, qid) occurrences of KB surfaces, possibly overlapping.

    Tokens are normalized with the KB normalizer before lookup; a token that
    normalizes to several words (or to nothing) consumes that many trie
    edges, so the matched surface always equals the normalization of the
    span's tokens joined by single spaces.
    """
    token_words = [normalize_surface(token).split() for token in sentence.tokens]
    matches = []
    for start in range(len(token_words)):
        node = matcher._root
        for end, words in enumerate(token_words[start:], start=start):
            for word in words:
                node = node.children.get(word)
                if node is None:
                    break
            if node is None:
                break
            if node.surface is not None:
                for qid in node.qids:
                    matches.append(EntityMatch(start, end + 1, node.surface, qid))
    return matches


def resolve_overlaps(candidates: list[EntityMatch]) -> list[EntityMatch]:
    """Greedy non-overlapping selection, longer spans first.

    Priority is (span length desc, start asc, qid asc); ties among
    equal-length overlapping spans go to the leftmost. All qids sharing one
    selected span survive together since they occupy the same tokens.
    """
    ordered = sorted(candidates, key=lambda m: (m.start - m.end, m.start, _qid_num(m.qid)))
    selected: list[EntityMatch] = []
    spans: set[tuple[int, int]] = set()
    for cand in ordered:
        span = (cand.start, cand.end)
        if any(s < cand.end and cand.start < e and (s, e) != span for s, e in spans):
            continue
        selected.append(cand)
        spans.add(span)
    return sorted(selected, key=lambda m: (m.start, m.end, _qid_num(m.qid)))


def retrieve(kb: KnowledgeBase, matcher: Matcher, sentence: Sentence) -> list[EntityMatch]:
    """Entity/context pairs for one sentence, non-overlapping, start-sorted.
    Every indexed qid has a context: ``build_knowledge_base`` gives it one
    and ``load_kb`` refuses a KB without it."""
    return [
        EntityMatch(m.start, m.end, m.surface, m.qid, kb.contexts[m.qid])
        for m in resolve_overlaps(find_candidates(matcher, sentence))
    ]
