import gc
import json
import re

import pytest
from hypothesis import example, given, strategies as st

from propner.inputs import InputError
from propner.kbstore import (
    CONTEXTS_FILE,
    FULL_PROPERTY_MASK,
    META_FILE,
    SURFACES_FILE,
    DumpErrorReport,
    EntityRecord,
    KnowledgeBase,
    build_context,
    build_knowledge_base,
    entity_names,
    load_kb,
    normalize_surface,
    parse_dump,
    save_kb,
)
from propner.evaluator import coverage_rate
from propner.matcher import Sentence, build_matcher, find_candidates

from helpers import record_line


VICTOR_LOOKUP = {"Q5": "human", "Q4964182": "philosopher", "Q82955": "politician"}


def victor_record():
    return EntityRecord(
        qid="Q434346",
        labels={"en": "Victor Cousin"},
        sitelink_titles={"en": "Victor Cousin"},
        instanceof=["Q5"],
        occupation=["Q4964182", "Q82955", "Q333634"],
    )


class TestNormalize:
    def test_casefold_and_nfkc(self):
        assert normalize_surface("Victor Cousin") == "victor cousin"
        assert normalize_surface("ＨＵＭＡＮ") == "human"  # fullwidth folds to ascii

    def test_whitespace_collapse_and_trim(self):
        assert normalize_surface("  New\t York \n City ") == "new york city"

    def test_empty_results(self):
        assert normalize_surface("   ") == ""
        assert normalize_surface("") == ""

    # Case folding turns the iota subscript into a base letter and the dotted
    # capital I into "i" plus a combining dot, which NFKC then reorders.
    @example("\u1f92\u0304")
    @example("\u0130\u0ec8")
    @given(st.text())
    def test_normalized_surface_is_a_fixed_point(self, text):
        surface = normalize_surface(text)
        assert normalize_surface(surface) == surface


class TestParseDump:
    def test_victor_cousin_line(self):
        line = json.dumps(
            {
                "id": "Q434346",
                "labels": {"en": "Victor Cousin"},
                "claims": {"P31": ["Q5"], "P106": ["Q4964182", "Q82955", "Q333634"]},
            }
        )
        [record] = list(parse_dump([line]))
        assert record.qid == "Q434346"
        assert record.labels == {"en": "Victor Cousin"}
        assert record.instanceof == ["Q5"]
        assert record.subclassof == []
        assert record.occupation == ["Q4964182", "Q82955", "Q333634"]

    def test_empty_stream(self):
        report = DumpErrorReport()
        assert list(parse_dump([], report)) == []
        assert len(report) == 0

    def test_missing_claims_mean_empty(self):
        line = json.dumps({"id": "Q5", "aliases": {"en": ["human being", "humankind"]}, "claims": {"P279": ["Q154954", "Q164509"]}})
        [record] = list(parse_dump([line]))
        assert record.occupation == []
        assert record.subclassof == ["Q154954", "Q164509"]
        assert record.aliases == {"en": ["human being", "humankind"]}

    def test_bad_lines_reported_and_skipped(self):
        lines = [
            "not json at all",
            json.dumps({"labels": {"en": "no id"}}),
            json.dumps({"id": "X77"}),
            json.dumps({"id": "Q1", "labels": {"en": "fine"}}),
            json.dumps({"id": "Q2", "claims": {"P31": ["bogus"]}}),
        ]
        report = DumpErrorReport()
        records = list(parse_dump(lines, report))
        assert [r.qid for r in records] == ["Q1"]
        assert [e.line_number for e in report] == [1, 2, 3, 5]

    def test_bytes_and_blank_lines(self):
        lines = [b"", record_line("Q3", "three").encode("utf-8"), b"\xff\xfe", b"  "]
        report = DumpErrorReport()
        records = list(parse_dump(lines, report))
        assert [r.qid for r in records] == ["Q3"]
        assert [e.line_number for e in report] == [3]

    # One line per kind of defect, as a file gives them (each ends in "\n"),
    # with the (line, message) that parse_dump reports for it.
    DEFECTS = [
        (b"\xff{}", "invalid UTF-8: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        (b"", None),
        (b'{"id": "Q1', "invalid JSON: Unterminated string starting at: line 1 column 8 (char 7)"),
        (b'{"id": 1,}', "invalid JSON: Expecting property name enclosed in double quotes: line 1 column 10 (char 9)"),
        (b'["Q1"]', "line is not a JSON object"),
        (b'{"labels": {}}', "missing 'id' field"),
        (b'{"id": "X1"}', "malformed qid 'X1'"),
        (b'{"id": "Q5\\n"}', "malformed qid 'Q5\\n'"),
        (b'{"id": "Q01"}', "malformed qid 'Q01'"),
        (b'{"id": "Q1", "claims": ["P31"]}', "field 'claims' must be an object"),
        (b'{"id": "Q1", "claims": []}', "field 'claims' must be an object"),
        (b'{"id": "Q1", "claims": 0}', "field 'claims' must be an object"),
        (b'{"id": "Q1", "claims": ""}', "field 'claims' must be an object"),
        (b'{"id": "Q1", "claims": false}', "field 'claims' must be an object"),
        (b'{"id": "Q1", "claims": {"P31": "Q5"}}', "claim P31 must be a list"),
        (b'{"id": "Q1", "claims": {"P106": ["Q5", "q6"]}}', "claim P106 contains malformed qid 'q6'"),
        (b'{"id": "Q1", "claims": {"P31": ["Q7\\n"]}}', "claim P31 contains malformed qid 'Q7\\n'"),
        (b'{"id": "Q1", "claims": {"P31": ["Q01"]}}', "claim P31 contains malformed qid 'Q01'"),
        (b'{"id": "Q1", "labels": "Victor"}', "field 'labels' must be an object"),
        (b'{"id": "Q1", "labels": {"en": 7}}', "field 'labels' has a non-string value for 'en'"),
        (b'{"id": "Q1", "sitelinks": ["enwiki"]}', "field 'sitelinks' must be an object"),
        (b'{"id": "Q1", "sitelinks": {"enwiki": null}}', "field 'sitelinks' has a non-string value for 'enwiki'"),
        (b'{"id": "Q1", "aliases": ["Vic"]}', "field 'aliases' must be an object"),
        (b'{"id": "Q1", "aliases": {"en": "Vic"}}', "aliases for 'en' must be a list of strings"),
        (b'{"id": "Q1", "aliases": {"en": ["Vic", 2]}}', "aliases for 'en' must be a list of strings"),
        (b'{"id": "Q1", "labels": {"en": "bad\\ud800name"}}', "'\\ud800' is a lone surrogate, which UTF-8 cannot encode"),
        (b'{"id": "Q2", "claims": {"P31": ["Q5"]}}', None),
    ]

    @pytest.mark.parametrize("kind", [bytes, str])
    def test_each_defect_reported_with_its_message(self, kind):
        lines = [line + b"\n" for line, _ in self.DEFECTS]
        expected = [(number, message) for number, (_, message) in enumerate(self.DEFECTS, start=1) if message]
        if kind is str:  # a str line cannot be invalid UTF-8; a blank line takes its place
            lines = ["\n"] + [line.decode("utf-8") for line in lines[1:]]
            expected = expected[1:]
        report = DumpErrorReport()
        records = list(parse_dump(lines, report))
        assert [record.qid for record in records] == ["Q2"]
        assert [(error.line_number, error.message) for error in report] == expected

    def test_surrogates_that_utf8_can_encode(self):
        """An escaped surrogate pair decodes to one character, which is kept;
        a str line that holds a lone surrogate itself is a bad line."""
        report = DumpErrorReport()
        lines = ['{"id": "Q1", "labels": {"en": "\\ud83d\\ude00 \\\\ud800"}}', '{"id": "Q2", "labels": {"en": "a\ud800"}}']
        [record] = list(parse_dump(lines, report))
        assert record.labels == {"en": "\U0001f600 \\ud800"}
        assert [(e.line_number, e.message) for e in report] == [
            (2, "invalid UTF-8: '\\ud800' is a lone surrogate, which UTF-8 cannot encode"),
        ]

    def test_claims_missing_or_null_mean_none(self):
        records = list(parse_dump(['{"id": "Q1"}', '{"id": "Q2", "claims": null}']))
        assert [(r.qid, r.instanceof, r.subclassof, r.occupation) for r in records] == [("Q1", [], [], []), ("Q2", [], [], [])]

    def test_sitelink_language_mapping(self):
        line = json.dumps({"id": "Q9", "sitelinks": {"enwiki": "Nine", "dewiki": "Neun", "other": "x"}})
        [record] = list(parse_dump([line]))
        assert record.sitelink_titles == {"en": "Nine", "de": "Neun"}


class TestEntityNames:
    def test_union_of_label_title_aliases(self):
        record = EntityRecord(
            qid="Q5",
            labels={"en": "human"},
            aliases={"en": ["human being", "humankind", ""]},
            sitelink_titles={"en": "Human"},
        )
        assert entity_names(record, "en") == {"human", "Human", "human being", "humankind"}

    def test_other_language_empty(self):
        assert entity_names(victor_record(), "de") == set()


class TestBuildContext:
    def test_full_mask_victor(self):
        ctx = build_context(victor_record(), VICTOR_LOOKUP, FULL_PROPERTY_MASK)
        assert ctx == "human | philosopher | politician"

    def test_empty_properties(self):
        record = EntityRecord(qid="Q1", labels={"en": "x"})
        assert build_context(record, VICTOR_LOOKUP, FULL_PROPERTY_MASK) == ""

    def test_instanceof_only_mask(self):
        # independently derived: filtering the field lists by hand leaves
        # only instanceof [Q5] -> "human"
        ctx = build_context(victor_record(), VICTOR_LOOKUP, {"instanceof"})
        assert ctx == "human"

    def test_unknown_mask_kind_rejected(self):
        with pytest.raises(ValueError):
            build_context(victor_record(), VICTOR_LOOKUP, {"instanceof", "color"})

    def test_label_whitespace_sanitized(self):
        record = EntityRecord(qid="Q1", instanceof=["Q2"])
        ctx = build_context(record, {"Q2": "two\twords\nhere"}, FULL_PROPERTY_MASK)
        assert ctx == "two words here"


class TestBuildKnowledgeBase:
    def test_table_fixture_surfaces_and_contexts(self, table_kb):
        for key in ("victor cousin", "human", "human being", "humankind"):
            assert key in table_kb.surface_index
        assert table_kb.contexts["Q434346"] == "human | philosopher | politician"
        assert table_kb.contexts["Q5"] == "natural person | omnivore | mammal"

    def test_empty_stream(self):
        kb = build_knowledge_base([], "en")
        assert kb.surface_index == {} and kb.contexts == {}

    def test_shared_surface_sorted_numerically(self):
        lines = [record_line("Q70", "human"), record_line("Q9", "human")]
        kb = build_knowledge_base(parse_dump(lines), "en")
        assert kb.surface_index["human"] == ["Q9", "Q70"]

    def test_duplicate_qid_later_wins(self):
        """The later record replaces the earlier one whole: its names, its
        label in a referrer's context and its property count under qid_cap."""
        lines = [
            record_line("Q1", "first", aliases=["name"]),
            record_line("Q2", "referrer", p31=["Q1"]),
            record_line("Q3", "name", p31=["Q2"]),
            record_line("Q4", "name", p31=["Q2"]),
            record_line("Q1", "second", aliases=["name"], p31=["Q2"], p106=["Q2"]),
        ]
        kb = build_knowledge_base(parse_dump(lines), "en", qid_cap=2)
        assert "second" in kb.surface_index and "first" not in kb.surface_index
        assert kb.contexts["Q2"] == "second"
        assert kb.surface_index["name"] == ["Q1", "Q3"]  # 2 property values, where Q3 and Q4 have 1
        assert not any("first" in context for context in kb.contexts.values())

    def test_qid_cap_keeps_most_properties(self):
        lines = [
            record_line("Q1", "name"),
            record_line("Q2", "name", p31=["Q1"]),
            record_line("Q3", "name", p31=["Q1"], p106=["Q1"]),
            record_line("Q4", "name", p31=["Q1"], p279=["Q1"], p106=["Q1"]),
        ]
        kb = build_knowledge_base(parse_dump(lines), "en", qid_cap=2)
        assert kb.surface_index["name"] == ["Q3", "Q4"]

    def test_every_indexed_qid_has_context(self, table_kb):
        for qids in table_kb.surface_index.values():
            for qid in qids:
                assert qid in table_kb.contexts

    def test_monotonic_growth(self, table_lines):
        small = build_knowledge_base(parse_dump(table_lines[:3]), "en")
        big = build_knowledge_base(parse_dump(table_lines), "en")
        assert set(small.surface_index) <= set(big.surface_index)

    @given(st.sets(st.sampled_from(["instanceof", "subclassof", "occupation"])))
    def test_submask_context_is_subsequence(self, mask):
        full = build_context(victor_record(), VICTOR_LOOKUP, FULL_PROPERTY_MASK).split(" | ")
        sub = build_context(victor_record(), VICTOR_LOOKUP, mask)
        parts = sub.split(" | ") if sub else []
        it = iter(full)
        assert all(part in it for part in parts)

    @given(st.lists(st.sampled_from(["Q5", "Q4964182", "Q82955", "Q333634"]), max_size=6))
    def test_separator_count(self, occupation):
        record = EntityRecord(qid="Q1", occupation=list(occupation))
        context = build_context(record, VICTOR_LOOKUP, FULL_PROPERTY_MASK)
        resolved = sum(1 for q in occupation if q in VICTOR_LOOKUP)
        if resolved:
            assert context.count(" | ") == resolved - 1
            assert not context.startswith(" | ") and not context.endswith(" | ")
        else:
            assert context == ""

    def test_empty_mask_all_contexts_empty(self, table_records):
        kb = build_knowledge_base(table_records, "en", frozenset())
        assert all(context == "" for context in kb.contexts.values())


class TestCompileMemory:
    def test_keeps_fewer_tracked_objects_than_records(self):
        """Of each record the compile keeps only strings and an int, in a
        tuple that CPython's cyclic collector stops tracking, so reading 2000
        records leaves fewer tracked objects than records."""
        lines = [record_line(f"Q{i}", f"name {i}", aliases=[f"alias {i}"], p31=["Q1"]) for i in range(1, 2001)]
        tracked = []

        def records():
            gc.collect()
            tracked.append(len(gc.get_objects()))
            yield from parse_dump(lines)
            gc.collect()
            tracked.append(len(gc.get_objects()))

        build_knowledge_base(records(), "en")
        assert tracked[1] - tracked[0] < len(lines)


class TestCoverage:
    def sentences(self):
        return [
            Sentence("a", ["Victor", "Cousin", "thinks"], ["B-PER", "I-PER", "O"]),
            Sentence("b", ["a", "human", "walks"], ["O", "B-OTH", "O"]),
            Sentence("c", ["Unknown", "Stranger", "appears"], ["B-PER", "I-PER", "O"]),
        ]

    def test_full_dictionary(self, table_kb):
        dataset = [Sentence("a", ["Victor", "Cousin"], ["B-PER", "I-PER"])]
        assert coverage_rate(table_kb, dataset) == 1.0

    def test_disjoint_dictionary(self, table_kb):
        dataset = [Sentence("a", ["Unknown", "Stranger"], ["B-PER", "I-PER"])]
        assert coverage_rate(table_kb, dataset) == 0.0

    def test_two_of_three_mentions(self, table_kb):
        assert coverage_rate(table_kb, self.sentences()) == pytest.approx(2 / 3, abs=1e-9)

    def test_zero_mentions_is_one(self, table_kb):
        assert coverage_rate(table_kb, [Sentence("a", ["nothing"], ["O"])]) == 1.0

    def test_malformed_tags_repaired(self, table_kb):
        dataset = [Sentence("a", ["Victor", "Cousin"], ["O", "I-PER"])]  # orphan I- becomes its own mention
        assert coverage_rate(table_kb, dataset) == 0.0

    def test_requires_gold_tags(self, table_kb):
        with pytest.raises(ValueError):
            coverage_rate(table_kb, [Sentence("a", ["x"])])

    def test_in_unit_interval_and_monotone(self, table_lines, table_kb):
        dataset = self.sentences()
        small = build_knowledge_base(parse_dump(table_lines[:1]), "en")
        low = coverage_rate(small, dataset)
        high = coverage_rate(table_kb, dataset)
        assert 0.0 <= low <= high <= 1.0


class TestPersistence:
    def test_round_trip_bytes(self, table_kb, tmp_path):
        first = tmp_path / "kb1"
        second = tmp_path / "kb2"
        save_kb(table_kb, first)
        reloaded = load_kb(first)
        assert reloaded.surface_index == table_kb.surface_index
        assert reloaded.contexts == table_kb.contexts
        assert reloaded.property_mask == table_kb.property_mask
        save_kb(reloaded, second)
        for name in (SURFACES_FILE, CONTEXTS_FILE, META_FILE):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_qids_written_in_increasing_number(self, tmp_path):
        """The build sets the order, and ``save_kb`` writes it as it is:
        ``Q9`` before ``Q70``, which sort the other way as strings."""
        kb = build_knowledge_base(parse_dump([record_line("Q70", "nine"), record_line("Q9", "Nine")]), "en")
        assert kb.surface_index == {"nine": ["Q9", "Q70"]}
        save_kb(kb, tmp_path)
        assert (tmp_path / SURFACES_FILE).read_text(encoding="utf-8") == "nine\tQ9\nnine\tQ70\n"
        assert (tmp_path / CONTEXTS_FILE).read_text(encoding="utf-8") == "Q9\t\nQ70\t\n"

    def test_inconsistent_kb_rejected(self, table_kb, tmp_path):
        save_kb(table_kb, tmp_path)
        surfaces = tmp_path / SURFACES_FILE
        text = surfaces.read_text(encoding="utf-8")
        surfaces.write_text(text + "zeta\tQ999999\n", encoding="utf-8")
        with pytest.raises(InputError, match=re.escape(f"{surfaces}:{len(text.splitlines()) + 1}: surface 'zeta'")):
            load_kb(tmp_path)

    @pytest.mark.parametrize("qid", ["Qx7", "Q", "12Q3", "Q\u0661", "q1", "", "Q5 ", "Q5\r"])
    def test_malformed_context_qid_rejected(self, table_kb, tmp_path, qid):
        save_kb(table_kb, tmp_path)
        contexts = tmp_path / CONTEXTS_FILE
        lines = contexts.read_text(encoding="utf-8").splitlines()
        lines.insert(1, f"{qid}\tplace")
        contexts.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
        with pytest.raises(InputError, match=re.escape(f"{contexts}:2: malformed qid {qid!r}")):
            load_kb(tmp_path)

    def test_empty_kb_loads(self, tmp_path):
        kb = build_knowledge_base([], "en")
        save_kb(kb, tmp_path)
        assert (tmp_path / CONTEXTS_FILE).read_bytes() == (tmp_path / SURFACES_FILE).read_bytes() == b""
        assert load_kb(tmp_path) == kb

    @pytest.mark.parametrize("char", ["\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
    def test_lines_end_only_at_newline(self, tmp_path, char):
        """Of the characters that ``str.splitlines`` splits at, only the
        newline ends a KB line."""
        save_kb(KnowledgeBase("en", {"human": ["Q1"]}, {"Q1": "human"}, FULL_PROPERTY_MASK), tmp_path)
        contexts = tmp_path / CONTEXTS_FILE
        contexts.write_bytes(f"Q1\thu{char}man\n".encode("utf-8"))
        assert load_kb(tmp_path).contexts == {"Q1": f"hu{char}man"}
        contexts.write_bytes(f"Q1\thu{char}man\nQx7\tplace\n".encode("utf-8"))
        with pytest.raises(InputError, match=re.escape(f"{contexts}:2: malformed qid 'Qx7'")):
            load_kb(tmp_path)

    def test_crlf_line_ends(self, table_kb, tmp_path):
        """An ``\\r`` before a newline, or at the end of the file, is
        dropped."""
        save_kb(table_kb, tmp_path)
        for name in (SURFACES_FILE, CONTEXTS_FILE):
            path = tmp_path / name
            path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n").removesuffix(b"\n"))
        reloaded = load_kb(tmp_path)
        assert (reloaded.surface_index, reloaded.contexts) == (table_kb.surface_index, table_kb.contexts)

    @pytest.mark.parametrize("surface,message", [
        ("Victor Cousin", "surface 'Victor Cousin' is not normalized"),
        ("victor  cousin", "surface 'victor  cousin' is not normalized"),
        ("victor cousin ", "surface 'victor cousin ' is not normalized"),
        ("victor\u00a0cousin", "surface 'victor\\xa0cousin' is not normalized"),
        ("e\u0301mile", "surface 'e\u0301mile' is not normalized"),
        ("", "surface is empty"),
    ])
    def test_surface_not_normalized_rejected(self, table_kb, tmp_path, surface, message):
        save_kb(table_kb, tmp_path)
        surfaces = tmp_path / SURFACES_FILE
        lines = surfaces.read_text(encoding="utf-8").splitlines()
        lines.insert(1, f"{surface}\tQ5")
        surfaces.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(InputError, match=re.escape(f"{surfaces}:2: {message}")):
            load_kb(tmp_path)

    @example("\u1f92\u0304 \u0130\u0ec8")
    @given(st.text(min_size=1))
    def test_any_label_loads_and_matches(self, tmp_path_factory, label):
        kb = build_knowledge_base(parse_dump([record_line("Q1", label)]), "en")
        out = tmp_path_factory.mktemp("kb")
        save_kb(kb, out)
        reloaded = load_kb(out)
        assert reloaded.surface_index == kb.surface_index
        tokens = label.split()
        if kb.surface_index and all(normalize_surface(token) for token in tokens):
            hits = find_candidates(build_matcher(reloaded), Sentence("s", tokens))
            assert [(hit.start, hit.end, hit.qid) for hit in hits] == [(0, len(tokens), "Q1")]
