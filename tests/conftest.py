import json
import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from propner.kbstore import DumpErrorReport, build_knowledge_base, parse_dump

# Every property test draws the same examples on every run.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


def table_dump_lines() -> list[str]:
    """Two worked entities (a philosopher and the 'human' concept) plus the
    label records their property qids resolve through."""
    return [
        json.dumps(
            {
                "id": "Q434346",
                "labels": {"en": "Victor Cousin"},
                "aliases": {"en": []},
                "sitelinks": {"enwiki": "Victor Cousin"},
                "claims": {"P31": ["Q5"], "P279": [], "P106": ["Q4964182", "Q82955", "Q333634"]},
            }
        ),
        json.dumps(
            {
                "id": "Q5",
                "labels": {"en": "human"},
                "aliases": {"en": ["human being", "humankind"]},
                "sitelinks": {"enwiki": "Human"},
                "claims": {"P31": ["Q55983715"], "P279": ["Q154954", "Q164509"]},
            }
        ),
        json.dumps({"id": "Q4964182", "labels": {"en": "philosopher"}}),
        json.dumps({"id": "Q82955", "labels": {"en": "politician"}}),
        json.dumps({"id": "Q55983715", "labels": {"en": "natural person"}}),
        json.dumps({"id": "Q154954", "labels": {"en": "omnivore"}}),
        json.dumps({"id": "Q164509", "labels": {"en": "mammal"}}),
    ]


@pytest.fixture
def table_lines():
    return table_dump_lines()


@pytest.fixture
def table_records(table_lines):
    report = DumpErrorReport()
    records = list(parse_dump(table_lines, report))
    assert not len(report)
    return records


@pytest.fixture
def table_kb(table_records):
    return build_knowledge_base(table_records, "en")
