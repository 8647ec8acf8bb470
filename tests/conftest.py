from __future__ import annotations

from pathlib import Path

import pytest

from omld.rdf import parse_turtle
from omld.cd import parse_cd_xml
from omld.rewrite import CdStore
from omld.server import CdServer

FIXTURES = Path(__file__).parent / "fixtures"
CD_DIR = FIXTURES / "cds"


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


@pytest.fixture
def listing1_graph():
    return parse_turtle(fixture_text("listing1.ttl"))


@pytest.fixture
def listing2_graph():
    return parse_turtle(fixture_text("listing2.ttl"))


@pytest.fixture
def geese_graph():
    return parse_turtle(fixture_text("geese.ttl"))


@pytest.fixture
def regions_graph():
    return parse_turtle(fixture_text("regions.ttl"))


@pytest.fixture
def statistics_cd():
    return parse_cd_xml(fixture_text("cds/statistics.ocd"))


@pytest.fixture
def local_store():
    """All fixture CDs, read at the first lookup; no network."""
    store = CdStore()
    store.add_directory(CD_DIR)
    return store


@pytest.fixture(scope="session")
def cd_server():
    """A live loopback server publishing the fixture CDs."""
    server = CdServer(CD_DIR, port=0).start()
    yield server
    server.close()
