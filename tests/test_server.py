from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from omld.cd import ContentDictionary, parse_cd_xml
from omld.errors import ToolkitError
from omld.om import OPENMATH_XML_MIME, parse_symbol_uri
from omld.rdf import Iri, Literal, parse_turtle
from omld.resolver import fetch_cd, negotiate_fetch
from omld.server import (
    CdApp,
    CdServer,
    cd_to_rdf,
    load_snapshot,
    negotiate,
    parse_accept,
    render_cd_html,
)

from .conftest import CD_DIR, fixture_text
from .helpers import match

BASE = "http://cds.example"
BAD_NAME_CD = (
    "<CD><CDName>bad</CDName><CDBase>http://example.org</CDBase>"
    "<CDDefinition><Name>bad name</Name></CDDefinition></CD>"
)


@pytest.fixture(scope="module")
def app():
    return CdApp(load_snapshot(CD_DIR), BASE)


class TestParseAccept:
    def test_q_ordering(self):
        prefs = parse_accept("text/html;q=0.3, application/openmath+xml;q=0.9")
        assert prefs[0][0] == "application/openmath+xml"

    def test_position_breaks_q_ties(self):
        prefs = parse_accept("text/turtle, text/html")
        assert [m for m, _ in prefs] == ["text/turtle", "text/html"]

    def test_missing_header(self):
        assert parse_accept(None) == []
        assert negotiate(None) == OPENMATH_XML_MIME

    def test_wildcards(self):
        assert negotiate("*/*") == OPENMATH_XML_MIME
        assert negotiate("application/*") == OPENMATH_XML_MIME
        assert negotiate("text/*") == "text/html"

    def test_unsupported(self):
        assert negotiate("image/png") is None


class TestRouting:
    def test_xml_representation(self, app):
        status, headers, body = app.route("GET", "/statistics", OPENMATH_XML_MIME)
        assert status == 200
        assert headers["Content-Type"] == OPENMATH_XML_MIME
        cd = parse_cd_xml(body.decode())
        disk = parse_cd_xml(fixture_text("cds/statistics.ocd"))
        assert cd.definitions == disk.definitions

    def test_html_redirects_303(self, app):
        status, headers, _ = app.route("GET", "/statistics", "text/html")
        assert status == 303
        assert headers["Location"] == f"{BASE}/statistics.xhtml"

    def test_html_page_has_symbol_anchor(self, app):
        status, headers, body = app.route("GET", "/statistics.xhtml", "text/html")
        assert status == 200
        assert headers["Content-Type"].startswith("text/html")
        text = body.decode()
        assert 'id="hdi"' in text
        assert 'about="http://example.org/statistics#hdi"' in text

    def test_turtle_representation(self, app):
        status, headers, body = app.route("GET", "/statistics", "text/turtle")
        assert status == 200
        assert headers["Content-Type"] == "text/turtle"
        graph = parse_turtle(body.decode())
        name_triples = match(
            graph, Iri(f"{BASE}/statistics#hdi"), Iri(f"{BASE}/vocab#name"), Literal("hdi")
        )
        assert len(name_triples) == 1

    def test_query_string_is_not_part_of_the_route(self, app):
        for path in ("/chain", "/chain.xhtml", "/chain/c1"):
            plain = app.route("GET", path, "text/turtle")
            assert plain[0] == 200
            assert app.route("GET", path + "?x=1", "text/turtle") == plain
        assert app.route("GET", "/?x=/chain", None)[0] == 404

    def test_unknown_cd_404(self, app):
        status, _, _ = app.route("GET", "/nothing", OPENMATH_XML_MIME)
        assert status == 404

    def test_unknown_symbol_404(self, app):
        status, _, _ = app.route("GET", "/statistics/nosuch", OPENMATH_XML_MIME)
        assert status == 404

    def test_slash_route_serves_single_definition(self, app):
        status, headers, body = app.route("GET", "/statistics/hdi", OPENMATH_XML_MIME)
        assert status == 200
        assert headers["Content-Type"] == OPENMATH_XML_MIME
        fragment = parse_cd_xml(body.decode())
        assert fragment.cdname == "statistics"
        assert [d.name for d in fragment.definitions] == ["hdi"]

    def test_unsupported_accept_406(self, app):
        status, _, body = app.route("GET", "/statistics", "image/png")
        assert status == 406
        for mime in (OPENMATH_XML_MIME, "text/html", "text/turtle"):
            assert mime.encode() in body

    def test_non_get_405(self, app):
        status, _, _ = app.route("POST", "/statistics", None)
        assert status == 405

    def test_conneg_content_type_matches_request(self, app):
        for accept, expected in (
            (OPENMATH_XML_MIME, OPENMATH_XML_MIME),
            ("text/turtle", "text/turtle"),
        ):
            _, headers, _ = app.route("GET", "/statistics", accept)
            assert headers["Content-Type"].startswith(expected)


class TestHtmlRendering:
    def test_empty_cd(self):
        cd = ContentDictionary("http://example.org", "bare", "just a description", ())
        text = render_cd_html(cd)
        assert "just a description" in text
        assert "<section" not in text

    def test_links_become_hyperlinks(self):
        cd = parse_cd_xml(fixture_text("cds/elementary.ocd"))
        text = render_cd_html(cd)
        assert 'href="http://dbpedia.org/resource/Logarithm"' in text

    def test_fmp_rendered_as_code(self, statistics_cd):
        text = render_cd_html(statistics_cd)
        assert "&lt;OMA&gt;" in text


class TestCdToRdf:
    def test_symbol_description_triples(self, statistics_cd):
        graph = cd_to_rdf(statistics_cd, BASE)
        about_hdi = match(graph, Iri(f"{BASE}/statistics#hdi"))
        assert len(about_hdi) >= 3

    def test_empty_cd_has_cd_level_triples_only(self):
        cd = ContentDictionary("http://example.org", "bare", "d", ())
        graph = cd_to_rdf(cd, BASE)
        assert len(graph.triples) == 2
        assert all(t.subject == Iri(f"{BASE}/bare") for t in graph.triples)

    def test_link_triple_present(self):
        cd = parse_cd_xml(fixture_text("cds/elementary.ocd"))
        graph = cd_to_rdf(cd, BASE)
        dbpedia = match(graph, None, None, Iri("http://dbpedia.org/resource/Logarithm"))
        assert len(dbpedia) == 1
        assert dbpedia[0].subject == Iri(f"{BASE}/elementary#logarithm")

    def test_minted_uris_parse_back(self, statistics_cd):
        graph = cd_to_rdf(statistics_cd, BASE)
        for triple in graph.triples:
            value = triple.subject.value
            if "#" in value:
                uri = parse_symbol_uri(value)
                assert uri.cdbase == BASE
                assert uri.cd == "statistics"


class TestLoadCdDirectory:
    def test_non_utf8_file_is_a_toolkit_error(self, tmp_path):
        shutil.copy(CD_DIR / "statistics.ocd", tmp_path)
        (tmp_path / "latin.ocd").write_bytes(b"<CD><CDName>caf\xe9</CDName></CD>")
        with pytest.raises(ToolkitError, match="latin.ocd: not UTF-8"):
            load_snapshot(tmp_path)


    def test_bad_symbol_name_is_a_toolkit_error(self, tmp_path):
        shutil.copy(CD_DIR / "statistics.ocd", tmp_path)
        (tmp_path / "bad.ocd").write_text(BAD_NAME_CD)
        with pytest.raises(ToolkitError, match="bad.ocd: <Name>: bad symbol name: 'bad name'"):
            load_snapshot(tmp_path)


class TestLiveServer:
    def test_loopback_resolver_round_trip(self, cd_server):
        cd = fetch_cd(f"{cd_server.base_iri}/statistics")
        disk = parse_cd_xml(fixture_text("cds/statistics.ocd"))
        assert cd.cdname == disk.cdname
        assert cd.cdbase == disk.cdbase
        assert cd.definitions == disk.definitions

    def test_turtle_over_http(self, cd_server):
        result = negotiate_fetch(f"{cd_server.base_iri}/statistics", "text/turtle")
        graph = parse_turtle(result.body.decode())
        assert match(graph, None, None, Literal("hdi"))

    def test_reload_swaps_snapshot(self, tmp_path):
        directory = tmp_path / "cds"
        directory.mkdir()
        shutil.copy(CD_DIR / "statistics.ocd", directory / "statistics.ocd")
        server = CdServer(directory, port=0).start()
        try:
            status, _, _ = server.app.route("GET", "/elementary", OPENMATH_XML_MIME)
            assert status == 404
            shutil.copy(CD_DIR / "elementary.ocd", directory / "elementary.ocd")
            server.reload()
            result = negotiate_fetch(f"{server.base_iri}/elementary", OPENMATH_XML_MIME)
            assert b"<CDName>elementary</CDName>" in result.body
        finally:
            server.close()

    def test_duplicate_cd_names_rejected(self, tmp_path):
        directory = tmp_path / "cds"
        directory.mkdir()
        shutil.copy(CD_DIR / "statistics.ocd", directory / "one.ocd")
        shutil.copy(CD_DIR / "statistics.ocd", directory / "two.ocd")
        with pytest.raises(ToolkitError, match="two.ocd: another CD file already defines"):
            load_snapshot(directory)

    def test_failed_reload_keeps_the_old_snapshot(self, tmp_path, capsys):
        directory = tmp_path / "cds"
        directory.mkdir()
        shutil.copy(CD_DIR / "statistics.ocd", directory / "statistics.ocd")
        server = CdServer(directory, port=0).start()
        try:
            shutil.copy(CD_DIR / "statistics.ocd", directory / "twin.ocd")
            shutil.copy(CD_DIR / "elementary.ocd", directory / "elementary.ocd")
            server.reload()
            err = capsys.readouterr().err
            assert err.startswith("omld: reload failed, still serving the old CDs: ")
            assert err.count("\n") == 1
            result = negotiate_fetch(f"{server.base_iri}/statistics", OPENMATH_XML_MIME)
            assert b"<CDName>statistics</CDName>" in result.body
            status, _, _ = server.app.route("GET", "/elementary", OPENMATH_XML_MIME)
            assert status == 404
            # Once the directory loads again, the next reload takes it.
            (directory / "twin.ocd").unlink()
            server.reload()
            status, _, _ = server.app.route("GET", "/elementary", OPENMATH_XML_MIME)
            assert status == 200
        finally:
            server.close()

    def test_reload_of_a_bad_symbol_name_keeps_the_old_snapshot(self, tmp_path, capsys):
        directory = tmp_path / "cds"
        directory.mkdir()
        shutil.copy(CD_DIR / "statistics.ocd", directory / "statistics.ocd")
        server = CdServer(directory, port=0).start()
        try:
            (directory / "bad.ocd").write_text(BAD_NAME_CD)
            server.reload()
            err = capsys.readouterr().err
            assert err == (
                "omld: reload failed, still serving the old CDs: "
                f"{directory / 'bad.ocd'}: <Name>: bad symbol name: 'bad name'\n"
            )
            for path in ("/statistics", "/statistics.xhtml"):
                assert server.app.route("GET", path, "text/turtle")[0] == 200
            assert server.app.route("GET", "/bad", "text/turtle")[0] == 404
        finally:
            server.close()

    def test_relative_directory(self, monkeypatch):
        monkeypatch.chdir(CD_DIR.parent)
        cds = load_snapshot(CD_DIR.name)
        assert cds["statistics"].cd.source_url == (CD_DIR / "statistics.ocd").resolve().as_uri()
