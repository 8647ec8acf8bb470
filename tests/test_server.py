from __future__ import annotations

import http.client
import json
import os
import select
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import omld.server

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

    def test_nan_q_counts_as_zero_in_either_order(self):
        nan, half = "text/turtle;q=nan", "text/html;q=0.5"
        assert negotiate(f"{nan}, {half}") == negotiate(f"{half}, {nan}") == "text/html"
        assert parse_accept(f"{nan}, {half}") == [("text/html", 0.5), ("text/turtle", 0.0)]

    @pytest.mark.parametrize("q", ["2", "1e999", "1.001", "0.1234", "+1", ".5", " 1"])
    def test_q_outside_the_grammar_counts_as_zero(self, q):
        assert parse_accept(f"text/html;q={q}, text/turtle;q=0.9") == [
            ("text/turtle", 0.9),
            ("text/html", 0.0),
        ]
        assert negotiate(f"text/html;q={q}") is None

    @pytest.mark.parametrize(
        "q, value", [("0", 0.0), ("0.", 0.0), ("0.125", 0.125), ("1.", 1.0), ("1.000", 1.0)]
    )
    def test_q_in_the_grammar_is_read(self, q, value):
        assert parse_accept(f"text/html;q={q}") == [("text/html", value)]

    def test_q_name_is_case_insensitive(self):
        prefs = parse_accept("text/html;Q=0.5, text/turtle;q=0.9")
        assert prefs == [("text/turtle", 0.9), ("text/html", 0.5)]
        assert negotiate("text/html;Q=0, text/turtle") == "text/turtle"


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

    def test_close_without_start_returns_and_frees_the_port(self):
        server = CdServer(CD_DIR, port=0)
        closer = threading.Thread(target=server.close, daemon=True)
        closer.start()
        closer.join(timeout=2)
        assert not closer.is_alive(), "close() of a server that never started hangs"
        with socket.socket() as probe:
            assert probe.connect_ex(("127.0.0.1", server.port)) != 0

    def test_relative_directory(self, monkeypatch):
        monkeypatch.chdir(CD_DIR.parent)
        cds = load_snapshot(CD_DIR.name)
        assert cds["statistics"].cd.source_url == (CD_DIR / "statistics.ocd").resolve().as_uri()


KNOWN_STATUSES = {200, 303, 400, 404, 405, 406, 414, 431, 505}
# One request of each route kind: CD XML, Turtle, 303, HTML page, fragment.
ROUTE_KINDS = (
    ("/statistics", OPENMATH_XML_MIME),
    ("/statistics", "text/turtle"),
    ("/statistics", "text/html"),
    ("/statistics.xhtml", "text/html"),
    ("/statistics/hdi", OPENMATH_XML_MIME),
)
KEEP_ALIVE_MEDIAN_S = 0.010  # a Nagle/delayed-ACK stall costs ~40 ms per request


def _exchange(port: int, data: bytes, half_close: bool = False) -> bytes:
    """Send raw bytes and read until the server closes (a 5 s timeout fails the test)."""
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(data)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


def _responses(data: bytes, methods: list[str]) -> list[tuple[int, dict[str, str], bytes]]:
    """Split a response stream into (status, headers, body), one per request method."""
    out = []
    for method in methods:
        head, blank, data = data.partition(b"\r\n\r\n")
        assert blank, "incomplete response head"
        status_line, *lines = head.decode("latin-1").split("\r\n")
        version, status, _ = status_line.split(" ", 2)
        assert version == "HTTP/1.1"
        headers = dict(line.split(": ", 1) for line in lines)
        length = 0 if method == "HEAD" else int(headers["Content-Length"])
        assert len(data) >= length
        out.append((int(status), headers, data[:length]))
        data = data[length:]
    assert data == b"", "more bytes than responses"
    return out


def _request(method: str, path: str, *headers: str, version: str = "HTTP/1.1") -> bytes:
    return "\r\n".join([f"{method} {path} {version}", *headers, "", ""]).encode("latin-1")


def _keep_alive_times(port: int, requests, rounds: int) -> dict[tuple, list[float]]:
    """Seconds per request for each (path, accept), all on one connection."""
    times: dict[tuple, list[float]] = {request: [] for request in requests}
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
    try:
        for _ in range(rounds):
            for path, accept in requests:
                start = time.perf_counter()
                conn.request("GET", path, headers={"Accept": accept})
                response = conn.getresponse()
                response.read()
                times[path, accept].append(time.perf_counter() - start)
                assert response.status in (200, 303)
                assert not response.will_close
    finally:
        conn.close()
    return times


class TestHttp:
    def test_keep_alive_has_no_stall(self, cd_server):
        times = _keep_alive_times(cd_server.port, ROUTE_KINDS, rounds=20)
        for request, samples in times.items():
            assert statistics.median(samples) < KEEP_ALIVE_MEDIAN_S, request

    def test_keep_alive_large_body_has_no_stall(self, tmp_path):
        description = "A definition with a long description to make the file large. " * 2
        definitions = "".join(
            f"<CDDefinition><Name>d{i}</Name><Description>{description}</Description>"
            "</CDDefinition>"
            for i in range(1200)
        )
        (tmp_path / "big.ocd").write_text(
            "<CD><CDName>big</CDName><CDBase>http://example.org</CDBase>"
            f"<Description>many definitions</Description>{definitions}</CD>"
        )
        size = (tmp_path / "big.ocd").stat().st_size
        assert size > 200_000
        server = CdServer(tmp_path, port=0).start()
        try:
            requests = [("/big", OPENMATH_XML_MIME), ("/big.xhtml", "text/html")]
            times = _keep_alive_times(server.port, requests, rounds=20)
            for request, samples in times.items():
                assert statistics.median(samples) < KEEP_ALIVE_MEDIAN_S, request
            body = _exchange(server.port, _request("GET", "/big", "Connection: close"))
            assert _responses(body, ["GET"])[0][2] == (tmp_path / "big.ocd").read_bytes()
        finally:
            server.close()

    def test_http_answers_are_the_routes_answers(self, cd_server):
        app = cd_server.app
        requests = [*ROUTE_KINDS, ("/statistics", "image/png"), ("/nothing", None)]
        data = b"".join(
            _request("GET", path, *([f"Accept: {accept}"] if accept else []))
            for path, accept in requests
        )
        reply = _exchange(cd_server.port, data, half_close=True)
        replies = _responses(reply, ["GET"] * len(requests))
        for (path, accept), (status, headers, body) in zip(requests, replies):
            route_status, route_headers, route_body = app.route("GET", path, accept)
            assert (status, body) == (route_status, route_body)
            assert {k: headers[k] for k in route_headers} == route_headers
            assert headers["Content-Length"] == str(len(body))
            assert "Server" not in headers and "Connection" not in headers
            negotiated = path == "/statistics"
            assert (headers.get("Vary") == "Accept") == negotiated, (path, accept)

    def test_a_request_body_is_not_read_as_the_next_request(self, cd_server):
        smuggled = b"GET /nothere HTTP/1.1\r\nHost: x\r\n\r\n"
        assert len(smuggled) == 34
        for framing in ("Content-Length: 34", "Transfer-Encoding: chunked"):
            data = _request("GET", "/statistics", framing) + smuggled
            [(status, headers, _)] = _responses(_exchange(cd_server.port, data), ["GET"])
            assert status == 200
            assert headers["Connection"] == "close"

    def test_http_1_0_closes_unless_kept_alive(self, cd_server):
        one = _request("GET", "/statistics", version="HTTP/1.0")
        [(status, headers, _)] = _responses(_exchange(cd_server.port, one), ["GET"])
        assert (status, headers["Connection"]) == (200, "close")
        kept = _request("GET", "/statistics", "Connection: keep-alive", version="HTTP/1.0")
        data = kept + _request("GET", "/chain", "Connection: close")
        replies = _responses(_exchange(cd_server.port, data), ["GET", "GET"])
        assert [(s, h["Connection"]) for s, h, _ in replies] == [
            (200, "keep-alive"),
            (200, "close"),
        ]

    def test_connection_close_is_honoured(self, cd_server):
        data = _request("GET", "/statistics/hdi", "Connection: Keep-Alive, Close")
        [(status, headers, _)] = _responses(_exchange(cd_server.port, data), ["GET"])
        assert (status, headers["Connection"]) == (200, "close")

    def test_head_gets_the_get_headers_and_no_body(self, cd_server):
        data = _request("HEAD", "/statistics", "Accept: text/turtle") + _request(
            "GET", "/statistics", "Accept: text/turtle", "Connection: close"
        )
        head, get = _responses(_exchange(cd_server.port, data), ["HEAD", "GET"])
        assert head[0] == get[0] == 200
        assert head[2] == b""
        assert head[1]["Content-Length"] == str(len(get[2]))
        assert head[1]["Vary"] == "Accept"
        assert {k: v for k, v in head[1].items() if k not in ("Date", "Connection")} == {
            k: v for k, v in get[1].items() if k not in ("Date", "Connection")
        }

    def test_other_methods_get_405(self, cd_server):
        data = _request("DELETE", "/statistics", "Connection: close")
        [(status, headers, _)] = _responses(_exchange(cd_server.port, data), ["DELETE"])
        assert status == 405
        assert headers["Allow"] == "GET, HEAD"
        assert "Vary" not in headers

    @pytest.mark.parametrize(
        "data, status",
        [
            (b"GET /" + b"a" * omld.server.MAX_LINE, 414),
            (_request("GET", "/statistics")[:-2] + b"X-Long: " + b"a" * omld.server.MAX_LINE, 431),
            (_request("GET", "/statistics", *["X-Many: 1"] * (omld.server.MAX_HEADERS + 1)), 431),
            (_request("GET", "/statistics", version="HTTP/2.0"), 505),
            (_request("GET", "/statistics", version="HTTP/1.x"), 400),
            (b"GET /statistics\r\n\r\n", 400),
            (_request("GET", "/statistics", "No colon"), 400),
            (_request("GET", "/statistics", " folded: line"), 400),
        ],
        ids=["long-line", "long-header", "many-headers", "version", "bad-version", "no-version",
             "no-colon", "folded"],
    )
    def test_unreadable_requests(self, cd_server, data, status):
        [(got, headers, body)] = _responses(_exchange(cd_server.port, data), ["GET"])
        assert (got, headers["Connection"]) == (status, "close")
        assert headers["Content-Type"] == "text/plain"
        assert body

    def test_one_hundred_fields_are_accepted(self, cd_server):
        many = ["X-Many: 1"] * (omld.server.MAX_HEADERS - 1)
        data = _request("GET", "/statistics", *many, "Connection: close")
        [(status, _, _)] = _responses(_exchange(cd_server.port, data), ["GET"])
        assert status == 200

    def test_raw_request_bytes(self, cd_server, capsys):
        """Whatever a client sends, each reply is well formed and no handler thread fails."""
        pieces = st.sampled_from([
            b"GET", b"POST", b" ", b"/", b"statistics", b"/statistics/hdi", b".xhtml", b"?q=/",
            b"HTTP/1.1", b"HTTP/1.0", b"HTTP/3.0", b"HTTP/", b"\r\n", b"\n", b":", b"\x00",
            b"\xff", b"Accept: text/turtle", b"Accept: text/html", b"Accept: image/png",
            b"Connection: close", b"Connection: keep-alive", b"Content-Length: 0",
            b"Content-Length: 3", b"Transfer-Encoding: chunked",
        ])
        raw = st.one_of(
            st.binary(max_size=120),
            st.lists(st.one_of(pieces, st.binary(max_size=4)), max_size=40).map(b"".join),
        )
        failures: list = []
        hook = threading.excepthook
        threading.excepthook = failures.append

        @settings(max_examples=150, deadline=None, database=None)
        @given(data=raw)
        def check(data):
            reply = _exchange(cd_server.port, data, half_close=True)
            count = reply.count(b"HTTP/1.1 ")
            for status, _, _ in _responses(reply, ["GET"] * count):
                assert status in KNOWN_STATUSES

        try:
            check()
        finally:
            threading.excepthook = hook
        assert failures == []
        assert capsys.readouterr().err == ""

    def test_a_non_ascii_base_iri_is_percent_encoded_in_the_location(self, capsys):
        failures: list = []
        hook = threading.excepthook
        threading.excepthook = failures.append
        server = CdServer(CD_DIR, port=0, base_iri="http://例.example").start()
        try:
            data = _request("GET", "/statistics", "Accept: text/html", "Connection: close")
            [(status, headers, body)] = _responses(_exchange(server.port, data), ["GET"])
        finally:
            server.close()
            threading.excepthook = hook
        assert status == 303
        assert headers["Location"] == "http://%E4%BE%8B.example/statistics.xhtml"
        assert body == b"see http://%E4%BE%8B.example/statistics.xhtml\n"
        assert failures == []
        assert capsys.readouterr().err == ""

    def test_an_idle_connection_is_closed_and_frees_its_thread(self, monkeypatch):
        assert omld.server._Handler.timeout == omld.server.IDLE_TIMEOUT
        monkeypatch.setattr(omld.server._Handler, "timeout", 0.2)
        server = CdServer(CD_DIR, port=0).start()
        try:
            before = threading.active_count()
            address = ("127.0.0.1", server.port)
            socks = [socket.create_connection(address, timeout=5) for _ in range(5)]
            try:
                # The first connection is kept alive after a request; the others never send one.
                socks[0].sendall(_request("HEAD", "/statistics"))
                head = b""
                while not head.endswith(b"\r\n\r\n"):
                    head += socks[0].recv(65536)
                for sock in socks:
                    assert sock.recv(1) == b""  # closed by the server, well before the 5 s timeout
            finally:
                for sock in socks:
                    sock.close()
            deadline = time.monotonic() + 5
            while threading.active_count() > before and time.monotonic() < deadline:
                time.sleep(0.01)
            assert threading.active_count() == before
        finally:
            server.close()

    def test_a_connection_over_the_cap_gets_503_and_a_freed_slot_serves_again(
        self, monkeypatch, capsys
    ):
        monkeypatch.setattr(omld.server, "MAX_CONNECTIONS", 2)
        server = CdServer(CD_DIR, port=0).start()
        try:
            before = threading.active_count()
            address = ("127.0.0.1", server.port)
            held = [socket.create_connection(address, timeout=5) for _ in range(2)]
            try:
                with socket.create_connection(address, timeout=5) as over:
                    data = b""
                    while chunk := over.recv(65536):  # the 503, then EOF
                        data += chunk
                [(status, headers, body)] = _responses(data, ["GET"])
                assert (status, body) == (503, b"Service Unavailable\n")
                assert headers["Connection"] == "close" and "Date" in headers
                assert threading.active_count() == before + 2  # no thread for the third
                held[0].close()
                deadline = time.monotonic() + 5
                while threading.active_count() > before + 1 and time.monotonic() < deadline:
                    time.sleep(0.01)
                data = _request("GET", "/statistics", "Connection: close")
                assert _responses(_exchange(server.port, data), ["GET"])[0][0] == 200
            finally:
                for sock in held:
                    sock.close()
        finally:
            server.close()
        assert capsys.readouterr().err == ""

    def test_the_cap_keeps_its_slots_through_many_short_connections(self, monkeypatch, capsys):
        monkeypatch.setattr(omld.server, "MAX_CONNECTIONS", 3)
        server = CdServer(CD_DIR, port=0).start()
        statuses: list[int] = []

        def client():
            for _ in range(20):
                data = _request("GET", "/statistics/hdi", "Connection: close")
                statuses.append(_responses(_exchange(server.port, data), ["GET"])[0][0])

        interval = sys.getswitchinterval()
        try:
            before = threading.active_count()
            sys.setswitchinterval(1e-5)
            try:
                clients = [threading.Thread(target=client) for _ in range(6)]
                for thread in clients:
                    thread.start()
                for thread in clients:
                    thread.join(timeout=30)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in clients)
            assert len(statuses) == 120 and set(statuses) <= {200, 503} and 200 in statuses
            # Every slot is free again, and there are still exactly three.
            deadline = time.monotonic() + 5
            while threading.active_count() > before and time.monotonic() < deadline:
                time.sleep(0.01)
            address = ("127.0.0.1", server.port)
            held = [socket.create_connection(address, timeout=5) for _ in range(3)]
            try:
                deadline = time.monotonic() + 5
                while threading.active_count() < before + 3 and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert threading.active_count() == before + 3
                assert _exchange(server.port, b"").startswith(b"HTTP/1.1 503 ")
            finally:
                for sock in held:
                    sock.close()
        finally:
            server.close()
        assert capsys.readouterr().err == ""

    def test_a_trickled_request_gets_408_at_its_deadline_and_frees_its_thread(
        self, monkeypatch, capsys
    ):
        monkeypatch.setattr(omld.server, "REQUEST_TIMEOUT", 0.5)
        server = CdServer(CD_DIR, port=0).start()
        try:
            before = threading.active_count()
            trickle = b"GET /statistics HTTP/1.1\r\nX-Slow: " + b"a" * 100
            with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
                start = time.monotonic()
                for byte in trickle:  # one byte every 0.1 s, 10 s in all
                    try:
                        sock.sendall(bytes([byte]))
                    except OSError:  # the server has closed the connection
                        break
                    ready, _, _ = select.select([sock], [], [], 0.1)
                    if ready:
                        break
                data = b""
                while chunk := sock.recv(65536):
                    data += chunk
                elapsed = time.monotonic() - start
            [(status, headers, body)] = _responses(data, ["GET"])
            assert (status, headers["Connection"], body) == (408, "close", b"Request Timeout\n")
            assert 0.5 <= elapsed < 1.5
            deadline = time.monotonic() + 5
            while threading.active_count() > before and time.monotonic() < deadline:
                time.sleep(0.01)
            assert threading.active_count() == before
        finally:
            server.close()
        assert capsys.readouterr().err == ""

    def test_the_request_deadline_starts_at_each_request(self, monkeypatch):
        # A keep-alive client that waits longer than the deadline between
        # requests, and sends a request in two parts, is served each time.
        monkeypatch.setattr(omld.server, "REQUEST_TIMEOUT", 0.5)
        server = CdServer(CD_DIR, port=0).start()
        try:
            with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
                for _ in range(3):
                    time.sleep(0.6)
                    request = _request("GET", "/statistics/hdi")
                    sock.sendall(request[:10])
                    time.sleep(0.2)
                    sock.sendall(request[10:])
                    data = b""
                    while not data.endswith(b"</CD>\n"):
                        data += sock.recv(65536)
                    assert _responses(data, ["GET"])[0][0] == 200
        finally:
            server.close()

    def test_a_client_that_hangs_up_mid_request(self, cd_server):
        with socket.create_connection(("127.0.0.1", cd_server.port), timeout=5) as sock:
            sock.sendall(b"GET /statistics HTTP/1.1\r\nAccept: text/tur")
        data = _request("GET", "/statistics", "Connection: close")
        assert _responses(_exchange(cd_server.port, data), ["GET"])[0][0] == 200


class TestRenderedOnce:
    @pytest.fixture
    def renders(self, monkeypatch):
        calls: list[str] = []
        for name in ("render_cd_html", "serialize_turtle", "serialize_cd_xml"):
            real = getattr(omld.server, name)

            def counted(*args, real=real, name=name):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(omld.server, name, counted)
        return calls

    REQUESTS = (
        ("/statistics.xhtml", None),
        ("/statistics", "text/turtle"),
        ("/statistics/hdi", None),
        ("/statistics/nosuch", None),
    )

    def test_each_body_is_rendered_once(self, renders):
        app = CdApp(load_snapshot(CD_DIR), BASE)
        first = [app.route("GET", path, accept) for path, accept in self.REQUESTS]
        assert renders == ["render_cd_html", "serialize_turtle", "serialize_cd_xml"]
        assert [app.route("GET", path, accept) for path, accept in self.REQUESTS] == first
        assert len(renders) == 3
        assert first[-1][0] == 404

    def test_reload_drops_the_rendered_bodies(self, renders):
        server = CdServer(CD_DIR, port=0).start()
        try:
            for _ in range(2):
                for path, accept in self.REQUESTS:
                    server.app.route("GET", path, accept)
            assert len(renders) == 3
            server.reload()
            for path, accept in self.REQUESTS:
                server.app.route("GET", path, accept)
            assert len(renders) == 6
        finally:
            server.close()


def test_server_import_loads_no_http_library():
    # The server speaks HTTP itself; http.server would bring in http.client,
    # ssl and email, which cost start-up time and memory and no route uses.
    modules = ("http.server", "http.client", "ssl", "email")
    probe = (
        "import json, sys, omld.server\n"
        f"print(json.dumps([m for m in {modules!r} if m in sys.modules]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert json.loads(out) == []
