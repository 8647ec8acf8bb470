from __future__ import annotations

import time
from functools import partial

import pytest

from omld import resolver
from omld.om import OPENMATH_XML_MIME, OMSymbol, cd_url
from omld.resolver import (
    FetchError,
    TooManyRedirectsError,
    UnparseableBodyError,
    fetch_cd,
    negotiate_fetch,
    strip_fragment,
)
from omld.rdf import Iri, parse_turtle, serialize_turtle
from omld.rewrite import CdStore, query_max_increase, recompute, verify_dataset
from omld.server import CdServer

from .conftest import CD_DIR, fixture_text
from .helpers import DATASET_PREFIXES, CountingTransport, one_shot_server, point_turtle


class TestNegotiateFetch:
    def test_xml_fetch(self, cd_server):
        url = f"{cd_server.base_iri}/statistics"
        result = negotiate_fetch(url, OPENMATH_XML_MIME)
        assert result.content_type == OPENMATH_XML_MIME
        assert b"<CDName>statistics</CDName>" in result.body
        assert result.final_url == url

    def test_html_follows_303(self, cd_server):
        result = negotiate_fetch(f"{cd_server.base_iri}/statistics", "text/html")
        assert result.content_type.startswith("text/html")
        assert b'id="hdi"' in result.body
        assert result.final_url.endswith("/statistics.xhtml")

    def test_redirect_loop(self):
        def loopy(url, headers):
            return 303, {"location": url}, b""

        with pytest.raises(TooManyRedirectsError):
            negotiate_fetch("http://loop.example/cd", OPENMATH_XML_MIME, transport=loopy)

    def test_fragment_stripped_from_requests(self):
        seen = []

        def transport(url, headers):
            seen.append(url)
            return 404, {}, b""

        with pytest.raises(FetchError):
            negotiate_fetch("http://x.example/cd#symbol", OPENMATH_XML_MIME, transport=transport)
        assert seen == ["http://x.example/cd"]

    def test_error_status(self, cd_server):
        with pytest.raises(FetchError) as err:
            negotiate_fetch(f"{cd_server.base_iri}/no-such-cd", OPENMATH_XML_MIME)
        assert err.value.status == 404

    def test_unreachable_host(self):
        # A port in the dynamic range with nothing listening.
        with pytest.raises(FetchError):
            negotiate_fetch("http://127.0.0.1:1/cd", OPENMATH_XML_MIME)

    @pytest.mark.parametrize(
        "url",
        [
            "http://127.0.0.1:abc/x",
            "http://127.0.0.1:99999/x",
            "http://[::1/x",
            "http:///x",
            "http://a b/x",
        ],
        ids=["non-numeric-port", "port-out-of-range", "unclosed-ipv6", "no-host", "space-in-host"],
    )
    def test_bad_url_is_a_fetch_error(self, url):
        with pytest.raises(FetchError):
            negotiate_fetch(url, OPENMATH_XML_MIME)

    @pytest.mark.parametrize(
        "response",
        [
            b"garbage\r\n\r\n",
            b"HTTP/1.1 303 See Other\r\nLocation: http://127.0.0.1:abc/x\r\n\r\n",
            b"HTTP/1.1 303 See Other\r\nLocation: http://[::1/x\r\n\r\n",
        ],
        ids=["bad-status-line", "location-bad-port", "location-bad-host"],
    )
    def test_malformed_response_is_a_fetch_error(self, response):
        with one_shot_server(response) as base:
            with pytest.raises(FetchError):
                fetch_cd(f"{base}/cd")

    @pytest.mark.parametrize("pad", [0, 2000], ids=["body", "headers"])
    def test_one_fetch_has_one_deadline(self, monkeypatch, pad):
        # A valid CD sent in 8 pieces 0.3 s apart: each read is quick, the
        # whole is not.  A padding header spreads the head over the pieces too.
        cd = fixture_text("cds/statistics.ocd").encode()
        head = f"HTTP/1.1 200 OK\r\nContent-Type: {OPENMATH_XML_MIME}\r\nX-Pad: {'a' * pad}\r\n"
        response = (head + f"Content-Length: {len(cd)}\r\n\r\n").encode() + cd
        monkeypatch.setattr(resolver, "FETCH_TIMEOUT", 1.0)
        with one_shot_server(response, pieces=8, gap=0.3) as base:
            start = time.monotonic()
            with pytest.raises(FetchError, match="not done within 1 s|timed out"):
                fetch_cd(f"{base}/statistics")
            assert time.monotonic() - start < 2
        monkeypatch.setattr(resolver, "FETCH_TIMEOUT", 30.0)
        with one_shot_server(response, pieces=8, gap=0.3) as base:
            assert fetch_cd(f"{base}/statistics").cdname == "statistics"

    def test_body_over_the_cap_is_a_fetch_error(self, cd_server, monkeypatch):
        url = f"{cd_server.base_iri}/statistics"
        size = len(negotiate_fetch(url, OPENMATH_XML_MIME).body)
        monkeypatch.setattr(resolver, "MAX_BODY_BYTES", size)
        assert fetch_cd(url).cdname == "statistics"
        monkeypatch.setattr(resolver, "MAX_BODY_BYTES", size - 1)
        with pytest.raises(FetchError, match=f"exceeds {size - 1} bytes"):
            fetch_cd(url)


class TestDereference:
    """The CdStore is the only cache of fetched CDs; count what reaches the wire."""

    @staticmethod
    def _store(transport) -> CdStore:
        return CdStore(fetch=partial(fetch_cd, transport=transport))

    def test_hash_fetches_whole_cd_once(self, cd_server):
        transport = CountingTransport()
        cd = fetch_cd(f"{cd_server.base_iri}/statistics#hdi", transport)
        assert cd.cdname == "statistics"
        assert len(cd.definition("hdi").fmps) == 1
        assert transport.urls == [f"{cd_server.base_iri}/statistics"]

    def test_cache_key_ignores_fragment(self, cd_server):
        # Two hash symbols of one CD cost one request.
        transport = CountingTransport()
        store = self._store(transport)
        assert store.definition(OMSymbol("chain", "c1", cd_server.base_iri)) is not None
        assert store.definition(OMSymbol("chain", "c2", cd_server.base_iri)) is not None
        assert transport.urls == [f"{cd_server.base_iri}/chain"]

    def test_warm_cache_issues_no_requests(self, cd_server):
        transport = CountingTransport()
        store = self._store(transport)
        url = cd_url(cd_server.base_iri, "statistics")
        cd = store.lookup(url)
        assert len(transport.urls) == 1
        assert store.lookup(url) is cd
        assert store.definition(OMSymbol("statistics", "hdi", cd_server.base_iri)) is not None
        assert len(transport.urls) == 1

    def test_unreachable_cd_requested_once(self):
        transport = CountingTransport(cds={})
        store = self._store(transport)
        for name in ("f", "g", "f"):
            assert store.definition(OMSymbol("void", name, "http://cds.example")) is None
        assert transport.urls == ["http://cds.example/void"]
        assert isinstance(store.fetch_error("http://cds.example/void"), FetchError)

    def test_symbol_not_in_cd(self, cd_server):
        transport = CountingTransport()
        store = self._store(transport)
        assert store.definition(OMSymbol("statistics", "nope", cd_server.base_iri)) is None
        assert store.definition(OMSymbol("statistics", "hdi", cd_server.base_iri)) is not None
        assert len(transport.urls) == 1

    def test_store_filled_on_hash_dereference(self, cd_server):
        store = CdStore()
        store.add(fetch_cd(f"{cd_server.base_iri}/statistics#hdi"))
        definition = store.definition(OMSymbol("statistics", "hdi", "http://example.org"))
        assert definition is not None and definition.arity == 4

    def test_wrong_content_type_rejected(self):
        def transport(url, headers):
            return 200, {"content-type": "text/plain"}, b"hello"

        with pytest.raises(UnparseableBodyError):
            fetch_cd("http://x.example/cd", transport)

    def test_doctype_rejected(self):
        body = (
            b'<!DOCTYPE CD [<!ENTITY a "aaaaaaaaaa"><!ENTITY b "&a;&a;&a;&a;&a;">]>'
            b"<CD><CDName>cd</CDName><Description>&b;</Description></CD>"
        )
        transport = CountingTransport(cds={"http://x.example/cd": body})
        with pytest.raises(UnparseableBodyError, match="document type declaration"):
            fetch_cd("http://x.example/cd", transport)
        assert transport.urls == ["http://x.example/cd"]

    def test_garbage_body_rejected(self):
        def transport(url, headers):
            return 200, {"content-type": OPENMATH_XML_MIME}, b"<not-a-cd/>"

        with pytest.raises(UnparseableBodyError):
            fetch_cd("http://x.example/cd", transport)

    def test_cd_fetcher_hook(self, cd_server):
        transport = CountingTransport()
        # One trailing slash of the cdbase is dropped from the CD URL.
        cd = self._store(transport).lookup(cd_url(cd_server.base_iri + "/", "statistics"))
        assert cd is not None
        assert cd.cdname == "statistics"
        assert transport.urls == [f"{cd_server.base_iri}/statistics"]


class TestStripFragment:
    def test_basic(self):
        assert strip_fragment("http://x.org/cd#name") == "http://x.org/cd"
        assert strip_fragment("http://x.org/cd") == "http://x.org/cd"


class TestClosedLoop:
    """The batch commands give the same answers from CDs read off disk and
    from the same CDs fetched from a live ``CdServer`` that publishes them."""

    HDI = "http://example.org/statistics#hdi"
    C1 = "http://example.org/chain#c1"
    ENV = "http://example.org/ns/env#"

    def dataset(self) -> str:
        lines = [DATASET_PREFIXES, "env:region-a a env:Region .\nenv:region-b a env:Region .\n"]
        for name, value in (("L", 1), ("M", 2), ("N", 5)):
            lines.append(point_turtle(name, value))
        lines.append(point_turtle("H1", 1, self.HDI, ["ahs:L"] * 4))
        lines.append(point_turtle("H2", "1.5", self.HDI, ["ahs:L", "ahs:M", "ahs:L", "ahs:M"]))
        for point, region, year, source, value in (  # c1(x) = 2x + 9
            ("CA1", "a", 2008, "L", 11),
            ("CA2", "a", 2009, "N", 19),
            ("CB1", "b", 2008, "M", 13),
            ("CB2", "b", 2009, "N", 20),
        ):
            lines.append(point_turtle(point, value, self.C1, [f"ahs:{source}"]))
            lines.append(f"ahs:{point} scv:dimension env:region-{region}, env:year-{year} .\n")
        return "".join(lines)

    def run(self, store: CdStore) -> tuple:
        graph = parse_turtle(self.dataset())
        years = Iri(self.ENV + "year-2008"), Iri(self.ENV + "year-2009")
        return (
            verify_dataset(graph, store, tolerance=1e-9).to_records(),
            serialize_turtle(recompute(graph, store)),
            query_max_increase(graph, Iri(self.C1), *years, store),
        )

    @pytest.fixture
    def published(self):
        """A fetching store, and the URLs it asked for, over a server whose base IRI is http://example.org."""
        server = CdServer(CD_DIR, port=0, base_iri="http://example.org").start()
        urls: list[str] = []

        def transport(url, headers):
            urls.append(url)
            local = url.replace("http://example.org", f"http://127.0.0.1:{server.port}", 1)
            return resolver._default_transport(local, headers)

        try:
            yield CdStore(fetch=partial(fetch_cd, transport=transport)), urls
        finally:
            server.close()

    def test_fetched_cds_give_the_answers_of_the_directory(self, local_store, published):
        store, urls = published
        on_disk = self.run(local_store)
        statuses = [record["status"] for record in on_disk[0]]
        assert statuses == ["match", "match", "match", "mismatch", "match", "mismatch"]
        assert on_disk[2] == (Iri(self.ENV + "region-a"), 8.0)
        assert self.run(store) == on_disk
        assert sorted(urls) == ["http://example.org/chain", "http://example.org/statistics"]

    def test_a_cd_the_server_lacks_is_one_remembered_404(self, published):
        store, urls = published
        text = DATASET_PREFIXES + point_turtle("L", 1)
        for i in range(3):
            text += point_turtle(f"P{i}", 1, "http://example.org/missing#f", ["ahs:L"])
        report = verify_dataset(parse_turtle(text), store, tolerance=1e-9)
        assert urls == ["http://example.org/missing"]
        assert store.fetch_error("http://example.org/missing").status == 404
        reason = "FetchError: fetch of http://example.org/missing failed: HTTP status 404"
        assert [r.reason for r in report.results] == [reason] * 3
