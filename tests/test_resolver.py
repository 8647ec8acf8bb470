from __future__ import annotations

import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from omld.cd import serialize_cd_xml
from omld.om import OPENMATH_XML_MIME, OMSymbol
from omld.resolver import (
    CdResolver,
    FetchError,
    TooManyRedirectsError,
    UnparseableBodyError,
    accept_header,
    negotiate_fetch,
    strip_fragment,
)
from omld.rewrite import CdStore

from .conftest import fixture_text


class TestAcceptHeader:
    def test_q_values_descend(self):
        header = accept_header(["application/openmath+xml", "text/html", "text/turtle"])
        assert header == (
            "application/openmath+xml;q=1.0, text/html;q=0.9, text/turtle;q=0.8"
        )

    def test_q_floor(self):
        header = accept_header([f"t/{i}" for i in range(12)])
        assert "q=0.1" in header
        assert "q=0.0" not in header


class TestNegotiateFetch:
    def test_xml_fetch(self, cd_server):
        result = negotiate_fetch(f"{cd_server.base_iri}/statistics", [OPENMATH_XML_MIME])
        assert result.status == 200
        assert result.content_type == OPENMATH_XML_MIME
        assert b"<CDName>statistics</CDName>" in result.body
        assert result.redirect_chain == ()

    def test_html_follows_303(self, cd_server):
        result = negotiate_fetch(f"{cd_server.base_iri}/statistics", ["text/html"])
        assert result.status == 200
        assert result.content_type.startswith("text/html")
        assert b'id="hdi"' in result.body
        assert len(result.redirect_chain) == 1
        assert result.final_url.endswith("/statistics.xhtml")

    def test_redirect_loop(self):
        def loopy(url, headers):
            return 303, {"location": url}, b""

        with pytest.raises(TooManyRedirectsError):
            negotiate_fetch("http://loop.example/cd", [OPENMATH_XML_MIME], transport=loopy)

    def test_fragment_stripped_from_requests(self):
        seen = []

        def transport(url, headers):
            seen.append(url)
            return 404, {}, b""

        with pytest.raises(FetchError):
            negotiate_fetch("http://x.example/cd#symbol", [OPENMATH_XML_MIME], transport=transport)
        assert seen == ["http://x.example/cd"]
        assert all("#" not in url for url in seen)

    def test_error_status(self, cd_server):
        with pytest.raises(FetchError) as err:
            negotiate_fetch(f"{cd_server.base_iri}/no-such-cd", [OPENMATH_XML_MIME])
        assert err.value.status == 404

    def test_unreachable_host(self):
        # A port in the dynamic range with nothing listening.
        with pytest.raises(FetchError):
            negotiate_fetch("http://127.0.0.1:1/cd", [OPENMATH_XML_MIME])


class TestDereference:
    def test_hash_fetches_whole_cd_once(self, cd_server):
        resolver = CdResolver()
        cd = resolver.fetch_cd(f"{cd_server.base_iri}/statistics#hdi")
        assert cd.cdname == "statistics"
        assert len(cd.definition("hdi").fmps) == 1
        assert resolver.request_count == 1

    def test_warm_cache_issues_no_requests(self, cd_server):
        resolver = CdResolver()
        url = f"{cd_server.base_iri}/statistics#hdi"
        cd = resolver.fetch_cd(url)
        assert resolver.request_count == 1
        assert resolver.fetch_cd(url) is cd
        assert resolver.request_count == 1

    def test_cache_key_ignores_fragment(self, cd_server):
        # Two hash symbols of one CD share the cache entry.
        resolver = CdResolver()
        first = resolver.fetch_cd(f"{cd_server.base_iri}/chain#c1")
        second = resolver.fetch_cd(f"{cd_server.base_iri}/chain#c2")
        assert second is first
        assert resolver.request_count == 1

    def test_symbol_not_in_cd(self, cd_server):
        resolver = CdResolver()
        store = CdStore(fetch=resolver.cd_fetcher())
        assert store.definition(OMSymbol("statistics", "nope", cd_server.base_iri)) is None
        assert store.definition(OMSymbol("statistics", "hdi", cd_server.base_iri)) is not None
        assert resolver.request_count == 1

    def test_store_filled_on_hash_dereference(self, cd_server):
        resolver = CdResolver()
        store = CdStore()
        store.add(resolver.fetch_cd(f"{cd_server.base_iri}/statistics#hdi"))
        definition = store.definition(OMSymbol("statistics", "hdi", "http://example.org"))
        assert definition is not None and definition.arity == 4

    def test_wrong_content_type_rejected(self):
        def transport(url, headers):
            return 200, {"content-type": "text/plain"}, b"hello"

        resolver = CdResolver(transport=transport)
        with pytest.raises(UnparseableBodyError):
            resolver.fetch_cd("http://x.example/cd")

    def test_garbage_body_rejected(self):
        def transport(url, headers):
            return 200, {"content-type": OPENMATH_XML_MIME}, b"<not-a-cd/>"

        resolver = CdResolver(transport=transport)
        with pytest.raises(UnparseableBodyError):
            resolver.fetch_cd("http://x.example/cd")

    def test_ttl_expiry_refetches(self, statistics_cd):
        cd_body = serialize_cd_xml(statistics_cd).encode()
        counter = {"n": 0}

        def transport(url, headers):
            counter["n"] += 1
            return 200, {"content-type": OPENMATH_XML_MIME}, cd_body

        now = {"t": 0.0}
        resolver = CdResolver(cache_ttl=300.0, transport=transport, clock=lambda: now["t"])
        resolver.fetch_cd("http://cds.example/statistics")
        now["t"] = 100.0
        resolver.fetch_cd("http://cds.example/statistics")
        assert counter["n"] == 1
        now["t"] = 301.0
        resolver.fetch_cd("http://cds.example/statistics")
        assert counter["n"] == 2

    def test_concurrent_fetches_coalesce(self, statistics_cd):
        cd_body = serialize_cd_xml(statistics_cd).encode()
        counter = {"n": 0}
        release = threading.Event()

        def slow_transport(url, headers):
            counter["n"] += 1
            release.wait(timeout=5)
            return 200, {"content-type": OPENMATH_XML_MIME}, cd_body

        resolver = CdResolver(transport=slow_transport)
        results = []

        def work():
            results.append(resolver.fetch_cd("http://cds.example/statistics"))

        threads = [threading.Thread(target=work) for _ in range(2)]
        for t in threads:
            t.start()
        time.sleep(0.2)  # let both threads reach the fetch path
        release.set()
        for t in threads:
            t.join(timeout=5)
        assert counter["n"] == 1
        assert len(results) == 2
        assert results[0] == results[1]

    def test_cd_fetcher_hook(self, cd_server):
        resolver = CdResolver()
        store = CdStore(fetch=resolver.cd_fetcher())
        cd = store.lookup(cd_server.base_iri, "statistics")
        assert cd is not None
        assert cd.cdname == "statistics"
        assert resolver.request_count == 1


class TestStripFragment:
    def test_basic(self):
        assert strip_fragment("http://x.org/cd#name") == "http://x.org/cd"
        assert strip_fragment("http://x.org/cd") == "http://x.org/cd"
