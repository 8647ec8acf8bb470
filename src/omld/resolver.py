"""Fetch Content Dictionaries over HTTP.

A CD is fetched whole from its URL; a hash symbol URI's fragment is stripped
first, as fragments never reach the server.  Fetched CDs are cached with a
TTL keyed by the fragment-stripped URL, so every symbol of a hash CD shares
one cache entry; duplicate in-flight fetches of one key are coalesced behind
a per-key lock.  A CdStore reaches the resolver through ``cd_fetcher``, and
finds a symbol's definition in the fetched CD's table.

The transport is injectable, which is how tests count requests and simulate
broken servers.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable
from urllib.parse import urljoin, urlsplit, urlunsplit

from .cd import ContentDictionary, parse_cd_xml
from .errors import ToolkitError
from .om import OPENMATH_XML_MIME
from .rdf import Iri

# transport(url, headers) -> (status, lowercase header dict, body bytes)
Transport = Callable[[str, dict[str, str]], tuple[int, dict[str, str], bytes]]

DEFAULT_MAX_REDIRECTS = 5
DEFAULT_CACHE_TTL = 300.0
_REDIRECT_STATUSES = (301, 302, 303)


class FetchError(ToolkitError):
    def __init__(self, url: str, detail: str, status: int | None = None):
        self.url = url
        self.status = status
        super().__init__(f"fetch of {url} failed: {detail}")


class TooManyRedirectsError(ToolkitError):
    def __init__(self, url: str, chain: list[str]):
        self.url = url
        self.chain = chain
        super().__init__(f"redirect limit exceeded fetching {url}: {' -> '.join(chain)}")


class UnparseableBodyError(ToolkitError):
    def __init__(self, content_type: str, detail: str = ""):
        self.content_type = content_type
        msg = f"cannot use response body of type {content_type!r}"
        super().__init__(f"{msg}: {detail}" if detail else msg)


@dataclass(frozen=True)
class FetchResult:
    final_url: str
    status: int
    content_type: str
    body: bytes
    redirect_chain: tuple[str, ...]


@dataclass
class CacheEntry:
    cd: ContentDictionary
    expires_at: float


def strip_fragment(url: str) -> str:
    parts = urlsplit(url)
    return urlunsplit((parts.scheme, parts.netloc, parts.path, parts.query, ""))


def _default_transport(url: str, headers: dict[str, str]) -> tuple[int, dict[str, str], bytes]:
    import http.client

    parts = urlsplit(url)
    if parts.scheme not in ("http", "https"):
        raise FetchError(url, f"unsupported scheme {parts.scheme!r}")
    conn_cls = http.client.HTTPSConnection if parts.scheme == "https" else http.client.HTTPConnection
    conn = conn_cls(parts.hostname, parts.port, timeout=10)
    # The request line carries only path and query; the fragment stays local.
    path = parts.path or "/"
    if parts.query:
        path += "?" + parts.query
    try:
        conn.request("GET", path, headers={**headers, "Connection": "close"})
        response = conn.getresponse()
        body = response.read()
        resp_headers = {k.lower(): v for k, v in response.getheaders()}
        return response.status, resp_headers, body
    except OSError as exc:
        raise FetchError(url, str(exc)) from exc
    finally:
        conn.close()


def accept_header(accept_types: list[str]) -> str:
    """Join MIME types with descending q-values (1.0, 0.9, ... floor 0.1)."""
    parts = []
    for i, mime in enumerate(accept_types):
        q = max(1.0 - 0.1 * i, 0.1)
        parts.append(f"{mime};q={q:.1f}")
    return ", ".join(parts)


def negotiate_fetch(
    url: Iri | str,
    accept_types: list[str],
    max_redirects: int = DEFAULT_MAX_REDIRECTS,
    transport: Transport | None = None,
) -> FetchResult:
    """GET with content negotiation, following 301/302/303 up to a limit."""
    if not accept_types:
        raise ValueError("accept_types must be nonempty")
    transport = transport or _default_transport
    current = strip_fragment(url.value if isinstance(url, Iri) else url)
    headers = {"Accept": accept_header(accept_types)}
    chain: list[str] = []
    while True:
        status, resp_headers, body = transport(current, headers)
        if status == 200:
            return FetchResult(
                final_url=current,
                status=status,
                content_type=resp_headers.get("content-type", ""),
                body=body,
                redirect_chain=tuple(chain),
            )
        if status in _REDIRECT_STATUSES:
            location = resp_headers.get("location")
            if not location:
                raise FetchError(current, f"{status} without a Location header", status=status)
            chain.append(current)
            if len(chain) > max_redirects:
                raise TooManyRedirectsError(current, chain)
            current = strip_fragment(urljoin(current, location))
            continue
        raise FetchError(current, f"HTTP status {status}", status=status)


def _media_type(content_type: str) -> str:
    return content_type.split(";")[0].strip().lower()


class CdResolver:
    """A caching, counting HTTP client for Content Dictionaries."""

    def __init__(
        self,
        cache_ttl: float = DEFAULT_CACHE_TTL,
        max_redirects: int = DEFAULT_MAX_REDIRECTS,
        transport: Transport | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if cache_ttl <= 0:
            raise ValueError("cache_ttl must be > 0")
        self.cache_ttl = cache_ttl
        self.max_redirects = max_redirects
        self.request_count = 0
        self._clock = clock
        self._transport = transport or _default_transport
        self._cache: dict[str, CacheEntry] = {}
        self._gate = threading.Lock()
        self._key_locks: dict[str, threading.Lock] = {}

    def _counting_transport(self, url, headers):
        with self._gate:
            self.request_count += 1
        return self._transport(url, headers)

    def _cached(self, key: str) -> ContentDictionary | None:
        entry = self._cache.get(key)
        if entry is not None and entry.expires_at > self._clock():
            return entry.cd
        return None

    def fetch_cd(self, url: Iri | str) -> ContentDictionary:
        """Fetch and parse the CD at ``url`` (fragment ignored), with caching."""
        key = strip_fragment(url.value if isinstance(url, Iri) else url)
        with self._gate:
            cd = self._cached(key)
            if cd is not None:
                return cd
            lock = self._key_locks.setdefault(key, threading.Lock())
        with lock:
            with self._gate:
                cd = self._cached(key)
                if cd is not None:
                    return cd
            result = negotiate_fetch(
                key,
                [OPENMATH_XML_MIME],
                max_redirects=self.max_redirects,
                transport=self._counting_transport,
            )
            if _media_type(result.content_type) != OPENMATH_XML_MIME:
                raise UnparseableBodyError(result.content_type, "expected a CD document")
            try:
                cd = parse_cd_xml(result.body.decode("utf-8"), source_url=result.final_url)
            except (ToolkitError, UnicodeDecodeError) as exc:
                raise UnparseableBodyError(result.content_type, str(exc)) from exc
            with self._gate:
                self._cache[key] = CacheEntry(cd, self._clock() + self.cache_ttl)
            return cd

    def cd_fetcher(self) -> Callable[[str, str], ContentDictionary]:
        """A (cdbase, cdname) -> ContentDictionary hook for a CdStore."""

        def fetch(cdbase: str, cdname: str) -> ContentDictionary:
            return self.fetch_cd(f"{cdbase.rstrip('/')}/{cdname}")

        return fetch
