"""Fetch Content Dictionaries over HTTP.

A CD is fetched whole from its URL; a hash symbol URI's fragment is stripped
first, as fragments never reach the server.  Nothing is cached here:
``fetch_cd`` is the fetch hook of a ``CdStore``, which is keyed by CD URL and
remembers each URL it fetched, or failed to fetch, for the life of the store,
so one run requests each CD at most once.  Response bodies are read up to
``MAX_BODY_BYTES``, and one fetch, redirects included, ends in FetchError once
it has taken ``FETCH_TIMEOUT`` seconds.  Every socket operation waits only for
the time left; the name lookup before a connection cannot be cut short, but
its time counts.

The transport is injectable, which is how tests count requests and simulate
broken servers.
"""

from __future__ import annotations

import io
import time
from functools import partial
from typing import Callable
from urllib.parse import urljoin, urlsplit, urlunsplit

from .cd import ContentDictionary, parse_cd_xml
from .errors import ToolkitError
from .om import OPENMATH_XML_MIME
from .value import Value, set_field

# transport(url, headers) -> (status, lowercase header dict, body bytes)
Transport = Callable[[str, dict[str, str]], tuple[int, dict[str, str], bytes]]

MAX_REDIRECTS = 5
MAX_BODY_BYTES = 16 * 1024 * 1024
FETCH_TIMEOUT = 30.0  # seconds for one fetch with its redirects
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


class FetchResult(Value):
    __slots__ = ("final_url", "content_type", "body")

    def __init__(self, final_url: str, content_type: str, body: bytes):
        set_field(self, "final_url", final_url)
        set_field(self, "content_type", content_type)
        set_field(self, "body", body)


def strip_fragment(url: str) -> str:
    try:
        parts = urlsplit(url)
    except ValueError as exc:  # an unclosed IPv6 bracket, say
        raise FetchError(url, str(exc)) from None
    return urlunsplit((parts.scheme, parts.netloc, parts.path, parts.query, ""))


class _TimedSocketFile(io.RawIOBase):
    """A raw socket file whose every read waits only for ``time_left()`` seconds."""

    def __init__(self, file: io.RawIOBase, sock, time_left: Callable[[], float]):
        self.file = file
        self.sock = sock
        self.time_left = time_left

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int | None:
        self.sock.settimeout(self.time_left())
        return self.file.readinto(buffer)

    def close(self) -> None:
        self.file.close()
        super().close()


def _default_transport(
    url: str, headers: dict[str, str], deadline: float | None = None
) -> tuple[int, dict[str, str], bytes]:
    """GET ``url``, done by ``deadline`` (time.monotonic), or within FETCH_TIMEOUT."""
    import http.client

    if deadline is None:
        deadline = time.monotonic() + FETCH_TIMEOUT

    def time_left() -> float:
        """The timeout of the next socket operation: 10 s, or what is left of the fetch."""
        left = deadline - time.monotonic()
        if left <= 0:
            raise FetchError(url, f"not done within {FETCH_TIMEOUT:g} s")
        return min(left, 10)

    parts = urlsplit(url)
    if parts.scheme not in ("http", "https"):
        raise FetchError(url, f"unsupported scheme {parts.scheme!r}")
    if not parts.hostname:
        raise FetchError(url, "no host")
    conn_cls = http.client.HTTPSConnection if parts.scheme == "https" else http.client.HTTPConnection
    try:
        conn = conn_cls(parts.hostname, parts.port, timeout=time_left())
    except (ValueError, http.client.InvalidURL) as exc:  # a bad port, or a bad character in the host
        raise FetchError(url, str(exc)) from None
    # The request line carries only path and query; the fragment stays local.
    path = parts.path or "/"
    if parts.query:
        path += "?" + parts.query

    def timed_response(sock, **kwargs) -> http.client.HTTPResponse:
        """A response that reads its status line, headers and body against the deadline."""
        response = http.client.HTTPResponse(sock, **kwargs)
        response.fp = io.BufferedReader(_TimedSocketFile(response.fp.detach(), sock, time_left))
        return response

    conn.response_class = timed_response
    try:
        conn.request("GET", path, headers={**headers, "Connection": "close"})
        response = conn.getresponse()
        body = response.read(MAX_BODY_BYTES + 1)
        if len(body) > MAX_BODY_BYTES:
            raise FetchError(url, f"response body exceeds {MAX_BODY_BYTES} bytes")
        resp_headers = {k.lower(): v for k, v in response.getheaders()}
        return response.status, resp_headers, body
    except OSError as exc:
        raise FetchError(url, str(exc)) from exc
    except http.client.HTTPException as exc:  # repr keeps a malformed status line on one line
        raise FetchError(url, repr(exc)) from exc
    finally:
        conn.close()


def negotiate_fetch(url: str, accept: str, transport: Transport | None = None) -> FetchResult:
    """GET with one Accept value, following 301/302/303 up to MAX_REDIRECTS.

    The default transport ends the whole fetch after FETCH_TIMEOUT seconds.
    """
    transport = transport or partial(
        _default_transport, deadline=time.monotonic() + FETCH_TIMEOUT
    )
    current = strip_fragment(url)
    headers = {"Accept": accept}
    chain: list[str] = []
    while True:
        status, resp_headers, body = transport(current, headers)
        if status == 200:
            return FetchResult(current, resp_headers.get("content-type", ""), body)
        if status in _REDIRECT_STATUSES:
            location = resp_headers.get("location")
            if not location:
                raise FetchError(current, f"{status} without a Location header", status=status)
            chain.append(current)
            if len(chain) > MAX_REDIRECTS:
                raise TooManyRedirectsError(current, chain)
            try:
                current = strip_fragment(urljoin(current, location))
            except ValueError as exc:  # urljoin rejects an unclosed IPv6 bracket
                raise FetchError(current, f"bad Location {location!r}: {exc}", status=status) from None
            continue
        raise FetchError(current, f"HTTP status {status}", status=status)


def fetch_cd(url: str, transport: Transport | None = None) -> ContentDictionary:
    """Fetch and parse the CD at ``url``; a fragment is ignored."""
    result = negotiate_fetch(url, OPENMATH_XML_MIME, transport)
    if result.content_type.split(";")[0].strip().lower() != OPENMATH_XML_MIME:
        raise UnparseableBodyError(result.content_type, "expected a CD document")
    try:
        return parse_cd_xml(result.body.decode("utf-8"), source_url=result.final_url)
    except (ToolkitError, UnicodeDecodeError) as exc:
        raise UnparseableBodyError(result.content_type, str(exc)) from exc
