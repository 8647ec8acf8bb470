"""Publish a directory of CDs as dereferenceable Linked Data.

The canonical CD URI serves the XML encoding directly; asking for HTML gets
a 303 redirect to the ``.xhtml`` rendering (the CD is a dictionary, the HTML
page is merely one representation of it); asking for Turtle gets a small RDF
description.  Slash routes serve a one-definition CD fragment so clients
interested in a single symbol need not download the whole dictionary.

Routing is a pure function over an immutable snapshot of loaded CDs, so
requests can run concurrently and a reload just swaps the snapshot.  HTTP is
a small HTTP/1.1 loop on ``socketserver`` that writes each response at once
on a TCP_NODELAY socket: Nagle's algorithm would hold a body written after
its headers until the client's delayed ACK, ~40 ms per keep-alive request.

``CdServer`` is the threading TCP server itself, one thread per connection.
It serves at most ``MAX_CONNECTIONS`` connections at once and answers one
more with ``503 Service Unavailable`` and closes it.  A connection waits at
most ``IDLE_TIMEOUT`` for a request; a request line and headers that have not
all come ``REQUEST_TIMEOUT`` after their first byte are answered ``408
Request Timeout``, and the connection closes.
"""

from __future__ import annotations

import html
import io
import re
import socketserver
import sys
import threading
import time
from http import HTTPStatus
from pathlib import Path
from urllib.parse import quote

from .cd import ContentDictionary, LoadedCd, extract_links, load_cd_directory, serialize_cd_xml
from .errors import ToolkitError
from .om import OPENMATH_XML_MIME, cd_url, om_element_text
from .rdf import XSD_NS, Graph, Iri, Literal, Triple, serialize_turtle

TEXT_HTML = "text/html"
TEXT_TURTLE = "text/turtle"
SUPPORTED_TYPES = (OPENMATH_XML_MIME, TEXT_HTML, TEXT_TURTLE)
_ASCII = "".join(map(chr, range(128)))


_QVALUE_RE = re.compile(r"0(?:\.[0-9]{0,3})?|1(?:\.0{0,3})?")  # RFC 9110, 12.4.2


def parse_accept(header: str | None) -> list[tuple[str, float]]:
    """Accept header as (media-type, q) pairs, highest preference first.

    A q-value outside the RFC's grammar (``nan``, ``2``, ``1e999``, ``0.1234``)
    counts as 0, as an unparsable one does; the name ``q`` is case-insensitive.
    """
    if not header:
        return []
    out = []
    for part in header.split(","):
        fields = part.strip().split(";")
        mime = fields[0].strip().lower()
        if not mime:
            continue
        q = 1.0
        for param in fields[1:]:
            param = param.strip()
            if param[:2] in ("q=", "Q="):
                q = float(param[2:]) if _QVALUE_RE.fullmatch(param[2:]) else 0.0
        out.append((mime, q))
    out.sort(key=lambda t: -t[1])  # stable: equal q-values keep the header's order
    return out


def negotiate(header: str | None) -> str | None:
    """Pick a supported representation for an Accept header, or None for 406.

    OpenMath XML is the default: without a header, and for ``*/*``.
    """
    prefs = parse_accept(header)
    if not prefs:
        return OPENMATH_XML_MIME
    for mime, q in prefs:
        if q <= 0:
            continue
        if mime == "*/*":
            return OPENMATH_XML_MIME
        if mime in SUPPORTED_TYPES:
            return mime
        if mime == "application/*":
            return OPENMATH_XML_MIME
        if mime == "text/*":
            return TEXT_HTML
    return None


def _symbol_names(cd: ContentDictionary) -> dict[Iri, str]:
    """Each defined symbol's IRI under the CD's own cdbase, to its name."""
    return {cd.symbol_uri(d.name): d.name for d in cd.definitions}


def render_cd_html(cd: ContentDictionary) -> str:
    """A human-readable page with machine-readable about/property hooks."""
    names = _symbol_names(cd)
    links_by_symbol: dict[str, list] = {}
    for link in extract_links(cd):
        name = names.get(link.subject)
        if name is not None:
            links_by_symbol.setdefault(name, []).append(link)

    cd_uri = cd_url(cd.cdbase, cd.cdname)
    out = [
        "<!DOCTYPE html>",
        "<html>",
        f"<head><meta charset=\"utf-8\"/><title>{html.escape(cd.cdname)}</title></head>",
        "<body>",
        f'<h1 about="{html.escape(cd_uri, quote=True)}">{html.escape(cd.cdname)}</h1>',
        f'<p property="description">{html.escape(cd.description)}</p>',
    ]
    for definition in cd.definitions:
        uri = cd.symbol_uri(definition.name).value
        out.append(
            f'<section id="{html.escape(definition.name, quote=True)}" '
            f'about="{html.escape(uri, quote=True)}">'
        )
        out.append(f"<h2>{html.escape(definition.name)}</h2>")
        out.append(f'<p property="description">{html.escape(definition.description)}</p>')
        for cmp_text in definition.cmps:
            out.append(f"<p>{html.escape(cmp_text)}</p>")
        for fmp in definition.fmps:
            out.append(f"<pre><code>{html.escape(om_element_text(fmp))}</code></pre>")
        for link in links_by_symbol.get(definition.name, []):
            out.append(
                f'<p><a rel="{html.escape(link.predicate.value, quote=True)}" '
                f'href="{html.escape(link.object.value, quote=True)}">'
                f"{html.escape(link.object.value)}</a></p>"
            )
        out.append("</section>")
    out.append("</body>")
    out.append("</html>")
    return "\n".join(out)


def cd_to_rdf(cd: ContentDictionary, base_iri: str) -> Graph:
    """A minimal RDF description: names, descriptions, containment, links."""
    vocab = cd_url(base_iri, "vocab") + "#"
    name_pred = Iri(vocab + "name")
    desc_pred = Iri(vocab + "description")
    contained_pred = Iri(vocab + "definedIn")
    cd_uri = cd_url(base_iri, cd.cdname)
    cd_resource = Iri(cd_uri)

    triples = {
        Triple(cd_resource, name_pred, Literal(cd.cdname)),
        Triple(cd_resource, desc_pred, Literal(cd.description)),
    }
    for definition in cd.definitions:
        symbol = Iri(f"{cd_uri}#{definition.name}")
        triples.add(Triple(symbol, name_pred, Literal(definition.name)))
        triples.add(Triple(symbol, desc_pred, Literal(definition.description)))
        triples.add(Triple(symbol, contained_pred, cd_resource))
    names = _symbol_names(cd)
    for link in extract_links(cd):
        name = names.get(link.subject)
        subject = link.subject if name is None else Iri(f"{cd_uri}#{name}")
        triples.add(Triple(subject, link.predicate, link.object))
    prefixes = {"xsd": XSD_NS, "v": vocab}
    return Graph(triples=frozenset(triples), prefixes=prefixes)


class CdApp:
    """Pure request routing over an immutable snapshot of CDs.

    Turtle, HTML and fragment bodies are rendered at first request and kept
    with the snapshot; a 404 is not kept.  Two threads rendering one body at
    once store the same bytes, so no lock is needed.
    """

    def __init__(self, cds: dict[str, LoadedCd], base_iri: str):
        self.cds = cds
        self.base_iri = base_iri
        self._bodies: dict[tuple[str, ...], bytes] = {}

    def route(
        self, method: str, path: str, accept: str | None
    ) -> tuple[int, dict[str, str], bytes]:
        if method != "GET":
            allow = {"Content-Type": "text/plain", "Allow": "GET, HEAD"}
            return 405, allow, b"GET and HEAD only\n"
        segments = _segments(path) or [""]
        page = len(segments) == 1 and segments[0].endswith(".xhtml")
        name = segments[0][: -len(".xhtml")] if page else segments[0]
        loaded = self.cds.get(name)
        if loaded is None or len(segments) > 2:
            return self._not_found(path.partition("?")[0])
        if page:
            body = self._rendered(("html", name), lambda: render_cd_html(loaded.cd))
            return 200, {"Content-Type": f"{TEXT_HTML}; charset=utf-8"}, body
        if len(segments) == 1:
            return self._negotiated_cd(name, loaded, accept)
        return self._symbol_fragment(name, loaded, segments[1])

    def _rendered(self, key: tuple[str, ...], render) -> bytes:
        body = self._bodies.get(key)
        if body is None:
            body = self._bodies[key] = render().encode("utf-8")
        return body

    def _not_found(self, path: str) -> tuple[int, dict[str, str], bytes]:
        return 404, {"Content-Type": "text/plain"}, f"not found: {path}\n".encode()

    def _negotiated_cd(self, name: str, loaded: LoadedCd, accept: str | None):
        """The CD URI's answer to ``accept``; each one says that it varies with Accept."""
        chosen = negotiate(accept)
        if chosen is None:
            body = "not acceptable; supported: " + ", ".join(SUPPORTED_TYPES) + "\n"
            return 406, {"Content-Type": "text/plain", "Vary": "Accept"}, body.encode()
        if chosen == OPENMATH_XML_MIME:
            return 200, {"Content-Type": OPENMATH_XML_MIME, "Vary": "Accept"}, loaded.raw
        if chosen == TEXT_HTML:
            location = cd_url(self.base_iri, name) + ".xhtml"
            if not location.isascii():  # a header holds ASCII: map the IRI to a URI (RFC 3987, 3.1)
                location = quote(location, safe=_ASCII)
            headers = {"Location": location, "Content-Type": "text/plain", "Vary": "Accept"}
            return 303, headers, b"see " + location.encode() + b"\n"
        body = self._rendered(
            ("turtle", name), lambda: serialize_turtle(cd_to_rdf(loaded.cd, self.base_iri))
        )
        return 200, {"Content-Type": TEXT_TURTLE, "Vary": "Accept"}, body

    def _symbol_fragment(self, name: str, loaded: LoadedCd, symbol: str):
        key = ("fragment", name, symbol)
        body = self._bodies.get(key)
        if body is None:
            cd = loaded.cd
            definition = cd.definition(symbol)
            if definition is None:
                return self._not_found(f"/{cd.cdname}/{symbol}")
            fragment = ContentDictionary(
                cd.cdbase, cd.cdname, cd.description, (definition,), source_url=cd.source_url
            )
            body = self._bodies[key] = serialize_cd_xml(fragment).encode("utf-8")
        return 200, {"Content-Type": OPENMATH_XML_MIME}, body


def _segments(path: str) -> list[str]:
    """The non-empty segments of a request target's path."""
    return [s for s in path.partition("?")[0].split("/") if s]


def load_snapshot(directory: str | Path) -> dict[str, LoadedCd]:
    """Every CD of ``cd.load_cd_directory`` by CD name.

    Two files with one CD name are a ToolkitError.
    """
    cds: dict[str, LoadedCd] = {}
    for loaded in load_cd_directory(directory):
        name = loaded.cd.cdname
        if name in cds:
            raise ToolkitError(f"{loaded.path}: another CD file already defines {name!r}")
        cds[name] = loaded
    return cds


MAX_LINE = 65536  # bytes in a request line or header line, as in http.server
MAX_HEADERS = 100
IDLE_TIMEOUT = 30.0  # seconds a connection may wait for its next request before it closes
REQUEST_TIMEOUT = 10.0  # seconds from a request's first byte to the end of its headers
MAX_CONNECTIONS = 64  # connections served at once; one more is answered 503 and closed
_VERSION_RE = re.compile(r"HTTP/[0-9]\.[0-9]")


def _response(status: int, headers: dict[str, str], body: bytes, send_body: bool = True) -> bytes:
    """The status line, headers and body as one write, so Nagle has nothing to hold."""
    lines = [
        f"HTTP/1.1 {status} {HTTPStatus(status).phrase}",
        "Date: " + time.strftime("%a, %d %b %Y %H:%M:%S GMT", time.gmtime()),
        *(f"{key}: {value}" for key, value in headers.items()),
        f"Content-Length: {len(body)}",
    ]
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + body if send_body else head


def _error_response(status: int) -> bytes:
    """The answer to a request that is not read: ``status``, and the connection closes."""
    body = f"{HTTPStatus(status).phrase}\n".encode()
    return _response(status, {"Content-Type": "text/plain", "Connection": "close"}, body)


class _RequestReader(io.RawIOBase):
    """The socket under a handler's ``rfile``.

    Its first read of a request starts the request's deadline; each later
    read waits only for the time left, and none is left raises TimeoutError.
    No timer or thread is started: the socket's own timeout does the waiting.
    """

    def __init__(self, sock, idle_timeout: float | None):
        self.sock = sock
        self.idle_timeout = idle_timeout
        self.deadline: float | None = None  # None between requests

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        if self.deadline is not None:
            left = self.deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError("request timeout")
            self.sock.settimeout(left)
        n = self.sock.recv_into(buffer)
        if self.deadline is None:
            self.deadline = time.monotonic() + REQUEST_TIMEOUT
        return n

    def end_request(self) -> None:
        """The request is read: wait for the next one as an idle connection does."""
        self.deadline = None
        if self.sock.gettimeout() != self.idle_timeout:  # a read waited for less
            self.sock.settimeout(self.idle_timeout)


class _Handler(socketserver.StreamRequestHandler):
    """HTTP/1.1 on one connection: read a request, write its whole response at once, repeat."""

    server: CdServer
    disable_nagle_algorithm = True
    timeout = IDLE_TIMEOUT  # a timed-out read raises OSError, which ends handle()

    def setup(self) -> None:
        super().setup()
        self.rfile.close()  # the socket file; the reader below reads the socket itself
        self.reader = _RequestReader(self.connection, self.timeout)
        self.rfile = io.BufferedReader(self.reader)

    def handle(self) -> None:
        try:
            try:
                while self._exchange():
                    pass
            except TimeoutError:
                if self.reader.deadline is not None:  # the request came too slowly
                    self.reader.end_request()
                    self._error(408)
        except OSError:  # the client reset the connection or stopped reading
            pass

    def _exchange(self) -> bool:
        """Answer one request; whether the connection stays open for the next."""
        line = self.rfile.readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            return self._error(414)
        if not line.endswith(b"\n"):  # the client closed the connection
            return False
        words = line.decode("latin-1").split()
        if len(words) != 3 or not _VERSION_RE.fullmatch(words[2]):
            return self._error(400)
        method, target, version = words
        if version not in ("HTTP/1.0", "HTTP/1.1"):
            return self._error(505)
        fields: dict[str, str] = {}
        for _ in range(MAX_HEADERS + 1):  # the fields, then the empty line
            line = self.rfile.readline(MAX_LINE + 1)
            if line in (b"\r\n", b"\n"):
                break
            if len(line) > MAX_LINE:
                return self._error(431)
            if not line.endswith(b"\n"):
                return False
            name, colon, value = line.decode("latin-1").partition(":")
            if not colon or not name or name != name.strip():  # also an obsolete folded line
                return self._error(400)
            fields.setdefault(name.lower(), value.strip())
        else:
            return self._error(431)
        self.reader.end_request()

        # This server reads no request body: a request that has one is
        # answered, and then the connection closes before the body is read.
        has_body = "transfer-encoding" in fields or fields.get("content-length", "0") != "0"
        tokens = {t.strip().lower() for t in fields.get("connection", "").split(",")}
        wanted = "keep-alive" in tokens if version == "HTTP/1.0" else "close" not in tokens
        keep = wanted and not has_body
        status, headers, body = self.server.app.route(
            "GET" if method == "HEAD" else method, target, fields.get("accept")
        )
        if not keep or version == "HTTP/1.0":
            headers = {**headers, "Connection": "keep-alive" if keep else "close"}
        self.wfile.write(_response(status, headers, body, send_body=method != "HEAD"))
        return keep

    def _error(self, status: int) -> bool:
        """Answer a request that cannot be read with ``status``, and close."""
        self.wfile.write(_error_response(status))
        return False


class CdServer(socketserver.ThreadingTCPServer):
    """The HTTP face of CdApp: start/serve/reload/close.

    The listening thread answers a connection over ``MAX_CONNECTIONS`` with
    a 503 and closes it, without reading its request.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self,
        cd_directory: str | Path,
        port: int = 0,
        bind_address: str = "127.0.0.1",
        base_iri: str | None = None,
    ):
        self.cd_directory = str(cd_directory)
        cds = load_snapshot(self.cd_directory)
        try:  # on failure the server has already closed its socket
            super().__init__((bind_address, port), _Handler)
        except OSError as exc:
            raise ToolkitError(f"cannot listen on {bind_address}:{port}: {exc}") from None
        self.port = self.server_address[1]
        self.base_iri = (base_iri or f"http://{bind_address}:{self.port}").rstrip("/")
        self.app = CdApp(cds, self.base_iri)  # reload() swaps it; a request reads it once
        self._slots = threading.BoundedSemaphore(MAX_CONNECTIONS)
        self._serve_thread: threading.Thread | None = None
        self._serving = False  # socketserver's shutdown() waits for a serve_forever that ran

    def process_request(self, request, client_address) -> None:
        if not self._slots.acquire(blocking=False):
            try:
                request.sendall(_error_response(503))
            except OSError:  # the client is gone already
                pass
            self.shutdown_request(request)
            return
        try:
            super().process_request(request, client_address)
        except BaseException:  # no thread started to release the slot
            self._slots.release()
            raise

    def process_request_thread(self, request, client_address) -> None:
        try:
            super().process_request_thread(request, client_address)
        finally:
            self._slots.release()

    def start(self) -> "CdServer":
        self._serving = True
        self._serve_thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._serve_thread.start()
        return self

    def reload(self) -> None:
        """Re-scan the CD directory and swap the snapshot atomically.

        A directory that fails to load keeps the old snapshot and logs one
        line to stderr, so a bad reload never stops the server.
        """
        try:
            cds = load_snapshot(self.cd_directory)
        except (ToolkitError, OSError) as exc:
            print(f"omld: reload failed, still serving the old CDs: {exc}", file=sys.stderr)
            return
        self.app = CdApp(cds, self.base_iri)

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        self._serving = True
        super().serve_forever(poll_interval)

    def close(self) -> None:
        """Stop serving, if it started, and close the listening socket."""
        if self._serving:
            self.shutdown()
        self.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=5)
