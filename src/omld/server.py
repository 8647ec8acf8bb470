"""Publish a directory of CDs as dereferenceable Linked Data.

The canonical CD URI serves the XML encoding directly; asking for HTML gets
a 303 redirect to the ``.xhtml`` rendering (the CD is a dictionary, the HTML
page is merely one representation of it); asking for Turtle gets a small RDF
description.  Slash routes serve a one-definition CD fragment so clients
interested in a single symbol need not download the whole dictionary.

Routing is a pure function over an immutable snapshot of loaded CDs, so
requests can run concurrently and a reload just swaps the snapshot.
"""

from __future__ import annotations

import html
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from .cd import ContentDictionary, LoadedCd, extract_links, load_cd_directory, serialize_cd_xml
from .errors import ToolkitError
from .om import OPENMATH_XML_MIME, cd_url, om_element_text
from .rdf import XSD_NS, Graph, Iri, Literal, Triple, serialize_turtle

TEXT_HTML = "text/html"
TEXT_TURTLE = "text/turtle"
SUPPORTED_TYPES = (OPENMATH_XML_MIME, TEXT_HTML, TEXT_TURTLE)


def parse_accept(header: str | None) -> list[tuple[str, float]]:
    """Accept header as (media-type, q) pairs, highest preference first."""
    if not header:
        return []
    out = []
    for i, part in enumerate(header.split(",")):
        fields = part.strip().split(";")
        mime = fields[0].strip().lower()
        if not mime:
            continue
        q = 1.0
        for param in fields[1:]:
            param = param.strip()
            if param.startswith("q="):
                try:
                    q = float(param[2:])
                except ValueError:
                    q = 0.0
        out.append((mime, q, i))
    out.sort(key=lambda t: (-t[1], t[2]))
    return [(mime, q) for mime, q, _ in out]


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
    """Pure request routing over an immutable snapshot of CDs."""

    def __init__(self, cds: dict[str, LoadedCd], base_iri: str):
        self.cds = cds
        self.base_iri = base_iri

    def route(
        self, method: str, path: str, accept: str | None
    ) -> tuple[int, dict[str, str], bytes]:
        if method != "GET":
            return 405, {"Content-Type": "text/plain", "Allow": "GET"}, b"GET only\n"
        path = path.partition("?")[0]
        segments = [s for s in path.split("/") if s]

        if len(segments) == 1 and segments[0].endswith(".xhtml"):
            name = segments[0][: -len(".xhtml")]
            loaded = self.cds.get(name)
            if loaded is None:
                return self._not_found(path)
            body = render_cd_html(loaded.cd).encode("utf-8")
            return 200, {"Content-Type": f"{TEXT_HTML}; charset=utf-8"}, body

        if len(segments) == 1:
            loaded = self.cds.get(segments[0])
            if loaded is None:
                return self._not_found(path)
            return self._negotiated_cd(segments[0], loaded, accept)

        if len(segments) == 2:
            loaded = self.cds.get(segments[0])
            if loaded is None:
                return self._not_found(path)
            return self._symbol_fragment(loaded, segments[1])

        return self._not_found(path)

    def _not_found(self, path: str) -> tuple[int, dict[str, str], bytes]:
        return 404, {"Content-Type": "text/plain"}, f"not found: {path}\n".encode()

    def _negotiated_cd(self, name: str, loaded: LoadedCd, accept: str | None):
        chosen = negotiate(accept)
        if chosen is None:
            body = "not acceptable; supported: " + ", ".join(SUPPORTED_TYPES) + "\n"
            return 406, {"Content-Type": "text/plain"}, body.encode()
        if chosen == OPENMATH_XML_MIME:
            return 200, {"Content-Type": OPENMATH_XML_MIME}, loaded.raw
        if chosen == TEXT_HTML:
            location = cd_url(self.base_iri, name) + ".xhtml"
            return 303, {"Location": location, "Content-Type": "text/plain"}, b"see " + location.encode() + b"\n"
        graph = cd_to_rdf(loaded.cd, self.base_iri)
        return 200, {"Content-Type": TEXT_TURTLE}, serialize_turtle(graph).encode("utf-8")

    def _symbol_fragment(self, loaded: LoadedCd, symbol: str):
        definition = loaded.cd.definition(symbol)
        if definition is None:
            return self._not_found(f"/{loaded.cd.cdname}/{symbol}")
        fragment = ContentDictionary(
            cdbase=loaded.cd.cdbase,
            cdname=loaded.cd.cdname,
            description=loaded.cd.description,
            definitions=(definition,),
            source_url=loaded.cd.source_url,
        )
        body = serialize_cd_xml(fragment).encode("utf-8")
        return 200, {"Content-Type": OPENMATH_XML_MIME}, body


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


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def do_GET(self):  # noqa: N802 (http.server API)
        app = self.server.app  # type: ignore[attr-defined]
        status, headers, body = app.route("GET", self.path, self.headers.get("Accept"))
        self.send_response(status)
        for key, value in headers.items():
            self.send_header(key, value)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format, *args):  # quiet by default
        pass


class CdServer:
    """The HTTP face of CdApp: start/serve/reload/close."""

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
            self._httpd = ThreadingHTTPServer((bind_address, port), _Handler)
        except OSError as exc:
            raise ToolkitError(f"cannot listen on {bind_address}:{port}: {exc}") from None
        self._httpd.daemon_threads = True
        actual_port = self._httpd.server_address[1]
        self.base_iri = (base_iri or f"http://{bind_address}:{actual_port}").rstrip("/")
        self.port = actual_port
        self._thread: threading.Thread | None = None
        self._httpd.app = CdApp(cds, self.base_iri)  # type: ignore[attr-defined]

    @property
    def app(self) -> CdApp:
        return self._httpd.app  # type: ignore[attr-defined]

    def start(self) -> "CdServer":
        self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)
        self._thread.start()
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
        self._httpd.app = CdApp(cds, self.base_iri)  # type: ignore[attr-defined]

    def serve_forever(self) -> None:
        self._httpd.serve_forever()

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
