"""OpenMath objects, their XML encoding, and symbol URIs.

The object model covers OMS/OMI/OMF/OMV/OMA/OMBIND/OMSTR from the OpenMath 2
XML encoding.  Floats are read from the ``dec`` attribute only; the ``hex``
encoding is rejected.  All values are immutable, and structural equality is
exact: ``OMInteger(2)`` and ``OMFloat(2.0)`` are different objects (numeric
comparison belongs to the evaluator, not the encoding layer).

A CD is named by its URL, ``cd_url(cdbase, cdname)``, and a symbol by a URI
under it.  ``parse_symbol_uri`` reads both shapes, hash (``cdbase/cd#name``)
and slash (``cdbase/cd/name``); ``symbol_iri`` renders the hash shape.  Hash
URIs make a client fetch the whole CD, since the fragment never reaches the
server; slash URIs allow per-symbol documents.

Decoding walks the XML on an explicit stack, so a nest of any depth
decodes without recursion.  One decode shares one object per distinct
symbol and per variable name (``om_from_element``'s ``memo``); the memo
lives only as long as that decode, so nothing is cached across documents.

A document type declaration in OpenMath or CD XML is rejected before any
entity is expanded, so a document cannot define entities at all.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from urllib.parse import urlsplit

from .errors import ToolkitError
from .rdf import Iri

OPENMATH_XML_MIME = "application/openmath+xml"
DEFAULT_CDBASE = "http://www.openmath.org/cd"

_NCNAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.\-]*$")


class XmlError(ToolkitError):
    pass


class EncodingError(ToolkitError):
    def __init__(self, element: str, reason: str):
        self.element = element
        self.reason = reason
        super().__init__(f"<{element}>: {reason}")


class MalformedSymbolUriError(ToolkitError):
    def __init__(self, iri: str):
        self.iri = iri
        super().__init__(f"not a symbol URI: {iri}")


# ---------------------------------------------------------------------------
# Object model
# ---------------------------------------------------------------------------


def is_ncname(text: str) -> bool:
    """Whether ``text`` may name a CD or a symbol."""
    return _NCNAME_RE.fullmatch(text) is not None


@dataclass(frozen=True)
class OMSymbol:
    cd: str
    name: str
    cdbase: str = DEFAULT_CDBASE

    def __post_init__(self):
        if not is_ncname(self.cd):
            raise ValueError(f"bad CD name: {self.cd!r}")
        if not is_ncname(self.name):
            raise ValueError(f"bad symbol name: {self.name!r}")
        if not self.cdbase:
            raise ValueError("cdbase must be nonempty")


@dataclass(frozen=True)
class OMInteger:
    value: int


@dataclass(frozen=True)
class OMFloat:
    value: float


@dataclass(frozen=True)
class OMVariable:
    name: str


@dataclass(frozen=True)
class OMString:
    value: str


@dataclass(frozen=True)
class OMApplication:
    head: "OMObject"
    args: tuple["OMObject", ...]

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))
        if len(self.args) < 1:
            raise ValueError("an application needs at least one argument")


@dataclass(frozen=True)
class OMBinding:
    binder: "OMObject"
    variables: tuple[OMVariable, ...]
    body: "OMObject"

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        if not self.variables:
            raise ValueError("a binding needs at least one bound variable")
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise ValueError(f"bound variable names must be distinct: {names}")


OMObject = OMSymbol | OMInteger | OMFloat | OMVariable | OMString | OMApplication | OMBinding


def free_variables(obj: OMObject) -> frozenset[str]:
    if isinstance(obj, OMVariable):
        return frozenset({obj.name})
    if isinstance(obj, OMApplication):
        out = free_variables(obj.head)
        for a in obj.args:
            out |= free_variables(a)
        return out
    if isinstance(obj, OMBinding):
        bound = {v.name for v in obj.variables}
        return free_variables(obj.binder) | (free_variables(obj.body) - bound)
    return frozenset()


def iter_symbols(obj: OMObject):
    """Yield every OMSymbol in the tree, in document order."""
    if isinstance(obj, OMSymbol):
        yield obj
    elif isinstance(obj, OMApplication):
        yield from iter_symbols(obj.head)
        for a in obj.args:
            yield from iter_symbols(a)
    elif isinstance(obj, OMBinding):
        yield from iter_symbols(obj.binder)
        yield from iter_symbols(obj.body)


# ---------------------------------------------------------------------------
# XML encoding
# ---------------------------------------------------------------------------


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def om_from_element(
    elem: ET.Element, cdbase: str = DEFAULT_CDBASE, memo: dict | None = None
) -> OMObject:
    """Decode one OpenMath element (namespaced or not) into an object.

    ``cdbase`` is inherited downward; an explicit attribute overrides it for
    the subtree rooted at that element.  The walk is a post-order loop over
    an explicit stack, so any depth decodes; the first error in document
    order is the one raised.

    ``memo`` holds the one object per distinct symbol, keyed by
    ``(cd, name, cdbase)``, and per variable, keyed by its name; a symbol's
    names are checked only when it is first met.  Each call gets a fresh
    memo unless one is passed, as ``parse_cd_xml`` does for all of a CD's FMPs.
    """
    if memo is None:
        memo = {}
    # Each open OMA or OMBIND: its tag, its cdbase, the children to decode
    # (an OMBIND's are the binder, each bound variable and the body), and
    # the objects decoded from them so far.
    stack: list[tuple[str, str, list[ET.Element], list[OMObject]]] = []
    while True:
        cdbase = elem.get("cdbase", cdbase)
        tag = elem.tag
        if "}" in tag:
            tag = _local(tag)
        if tag == "OMA" or tag == "OMBIND":
            children = list(elem)
            if tag == "OMA":
                if len(children) < 2:
                    raise EncodingError(
                        "OMA", "an application needs a head and at least one argument"
                    )
            elif len(children) != 3 or _local(children[1].tag) != "OMBVAR":
                raise EncodingError("OMBIND", "expected binder, OMBVAR, body")
            else:
                children = [children[0], *children[1], children[2]]
            stack.append((tag, cdbase, children, []))
            elem = children[0]
            continue
        obj = _decode_leaf(elem, tag, cdbase, memo)
        # Hand the object up, building each parent whose children are all done.
        while stack:
            tag, cdbase, children, done = stack[-1]
            done.append(obj)
            count = len(done)
            if tag == "OMBIND" and 1 < count < len(children):
                if not isinstance(obj, OMVariable):
                    raise EncodingError("OMBVAR", "only OMV children are allowed")
            if count < len(children):
                elem = children[count]
                break
            stack.pop()
            if tag == "OMA":
                obj = OMApplication(done[0], tuple(done[1:]))
                continue
            try:
                obj = OMBinding(done[0], tuple(done[1:-1]), done[-1])
            except ValueError as exc:
                raise EncodingError("OMBIND", str(exc)) from exc
        else:
            return obj


def _decode_leaf(elem: ET.Element, tag: str, cdbase: str, memo: dict) -> OMObject:
    if tag == "OMS":
        cd, name = elem.get("cd"), elem.get("name")
        if cd is None or name is None:
            raise EncodingError("OMS", "both 'cd' and 'name' are required")
        key = (cd, name, cdbase)
        symbol = memo.get(key)
        if symbol is None:
            try:
                symbol = memo[key] = OMSymbol(cd=cd, name=name, cdbase=cdbase)
            except ValueError as exc:
                raise EncodingError("OMS", str(exc)) from exc
        return symbol
    if tag == "OMV":
        name = elem.get("name")
        if not name:
            raise EncodingError("OMV", "missing 'name' attribute")
        variable = memo.get(name)
        if variable is None:
            variable = memo[name] = OMVariable(name)
        return variable
    if tag == "OMI":
        text = (elem.text or "").strip()
        try:
            return OMInteger(int(text))
        except ValueError as exc:
            raise EncodingError("OMI", f"not a decimal integer: {text!r}") from exc
    if tag == "OMF":
        if elem.get("hex") is not None:
            raise EncodingError("OMF", "hex-encoded floats are not supported")
        dec = elem.get("dec")
        if dec is None:
            raise EncodingError("OMF", "missing 'dec' attribute")
        try:
            return OMFloat(float(dec))
        except ValueError as exc:
            raise EncodingError("OMF", f"not a decimal float: {dec!r}") from exc
    if tag == "OMSTR":
        return OMString(elem.text or "")
    raise EncodingError(tag, "unknown OpenMath element")


class _NoDoctypeBuilder(ET.TreeBuilder):
    def doctype(self, name, pubid, system):
        raise XmlError("a document type declaration is not allowed")


def parse_xml(text: str) -> ET.Element:
    """Parse XML to its root element.

    A DOCTYPE is an XmlError, raised before any entity is expanded.
    """
    parser = ET.XMLParser(target=_NoDoctypeBuilder())
    try:
        parser.feed(text)
        return parser.close()
    except ET.ParseError as exc:
        raise XmlError(f"malformed XML: {exc}") from exc


def parse_om_xml(text: str) -> OMObject:
    """Parse an OMOBJ document into an OpenMath object."""
    root = parse_xml(text)
    if _local(root.tag) != "OMOBJ":
        raise EncodingError(_local(root.tag), "expected an OMOBJ root")
    cdbase = root.get("cdbase", DEFAULT_CDBASE)
    children = list(root)
    if len(children) != 1:
        raise EncodingError("OMOBJ", "expected exactly one child object")
    return om_from_element(children[0], cdbase)


def xml_escape(text: str) -> str:
    """Escape character data: ``&``, ``<`` and ``>``."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _quote_attr(value: str) -> str:
    """A double-quoted attribute value.  Whitespace other than the space is
    written as a character reference, as a parser normalizes a literal one."""
    value = xml_escape(value).replace('"', "&quot;")
    value = value.replace("\n", "&#10;").replace("\r", "&#13;").replace("\t", "&#9;")
    return f'"{value}"'


def om_element_text(obj: OMObject) -> str:
    """Encode one object (without the OMOBJ wrapper)."""
    if isinstance(obj, OMSymbol):
        base = "" if obj.cdbase == DEFAULT_CDBASE else f" cdbase={_quote_attr(obj.cdbase)}"
        return f"<OMS{base} cd={_quote_attr(obj.cd)} name={_quote_attr(obj.name)}/>"
    if isinstance(obj, OMInteger):
        return f"<OMI>{obj.value}</OMI>"
    if isinstance(obj, OMFloat):
        return f"<OMF dec={_quote_attr(repr(obj.value))}/>"
    if isinstance(obj, OMVariable):
        return f"<OMV name={_quote_attr(obj.name)}/>"
    if isinstance(obj, OMString):
        return f"<OMSTR>{xml_escape(obj.value)}</OMSTR>"
    if isinstance(obj, OMApplication):
        inner = om_element_text(obj.head) + "".join(om_element_text(a) for a in obj.args)
        return f"<OMA>{inner}</OMA>"
    if isinstance(obj, OMBinding):
        bvars = "".join(om_element_text(v) for v in obj.variables)
        return (
            f"<OMBIND>{om_element_text(obj.binder)}"
            f"<OMBVAR>{bvars}</OMBVAR>{om_element_text(obj.body)}</OMBIND>"
        )
    raise TypeError(f"not an OpenMath object: {obj!r}")


def serialize_om_xml(obj: OMObject) -> str:
    """Encode an object as an OMOBJ document.

    ``cdbase`` is written only on symbols that differ from the default, so
    ``parse_om_xml(serialize_om_xml(obj))`` reproduces ``obj`` exactly.
    """
    return f"<OMOBJ>{om_element_text(obj)}</OMOBJ>"


# ---------------------------------------------------------------------------
# Symbol URIs
# ---------------------------------------------------------------------------


def cd_url(cdbase: str, cd: str) -> str:
    """The URL of CD ``cd`` under ``cdbase``; one trailing ``/`` of the cdbase is dropped."""
    return f"{cdbase.removesuffix('/')}/{cd}"


def symbol_iri(sym: OMSymbol) -> Iri:
    """The hash URI ``cdbase/cd#name`` of a symbol."""
    return Iri(f"{cd_url(sym.cdbase, sym.cd)}#{sym.name}")


def parse_symbol_uri(iri: Iri | str) -> OMSymbol:
    """The symbol a hash or slash URI names.

    A ``#`` makes it a hash URI whose cd is the last path segment;
    otherwise the last two segments are cd/name.  A URI without a scheme,
    with a query string, or whose cd or name is not an NCName is a
    MalformedSymbolUriError.
    """
    text = iri.value if isinstance(iri, Iri) else iri
    try:
        parts = urlsplit(text)
    except ValueError:  # an unclosed IPv6 bracket, say
        raise MalformedSymbolUriError(text) from None
    if not parts.scheme or parts.query:
        raise MalformedSymbolUriError(text)
    path, name = parts.path, parts.fragment
    if "#" not in text:
        path, _, name = path.rpartition("/")
    path, _, cd = path.rpartition("/")
    try:
        return OMSymbol(cd=cd, name=name, cdbase=f"{parts.scheme}://{parts.netloc}{path}")
    except ValueError:
        raise MalformedSymbolUriError(text) from None
