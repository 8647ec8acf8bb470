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

``om_from_omobj`` is the one decoder of an OMOBJ element, for an OpenMath
document and for each FMP of a CD alike.  Decoding, encoding and every walk
over a term keep their own stack, so a nest of any depth is read, written
and walked without recursion.  One decode shares one object per distinct
symbol and per variable name (``om_from_element``'s ``memo``); the memo
lives only as long as that decode, so nothing is cached across documents.

A document type declaration in OpenMath or CD XML is rejected before any
entity is expanded, so a document cannot define entities at all.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING
from urllib.parse import urlsplit

from .errors import ToolkitError
from .rdf import Iri
from .value import Value, set_field

if TYPE_CHECKING:
    import xml.etree.ElementTree as ET
    from collections.abc import Iterator

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


class OMSymbol(Value):
    __slots__ = ("cd", "name", "cdbase")

    def __init__(self, cd: str, name: str, cdbase: str = DEFAULT_CDBASE):
        if not is_ncname(cd):
            raise ValueError(f"bad CD name: {cd!r}")
        if not is_ncname(name):
            raise ValueError(f"bad symbol name: {name!r}")
        if not cdbase:
            raise ValueError("cdbase must be nonempty")
        set_field(self, "cd", cd)
        set_field(self, "name", name)
        set_field(self, "cdbase", cdbase)


class OMInteger(Value):
    __slots__ = ("value",)

    def __init__(self, value: int):
        set_field(self, "value", value)


class OMFloat(Value):
    __slots__ = ("value",)

    def __init__(self, value: float):
        set_field(self, "value", value)


class OMVariable(Value):
    __slots__ = ("name",)

    def __init__(self, name: str):
        set_field(self, "name", name)


class OMString(Value):
    __slots__ = ("value",)

    def __init__(self, value: str):
        set_field(self, "value", value)


class OMApplication(Value):
    __slots__ = ("head", "args")

    def __init__(self, head: OMObject, args: tuple[OMObject, ...]):
        args = tuple(args)
        if len(args) < 1:
            raise ValueError("an application needs at least one argument")
        set_field(self, "head", head)
        set_field(self, "args", args)


class OMBinding(Value):
    __slots__ = ("binder", "variables", "body")

    def __init__(self, binder: OMObject, variables: tuple[OMVariable, ...], body: OMObject):
        variables = tuple(variables)
        if not variables:
            raise ValueError("a binding needs at least one bound variable")
        names = [v.name for v in variables]
        if len(set(names)) != len(names):
            raise ValueError(f"bound variable names must be distinct: {names}")
        set_field(self, "binder", binder)
        set_field(self, "variables", variables)
        set_field(self, "body", body)


OMObject = OMSymbol | OMInteger | OMFloat | OMVariable | OMString | OMApplication | OMBinding


def free_variables(obj: OMObject) -> frozenset[str]:
    """The names of the variables with a free occurrence in ``obj``."""
    free = set()
    stack = [(obj, frozenset())]  # each subterm still to visit, with the names bound around it
    while stack:
        obj, bound = stack.pop()
        if isinstance(obj, OMVariable):
            if obj.name not in bound:
                free.add(obj.name)
        elif isinstance(obj, OMApplication):
            stack.append((obj.head, bound))
            stack.extend((a, bound) for a in obj.args)
        elif isinstance(obj, OMBinding):
            stack.append((obj.binder, bound))
            stack.append((obj.body, bound | {v.name for v in obj.variables}))
    return frozenset(free)


def iter_symbols(obj: OMObject) -> Iterator[OMSymbol]:
    """Yield every OMSymbol in the tree, in document order."""
    stack = [obj]
    while stack:
        obj = stack.pop()
        if isinstance(obj, OMSymbol):
            yield obj
        elif isinstance(obj, OMApplication):
            stack.extend(reversed(obj.args))
            stack.append(obj.head)
        elif isinstance(obj, OMBinding):
            stack.append(obj.body)
            stack.append(obj.binder)


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


def om_from_omobj(elem: ET.Element, memo: dict | None = None) -> OMObject:
    """Decode the one child object of an OMOBJ element under the element's cdbase."""
    children = list(elem)
    if len(children) != 1:
        raise EncodingError("OMOBJ", "expected exactly one child object")
    return om_from_element(children[0], elem.get("cdbase", DEFAULT_CDBASE), memo)


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


def parse_xml(text: str) -> ET.Element:
    """Parse XML to its root element.

    A DOCTYPE is an XmlError, raised before any entity is expanded.  This is
    omld's one XML parser, so only a run that reads XML imports ``xml.etree``.
    """
    import xml.etree.ElementTree as ET

    class NoDoctypeBuilder(ET.TreeBuilder):
        def doctype(self, name, pubid, system):
            raise XmlError("a document type declaration is not allowed")

    parser = ET.XMLParser(target=NoDoctypeBuilder())
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
    return om_from_omobj(root)


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
    parts = []
    stack = [obj]  # the objects still to encode and the closing tags, last first
    while stack:
        obj = stack.pop()
        if isinstance(obj, str):
            parts.append(obj)
        elif isinstance(obj, OMApplication):
            parts.append("<OMA>")
            stack.append("</OMA>")
            stack.extend(reversed(obj.args))
            stack.append(obj.head)
        elif isinstance(obj, OMBinding):
            parts.append("<OMBIND>")
            stack += ["</OMBIND>", obj.body, "</OMBVAR>", *reversed(obj.variables), "<OMBVAR>"]
            stack.append(obj.binder)
        elif isinstance(obj, OMSymbol):
            base = "" if obj.cdbase == DEFAULT_CDBASE else f" cdbase={_quote_attr(obj.cdbase)}"
            parts.append(f"<OMS{base} cd={_quote_attr(obj.cd)} name={_quote_attr(obj.name)}/>")
        elif isinstance(obj, OMInteger):
            parts.append(f"<OMI>{obj.value}</OMI>")
        elif isinstance(obj, OMFloat):
            parts.append(f"<OMF dec={_quote_attr(repr(obj.value))}/>")
        elif isinstance(obj, OMVariable):
            parts.append(f"<OMV name={_quote_attr(obj.name)}/>")
        elif isinstance(obj, OMString):
            parts.append(f"<OMSTR>{xml_escape(obj.value)}</OMSTR>")
        else:
            raise TypeError(f"not an OpenMath object: {obj!r}")
    return "".join(parts)


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
