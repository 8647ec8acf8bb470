"""OpenMath objects, their XML encoding, and symbol URIs.

The object model covers OMS/OMI/OMF/OMV/OMA/OMBIND/OMSTR from the OpenMath 2
XML encoding.  Floats are read from the ``dec`` attribute only; the ``hex``
encoding is rejected.  All values are immutable, and structural equality is
exact: ``OMInteger(2)`` and ``OMFloat(2.0)`` are different objects (numeric
comparison belongs to the evaluator, not the encoding layer).

Symbol URIs come in two shapes: hash (``cdbase/cd#name``) and slash
(``cdbase/cd/name``).  Hash URIs force a client to fetch the whole CD, since
the fragment never reaches the server; slash URIs allow per-symbol documents.
"""

from __future__ import annotations

import enum
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


@dataclass(frozen=True)
class OMSymbol:
    cd: str
    name: str
    cdbase: str = DEFAULT_CDBASE

    def __post_init__(self):
        if not _NCNAME_RE.fullmatch(self.cd):
            raise ValueError(f"bad CD name: {self.cd!r}")
        if not _NCNAME_RE.fullmatch(self.name):
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


def om_from_element(elem: ET.Element, cdbase: str = DEFAULT_CDBASE) -> OMObject:
    """Decode one OpenMath element (namespaced or not) into an object.

    ``cdbase`` is inherited downward; an explicit attribute overrides it for
    the subtree rooted at that element.
    """
    cdbase = elem.get("cdbase", cdbase)
    tag = _local(elem.tag)

    if tag == "OMS":
        cd, name = elem.get("cd"), elem.get("name")
        if cd is None or name is None:
            raise EncodingError("OMS", "both 'cd' and 'name' are required")
        try:
            return OMSymbol(cd=cd, name=name, cdbase=cdbase)
        except ValueError as exc:
            raise EncodingError("OMS", str(exc)) from exc
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
    if tag == "OMV":
        name = elem.get("name")
        if not name:
            raise EncodingError("OMV", "missing 'name' attribute")
        return OMVariable(name)
    if tag == "OMSTR":
        return OMString(elem.text or "")
    if tag == "OMA":
        children = list(elem)
        if len(children) < 2:
            raise EncodingError("OMA", "an application needs a head and at least one argument")
        parsed = [om_from_element(c, cdbase) for c in children]
        return OMApplication(parsed[0], tuple(parsed[1:]))
    if tag == "OMBIND":
        children = list(elem)
        if len(children) != 3 or _local(children[1].tag) != "OMBVAR":
            raise EncodingError("OMBIND", "expected binder, OMBVAR, body")
        binder = om_from_element(children[0], cdbase)
        variables = []
        for v in children[1]:
            parsed = om_from_element(v, cdbase)
            if not isinstance(parsed, OMVariable):
                raise EncodingError("OMBVAR", "only OMV children are allowed")
            variables.append(parsed)
        body = om_from_element(children[2], cdbase)
        try:
            return OMBinding(binder, tuple(variables), body)
        except ValueError as exc:
            raise EncodingError("OMBIND", str(exc)) from exc
    raise EncodingError(tag, "unknown OpenMath element")


def parse_om_xml(text: str) -> OMObject:
    """Parse an OMOBJ document into an OpenMath object."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise XmlError(f"malformed XML: {exc}") from exc
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


class UriScheme(enum.Enum):
    HASH = "hash"
    SLASH = "slash"


@dataclass(frozen=True)
class SymbolUri:
    scheme: UriScheme
    cdbase: str
    cd: str
    name: str

    @classmethod
    def hash(cls, cdbase: str, cd: str, name: str) -> "SymbolUri":
        return cls(UriScheme.HASH, cdbase, cd, name)

    @classmethod
    def slash(cls, cdbase: str, cd: str, name: str) -> "SymbolUri":
        return cls(UriScheme.SLASH, cdbase, cd, name)

    def to_symbol(self) -> OMSymbol:
        return OMSymbol(cd=self.cd, name=self.name, cdbase=self.cdbase)


def render_symbol_uri(uri: SymbolUri) -> Iri:
    base = uri.cdbase.rstrip("/")
    sep = "#" if uri.scheme is UriScheme.HASH else "/"
    return Iri(f"{base}/{uri.cd}{sep}{uri.name}")


def symbol_iri(sym: OMSymbol, scheme: UriScheme = UriScheme.HASH) -> Iri:
    return render_symbol_uri(SymbolUri(scheme, sym.cdbase, sym.cd, sym.name))


def parse_symbol_uri(iri: Iri | str) -> SymbolUri:
    """Split a symbol IRI into (scheme, cdbase, cd, name).

    A fragment makes it a hash URI whose cd is the last path segment;
    otherwise the last two segments are cd/name.  Anything with too few
    segments (or a query string) is rejected.
    """
    text = iri.value if isinstance(iri, Iri) else iri
    parts = urlsplit(text)
    if not parts.scheme or parts.query:
        raise MalformedSymbolUriError(text)
    segments = [s for s in parts.path.split("/") if s]

    if parts.fragment:
        if not segments:
            raise MalformedSymbolUriError(text)
        cd = segments[-1]
        cdbase = f"{parts.scheme}://{parts.netloc}" + "".join("/" + s for s in segments[:-1])
        return SymbolUri(UriScheme.HASH, cdbase, cd, parts.fragment)

    if len(segments) < 2:
        raise MalformedSymbolUriError(text)
    cd, name = segments[-2], segments[-1]
    cdbase = f"{parts.scheme}://{parts.netloc}" + "".join("/" + s for s in segments[:-2])
    return SymbolUri(UriScheme.SLASH, cdbase, cd, name)


def symbol_from_iri(iri: Iri | str) -> OMSymbol:
    """Convenience: parse a symbol URI straight into an OMSymbol."""
    return parse_symbol_uri(iri).to_symbol()
