"""Content Dictionaries: parsing, definitional FMPs, and FMP-encoded links.

A symbol's FMP counts as *definitional* when it applies relation1#eq with the
symbol itself on the left: either ``eq(f(x1..xn), body)`` with distinct
variables (a function definition of arity n) or ``eq(c, body)`` (a constant,
arity 0).  FMPs with repeated variables on the left, or whose right side uses
variables not bound on the left, are skipped.  CMPs are stored verbatim and
never interpreted.

Typed links are FMPs of the shape ``pred(subject, object)`` where the
predicate's symbol URI is in ``DEFAULT_LINK_PREDICATES`` (rdfs:seeAlso) and
both ends denote IRIs.
"""

from __future__ import annotations

import logging
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterator

from .errors import ToolkitError, decode_utf8
from .om import (
    DEFAULT_CDBASE,
    EncodingError,
    OMApplication,
    OMObject,
    OMString,
    OMSymbol,
    OMVariable,
    free_variables,
    is_ncname,
    om_element_text,
    om_from_element,
    parse_xml,
    symbol_iri,
    xml_escape,
)
from .rdf import Iri

log = logging.getLogger(__name__)

EQ_SYMBOL = OMSymbol(cd="relation1", name="eq")

RDFS_SEE_ALSO = "http://www.w3.org/2000/01/rdf-schema#seeAlso"
DEFAULT_LINK_PREDICATES = frozenset({RDFS_SEE_ALSO})


class MissingElementError(ToolkitError):
    def __init__(self, path: str):
        self.path = path
        super().__init__(f"missing element: {path}")


class DuplicateSymbolError(ToolkitError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"symbol defined twice: {name}")


@dataclass(frozen=True)
class SymbolDefinition:
    name: str
    description: str
    cmps: tuple[str, ...]
    fmps: tuple[OMObject, ...]


@dataclass(frozen=True)
class ContentDictionary:
    cdbase: str
    cdname: str
    description: str
    definitions: tuple[SymbolDefinition, ...]
    source_url: str | None = None

    def definition(self, name: str) -> SymbolDefinition | None:
        for d in self.definitions:
            if d.name == name:
                return d
        return None

    def symbol(self, name: str) -> OMSymbol:
        return OMSymbol(cd=self.cdname, name=name, cdbase=self.cdbase)

    def symbol_uri(self, name: str) -> Iri:
        return symbol_iri(self.symbol(name))

    @cached_property
    def definitional(self) -> dict[str, DefinitionalFMP]:
        """Each defined symbol's definitional FMP by name, built on first use.

        The first definitional FMP in document order wins; a symbol without
        one is absent.
        """
        table: dict[str, DefinitionalFMP] = {}
        for definition in self.definitions:
            own = self.symbol(definition.name)
            for fmp in definition.fmps:
                found = _as_definitional(fmp, own)
                if found is None:
                    continue
                if definition.name in table:
                    log.warning(
                        "%s#%s has more than one definitional FMP; keeping the first",
                        self.cdname,
                        definition.name,
                    )
                    break
                table[definition.name] = found
        return table


@dataclass(frozen=True)
class DefinitionalFMP:
    symbol: OMSymbol
    params: tuple[OMVariable, ...]
    body: OMObject

    @property
    def arity(self) -> int:
        return len(self.params)


@dataclass(frozen=True)
class TypedLink:
    subject: Iri
    predicate: Iri
    object: Iri


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _child_text(elem: ET.Element, name: str) -> str | None:
    for c in elem:
        if _local(c.tag) == name:
            return (c.text or "").strip()
    return None


def parse_cd_xml(text: str, source_url: Iri | str | None = None) -> ContentDictionary:
    """Parse CD XML.  A missing CDBase element falls back to the default.

    The CD name and every symbol name must be NCNames, as in an OMSymbol.
    """
    root = parse_xml(text)
    if _local(root.tag) != "CD":
        raise MissingElementError("CD")

    cdname = _child_text(root, "CDName")
    if not cdname:
        raise MissingElementError("CD/CDName")
    if not is_ncname(cdname):
        raise EncodingError("CDName", f"bad CD name: {cdname!r}")
    cdbase = _child_text(root, "CDBase") or DEFAULT_CDBASE
    description = _child_text(root, "Description") or ""

    definitions: list[SymbolDefinition] = []
    seen: set[str] = set()
    memo: dict = {}  # one object per distinct symbol and variable across the FMPs
    for elem in root:
        if _local(elem.tag) != "CDDefinition":
            continue
        name = _child_text(elem, "Name")
        if not name:
            raise MissingElementError("CD/CDDefinition/Name")
        if not is_ncname(name):
            raise EncodingError("Name", f"bad symbol name: {name!r}")
        if name in seen:
            raise DuplicateSymbolError(name)
        seen.add(name)
        cmps = []
        fmps = []
        for child in elem:
            tag = _local(child.tag)
            if tag == "CMP":
                cmps.append((child.text or "").strip())
            elif tag == "FMP":
                omobj = None
                for sub in child:
                    if _local(sub.tag) == "OMOBJ":
                        omobj = sub
                        break
                if omobj is None:
                    raise MissingElementError(f"CD/CDDefinition[{name}]/FMP/OMOBJ")
                inner = list(omobj)
                if len(inner) != 1:
                    raise EncodingError("OMOBJ", "expected exactly one child object")
                fmps.append(om_from_element(inner[0], omobj.get("cdbase", DEFAULT_CDBASE), memo))
        definitions.append(
            SymbolDefinition(
                name=name,
                description=_child_text(elem, "Description") or "",
                cmps=tuple(cmps),
                fmps=tuple(fmps),
            )
        )

    src = source_url.value if isinstance(source_url, Iri) else source_url
    return ContentDictionary(
        cdbase=cdbase,
        cdname=cdname,
        description=description,
        definitions=tuple(definitions),
        source_url=src,
    )


@dataclass(frozen=True)
class LoadedCd:
    """A CD parsed from a file, and the bytes it was parsed from."""

    path: Path
    cd: ContentDictionary
    raw: bytes


def load_cd_directory(directory: str | Path) -> Iterator[LoadedCd]:
    """Parse each ``*.ocd`` file of a directory, in name order, from one read of it.

    Any error of a file, a parse error or bytes that are not UTF-8, is a
    ToolkitError whose message starts with the file's path.
    """
    for file in sorted(Path(directory).glob("*.ocd")):
        raw = file.read_bytes()
        text = decode_utf8(raw, file)
        try:
            cd = parse_cd_xml(text, source_url=file.resolve().as_uri())
        except ToolkitError as exc:
            raise ToolkitError(f"{file}: {exc}") from exc
        yield LoadedCd(path=file, cd=cd, raw=raw)


def _as_definitional(fmp: OMObject, own: OMSymbol) -> DefinitionalFMP | None:
    if not isinstance(fmp, OMApplication) or fmp.head != EQ_SYMBOL or len(fmp.args) != 2:
        return None
    lhs, rhs = fmp.args
    if lhs == own:
        params: tuple[OMVariable, ...] = ()
    elif isinstance(lhs, OMApplication) and lhs.head == own:
        if not all(isinstance(a, OMVariable) for a in lhs.args):
            return None
        names = [a.name for a in lhs.args]
        if len(set(names)) != len(names):
            return None  # nonlinear left side: not usable for rewriting
        params = lhs.args
    else:
        return None
    if not free_variables(rhs) <= {p.name for p in params}:
        return None
    return DefinitionalFMP(symbol=own, params=params, body=rhs)


def _link_end(obj: OMObject) -> Iri | None:
    if isinstance(obj, OMSymbol):
        return symbol_iri(obj)
    if isinstance(obj, OMString):
        try:
            return Iri(obj.value)
        except ValueError:
            return None
    return None


def extract_links(cd: ContentDictionary) -> list[TypedLink]:
    """Typed links encoded as ``pred(subject, object)`` FMPs, document order."""
    links: list[TypedLink] = []
    for definition in cd.definitions:
        own_uri = cd.symbol_uri(definition.name)
        for fmp in definition.fmps:
            if not isinstance(fmp, OMApplication) or len(fmp.args) != 2:
                continue
            if not isinstance(fmp.head, OMSymbol):
                continue
            if symbol_iri(fmp.head).value not in DEFAULT_LINK_PREDICATES:
                continue
            subj = _link_end(fmp.args[0])
            obj = _link_end(fmp.args[1])
            if subj is None or obj is None:
                continue
            if fmp.args[0] == cd.symbol(definition.name):
                subj = own_uri
            links.append(TypedLink(subject=subj, predicate=symbol_iri(fmp.head), object=obj))
    return links


def serialize_cd_xml(cd: ContentDictionary) -> str:
    """Encode a CD back to XML; re-parsing yields an equal dictionary."""
    parts = ["<CD>"]
    parts.append(f"  <CDName>{xml_escape(cd.cdname)}</CDName>")
    parts.append(f"  <CDBase>{xml_escape(cd.cdbase)}</CDBase>")
    parts.append(f"  <Description>{xml_escape(cd.description)}</Description>")
    for d in cd.definitions:
        parts.append("  <CDDefinition>")
        parts.append(f"    <Name>{xml_escape(d.name)}</Name>")
        parts.append(f"    <Description>{xml_escape(d.description)}</Description>")
        for cmp_text in d.cmps:
            parts.append(f"    <CMP>{xml_escape(cmp_text)}</CMP>")
        for fmp in d.fmps:
            parts.append(f"    <FMP><OMOBJ>{om_element_text(fmp)}</OMOBJ></FMP>")
        parts.append("  </CDDefinition>")
    parts.append("</CD>")
    return "\n".join(parts) + "\n"
