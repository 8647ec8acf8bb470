"""Content Dictionaries: parsing, definitional FMPs, and FMP-encoded links.

A symbol's FMP counts as *definitional* when it applies relation1#eq with the
symbol itself on the left: either ``eq(f(x1..xn), body)`` with distinct
variables (a function definition of arity n) or ``eq(c, body)`` (a constant,
arity 0).  FMPs with repeated variables on the left, or whose right side uses
variables not bound on the left, are skipped.  CMPs are stored verbatim and
never interpreted.

A typed link is an FMP ``pred(subject, object)`` whose predicate is the
symbol ``RDFS_SEE_ALSO`` and whose ends both denote IRIs: a symbol stands for
its symbol URI, a string for the IRI it spells.  ``extract_links`` returns
each link as the RDF ``Triple`` it states.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from functools import cached_property
from pathlib import Path
from typing import Iterator

from .errors import ToolkitError, read_file
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
    _local,
    om_element_text,
    om_from_omobj,
    parse_xml,
    symbol_iri,
    xml_escape,
)
from .rdf import Iri, Triple
from .value import Value, set_field

EQ_SYMBOL = OMSymbol(cd="relation1", name="eq")

RDFS_SEE_ALSO = "http://www.w3.org/2000/01/rdf-schema#seeAlso"


class MissingElementError(ToolkitError):
    def __init__(self, path: str):
        self.path = path
        super().__init__(f"missing element: {path}")


class DuplicateSymbolError(ToolkitError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"symbol defined twice: {name}")


class SymbolDefinition(Value):
    __slots__ = ("name", "description", "cmps", "fmps")

    def __init__(
        self, name: str, description: str, cmps: tuple[str, ...], fmps: tuple[OMObject, ...]
    ):
        set_field(self, "name", name)
        set_field(self, "description", description)
        set_field(self, "cmps", cmps)
        set_field(self, "fmps", fmps)


class ContentDictionary(Value):
    __slots__ = ("cdbase", "cdname", "description", "definitions", "source_url", "__dict__")

    def __init__(
        self,
        cdbase: str,
        cdname: str,
        description: str,
        definitions: tuple[SymbolDefinition, ...],
        source_url: str | None = None,
    ):
        set_field(self, "cdbase", cdbase)
        set_field(self, "cdname", cdname)
        set_field(self, "description", description)
        set_field(self, "definitions", definitions)
        set_field(self, "source_url", source_url)

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
                    import logging  # only this warning logs

                    logging.getLogger(__name__).warning(
                        "%s#%s has more than one definitional FMP; keeping the first",
                        self.cdname,
                        definition.name,
                    )
                    break
                table[definition.name] = found
        return table


class DefinitionalFMP(Value):
    __slots__ = ("symbol", "params", "body")

    def __init__(self, symbol: OMSymbol, params: tuple[OMVariable, ...], body: OMObject):
        set_field(self, "symbol", symbol)
        set_field(self, "params", params)
        set_field(self, "body", body)

    @property
    def arity(self) -> int:
        return len(self.params)


def _child_text(elem: ET.Element, name: str) -> str | None:
    for c in elem:
        if _local(c.tag) == name:
            return (c.text or "").strip()
    return None


def parse_cd_xml(text: str, source_url: str | None = None) -> ContentDictionary:
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
                omobj = next((sub for sub in child if _local(sub.tag) == "OMOBJ"), None)
                if omobj is None:
                    raise MissingElementError(f"CD/CDDefinition[{name}]/FMP/OMOBJ")
                fmps.append(om_from_omobj(omobj, memo))
        definitions.append(
            SymbolDefinition(
                name=name,
                description=_child_text(elem, "Description") or "",
                cmps=tuple(cmps),
                fmps=tuple(fmps),
            )
        )

    return ContentDictionary(
        cdbase=cdbase,
        cdname=cdname,
        description=description,
        definitions=tuple(definitions),
        source_url=source_url,
    )


class LoadedCd(Value):
    """A CD parsed from a file, and the bytes it was parsed from."""

    __slots__ = ("path", "cd", "raw")

    def __init__(self, path: Path, cd: ContentDictionary, raw: bytes):
        set_field(self, "path", path)
        set_field(self, "cd", cd)
        set_field(self, "raw", raw)


def load_cd_directory(directory: str | Path) -> Iterator[LoadedCd]:
    """Parse each ``*.ocd`` file of a directory, in name order, from one read of it.

    Any error of a file (unreadable, not UTF-8, or a parse error) is a
    ToolkitError whose message starts with the file's path.
    """
    for file in sorted(Path(directory).glob("*.ocd")):
        raw, text = read_file(file)
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


def extract_links(cd: ContentDictionary) -> list[Triple]:
    """The triples of the typed links encoded as ``pred(subject, object)`` FMPs, document order."""
    links: list[Triple] = []
    for definition in cd.definitions:
        for fmp in definition.fmps:
            if not isinstance(fmp, OMApplication) or len(fmp.args) != 2:
                continue
            if not isinstance(fmp.head, OMSymbol):
                continue
            predicate = symbol_iri(fmp.head)
            if predicate.value != RDFS_SEE_ALSO:
                continue
            subj = _link_end(fmp.args[0])
            obj = _link_end(fmp.args[1])
            if subj is None or obj is None:
                continue
            links.append(Triple(subj, predicate, obj))
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
