from __future__ import annotations

import logging

import pytest

from omld.cd import (
    DefinitionalFMP,
    DuplicateSymbolError,
    MissingElementError,
    TypedLink,
    extract_links,
    parse_cd_xml,
    serialize_cd_xml,
)
from omld.om import (
    DEFAULT_CDBASE,
    EncodingError,
    OMApplication,
    OMSymbol,
    OMVariable,
    XmlError,
)
from omld.rdf import Iri

from .conftest import fixture_text


def cd_with_fmps(*fmps: str, name: str = "sym", cdname: str = "demo") -> str:
    fmp_xml = "".join(f"<FMP><OMOBJ>{f}</OMOBJ></FMP>" for f in fmps)
    return (
        "<CD><CDName>{cdname}</CDName><CDBase>http://example.org</CDBase>"
        "<Description>d</Description>"
        "<CDDefinition><Name>{name}</Name>{fmps}</CDDefinition></CD>"
    ).format(cdname=cdname, name=name, fmps=fmp_xml)


OWN = '<OMS cdbase="http://example.org" cd="demo" name="sym"/>'
EQ = '<OMS cd="relation1" name="eq"/>'


class TestParsing:
    def test_statistics_fixture(self, statistics_cd):
        assert statistics_cd.cdbase == "http://example.org"
        assert statistics_cd.cdname == "statistics"
        assert len(statistics_cd.definitions) == 1
        (definition,) = statistics_cd.definitions
        assert definition.name == "hdi"
        assert len(definition.fmps) == 1
        assert len(definition.cmps) == 1

    def test_missing_cdbase_defaults(self):
        cd = parse_cd_xml(
            "<CD><CDName>bare</CDName><Description>x</Description>"
            "<CDDefinition><Name>s</Name></CDDefinition></CD>"
        )
        assert cd.cdbase == DEFAULT_CDBASE

    def test_duplicate_symbol(self):
        text = (
            "<CD><CDName>dup</CDName><Description>x</Description>"
            "<CDDefinition><Name>hdi</Name></CDDefinition>"
            "<CDDefinition><Name>hdi</Name></CDDefinition></CD>"
        )
        with pytest.raises(DuplicateSymbolError):
            parse_cd_xml(text)

    def test_missing_name(self):
        with pytest.raises(MissingElementError):
            parse_cd_xml(
                "<CD><CDName>x</CDName><Description>d</Description>"
                "<CDDefinition><Description>no name</Description></CDDefinition></CD>"
            )

    @pytest.mark.parametrize(
        "cdname, name, message",
        [
            ("bad name", "s", "<CDName>: bad CD name: 'bad name'"),
            ("demo", "bad name", "<Name>: bad symbol name: 'bad name'"),
            ("demo", "1st", "<Name>: bad symbol name: '1st'"),
        ],
    )
    def test_non_ncname_rejected(self, cdname, name, message):
        text = f"<CD><CDName>{cdname}</CDName><CDDefinition><Name>{name}</Name></CDDefinition></CD>"
        with pytest.raises(EncodingError) as err:
            parse_cd_xml(text)
        assert str(err.value) == message

    def test_doctype_rejected(self):
        text = '<!DOCTYPE CD [<!ENTITY n "x">]><CD><CDName>&n;</CDName></CD>'
        with pytest.raises(XmlError, match="document type declaration"):
            parse_cd_xml(text)

    def test_cmp_stored_verbatim(self, statistics_cd):
        (definition,) = statistics_cd.definitions
        assert "1/3" in definition.cmps[0]

    def test_symbol_uri(self, statistics_cd):
        assert statistics_cd.symbol_uri("hdi") == Iri("http://example.org/statistics#hdi")


class TestFindDefinition:
    """A symbol's definition is its entry in the CD's table; no entry, no definition."""

    def test_hdi_is_definitional_with_arity_4(self, statistics_cd):
        found = statistics_cd.definitional["hdi"]
        assert isinstance(found, DefinitionalFMP)
        assert found.arity == 4
        assert [p.name for p in found.params] == ["LE", "ALI", "GEI", "GDP"]
        assert found.symbol == OMSymbol(cd="statistics", name="hdi", cdbase="http://example.org")

    def test_symbol_not_first_argument_is_not_definitional(self):
        # eq(other(x), sym(x)): sym is on the right, so no definition.
        fmp = (
            f"<OMA>{EQ}"
            '<OMA><OMS cdbase="http://example.org" cd="demo" name="other"/><OMV name="x"/></OMA>'
            f"<OMA>{OWN}<OMV name='x'/></OMA></OMA>"
        )
        cd = parse_cd_xml(cd_with_fmps(fmp))
        assert "sym" not in cd.definitional

    def test_constant_definition_has_arity_0(self):
        fmp = f"<OMA>{EQ}{OWN}<OMF dec='6.283185307179586'/></OMA>"
        cd = parse_cd_xml(cd_with_fmps(fmp))
        found = cd.definitional["sym"]
        assert isinstance(found, DefinitionalFMP)
        assert found.arity == 0

    def test_no_such_symbol(self, statistics_cd):
        assert "nope" not in statistics_cd.definitional

    def test_repeated_parameters_not_definitional(self):
        fmp = f"<OMA>{EQ}<OMA>{OWN}<OMV name='x'/><OMV name='x'/></OMA><OMV name='x'/></OMA>"
        cd = parse_cd_xml(cd_with_fmps(fmp))
        assert "sym" not in cd.definitional

    def test_free_variable_leak_not_definitional(self):
        fmp = f"<OMA>{EQ}<OMA>{OWN}<OMV name='x'/></OMA><OMV name='y'/></OMA>"
        cd = parse_cd_xml(cd_with_fmps(fmp))
        assert "sym" not in cd.definitional

    def test_non_variable_arguments_not_definitional(self):
        fmp = f"<OMA>{EQ}<OMA>{OWN}<OMI>1</OMI></OMA><OMI>1</OMI></OMA>"
        cd = parse_cd_xml(cd_with_fmps(fmp))
        assert "sym" not in cd.definitional

    def test_first_definitional_fmp_wins(self, caplog):
        first = f"<OMA>{EQ}<OMA>{OWN}<OMV name='x'/></OMA><OMI>1</OMI></OMA>"
        second = f"<OMA>{EQ}<OMA>{OWN}<OMV name='x'/></OMA><OMI>2</OMI></OMA>"
        cd = parse_cd_xml(cd_with_fmps(first, second))
        with caplog.at_level(logging.WARNING):
            found = cd.definitional["sym"]
        assert isinstance(found, DefinitionalFMP)
        assert found.body.value == 1
        assert "more than one definitional" in caplog.text

    def test_skips_bad_fmp_and_uses_later_one(self):
        bad = f"<OMA>{EQ}<OMA>{OWN}<OMV name='x'/></OMA><OMV name='leak'/></OMA>"
        good = f"<OMA>{EQ}<OMA>{OWN}<OMV name='x'/></OMA><OMV name='x'/></OMA>"
        cd = parse_cd_xml(cd_with_fmps(bad, good))
        found = cd.definitional["sym"]
        assert isinstance(found, DefinitionalFMP)
        assert found.body == OMVariable("x")

    def test_deterministic(self, statistics_cd):
        text = fixture_text("cds/statistics.ocd")
        results = {str(parse_cd_xml(text).definitional["hdi"]) for _ in range(5)}
        assert len(results) == 1

    def test_table_built_on_first_use_and_kept(self, statistics_cd):
        assert "definitional" not in vars(statistics_cd)
        table = statistics_cd.definitional
        assert statistics_cd.definitional is table
        # The table is a cache, not a field: a CD with it still equals one without.
        assert statistics_cd == parse_cd_xml(fixture_text("cds/statistics.ocd"))


class TestLinks:
    def test_logarithm_dbpedia_link(self):
        cd = parse_cd_xml(fixture_text("cds/elementary.ocd"))
        links = extract_links(cd)
        assert links == [
            TypedLink(
                subject=Iri("http://example.org/elementary#logarithm"),
                predicate=Iri("http://www.w3.org/2000/01/rdf-schema#seeAlso"),
                object=Iri("http://dbpedia.org/resource/Logarithm"),
            )
        ]

    def test_cd_without_links(self, statistics_cd):
        assert extract_links(statistics_cd) == []

    def test_two_links_in_document_order(self):
        see_also = '<OMS cdbase="http://www.w3.org/2000/01" cd="rdf-schema" name="seeAlso"/>'
        one = f"<OMA>{see_also}{OWN}<OMSTR>http://dbpedia.org/resource/One</OMSTR></OMA>"
        two = f"<OMA>{see_also}{OWN}<OMSTR>http://dbpedia.org/resource/Two</OMSTR></OMA>"
        cd = parse_cd_xml(cd_with_fmps(one, two))
        links = extract_links(cd)
        assert [l.object.value for l in links] == [
            "http://dbpedia.org/resource/One",
            "http://dbpedia.org/resource/Two",
        ]

    def test_non_iri_string_skipped(self):
        see_also = '<OMS cdbase="http://www.w3.org/2000/01" cd="rdf-schema" name="seeAlso"/>'
        bad = f"<OMA>{see_also}{OWN}<OMSTR>not an iri</OMSTR></OMA>"
        cd = parse_cd_xml(cd_with_fmps(bad))
        assert extract_links(cd) == []


class TestSerializeCd:
    def test_fixpoint(self, statistics_cd):
        text = serialize_cd_xml(statistics_cd)
        again = parse_cd_xml(text)
        assert again.cdbase == statistics_cd.cdbase
        assert again.cdname == statistics_cd.cdname
        assert again.definitions == statistics_cd.definitions
        assert serialize_cd_xml(again) == text

    def test_all_fixture_cds_round_trip(self):
        for name in ("statistics", "elementary", "cyclic", "chain"):
            cd = parse_cd_xml(fixture_text(f"cds/{name}.ocd"))
            again = parse_cd_xml(serialize_cd_xml(cd))
            assert again.definitions == cd.definitions
