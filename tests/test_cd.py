from __future__ import annotations

import logging
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omld.cd import (
    DefinitionalFMP,
    DuplicateSymbolError,
    MissingElementError,
    extract_links,
    load_cd_directory,
    parse_cd_xml,
    serialize_cd_xml,
)
from omld.errors import ToolkitError
from omld.om import (
    DEFAULT_CDBASE,
    EncodingError,
    OMApplication,
    OMBinding,
    OMSymbol,
    OMVariable,
    XmlError,
    parse_om_xml,
)
from omld.rdf import Iri, Triple

from .conftest import CD_DIR, fixture_text
from .strategies import xml_mutations

FIXTURE_CDS = [path.read_text(encoding="utf-8") for path in sorted(CD_DIR.glob("*.ocd"))]


def cd_with_fmps(*fmps: str, name: str = "sym", cdname: str = "demo") -> str:
    fmp_xml = "".join(f"<FMP><OMOBJ>{f}</OMOBJ></FMP>" for f in fmps)
    return (
        "<CD><CDName>{cdname}</CDName><CDBase>http://example.org</CDBase>"
        "<Description>d</Description>"
        "<CDDefinition><Name>{name}</Name>{fmps}</CDDefinition></CD>"
    ).format(cdname=cdname, name=name, fmps=fmp_xml)


OWN = '<OMS cdbase="http://example.org" cd="demo" name="sym"/>'
EQ = '<OMS cd="relation1" name="eq"/>'
ONE_CHILD = "<OMOBJ>: expected exactly one child object"


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

    @pytest.mark.parametrize(
        "omobj, expected",
        [
            ("<OMOBJ/>", ONE_CHILD),
            ("<OMOBJ><OMI>1</OMI><OMI>2</OMI></OMOBJ>", ONE_CHILD),
            (
                '<OMOBJ cdbase="http://cd.example"><OMS cd="a" name="b"/></OMOBJ>',
                OMSymbol("a", "b", "http://cd.example"),
            ),
            (
                '<OMOBJ cdbase="http://cd.example">'
                '<OMS cdbase="http://x.example" cd="a" name="b"/></OMOBJ>',
                OMSymbol("a", "b", "http://x.example"),
            ),
        ],
    )
    def test_an_fmp_decodes_as_an_openmath_document(self, omobj, expected):
        cd_text = cd_with_fmps().replace("</Name>", f"</Name><FMP>{omobj}</FMP>")
        if isinstance(expected, str):
            for parse, text in ((parse_om_xml, omobj), (parse_cd_xml, cd_text)):
                with pytest.raises(EncodingError) as err:
                    parse(text)
                assert str(err.value) == expected
        else:
            assert parse_om_xml(omobj) == expected
            assert parse_cd_xml(cd_text).definitions[0].fmps == (expected,)

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
            Triple(
                Iri("http://example.org/elementary#logarithm"),
                Iri("http://www.w3.org/2000/01/rdf-schema#seeAlso"),
                Iri("http://dbpedia.org/resource/Logarithm"),
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


def _symbols_and_variables(obj):
    """Every OMSymbol and OMVariable in a tree, by an explicit-stack walk."""
    stack = [obj]
    while stack:
        node = stack.pop()
        if isinstance(node, (OMSymbol, OMVariable)):
            yield node
        elif isinstance(node, OMApplication):
            stack += [node.head, *node.args]
        elif isinstance(node, OMBinding):
            stack += [node.binder, *node.variables, node.body]


class TestInterning:
    def test_one_object_per_symbol_and_variable_across_fmps(self):
        cd = parse_cd_xml(fixture_text("cds/chain.ocd"))
        seen: dict = {}
        occurrences = 0
        for definition in cd.definitions:
            for fmp in definition.fmps:
                for node in _symbols_and_variables(fmp):
                    assert seen.setdefault(node, node) is node
                    occurrences += 1
        assert occurrences > 3 * len(seen)
        # c2 is applied in c1's FMP and defined by its own.
        c1_fmp, c2_fmp = cd.definitions[0].fmps[0], cd.definitions[1].fmps[0]
        assert c1_fmp.args[1].args[0].head is c2_fmp.args[0].head

    def test_two_parses_share_nothing(self):
        text = fixture_text("cds/chain.ocd")
        one, two = parse_cd_xml(text), parse_cd_xml(text)
        assert one.definitions == two.definitions
        ids = {id(n) for d in one.definitions for f in d.fmps for n in _symbols_and_variables(f)}
        for d in two.definitions:
            for fmp in d.fmps:
                assert not any(id(n) in ids for n in _symbols_and_variables(fmp))


class TestLoadCdDirectory:
    @pytest.mark.parametrize(
        "text, message",
        [
            ("<CD>", "malformed XML: "),
            ('<!DOCTYPE CD [<!ENTITY n "x">]><CD><CDName>&n;</CDName></CD>', "a document type"),
            (
                "<CD><CDName>d</CDName><CDDefinition><Name>s</Name></CDDefinition>"
                "<CDDefinition><Name>s</Name></CDDefinition></CD>",
                "symbol defined twice: s",
            ),
            (
                "<CD><CDName>d</CDName><CDDefinition><Name>bad name</Name></CDDefinition></CD>",
                "<Name>: bad symbol name: 'bad name'",
            ),
            (
                "<CD><CDName>d</CDName><CDDefinition><Name>s</Name>"
                "<FMP><OMOBJ><OMA><OMI>1</OMI></OMA></OMOBJ></FMP></CDDefinition></CD>",
                "<OMA>: an application needs",
            ),
        ],
    )
    def test_a_parse_error_names_the_file(self, tmp_path, text, message):
        shutil.copy(CD_DIR / "statistics.ocd", tmp_path)
        (tmp_path / "broken.ocd").write_text(text, encoding="utf-8")
        with pytest.raises(ToolkitError) as info:
            list(load_cd_directory(tmp_path))
        assert str(info.value).startswith(f"{tmp_path / 'broken.ocd'}: {message}")

    def test_each_file_is_read_once_as_bytes(self, monkeypatch):
        disk = {p.name: p.read_bytes() for p in CD_DIR.glob("*.ocd")}
        reads = []
        read_bytes = Path.read_bytes

        def counting_read_bytes(path):
            reads.append(path.name)
            return read_bytes(path)

        monkeypatch.setattr(Path, "read_bytes", counting_read_bytes)
        monkeypatch.delattr(Path, "read_text")
        loaded = list(load_cd_directory(CD_DIR))
        assert reads == sorted(disk)
        assert [entry.path.name for entry in loaded] == sorted(disk)
        for entry in loaded:
            assert entry.raw == disk[entry.path.name]
            assert entry.cd == parse_cd_xml(entry.raw.decode(), source_url=entry.cd.source_url)


class TestParseFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(FIXTURE_CDS).flatmap(xml_mutations))
    def test_only_toolkit_errors_escape(self, text):
        try:
            parse_cd_xml(text)
        except ToolkitError:
            pass
