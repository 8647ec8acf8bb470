from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omld.om import (
    DEFAULT_CDBASE,
    EncodingError,
    MalformedSymbolUriError,
    OMApplication,
    OMBinding,
    OMFloat,
    OMInteger,
    OMString,
    OMSymbol,
    OMVariable,
    XmlError,
    cd_url,
    free_variables,
    parse_om_xml,
    parse_symbol_uri,
    serialize_om_xml,
    symbol_iri,
)

from .strategies import om_objects

DIVIDE = OMSymbol(cd="arith1", name="divide")


class TestParse:
    def test_symbol_gets_default_cdbase(self):
        obj = parse_om_xml('<OMOBJ><OMS cd="arith1" name="divide"/></OMOBJ>')
        assert obj == OMSymbol(cd="arith1", name="divide", cdbase=DEFAULT_CDBASE)

    def test_integer(self):
        assert parse_om_xml("<OMOBJ><OMI>693</OMI></OMOBJ>") == OMInteger(693)
        assert parse_om_xml("<OMOBJ><OMI> -42 </OMI></OMOBJ>") == OMInteger(-42)

    def test_big_integer(self):
        big = 10**40 + 7
        assert parse_om_xml(f"<OMOBJ><OMI>{big}</OMI></OMOBJ>") == OMInteger(big)

    def test_application(self):
        text = (
            '<OMOBJ><OMA><OMS cd="arith1" name="divide"/>'
            "<OMI>693</OMI><OMI>380</OMI></OMA></OMOBJ>"
        )
        assert parse_om_xml(text) == OMApplication(DIVIDE, (OMInteger(693), OMInteger(380)))

    def test_float_from_dec(self):
        assert parse_om_xml('<OMOBJ><OMF dec="1.5"/></OMOBJ>') == OMFloat(1.5)

    def test_float_hex_rejected(self):
        with pytest.raises(EncodingError):
            parse_om_xml('<OMOBJ><OMF hex="3FF8000000000000"/></OMOBJ>')

    def test_missing_attributes(self):
        with pytest.raises(EncodingError):
            parse_om_xml('<OMOBJ><OMS cd="arith1"/></OMOBJ>')
        with pytest.raises(EncodingError):
            parse_om_xml("<OMOBJ><OMF/></OMOBJ>")

    def test_unknown_element(self):
        with pytest.raises(EncodingError):
            parse_om_xml("<OMOBJ><OMWAT/></OMOBJ>")

    def test_malformed_xml(self):
        with pytest.raises(XmlError):
            parse_om_xml("<OMOBJ><OMI>1")

    def test_doctype_rejected(self):
        text = '<!DOCTYPE OMOBJ [<!ENTITY one "1">]><OMOBJ><OMI>&one;</OMI></OMOBJ>'
        with pytest.raises(XmlError, match="document type declaration"):
            parse_om_xml(text)

    def test_namespaced_input_accepted(self):
        text = (
            '<OMOBJ xmlns="http://www.openmath.org/OpenMath">'
            '<OMS cd="arith1" name="plus"/></OMOBJ>'
        )
        assert parse_om_xml(text) == OMSymbol(cd="arith1", name="plus")

    def test_cdbase_attribute_inherited(self):
        text = (
            '<OMOBJ cdbase="http://example.org">'
            '<OMA><OMS cd="statistics" name="hdi"/><OMI>1</OMI></OMA></OMOBJ>'
        )
        obj = parse_om_xml(text)
        assert obj.head.cdbase == "http://example.org"

    def test_binding(self):
        text = (
            '<OMOBJ><OMBIND><OMS cd="fns1" name="lambda"/>'
            '<OMBVAR><OMV name="x"/></OMBVAR><OMV name="x"/></OMBIND></OMOBJ>'
        )
        obj = parse_om_xml(text)
        assert isinstance(obj, OMBinding)
        assert obj.variables == (OMVariable("x"),)

    def test_parse_never_yields_empty_cdbase(self):
        obj = parse_om_xml('<OMOBJ><OMS cd="c" name="n"/></OMOBJ>')
        assert obj.cdbase


class TestInvariants:
    def test_application_needs_an_argument(self):
        with pytest.raises(ValueError):
            OMApplication(DIVIDE, ())

    def test_binding_variable_rules(self):
        lam = OMSymbol(cd="fns1", name="lambda")
        with pytest.raises(ValueError):
            OMBinding(lam, (), OMInteger(1))
        with pytest.raises(ValueError):
            OMBinding(lam, (OMVariable("x"), OMVariable("x")), OMInteger(1))

    def test_integer_and_float_are_distinct(self):
        assert OMInteger(2) != OMFloat(2.0)

    def test_free_variables(self):
        lam = OMSymbol(cd="fns1", name="lambda")
        term = OMApplication(
            DIVIDE,
            (OMBinding(lam, (OMVariable("x"),), OMVariable("x")), OMVariable("y")),
        )
        assert free_variables(term) == {"y"}


class TestSerialize:
    def test_zero(self):
        assert serialize_om_xml(OMInteger(0)) == "<OMOBJ><OMI>0</OMI></OMOBJ>"

    def test_default_cdbase_omitted(self):
        assert serialize_om_xml(DIVIDE) == '<OMOBJ><OMS cd="arith1" name="divide"/></OMOBJ>'

    def test_nondefault_cdbase_written(self):
        sym = OMSymbol(cd="statistics", name="hdi", cdbase="http://example.org")
        text = serialize_om_xml(sym)
        assert 'cdbase="http://example.org"' in text
        assert parse_om_xml(text) == sym

    def test_division_object_round_trip(self):
        obj = OMApplication(DIVIDE, (OMInteger(693), OMInteger(380)))
        assert parse_om_xml(serialize_om_xml(obj)) == obj

    def test_string_escaping(self):
        awkward = '" & < > \n \t om'
        for obj in (
            OMString('<&"> om'),
            OMString(awkward),
            OMVariable(awkward + "\r"),
            OMSymbol("arith1", "plus", cdbase=awkward + "\r"),
        ):
            assert parse_om_xml(serialize_om_xml(obj)) == obj


class TestRoundTripProperty:
    @settings(max_examples=150, deadline=None)
    @given(om_objects())
    def test_parse_serialize_parse(self, obj):
        assert parse_om_xml(serialize_om_xml(obj)) == obj


class TestSymbolUris:
    def test_render_hash_default_base(self):
        assert symbol_iri(DIVIDE).value == "http://www.openmath.org/cd/arith1#divide"

    def test_render_hash_statistics(self):
        sym = OMSymbol(cd="statistics", name="hdi", cdbase="http://example.org")
        assert symbol_iri(sym).value == "http://example.org/statistics#hdi"

    def test_parse_hash(self):
        assert parse_symbol_uri("http://www.openmath.org/cd/arith1#divide") == DIVIDE

    def test_parse_slash(self):
        sym = parse_symbol_uri("http://cdba.se/cd/name")
        assert sym == OMSymbol(cd="cd", name="name", cdbase="http://cdba.se")

    def test_hash_and_slash_name_one_symbol(self):
        assert parse_symbol_uri("http://cdba.se/a/cd#name") == parse_symbol_uri(
            "http://cdba.se/a/cd/name"
        )

    def test_cd_url_drops_one_trailing_slash(self):
        assert cd_url("http://cdba.se", "cd") == "http://cdba.se/cd"
        assert cd_url("http://cdba.se/", "cd") == "http://cdba.se/cd"
        assert cd_url("http://cdba.se//", "cd") == "http://cdba.se//cd"

    def test_degenerate_path_rejected(self):
        with pytest.raises(MalformedSymbolUriError):
            parse_symbol_uri("http://x.org/#a")
        with pytest.raises(MalformedSymbolUriError):
            parse_symbol_uri("http://x.org/onlyone")

    @pytest.mark.parametrize(
        "iri",
        [
            "http://www.openmath.org/cd/arith1#1divide",
            "http://www.openmath.org/cd/arith%201#divide",
            "http://www.openmath.org/cd/arith1/di vide",
            "http://www.openmath.org/cd/arith1#",
            "http://[::1/cd#name",
        ],
    )
    def test_non_ncname_segment_rejected(self, iri):
        with pytest.raises(MalformedSymbolUriError):
            parse_symbol_uri(iri)

    @settings(max_examples=150, deadline=None)
    @given(
        host=st.from_regex(r"[a-z][a-z0-9]{0,8}", fullmatch=True),
        segments=st.lists(st.from_regex(r"[A-Za-z0-9_\-]{1,8}", fullmatch=True), max_size=3),
        cd=st.from_regex(r"[A-Za-z_][A-Za-z0-9_\-]{0,8}", fullmatch=True),
        name=st.from_regex(r"[A-Za-z_][A-Za-z0-9_\-]{0,8}", fullmatch=True),
    )
    def test_render_parse_bijection(self, host, segments, cd, name):
        cdbase = f"http://{host}.example" + "".join("/" + s for s in segments)
        sym = OMSymbol(cd=cd, name=name, cdbase=cdbase)
        assert parse_symbol_uri(symbol_iri(sym)) == sym
