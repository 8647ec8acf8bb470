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
    om_from_element,
    parse_om_xml,
    parse_symbol_uri,
    parse_xml,
    serialize_om_xml,
    symbol_iri,
)

from .helpers import om_from_element_recursive, recursion_limit
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


LAMBDA = '<OMS cd="fns1" name="lambda"/>'
PLUS = '<OMS cd="arith1" name="plus"/>'
# Malformed OpenMath, each failing in the first place its name gives.
MALFORMED = {
    "oms without cd": '<OMS name="plus"/>',
    "oms without name": '<OMS cd="arith1"/>',
    "oms with a bad name": '<OMS cd="arith1" name="1plus"/>',
    "oma with only a head": f"<OMA>{PLUS}</OMA>",
    "hex omf": '<OMF hex="3FF8000000000000"/>',
    "omf without dec": "<OMF/>",
    "omf with a bad dec": '<OMF dec="one"/>',
    "omi with a bad integer": "<OMI>1.5</OMI>",
    "omv without name": "<OMV/>",
    "ombvar holding an omi": (
        f"<OMBIND>{LAMBDA}<OMBVAR><OMI>1</OMI></OMBVAR><OMV name='x'/></OMBIND>"
    ),
    "ombind with two children": f"<OMBIND>{LAMBDA}<OMBVAR><OMV name='x'/></OMBVAR></OMBIND>",
    "ombind without ombvar": f"<OMBIND>{LAMBDA}<OMV name='x'/><OMV name='x'/></OMBIND>",
    "empty ombvar": f"<OMBIND>{LAMBDA}<OMBVAR/><OMV name='x'/></OMBIND>",
    "repeated bound variable": (
        f"<OMBIND>{LAMBDA}<OMBVAR><OMV name='x'/><OMV name='x'/></OMBVAR><OMV name='x'/></OMBIND>"
    ),
    "unknown tag": "<OMWAT/>",
    "nested cdbase override": (
        f'<OMA cdbase="http://a.example">{PLUS}<OMA cdbase="">{PLUS}<OMI>1</OMI></OMA></OMA>'
    ),
    # Each of these has two faults; the first in document order wins.
    "bad head before bad argument": "<OMA><OMS cd='a' name='1'/><OMWAT/></OMA>",
    "bad argument before short application": f"<OMA>{PLUS}<OMF/><OMA>{PLUS}</OMA></OMA>",
    "bad binder before bad variable": (
        "<OMBIND><OMWAT/><OMBVAR><OMI>1</OMI></OMBVAR><OMV name='x'/></OMBIND>"
    ),
    "bad subtree inside ombvar": (
        f"<OMBIND>{LAMBDA}<OMBVAR><OMA>{PLUS}<OMF/></OMA></OMBVAR><OMWAT/></OMBIND>"
    ),
    "bad variable before bad body": (
        f"<OMBIND>{LAMBDA}<OMBVAR><OMV name='x'/><OMI>1</OMI></OMBVAR><OMWAT/></OMBIND>"
    ),
    "bad body before repeated variable": (
        f"<OMBIND>{LAMBDA}<OMBVAR><OMV name='x'/><OMV name='x'/></OMBVAR><OMF/></OMBIND>"
    ),
}


def _decode_failure(decode, text: str) -> tuple[type, str]:
    with pytest.raises(EncodingError) as info:
        decode(parse_xml(text))
    return type(info.value), str(info.value)


class TestDecoderDifferential:
    """The iterative decoder against the recursive one in ``tests/helpers.py``."""

    @settings(max_examples=60, deadline=None)
    @given(om_objects())
    def test_both_decode_serialized_objects_alike(self, obj):
        (elem,) = parse_xml(serialize_om_xml(obj))
        assert om_from_element(elem) == om_from_element_recursive(elem) == obj

    def test_nested_cdbase_override(self):
        text = (
            '<OMA cdbase="http://a.example"><OMS cd="c" name="n"/>'
            '<OMA cdbase="http://b.example"><OMS cd="c" name="n"/><OMI>1</OMI></OMA>'
            f'<OMBIND>{LAMBDA}<OMBVAR cdbase="http://c.example"><OMV name="x"/></OMBVAR>'
            '<OMS cd="c" name="n"/></OMBIND></OMA>'
        )
        elem = parse_xml(text)
        obj = om_from_element(elem)
        assert obj == om_from_element_recursive(elem)
        assert [obj.head.cdbase, obj.args[0].head.cdbase, obj.args[1].body.cdbase] == [
            "http://a.example",
            "http://b.example",
            "http://a.example",
        ]

    @pytest.mark.parametrize("text", MALFORMED.values(), ids=MALFORMED.keys())
    def test_same_error_on_malformed_input(self, text):
        assert _decode_failure(om_from_element, text) == _decode_failure(
            om_from_element_recursive, text
        )


class TestDecoderDepth:
    @staticmethod
    def _nest(depth: int) -> str:
        minus = '<OMS cd="arith1" name="unary_minus"/>'
        return f"<OMA>{minus}" * depth + "<OMI>1</OMI>" + "</OMA>" * depth

    @staticmethod
    def _depth(obj) -> int:
        depth = 0
        while isinstance(obj, OMApplication):
            obj, depth = obj.args[0], depth + 1
        assert obj == OMInteger(1)
        return depth

    def test_parse_om_xml_deeper_than_the_recursion_limit(self):
        with recursion_limit(100) as limit:
            depth = limit * 20
            obj = parse_om_xml(f"<OMOBJ>{self._nest(depth)}</OMOBJ>")
        assert self._depth(obj) == depth

    def test_parse_cd_xml_deeper_than_the_recursion_limit(self):
        from omld.cd import parse_cd_xml

        with recursion_limit(100) as limit:
            depth = limit * 20
            cd = parse_cd_xml(
                "<CD><CDName>deep</CDName><CDDefinition><Name>f</Name>"
                f"<FMP><OMOBJ>{self._nest(depth)}</OMOBJ></FMP></CDDefinition></CD>"
            )
        assert self._depth(cd.definitions[0].fmps[0]) == depth


class TestDecoderInterning:
    TEXT = (
        f"<OMOBJ><OMA>{PLUS}<OMA>{PLUS}<OMV name='x'/><OMV name='x'/></OMA>"
        "<OMS cd='arith1' name='plus' cdbase='http://a.example'/></OMA></OMOBJ>"
    )

    def test_equal_symbols_and_variables_are_one_object(self):
        obj = parse_om_xml(self.TEXT)
        inner = obj.args[0]
        assert inner.head is obj.head
        assert inner.args[0] is inner.args[1]

    def test_symbols_differing_in_cdbase_stay_apart(self):
        obj = parse_om_xml(self.TEXT)
        assert obj.args[1] != obj.head
        assert obj.args[1].cdbase == "http://a.example"

    def test_two_parses_share_nothing(self):
        one, two = parse_om_xml(self.TEXT), parse_om_xml(self.TEXT)
        assert one == two
        assert one.head is not two.head
        assert one.args[0].args[0] is not two.args[0].args[0]


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
