from __future__ import annotations

from decimal import Decimal

import pytest
from hypothesis import given, settings

from omld.annotations import (
    BadArgPositionsError,
    BadValueLiteralError,
    Derivation,
    MissingFunctionError,
    UnresolvedArgumentError,
    decimal_to_om,
    extract_derivations,
    stored_values,
)
from omld.errors import NonFiniteResultError
from omld.om import OMApplication, OMFloat, OMInteger, OMSymbol
from omld.rdf import Graph, Iri, parse_turtle

from .helpers import derivation_to_om, inline, isomorphic, om_to_derivation
from .strategies import derivations

AHS = "http://example.org/ns/ahs#"
DIVIDE_URI = Iri("http://www.openmath.org/cd/arith1#divide")
DIVIDE = OMSymbol(cd="arith1", name="divide")

PREFIXES = """\
@prefix ahs: <http://example.org/ns/ahs#> .
@prefix scv: <http://purl.org/NET/scovo#> .
@prefix env: <http://example.org/ns/env#> .
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
@prefix sl:  <http://example.org/ns/sl#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
"""


class TestExtractDataPoints:
    """``stored_values``: the number of each data point that has one."""

    def test_listing1(self, listing1_graph):
        assert stored_values(listing1_graph) == {AHS + "EH100": Decimal("693")}

    def test_empty_graph(self):
        assert stored_values(Graph()) == {}

    def test_point_without_value(self):
        g = parse_turtle(PREFIXES + "ahs:X scv:dimension env:geese .\n")
        assert stored_values(g) == {}

    def test_value_without_a_dimension(self):
        g = parse_turtle(PREFIXES + 'ahs:X rdf:value "1"^^xsd:decimal .\n')
        assert stored_values(g) == {}

    def test_first_value_in_term_key_order(self):
        g = parse_turtle(PREFIXES + 'ahs:X scv:dimension env:geese ; rdf:value "2" , "1" .\n')
        assert stored_values(g) == {AHS + "X": Decimal("1")}

    def test_bad_value_literal(self):
        g = parse_turtle(PREFIXES + 'ahs:X scv:dimension env:geese ; rdf:value "many" .\n')
        with pytest.raises(BadValueLiteralError, match=r"ahs#X: rdf:value 'many' is not numeric"):
            stored_values(g)


class TestExtractDerivations:
    def test_listing2(self, listing2_graph):
        (derivation,) = extract_derivations(listing2_graph)
        assert derivation.point_id == Iri(AHS + "PD100")
        assert derivation.function_uri == DIVIDE_URI
        assert derivation.args == (Iri(AHS + "EH100"), Iri(AHS + "AR100"))

    def test_gap_in_positions(self):
        g = parse_turtle(
            PREFIXES
            + "ahs:X sl:computedFrom [ sl:function <http://www.openmath.org/cd/arith1#divide> ;"
            ' sl:arguments [ sl:argPosition "1"^^xsd:int ; sl:argValue ahs:A ] ,'
            ' [ sl:argPosition "3"^^xsd:int ; sl:argValue ahs:B ] ] .\n'
        )
        with pytest.raises(BadArgPositionsError):
            extract_derivations(g)

    def test_duplicate_positions(self):
        g = parse_turtle(
            PREFIXES
            + "ahs:X sl:computedFrom [ sl:function <http://www.openmath.org/cd/arith1#plus> ;"
            ' sl:arguments [ sl:argPosition "1"^^xsd:int ; sl:argValue ahs:A ] ,'
            ' [ sl:argPosition "1"^^xsd:int ; sl:argValue ahs:B ] ,'
            ' [ sl:argPosition "2"^^xsd:int ; sl:argValue ahs:C ] ] .\n'
        )
        with pytest.raises(BadArgPositionsError, match=r"positions \[1, 1, 2\] are not exactly"):
            extract_derivations(g)

    def test_missing_function(self):
        g = parse_turtle(
            PREFIXES
            + 'ahs:X sl:computedFrom [ sl:arguments [ sl:argPosition "1"^^xsd:int ;'
            " sl:argValue ahs:A ] ] .\n"
        )
        with pytest.raises(MissingFunctionError):
            extract_derivations(g)

    def test_hdi_derivation_with_four_args(self):
        g = parse_turtle(
            PREFIXES
            + "ahs:H sl:computedFrom [ sl:function <http://example.org/statistics#hdi> ;"
            " sl:arguments"
            ' [ sl:argPosition "4"^^xsd:int ; sl:argValue ahs:GDP ] ,'
            ' [ sl:argPosition "2"^^xsd:int ; sl:argValue ahs:ALI ] ,'
            ' [ sl:argPosition "1"^^xsd:int ; sl:argValue ahs:LE ] ,'
            ' [ sl:argPosition "3"^^xsd:int ; sl:argValue ahs:GEI ] ] .\n'
        )
        (derivation,) = extract_derivations(g)
        assert derivation.function_uri == Iri("http://example.org/statistics#hdi")
        assert [a.value.rsplit("#")[-1] for a in derivation.args] == [
            "LE",
            "ALI",
            "GEI",
            "GDP",
        ]

    def test_literal_argument(self):
        g = parse_turtle(
            PREFIXES
            + "ahs:X sl:computedFrom [ sl:function <http://www.openmath.org/cd/arith1#times> ;"
            ' sl:arguments [ sl:argPosition "1"^^xsd:int ; sl:argValue ahs:A ] ,'
            ' [ sl:argPosition "2"^^xsd:int ; sl:argValue "2"^^xsd:decimal ] ] .\n'
        )
        (derivation,) = extract_derivations(g)
        assert derivation.args == (Iri(AHS + "A"), Decimal("2"))


class TestDerivationToOm:
    def test_listing2_with_values(self, geese_graph):
        inputs = stored_values(geese_graph)
        derivation = next(
            d for d in extract_derivations(geese_graph) if d.point_id == Iri(AHS + "PD100")
        )
        obj = derivation_to_om(derivation, inputs)
        assert obj == OMApplication(DIVIDE, (OMInteger(693), OMInteger(380)))

    def test_recursive_translation(self):
        inner = Derivation(
            point_id=Iri(AHS + "D1"),
            function_uri=DIVIDE_URI,
            args=(Iri(AHS + "A"), Iri(AHS + "B")),
        )
        outer = Derivation(
            point_id=Iri(AHS + "D2"),
            function_uri=DIVIDE_URI,
            args=(Iri(AHS + "D1"), Decimal("2")),
        )
        leaves = {AHS + "A": Decimal(10), AHS + "B": Decimal(4)}
        # One level at a time: a computed input comes in as a float.
        assert derivation_to_om(inner, leaves) == OMApplication(
            DIVIDE, (OMInteger(10), OMInteger(4))
        )
        assert derivation_to_om(outer, {AHS + "D1": 2.5}) == OMApplication(
            DIVIDE, (OMFloat(2.5), OMInteger(2))
        )
        # The reference inliner nests the same translation; D1 has no stored value.
        assert inline(outer, leaves, {AHS + "D1": inner}) == OMApplication(
            DIVIDE,
            (OMApplication(DIVIDE, (OMInteger(10), OMInteger(4))), OMInteger(2)),
        )

    def test_unresolved_argument(self):
        derivation = Derivation(
            point_id=Iri(AHS + "X"),
            function_uri=DIVIDE_URI,
            args=(Iri(AHS + "NOWHERE"), Decimal(1)),
        )
        with pytest.raises(UnresolvedArgumentError):
            derivation_to_om(derivation, {})

    def test_fractional_values_become_floats(self):
        derivation = Derivation(
            point_id=Iri(AHS + "X"),
            function_uri=DIVIDE_URI,
            args=(Decimal("1.5"), Decimal("693")),
        )
        obj = derivation_to_om(derivation, {})
        assert obj.args == (OMFloat(1.5), OMInteger(693))

    @pytest.mark.parametrize("lexical", ["1e1000000", "-1E+309", "123456789e301"])
    def test_beyond_float_range_is_non_finite(self, lexical):
        with pytest.raises(NonFiniteResultError, match="beyond the float range"):
            decimal_to_om(Decimal(lexical))

    def test_largest_exponent_below_the_bound_is_exact(self):
        assert decimal_to_om(Decimal("9e308")) == OMInteger(9 * 10**308)


class TestOmToDerivation:
    def test_reproduces_listing2_shape(self, listing2_graph):
        obj = OMApplication(DIVIDE, (OMInteger(693), OMInteger(380)))
        sources = iter([Iri(AHS + "EH100"), Iri(AHS + "AR100")])
        triples = om_to_derivation(Iri(AHS + "PD100"), obj, lambda arg: next(sources))
        assert isomorphic(Graph(frozenset(triples)), Graph(listing2_graph.triples))

    def test_round_trip_with_literal(self):
        obj = OMApplication(DIVIDE, (OMInteger(10), OMFloat(2.5)))
        sources = iter([Iri(AHS + "A"), None])
        triples = om_to_derivation(Iri(AHS + "X"), obj, lambda arg: next(sources))
        (derivation,) = extract_derivations(Graph(frozenset(triples)))
        assert derivation.args == (Iri(AHS + "A"), Decimal("2.5"))


class TestRoundTripProperty:
    @settings(max_examples=80, deadline=None)
    @given(derivations())
    def test_om_rdf_round_trip(self, derivation):
        # Give every referenced source point a value so translation works,
        # then check extract(om_to_derivation(translate(d))) == d.
        inputs = {
            arg.value: Decimal(10_000 + i) / Decimal(4)
            for i, arg in enumerate(derivation.args)
            if isinstance(arg, Iri)
        }
        obj = derivation_to_om(derivation, inputs)
        order = iter([a if isinstance(a, Iri) else None for a in derivation.args])
        triples = om_to_derivation(derivation.point_id, obj, lambda arg: next(order))
        (again,) = extract_derivations(Graph(frozenset(triples)))
        assert again == derivation


class TestOrderIndependence:
    def test_argument_order_follows_positions_not_graph_order(self):
        # Positions listed 2 then 1 in the source text.
        g = parse_turtle(
            PREFIXES
            + "ahs:X sl:computedFrom [ sl:function <http://www.openmath.org/cd/arith1#minus> ;"
            ' sl:arguments [ sl:argPosition "2"^^xsd:int ; sl:argValue "1"^^xsd:decimal ] ,'
            ' [ sl:argPosition "1"^^xsd:int ; sl:argValue "100"^^xsd:decimal ] ] .\n'
        )
        (derivation,) = extract_derivations(g)
        obj = derivation_to_om(derivation, {})
        assert obj.args == (OMInteger(100), OMInteger(1))
