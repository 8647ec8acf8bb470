from __future__ import annotations

import pytest
from hypothesis import given, settings

from omld.rdf import (
    RDF_TYPE,
    RDF_VALUE,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    BlankNode,
    Graph,
    Iri,
    Literal,
    Triple,
    TurtleSyntaxError,
    UnknownPrefixError,
    parse_turtle,
    serialize_turtle,
)

from .helpers import isomorphic
from .strategies import graphs

AHS = "http://example.org/ns/ahs#"
SL = "http://example.org/ns/sl#"


class TestTerms:
    def test_iri_requires_scheme(self):
        with pytest.raises(ValueError):
            Iri("no-scheme-here/path")
        with pytest.raises(ValueError):
            Iri("")

    def test_fragment_preserved(self):
        assert Iri("http://x.org/cd#name").value.endswith("#name")

    def test_literal_datatype_language_exclusive(self):
        with pytest.raises(ValueError):
            Literal("x", datatype=Iri("http://x.org/t"), language="en")


class TestParsing:
    def test_listing1_six_triples_on_point(self, listing1_graph):
        point = Iri(AHS + "EH100")
        assert len(listing1_graph) == 6
        assert len(listing1_graph.match(subject=point)) == 6
        values = listing1_graph.match(point, Iri(RDF_VALUE), None)
        assert len(values) == 1
        literal = values[0].object
        assert literal == Literal("693", datatype=Iri(XSD_DECIMAL))

    def test_empty_input(self):
        assert len(parse_turtle("")) == 0

    def test_listing2_has_three_blank_nodes(self, listing2_graph):
        nodes = set()
        for t in listing2_graph.triples:
            for term in (t.subject, t.object):
                if isinstance(term, BlankNode):
                    nodes.add(term)
        assert len(nodes) == 3

    def test_numeric_shorthand_gets_xsd_types(self):
        g = parse_turtle(
            "@prefix ex: <http://ex.org/> .\n"
            "ex:s ex:int 693 ; ex:dec 1.5 ; ex:neg -7 ; ex:dbl 2e3 .\n"
        )
        by_pred = {t.predicate.value.rsplit("/", 1)[-1]: t.object for t in g.triples}
        assert by_pred["int"] == Literal("693", datatype=Iri(XSD_INTEGER))
        assert by_pred["dec"] == Literal("1.5", datatype=Iri(XSD_DECIMAL))
        assert by_pred["neg"] == Literal("-7", datatype=Iri(XSD_INTEGER))
        assert by_pred["dbl"] == Literal("2e3", datatype=Iri(XSD_DOUBLE))

    def test_unknown_prefix(self):
        with pytest.raises(UnknownPrefixError):
            parse_turtle("nope:s nope:p nope:o .")

    def test_syntax_error_has_position(self):
        with pytest.raises(TurtleSyntaxError) as err:
            parse_turtle("@prefix ex: <http://ex.org/> .\nex:s ex:p ; .\n")
        assert err.value.line == 2
        assert err.value.column > 0

    def test_base_directive_rejected(self):
        with pytest.raises(TurtleSyntaxError):
            parse_turtle("@base <http://ex.org/> .")

    def test_relative_iri_needs_base(self):
        with pytest.raises(TurtleSyntaxError):
            parse_turtle("<s> <http://x.org/p> <http://x.org/o> .")
        g = parse_turtle("<s> <http://x.org/p> 1 .", base_iri=Iri("http://x.org/base/"))
        assert g.match(subject=Iri("http://x.org/base/s"))

    def test_comment_and_a_keyword(self):
        g = parse_turtle(
            "@prefix ex: <http://ex.org/> .  # trailing comment\n"
            "ex:s a ex:Thing .  # typed\n"
        )
        assert g.match(None, Iri(RDF_TYPE), Iri("http://ex.org/Thing"))

    def test_labelled_blank_nodes_are_renamed_consistently(self):
        g = parse_turtle(
            "@prefix ex: <http://ex.org/> .\n"
            "_:x ex:p _:y .\n_:x ex:q _:x .\n"
        )
        subjects = {t.subject for t in g.triples}
        assert BlankNode("b0") in subjects
        loops = [t for t in g.triples if t.subject == t.object]
        assert len(loops) == 1

    def test_string_escapes(self):
        g = parse_turtle('@prefix ex: <http://ex.org/> .\nex:s ex:p "a\\"b\\nc\\u00e4" .\n')
        (t,) = g.match(predicate=Iri("http://ex.org/p"))
        assert t.object.lexical == 'a"b\ncä'

    def test_language_tag(self):
        g = parse_turtle('@prefix ex: <http://ex.org/> .\nex:s ex:p "geese"@en .\n')
        (t,) = g.triples
        assert t.object == Literal("geese", language="en")

    def test_duplicate_triples_collapse(self):
        g = parse_turtle(
            "@prefix ex: <http://ex.org/> .\nex:s ex:p ex:o .\nex:s ex:p ex:o .\n"
        )
        assert len(g) == 1


class TestMatch:
    def test_value_lookup(self, listing1_graph):
        found = listing1_graph.match(Iri(AHS + "EH100"), Iri(RDF_VALUE), None)
        assert [t.object.lexical for t in found] == ["693"]

    def test_empty_graph_matches_nothing(self):
        assert Graph().match() == []

    def test_arg_positions_in_listing2(self, listing2_graph):
        found = listing2_graph.match(None, Iri(SL + "argPosition"), None)
        assert len(found) == 2

    def test_all_wildcards_returns_each_triple_once(self, listing1_graph):
        everything = listing1_graph.match()
        assert len(everything) == len(listing1_graph)
        assert len(set(everything)) == len(everything)

    def test_deterministic_order(self, geese_graph):
        assert geese_graph.match() == geese_graph.match()


class TestSerialization:
    def test_empty_graph(self):
        text = serialize_turtle(Graph())
        assert text == ""

    def test_listing1_round_trip_exact(self, listing1_graph):
        again = parse_turtle(serialize_turtle(listing1_graph))
        assert again.triples == listing1_graph.triples

    def test_blank_node_round_trip(self):
        g = parse_turtle(
            "@prefix ex: <http://ex.org/> .\nex:s ex:p [ ex:q 1 ; ex:r [ ex:q 2 ] ] .\n"
        )
        again = parse_turtle(serialize_turtle(g))
        assert isomorphic(g, again)

    def test_typed_literal_without_shorthand_survives(self):
        # "693"^^xsd:decimal must not collapse into a bare integer.
        g = parse_turtle(
            "@prefix ex: <http://ex.org/> .\n"
            "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n"
            'ex:s ex:p "693"^^xsd:decimal .\n'
        )
        again = parse_turtle(serialize_turtle(g))
        assert again.triples == g.triples

    def test_no_unresolved_prefixed_names(self, geese_graph):
        for t in geese_graph.triples:
            for term in (t.subject, t.predicate, t.object):
                if isinstance(term, Iri):
                    assert "://" in term.value or term.value.startswith("urn:")


class TestRoundTripProperty:
    @settings(max_examples=120, deadline=None)
    @given(graphs())
    def test_parse_serialize_parse_isomorphic(self, g):
        again = parse_turtle(serialize_turtle(g))
        assert isomorphic(g, again)


class TestIsomorphism:
    def test_relabelled_blank_nodes(self):
        a = BlankNode("a")
        b = BlankNode("b")
        p = Iri("http://x.org/p")
        g1 = Graph(frozenset({Triple(a, p, Iri("http://x.org/o"))}))
        g2 = Graph(frozenset({Triple(b, p, Iri("http://x.org/o"))}))
        assert isomorphic(g1, g2)

    def test_structure_mismatch(self):
        a = BlankNode("a")
        p = Iri("http://x.org/p")
        q = Iri("http://x.org/q")
        g1 = Graph(frozenset({Triple(a, p, Iri("http://x.org/o"))}))
        g2 = Graph(frozenset({Triple(a, q, Iri("http://x.org/o"))}))
        assert not isomorphic(g1, g2)

    def test_swapped_chain(self):
        a, b = BlankNode("a"), BlankNode("b")
        p = Iri("http://x.org/p")
        one = Literal("1")
        two = Literal("2")
        g1 = Graph(frozenset({Triple(a, p, b), Triple(b, p, one)}))
        g2 = Graph(frozenset({Triple(b, p, a), Triple(a, p, one)}))
        g3 = Graph(frozenset({Triple(b, p, a), Triple(a, p, two)}))
        assert isomorphic(g1, g2)
        assert not isomorphic(g1, g3)
