from __future__ import annotations

import re
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omld.errors import ToolkitError

from omld.rdf import (
    MAX_NESTING,
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
    _tokenize,
    _triple_key,
    parse_turtle,
    serialize_turtle,
)

from . import helpers
from .conftest import fixture_text
from .helpers import CountingTriples, isomorphic, match
from .strategies import graphs, turtle_fragments

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
        assert len(listing1_graph.triples) == 6
        assert len(match(listing1_graph, subject=point)) == 6
        values = match(listing1_graph, point, Iri(RDF_VALUE), None)
        assert len(values) == 1
        literal = values[0].object
        assert literal == Literal("693", datatype=Iri(XSD_DECIMAL))

    def test_empty_input(self):
        assert len(parse_turtle("").triples) == 0

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

    def test_comment_and_a_keyword(self):
        g = parse_turtle(
            "@prefix ex: <http://ex.org/> .  # trailing comment\n"
            "ex:s a ex:Thing .  # typed\n"
        )
        assert match(g, None, Iri(RDF_TYPE), Iri("http://ex.org/Thing"))

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
        (t,) = match(g, predicate=Iri("http://ex.org/p"))
        assert t.object.lexical == 'a"b\ncä'

    def test_language_tag(self):
        g = parse_turtle('@prefix ex: <http://ex.org/> .\nex:s ex:p "geese"@en .\n')
        (t,) = g.triples
        assert t.object == Literal("geese", language="en")

    def test_duplicate_triples_collapse(self):
        g = parse_turtle(
            "@prefix ex: <http://ex.org/> .\nex:s ex:p ex:o .\nex:s ex:p ex:o .\n"
        )
        assert len(g.triples) == 1


def _term_occurrences(graph: Graph):
    """Every term of every triple, and every literal's datatype."""
    for t in graph.triples:
        for term in (t.subject, t.predicate, t.object):
            yield term
            if isinstance(term, Literal) and term.datatype is not None:
                yield term.datatype


def _repeated_terms(graph: Graph) -> int:
    """How many term occurrences repeat an earlier one; asserts each repeat is the same object."""
    seen: dict = {}
    occurrences = 0
    for term in _term_occurrences(graph):
        assert seen.setdefault(term, term) is term
        occurrences += 1
    return occurrences - len(seen)


def _nest(depth: int) -> str:
    """A statement whose object is ``depth`` nested blank-node property lists."""
    return (
        "@prefix ex: <http://ex.org/> .\nex:a ex:p "
        + "[ ex:p " * depth
        + "ex:o"
        + " ]" * depth
        + " .\n"
    )


class TestNesting:
    def test_nesting_up_to_the_bound_parses(self):
        for depth in (50, MAX_NESTING):
            assert len(parse_turtle(_nest(depth)).triples) == depth + 1

    def test_nesting_past_the_bound_fails_at_its_bracket(self):
        for depth in (MAX_NESTING + 1, 20 * sys.getrecursionlimit()):
            with pytest.raises(TurtleSyntaxError) as err:
                parse_turtle(_nest(depth))
            column = len("ex:a ex:p ") + MAX_NESTING * len("[ ex:p ") + 1
            assert (err.value.line, err.value.column) == (2, column)
            assert err.value.expected == f"at most {MAX_NESTING} nested '['"

    def test_a_bracketed_subject_nests_to_the_same_bound(self):
        def nest(depth: int) -> str:
            return _nest(depth).replace("ex:a ex:p ", "")

        assert len(parse_turtle(nest(MAX_NESTING)).triples) == MAX_NESTING
        with pytest.raises(TurtleSyntaxError) as err:
            parse_turtle(nest(MAX_NESTING + 1))
        column = MAX_NESTING * len("[ ex:p ") + 1
        assert (err.value.line, err.value.column) == (2, column)
        assert err.value.expected == f"at most {MAX_NESTING} nested '['"


# Each term position with a wrong token, a relative IRI and an undeclared
# prefix: the statement on line 2, and the column and expected text of the
# TurtleSyntaxError, or None for an UnknownPrefixError naming 'no'.
SUBJECT, PREDICATE = "a subject (IRI or blank node)", "a predicate (IRI or 'a')"
OBJECT, DATATYPE = "an object (IRI, blank node, or literal)", "a datatype IRI after '^^'"
PREFIX_IRI = "the prefix IRI in <...>"
TERM_ERRORS = {
    "subject-token": ('"s" ex:p ex:o .', 1, SUBJECT),
    "subject-relative": ("<s> ex:p ex:o .", 1, "an absolute IRI (got <s>)"),
    "subject-empty": ("<> ex:p ex:o .", 1, "an absolute IRI (got <>)"),
    "subject-prefix": ("no:s ex:p ex:o .", None, None),
    "predicate-token": ("ex:s _:p ex:o .", 6, PREDICATE),
    "predicate-bracket": ("ex:s [] ex:o .", 6, PREDICATE),
    "predicate-relative": ("ex:s <p> ex:o .", 6, "an absolute IRI (got <p>)"),
    "predicate-prefix": ("ex:s no:p ex:o .", None, None),
    "object-token": ("ex:s ex:p a .", 11, OBJECT),
    "object-relative": ("ex:s ex:p <o> .", 11, "an absolute IRI (got <o>)"),
    "object-prefix": ("ex:s ex:p no:o .", None, None),
    "datatype-token": ('ex:s ex:p "x"^^_:d .', 16, DATATYPE),
    "datatype-literal": ('ex:s ex:p "x"^^"d" .', 16, DATATYPE),
    "datatype-relative": ('ex:s ex:p "x"^^<d> .', 16, "an absolute IRI (got <d>)"),
    "datatype-prefix": ('ex:s ex:p "x"^^no:d .', None, None),
    "prefix-iri-token": ('@prefix ns: "x" .', 13, PREFIX_IRI),
    "prefix-iri-relative": ("@prefix ns: <rel> .", 13, "an absolute IRI (got <rel>)"),
    "prefix-iri-prefixed-name": ("@prefix ns: no:x .", 13, PREFIX_IRI),
}


class TestTermErrors:
    """Every term position reports a wrong token, a relative IRI and an undeclared prefix."""

    @pytest.mark.parametrize("statement, column, expected", TERM_ERRORS.values(), ids=TERM_ERRORS)
    def test_error_at_each_term_position(self, statement, column, expected):
        text = "@prefix ex: <http://ex.org/> .\n" + statement + "\n"
        if expected is None:
            with pytest.raises(UnknownPrefixError) as prefix_err:
                parse_turtle(text)
            assert prefix_err.value.prefix == "no"
            return
        with pytest.raises(TurtleSyntaxError) as err:
            parse_turtle(text)
        assert (err.value.line, err.value.column, err.value.expected) == (2, column, expected)


class TestInterning:
    TEXT = (
        "@prefix ex: <http://ex.org/> .\n"
        "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n"
        'ex:s ex:p ex:o , "v" , 1 , "v"@en ; ex:q <http://ex.org/o> , "v" , "1"^^xsd:integer .\n'
        '<http://ex.org/o> ex:p "v"@en , "v"^^ex:t , 2 ; a ex:T .\n'
        "[ ex:p ex:s ] ex:q ex:s .\n"
    )

    def test_equal_terms_are_one_object(self):
        assert _repeated_terms(parse_turtle(self.TEXT)) > 10

    def test_two_parses_share_nothing(self):
        one, two = parse_turtle(self.TEXT), parse_turtle(self.TEXT)
        assert one.triples == two.triples
        ids = {id(term) for term in _term_occurrences(one)}
        assert not any(id(term) in ids for term in _term_occurrences(two))


class TestMatch:
    """The graph's own lookups and iteration on the fixtures."""

    def test_value_lookup(self, listing1_graph):
        found = listing1_graph.objects(Iri(AHS + "EH100"), Iri(RDF_VALUE))
        assert [o.lexical for o in found] == ["693"]

    def test_empty_graph_matches_nothing(self):
        assert Graph().objects(Iri(AHS + "a"), Iri(RDF_VALUE)) == ()
        assert not Graph().subjects(Iri(RDF_VALUE))
        assert list(Graph()) == []

    def test_arg_positions_in_listing2(self, listing2_graph):
        assert len(listing2_graph.subjects(Iri(SL + "argPosition"))) == 2

    def test_all_wildcards_returns_each_triple_once(self, listing1_graph):
        everything = list(listing1_graph)
        assert len(everything) == len(listing1_graph.triples)
        assert len(set(everything)) == len(everything)

    def test_deterministic_order(self, geese_graph):
        again = parse_turtle(fixture_text("geese.ttl"))
        assert list(geese_graph) == list(again)


# A few terms, so that random triples share subjects, predicates and objects.
_IRIS = [Iri(AHS + name) for name in ("a", "b", "c")]
_NODES = [*_IRIS, BlankNode("b0"), BlankNode("b1")]
_TERMS = [
    *_NODES,
    Literal("a"),
    Literal("a", language="en"),
    Literal("1", datatype=Iri(XSD_INTEGER)),
    Literal("1", datatype=Iri(XSD_DECIMAL)),
]
_SMALL_TRIPLES = st.builds(
    Triple, st.sampled_from(_NODES), st.sampled_from(_IRIS), st.sampled_from(_TERMS)
)


class TestMatchDifferential:
    """``subjects``, ``objects`` and iteration against a full scan of the triples, sorted."""

    @given(st.frozensets(_SMALL_TRIPLES, max_size=30))
    @settings(max_examples=300, deadline=None)
    def test_every_pattern_equals_a_sorted_scan(self, triples):
        graph = Graph(triples)
        for p in _IRIS:
            assert set(graph.subjects(p)) == {t.subject for t in match(graph, None, p)}
            for s in _NODES:
                assert graph.objects(s, p) == tuple(t.object for t in match(graph, s, p))
        assert "_sorted" not in graph.__dict__
        assert list(graph) == sorted(triples, key=_triple_key)

    def test_index_is_built_once_on_first_use(self, geese_graph):
        triples = CountingTriples(geese_graph.triples)
        graph = Graph(triples, geese_graph.prefixes)
        assert len(graph.triples) == len(geese_graph.triples)
        assert triples.passes == 0
        subject = next(iter(geese_graph)).subject
        for _ in range(3):
            graph.objects(subject, Iri(RDF_VALUE))
            graph.subjects(Iri(RDF_VALUE))
            graph.objects(subject, Iri(RDF_TYPE))
        assert triples.passes == 1
        assert list(graph) == list(geese_graph)
        assert list(graph) == list(geese_graph)
        assert triples.passes == 2  # the first iteration sorts, once


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
        _repeated_terms(again)

    def test_typed_literal_without_shorthand_survives(self):
        # "693"^^xsd:decimal must not collapse into a bare integer.
        g = parse_turtle(
            "@prefix ex: <http://ex.org/> .\n"
            "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n"
            'ex:s ex:p "693"^^xsd:decimal .\n'
        )
        again = parse_turtle(serialize_turtle(g))
        assert again.triples == g.triples

    def test_overlapping_namespaces_and_unsafe_local_names(self):
        # ``a`` is a prefix of ``ab`` and of ``dir``: the longest namespace
        # whose local name is safe wins, so ab- falls back to ``a``, and
        # b.c has no safe local name at all.  Each IRI renders the same way
        # every time it occurs, and a later call with other prefixes starts
        # afresh.
        g = parse_turtle(
            "@prefix a: <http://ex.org/a> .\n"
            "@prefix ab: <http://ex.org/ab> .\n"
            "@prefix dir: <http://ex.org/a/> .\n"
            "<http://ex.org/ab-> <http://ex.org/abp> <http://ex.org/a/b.c> , "
            "<http://ex.org/a/> , <http://ex.org/ab-> .\n"
            "<http://ex.org/a/x> <http://ex.org/abp> <http://ex.org/abq> .\n"
        )
        body = (
            "dir:x ab:p ab:q .\n"
            "a:b- ab:p dir: ;\n"
            "    ab:p <http://ex.org/a/b.c> ;\n"
            "    ab:p a:b- .\n"
        )
        prefixes = (
            "@prefix a: <http://ex.org/a> .\n"
            "@prefix ab: <http://ex.org/ab> .\n"
            "@prefix dir: <http://ex.org/a/> .\n\n"
        )
        assert serialize_turtle(g) == prefixes + body
        assert parse_turtle(serialize_turtle(g)).triples == g.triples
        only_a = Graph(triples=g.triples, prefixes={"a": "http://ex.org/a"})
        assert serialize_turtle(only_a) == (
            "@prefix a: <http://ex.org/a> .\n\n"
            "<http://ex.org/a/x> a:bp a:bq .\n"
            "a:b- a:bp <http://ex.org/a/> ;\n"
            "    a:bp <http://ex.org/a/b.c> ;\n"
            "    a:bp a:b- .\n"
        )

    def test_no_unresolved_prefixed_names(self, geese_graph):
        for t in geese_graph.triples:
            for term in (t.subject, t.predicate, t.object):
                if isinstance(term, Iri):
                    assert "://" in term.value or term.value.startswith("urn:")


class TestUnicodeEscapes:
    @pytest.mark.parametrize("escape", ["\\UFFFFFFFF", "\\U00110000", "\\uD800", "\\U0000DFFF"])
    def test_escape_naming_no_scalar_value_rejected_at_the_escape(self, escape):
        text = f'<http://x.org/s> <http://x.org/p>\n  "ab{escape}" .'
        with pytest.raises(TurtleSyntaxError) as err:
            parse_turtle(text)
        assert (err.value.line, err.value.column) == (2, 6)
        assert err.value.expected == f"a Unicode scalar value (got {escape})"

    def test_escapes_at_the_scalar_value_bounds_parse(self):
        g = parse_turtle('<http://x.org/s> <http://x.org/p> "\\uD7FF\\uE000\\U0010FFFF" .')
        (t,) = g.triples
        assert t.object.lexical == "\ud7ff\ue000\U0010ffff"


class _NotAScalarValue(Exception):
    pass


def _strict_chr(code: int) -> str:
    if code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:
        raise _NotAScalarValue
    return chr(code)


def _reference_tokens(text: str):
    """The old tokenizer's tokens or error, with the escape check the new one adds.

    The reference decodes every escape with ``chr``, which dies on values above
    0x10FFFF and accepts surrogates.  Where it decodes an escape naming no
    Unicode scalar value, the expected result is a syntax error at that escape.
    """
    tokenizer = helpers._Tokenizer(text)
    with mock.patch.object(helpers, "chr", _strict_chr, create=True):
        try:
            return [(t.kind, t.value, t.line, t.column) for t in tokenizer.tokens()]
        except TurtleSyntaxError as exc:
            return (exc.line, exc.column, exc.expected)
        except _NotAScalarValue:
            escape = re.search(r"\\(u\w{4}|U\w{8})$", text[: tokenizer.pos]).group()
            expected = f"a Unicode scalar value (got {escape})"
            return (tokenizer.line, tokenizer.col - len(escape), expected)


def _tokens(text: str):
    """``_tokenize``'s tokens with each offset as a line and column, or its error."""
    try:
        tokens = list(_tokenize(text))
    except TurtleSyntaxError as exc:
        return (exc.line, exc.column, exc.expected)
    return [
        (kind, value, text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset))
        for kind, value, offset in tokens
    ]


class TestTokenizerDifferential:
    @settings(max_examples=1500, deadline=None)
    @given(turtle_fragments())
    def test_same_tokens_and_errors_as_reference(self, text):
        assert _tokens(text) == _reference_tokens(text)

    def test_bad_escape_wins_over_a_later_error(self):
        # chr() dies on the first escape and accepts the surrogate in the second.
        for text, column, escape in [('"\\U00110000', 2, "\\U00110000"), ('ex:x "\\uD800', 7, "\\uD800")]:
            expected = (1, column, f"a Unicode scalar value (got {escape})")
            assert _tokens(text) == _reference_tokens(text) == expected


class TestOnePass:
    """Tokens are read as the parser asks for them, so the first error in the text wins."""

    UNCLOSED = 'ex:c ex:d "open\n'  # a lexical error at line 3, column 11

    def test_a_token_is_read_before_a_later_lexical_error(self):
        assert next(_tokenize('ex:a "open')) == ("PNAME", ("ex", "a"), 0)

    def test_a_grammar_error_before_a_lexical_error_wins(self):
        text = "@prefix ex: <http://ex.org/> .\nex:a ex:b .\n" + self.UNCLOSED
        with pytest.raises(TurtleSyntaxError) as err:
            parse_turtle(text)
        assert (err.value.line, err.value.column) == (2, 11)
        assert err.value.expected == "an object (IRI, blank node, or literal)"

    def test_an_undeclared_prefix_before_a_lexical_error_wins(self):
        text = "@prefix ex: <http://ex.org/> .\nno:a ex:b ex:c .\n" + self.UNCLOSED
        with pytest.raises(UnknownPrefixError) as err:
            parse_turtle(text)
        assert err.value.prefix == "no"

    @pytest.mark.parametrize(
        "text, line, column, expected",
        [
            ('<s> "open', 1, 1, "an absolute IRI (got <s>)"),
            ('<http://a/s> <p> "open', 1, 14, "an absolute IRI (got <p>)"),
            ('<http://a/s> <http://a/p> <o> "open', 1, 27, "an absolute IRI (got <o>)"),
            ('<http://a/s> <http://a/p> "x"^^<d> "open', 1, 32, "an absolute IRI (got <d>)"),
            ('@prefix ex:a "open', 1, 9, "a prefix name ending in ':'"),
            ('@prefix ex: <e> "open', 1, 13, "an absolute IRI (got <e>)"),
        ],
    )
    def test_a_term_error_before_a_lexical_error_in_the_next_token_wins(
        self, text, line, column, expected
    ):
        with pytest.raises(TurtleSyntaxError) as err:
            parse_turtle(text)
        assert (err.value.line, err.value.column, err.value.expected) == (line, column, expected)

    @pytest.mark.parametrize(
        "text",
        ['no:a "open', '<http://a/s> no:p "open', '<http://a/s> <http://a/p> "x"^^no:d "open'],
    )
    def test_an_undeclared_prefix_before_a_lexical_error_in_the_next_token_wins(self, text):
        with pytest.raises(UnknownPrefixError) as err:
            parse_turtle(text)
        assert err.value.prefix == "no"

    def test_the_bracket_over_the_nesting_bound_wins_over_the_next_token(self):
        text = "<http://a/s> <http://a/p> " + "[ <http://a/p> " * MAX_NESTING + '[ "open'
        with pytest.raises(TurtleSyntaxError) as err:
            parse_turtle(text)
        column = len(text) - len('[ "open') + 1
        assert (err.value.line, err.value.column) == (1, column)
        assert err.value.expected == f"at most {MAX_NESTING} nested '['"


class TestParseFuzz:
    @settings(max_examples=1000, deadline=None)
    @given(st.one_of(st.text(), turtle_fragments()))
    def test_only_toolkit_errors_escape(self, text):
        try:
            parse_turtle(text)
        except ToolkitError:
            pass


class TestRoundTripProperty:
    @settings(max_examples=120, deadline=None)
    @given(graphs())
    def test_parse_serialize_parse_isomorphic(self, g):
        again = parse_turtle(serialize_turtle(g))
        assert isomorphic(g, again)
        _repeated_terms(again)


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
