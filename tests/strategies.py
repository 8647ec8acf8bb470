"""Hypothesis strategies for graphs, OpenMath objects, and derivations."""

from __future__ import annotations

import string
from decimal import Decimal
from operator import add

from hypothesis import strategies as st

from omld.annotations import Derivation
from omld.cd import ContentDictionary, SymbolDefinition
from omld.om import (
    OMApplication,
    OMFloat,
    OMInteger,
    OMString,
    OMSymbol,
    OMVariable,
    parse_symbol_uri,
)
from omld.rdf import XSD_NS, BlankNode, Graph, Iri, Literal, Triple

from .helpers import DATASET_PREFIXES, point_turtle


def _word(first: str, rest: str, max_rest: int) -> st.SearchStrategy[str]:
    """One character of ``first``, then at most ``max_rest`` of ``rest``.

    Drawn as characters, which costs hypothesis far less than ``from_regex``.
    """
    return st.builds(add, st.sampled_from(first), st.text(alphabet=rest, max_size=max_rest))


_ALNUM = string.ascii_letters + string.digits
_WORD = _word(string.ascii_lowercase, string.ascii_lowercase + string.digits, 8)  # [a-z][a-z0-9]{0,8}
_LOCAL = _word(_ALNUM + "_", _ALNUM + "_-", 10)  # [A-Za-z0-9_][A-Za-z0-9_\-]{0,10}


@st.composite
def iris(draw) -> Iri:
    host = draw(_WORD)
    path = draw(st.lists(_LOCAL, min_size=0, max_size=3))
    frag = draw(st.one_of(st.none(), _LOCAL))
    value = f"http://{host}.example" + "".join("/" + p for p in path)
    if frag is not None:
        value += "#" + frag
    return Iri(value)


_LEXICAL = st.text(
    alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x7E) | st.sampled_from("\n\t\"\\äπ"),
    max_size=20,
)


@st.composite
def literals(draw) -> Literal:
    kind = draw(st.sampled_from(["plain", "typed", "lang", "int", "dec"]))
    if kind == "int":
        return Literal(str(draw(st.integers(-10**6, 10**6))), datatype=Iri(XSD_NS + "integer"))
    if kind == "dec":
        whole = draw(st.integers(-10**4, 10**4))
        frac = draw(st.integers(0, 999))
        return Literal(f"{whole}.{frac:03d}", datatype=Iri(XSD_NS + "decimal"))
    lex = draw(_LEXICAL)
    if kind == "typed":
        return Literal(lex, datatype=draw(iris()))
    if kind == "lang":
        tag = draw(st.from_regex(r"[a-z]{2}(-[a-z0-9]{1,4})?", fullmatch=True))
        return Literal(lex, language=tag)
    return Literal(lex)


def bnodes() -> st.SearchStrategy[BlankNode]:
    return st.integers(0, 7).map(lambda n: BlankNode(f"n{n}"))


# Pieces of Turtle, of broken Turtle and of escapes, some naming no Unicode
# scalar value; joined at random they reach every token kind and error.
TURTLE_FRAGMENTS = (
    "@prefix", "@base", "@en-US", "@", "<", ">", "<http://x.org/a>", '"', '"s"', "'", "\\",
    "u00e4", "uD800", "U0000DFFF", "U00110000", "UFFFFFFFF", "U0010FFFF", "\\U00110000",
    "\\uD800", "\\u00e4", "\\u00", "\\U00e4", "t", "^", "^^",
    "_:", "_:b", "_", ":", "a", "a:", "ab", ".", ".5", ".²", "3e-2", "-", "+", "1", "e",
    "ab:cd:ef", ";", ",", "[", "]", "#c", " ", "\t", "\n", "\r", "\f", "é", "²", "٣", "½",
)


def turtle_fragments() -> st.SearchStrategy[str]:
    """Random joins of TURTLE_FRAGMENTS, also inside a string, or text over their characters."""
    joined = st.lists(st.sampled_from(TURTLE_FRAGMENTS), max_size=16).map("".join)
    alphabet = sorted(set("".join(TURTLE_FRAGMENTS)))
    return st.one_of(joined, joined.map(lambda t: '"' + t), st.text(alphabet=alphabet, max_size=24))


@st.composite
def triples(draw) -> Triple:
    subject = draw(st.one_of(iris(), bnodes()))
    predicate = draw(iris())
    obj = draw(st.one_of(iris(), bnodes(), literals()))
    return Triple(subject, predicate, obj)


@st.composite
def graphs(draw) -> Graph:
    ts = draw(st.lists(triples(), min_size=0, max_size=12))
    prefixes = {}
    if draw(st.booleans()):
        prefixes["ex"] = "http://ex.example/"
    return Graph(triples=frozenset(ts), prefixes=prefixes)


def om_objects(max_leaves: int = 12):
    from omld import om

    ncname = st.from_regex(r"[A-Za-z_][A-Za-z0-9_\-]{0,8}", fullmatch=True)
    symbols = st.builds(
        om.OMSymbol,
        cd=ncname,
        name=ncname,
        cdbase=st.sampled_from(
            ["http://www.openmath.org/cd", "http://example.org", "http://cdba.se/om"]
        ),
    )
    floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
    leaves = st.one_of(
        symbols,
        st.builds(om.OMInteger, st.integers(-10**30, 10**30)),
        st.builds(om.OMFloat, floats),
        st.builds(om.OMVariable, ncname),
        st.builds(om.OMString, _LEXICAL),
    )

    def compose(children):
        applications = st.builds(
            lambda head, args: om.OMApplication(head, tuple(args)),
            children,
            st.lists(children, min_size=1, max_size=4),
        )
        bindings = st.builds(
            lambda binder, names, body: om.OMBinding(
                binder, tuple(om.OMVariable(n) for n in names), body
            ),
            children,
            st.lists(ncname, min_size=1, max_size=3, unique=True),
            children,
        )
        return st.one_of(applications, bindings)

    return st.recursive(leaves, compose, max_leaves=max_leaves)


@st.composite
def derivations(draw) -> Derivation:
    point = draw(iris())
    cd = draw(st.from_regex(r"[a-z][a-z0-9]{0,6}", fullmatch=True))
    name = draw(st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True))
    function = Iri(f"http://cds.example/{cd}#{name}")
    n = draw(st.integers(1, 5))
    args = []
    for _ in range(n):
        if draw(st.booleans()):
            args.append(draw(iris()))
        else:
            value = Decimal(draw(st.integers(-999, 999))) / Decimal(draw(st.sampled_from([1, 2, 4, 8])))
            args.append(value)
    return Derivation(point_id=point, function_uri=function, args=tuple(args))


@st.composite
def derivation_dags(draw) -> tuple[str, str]:
    """Turtle for a DAG of arith1 derivations over positive leaves, and its top IRI.

    Only the top point surely has a stored value; each other derived point
    may have one.  Values stay finite and nonzero: at most six levels, each
    at most squaring the magnitude of 999 or 1/8.
    """
    positive = st.builds(
        lambda n, d: Decimal(n) / d, st.integers(1, 999), st.sampled_from([1, 2, 4, 8])
    )
    names = [f"L{i}" for i in range(draw(st.integers(1, 4)))]
    lines = [point_turtle(name, draw(positive)) for name in names]
    derived = draw(st.integers(1, 6))
    for j in range(derived):
        function = draw(st.sampled_from(["plus", "times", "divide"]))
        arity = 2 if function == "divide" else draw(st.integers(1, 3))
        # Drawing from the last two points makes diamonds and long chains.
        sources = st.one_of(st.sampled_from(names), st.sampled_from(names[-2:]))
        args = [f"ahs:{draw(sources)}" for _ in range(arity)]
        value = 1 if j == derived - 1 else draw(st.one_of(st.none(), positive))
        lines.append(point_turtle(f"D{j}", value, function, args))
        names.append(f"D{j}")
    return DATASET_PREFIXES + "".join(lines), "http://example.org/ns/ahs#" + names[-1]


ARITH1_OPERATIONS = ("plus", "times", "minus", "divide", "power", "unary_minus", "abs")
_RANDOM_CD = "http://example.org/rand#"
# Decimal inputs at the edges: zeros, integer values, and magnitudes at,
# past and just under the float range.  2**1024 - 2**970 lies halfway
# between the largest float and 2**1024, so it rounds to infinity; anything
# below it rounds to the largest float.
_EDGE_DECIMALS = (
    *("0", "-0", "-0.0", "0E+5", "1", "-2", "5.000", "2E+3", "0.5", "-1.25", "1e-400"),
    *("-1e-400", "1e308", "-9.99e308", "1.7976931348623157e308", "1E+309", "-1e400"),
    *(str(2**1024 - 2**970), str(2**1024 - 2**970 - 1), f"{2**1024 - 2**970 - 1}.5"),
)
_DECIMALS = st.one_of(
    st.sampled_from(_EDGE_DECIMALS).map(Decimal),
    st.sampled_from(_EDGE_DECIMALS[:4]).map(Decimal),
    st.integers(-(10**6), 10**6).map(Decimal),
    st.decimals(allow_nan=False, allow_infinity=False),
)
_CONSTANTS = st.one_of(
    st.integers(-3, 3).map(OMInteger),
    st.sampled_from([0.0, -0.0, 0.5, 1e300]).map(OMFloat),
    st.sampled_from([10**400, -(2**1024), 2**1023]).map(OMInteger),
    st.floats(width=64).map(OMFloat),
)


def arith1_terms(draw, params: tuple[str, ...], callees: dict[str, int], depth: int):
    """A random term over arith1 operations, constants, ``params`` and calls of
    ``callees`` (name to arity in the random CD), at most ``depth`` levels deep.

    Mostly well formed; now and then an operation or call has the wrong
    number of arguments, or a leaf or head cannot be evaluated.
    """
    kind = draw(st.sampled_from(["leaf", "leaf", "op", "op", "op", "call", "odd"]))
    if depth == 0 or kind == "leaf":
        if params and draw(st.booleans()):
            return OMVariable(draw(st.sampled_from(params)))
        return draw(_CONSTANTS)
    if kind == "odd":
        return draw(
            st.sampled_from(
                [
                    OMString("s"),
                    OMSymbol("arith1", "plus"),
                    OMApplication(OMSymbol("transc1", "sin"), (OMInteger(1),)),
                    OMApplication(OMInteger(1), (OMInteger(1),)),
                ]
            )
        )
    if kind == "call" and callees:
        name = draw(st.sampled_from(sorted(callees)))
        head = parse_symbol_uri(_RANDOM_CD + name)
        n = callees[name] if draw(st.integers(0, 24)) else draw(st.integers(1, 3))
    else:
        name = draw(st.sampled_from(ARITH1_OPERATIONS))
        head = OMSymbol("arith1", name)
        usual = {"minus": 2, "divide": 2, "power": 2, "unary_minus": 1, "abs": 1}
        n = usual.get(name) if draw(st.integers(0, 24)) else None
        n = n or draw(st.integers(1, 3))
    args = tuple(arith1_terms(draw, params, callees, depth - 1) for _ in range(n))
    return OMApplication(head, args)


# Constants a float holds exactly: small integers, zero often among them,
# and floats of any value in range.
_EXACT_CONSTANTS = st.one_of(
    st.integers(-20, 20).map(OMInteger), st.floats(-100, 100, width=64).map(OMFloat)
)


@st.composite
def exact_arith1_terms(draw, depth: int = 4):
    """A closed term of arith1 operations, each with its usual number of
    arguments, over ``_EXACT_CONSTANTS``, at most ``depth`` levels deep; a
    power's exponent is an integer constant from -3 to 3."""
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        return draw(_EXACT_CONSTANTS)
    name = draw(st.sampled_from(ARITH1_OPERATIONS))
    head = OMSymbol("arith1", name)
    if name == "power":
        exponent = OMInteger(draw(st.integers(-3, 3)))
        return OMApplication(head, (draw(exact_arith1_terms(depth - 1)), exponent))
    n = {"minus": 2, "divide": 2, "unary_minus": 1, "abs": 1}.get(name) or draw(st.integers(1, 3))
    return OMApplication(head, tuple(draw(exact_arith1_terms(depth - 1)) for _ in range(n)))


@st.composite
def random_cd_points(draw):
    """A random CD, a derivation over it or over arith1, and its inputs.

    The CD ``http://example.org/rand`` defines f0..fk; each body may call
    the later ones, and need not use every parameter.  The derivation's
    arguments are inline Decimals or sources, and each source's input is a
    Decimal, a float (as a computed input is), or missing.
    """
    arities = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    definitions = []
    for i in reversed(range(len(arities))):
        params = tuple(f"x{j}" for j in range(arities[i]))
        callees = {f"f{j}": arities[j] for j in range(i + 1, len(arities))}
        body = arith1_terms(draw, params, callees, 4)
        own = parse_symbol_uri(f"{_RANDOM_CD}f{i}")
        lhs = OMApplication(own, tuple(OMVariable(p) for p in params))
        fmp = OMApplication(OMSymbol("relation1", "eq"), (lhs, body))
        definitions.append(SymbolDefinition(f"f{i}", "", (), (fmp,)))
    cd = ContentDictionary("http://example.org", "rand", "", tuple(definitions))

    if draw(st.booleans()):
        function, n = _RANDOM_CD + "f0", arities[0]
    else:
        function = "http://www.openmath.org/cd/arith1#" + draw(st.sampled_from(ARITH1_OPERATIONS))
        n = draw(st.integers(1, 3))
    args, inputs = [], {}
    for position in range(1, n + 1):
        if draw(st.booleans()):
            args.append(draw(_DECIMALS))
            continue
        source = f"http://example.org/ns/ahs#s{position}"
        args.append(Iri(source))
        kind = draw(st.integers(0, 9))
        if kind < 6:
            inputs[source] = draw(_DECIMALS)
        elif kind < 9:
            inputs[source] = draw(st.floats(width=64))
    derivation = Derivation(Iri("http://example.org/ns/ahs#p"), Iri(function), tuple(args))
    return cd, derivation, inputs


# What a mutation may insert: markup, OpenMath and CD elements, and bad values.
_XML_PIECES = (
    *("<", ">", "/", '"', "=", "&", "&amp;", "&#0;", "&#x110000;", "\x00", "]]>", "<!-- -->"),
    *("<!DOCTYPE CD>", '<?xml version="1.0"?>', ' xmlns="http://www.openmath.org/OpenMath"'),
    *(' xmlns:om="urn:x"', "<om:OMI>", "<OMOBJ>", "</OMOBJ>", "<OMA>", "</OMA>", "<OMATTR>"),
    *("<OMBIND>", "<OMBVAR>", "<OMI>", "</OMI>", "<OMSTR>", "</OMSTR>", '<OMV name="x"/>'),
    *('<OMV name=""/>', '<OMS cd="arith1" name="plus"/>', '<OMS cd="a b" name=""/>'),
    *('<OMF dec="nan"/>', '<OMF dec="1e400"/>', '<OMF hex="zz"/>', ' cdbase=""', ' name="1x"'),
    *("<CDDefinition>", "</CDDefinition>", "<Name>", "</Name>", "<FMP>", "</FMP>", "<CDName>"),
    *("<CDBase>", "x", "-", "1e999", "99999999999999999999"),
)


@st.composite
def xml_mutations(draw, text: str) -> str:
    """``text`` after one to four deletions, insertions of a piece of markup, or duplications."""
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.integers(0, len(text)))
        end = draw(st.integers(start, min(len(text), start + 40)))
        kind = draw(st.sampled_from(["delete", "insert", "duplicate"]))
        if kind == "delete":
            text = text[:start] + text[end:]
        elif kind == "insert":
            text = text[:start] + draw(st.sampled_from(_XML_PIECES)) + text[start:]
        else:
            text = text[:end] + text[start:end] + text[end:]
    return text
