"""Hypothesis strategies for graphs, OpenMath objects, and derivations."""

from __future__ import annotations

from decimal import Decimal

from hypothesis import strategies as st

from omld.annotations import Derivation, DerivationArg
from omld.rdf import XSD_NS, BlankNode, Graph, Iri, Literal, Triple

from .helpers import DATASET_PREFIXES, point_turtle

_WORD = st.from_regex(r"[a-z][a-z0-9]{0,8}", fullmatch=True)
_LOCAL = st.from_regex(r"[A-Za-z0-9_][A-Za-z0-9_\-]{0,10}", fullmatch=True)


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
    for position in range(1, n + 1):
        if draw(st.booleans()):
            args.append(DerivationArg(position=position, source=draw(iris())))
        else:
            value = Decimal(draw(st.integers(-999, 999))) / Decimal(draw(st.sampled_from([1, 2, 4, 8])))
            args.append(DerivationArg(position=position, literal=value))
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
