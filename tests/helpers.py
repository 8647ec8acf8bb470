"""Test-only reference implementations kept independent of the engine."""

from __future__ import annotations

import inspect
import math
import re
import socket
import sys
import threading
import time
import xml.etree.ElementTree as ET
from contextlib import contextmanager
from decimal import Decimal
from fractions import Fraction
from typing import Callable, Iterator, Mapping, NamedTuple

from omld.annotations import (
    ARG_POSITION,
    ARG_VALUE,
    ARGUMENTS,
    COMPUTED_FROM,
    FUNCTION,
    CyclicDerivationError,
    Derivation,
    UnresolvedArgumentError,
    argument_leaves,
    decimal_to_om,
)
from omld import resolver
from omld.errors import NonFiniteResultError, ToolkitError
from omld.om import (
    DEFAULT_CDBASE,
    OPENMATH_XML_MIME,
    EncodingError,
    OMApplication,
    OMBinding,
    OMFloat,
    OMInteger,
    OMObject,
    OMString,
    OMSymbol,
    OMVariable,
    cd_url,
    free_variables,
    iter_symbols,
    parse_symbol_uri,
    serialize_om_xml,
    symbol_iri,
)
from omld.rdf import (
    _DECIMAL_RE,
    _DOUBLE_RE,
    _ESCAPES,
    _INTEGER_RE,
    _triple_key,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    XSD_NS,
    BlankNode,
    Graph,
    Iri,
    Literal,
    Term,
    Triple,
    TurtleSyntaxError,
    term_key,
)
from omld.rewrite import (
    ArityMismatchError,
    CdStore,
    DivisionByZeroError,
    FreeVariableError,
    NonNumericLeafError,
    UnknownSymbolError,
    _base_op,
    _replace,
    expand,
)


ARITH1 = "http://www.openmath.org/cd/arith1#"
DATASET_PREFIXES = """\
@prefix ahs: <http://example.org/ns/ahs#> .
@prefix scv: <http://purl.org/NET/scovo#> .
@prefix env: <http://example.org/ns/env#> .
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
@prefix sl:  <http://example.org/ns/sl#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
"""


def demo_cd(cdname: str, *fmps: str) -> str:
    """A CD at http://example.org whose one symbol ``f`` has the given FMP bodies."""
    own = f'<OMS cdbase="http://example.org" cd="{cdname}" name="f"/>'
    fmp_xml = "".join(
        f'<FMP><OMOBJ><OMA><OMS cd="relation1" name="eq"/><OMA>{own}<OMV name="x"/></OMA>'
        f"{body}</OMA></OMOBJ></FMP>"
        for body in fmps
    )
    return (
        f"<CD><CDName>{cdname}</CDName><CDBase>http://example.org</CDBase>"
        f"<Description>d</Description><CDDefinition><Name>f</Name>{fmp_xml}"
        "</CDDefinition></CD>"
    )


class CountingTriples(frozenset):
    """A triple set that counts the full passes made over it."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def match(
    graph: Graph,
    subject: Iri | BlankNode | None = None,
    predicate: Iri | None = None,
    object: Term | None = None,
) -> list[Triple]:
    """The triples matching the bound positions, in ``term_key`` order; None is a wildcard.

    A full scan of the graph's triples: the reference that the graph's own
    lookups are checked against.
    """
    return sorted(
        (
            t
            for t in graph.triples
            if (subject is None or t.subject == subject)
            and (predicate is None or t.predicate == predicate)
            and (object is None or t.object == object)
        ),
        key=_triple_key,
    )


def point_turtle(name: str, value=None, function: str | None = None, args=()) -> str:
    """One data point ``ahs:<name>`` as Turtle.

    ``function`` is an arith1 operation name or a function IRI; ``args`` are
    Turtle terms for its arguments in position order, such as ``ahs:L`` or
    ``"1"^^xsd:decimal``.
    """
    text = f"ahs:{name} scv:dimension env:x"
    if value is not None:
        text += f' ; rdf:value "{value}"^^xsd:decimal'
    if function is not None:
        iri = function if "#" in function else ARITH1 + function
        entries = " , ".join(
            f'[ sl:argPosition "{i}"^^xsd:int ; sl:argValue {arg} ]'
            for i, arg in enumerate(args, start=1)
        )
        text += f" ; sl:computedFrom [ sl:function <{iri}> ; sl:arguments {entries} ]"
    return text + " .\n"


def chain_turtle(depth: int, top_value=None) -> str:
    """ahs:L = 1 under a chain of derived points ahs:D1 .. ahs:D<depth>.

    D<i> = plus(D<i+1>, 1), and the last one adds 1 to L, so D<i> computes to
    depth - i + 2.  The top of the chain, D1, sorts first.  No derived point
    has a stored value except D1, when ``top_value`` is given.
    """
    lines = [DATASET_PREFIXES, point_turtle("L", 1)]
    for i in range(1, depth + 1):
        below = f"ahs:D{i + 1}" if i < depth else "ahs:L"
        value = top_value if i == 1 else None
        lines.append(point_turtle(f"D{i}", value, "plus", (below, '"1"^^xsd:decimal')))
    return "".join(lines)


class CountingTransport:
    """An HTTP transport that records each requested URL.

    It serves ``cds`` (URL to CD XML bytes) and answers 404 for any other URL,
    or, without ``cds``, defers to the real transport.
    """

    def __init__(self, cds: Mapping[str, bytes] | None = None):
        self.urls: list[str] = []
        self._cds = cds
        self._real = resolver._default_transport

    def __call__(self, url: str, headers: dict[str, str], deadline: float | None = None):
        self.urls.append(url)
        if self._cds is None:
            return self._real(url, headers, deadline)
        if url in self._cds:
            return 200, {"content-type": OPENMATH_XML_MIME}, self._cds[url]
        return 404, {}, b""


@contextmanager
def one_shot_server(response: bytes, pieces: int = 1, gap: float = 0.0) -> Iterator[str]:
    """Yield the base URL of a loopback socket that answers one request with ``response``.

    The bytes are sent as they are, so a test can serve a malformed response,
    in ``pieces`` parts ``gap`` seconds apart.
    """
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(10)

    def answer():
        try:
            conn, _ = listener.accept()
        except OSError:
            return
        with conn:
            request = b""
            while b"\r\n\r\n" not in request:
                chunk = conn.recv(4096)
                if not chunk:
                    break
                request += chunk
            step = max(1, -(-len(response) // pieces))
            for start in range(0, len(response), step):
                if start:
                    time.sleep(gap)
                try:
                    conn.sendall(response[start : start + step])
                except OSError:  # the client gave up
                    return

    thread = threading.Thread(target=answer, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{listener.getsockname()[1]}"
    finally:
        try:
            listener.shutdown(socket.SHUT_RDWR)  # wakes an accept that is still waiting
        except OSError:
            pass
        listener.close()
        thread.join(timeout=10)
        assert not thread.is_alive()


@contextmanager
def recursion_limit(frames: int) -> Iterator[int]:
    """Allow only ``frames`` more stack frames than the caller has; yield the limit."""
    old = sys.getrecursionlimit()
    limit = len(inspect.stack(0)) + frames
    sys.setrecursionlimit(limit)
    try:
        yield limit
    finally:
        sys.setrecursionlimit(old)


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def om_from_element_recursive(elem: ET.Element, cdbase: str = DEFAULT_CDBASE) -> OMObject:
    """The recursive OpenMath decoder, one Python frame per level of nesting.

    The differential reference for ``omld.om.om_from_element``: both must
    give equal objects and raise the same errors, in document order.
    """
    cdbase = elem.get("cdbase", cdbase)
    tag = _local(elem.tag)

    if tag == "OMS":
        cd, name = elem.get("cd"), elem.get("name")
        if cd is None or name is None:
            raise EncodingError("OMS", "both 'cd' and 'name' are required")
        try:
            return OMSymbol(cd=cd, name=name, cdbase=cdbase)
        except ValueError as exc:
            raise EncodingError("OMS", str(exc)) from exc
    if tag == "OMI":
        text = (elem.text or "").strip()
        try:
            return OMInteger(int(text))
        except ValueError as exc:
            raise EncodingError("OMI", f"not a decimal integer: {text!r}") from exc
    if tag == "OMF":
        if elem.get("hex") is not None:
            raise EncodingError("OMF", "hex-encoded floats are not supported")
        dec = elem.get("dec")
        if dec is None:
            raise EncodingError("OMF", "missing 'dec' attribute")
        try:
            return OMFloat(float(dec))
        except ValueError as exc:
            raise EncodingError("OMF", f"not a decimal float: {dec!r}") from exc
    if tag == "OMV":
        name = elem.get("name")
        if not name:
            raise EncodingError("OMV", "missing 'name' attribute")
        return OMVariable(name)
    if tag == "OMSTR":
        return OMString(elem.text or "")
    if tag == "OMA":
        children = list(elem)
        if len(children) < 2:
            raise EncodingError("OMA", "an application needs a head and at least one argument")
        parsed = [om_from_element_recursive(c, cdbase) for c in children]
        return OMApplication(parsed[0], tuple(parsed[1:]))
    if tag == "OMBIND":
        children = list(elem)
        if len(children) != 3 or _local(children[1].tag) != "OMBVAR":
            raise EncodingError("OMBIND", "expected binder, OMBVAR, body")
        binder = om_from_element_recursive(children[0], cdbase)
        variables = []
        for v in children[1]:
            parsed = om_from_element_recursive(v, cdbase)
            if not isinstance(parsed, OMVariable):
                raise EncodingError("OMBVAR", "only OMV children are allowed")
            variables.append(parsed)
        body = om_from_element_recursive(children[2], cdbase)
        try:
            return OMBinding(binder, tuple(variables), body)
        except ValueError as exc:
            raise EncodingError("OMBIND", str(exc)) from exc
    raise EncodingError(tag, "unknown OpenMath element")


def _outermost_pass(obj: OMObject, store: CdStore, hits: list) -> OMObject:
    """Rewrite outermost redexes first; a rewritten node is not re-entered."""
    if isinstance(obj, OMApplication):
        head = obj.head
        if isinstance(head, OMSymbol) and _base_op(head) is None:
            defn = store.definition(head)
            if defn is not None and defn.arity == len(obj.args):
                hits.append(head)
                mapping = {p.name: a for p, a in zip(defn.params, obj.args)}
                return _replace(defn.body, mapping, frozenset())
        new_head = head if isinstance(head, OMSymbol) else _outermost_pass(head, store, hits)
        return OMApplication(new_head, tuple(_outermost_pass(a, store, hits) for a in obj.args))
    if isinstance(obj, OMSymbol) and _base_op(obj) is None:
        defn = store.definition(obj)
        if defn is not None and defn.arity == 0:
            hits.append(obj)
            return defn.body
        return obj
    if isinstance(obj, OMBinding):
        return OMBinding(
            _outermost_pass(obj.binder, store, hits),
            obj.variables,
            _outermost_pass(obj.body, store, hits),
        )
    return obj


def expand_outermost(obj: OMObject, store: CdStore, max_passes: int = 64) -> OMObject:
    term = obj
    for _ in range(max_passes):
        hits: list = []
        term2 = _outermost_pass(term, store, hits)
        if not hits:
            return term2
        term = term2
    raise AssertionError("outermost expansion did not reach a fixpoint")


def evaluate(obj: OMObject) -> float:
    """Evaluate a closed, fully-expanded term to a finite 64-bit float.

    A recursive tree walk: the differential reference for
    ``omld.rewrite.Program``, which must give the same values, errors and
    messages.
    """
    if isinstance(obj, OMInteger):
        try:
            return float(obj.value)
        except OverflowError:
            raise NonFiniteResultError(
                f"a {obj.value.bit_length()}-bit integer is too large for a float"
            ) from None
    if isinstance(obj, OMFloat):
        if not math.isfinite(obj.value):
            raise NonFiniteResultError(f"{obj.value!r} is not a finite number")
        return obj.value
    if isinstance(obj, OMVariable):
        raise FreeVariableError(obj.name)
    if isinstance(obj, OMApplication):
        head = obj.head
        if not isinstance(head, OMSymbol):
            raise NonNumericLeafError("application head is not a symbol")
        op = _base_op(head)
        if op is None:
            raise UnknownSymbolError(symbol_iri(head).value)
        arity, apply = op
        args = [evaluate(a) for a in obj.args]
        if arity is not None and len(args) != arity:
            raise ArityMismatchError(symbol_iri(head).value, arity, len(args))
        try:
            value = apply(args)
        except ZeroDivisionError:
            raise DivisionByZeroError(serialize_om_xml(obj)) from None
        except OverflowError:
            raise NonFiniteResultError(f"overflow in {serialize_om_xml(obj)}") from None
        if not isinstance(value, float) or not math.isfinite(value):
            raise NonFiniteResultError(
                f"{value!r} is not a finite real number, in {serialize_om_xml(obj)}"
            )
        return value
    if isinstance(obj, OMSymbol):
        if _base_op(obj) is not None:
            raise NonNumericLeafError(f"bare operation {obj.cd}#{obj.name} is not a number")
        raise UnknownSymbolError(symbol_iri(obj).value)
    raise NonNumericLeafError(f"cannot evaluate {type(obj).__name__}")


_UNIT_ROUNDOFF = Fraction(1, 2**53)  # the relative error of one rounding to a 64-bit float
_SUBNORMAL = Fraction(1, 2**1074)  # bounds the absolute error of a rounding that underflows
_FLOAT_SAFE = Fraction(2**1000)  # a magnitude below this stays in the float range, rounding and all


class Undecided(Exception):
    """The exact value does not tell what a float evaluation of the term gives."""


class ExactDivisionByZero(Exception):
    def __init__(self, term: OMObject):
        super().__init__(serialize_om_xml(term))
        self.term = term


def exact_value(obj: OMObject) -> tuple[Fraction, Fraction]:
    """A closed arith1 term's exact value, and a bound on a float evaluation's distance from it.

    The exact reference for ``omld.rewrite.Program`` on terms whose leaves
    are constants that a float holds exactly, and whose power exponents are
    integer constants.  Arguments are taken left to right and ``plus`` and
    ``times`` fold from the left, as in the program.  Each float step rounds
    once: to within a relative 2**-53 (2**-52 for ``pow``, which may be an
    ulp off), plus a subnormal where it underflows.  The bound carries those
    errors up the term.

    The first zero denominator in post-order, or zero base under a negative
    exponent, raises ExactDivisionByZero with its sub-term.  A denominator
    the bound does not keep away from zero, or a magnitude near the float
    range, raises Undecided.
    """
    if isinstance(obj, (OMInteger, OMFloat)):
        return Fraction(obj.value), Fraction(0)
    name = obj.head.name
    values = [exact_value(arg) for arg in obj.args]
    x, e = values[0]
    if name == "unary_minus":
        return -x, e
    if name == "abs":
        return abs(x), e
    if name == "power":
        k = obj.args[1].value
        if k < 0:
            _check_denominator(x, e, obj)
        m = abs(k)
        err = (abs(x) + e) ** m - abs(x) ** m
        if k < 0:
            err /= (abs(x) - e) ** m * abs(x) ** m
        return _rounded(x**k, err, 2 * _UNIT_ROUNDOFF)
    if name == "divide":
        xb, eb = values[1]
        _check_denominator(xb, eb, obj)
        err = (e * abs(xb) + abs(x) * eb) / ((abs(xb) - eb) * abs(xb))
        return _rounded(x / xb, err)
    if name == "minus":
        xb, eb = values[1]
        return _rounded(x - xb, e + eb)
    for xb, eb in values[1:]:  # plus or times
        if name == "plus":
            x, e = _rounded(x + xb, e + eb)
        else:
            x, e = _rounded(x * xb, abs(x) * eb + abs(xb) * e + e * eb)
    return x, e


def _check_denominator(x: Fraction, e: Fraction, term: OMObject) -> None:
    if abs(x) <= e:
        if e:
            raise Undecided()
        raise ExactDivisionByZero(term)


def _rounded(x: Fraction, err: Fraction, unit: Fraction = _UNIT_ROUNDOFF):
    """An exact result with the bound of the float step that computes it.

    ``err`` bounds how far the step's float operands put its exact result from ``x``.
    """
    bound = err + unit * (abs(x) + err) + _SUBNORMAL
    if abs(x) + bound > _FLOAT_SAFE:
        raise Undecided()
    return x, bound


def derivation_to_om(derivation: Derivation, inputs: Mapping[str, Decimal | float]) -> OMObject:
    """Apply the derivation's function to its ``argument_leaves``.

    After any error of the arguments, a function IRI that is not a symbol URI
    raises MalformedSymbolUriError.
    """
    leaves = argument_leaves(derivation, inputs)
    return OMApplication(parse_symbol_uri(derivation.function_uri), leaves)


def compute_term(term: OMObject, store: CdStore) -> float:
    """Expand a term, check its residual symbols and ``evaluate`` it.

    The reference for ``omld.rewrite._compute_point``, applied to
    ``derivation_to_om``'s term of the same point.
    """
    expanded = expand(term, store)
    residual = [s for s in iter_symbols(expanded) if _base_op(s) is None]
    if residual:
        sym = min(residual, key=lambda s: symbol_iri(s).value)
        fetch_exc = store.fetch_error(cd_url(sym.cdbase, sym.cd))
        if fetch_exc is not None:
            if isinstance(fetch_exc, ToolkitError):
                raise fetch_exc
            raise ToolkitError(f"{type(fetch_exc).__name__}: {fetch_exc}")
        raise UnknownSymbolError(symbol_iri(sym).value)
    return evaluate(expanded)


class UnboundVariableError(ToolkitError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unbound variable: {name}")


def substitute(body: OMObject, bindings: dict[str, OMObject]) -> OMObject:
    """Capture-avoiding substitution; every free variable must be bound.

    The test face of ``omld.rewrite._replace``, which expansion calls with
    each definition's parameters.
    """
    missing = sorted(free_variables(body) - set(bindings))
    if missing:
        raise UnboundVariableError(missing[0])
    return _replace(body, dict(bindings), frozenset())


def inline(
    derivation: Derivation,
    stored: Mapping[str, Decimal],
    derivations: Mapping[str, Derivation],
) -> OMObject:
    """Translate a derivation, inlining each derived source that has no stored value.

    The recursive reference for the chain evaluator: a source with a stored
    value becomes a number, a derived one becomes its own translated term.
    """

    def translate(d: Derivation, visiting: tuple[str, ...]) -> OMObject:
        pid = d.point_id.value
        if pid in visiting:
            raise CyclicDerivationError([*visiting, pid])
        om_args: list[OMObject] = []
        for arg in d.args:
            if not isinstance(arg, Iri):
                om_args.append(decimal_to_om(arg))
            elif arg.value in stored:
                om_args.append(decimal_to_om(stored[arg.value]))
            elif arg.value in derivations:
                om_args.append(translate(derivations[arg.value], (*visiting, pid)))
            else:
                raise UnresolvedArgumentError(arg)
        return OMApplication(parse_symbol_uri(d.function_uri), tuple(om_args))

    return translate(derivation, ())


def om_to_derivation(
    point_id: Iri,
    obj: OMApplication,
    source_of: Callable[[OMObject], Iri | None],
) -> frozenset[Triple]:
    """The computed-from triples for an application, in the shape the extractor reads.

    ``source_of`` maps an argument back to the data point it came from;
    returning None stores the argument, a number, as an inline constant.
    """
    derivation_node = BlankNode("d0")
    triples = {
        Triple(point_id, COMPUTED_FROM, derivation_node),
        Triple(derivation_node, FUNCTION, symbol_iri(obj.head)),
    }
    for index, arg in enumerate(obj.args, start=1):
        arg_node = BlankNode(f"a{index}")
        triples.add(Triple(derivation_node, ARGUMENTS, arg_node))
        triples.add(Triple(arg_node, ARG_POSITION, Literal(str(index), Iri(XSD_NS + "int"))))
        value = source_of(arg)
        if value is None and isinstance(arg, OMInteger):
            value = Literal(str(arg.value), Iri(XSD_INTEGER))
        elif value is None and isinstance(arg, OMFloat):
            value = Literal(repr(arg.value), Iri(XSD_DOUBLE))
        elif value is None:
            raise ValueError(f"argument {index} is neither a number nor a known point")
        triples.add(Triple(arg_node, ARG_VALUE, value))
    return frozenset(triples)


def _bnode_signature(node: BlankNode, triples: frozenset[Triple]) -> tuple:
    """Blank-node colour: how the node connects to ground terms around it."""
    sig = []
    for t in triples:
        if t.subject == node:
            obj = "*" if isinstance(t.object, BlankNode) else term_key(t.object)
            sig.append(("s", t.predicate.value, obj))
        if t.object == node:
            subj = "*" if isinstance(t.subject, BlankNode) else term_key(t.subject)
            sig.append(("o", t.predicate.value, subj))
    return tuple(sorted(sig))


def isomorphic(g1: Graph, g2: Graph) -> bool:
    """True when g2 is g1 under some renaming of blank nodes.

    Ground triples must match exactly; blank nodes are matched by signature
    first and then by backtracking search.  Intended for desk-scale graphs.
    """

    def split(g: Graph):
        ground, with_bnodes = set(), set()
        for t in g.triples:
            if isinstance(t.subject, BlankNode) or isinstance(t.object, BlankNode):
                with_bnodes.add(t)
            else:
                ground.add(t)
        return ground, with_bnodes

    ground1, rest1 = split(g1)
    ground2, rest2 = split(g2)
    if ground1 != ground2 or len(rest1) != len(rest2):
        return False
    if not rest1:
        return True

    def bnodes(triples):
        found = []
        for t in triples:
            for term in (t.subject, t.object):
                if isinstance(term, BlankNode) and term not in found:
                    found.append(term)
        return found

    nodes1, nodes2 = bnodes(rest1), bnodes(rest2)
    if len(nodes1) != len(nodes2):
        return False

    sigs2: dict[BlankNode, tuple] = {n: _bnode_signature(n, frozenset(rest2)) for n in nodes2}
    candidates = {
        n: [m for m in nodes2 if sigs2[m] == _bnode_signature(n, frozenset(rest1))]
        for n in nodes1
    }
    # Most-constrained node first keeps the search shallow.
    order = sorted(nodes1, key=lambda n: len(candidates[n]))

    def rename(t: Triple, mapping: dict[BlankNode, BlankNode]) -> Triple:
        s = mapping.get(t.subject, t.subject) if isinstance(t.subject, BlankNode) else t.subject
        o = mapping.get(t.object, t.object) if isinstance(t.object, BlankNode) else t.object
        return Triple(s, t.predicate, o)

    def assign(i: int, mapping: dict[BlankNode, BlankNode], used: set[BlankNode]) -> bool:
        if i == len(order):
            return {rename(t, mapping) for t in rest1} == rest2
        node = order[i]
        for cand in candidates[node]:
            if cand in used:
                continue
            mapping[node] = cand
            used.add(cand)
            if assign(i + 1, mapping, used):
                return True
            del mapping[node]
            used.discard(cand)
        return False

    return assign(0, {}, set())


# The character-at-a-time Turtle tokenizer that ``omld.rdf._tokenize`` replaced,
# kept unchanged as the reference for the differential tokenizer test.  Its
# tokens are (kind, value, line, column) named tuples; the test turns each
# offset of a ``_tokenize`` token into its line and column to compare them.


class _Token(NamedTuple):
    kind: str
    value: object
    line: int
    column: int

_PNAME_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-")
_NUMBER_START = set("0123456789+-.")


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1

    def error(self, expected: str) -> TurtleSyntaxError:
        return TurtleSyntaxError(self.line, self.col, expected)

    def _peek(self, offset: int = 0) -> str | None:
        j = self.pos + offset
        return self.text[j] if j < len(self.text) else None

    def _advance(self) -> str:
        c = self.text[self.pos]
        self.pos += 1
        if c == "\n":
            self.line += 1
            self.col = 1
        else:
            self.col += 1
        return c

    def tokens(self) -> list[_Token]:
        out: list[_Token] = []
        while True:
            tok = self._next()
            out.append(tok)
            if tok.kind == "EOF":
                return out

    def _next(self) -> _Token:
        while True:
            c = self._peek()
            if c is None:
                return _Token("EOF", None, self.line, self.col)
            if c in " \t\r\n":
                self._advance()
                continue
            if c == "#":
                while self._peek() not in (None, "\n"):
                    self._advance()
                continue
            break

        line, col = self.line, self.col
        c = self._peek()

        if c == "<":
            return self._iriref(line, col)
        if c == '"':
            return self._string(line, col)
        if c == "@":
            return self._at_word(line, col)
        if c == "^":
            self._advance()
            if self._peek() == "^":
                self._advance()
                return _Token("HATHAT", None, line, col)
            raise self.error("'^^'")
        punct = {";": "SEMI", ",": "COMMA", "[": "LBRACKET", "]": "RBRACKET"}
        if c in punct:
            self._advance()
            return _Token(punct[c], None, line, col)
        if c == ".":
            # A dot only starts a number when a digit follows (e.g. ".5e0").
            nxt = self._peek(1)
            if nxt is None or not nxt.isdigit():
                self._advance()
                return _Token("DOT", None, line, col)
            return self._number(line, col)
        if c == "_" and self._peek(1) == ":":
            return self._blank_label(line, col)
        if c in _NUMBER_START:
            return self._number(line, col)
        if c in _PNAME_CHARS or c == ":":
            return self._pname_or_keyword(line, col)
        raise self.error(f"a Turtle token (got {c!r})")

    def _iriref(self, line: int, col: int) -> _Token:
        self._advance()  # '<'
        chars: list[str] = []
        while True:
            c = self._peek()
            if c is None or c in "\n<":
                raise TurtleSyntaxError(line, col, "'>' closing the IRI")
            self._advance()
            if c == ">":
                break
            chars.append(c)
        return _Token("IRIREF", "".join(chars), line, col)

    def _string(self, line: int, col: int) -> _Token:
        self._advance()  # opening quote
        chars: list[str] = []
        while True:
            c = self._peek()
            if c is None or c == "\n":
                raise TurtleSyntaxError(line, col, "closing '\"' (multiline strings unsupported)")
            self._advance()
            if c == '"':
                break
            if c == "\\":
                esc = self._peek()
                if esc is None:
                    raise TurtleSyntaxError(self.line, self.col, "an escape character")
                self._advance()
                if esc in _ESCAPES:
                    chars.append(_ESCAPES[esc])
                elif esc in "uU":
                    width = 4 if esc == "u" else 8
                    digits = ""
                    for _ in range(width):
                        d = self._peek()
                        if d is None or d not in "0123456789abcdefABCDEF":
                            raise TurtleSyntaxError(self.line, self.col, f"{width} hex digits")
                        digits += self._advance()
                    chars.append(chr(int(digits, 16)))
                else:
                    raise TurtleSyntaxError(self.line, self.col, f"a valid escape (got \\{esc})")
            else:
                chars.append(c)
        return _Token("STRING", "".join(chars), line, col)

    def _at_word(self, line: int, col: int) -> _Token:
        self._advance()  # '@'
        word = ""
        while (c := self._peek()) is not None and (c.isalnum() or c == "-"):
            word += self._advance()
        if word == "prefix":
            return _Token("PREFIX_KW", None, line, col)
        if word == "base":
            raise TurtleSyntaxError(line, col, "no '@base' (unsupported directive)")
        if re.fullmatch(r"[A-Za-z]+(-[A-Za-z0-9]+)*", word):
            return _Token("LANGTAG", word, line, col)
        raise TurtleSyntaxError(line, col, "a language tag or '@prefix'")

    def _blank_label(self, line: int, col: int) -> _Token:
        self._advance()
        self._advance()  # '_:'
        label = ""
        while (c := self._peek()) is not None and c in _PNAME_CHARS:
            label += self._advance()
        if not label:
            raise TurtleSyntaxError(line, col, "a blank node label after '_:'")
        return _Token("BLANK", label, line, col)

    def _number(self, line: int, col: int) -> _Token:
        chars = ""
        while (c := self._peek()) is not None and (c in "0123456789+-.eE"):
            # '+'/'-' are only legal at the start or right after an exponent marker.
            if c in "+-" and chars and chars[-1] not in "eE":
                break
            chars += self._advance()
        if _DOUBLE_RE.fullmatch(chars):
            return _Token("NUMBER", (chars, XSD_DOUBLE), line, col)
        if _DECIMAL_RE.fullmatch(chars):
            return _Token("NUMBER", (chars, XSD_DECIMAL), line, col)
        if _INTEGER_RE.fullmatch(chars):
            return _Token("NUMBER", (chars, XSD_INTEGER), line, col)
        raise TurtleSyntaxError(line, col, f"a numeric literal (got {chars!r})")

    def _pname_or_keyword(self, line: int, col: int) -> _Token:
        chars = ""
        while (c := self._peek()) is not None and (c in _PNAME_CHARS or c == ":"):
            chars += self._advance()
        if ":" in chars:
            prefix, local = chars.split(":", 1)
            if ":" in local:
                raise TurtleSyntaxError(line, col, "a prefixed name with a single ':'")
            return _Token("PNAME", (prefix, local), line, col)
        if chars == "a":
            return _Token("A", None, line, col)
        raise TurtleSyntaxError(line, col, f"a prefixed name (got bare {chars!r})")
