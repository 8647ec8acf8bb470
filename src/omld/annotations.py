"""A dataset's stored values and derivations, and their OpenMath translation.

The statistical vocabulary is fixed by the data format, so it is a set of
module constants, and this is the only module that decides which triples
mean a data point, a derivation or a region:

  * ``scv:dimension`` (SCOVO, ``http://purl.org/NET/scovo#``) links a point
    to each of its dimensions, and ``rdf:value`` holds its number;
  * ``sl:computedFrom`` links a point to its derivation, whose
    ``sl:function`` names the function and whose ``sl:arguments`` each carry
    an ``sl:argPosition`` and an ``sl:argValue``; ``sl:`` is
    ``http://example.org/ns/sl#``;
  * a region is a dimension typed ``env:Region``, where ``env:`` is
    ``http://example.org/ns/env#``.

A dataset is its stored values and its derivations, each a dict keyed by
point IRI (``stored_values``, ``extract_derivations``); no object stands for
a data point.  A data point is an IRI subject with a dimension triple, and
its stored value an ``rdf:value`` literal, kept as an exact Decimal until
evaluation.  A derivation holds the function and the arguments in position
order, each a source point's IRI or a constant; ``extract_derivations``
checks that the positions are exactly 1..n.  Where a term has several
values of one predicate, the first in ``term_key`` order is read.

Translation to OpenMath is one level deep: each argument number, a
source's taken from the caller, becomes a leaf in position order
(``argument_leaves``).  Applying the function to the leaves and following a
chain of derived sources is the evaluator's job (``rewrite``).  Annotations
are only read here, never written.
"""

from __future__ import annotations

from collections.abc import Mapping
from decimal import Decimal, InvalidOperation
from operator import attrgetter, itemgetter

from .errors import NonFiniteResultError, ToolkitError
from .om import OMFloat, OMInteger
from .rdf import RDF_TYPE, RDF_VALUE, BlankNode, Graph, Iri, Literal, Term, term_key
from .value import Value, set_field

_SL = "http://example.org/ns/sl#"
COMPUTED_FROM = Iri(_SL + "computedFrom")
FUNCTION = Iri(_SL + "function")
ARGUMENTS = Iri(_SL + "arguments")
ARG_POSITION = Iri(_SL + "argPosition")
ARG_VALUE = Iri(_SL + "argValue")
DIMENSION = Iri("http://purl.org/NET/scovo#dimension")
VALUE = Iri(RDF_VALUE)
REGION = Iri("http://example.org/ns/env#Region")


class BadValueLiteralError(ToolkitError):
    def __init__(self, point_id: Iri, lexical: str):
        self.point_id = point_id
        super().__init__(f"{point_id}: rdf:value {lexical!r} is not numeric")


class MissingFunctionError(ToolkitError):
    def __init__(self, point_id: Iri):
        self.point_id = point_id
        super().__init__(f"{point_id}: derivation has no sl:function")


class BadArgPositionsError(ToolkitError):
    def __init__(self, point_id: Iri, detail: str):
        self.point_id = point_id
        super().__init__(f"{point_id}: {detail}")


class UnresolvedArgumentError(ToolkitError):
    def __init__(self, source: Iri | str):
        self.source = source
        super().__init__(f"cannot resolve argument: {source}")


class CyclicDerivationError(ToolkitError):
    def __init__(self, chain: list[str]):
        self.chain = chain
        super().__init__("cyclic derivation: " + " -> ".join(chain))


class Derivation(Value):
    """A point's function and arguments: ``args[i]``, a source point's IRI or a
    constant, fills position i + 1."""

    __slots__ = ("point_id", "function_uri", "args")

    def __init__(self, point_id: Iri, function_uri: Iri, args: tuple[Iri | Decimal, ...]):
        set_field(self, "point_id", point_id)
        set_field(self, "function_uri", function_uri)
        set_field(self, "args", args)


def _decimal(lexical: str) -> Decimal:
    value = Decimal(lexical)
    if not value.is_finite():
        raise InvalidOperation(lexical)
    return value


def _iri_subjects(graph: Graph, predicate: Iri) -> list[Iri]:
    """The IRI subjects of ``predicate``, sorted by IRI."""
    return sorted(
        (s for s in graph.subjects(predicate) if isinstance(s, Iri)), key=attrgetter("value")
    )


def stored_values(graph: Graph) -> dict[str, Decimal]:
    """Each data point's number by point IRI, for the points that have one.

    A value that is not a finite number raises BadValueLiteralError for the
    first such point by IRI.
    """
    stored = {}
    for subject in _iri_subjects(graph, DIMENSION):
        values = graph.objects(subject, VALUE)
        if not values:
            continue
        first = values[0]
        if not isinstance(first, Literal):
            raise BadValueLiteralError(subject, term_key(first))
        try:
            stored[subject.value] = _decimal(first.lexical)
        except InvalidOperation:
            raise BadValueLiteralError(subject, first.lexical) from None
    return stored


def _parse_position(term: Term) -> int | None:
    if not isinstance(term, Literal):
        return None
    try:
        return int(term.lexical)
    except ValueError:
        return None


def extract_derivations(graph: Graph) -> list[Derivation]:
    """One Derivation per point with a computed-from structure, in point IRI order."""
    derivations = []
    for point_id in _iri_subjects(graph, COMPUTED_FROM):
        nodes = graph.objects(point_id, COMPUTED_FROM)
        if len(nodes) > 1:
            import logging  # only this warning logs

            logging.getLogger(__name__).warning(
                "%s has multiple computed-from annotations; keeping the first", point_id
            )
        node = nodes[0]
        if not isinstance(node, (Iri, BlankNode)):
            raise MissingFunctionError(point_id)

        function_uri = None
        for o in graph.objects(node, FUNCTION):
            if isinstance(o, Iri):
                function_uri = o
                break
        if function_uri is None:
            raise MissingFunctionError(point_id)

        args = []
        for arg_node in graph.objects(node, ARGUMENTS):
            if not isinstance(arg_node, (Iri, BlankNode)):
                raise BadArgPositionsError(point_id, "argument entry is a literal")
            positions = [
                p
                for p in (_parse_position(o) for o in graph.objects(arg_node, ARG_POSITION))
                if p is not None
            ]
            if len(positions) != 1:
                raise BadArgPositionsError(point_id, "argument lacks a single integer position")
            position = positions[0]
            values = graph.objects(arg_node, ARG_VALUE)
            if not values:
                raise BadArgPositionsError(point_id, f"argument {position} has no value")
            value = values[0]
            if isinstance(value, BlankNode):
                raise BadArgPositionsError(point_id, f"argument {position} points at a blank node")
            if isinstance(value, Literal):
                try:
                    value = _decimal(value.lexical)
                except InvalidOperation:
                    raise BadValueLiteralError(point_id, value.lexical) from None
            args.append((position, value))

        args.sort(key=itemgetter(0))
        positions = [position for position, _ in args]
        if not positions or positions != list(range(1, len(args) + 1)):
            raise BadArgPositionsError(point_id, f"positions {positions} are not exactly 1..n")
        derivations.append(Derivation(point_id, function_uri, tuple(v for _, v in args)))
    return derivations


def extract_regions(graph: Graph) -> set[Iri | BlankNode]:
    """The subjects typed ``env:Region``."""
    rdf_type = Iri(RDF_TYPE)
    return {s for s in graph.subjects(rdf_type) if REGION in graph.objects(s, rdf_type)}


def decimal_to_om(value: Decimal) -> OMInteger | OMFloat:
    """Integer-valued decimals become OMI, everything else OMF.

    A value of 1e309 or more in magnitude raises NonFiniteResultError, as no
    float holds it; this also spares ``int()`` a huge exponent.
    """
    if value.adjusted() > 308:
        raise NonFiniteResultError(f"{value} is beyond the float range")
    if value == value.to_integral_value():
        return OMInteger(int(value))
    return OMFloat(float(value))


def argument_leaves(
    derivation: Derivation, inputs: Mapping[str, Decimal | float]
) -> tuple[OMInteger | OMFloat, ...]:
    """The derivation's arguments as OpenMath leaves, in position order.

    ``inputs`` maps each source point's IRI string to its number: a Decimal
    becomes OMI or OMF as ``decimal_to_om`` decides, a computed value becomes
    OMF.  A source missing from ``inputs`` raises UnresolvedArgumentError,
    and a Decimal beyond the float range NonFiniteResultError.
    """
    leaves = []
    for arg in derivation.args:
        value = inputs.get(arg.value) if isinstance(arg, Iri) else arg
        if value is None:
            raise UnresolvedArgumentError(arg)
        leaves.append(decimal_to_om(value) if isinstance(value, Decimal) else OMFloat(value))
    return tuple(leaves)
