"""Data points, derivation annotations, and their OpenMath translation.

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

A data point is any IRI subject carrying at least one dimension triple; its
numeric value, when present, comes from an ``rdf:value`` literal and is kept
as an exact Decimal until evaluation.  A derivation records which function
computed the point and which sources fill which argument positions; argument
positions must be exactly 1..n.  Where a term has several values of one
predicate, the first in ``term_key`` order is read.

Translation to OpenMath is one level deep: each argument number, a
source's taken from the caller, becomes a leaf in position order, and the
function symbol (parsed from its URI) is applied to the leaves.  Following a
chain of derived sources is the evaluator's job (``rewrite``).  Annotations
are only read here, never written.
"""

from __future__ import annotations

from collections.abc import Mapping
from decimal import Decimal, InvalidOperation
from operator import attrgetter

from .errors import NonFiniteResultError, ToolkitError
from .om import OMApplication, OMFloat, OMInteger, OMObject, parse_symbol_uri
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


class DataPoint(Value):
    __slots__ = ("id", "dimensions", "value")

    def __init__(self, id: Iri, dimensions: tuple[Iri, ...], value: Decimal | None = None):
        set_field(self, "id", id)
        set_field(self, "dimensions", dimensions)
        set_field(self, "value", value)


class DerivationArg(Value):
    """One argument slot: either a data-point reference or an inline constant."""

    __slots__ = ("position", "source", "literal")

    def __init__(self, position: int, source: Iri | None = None, literal: Decimal | None = None):
        if (source is None) == (literal is None):
            raise ValueError("exactly one of source/literal must be set")
        set_field(self, "position", position)
        set_field(self, "source", source)
        set_field(self, "literal", literal)


class Derivation(Value):
    __slots__ = ("point_id", "function_uri", "args")

    def __init__(self, point_id: Iri, function_uri: Iri, args: tuple[DerivationArg, ...]):
        positions = [a.position for a in args]
        if positions != list(range(1, len(positions) + 1)):
            raise ValueError(f"argument positions must be 1..n, got {positions}")
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


def extract_data_points(graph: Graph) -> list[DataPoint]:
    """One DataPoint per IRI subject with at least one dimension triple."""
    points = []
    for subject in _iri_subjects(graph, DIMENSION):
        dims = sorted(
            {o.value for o in graph.objects(subject, DIMENSION) if isinstance(o, Iri)}
        )
        value = None
        values = graph.objects(subject, VALUE)
        if values:
            first = values[0]
            if not isinstance(first, Literal):
                raise BadValueLiteralError(subject, term_key(first))
            try:
                value = _decimal(first.lexical)
            except InvalidOperation:
                raise BadValueLiteralError(subject, first.lexical) from None
        points.append(DataPoint(id=subject, dimensions=tuple(Iri(d) for d in dims), value=value))
    return points


def _parse_position(term: Term) -> int | None:
    if not isinstance(term, Literal):
        return None
    try:
        return int(term.lexical)
    except ValueError:
        return None


def extract_derivations(graph: Graph) -> list[Derivation]:
    """One Derivation per point annotated with a computed-from structure."""
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
            if isinstance(value, Iri):
                args.append(DerivationArg(position=position, source=value))
            elif isinstance(value, Literal):
                try:
                    args.append(DerivationArg(position=position, literal=_decimal(value.lexical)))
                except InvalidOperation:
                    raise BadValueLiteralError(point_id, value.lexical) from None
            else:
                raise BadArgPositionsError(point_id, f"argument {position} points at a blank node")

        args.sort(key=lambda a: a.position)
        positions = [a.position for a in args]
        if not positions or positions != list(range(1, len(args) + 1)):
            raise BadArgPositionsError(point_id, f"positions {positions} are not exactly 1..n")
        derivations.append(
            Derivation(point_id=point_id, function_uri=function_uri, args=tuple(args))
        )
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
        if arg.source is not None and arg.source.value not in inputs:
            raise UnresolvedArgumentError(arg.source)
        value = arg.literal if arg.source is None else inputs[arg.source.value]
        leaves.append(decimal_to_om(value) if isinstance(value, Decimal) else OMFloat(value))
    return tuple(leaves)


def derivation_to_om(derivation: Derivation, inputs: Mapping[str, Decimal | float]) -> OMObject:
    """Apply the derivation's function to its ``argument_leaves``.

    After any error of the arguments, a function IRI that is not a symbol URI
    raises MalformedSymbolUriError.
    """
    leaves = argument_leaves(derivation, inputs)
    return OMApplication(parse_symbol_uri(derivation.function_uri), leaves)
