"""Data points, derivation annotations, and their OpenMath translation.

A data point is any IRI subject carrying at least one dimension triple; its
numeric value, when present, comes from an ``rdf:value`` literal and is kept
as an exact Decimal until evaluation.  A derivation records which function
computed the point and which sources fill which argument positions; argument
positions must be exactly 1..n.

Translation to OpenMath is one level deep: it applies the function symbol
(parsed from its URI) to the argument numbers in position order, taking each
source's number from the caller.  Following a chain of derived sources is
the evaluator's job (``rewrite``).  The reverse direction emits the same
blank-node shape the extractor reads, so the two form a round trip.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from typing import Callable, Mapping

from .config import DEFAULT_VOCAB, StatVocab
from .errors import ToolkitError
from .om import (
    OMApplication,
    OMFloat,
    OMInteger,
    OMObject,
    OMSymbol,
    symbol_from_iri,
    symbol_iri,
)
from .rdf import (
    RDF_VALUE,
    XSD_NS,
    BlankNode,
    Graph,
    Iri,
    Literal,
    Term,
    Triple,
    term_key,
)

log = logging.getLogger(__name__)

XSD_INT = XSD_NS + "int"


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


class NotAnApplicationError(ToolkitError):
    pass


@dataclass(frozen=True)
class DataPoint:
    id: Iri
    dimensions: tuple[Iri, ...]
    value: Decimal | None = None
    dataset: Iri | None = None


@dataclass(frozen=True)
class DerivationArg:
    """One argument slot: either a data-point reference or an inline constant."""

    position: int
    source: Iri | None = None
    literal: Decimal | None = None

    def __post_init__(self):
        if (self.source is None) == (self.literal is None):
            raise ValueError("exactly one of source/literal must be set")


@dataclass(frozen=True)
class Derivation:
    point_id: Iri
    function_uri: Iri
    args: tuple[DerivationArg, ...]

    def __post_init__(self):
        positions = [a.position for a in self.args]
        if positions != list(range(1, len(positions) + 1)):
            raise ValueError(f"argument positions must be 1..n, got {positions}")


def _decimal(lexical: str) -> Decimal:
    value = Decimal(lexical)
    if not value.is_finite():
        raise InvalidOperation(lexical)
    return value


def extract_data_points(graph: Graph, vocab: StatVocab = DEFAULT_VOCAB) -> list[DataPoint]:
    """One DataPoint per IRI subject with at least one dimension triple."""
    subjects = sorted(
        {t.subject for t in graph.match(predicate=vocab.dimension) if isinstance(t.subject, Iri)},
        key=lambda s: s.value,
    )

    points = []
    for subject in subjects:
        dims = sorted(
            {o.value for o in graph.objects(subject, vocab.dimension) if isinstance(o, Iri)}
        )
        value = None
        values = graph.objects(subject, vocab.value)
        if values:
            first = values[0]
            if not isinstance(first, Literal):
                raise BadValueLiteralError(subject, term_key(first))
            try:
                value = _decimal(first.lexical)
            except InvalidOperation:
                raise BadValueLiteralError(subject, first.lexical) from None
        dataset = None
        for o in graph.objects(subject, vocab.dataset):
            if isinstance(o, Iri):
                dataset = o
                break
        points.append(
            DataPoint(
                id=subject,
                dimensions=tuple(Iri(d) for d in dims),
                value=value,
                dataset=dataset,
            )
        )
    return points


def _parse_position(term: Term) -> int | None:
    if not isinstance(term, Literal):
        return None
    try:
        return int(term.lexical)
    except ValueError:
        return None


def extract_derivations(graph: Graph, vocab: StatVocab = DEFAULT_VOCAB) -> list[Derivation]:
    """One Derivation per point annotated with a computed-from structure."""
    by_point: dict[Iri, list[Term]] = {}
    for t in graph.match(predicate=vocab.computed_from):
        if isinstance(t.subject, Iri):
            by_point.setdefault(t.subject, []).append(t.object)

    derivations = []
    for point_id in sorted(by_point, key=lambda s: s.value):
        nodes = sorted(by_point[point_id], key=term_key)
        if len(nodes) > 1:
            log.warning("%s has multiple computed-from annotations; keeping the first", point_id)
        node = nodes[0]
        if not isinstance(node, (Iri, BlankNode)):
            raise MissingFunctionError(point_id)

        function_uri = None
        for o in graph.objects(node, vocab.function):
            if isinstance(o, Iri):
                function_uri = o
                break
        if function_uri is None:
            raise MissingFunctionError(point_id)

        args = []
        for arg_node in graph.objects(node, vocab.arguments):
            if not isinstance(arg_node, (Iri, BlankNode)):
                raise BadArgPositionsError(point_id, "argument entry is a literal")
            positions = [
                p
                for p in (_parse_position(o) for o in graph.objects(arg_node, vocab.arg_position))
                if p is not None
            ]
            if len(positions) != 1:
                raise BadArgPositionsError(point_id, "argument lacks a single integer position")
            position = positions[0]
            values = graph.objects(arg_node, vocab.arg_value)
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


def decimal_to_om(value: Decimal) -> OMInteger | OMFloat:
    """Integer-valued decimals become OMI, everything else OMF."""
    if value == value.to_integral_value():
        return OMInteger(int(value))
    return OMFloat(float(value))


def derivation_to_om(derivation: Derivation, inputs: Mapping[str, Decimal | float]) -> OMObject:
    """Apply the derivation's function to its arguments in position order.

    ``inputs`` maps each source point's IRI string to its number: a Decimal
    becomes OMI or OMF as ``decimal_to_om`` decides, a computed value becomes
    OMF.  A source missing from ``inputs`` raises UnresolvedArgumentError.
    """
    om_args: list[OMObject] = []
    for arg in derivation.args:
        if arg.source is not None and arg.source.value not in inputs:
            raise UnresolvedArgumentError(arg.source)
        value = arg.literal if arg.source is None else inputs[arg.source.value]
        om_args.append(decimal_to_om(value) if isinstance(value, Decimal) else OMFloat(value))
    return OMApplication(symbol_from_iri(derivation.function_uri), tuple(om_args))


def om_to_derivation(
    point_id: Iri,
    obj: OMObject,
    source_of: Callable[[OMObject], Iri | None],
    vocab: StatVocab = DEFAULT_VOCAB,
) -> frozenset[Triple]:
    """Emit the computed-from triples for an application.

    ``source_of`` maps an argument back to the data point it came from;
    returning None stores the argument as an inline numeric constant.
    """
    if not isinstance(obj, OMApplication) or not isinstance(obj.head, OMSymbol):
        raise NotAnApplicationError(f"cannot annotate a non-application: {type(obj).__name__}")

    triples: set[Triple] = set()
    derivation_node = BlankNode("d0")
    triples.add(Triple(point_id, vocab.computed_from, derivation_node))
    triples.add(Triple(derivation_node, vocab.function, symbol_iri(obj.head)))

    for index, arg in enumerate(obj.args, start=1):
        arg_node = BlankNode(f"a{index}")
        triples.add(Triple(derivation_node, vocab.arguments, arg_node))
        triples.add(
            Triple(arg_node, vocab.arg_position, Literal(str(index), datatype=Iri(XSD_INT)))
        )
        source = source_of(arg)
        if source is not None:
            triples.add(Triple(arg_node, vocab.arg_value, source))
        elif isinstance(arg, OMInteger):
            triples.add(
                Triple(
                    arg_node,
                    vocab.arg_value,
                    Literal(str(arg.value), datatype=Iri(XSD_NS + "integer")),
                )
            )
        elif isinstance(arg, OMFloat):
            triples.add(
                Triple(
                    arg_node,
                    vocab.arg_value,
                    Literal(repr(arg.value), datatype=Iri(XSD_NS + "double")),
                )
            )
        else:
            raise UnresolvedArgumentError(f"argument {index} is neither a number nor a known point")
    return frozenset(triples)
