"""Every immutable value class: construction, equality, hashing, repr, read-only fields."""

from __future__ import annotations

from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omld.annotations import Derivation
from omld.cd import ContentDictionary, DefinitionalFMP, LoadedCd, SymbolDefinition
from omld.config import ToolkitConfig
from omld.om import (
    DEFAULT_CDBASE,
    OMApplication,
    OMBinding,
    OMFloat,
    OMInteger,
    OMString,
    OMSymbol,
    OMVariable,
)
from omld.rdf import BlankNode, Graph, Iri, Literal, Triple
from omld.resolver import FetchResult
from omld.rewrite import PointResult, VerificationReport

# Small pools, so that two draws often share field values.
texts = st.sampled_from(["", "a", "http://a.example/x"])
iri_texts = st.sampled_from(["http://a.example/x", "http://a.example/y", "urn:z"])
iris = iri_texts.map(Iri)
names = st.sampled_from(["a", "x"])
cdbases = st.sampled_from([DEFAULT_CDBASE, "http://example.org"])
decimals = st.sampled_from([Decimal("1"), Decimal("2.5")])
floats = st.sampled_from([0.0, 1.0, 2.5])
literals = st.builds(Literal, texts, st.none() | iris)
symbols = st.builds(OMSymbol, names, names, cdbases)
variables = st.builds(OMVariable, names)
leaves = symbols | variables | st.builds(OMInteger, st.integers(0, 2)) | st.builds(OMFloat, floats)


def _tuples_of(values, min_size=0):
    return st.lists(values, min_size=min_size, max_size=2).map(tuple)


# Each class, its field names in constructor order, and valid field values.
FIELDS = {
    Iri: (("value",), st.tuples(iri_texts)),
    Literal: (
        ("lexical", "datatype", "language"),
        st.tuples(texts, st.none() | iris, st.none()) | st.tuples(texts, st.none(), st.just("en")),
    ),
    BlankNode: (("label",), st.tuples(names)),
    Triple: (("subject", "predicate", "object"), st.tuples(iris, iris, iris | literals)),
    Graph: (
        ("triples", "prefixes"),
        st.tuples(
            st.frozensets(st.builds(Triple, iris, iris, iris), max_size=2),
            st.dictionaries(names, iri_texts, max_size=1),
        ),
    ),
    OMSymbol: (("cd", "name", "cdbase"), st.tuples(names, names, cdbases)),
    OMInteger: (("value",), st.tuples(st.integers(0, 2))),
    OMFloat: (("value",), st.tuples(floats)),
    OMVariable: (("name",), st.tuples(names)),
    OMString: (("value",), st.tuples(texts)),
    OMApplication: (("head", "args"), st.tuples(symbols, _tuples_of(leaves, min_size=1))),
    OMBinding: (
        ("binder", "variables", "body"),
        st.tuples(symbols, st.sampled_from([(OMVariable("x"),), (OMVariable("a"),)]), leaves),
    ),
    ToolkitConfig: (
        ("tolerance", "cd_dirs", "bind_address", "port", "base_iri"),
        st.tuples(
            floats,
            _tuples_of(names),
            st.just("127.0.0.1"),
            st.sampled_from([0, 8080]),
            st.none() | iri_texts,
        ),
    ),
    Derivation: (("point_id", "function_uri", "args"), st.tuples(iris, iris, _tuples_of(iris | decimals))),
    SymbolDefinition: (
        ("name", "description", "cmps", "fmps"),
        st.tuples(names, texts, _tuples_of(texts), _tuples_of(leaves)),
    ),
    ContentDictionary: (
        ("cdbase", "cdname", "description", "definitions", "source_url"),
        st.tuples(
            cdbases,
            names,
            texts,
            _tuples_of(st.builds(SymbolDefinition, names, texts, st.just(()), st.just(()))),
            st.none() | iri_texts,
        ),
    ),
    DefinitionalFMP: (
        ("symbol", "params", "body"),
        st.tuples(symbols, _tuples_of(variables), leaves),
    ),
    LoadedCd: (
        ("path", "cd", "raw"),
        st.tuples(
            st.sampled_from([Path("a.ocd"), Path("b.ocd")]),
            st.builds(ContentDictionary, cdbases, names, texts, st.just(())),
            st.sampled_from([b"", b"<CD/>"]),
        ),
    ),
    FetchResult: (
        ("final_url", "content_type", "body"),
        st.tuples(iri_texts, st.sampled_from(["", "text/html"]), st.sampled_from([b"", b"x"])),
    ),
    PointResult: (
        ("point_id", "status", "stored", "computed", "delta", "reason"),
        st.tuples(
            iris,
            st.sampled_from(["match", "mismatch", "uncomputable"]),
            *[st.none() | floats] * 3,
            st.none() | texts,
        ),
    ),
    VerificationReport: (
        ("results",),
        st.tuples(_tuples_of(st.builds(PointResult, iris, st.just("match"), floats))),
    ),
}

values = st.one_of(
    [args.map(lambda a, cls=cls: cls(*a)) for cls, (_, args) in FIELDS.items()]
)


def _fields(obj) -> tuple:
    return tuple(getattr(obj, name) for name in FIELDS[type(obj)][0])


def _hash(obj):
    """The object's hash, or TypeError for a value with an unhashable field."""
    try:
        return hash(obj)
    except TypeError:
        return TypeError


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_equal_fields_give_equal_values_with_equal_hashes(cls, data):
    field_names, args = FIELDS[cls]
    positional = data.draw(args)
    a = cls(*positional)
    b = cls(**dict(zip(field_names, positional)))
    assert _fields(a) == positional
    assert a == b and not a != b
    assert _hash(a) == _hash(b)


@settings(max_examples=300, deadline=None)
@given(values, values)
def test_values_are_equal_only_within_one_class(a, b):
    assert (a == b) == (type(a) is type(b) and _fields(a) == _fields(b))
    if a == b:
        assert _hash(a) == _hash(b)


@pytest.mark.parametrize(
    "a, b",
    [
        (OMInteger(1), OMFloat(1.0)),
        (OMString("x"), OMVariable("x")),
        (OMString("urn:z"), Iri("urn:z")),
    ],
)
def test_same_fields_in_two_classes_are_not_equal(a, b):
    assert a != b and b != a and _fields(a) == _fields(b)


@settings(max_examples=100, deadline=None)
@given(values)
def test_fields_are_read_only(obj):
    before = _fields(obj)
    for name in (*FIELDS[type(obj)][0], "extra"):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert _fields(obj) == before


@pytest.mark.parametrize(
    "obj, text",
    [
        (Iri("http://example.org/"), "Iri(value='http://example.org/')"),
        (
            OMSymbol("arith1", "plus"),
            "OMSymbol(cd='arith1', name='plus', cdbase='http://www.openmath.org/cd')",
        ),
        (
            ToolkitConfig(),
            "ToolkitConfig(tolerance=1e-09, cd_dirs=(), bind_address='127.0.0.1', port=8080, "
            "base_iri=None)",
        ),
        (
            Derivation(Iri("urn:p"), Iri("urn:f"), (Iri("urn:a"), Decimal("2"))),
            "Derivation(point_id=Iri(value='urn:p'), function_uri=Iri(value='urn:f'), "
            "args=(Iri(value='urn:a'), Decimal('2')))",
        ),
        (
            SymbolDefinition("f", "d", ("c",), ()),
            "SymbolDefinition(name='f', description='d', cmps=('c',), fmps=())",
        ),
        (
            FetchResult("http://x/", "text/plain", b"x"),
            "FetchResult(final_url='http://x/', content_type='text/plain', body=b'x')",
        ),
        (
            PointResult(Iri("urn:p"), "match", 1.0, 1.0, 0.0),
            "PointResult(point_id=Iri(value='urn:p'), status='match', stored=1.0, "
            "computed=1.0, delta=0.0, reason=None)",
        ),
    ],
    ids=["rdf", "om", "config", "annotations", "cd", "resolver", "rewrite"],
)
def test_repr_names_each_field(obj, text):
    assert repr(obj) == text
