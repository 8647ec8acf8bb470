from __future__ import annotations

import logging
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omld import cd as cd_module
from omld import rewrite
from omld.annotations import (
    CyclicDerivationError,
    derivation_to_om,
    extract_data_points,
    extract_derivations,
)
from omld.cd import ContentDictionary, parse_cd_xml
from omld.errors import ToolkitError
from omld.om import (
    OMApplication,
    OMBinding,
    OMFloat,
    OMInteger,
    OMString,
    OMSymbol,
    OMVariable,
    parse_om_xml,
)
from omld.rdf import RDF_VALUE, Graph, Iri, Literal, parse_turtle
from omld.resolver import FetchError
from omld.rewrite import (
    ArityMismatchError,
    CdStore,
    DepthExceededError,
    DivisionByZeroError,
    FreeVariableError,
    NoComputableRegionError,
    NonFiniteResultError,
    NonNumericLeafError,
    Program,
    UnknownSymbolError,
    canonical_decimal,
    expand,
    query_max_increase,
    recompute,
    residual_symbols,
    verify_dataset,
)

from .conftest import CD_DIR, fixture_text
from .helpers import (
    DATASET_PREFIXES,
    CountingTriples,
    UnboundVariableError,
    chain_turtle,
    compute_term,
    demo_cd,
    evaluate as evaluate_tree,
    expand_outermost,
    inline,
    match,
    point_turtle,
    recursion_limit,
    substitute,
)
from .strategies import arith1_terms, derivation_dags, random_cd_points

DIVIDE = OMSymbol(cd="arith1", name="divide")
PLUS = OMSymbol(cd="arith1", name="plus")
TIMES = OMSymbol(cd="arith1", name="times")
POWER = OMSymbol(cd="arith1", name="power")
LAMBDA = OMSymbol(cd="fns1", name="lambda")
HDI = OMSymbol(cd="statistics", name="hdi", cdbase="http://example.org")
AHS = "http://example.org/ns/ahs#"
ENV = "http://example.org/ns/env#"


def hdi_application(*values) -> OMApplication:
    return OMApplication(HDI, tuple(OMFloat(float(v)) for v in values))


def outcome(compute):
    """What a computation gives: its float, or its error's class and message."""
    try:
        return compute()
    except ToolkitError as exc:
        return type(exc), str(exc)


def same_outcome(a, b) -> bool:
    """Equal error classes and messages, or floats with equal bits."""
    if isinstance(a, float) and isinstance(b, float):
        return a.hex() == b.hex()
    return a == b


def evaluate(term):
    """A closed term's value by its compiled program, which must agree with the tree walk."""
    compiled = outcome(lambda: Program(term).run([], ()))
    assert same_outcome(compiled, outcome(lambda: evaluate_tree(term)))
    if isinstance(compiled, float):
        return compiled
    return Program(term).run([], ())


def hdi_oracle(le, ali, gei, gdp) -> Fraction:
    """Independent exact-arithmetic evaluation of the index formula."""
    le, ali, gei, gdp = (Fraction(x) for x in (le, ali, gei, gdp))
    return Fraction(1, 3) * (le + Fraction(2, 3) * ali + Fraction(1, 3) * gei + gdp)


class TestSubstitute:
    def test_two_variables(self):
        body = OMApplication(DIVIDE, (OMVariable("x"), OMVariable("y")))
        result = substitute(body, {"x": OMInteger(693), "y": OMInteger(380)})
        assert result == OMApplication(DIVIDE, (OMInteger(693), OMInteger(380)))

    def test_closed_term(self):
        assert substitute(OMInteger(3), {}) == OMInteger(3)

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariableError):
            substitute(OMApplication(DIVIDE, (OMVariable("x"), OMVariable("y"))), {"x": OMInteger(1)})

    def test_shadowed_variable_untouched(self):
        inner = OMBinding(LAMBDA, (OMVariable("x"),), OMVariable("x"))
        body = OMApplication(PLUS, (OMVariable("x"), inner))
        result = substitute(body, {"x": OMInteger(5)})
        assert result == OMApplication(PLUS, (OMInteger(5), inner))

    def test_capture_avoided_by_renaming(self):
        # Substituting y := x into (lambda x. y) must not capture the new x.
        body = OMBinding(LAMBDA, (OMVariable("x"),), OMVariable("y"))
        result = substitute(body, {"y": OMVariable("x")})
        assert isinstance(result, OMBinding)
        bound = result.variables[0].name
        assert bound != "x"
        assert result.body == OMVariable("x")

    def test_alpha_equivalence_on_two_level_terms(self):
        # (lambda v. plus(v, y))[y := v]  ==alpha==  lambda w. plus(w, v)
        body = OMBinding(
            LAMBDA, (OMVariable("v"),), OMApplication(PLUS, (OMVariable("v"), OMVariable("y")))
        )
        result = substitute(body, {"y": OMVariable("v")})
        fresh = result.variables[0].name
        assert fresh != "v"
        assert result.body == OMApplication(PLUS, (OMVariable(fresh), OMVariable("v")))


class TestExpand:
    def test_hdi_expands_to_arith1_only(self, local_store):
        term = hdi_application(0.8, 0.9, 0.7, 0.6)
        expanded = expand(term, local_store)
        assert residual_symbols(expanded) == []
        cds = {s.cd for s in _symbols(expanded)}
        assert cds == {"arith1"}

    def test_hdi_expansion_structure(self, local_store):
        term = OMApplication(
            HDI, (OMVariable("a"), OMVariable("b"), OMVariable("c"), OMVariable("d"))
        )
        expanded = expand(term, local_store)
        third = OMApplication(DIVIDE, (OMInteger(1), OMInteger(3)))
        two_thirds = OMApplication(DIVIDE, (OMInteger(2), OMInteger(3)))
        expected = OMApplication(
            TIMES,
            (
                third,
                OMApplication(
                    PLUS,
                    (
                        OMVariable("a"),
                        OMApplication(TIMES, (two_thirds, OMVariable("b"))),
                        OMApplication(TIMES, (third, OMVariable("c"))),
                        OMVariable("d"),
                    ),
                ),
            ),
        )
        assert expanded == expected

    def test_base_term_is_fixpoint(self, local_store):
        term = OMApplication(DIVIDE, (OMInteger(693), OMInteger(380)))
        assert expand(term, local_store) == term

    def test_cycle_raises_depth_exceeded(self, local_store):
        f = OMSymbol(cd="cyclic", name="f", cdbase="http://example.org")
        term = OMApplication(f, (OMInteger(1),))
        with pytest.raises(DepthExceededError) as err:
            expand(term, local_store)
        assert err.value.max_depth == 32
        assert err.value.chain

    def test_ten_deep_chain_expands_fully(self, local_store):
        c1 = OMSymbol(cd="chain", name="c1", cdbase="http://example.org")
        term = OMApplication(c1, (OMInteger(5),))
        expanded = expand(term, local_store)
        assert residual_symbols(expanded) == []
        # c1(5) = 5*2 + 9 ones
        assert evaluate(expanded) == 19.0

    def test_depth_budget_is_rewrite_passes(self, local_store, monkeypatch):
        c1 = OMSymbol(cd="chain", name="c1", cdbase="http://example.org")
        term = OMApplication(c1, (OMInteger(5),))
        monkeypatch.setattr(rewrite, "MAX_PASSES", 10)
        assert expand(term, local_store) is not None
        monkeypatch.setattr(rewrite, "MAX_PASSES", 9)
        with pytest.raises(DepthExceededError) as err:
            expand(term, local_store)
        assert err.value.max_depth == 9

    def test_undefined_symbol_left_in_place(self, local_store):
        sin = OMSymbol(cd="transc1", name="sin")
        term = OMApplication(sin, (OMInteger(1),))
        expanded = expand(term, local_store)
        assert expanded == term
        assert residual_symbols(expanded) == [
            "http://www.openmath.org/cd/transc1#sin"
        ]

    def test_arity_mismatch(self, local_store):
        term = OMApplication(HDI, (OMInteger(1), OMInteger(2), OMInteger(3)))
        with pytest.raises(ArityMismatchError) as err:
            expand(term, local_store)
        assert err.value.expected == 4
        assert err.value.got == 3

    def test_constant_definition_expands_bare_symbol(self):
        cd = parse_cd_xml(
            "<CD><CDName>consts</CDName><CDBase>http://example.org</CDBase>"
            "<Description>d</Description><CDDefinition><Name>tau</Name>"
            '<FMP><OMOBJ><OMA><OMS cd="relation1" name="eq"/>'
            '<OMS cdbase="http://example.org" cd="consts" name="tau"/>'
            '<OMF dec="6.283185307179586"/></OMA></OMOBJ></FMP>'
            "</CDDefinition></CD>"
        )
        store = CdStore()
        store.add(cd)
        tau = OMSymbol(cd="consts", name="tau", cdbase="http://example.org")
        term = OMApplication(TIMES, (tau, OMInteger(2)))
        assert expand(term, store) == OMApplication(
            TIMES, (OMFloat(6.283185307179586), OMInteger(2))
        )

    def test_innermost_equals_outermost_on_fixtures(self, local_store):
        c1 = OMSymbol(cd="chain", name="c1", cdbase="http://example.org")
        terms = [
            hdi_application(0.8, 0.9, 0.7, 0.6),
            OMApplication(c1, (OMInteger(5),)),
            OMApplication(
                PLUS,
                (hdi_application(1, 1, 1, 1), OMApplication(c1, (OMInteger(2),))),
            ),
        ]
        for term in terms:
            inner = expand(term, local_store)
            outer = expand_outermost(term, local_store)
            assert inner == outer


def _symbols(obj):
    from omld.om import iter_symbols

    return list(iter_symbols(obj))


class TestEvaluate:
    def test_divide_against_decimal_oracle(self):
        term = OMApplication(DIVIDE, (OMInteger(693), OMInteger(380)))
        value = evaluate(term)
        assert value == 1.8236842105263158
        assert abs(value - float(Decimal(693) / Decimal(380))) < 1e-15

    def test_hdi_all_ones_is_exactly_one(self, local_store):
        expanded = expand(hdi_application(1, 1, 1, 1), local_store)
        assert evaluate(expanded) == 1.0

    def test_hdi_point_against_bignum_oracle(self, local_store):
        expanded = expand(hdi_application(0.8, 0.9, 0.7, 0.6), local_store)
        value = evaluate(expanded)
        assert value == 0.7444444444444445
        oracle = hdi_oracle(Fraction(8, 10), Fraction(9, 10), Fraction(7, 10), Fraction(6, 10))
        assert abs(value - float(oracle)) <= 1e-12 * float(oracle)

    def test_division_by_zero(self):
        term = OMApplication(DIVIDE, (OMInteger(1), OMInteger(0)))
        with pytest.raises(DivisionByZeroError):
            evaluate(term)

    def test_unknown_symbol(self):
        term = OMApplication(OMSymbol(cd="transc1", name="sin"), (OMInteger(1),))
        with pytest.raises(UnknownSymbolError):
            evaluate(term)

    def test_free_variable(self):
        with pytest.raises(FreeVariableError):
            evaluate(OMVariable("x"))

    def test_non_numeric_leaf(self):
        with pytest.raises(NonNumericLeafError):
            evaluate(OMString("x"))
        with pytest.raises(NonNumericLeafError):
            evaluate(PLUS)

    def test_integer_widening(self):
        term = OMApplication(PLUS, (OMInteger(1), OMFloat(0.5)))
        assert evaluate(term) == 1.5

    def test_nary_plus_times_and_unary_ops(self):
        plus = OMApplication(PLUS, tuple(OMInteger(i) for i in (1, 2, 3, 4)))
        assert evaluate(plus) == 10.0
        times = OMApplication(TIMES, tuple(OMInteger(i) for i in (2, 3, 4)))
        assert evaluate(times) == 24.0
        neg = OMApplication(OMSymbol(cd="arith1", name="unary_minus"), (OMInteger(5),))
        assert evaluate(neg) == -5.0
        ab = OMApplication(OMSymbol(cd="arith1", name="abs"), (OMFloat(-2.5),))
        assert evaluate(ab) == 2.5
        power = OMApplication(OMSymbol(cd="arith1", name="power"), (OMInteger(2), OMInteger(10)))
        assert evaluate(power) == 1024.0

    def test_binary_arity_enforced(self):
        term = OMApplication(DIVIDE, (OMInteger(1), OMInteger(2), OMInteger(3)))
        with pytest.raises(ArityMismatchError):
            evaluate(term)

    @pytest.mark.parametrize(
        "term",
        [
            OMApplication(POWER, (OMFloat(10.5), OMInteger(400))),  # OverflowError
            OMApplication(TIMES, (OMFloat(1e200), OMFloat(1e200))),  # inf
            OMApplication(POWER, (OMInteger(-8), OMFloat(0.5))),  # complex
            OMApplication(PLUS, (OMInteger(10**400), OMInteger(1))),  # int too large
            OMApplication(PLUS, (OMFloat(float("nan")), OMInteger(1))),
            OMFloat(float("inf")),
        ],
    )
    def test_no_finite_real_value_is_a_typed_error(self, term):
        with pytest.raises(NonFiniteResultError):
            evaluate(term)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.fractions(
                min_value=0, max_value=1, max_denominator=64
            ),
            min_size=4,
            max_size=4,
        )
    )
    def test_expansion_soundness_property(self, values):
        # evaluate(expand(hdi(...))) vs. the formula inlined by the oracle.
        store = CdStore()
        store.add_directory(CD_DIR)
        term = hdi_application(*(float(v) for v in values))
        computed = evaluate(expand(term, store))
        oracle = float(hdi_oracle(*(float(v) for v in values)))
        assert abs(computed - oracle) <= 1e-12 * max(1.0, abs(oracle))


class TestCdStore:
    def test_conflicting_add_refused(self, statistics_cd):
        store = CdStore()
        store.add(statistics_cd)
        store.add(statistics_cd)  # identical re-add is fine
        changed = ContentDictionary(
            statistics_cd.cdbase,
            statistics_cd.cdname,
            "different",
            statistics_cd.definitions,
            statistics_cd.source_url,
        )
        with pytest.raises(ToolkitError, match="stored for http://example.org/statistics$"):
            store.add(changed)

    def test_deep_cd_compares_without_recursion(self):
        minus = '<OMS cd="arith1" name="unary_minus"/>'
        with recursion_limit(150) as limit:
            nest = f"<OMA>{minus}" * (limit * 20) + '<OMV name="x"/>' + "</OMA>" * (limit * 20)
            text = demo_cd("deep", nest)
            store = CdStore()
            store.add(parse_cd_xml(text, source_url="file:///deep.ocd"))
            store.add(parse_cd_xml(text, source_url="file:///deep.ocd"))  # a no-op
            for changed, url in [(text.replace(">d<", ">e<"), "file:///deep.ocd"), (text, None)]:
                with pytest.raises(ToolkitError, match="stored for http://example.org/deep$"):
                    store.add(parse_cd_xml(changed, source_url=url))

    def test_fetch_hook_called_once_per_key(self):
        calls = []

        def fetch(url):
            calls.append(url)
            raise FetchError(url, "host unreachable")

        store = CdStore(fetch=fetch)
        assert store.lookup("http://nowhere.example/cd") is None
        assert store.lookup("http://nowhere.example/cd") is None
        assert calls == ["http://nowhere.example/cd"]
        assert isinstance(store.fetch_error("http://nowhere.example/cd"), FetchError)

    def test_load_directory(self):
        store = CdStore()
        store.add_directory(CD_DIR)
        store.read_directories()
        for name in ("chain", "cyclic", "elementary", "statistics"):
            assert store.lookup(f"http://example.org/{name}") is not None

    def test_load_directory_with_non_utf8_file(self, tmp_path):
        (tmp_path / "bad.ocd").write_bytes(b"\xff\xfe<CD/>")
        store = CdStore()
        store.add_directory(tmp_path)
        with pytest.raises(ToolkitError, match="bad.ocd: not UTF-8"):
            store.read_directories()

    def test_added_directory_is_read_at_the_first_lookup(self, tmp_path):
        # The broken directory comes second: the first one's CDs are stored
        # before its error, and a later lookup does not read it again.
        (tmp_path / "bad.ocd").write_bytes(b"\xff")
        store = CdStore()
        store.add_directory(CD_DIR)
        store.add_directory(tmp_path)
        with pytest.raises(ToolkitError, match="bad.ocd: not UTF-8"):
            store.lookup("http://example.org/statistics")
        assert store.lookup("http://example.org/statistics") is not None

    def test_load_relative_directory(self, monkeypatch):
        monkeypatch.chdir(CD_DIR.parent)
        store = CdStore()
        store.add_directory(CD_DIR.name)
        cd = store.lookup("http://example.org/statistics")
        assert cd.source_url == (CD_DIR / "statistics.ocd").resolve().as_uri()


class TestVerify:
    def test_geese_fixture_matches(self, geese_graph, local_store):
        report = verify_dataset(geese_graph, local_store, tolerance=1e-9)
        assert [r.status for r in report.results] == ["match"]

    def test_tampered_value_mismatches(self, local_store):
        text = fixture_text("geese.ttl").replace('"1.8236842105263158"', '"2.0"')
        report = verify_dataset(parse_turtle(text), local_store, tolerance=1e-9)
        (result,) = report.results
        assert result.status == "mismatch"
        assert result.stored == 2.0
        assert abs(result.computed - 1.8236842105263158) < 1e-12
        assert abs(result.delta - 0.17631578947368416) < 1e-12

    def test_unfetchable_cd_reported_as_fetch_error(self, geese_graph):
        text = fixture_text("geese.ttl").replace(
            "http://www.openmath.org/cd/arith1#divide",
            "http://unreachable.example/nowhere#divide",
        )

        def failing_fetch(url):
            raise FetchError(url, "connection refused")

        store = CdStore(fetch=failing_fetch)
        report = verify_dataset(parse_turtle(text), store, tolerance=1e-9)
        (result,) = report.results
        assert result.status == "uncomputable"
        assert "FetchError" in result.reason

    def test_missing_stored_value_is_uncomputable(self, local_store):
        text = fixture_text("listing2.ttl")
        report = verify_dataset(parse_turtle(text), local_store, tolerance=1e-9)
        (result,) = report.results
        assert result.status == "uncomputable"
        assert "no stored value" in result.reason

    def test_deep_chain_without_stored_values_matches(self, local_store):
        graph = parse_turtle(chain_turtle(40, top_value=41))
        report = verify_dataset(graph, local_store, tolerance=1e-9)
        top = next(r for r in report.results if r.point_id == Iri(AHS + "D1"))
        assert top.status == "match"
        assert top.computed == 41.0

    def test_cycle_among_unstored_inputs_is_uncomputable(self, local_store):
        text = DATASET_PREFIXES + "".join(
            [
                point_turtle("L", 2),
                point_turtle("A", None, "plus", ("ahs:B", "ahs:L")),
                point_turtle("B", None, "times", ("ahs:A", "ahs:L")),
                point_turtle("C", 5, "plus", ("ahs:A", '"1"^^xsd:decimal')),
            ]
        )
        report = verify_dataset(parse_turtle(text), local_store, tolerance=1e-9)
        by_name = {r.point_id.value.rsplit("#")[-1]: r for r in report.results}
        assert by_name["C"].status == "uncomputable"
        assert by_name["C"].reason.startswith("CyclicDerivationError")
        assert by_name["A"].reason == by_name["B"].reason == "no stored value"

    def test_failed_input_fails_each_consumer_alike(self, local_store):
        local_store.add(
            parse_cd_xml(
                "<CD><CDName>pick</CDName><CDBase>http://example.org</CDBase>"
                "<Description>d</Description><CDDefinition><Name>first</Name>"
                '<FMP><OMOBJ><OMA><OMS cd="relation1" name="eq"/>'
                '<OMA><OMS cdbase="http://example.org" cd="pick" name="first"/>'
                '<OMV name="x"/><OMV name="y"/></OMA><OMV name="x"/></OMA></OMOBJ></FMP>'
                "</CDDefinition></CD>"
            )
        )
        text = DATASET_PREFIXES + "".join(
            [
                point_turtle("L", 3),
                point_turtle("Z", None, "minus", ("ahs:L", "ahs:L")),
                point_turtle("Q", None, "divide", ("ahs:L", "ahs:Z")),
                point_turtle("C1", 1, "plus", ("ahs:Q", '"1"^^xsd:decimal')),
                point_turtle("C2", 1, "times", ("ahs:L", "ahs:Q")),
                # pick#first ignores its second argument; the failed input still counts.
                point_turtle("C3", 3, "http://example.org/pick#first", ("ahs:L", "ahs:Q")),
            ]
        )
        report = verify_dataset(parse_turtle(text), local_store, tolerance=1e-9)
        reasons = {r.point_id.value.rsplit("#")[-1]: r.reason for r in report.results}
        assert reasons["C1"] == reasons["C2"] == reasons["C3"]
        assert reasons["C1"].startswith("DivisionByZeroError")
        # The reason names Q's numbers, not the term Z was computed from.
        assert "minus" not in reasons["C1"]

    def test_complex_input_does_not_abort_the_run(self, local_store):
        text = DATASET_PREFIXES + "".join(
            [
                point_turtle("N", -8),
                point_turtle("R", None, "power", ("ahs:N", '"0.5"^^xsd:decimal')),
                point_turtle("C", 1, "plus", ("ahs:R", '"1"^^xsd:decimal')),
            ]
        )
        report = verify_dataset(parse_turtle(text), local_store, tolerance=1e-9)
        assert [r.point_id.value.rsplit("#")[-1] for r in report.results] == ["C", "R"]

    def test_values_without_a_finite_real_value_are_uncomputable(self, local_store):
        text = DATASET_PREFIXES + "".join(
            [
                point_turtle("A", "10.5"),
                point_turtle("B", "1e200"),
                point_turtle("N", -8),
                point_turtle("P", 1, "power", ("ahs:A", '"400"^^xsd:decimal')),
                point_turtle("Q", 1, "times", ("ahs:B", "ahs:B")),
                point_turtle("R", 1, "power", ("ahs:N", '"0.5"^^xsd:decimal')),
                point_turtle("S", 21, "times", ("ahs:A", '"2"^^xsd:decimal')),
            ]
        )
        report = verify_dataset(parse_turtle(text), local_store, tolerance=1e-9)
        status = {r.point_id.value.rsplit("#")[-1]: (r.status, r.reason) for r in report.results}
        for pid in "PQR":
            assert status[pid][0] == "uncomputable"
            assert status[pid][1].startswith("NonFiniteResultError")
        assert status["S"] == ("match", None)

    def test_stored_value_beyond_float_range_is_uncomputable(self, local_store):
        text = DATASET_PREFIXES + "".join(
            [
                point_turtle("A", 2),
                point_turtle("B", "1e400", "times", ("ahs:A", '"1"^^xsd:decimal')),
                point_turtle("C", "-1E+309", "times", ("ahs:A", '"1"^^xsd:decimal')),
                point_turtle("D", 4, "times", ("ahs:B", '"1"^^xsd:decimal')),
            ]
        )
        report = verify_dataset(parse_turtle(text), local_store, tolerance=1e-9)
        by_name = {r.point_id.value.rsplit("#")[-1]: r for r in report.results}
        for name, lexical in (("B", "1e400"), ("C", "-1E+309")):
            result = by_name[name]
            assert result.status == "uncomputable"
            assert result.stored is None
            assert result.reason == f"stored value {lexical!r} is beyond the float range"
        assert by_name["D"].status == "uncomputable"
        assert by_name["D"].reason.startswith("NonFiniteResultError")

    def test_huge_exponent_input_is_uncomputable(self, local_store):
        text = DATASET_PREFIXES + "".join(
            [
                point_turtle("A", "1e1000000"),
                point_turtle("B", 2, "times", ("ahs:A", '"1"^^xsd:decimal')),
                point_turtle("C", 2, "plus", ('"1e1000000"^^xsd:decimal', '"1"^^xsd:decimal')),
            ]
        )
        report = verify_dataset(parse_turtle(text), local_store, tolerance=1e-9)
        assert [r.status for r in report.results] == ["uncomputable", "uncomputable"]
        for result in report.results:
            assert result.reason.startswith("NonFiniteResultError")
            assert "beyond the float range" in result.reason

    def test_report_serializations(self, geese_graph, local_store):
        report = verify_dataset(geese_graph, local_store, tolerance=1e-9)
        assert "MATCH" in report.to_text()
        records = report.to_records()
        assert records[0]["status"] == "match"
        assert records[0]["id"].endswith("PD100")


class TestChainEvaluator:
    """verify's value for the top of a derivation DAG, against full inlining."""

    @settings(max_examples=150, deadline=None)
    @given(derivation_dags())
    def test_verify_equals_inlined_evaluation(self, case):
        text, top = case
        graph = parse_turtle(text)
        store = CdStore()
        report = verify_dataset(graph, store, tolerance=1e-9)
        (result,) = [r for r in report.results if r.point_id.value == top]
        points = {p.id.value: p for p in extract_data_points(graph)}
        derivations = {d.point_id.value: d for d in extract_derivations(graph)}
        term = inline(derivations[top], points, derivations)
        assert result.computed == evaluate(expand(term, store))


class TestRecompute:
    def test_changed_base_value_propagates(self, local_store):
        text = fixture_text("geese.ttl").replace('"693"', '"700"')
        graph = parse_turtle(text)
        result = recompute(graph, local_store)
        (value,) = match(result, Iri(AHS + "PD100"), Iri(RDF_VALUE), None)
        assert value.object.lexical == "1.8421052631578947"
        assert float(value.object.lexical) == 700 / 380

    def test_dataset_without_derivations_unchanged(self, listing1_graph, local_store):
        result = recompute(listing1_graph, local_store)
        assert result.triples == listing1_graph.triples

    def test_two_level_chain_recomputed_in_order(self, local_store):
        text = fixture_text("geese.ttl") + (
            "\nahs:DD100 scv:dimension env:geese-density ;\n"
            "  sl:computedFrom [ sl:function <http://www.openmath.org/cd/arith1#times> ;\n"
            '    sl:arguments [ sl:argPosition "1"^^xsd:int ; sl:argValue ahs:PD100 ] ,\n'
            '                 [ sl:argPosition "2"^^xsd:int ; sl:argValue "2"^^xsd:decimal ] ] .\n'
        )
        graph = parse_turtle(text.replace('"693"', '"700"'))
        result = recompute(graph, local_store)
        (pd,) = match(result, Iri(AHS + "PD100"), Iri(RDF_VALUE), None)
        (dd,) = match(result, Iri(AHS + "DD100"), Iri(RDF_VALUE), None)
        assert float(pd.object.lexical) == 700 / 380
        assert float(dd.object.lexical) == (700 / 380) * 2

    def test_idempotent(self, geese_graph, local_store):
        once = recompute(geese_graph, local_store)
        twice = recompute(once, local_store)
        assert once.triples == twice.triples

    def test_verify_after_recompute_matches(self, local_store):
        text = fixture_text("geese.ttl").replace('"693"', '"697"')
        recomputed = recompute(parse_turtle(text), local_store)
        report = verify_dataset(recomputed, local_store, tolerance=1e-9)
        assert {r.status for r in report.results} == {"match"}

    def test_chain_deeper_than_recursion_limit(self, local_store):
        with recursion_limit(150) as limit:
            depth = limit + 50
            result = recompute(parse_turtle(chain_turtle(depth)), local_store)
        for i in (1, depth // 2, depth):
            (value,) = match(result, Iri(AHS + f"D{i}"), Iri(RDF_VALUE), None)
            assert value.object.lexical == str(depth - i + 2)

    def test_overflow_raises_a_typed_error(self, local_store):
        text = DATASET_PREFIXES + point_turtle("A", "1e200") + point_turtle(
            "B", 1, "times", ("ahs:A", "ahs:A")
        )
        with pytest.raises(NonFiniteResultError):
            recompute(parse_turtle(text), local_store)

    def test_cycle_detected(self, local_store):
        text = fixture_text("listing2.ttl") + (
            "\nahs:EH100 sl:computedFrom [ sl:function <http://www.openmath.org/cd/arith1#times> ;\n"
            '  sl:arguments [ sl:argPosition "1"^^xsd:int ; sl:argValue ahs:PD100 ] ,\n'
            '               [ sl:argPosition "2"^^xsd:int ; sl:argValue "1"^^xsd:decimal ] ] .\n'
        )
        with pytest.raises(CyclicDerivationError):
            recompute(parse_turtle(text), local_store)


class TestCanonicalDecimal:
    def test_integral(self):
        assert canonical_decimal(4.0) == "4"
        assert canonical_decimal(-2.0) == "-2"

    def test_fractional(self):
        assert canonical_decimal(1.8421052631578947) == "1.8421052631578947"

    def test_exponent_free(self):
        text = canonical_decimal(1.5e-7)
        assert "e" not in text.lower()
        assert float(text) == 1.5e-7

    def test_non_finite_rejected(self):
        for value in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(NonFiniteResultError):
                canonical_decimal(value)


def regions_turtle(populations: dict[str, tuple[str, str]], area: str = "10") -> str:
    """Build a regions dataset: population/area/density per region and year."""
    lines = [
        "@prefix ahs: <http://example.org/ns/ahs#> .",
        "@prefix scv: <http://purl.org/NET/scovo#> .",
        "@prefix env: <http://example.org/ns/env#> .",
        "@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .",
        "@prefix sl:  <http://example.org/ns/sl#> .",
        "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .",
    ]
    for region in populations:
        lines.append(f"env:region-{region} a env:Region .")
    for region, by_year in populations.items():
        for year, pop in zip(("2008", "2009"), by_year):
            r = region.upper()
            lines.append(
                f"ahs:POP-{r}-{year} scv:dimension env:region-{region} ; "
                f"scv:dimension env:year-{year} ; scv:dimension env:geese ; "
                f'rdf:value "{pop}"^^xsd:decimal .'
            )
            lines.append(
                f"ahs:AREA-{r}-{year} scv:dimension env:region-{region} ; "
                f"scv:dimension env:year-{year} ; scv:dimension env:area ; "
                f'rdf:value "{area}"^^xsd:decimal .'
            )
            lines.append(
                f"ahs:DEN-{r}-{year} scv:dimension env:region-{region} ; "
                f"scv:dimension env:year-{year} ; scv:dimension env:geese-density ; "
                "sl:computedFrom [ sl:function <http://www.openmath.org/cd/arith1#divide> ; "
                f'sl:arguments [ sl:argPosition "1"^^xsd:int ; sl:argValue ahs:POP-{r}-{year} ] , '
                f'[ sl:argPosition "2"^^xsd:int ; sl:argValue ahs:AREA-{r}-{year} ] ] .'
            )
    return "\n".join(lines) + "\n"


class TestQueryMax:
    METRIC = Iri("http://www.openmath.org/cd/arith1#divide")
    REGION = Iri(ENV + "Region")
    T1 = Iri(ENV + "year-2008")
    T2 = Iri(ENV + "year-2009")

    def brute_force(self, graph, store):
        """Oracle: evaluate every metric derivation, group by hand."""
        points = {p.id.value: p for p in extract_data_points(graph)}
        derivations = {d.point_id.value: d for d in extract_derivations(graph)}

        per_region: dict[str, dict[str, float]] = {}
        for pid, d in derivations.items():
            if d.function_uri != self.METRIC:
                continue
            point = points[pid]
            dims = {x.value for x in point.dimensions}
            region = next(x for x in dims if match(graph, Iri(x), None, self.REGION))
            time = self.T1.value if self.T1.value in dims else self.T2.value
            value = evaluate(expand(inline(d, points, derivations), store))
            per_region.setdefault(region, {})[time] = value
        best = None
        for region in sorted(per_region):
            times = per_region[region]
            inc = times[self.T2.value] - times[self.T1.value]
            if best is None or inc > best[1]:
                best = (region, inc)
        return best

    def test_three_region_fixture(self, regions_graph, local_store):
        region, increase = query_max_increase(
            regions_graph, self.METRIC, self.T1, self.T2, local_store
        )
        assert region == Iri(ENV + "region-c")
        assert abs(increase - 0.9) < 1e-12
        oracle = self.brute_force(regions_graph, local_store)
        assert (region.value, increase) == oracle

    def test_single_region(self, local_store):
        graph = parse_turtle(regions_turtle({"a": ("10", "15")}))
        region, increase = query_max_increase(graph, self.METRIC, self.T1, self.T2, local_store)
        assert region == Iri(ENV + "region-a")
        assert abs(increase - 0.5) < 1e-12

    def test_tie_breaks_lexicographically(self, local_store):
        # Both regions increase by exactly 0.5; region-a wins by IRI order.
        graph = parse_turtle(regions_turtle({"b": ("20", "25"), "a": ("10", "15")}))
        region, increase = query_max_increase(graph, self.METRIC, self.T1, self.T2, local_store)
        assert abs(increase - 0.5) < 1e-12
        assert region == Iri(ENV + "region-a")

    def test_scaling_invariance(self, local_store):
        table = {"a": (10, 15), "b": (20, 22), "c": (5, 14)}
        plain = parse_turtle(
            regions_turtle({r: (str(p1), str(p2)) for r, (p1, p2) in table.items()})
        )
        scaled = parse_turtle(
            regions_turtle(
                {r: (str(p1 * 7.3), str(p2 * 7.3)) for r, (p1, p2) in table.items()}
            )
        )
        before, _ = query_max_increase(plain, self.METRIC, self.T1, self.T2, local_store)
        after, _ = query_max_increase(scaled, self.METRIC, self.T1, self.T2, local_store)
        assert before == after == Iri(ENV + "region-c")

    def test_no_computable_region(self, local_store):
        with pytest.raises(NoComputableRegionError):
            query_max_increase(Graph(), self.METRIC, self.T1, self.T2, local_store)


class TestFullPasses:
    """verify, recompute and query-max each read graph.triples a fixed number of times."""

    def passes(self, regions: int, store) -> list[int]:
        text = regions_turtle({f"r{i}": (str(10 + i), str(20 + 2 * i)) for i in range(regions)})
        parsed = parse_turtle(text)
        q = TestQueryMax
        runs = (
            lambda graph: verify_dataset(graph, store, tolerance=1e-9),
            lambda graph: recompute(graph, store),
            lambda graph: query_max_increase(graph, q.METRIC, q.T1, q.T2, store),
        )
        counts = []
        for run in runs:
            triples = CountingTriples(parsed.triples)
            run(Graph(triples, parsed.prefixes))
            counts.append(triples.passes)
        return counts

    @pytest.mark.parametrize(
        "command, fixture",
        [
            (lambda graph, store: verify_dataset(graph, store, 1e-9), "geese.ttl"),
            (recompute, "geese.ttl"),
            (
                lambda graph, store: query_max_increase(
                    graph, TestQueryMax.METRIC, TestQueryMax.T1, TestQueryMax.T2, store
                ),
                "regions.ttl",
            ),
        ],
        ids=["verify", "recompute", "query-max"],
    )
    def test_the_input_graph_is_never_sorted(self, local_store, command, fixture):
        graph = parse_turtle(fixture_text(fixture))
        command(graph, local_store)
        assert "_sorted" not in graph.__dict__

    def test_constant_in_dataset_size(self, local_store):
        # 6 points per region: 60 and 240 points.
        small = self.passes(10, local_store)
        large = self.passes(40, local_store)
        assert small == large
        assert max(small) <= 2


class TestDefinitionTable:
    def test_each_fmp_read_once_per_cd(self, monkeypatch):
        calls = []
        original = cd_module._as_definitional

        def counting(fmp, own):
            calls.append(own)
            return original(fmp, own)

        monkeypatch.setattr(cd_module, "_as_definitional", counting)
        store = CdStore()
        store.add_directory(CD_DIR)
        hdi_xml = '<OMS cdbase="http://example.org" cd="statistics" name="hdi"/>'
        x_xml = '<OMV name="x"/>'
        store.add(parse_cd_xml(demo_cd("wrap", f"<OMA>{hdi_xml}{x_xml * 4}</OMA>")))
        wrap = OMSymbol(cd="wrap", name="f", cdbase="http://example.org")
        # wrap#f(i) becomes hdi(i, i, i, i) in one pass, which expands in the next.
        term = OMApplication(
            PLUS,
            tuple(
                OMApplication(wrap, (OMInteger(i),)) if i % 2 else hdi_application(i, i, i, i)
                for i in range(40)
            ),
        )
        for _ in range(3):
            expanded = expand(term, store)
        assert residual_symbols(expanded) == []
        # Only the two CDs the term uses are read, each FMP once.
        used = [store.lookup(f"http://example.org/{name}") for name in ("statistics", "wrap")]
        assert len(calls) == sum(len(d.fmps) for cd in used for d in cd.definitions)

    def test_duplicate_definition_warned_once_per_cd(self, caplog):
        store = CdStore()
        store.add(parse_cd_xml(demo_cd("twice", '<OMV name="x"/>', "<OMI>2</OMI>")))
        dataset = DATASET_PREFIXES + point_turtle("A", 1)
        for i in range(5):
            dataset += point_turtle(f"P{i}", 1, "http://example.org/twice#f", ("ahs:A",))
        with caplog.at_level(logging.WARNING, logger="omld.cd"):
            report = verify_dataset(parse_turtle(dataset), store, tolerance=1e-9)
        assert len(report.results) == 5
        assert {r.status for r in report.results} == {"match"}
        warned = [r for r in caplog.records if "more than one definitional" in r.getMessage()]
        assert len(warned) == 1


class TestCompiledPrograms:
    """Each function is compiled once per run, and its program gives what
    expanding and walking each point's own term gives."""

    @settings(max_examples=150, deadline=None)
    @given(random_cd_points())
    def test_program_agrees_with_the_tree_walk(self, case):
        cd, derivation, inputs = case
        store = CdStore()
        store.add(cd)
        reference = outcome(lambda: compute_term(derivation_to_om(derivation, inputs), store))
        for _ in range(2):  # compiled, then from the store
            compiled = outcome(lambda: rewrite._compute_point(derivation, inputs, store))
            assert same_outcome(compiled, reference), (compiled, reference)

    @settings(max_examples=100, deadline=None)
    @given(st.composite(lambda draw: arith1_terms(draw, (), {}, 5))())
    def test_closed_terms_agree(self, term):
        assert same_outcome(
            outcome(lambda: Program(term).run([], ())),
            outcome(lambda: evaluate_tree(term)),
        )

    @pytest.mark.parametrize("n", [10, 100])
    def test_each_function_is_expanded_once_per_run(self, monkeypatch, n):
        expanded = []
        original = rewrite.expand

        def counting(term, store):
            expanded.append(term)
            return original(term, store)

        monkeypatch.setattr(rewrite, "expand", counting)
        hdi = "http://example.org/statistics#hdi"
        text = DATASET_PREFIXES + point_turtle("L", "0.5")
        for i in range(n):
            text += point_turtle(f"H{i}", "0.5", hdi, ("ahs:L",) * 4)
        graph = parse_turtle(text)
        for run in (lambda store: verify_dataset(graph, store, 1e-9), lambda store: recompute(graph, store)):
            store = CdStore()
            store.add_directory(CD_DIR)
            expanded.clear()
            run(store)
            assert len(expanded) == 1
        statuses = [r.status for r in verify_dataset(graph, store, 1e-9).results]
        assert statuses == ["match"] * n

    @pytest.mark.parametrize("lexical", ["-0", "-0.00", "-0E+3"])
    def test_negative_zero_input_is_the_integer_zero(self, lexical):
        # decimal_to_om makes any zero an OMInteger, which evaluates to +0.0.
        text = DATASET_PREFIXES + point_turtle("Z", lexical)
        text += point_turtle("P", 0, "plus", ("ahs:Z", "ahs:Z"))
        graph = parse_turtle(text)
        (derivation,) = extract_derivations(graph)
        inputs = {AHS + "Z": Decimal(lexical)}
        value = rewrite._compute_point(derivation, inputs, CdStore())
        reference = compute_term(derivation_to_om(derivation, inputs), CdStore())
        assert value.hex() == reference.hex() == "0x0.0p+0"
        assert recompute(graph, CdStore()) == graph

    def test_an_added_cd_is_used_by_the_next_point(self):
        f = "http://example.org/late#f"
        derivation = extract_derivations(
            parse_turtle(DATASET_PREFIXES + point_turtle("P", 1, f, ('"3"^^xsd:decimal',)))
        )[0]
        store = CdStore()
        with pytest.raises(UnknownSymbolError):
            rewrite._compute_point(derivation, {}, store)
        store.add(parse_cd_xml(demo_cd("late", '<OMV name="x"/>')))
        assert rewrite._compute_point(derivation, {}, store) == 3.0

    def test_definition_deeper_than_the_recursion_limit(self):
        f = "http://example.org/deep#f"
        dataset = DATASET_PREFIXES + point_turtle("A", 3) + point_turtle("B", "1e200")
        dataset += point_turtle("P", 9, f, ("ahs:A",)) + point_turtle("Q", 1, f, ("ahs:B",))
        minus = '<OMS cd="arith1" name="unary_minus"/>'
        with recursion_limit(150) as limit:
            depth = limit * 20  # even, so the nest is the identity
            nest = f"<OMA>{minus}" * depth + '<OMV name="x"/>' + "</OMA>" * depth
            times = f'<OMA><OMS cd="arith1" name="times"/>{nest}<OMV name="x"/></OMA>'
            store = CdStore()
            store.add(parse_cd_xml(demo_cd("deep", times)))
            p, q = verify_dataset(parse_turtle(dataset), store, 1e-9).results
        assert (p.status, p.computed) == ("match", 9.0)
        # B's value overflows the product and is rendered in the failing sub-term.
        assert q.status == "uncomputable"
        assert q.reason.startswith("NonFiniteResultError: inf is not a finite real number, in ")
        assert q.reason.count(minus) == depth
        assert q.reason.count(f"<OMI>{10**200}</OMI>") == 2
