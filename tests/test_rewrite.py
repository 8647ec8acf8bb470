from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omld.annotations import CyclicDerivationError, extract_data_points, extract_derivations
from omld.cd import parse_cd_xml
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
    BaseEnv,
    CdStore,
    DepthExceededError,
    DivisionByZeroError,
    FreeVariableError,
    NoComputableRegionError,
    NonFiniteResultError,
    NonNumericLeafError,
    UnboundVariableError,
    UnknownSymbolError,
    canonical_decimal,
    evaluate,
    expand,
    query_max_increase,
    recompute,
    residual_symbols,
    substitute,
    verify_dataset,
)

from .conftest import CD_DIR, fixture_text
from .helpers import (
    DATASET_PREFIXES,
    chain_turtle,
    expand_outermost,
    inline,
    point_turtle,
    recursion_limit,
)
from .strategies import derivation_dags

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
    def test_hdi_expands_to_arith1_only(self, local_store, arith1):
        term = hdi_application(0.8, 0.9, 0.7, 0.6)
        expanded = expand(term, local_store, arith1)
        assert residual_symbols(expanded, arith1) == []
        cds = {s.cd for s in _symbols(expanded)}
        assert cds == {"arith1"}

    def test_hdi_expansion_structure(self, local_store, arith1):
        term = OMApplication(
            HDI, (OMVariable("a"), OMVariable("b"), OMVariable("c"), OMVariable("d"))
        )
        expanded = expand(term, local_store, arith1)
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

    def test_base_term_is_fixpoint(self, local_store, arith1):
        term = OMApplication(DIVIDE, (OMInteger(693), OMInteger(380)))
        assert expand(term, local_store, arith1) == term

    def test_cycle_raises_depth_exceeded(self, local_store, arith1):
        f = OMSymbol(cd="cyclic", name="f", cdbase="http://example.org")
        term = OMApplication(f, (OMInteger(1),))
        with pytest.raises(DepthExceededError) as err:
            expand(term, local_store, arith1, max_depth=32)
        assert err.value.max_depth == 32
        assert err.value.chain

    def test_ten_deep_chain_expands_fully(self, local_store, arith1):
        c1 = OMSymbol(cd="chain", name="c1", cdbase="http://example.org")
        term = OMApplication(c1, (OMInteger(5),))
        expanded = expand(term, local_store, arith1, max_depth=32)
        assert residual_symbols(expanded, arith1) == []
        # c1(5) = 5*2 + 9 ones
        assert evaluate(expanded, arith1) == 19.0

    def test_depth_budget_is_rewrite_passes(self, local_store, arith1):
        c1 = OMSymbol(cd="chain", name="c1", cdbase="http://example.org")
        term = OMApplication(c1, (OMInteger(5),))
        assert expand(term, local_store, arith1, max_depth=10) is not None
        with pytest.raises(DepthExceededError):
            expand(term, local_store, arith1, max_depth=9)

    def test_max_depth_must_be_positive(self, local_store, arith1):
        with pytest.raises(ValueError):
            expand(OMInteger(1), local_store, arith1, max_depth=0)

    def test_undefined_symbol_left_in_place(self, local_store, arith1):
        sin = OMSymbol(cd="transc1", name="sin")
        term = OMApplication(sin, (OMInteger(1),))
        expanded = expand(term, local_store, arith1)
        assert expanded == term
        assert residual_symbols(expanded, arith1) == [
            "http://www.openmath.org/cd/transc1#sin"
        ]

    def test_arity_mismatch(self, local_store, arith1):
        term = OMApplication(HDI, (OMInteger(1), OMInteger(2), OMInteger(3)))
        with pytest.raises(ArityMismatchError) as err:
            expand(term, local_store, arith1)
        assert err.value.expected == 4
        assert err.value.got == 3

    def test_constant_definition_expands_bare_symbol(self, arith1):
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
        assert expand(term, store, arith1) == OMApplication(
            TIMES, (OMFloat(6.283185307179586), OMInteger(2))
        )

    def test_innermost_equals_outermost_on_fixtures(self, local_store, arith1):
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
            inner = expand(term, local_store, arith1)
            outer = expand_outermost(term, local_store, arith1)
            assert inner == outer


def _symbols(obj):
    from omld.om import iter_symbols

    return list(iter_symbols(obj))


class TestEvaluate:
    def test_divide_against_decimal_oracle(self, arith1):
        term = OMApplication(DIVIDE, (OMInteger(693), OMInteger(380)))
        value = evaluate(term, arith1)
        assert value == 1.8236842105263158
        assert abs(value - float(Decimal(693) / Decimal(380))) < 1e-15

    def test_hdi_all_ones_is_exactly_one(self, local_store, arith1):
        expanded = expand(hdi_application(1, 1, 1, 1), local_store, arith1)
        assert evaluate(expanded, arith1) == 1.0

    def test_hdi_point_against_bignum_oracle(self, local_store, arith1):
        expanded = expand(hdi_application(0.8, 0.9, 0.7, 0.6), local_store, arith1)
        value = evaluate(expanded, arith1)
        assert value == 0.7444444444444445
        oracle = hdi_oracle(Fraction(8, 10), Fraction(9, 10), Fraction(7, 10), Fraction(6, 10))
        assert abs(value - float(oracle)) <= 1e-12 * float(oracle)

    def test_division_by_zero(self, arith1):
        term = OMApplication(DIVIDE, (OMInteger(1), OMInteger(0)))
        with pytest.raises(DivisionByZeroError):
            evaluate(term, arith1)

    def test_unknown_symbol(self, arith1):
        term = OMApplication(OMSymbol(cd="transc1", name="sin"), (OMInteger(1),))
        with pytest.raises(UnknownSymbolError):
            evaluate(term, arith1)

    def test_free_variable(self, arith1):
        with pytest.raises(FreeVariableError):
            evaluate(OMVariable("x"), arith1)

    def test_non_numeric_leaf(self, arith1):
        with pytest.raises(NonNumericLeafError):
            evaluate(OMString("x"), arith1)
        with pytest.raises(NonNumericLeafError):
            evaluate(PLUS, arith1)

    def test_integer_widening(self, arith1):
        term = OMApplication(PLUS, (OMInteger(1), OMFloat(0.5)))
        assert evaluate(term, arith1) == 1.5

    def test_nary_plus_times_and_unary_ops(self, arith1):
        plus = OMApplication(PLUS, tuple(OMInteger(i) for i in (1, 2, 3, 4)))
        assert evaluate(plus, arith1) == 10.0
        times = OMApplication(TIMES, tuple(OMInteger(i) for i in (2, 3, 4)))
        assert evaluate(times, arith1) == 24.0
        neg = OMApplication(OMSymbol(cd="arith1", name="unary_minus"), (OMInteger(5),))
        assert evaluate(neg, arith1) == -5.0
        ab = OMApplication(OMSymbol(cd="arith1", name="abs"), (OMFloat(-2.5),))
        assert evaluate(ab, arith1) == 2.5
        power = OMApplication(OMSymbol(cd="arith1", name="power"), (OMInteger(2), OMInteger(10)))
        assert evaluate(power, arith1) == 1024.0

    def test_binary_arity_enforced(self, arith1):
        term = OMApplication(DIVIDE, (OMInteger(1), OMInteger(2), OMInteger(3)))
        with pytest.raises(ArityMismatchError):
            evaluate(term, arith1)

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
    def test_no_finite_real_value_is_a_typed_error(self, term, arith1):
        with pytest.raises(NonFiniteResultError):
            evaluate(term, arith1)

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
        store.load_directory(CD_DIR)
        base = BaseEnv.arith1()
        term = hdi_application(*(float(v) for v in values))
        computed = evaluate(expand(term, store, base), base)
        oracle = float(hdi_oracle(*(float(v) for v in values)))
        assert abs(computed - oracle) <= 1e-12 * max(1.0, abs(oracle))


class TestCdStore:
    def test_conflicting_add_refused(self, statistics_cd):
        store = CdStore()
        store.add(statistics_cd)
        store.add(statistics_cd)  # identical re-add is fine
        from dataclasses import replace

        changed = replace(statistics_cd, description="different")
        with pytest.raises(ValueError):
            store.add(changed)

    def test_fetch_hook_called_once_per_key(self):
        calls = []

        def fetch(cdbase, cdname):
            calls.append((cdbase, cdname))
            raise FetchError(f"{cdbase}/{cdname}", "host unreachable")

        store = CdStore(fetch=fetch)
        assert store.lookup("http://nowhere.example", "cd") is None
        assert store.lookup("http://nowhere.example", "cd") is None
        assert len(calls) == 1
        assert isinstance(store.fetch_error("http://nowhere.example", "cd"), FetchError)

    def test_load_directory(self):
        store = CdStore()
        count = store.load_directory(CD_DIR)
        assert count >= 4
        assert store.lookup("http://example.org", "statistics") is not None

    def test_load_directory_with_non_utf8_file(self, tmp_path):
        (tmp_path / "bad.ocd").write_bytes(b"\xff\xfe<CD/>")
        with pytest.raises(ToolkitError, match="bad.ocd: not UTF-8"):
            CdStore().load_directory(tmp_path)

    def test_load_relative_directory(self, monkeypatch):
        monkeypatch.chdir(CD_DIR.parent)
        store = CdStore()
        assert store.load_directory(CD_DIR.name) >= 4
        cd = store.lookup("http://example.org", "statistics")
        assert cd.source_url == (CD_DIR / "statistics.ocd").resolve().as_uri()


class TestVerify:
    def test_geese_fixture_matches(self, geese_graph, local_store, arith1):
        report = verify_dataset(geese_graph, local_store, arith1, tolerance=1e-9)
        assert [r.status for r in report.results] == ["match"]
        assert report.all_match

    def test_tampered_value_mismatches(self, local_store, arith1):
        text = fixture_text("geese.ttl").replace('"1.8236842105263158"', '"2.0"')
        report = verify_dataset(parse_turtle(text), local_store, arith1, tolerance=1e-9)
        (result,) = report.results
        assert result.status == "mismatch"
        assert result.stored == 2.0
        assert abs(result.computed - 1.8236842105263158) < 1e-12
        assert abs(result.delta - 0.17631578947368416) < 1e-12

    def test_unfetchable_cd_reported_as_fetch_error(self, geese_graph, arith1):
        text = fixture_text("geese.ttl").replace(
            "http://www.openmath.org/cd/arith1#divide",
            "http://unreachable.example/nowhere#divide",
        )

        def failing_fetch(cdbase, cdname):
            raise FetchError(f"{cdbase}/{cdname}", "connection refused")

        store = CdStore(fetch=failing_fetch)
        report = verify_dataset(parse_turtle(text), store, arith1, tolerance=1e-9)
        (result,) = report.results
        assert result.status == "uncomputable"
        assert "FetchError" in result.reason

    def test_missing_stored_value_is_uncomputable(self, local_store, arith1):
        text = fixture_text("listing2.ttl")
        report = verify_dataset(parse_turtle(text), local_store, arith1, tolerance=1e-9)
        (result,) = report.results
        assert result.status == "uncomputable"
        assert "no stored value" in result.reason

    def test_deep_chain_without_stored_values_matches(self, local_store, arith1):
        graph = parse_turtle(chain_turtle(40, top_value=41))
        report = verify_dataset(graph, local_store, arith1, tolerance=1e-9)
        top = next(r for r in report.results if r.point_id == Iri(AHS + "D1"))
        assert top.status == "match"
        assert top.computed == 41.0

    def test_cycle_among_unstored_inputs_is_uncomputable(self, local_store, arith1):
        text = DATASET_PREFIXES + "".join(
            [
                point_turtle("L", 2),
                point_turtle("A", None, "plus", ("ahs:B", "ahs:L")),
                point_turtle("B", None, "times", ("ahs:A", "ahs:L")),
                point_turtle("C", 5, "plus", ("ahs:A", '"1"^^xsd:decimal')),
            ]
        )
        report = verify_dataset(parse_turtle(text), local_store, arith1, tolerance=1e-9)
        by_name = {r.point_id.value.rsplit("#")[-1]: r for r in report.results}
        assert by_name["C"].status == "uncomputable"
        assert by_name["C"].reason.startswith("CyclicDerivationError")
        assert by_name["A"].reason == by_name["B"].reason == "no stored value"

    def test_failed_input_fails_each_consumer_alike(self, local_store, arith1):
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
        report = verify_dataset(parse_turtle(text), local_store, arith1, tolerance=1e-9)
        reasons = {r.point_id.value.rsplit("#")[-1]: r.reason for r in report.results}
        assert reasons["C1"] == reasons["C2"] == reasons["C3"]
        assert reasons["C1"].startswith("DivisionByZeroError")
        # The reason names Q's numbers, not the term Z was computed from.
        assert "minus" not in reasons["C1"]

    def test_complex_input_does_not_abort_the_run(self, local_store, arith1):
        text = DATASET_PREFIXES + "".join(
            [
                point_turtle("N", -8),
                point_turtle("R", None, "power", ("ahs:N", '"0.5"^^xsd:decimal')),
                point_turtle("C", 1, "plus", ("ahs:R", '"1"^^xsd:decimal')),
            ]
        )
        report = verify_dataset(parse_turtle(text), local_store, arith1, tolerance=1e-9)
        assert [r.point_id.value.rsplit("#")[-1] for r in report.results] == ["C", "R"]

    def test_values_without_a_finite_real_value_are_uncomputable(self, local_store, arith1):
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
        report = verify_dataset(parse_turtle(text), local_store, arith1, tolerance=1e-9)
        status = {r.point_id.value.rsplit("#")[-1]: (r.status, r.reason) for r in report.results}
        for pid in "PQR":
            assert status[pid][0] == "uncomputable"
            assert status[pid][1].startswith("NonFiniteResultError")
        assert status["S"] == ("match", None)

    def test_report_serializations(self, geese_graph, local_store, arith1):
        report = verify_dataset(geese_graph, local_store, arith1, tolerance=1e-9)
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
        store, base = CdStore(), BaseEnv.arith1()
        report = verify_dataset(graph, store, base, tolerance=1e-9)
        (result,) = [r for r in report.results if r.point_id.value == top]
        points = {p.id.value: p for p in extract_data_points(graph)}
        derivations = {d.point_id.value: d for d in extract_derivations(graph)}
        term = inline(derivations[top], points, derivations)
        assert result.computed == evaluate(expand(term, store, base), base)


class TestRecompute:
    def test_changed_base_value_propagates(self, local_store, arith1):
        text = fixture_text("geese.ttl").replace('"693"', '"700"')
        graph = parse_turtle(text)
        result = recompute(graph, local_store, arith1)
        (value,) = result.match(Iri(AHS + "PD100"), Iri(RDF_VALUE), None)
        assert value.object.lexical == "1.8421052631578947"
        assert float(value.object.lexical) == 700 / 380

    def test_dataset_without_derivations_unchanged(self, listing1_graph, local_store, arith1):
        result = recompute(listing1_graph, local_store, arith1)
        assert result.triples == listing1_graph.triples

    def test_two_level_chain_recomputed_in_order(self, local_store, arith1):
        text = fixture_text("geese.ttl") + (
            "\nahs:DD100 scv:dimension env:geese-density ;\n"
            "  sl:computedFrom [ sl:function <http://www.openmath.org/cd/arith1#times> ;\n"
            '    sl:arguments [ sl:argPosition "1"^^xsd:int ; sl:argValue ahs:PD100 ] ,\n'
            '                 [ sl:argPosition "2"^^xsd:int ; sl:argValue "2"^^xsd:decimal ] ] .\n'
        )
        graph = parse_turtle(text.replace('"693"', '"700"'))
        result = recompute(graph, local_store, arith1)
        (pd,) = result.match(Iri(AHS + "PD100"), Iri(RDF_VALUE), None)
        (dd,) = result.match(Iri(AHS + "DD100"), Iri(RDF_VALUE), None)
        assert float(pd.object.lexical) == 700 / 380
        assert float(dd.object.lexical) == (700 / 380) * 2

    def test_idempotent(self, geese_graph, local_store, arith1):
        once = recompute(geese_graph, local_store, arith1)
        twice = recompute(once, local_store, arith1)
        assert once.triples == twice.triples

    def test_verify_after_recompute_matches(self, local_store, arith1):
        text = fixture_text("geese.ttl").replace('"693"', '"697"')
        recomputed = recompute(parse_turtle(text), local_store, arith1)
        report = verify_dataset(recomputed, local_store, arith1, tolerance=1e-9)
        assert report.all_match

    def test_chain_deeper_than_recursion_limit(self, local_store, arith1):
        with recursion_limit(150) as limit:
            depth = limit + 50
            result = recompute(parse_turtle(chain_turtle(depth)), local_store, arith1)
        for i in (1, depth // 2, depth):
            (value,) = result.match(Iri(AHS + f"D{i}"), Iri(RDF_VALUE), None)
            assert value.object.lexical == str(depth - i + 2)

    def test_overflow_raises_a_typed_error(self, local_store, arith1):
        text = DATASET_PREFIXES + point_turtle("A", "1e200") + point_turtle(
            "B", 1, "times", ("ahs:A", "ahs:A")
        )
        with pytest.raises(NonFiniteResultError):
            recompute(parse_turtle(text), local_store, arith1)

    def test_cycle_detected(self, local_store, arith1):
        text = fixture_text("listing2.ttl") + (
            "\nahs:EH100 sl:computedFrom [ sl:function <http://www.openmath.org/cd/arith1#times> ;\n"
            '  sl:arguments [ sl:argPosition "1"^^xsd:int ; sl:argValue ahs:PD100 ] ,\n'
            '               [ sl:argPosition "2"^^xsd:int ; sl:argValue "1"^^xsd:decimal ] ] .\n'
        )
        with pytest.raises(CyclicDerivationError):
            recompute(parse_turtle(text), local_store, arith1)


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
        with pytest.raises(ValueError):
            canonical_decimal(float("inf"))


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

    def brute_force(self, graph, store, base):
        """Oracle: evaluate every metric derivation, group by hand."""
        points = {p.id.value: p for p in extract_data_points(graph)}
        derivations = {d.point_id.value: d for d in extract_derivations(graph)}

        per_region: dict[str, dict[str, float]] = {}
        for pid, d in derivations.items():
            if d.function_uri != self.METRIC:
                continue
            point = points[pid]
            dims = {x.value for x in point.dimensions}
            region = next(
                x for x in dims if graph.match(Iri(x), None, self.REGION)
            )
            time = self.T1.value if self.T1.value in dims else self.T2.value
            value = evaluate(expand(inline(d, points, derivations), store, base), base)
            per_region.setdefault(region, {})[time] = value
        best = None
        for region in sorted(per_region):
            times = per_region[region]
            inc = times[self.T2.value] - times[self.T1.value]
            if best is None or inc > best[1]:
                best = (region, inc)
        return best

    def test_three_region_fixture(self, regions_graph, local_store, arith1):
        region, increase = query_max_increase(
            regions_graph, self.METRIC, self.REGION, self.T1, self.T2, local_store, arith1
        )
        assert region == Iri(ENV + "region-c")
        assert abs(increase - 0.9) < 1e-12
        oracle = self.brute_force(regions_graph, local_store, arith1)
        assert (region.value, increase) == oracle

    def test_single_region(self, local_store, arith1):
        graph = parse_turtle(regions_turtle({"a": ("10", "15")}))
        region, increase = query_max_increase(
            graph, self.METRIC, self.REGION, self.T1, self.T2, local_store, arith1
        )
        assert region == Iri(ENV + "region-a")
        assert abs(increase - 0.5) < 1e-12

    def test_tie_breaks_lexicographically(self, local_store, arith1):
        # Both regions increase by exactly 0.5; region-a wins by IRI order.
        graph = parse_turtle(regions_turtle({"b": ("20", "25"), "a": ("10", "15")}))
        region, increase = query_max_increase(
            graph, self.METRIC, self.REGION, self.T1, self.T2, local_store, arith1
        )
        assert abs(increase - 0.5) < 1e-12
        assert region == Iri(ENV + "region-a")

    def test_scaling_invariance(self, local_store, arith1):
        table = {"a": (10, 15), "b": (20, 22), "c": (5, 14)}
        plain = parse_turtle(
            regions_turtle({r: (str(p1), str(p2)) for r, (p1, p2) in table.items()})
        )
        scaled = parse_turtle(
            regions_turtle(
                {r: (str(p1 * 7.3), str(p2 * 7.3)) for r, (p1, p2) in table.items()}
            )
        )
        before, _ = query_max_increase(
            plain, self.METRIC, self.REGION, self.T1, self.T2, local_store, arith1
        )
        after, _ = query_max_increase(
            scaled, self.METRIC, self.REGION, self.T1, self.T2, local_store, arith1
        )
        assert before == after == Iri(ENV + "region-c")

    def test_no_computable_region(self, local_store, arith1):
        with pytest.raises(NoComputableRegionError):
            query_max_increase(
                Graph(), self.METRIC, self.REGION, self.T1, self.T2, local_store, arith1
            )
