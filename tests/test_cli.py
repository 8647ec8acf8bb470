from __future__ import annotations

import json
import gc
import os
import select
import signal
import socket
import subprocess
import sys
import time
import urllib.request
import warnings
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from omld import cd as cd_module
from omld import cli, resolver
from omld.cli import main
from omld.config import ToolkitConfig
from omld.om import (
    OPENMATH_XML_MIME,
    OMApplication,
    OMInteger,
    OMSymbol,
    om_element_text,
    parse_om_xml,
    serialize_om_xml,
)
from omld.rdf import MAX_NESTING, RDF_VALUE, Iri, parse_turtle
from omld.resolver import FetchError
from omld.rewrite import CdStore

from .conftest import CD_DIR, FIXTURES, fixture_text
from .helpers import (
    DATASET_PREFIXES,
    CountingTransport,
    chain_turtle,
    demo_cd,
    expand_outermost,
    match,
    one_shot_server,
    point_turtle,
    recursion_limit,
)


DIVIDE_IRI = "http://www.openmath.org/cd/arith1#divide"
# Function IRIs whose symbol name or CD name is not an NCName.
BAD_FUNCTION_IRIS = [
    "http://www.openmath.org/cd/arith1#1divide",
    "http://www.openmath.org/cd/arith%201#divide",
]


ENV = "http://example.org/ns/env#"
# The metric and the two times of a ``query-max`` run on a one-dimension dataset.
QUERY_MAX_ARGS = [ENV + "metric", ENV + "t1", ENV + "t2"]


def nest_statement(depth: int) -> str:
    """A data point whose dimension is ``depth`` nested blank-node property lists."""
    return "ahs:N scv:dimension " + "[ scv:dimension " * depth + "env:x" + " ]" * depth + " .\n"


@pytest.fixture
def config_file(tmp_path) -> str:
    path = tmp_path / "omld.json"
    path.write_text(json.dumps({"cd_dirs": [str(CD_DIR)], "tolerance": 1e-9}))
    return str(path)


class TestVerifyCommand:
    def test_consistent_dataset_exits_0(self, capsys, config_file):
        code = main(["verify", str(FIXTURES / "geese.ttl"), "--config", config_file])
        assert code == 0
        assert "MATCH" in capsys.readouterr().out

    def test_tampered_dataset_exits_1(self, tmp_path, capsys, config_file):
        tampered = tmp_path / "tampered.ttl"
        tampered.write_text(fixture_text("geese.ttl").replace('"1.8236842105263158"', '"2.0"'))
        code = main(["verify", str(tampered), "--config", config_file])
        assert code == 1
        assert "MISMATCH" in capsys.readouterr().out

    def test_nesting_past_the_bound_exits_2(self, tmp_path, capsys):
        dataset = tmp_path / "deep.ttl"
        dataset.write_text(DATASET_PREFIXES + nest_statement(20 * sys.getrecursionlimit()))
        assert main(["verify", str(dataset)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("omld: line ")
        assert captured.err.endswith(f": expected at most {MAX_NESTING} nested '['\n")
        assert captured.err.count("\n") == 1

    def test_missing_config_exits_64(self):
        code = main(["verify", str(FIXTURES / "geese.ttl"), "--config", "/no/such/config.json"])
        assert code == 64

    def test_missing_dataset_exits_64(self, config_file):
        code = main(["verify", "/no/such/data.ttl", "--config", config_file])
        assert code == 64

    def test_unknown_config_key_exits_64(self, tmp_path):
        bad = tmp_path / "bad.json"
        # A typo, and keys that no longer exist.
        for text in (
            '{"tollerance": 1}',
            '{"base_env": "arith1"}',
            '{"cache_ttl": 300}',
            '{"max_depth": 32}',
            '{"link_predicates": ["http://www.w3.org/2000/01/rdf-schema#seeAlso"]}',
            '{"default_representation": "application/openmath+xml"}',
            '{"prefixes": {"sl": "http://example.org/ns/sl#"}}',
            '{"region_type": "http://example.org/ns/env#Region"}',
            '{"cd_directory": "cds"}',
        ):
            bad.write_text(text)
            code = main(["verify", str(FIXTURES / "geese.ttl"), "--config", str(bad)])
            assert code == 64

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"cd_dirs": 5}', "cd_dirs must be a list of strings"),
            ('{"cd_dirs": [5]}', "cd_dirs must be a list of strings"),
            ('{"tolerance": NaN}', "tolerance must be a finite number >= 0"),
            ('{"tolerance": true}', "tolerance must be a number"),
            ('{"port": true}', "port must be an integer"),
        ],
    )
    def test_config_value_of_the_wrong_type_exits_64(self, tmp_path, capsys, text, message):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["verify", str(FIXTURES / "geese.ttl"), "--config", str(bad)]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("omld: ") and captured.err.endswith(f"{message}\n")

    def test_max_depth_flag_is_gone(self, config_file, capsys):
        code = main(
            ["verify", str(FIXTURES / "geese.ttl"), "--config", config_file, "--max-depth", "3"]
        )
        assert code == 64
        assert "--max-depth" in capsys.readouterr().err

    def test_json_report(self, capsys, config_file):
        code = main(["verify", str(FIXTURES / "geese.ttl"), "--config", config_file, "--json"])
        assert code == 0
        records = json.loads(capsys.readouterr().out)
        assert records[0]["status"] == "match"

    def test_uncomputable_exits_2(self, tmp_path, capsys, config_file):
        broken = tmp_path / "broken.ttl"
        broken.write_text(
            fixture_text("geese.ttl").replace(
                "http://www.openmath.org/cd/arith1#divide",
                "http://127.0.0.1:1/void#divide",
            )
        )
        code = main(["verify", str(broken), "--config", config_file])
        assert code == 2
        assert "UNCOMPUTABLE" in capsys.readouterr().out

    @pytest.mark.parametrize("function", BAD_FUNCTION_IRIS)
    def test_non_ncname_function_iri_is_uncomputable(self, tmp_path, capsys, config_file, function):
        dataset = tmp_path / "bad.ttl"
        dataset.write_text(fixture_text("geese.ttl").replace(DIVIDE_IRI, function))
        assert main(["verify", str(dataset), "--json", "--config", config_file]) == 2
        (record,) = json.loads(capsys.readouterr().out)
        assert record["status"] == "uncomputable"
        assert record["reason"] == f"MalformedSymbolUriError: not a symbol URI: {function}"

    @pytest.mark.parametrize("command", ["verify", "recompute", "query-max"])
    def test_cd_with_bad_symbol_name_exits_2(self, tmp_path, capsys, command):
        # A CD that cannot be read ends the run before any output, even in
        # the commands that report a failed point and carry on.
        bad_dir = tmp_path / "cds"
        bad_dir.mkdir()
        (bad_dir / "bad.ocd").write_text(
            "<CD><CDName>bad</CDName><CDBase>http://example.org</CDBase>"
            "<CDDefinition><Name>bad name</Name></CDDefinition></CD>"
        )
        config = tmp_path / "omld.json"
        config.write_text(json.dumps({"cd_dirs": [str(CD_DIR), str(bad_dir)]}))
        dataset = tmp_path / "data.ttl"
        dataset.write_text(
            DATASET_PREFIXES
            + point_turtle("L", 1)
            + point_turtle("A", 1, "http://example.org/bad#f", ["ahs:L"])
        )
        args = [str(dataset), *QUERY_MAX_ARGS] if command == "query-max" else [str(dataset)]
        assert main([command, *args, "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"omld: {bad_dir / 'bad.ocd'}: <Name>: bad symbol name: 'bad name'\n"

    @pytest.mark.parametrize("command", ["verify", "recompute", "query-max"])
    def test_bad_stored_value_is_reported_before_a_bad_derivation(
        self, tmp_path, capsys, config_file, command
    ):
        # Stored values are read before derivations, and of two bad values the
        # first point by IRI is named, not the first in the text.
        dataset = tmp_path / "data.ttl"
        dataset.write_text(
            DATASET_PREFIXES
            + 'ahs:B scv:dimension env:x ; rdf:value "lots" .\n'
            + 'ahs:A scv:dimension env:x ; rdf:value "many" .\n'
            + "ahs:C scv:dimension env:x ; sl:computedFrom [ sl:arguments"
            ' [ sl:argPosition "1"^^xsd:int ; sl:argValue ahs:A ] ] .\n'
        )
        args = [str(dataset), *QUERY_MAX_ARGS] if command == "query-max" else [str(dataset)]
        assert main([command, *args, "--config", config_file]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "omld: http://example.org/ns/ahs#A: rdf:value 'many' is not numeric\n"

    def test_two_symbols_of_one_remote_cd_cost_one_request(self, tmp_path, capsys, monkeypatch):
        # chain#c9(x) = 2x + 1 and chain#c10(x) = 2x, served from cds.example.
        cd = fixture_text("cds/chain.ocd").replace("http://example.org", "http://cds.example")
        transport = CountingTransport({"http://cds.example/chain": cd.encode()})
        monkeypatch.setattr(resolver, "_default_transport", transport)
        dataset = tmp_path / "remote.ttl"
        dataset.write_text(
            DATASET_PREFIXES
            + point_turtle("L", 1)
            + point_turtle("A", 3, "http://cds.example/chain#c9", ["ahs:L"])
            + point_turtle("B", 2, "http://cds.example/chain#c10", ["ahs:L"])
        )
        assert main(["verify", str(dataset)]) == 0
        assert capsys.readouterr().out.count("MATCH") == 2
        assert transport.urls == ["http://cds.example/chain"]

    def test_unreachable_cd_requested_once(self, tmp_path, capsys, monkeypatch):
        transport = CountingTransport(cds={})
        monkeypatch.setattr(resolver, "_default_transport", transport)
        dataset = tmp_path / "void.ttl"
        dataset.write_text(
            DATASET_PREFIXES
            + point_turtle("L", 1)
            + point_turtle("A", 3, "http://cds.example/void#f", ["ahs:L"])
            + point_turtle("B", 2, "http://cds.example/void#g", ["ahs:L"])
        )
        assert main(["verify", str(dataset)]) == 2
        assert capsys.readouterr().out.count("UNCOMPUTABLE") == 2
        assert transport.urls == ["http://cds.example/void"]

    def test_non_utf8_dataset_exits_2(self, tmp_path, capsys, config_file):
        dataset = tmp_path / "latin.ttl"
        dataset.write_bytes(b"\xff\xfe" + fixture_text("geese.ttl").encode("utf-8"))
        code = main(["verify", str(dataset), "--config", config_file])
        assert code == 2
        assert f"{dataset}: not UTF-8" in capsys.readouterr().err

    def test_escape_naming_no_character_exits_2(self, tmp_path, capsys, config_file):
        dataset = tmp_path / "escape.ttl"
        dataset.write_text(
            '@prefix ex: <http://example.org/> .\nex:s ex:p "\\UFFFFFFFF" .\n', encoding="utf-8"
        )
        code = main(["verify", str(dataset), "--config", config_file])
        assert code == 2
        assert "line 2, column 12: expected a Unicode scalar value" in capsys.readouterr().err

    def test_overflow_is_uncomputable_and_the_run_goes_on(self, tmp_path, capsys, config_file):
        dataset = tmp_path / "overflow.ttl"
        dataset.write_text(
            DATASET_PREFIXES
            + point_turtle("A", "10.5")
            + point_turtle("B", 1, "power", ("ahs:A", '"400"^^xsd:decimal'))
            + point_turtle("C", 21, "times", ("ahs:A", '"2"^^xsd:decimal'))
        )
        code = main(["verify", str(dataset), "--config", config_file])
        assert code == 2
        out = capsys.readouterr().out
        assert "UNCOMPUTABLE http://example.org/ns/ahs#B reason=NonFiniteResultError" in out
        assert "MATCH http://example.org/ns/ahs#C" in out

    def test_json_report_has_no_non_finite_numbers(self, tmp_path, capsys, config_file):
        dataset = tmp_path / "huge.ttl"

        def reject(constant):
            raise ValueError(f"not JSON: {constant}")

        def verify(points: str) -> tuple[int, list[dict]]:
            dataset.write_text(DATASET_PREFIXES + points)
            code = main(["verify", str(dataset), "--config", config_file, "--json"])
            return code, json.loads(capsys.readouterr().out, parse_constant=reject)

        code, records = verify(
            point_turtle("A", 2)
            + point_turtle("B", "1e400", "times", ("ahs:A", '"1"^^xsd:decimal'))
            + point_turtle("C", 2, "times", ("ahs:A", '"1"^^xsd:decimal'))
        )
        assert code == 2
        assert [(r["status"], r["stored"]) for r in records] == [
            ("uncomputable", None),
            ("match", 2.0),
        ]
        assert "'1e400'" in records[0]["reason"]

        # Finite values whose difference overflows: a mismatch without a delta.
        code, records = verify(
            point_turtle("H", "1.7e308") + point_turtle("N", "1.7e308", "unary_minus", ("ahs:H",))
        )
        assert code == 1
        assert [(r["status"], r["stored"], r["computed"], r["delta"]) for r in records] == [
            ("mismatch", 1.7e308, -1.7e308, None)
        ]

    def test_a_growing_cyclic_definition_exits_2_at_once(self, tmp_path):
        # f(x) = plus(f(x), f(x)) doubles the term at each step of its expansion.
        call = '<OMA><OMS cdbase="http://example.org" cd="grow" name="f"/><OMV name="x"/></OMA>'
        (tmp_path / "grow.ocd").write_text(
            demo_cd("grow", f'<OMA><OMS cd="arith1" name="plus"/>{call}{call}</OMA>')
        )
        dataset = tmp_path / "data.ttl"
        dataset.write_text(
            DATASET_PREFIXES
            + point_turtle("L", 1)
            + point_turtle("P", 2, "http://example.org/grow#f", ["ahs:L"])
        )
        config = tmp_path / "omld.json"
        config.write_text(json.dumps({"cd_dirs": [str(tmp_path)]}))
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "omld", "verify", str(dataset), "--config", str(config)],
            capture_output=True,
            text=True,
            env=env,
            timeout=10,
        )
        assert time.monotonic() - start < 5
        assert (proc.returncode, proc.stderr) == (2, "")
        assert proc.stdout == (
            "UNCOMPUTABLE http://example.org/ns/ahs#P reason=CyclicDefinitionError: "
            "cyclic definition: http://example.org/grow#f\n"
        )


class TestRecomputeCommand:
    def test_edited_base_value(self, tmp_path, config_file):
        dataset = tmp_path / "edited.ttl"
        dataset.write_text(fixture_text("geese.ttl").replace('"693"', '"700"'))
        out = tmp_path / "out.ttl"
        code = main(["recompute", str(dataset), "--out", str(out), "--config", config_file])
        assert code == 0
        graph = parse_turtle(out.read_text())
        (value,) = match(graph, Iri("http://example.org/ns/ahs#PD100"), Iri(RDF_VALUE), None)
        assert float(value.object.lexical) == 700 / 380

    @pytest.mark.parametrize("target", ["missing/out.ttl", "."], ids=["no-parent", "directory"])
    def test_unwritable_out_exits_2(self, tmp_path, capsys, config_file, target):
        out = str(tmp_path / target)
        code = main(["recompute", str(FIXTURES / "geese.ttl"), "--out", out, "--config", config_file])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"omld: cannot write {out}: ")
        assert captured.err.count("\n") == 1

    def test_no_derivations_is_stable(self, tmp_path, capsys, config_file):
        code = main(["recompute", str(FIXTURES / "listing1.ttl"), "--config", config_file])
        assert code == 0
        text = capsys.readouterr().out
        assert parse_turtle(text).triples == parse_turtle(fixture_text("listing1.ttl")).triples

    def test_chain_deeper_than_recursion_limit_exits_0(self, tmp_path, config_file):
        dataset = tmp_path / "chain.ttl"
        out = tmp_path / "out.ttl"
        with recursion_limit(150) as limit:
            depth = limit + 50
            dataset.write_text(chain_turtle(depth))
            code = main(["recompute", str(dataset), "--out", str(out), "--config", config_file])
        assert code == 0
        graph = parse_turtle(out.read_text())
        (value,) = match(graph, Iri("http://example.org/ns/ahs#D1"), Iri(RDF_VALUE), None)
        assert value.object.lexical == str(depth + 1)

    def test_cyclic_dataset_exits_2(self, tmp_path, capsys, config_file):
        cyclic = tmp_path / "cyclic.ttl"
        cyclic.write_text(
            fixture_text("listing2.ttl")
            + "\nahs:EH100 sl:computedFrom [ sl:function <http://www.openmath.org/cd/arith1#times> ;\n"
            '  sl:arguments [ sl:argPosition "1"^^xsd:int ; sl:argValue ahs:PD100 ] ,\n'
            '               [ sl:argPosition "2"^^xsd:int ; sl:argValue "1"^^xsd:decimal ] ] .\n'
        )
        code = main(["recompute", str(cyclic), "--config", config_file])
        assert code == 2
        assert "cyclic" in capsys.readouterr().err.lower()

    @pytest.mark.parametrize("function", BAD_FUNCTION_IRIS)
    def test_non_ncname_function_iri_exits_2(self, tmp_path, capsys, config_file, function):
        dataset = tmp_path / "bad.ttl"
        dataset.write_text(fixture_text("geese.ttl").replace(DIVIDE_IRI, function))
        assert main(["recompute", str(dataset), "--config", config_file]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"omld: not a symbol URI: {function}\n"

    @pytest.mark.parametrize("base, exponent", [("1e200", "2"), ("-8", "0.5")])
    def test_infinite_or_complex_value_exits_2(self, tmp_path, capsys, config_file, base, exponent):
        dataset = tmp_path / "power.ttl"
        dataset.write_text(
            DATASET_PREFIXES
            + point_turtle("A", base)
            + point_turtle("B", 1, "power", ("ahs:A", f'"{exponent}"^^xsd:decimal'))
        )
        code = main(["recompute", str(dataset), "--config", config_file])
        assert code == 2
        assert capsys.readouterr().err.startswith("omld: ")


class TestExpandCommand:
    HDI_XML = (
        '<OMOBJ><OMA><OMS cdbase="http://example.org" cd="statistics" name="hdi"/>'
        '<OMF dec="0.8"/><OMF dec="0.9"/><OMF dec="0.7"/><OMF dec="0.6"/></OMA></OMOBJ>'
    )

    def test_hdi_expands_to_arith1(self, tmp_path, capsys):
        source = tmp_path / "hdi.om"
        source.write_text(self.HDI_XML)
        code = main(["expand", str(source), str(CD_DIR)])
        assert code == 0
        captured = capsys.readouterr()
        expanded = parse_om_xml(captured.out.strip())
        from omld.om import iter_symbols

        assert {s.cd for s in iter_symbols(expanded)} == {"arith1"}
        assert captured.err == ""

    def test_already_base_expression_unchanged(self, tmp_path, capsys):
        source = tmp_path / "base.om"
        text = (
            '<OMOBJ><OMA><OMS cd="arith1" name="divide"/>'
            "<OMI>693</OMI><OMI>380</OMI></OMA></OMOBJ>"
        )
        source.write_text(text)
        code = main(["expand", str(source), str(CD_DIR)])
        assert code == 0
        out = capsys.readouterr().out.strip()
        assert out == serialize_om_xml(parse_om_xml(text))

    def test_undefined_symbol_retained_with_residual_on_stderr(self, tmp_path, capsys):
        source = tmp_path / "sin.om"
        source.write_text(
            '<OMOBJ><OMA><OMS cd="transc1" name="sin"/><OMI>1</OMI></OMA></OMOBJ>'
        )
        code = main(["expand", str(source), str(CD_DIR)])
        assert code == 0
        captured = capsys.readouterr()
        assert 'name="sin"' in captured.out
        assert "residual: http://www.openmath.org/cd/transc1#sin" in captured.err

    def test_term_deeper_than_the_recursion_limit(self, tmp_path, capsys):
        minus = '<OMS cd="arith1" name="unary_minus"/>'
        c1 = OMApplication(OMSymbol("chain", "c1", "http://example.org"), (OMInteger(5),))
        store = CdStore()
        store.add_directory(CD_DIR)
        c1_expanded = om_element_text(expand_outermost(c1, store))
        with recursion_limit(150) as limit:
            depth = limit * 20
            source = tmp_path / "deep.om"
            nest = f"<OMA>{minus}" * depth + "{}" + "</OMA>" * depth
            source.write_text(f"<OMOBJ>{nest.format(om_element_text(c1))}</OMOBJ>")
            code = main(["expand", str(source), str(CD_DIR)])
            captured = capsys.readouterr()
            reparsed = serialize_om_xml(parse_om_xml(captured.out))
        assert (code, captured.err) == (0, "")
        assert reparsed == f"<OMOBJ>{nest.format(c1_expanded)}</OMOBJ>"

    def test_non_utf8_openmath_file_exits_2(self, tmp_path, capsys):
        source = tmp_path / "latin.om"
        source.write_bytes(b"<OMOBJ><OMSTR>\xe9</OMSTR></OMOBJ>")
        code = main(["expand", str(source)])
        assert code == 2
        assert f"{source}: not UTF-8" in capsys.readouterr().err

    def test_url_source_is_fetched_once(self, tmp_path, capsys, cd_server, monkeypatch):
        # The term names the CD under the URL's own cdbase, not its declared one.
        transport = CountingTransport()
        monkeypatch.setattr(resolver, "_default_transport", transport)
        source = tmp_path / "hdi.om"
        source.write_text(self.HDI_XML.replace("http://example.org", cd_server.base_iri))
        url = f"{cd_server.base_iri}/statistics"
        assert main(["expand", str(source), url]) == 0
        assert capsys.readouterr().err == ""
        assert transport.urls == [url]

    def test_unreachable_url_source_exits_2(self, tmp_path, capsys):
        source = tmp_path / "x.om"
        source.write_text("<OMOBJ><OMI>1</OMI></OMOBJ>")
        assert main(["expand", str(source), "http://127.0.0.1:1/statistics"]) == 2
        assert capsys.readouterr().err.startswith("omld: fetch of http://127.0.0.1:1/statistics")

    def test_bad_url_source_exits_2(self, tmp_path, capsys):
        source = tmp_path / "x.om"
        source.write_text("<OMOBJ><OMI>1</OMI></OMOBJ>")
        assert main(["expand", str(source), "http://127.0.0.1:abc/statistics"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("omld: fetch of http://127.0.0.1:abc/statistics")
        assert err.count("\n") == 1

    def test_doctype_exits_2(self, tmp_path, capsys):
        source = tmp_path / "entity.om"
        source.write_text('<!DOCTYPE OMOBJ [<!ENTITY one "1">]><OMOBJ><OMI>&one;</OMI></OMOBJ>')
        assert main(["expand", str(source)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "omld: a document type declaration is not allowed\n"

    def test_bad_source_exits_64(self, tmp_path):
        source = tmp_path / "x.om"
        source.write_text("<OMOBJ><OMI>1</OMI></OMOBJ>")
        code = main(["expand", str(source), "/no/such/dir"])
        assert code == 64


class TestFetchCommand:
    def test_fetch_cd_xml(self, cd_server, capsysbinary):
        code = main(["fetch", f"{cd_server.base_iri}/statistics#hdi"])
        assert code == 0
        body = capsysbinary.readouterr().out
        assert b"<CDName>statistics</CDName>" in body

    def test_fetch_html_follows_redirect(self, cd_server, capsysbinary):
        code = main(
            ["fetch", f"{cd_server.base_iri}/statistics", "--accept", "text/html"]
        )
        assert code == 0
        assert b'id="hdi"' in capsysbinary.readouterr().out

    def test_config_flag_is_gone(self, capsys):
        # fetch reads no config, so it does not accept one.
        assert main(["fetch", "http://127.0.0.1:1/x", "--config", "/no/such/config.json"]) == 64
        assert "unrecognized arguments: --config" in capsys.readouterr().err

    def test_unreachable_host_exits_2(self):
        code = main(["fetch", "http://127.0.0.1:1/statistics"])
        assert code == 2

    def test_bad_port_exits_2(self, capsys):
        assert main(["fetch", "http://127.0.0.1:abc/x"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("omld: fetch of http://127.0.0.1:abc/x failed")
        assert err.count("\n") == 1

    def test_malformed_response_exits_2(self, capsys):
        with one_shot_server(b"garbage\r\n\r\n") as base:
            assert main(["fetch", f"{base}/statistics"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"omld: fetch of {base}/statistics failed")
        assert err.count("\n") == 1

    def test_body_over_the_cap_exits_2(self, cd_server, capsys, monkeypatch):
        monkeypatch.setattr(resolver, "MAX_BODY_BYTES", 100)
        assert main(["fetch", f"{cd_server.base_iri}/statistics"]) == 2
        assert "response body exceeds 100 bytes" in capsys.readouterr().err


class TestQueryMaxCommand:
    def test_three_region_fixture(self, capsys, config_file):
        code = main(
            [
                "query-max",
                str(FIXTURES / "regions.ttl"),
                "http://www.openmath.org/cd/arith1#divide",
                "http://example.org/ns/env#year-2008",
                "http://example.org/ns/env#year-2009",
                "--config",
                config_file,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        region, value = out.strip().split("\t")
        assert region == "http://example.org/ns/env#region-c"
        assert abs(float(value) - 0.9) < 1e-12

    @pytest.mark.parametrize("function", BAD_FUNCTION_IRIS)
    def test_point_with_non_ncname_function_is_left_out(
        self, tmp_path, capsys, config_file, function
    ):
        # Region c's 2009 population becomes a derived input that cannot be
        # computed, so its 2009 density fails and region a wins instead.
        stored = (
            "ahs:POP-C-2009 scv:dimension env:region-c ; scv:dimension env:year-2009 ; "
            'scv:dimension env:geese ; rdf:value "14"^^xsd:decimal .'
        )
        derived = stored.replace(
            'rdf:value "14"^^xsd:decimal',
            f"sl:computedFrom [ sl:function <{function}> ; sl:arguments "
            '[ sl:argPosition "1"^^xsd:int ; sl:argValue ahs:POP-C-2008 ] ]',
        )
        text = fixture_text("regions.ttl")
        assert stored in text
        dataset = tmp_path / "regions.ttl"
        dataset.write_text(text.replace(stored, derived))
        code = main(
            [
                "query-max",
                str(dataset),
                DIVIDE_IRI,
                "http://example.org/ns/env#year-2008",
                "http://example.org/ns/env#year-2009",
                "--config",
                config_file,
            ]
        )
        assert code == 0
        region, value = capsys.readouterr().out.strip().split("\t")
        assert region == "http://example.org/ns/env#region-a"
        assert float(value) == 0.5

    @pytest.mark.parametrize("bad", ["divide", ""], ids=["relative", "empty"])
    @pytest.mark.parametrize("name", ["metric", "t1", "t2"])
    def test_argument_that_is_not_an_iri_exits_64(self, capsys, config_file, name, bad):
        args = {"metric": DIVIDE_IRI, "t1": ENV + "year-2008", "t2": ENV + "year-2009"}
        args[name] = bad
        dataset = str(FIXTURES / "regions.ttl")
        assert main(["query-max", dataset, *args.values(), "--config", config_file]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"omld: {name}: IRI ")
        assert captured.err.count("\n") == 1

    def test_empty_dataset_exits_2(self, tmp_path, config_file):
        empty = tmp_path / "empty.ttl"
        empty.write_text("")
        code = main(
            [
                "query-max",
                str(empty),
                "http://www.openmath.org/cd/arith1#divide",
                "http://example.org/ns/env#year-2008",
                "http://example.org/ns/env#year-2009",
                "--config",
                config_file,
            ]
        )
        assert code == 2


class TestServeCommand:
    def test_missing_dir_exits_64(self):
        assert main(["serve", "--dir", "/no/such/dir"]) == 64
        assert main(["serve"]) == 64

    @pytest.mark.parametrize("port", [70000, -1])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_port_out_of_range_exits_64(self, tmp_path, capsys, port, source):
        argv = ["serve", "--dir", str(CD_DIR)]
        if source == "flag":
            argv += ["--port", str(port)]
        else:
            config = tmp_path / "omld.json"
            config.write_text(json.dumps({"port": port}))
            argv += ["--config", str(config)]
        assert main(argv) == 64
        err = capsys.readouterr().err
        assert err == f"omld: port must be from 0 to 65535, got {port}\n"

    @pytest.mark.parametrize(
        "key, value, source",
        [
            ("bind_address", "127.0.0.1\0", "config"),
            ("base_iri", "http://x\r\nSet-Cookie: a=b", "config"),
            ("base_iri", "http://x\r\nSet-Cookie: a=b", "flag"),
            ("base_iri", "http://x/a b", "flag"),
            ("base_iri", "http://x/\x7f", "flag"),
        ],
    )
    def test_control_character_or_space_exits_64(self, tmp_path, capsys, key, value, source):
        # A NUL made the socket call raise TypeError; a CR/LF in the base IRI
        # split the headers of a 303, whose Location repeats it.
        argv = ["serve", "--dir", str(CD_DIR), "--port", "0"]
        if source == "flag":
            argv += ["--base-iri", value]
        else:
            config = tmp_path / "omld.json"
            config.write_text(json.dumps({key: value}))
            argv += ["--config", str(config)]
        assert main(argv) == 64
        err = capsys.readouterr().err
        assert err == f"omld: {key} must not contain a control character or space: {value!r}\n"

    def test_non_ascii_base_iri_is_accepted(self):
        assert ToolkitConfig(base_iri="http://例.example").base_iri == "http://例.example"

    def test_port_in_use_exits_2_and_leaks_no_socket(self, capsys):
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            port = taken.getsockname()[1]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert main(["serve", "--dir", str(CD_DIR), "--port", str(port)]) == 2
                gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
        err = capsys.readouterr().err
        assert err.startswith(f"omld: cannot listen on 127.0.0.1:{port}: ")
        assert err.count("\n") == 1

    def test_duplicate_cd_name_exits_2(self, tmp_path, capsys):
        directory = tmp_path / "cds"
        directory.mkdir()
        (directory / "one.ocd").write_text(fixture_text("cds/statistics.ocd"))
        (directory / "two.ocd").write_text(fixture_text("cds/statistics.ocd"))
        assert main(["serve", "--dir", str(directory), "--port", "0"]) == 2
        assert "another CD file already defines 'statistics'" in capsys.readouterr().err

    def test_serve_and_reload_via_subprocess(self, tmp_path):
        directory = tmp_path / "cds"
        directory.mkdir()
        (directory / "statistics.ocd").write_text(fixture_text("cds/statistics.ocd"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "omld", "serve", "--dir", str(directory), "--port", "0"],
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stderr.readline()
            assert "serving" in line
            base = next(tok for tok in line.split() if tok.startswith("http://"))
            with urllib.request.urlopen(f"{base}/statistics", timeout=5) as resp:
                assert resp.status == 200
                assert b"statistics" in resp.read()
            # Drop a new CD in and reload via SIGHUP.
            (directory / "elementary.ocd").write_text(fixture_text("cds/elementary.ocd"))
            proc.send_signal(signal.SIGHUP)
            deadline = time.time() + 5
            found = False
            while time.time() < deadline:
                try:
                    with urllib.request.urlopen(f"{base}/elementary", timeout=5) as resp:
                        found = resp.status == 200
                        break
                except urllib.error.HTTPError:
                    time.sleep(0.1)
            assert found
        finally:
            proc.terminate()
            proc.wait(timeout=5)
            proc.stderr.close()

    def test_sighup_with_a_malformed_cd_keeps_the_old_snapshot(self, tmp_path):
        directory = tmp_path / "cds"
        directory.mkdir()
        (directory / "statistics.ocd").write_text(fixture_text("cds/statistics.ocd"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "omld", "serve", "--dir", str(directory), "--port", "0"],
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stderr.readline()
            base = next(tok for tok in line.split() if tok.startswith("http://"))
            (directory / "broken.ocd").write_text("<CD><CDName>broken</CDName>")
            proc.send_signal(signal.SIGHUP)
            ready, _, _ = select.select([proc.stderr], [], [], 10)
            assert ready, "no reload message within 10 s"
            assert proc.stderr.readline().startswith(
                "omld: reload failed, still serving the old CDs: "
                f"{directory / 'broken.ocd'}: malformed XML: "
            )
            with urllib.request.urlopen(f"{base}/statistics", timeout=5) as resp:
                assert resp.status == 200
        finally:
            proc.terminate()
            proc.wait(timeout=5)
            proc.stderr.close()


class TestConflictingCds:
    @pytest.mark.parametrize("command", ["verify", "recompute", "query-max", "expand"])
    def test_two_dirs_defining_one_cd_differently_exit_2(self, tmp_path, capsys, command):
        dirs = []
        for description in ("one", "two"):
            directory = tmp_path / description
            directory.mkdir()
            (directory / "demo.ocd").write_text(
                "<CD><CDName>demo</CDName><CDBase>http://example.org</CDBase>"
                "<Description>d</Description><CDDefinition><Name>fn</Name>"
                f"<Description>{description}</Description></CDDefinition></CD>"
            )
            dirs.append(str(directory))
        config = tmp_path / "omld.json"
        config.write_text(json.dumps({"cd_dirs": dirs}))
        # The dataset and the term use demo#fn, so each run reads the CDs.
        dataset = tmp_path / "data.ttl"
        dataset.write_text(
            DATASET_PREFIXES
            + point_turtle("L", 1)
            + point_turtle("A", 1, "http://example.org/demo#fn", ["ahs:L"])
        )
        term = tmp_path / "term.om"
        term.write_text(
            '<OMOBJ><OMA><OMS cdbase="http://example.org" cd="demo" name="fn"/>'
            "<OMI>1</OMI></OMA></OMOBJ>"
        )
        args = {
            "verify": [str(dataset)],
            "recompute": [str(dataset)],
            "query-max": [str(dataset), *QUERY_MAX_ARGS],
            "expand": [str(term)],
        }[command]
        assert main([command, *args, "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err == "omld: a different CD is already stored for http://example.org/demo\n"

    def test_one_dir_listed_twice_with_a_deep_definition_verifies(self, tmp_path, capsys):
        minus = '<OMS cd="arith1" name="unary_minus"/>'
        dataset = tmp_path / "data.ttl"
        dataset.write_text(
            DATASET_PREFIXES
            + point_turtle("L", 3)
            + point_turtle("A", 3, "http://example.org/deep#f", ["ahs:L"])
        )
        config = tmp_path / "omld.json"
        config.write_text(json.dumps({"cd_dirs": [str(tmp_path)] * 2}))
        with recursion_limit(150) as limit:
            depth = limit * 20  # even, so deep#f is the identity
            nest = f"<OMA>{minus}" * depth + '<OMV name="x"/>' + "</OMA>" * depth
            (tmp_path / "deep.ocd").write_text(demo_cd("deep", nest))
            code = main(["verify", str(dataset), "--config", str(config)])
        assert code == 0
        out = capsys.readouterr().out
        assert out == "MATCH http://example.org/ns/ahs#A stored=3.0 computed=3.0\n"


class TestUnreadableCdEntry:
    """A ``*.ocd`` entry that cannot be read ends a run with exit 2 and one line naming it."""

    @pytest.mark.parametrize("command", ["verify", "serve"])
    @pytest.mark.parametrize("entry", ["directory", "dangling-symlink"])
    def test_exits_2_naming_the_entry(self, tmp_path, capsys, command, entry):
        directory = tmp_path / "cds"
        directory.mkdir()
        (directory / "statistics.ocd").write_text(fixture_text("cds/statistics.ocd"))
        bad = directory / "x.ocd"
        if entry == "directory":
            bad.mkdir()
        else:
            bad.symlink_to(tmp_path / "missing.ocd")
        if command == "serve":
            argv = ["serve", "--dir", str(directory), "--port", "0"]
        else:
            dataset = tmp_path / "data.ttl"
            dataset.write_text(
                DATASET_PREFIXES
                + point_turtle("L", 1)
                + point_turtle("H", 1, "http://example.org/statistics#hdi", ["ahs:L"] * 4)
            )
            config = tmp_path / "omld.json"
            config.write_text(json.dumps({"cd_dirs": [str(directory)]}))
            argv = ["verify", str(dataset), "--config", str(config)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"omld: {bad}: cannot read (")
        assert err.count("\n") == 1


class TestCdDirectoriesReadOnDemand:
    """A run reads ``cd_dirs`` only once it needs a CD, and then once each."""

    ARITH1_ONLY = {
        "verify": [str(FIXTURES / "geese.ttl")],
        "recompute": [str(FIXTURES / "geese.ttl")],
        "query-max": [
            str(FIXTURES / "regions.ttl"),
            DIVIDE_IRI,
            ENV + "year-2008",
            ENV + "year-2009",
        ],
    }

    @staticmethod
    def _config(tmp_path, cd_dirs) -> str:
        path = tmp_path / "omld.json"
        path.write_text(json.dumps({"cd_dirs": [str(d) for d in cd_dirs]}))
        return str(path)

    @staticmethod
    def _reads(monkeypatch) -> list[str]:
        reads = []
        real = cd_module.load_cd_directory

        def counting(directory):
            reads.append(str(directory))
            return real(directory)

        # CdStore.read_directories imports it from omld.cd at each call.
        monkeypatch.setattr(cd_module, "load_cd_directory", counting)
        return reads

    @pytest.mark.parametrize("command", ["verify", "recompute", "query-max"])
    def test_malformed_cd_is_not_read_by_an_arith1_only_run(self, tmp_path, capsys, command):
        broken = tmp_path / "broken"
        broken.mkdir()
        (broken / "broken.ocd").write_text("<CD><CDName>")
        outputs = []
        for cd_dirs in ([CD_DIR], [CD_DIR, broken]):
            config = self._config(tmp_path, cd_dirs)
            code = main([command, *self.ARITH1_ONLY[command], "--config", config])
            outputs.append((code, capsys.readouterr()))
        assert outputs[0] == outputs[1]
        assert outputs[0][1].out

    @pytest.mark.parametrize("command", ["verify", "recompute", "query-max", "expand"])
    def test_arith1_only_run_reads_no_directory(self, tmp_path, capsys, monkeypatch, command):
        reads = self._reads(monkeypatch)
        if command == "expand":
            term = tmp_path / "term.om"
            term.write_text(
                '<OMOBJ><OMA><OMS cd="arith1" name="plus"/><OMI>1</OMI><OMI>2</OMI></OMA></OMOBJ>'
            )
            args = [str(term)]
        else:
            args = self.ARITH1_ONLY[command]
        config = self._config(tmp_path, [CD_DIR])
        assert main([command, *args, "--config", config]) == 0
        assert reads == []

    @pytest.mark.parametrize("command", ["verify", "recompute", "query-max", "expand"])
    def test_hdi_run_reads_each_directory_once(self, tmp_path, capsys, monkeypatch, command):
        reads = self._reads(monkeypatch)
        empty = tmp_path / "empty"
        empty.mkdir()
        # hdi(1, 1, 1, 1) = 1 twice: the second point must not read again.
        hdi = "http://example.org/statistics#hdi"
        dataset = tmp_path / "data.ttl"
        dataset.write_text(
            DATASET_PREFIXES
            + point_turtle("L", 1)
            + point_turtle("H1", 1, hdi, ["ahs:L"] * 4)
            + point_turtle("H2", 1, hdi, ["ahs:H1"] * 4)
        )
        term = tmp_path / "term.om"
        term.write_text(
            '<OMOBJ><OMA><OMS cdbase="http://example.org" cd="statistics" name="hdi"/>'
            + "<OMI>1</OMI>" * 4
            + "</OMA></OMOBJ>"
        )
        args = {
            "verify": [str(dataset)],
            "recompute": [str(dataset)],
            "query-max": [str(dataset), *QUERY_MAX_ARGS],
            "expand": [str(term)],
        }[command]
        config = self._config(tmp_path, [CD_DIR, empty])
        # query-max finds no region in this dataset, but only after reading.
        assert main([command, *args, "--config", config]) == (2 if command == "query-max" else 0)
        assert reads == [str(CD_DIR), str(empty)]


class TestUsage:
    def test_no_command_exits_64(self):
        assert main([]) == 64

    def test_unknown_command_exits_64(self):
        assert main(["fly"]) == 64

    @staticmethod
    def _loaded_after(
        runs: list[list[str]], modules: tuple[str, ...], prelude: str = ""
    ) -> list[str]:
        """Which of ``modules`` a fresh process holds after ``main`` has run each argv.

        ``prelude`` is code the process runs after importing ``omld.cli``.
        """
        probe = (
            "import contextlib, io, json, sys, omld.cli\n"
            f"{prelude}"
            f"for argv in {runs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert omld.cli.main(argv) == 0, argv\n"
            f"print(json.dumps([m for m in {modules!r} if m in sys.modules]))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        ).stdout
        return json.loads(out)

    def test_cli_import_does_not_load_the_server(self, config_file):
        # Only ``omld serve`` needs the HTTP server, and only a fetch an HTTP
        # client.  The batch commands on an arith1-only dataset need neither,
        # nor the CD parser, XML, logging or the dataclass machinery.
        modules = (
            *("omld.server", "http.server", "http.client", "urllib.request"),
            *("omld.cd", "omld.resolver", "logging", "xml.etree.ElementTree"),
            *("dataclasses", "inspect"),
        )
        runs = [
            ["verify", str(FIXTURES / "geese.ttl"), "--json", "--config", config_file],
            ["recompute", str(FIXTURES / "geese.ttl"), "--config", config_file],
            ["query-max", str(FIXTURES / "regions.ttl"), DIVIDE_IRI, ENV + "year-2008",
             ENV + "year-2009", "--config", config_file],
        ]
        assert self._loaded_after([], modules) == []
        assert self._loaded_after(runs, modules) == []

    def test_serve_does_not_load_the_batch_layers(self, config_file):
        # No route runs a derivation, so the server compiles and holds neither
        # the rewrite and annotation layers nor the decimal module they use.
        modules = ("omld.rewrite", "omld.annotations", "decimal")
        prelude = "import omld.server\nomld.server.CdServer.serve_forever = lambda self: None\n"
        serve = [["serve", "--dir", str(CD_DIR), "--port", "0"]]
        assert self._loaded_after(serve, modules, prelude) == []
        verify = [["verify", str(FIXTURES / "geese.ttl"), "--config", config_file]]
        assert self._loaded_after(verify, modules) == list(modules)

    def test_run_with_local_cds_loads_the_cd_parser_but_not_the_fetcher(self, tmp_path, config_file):
        hdi = "http://example.org/statistics#hdi"
        dataset = tmp_path / "data.ttl"
        dataset.write_text(
            DATASET_PREFIXES + point_turtle("L", 1) + point_turtle("H", 1, hdi, ["ahs:L"] * 4)
        )
        runs = [["verify", str(dataset), "--config", config_file]]
        loaded = self._loaded_after(runs, ("omld.cd", "omld.resolver", "logging"))
        assert loaded == ["omld.cd"]

    @pytest.mark.parametrize("command", ["verify", "fetch"])
    def test_closed_stdout_exits_2_without_a_traceback(self, cd_server, command):
        argv = {
            "verify": ["verify", str(FIXTURES / "geese.ttl"), "--json"],
            "fetch": ["fetch", f"{cd_server.base_iri}/statistics"],
        }[command]
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to the pipe now fails with EPIPE
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "omld", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (2, b"")


class TestGarbageCollection:
    """Batch commands run with cyclic GC paused; ``main`` restores its state."""

    @pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
    def gc_state(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["verify", str(FIXTURES / "geese.ttl")], 0),
            (["verify", str(FIXTURES / "geese.ttl"), "--config", "/no/such/config.json"], 64),
            (["expand", str(FIXTURES / "geese.ttl")], 2),
        ],
    )
    def test_state_restored_after_exit(self, gc_state, argv, code, capsys):
        assert main(argv) == code
        assert gc.isenabled() is gc_state

    def test_state_restored_after_a_mismatch(self, gc_state, tmp_path, config_file, capsys):
        tampered = tmp_path / "tampered.ttl"
        tampered.write_text(fixture_text("geese.ttl").replace('"1.8236842105263158"', '"2.0"'))
        assert main(["verify", str(tampered), "--config", config_file]) == 1
        assert gc.isenabled() is gc_state

    def test_state_restored_after_an_exception(self, gc_state, monkeypatch):
        def boom(args):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli._COMMANDS, "verify", boom)
        with pytest.raises(RuntimeError):
            main(["verify", "x.ttl"])
        assert gc.isenabled() is gc_state

    @pytest.mark.parametrize(
        "command, argv, paused",
        [
            ("verify", ["verify", "x.ttl"], True),
            ("recompute", ["recompute", "x.ttl"], True),
            ("query-max", ["query-max", "x.ttl", "m", "a", "b"], True),
            ("expand", ["expand", "x.om"], True),
            ("fetch", ["fetch", "http://127.0.0.1:1/x"], True),
            ("serve", ["serve", "--dir", "x"], False),
        ],
    )
    def test_only_serve_runs_with_gc(self, gc_state, monkeypatch, command, argv, paused):
        seen = []
        monkeypatch.setitem(cli._COMMANDS, command, lambda args: seen.append(gc.isenabled()) or 0)
        assert main(argv) == 0
        assert seen == [gc_state and not paused]


# Pieces spliced into fixture datasets: Turtle punctuation, broken tokens and values.
FUZZ_PIECES = [
    "[", "]", "[ scv:dimension ", '"', "<", ">", "<rel>", "\\u", ".", ";", ",", "_:", "ahs:",
    "@prefix", "^^", "\n", "#", "1e400", '"0"^^xsd:decimal', "\udc80", "\u00e9",
]
FUZZ_RUNS = [
    ["verify"],
    ["verify", "--json"],
    ["recompute"],
    ["query-max", DIVIDE_IRI, ENV + "year-2008", ENV + "year-2009"],
]


@st.composite
def mutated_datasets(draw) -> str:
    """A fixture dataset with pieces spliced in, maybe truncated, maybe with a deep nest."""
    name = draw(st.sampled_from(["geese.ttl", "listing1.ttl", "listing2.ttl", "regions.ttl"]))
    text = fixture_text(name)
    for _ in range(draw(st.integers(0, 3))):
        start = draw(st.integers(0, len(text)))
        end = draw(st.integers(start, min(len(text), start + 8)))
        piece = draw(st.sampled_from(FUZZ_PIECES) | st.text(max_size=3))
        text = text[:start] + piece + text[end:]
    if draw(st.booleans()):
        text = text[: draw(st.integers(0, len(text)))]
    depth = draw(st.sampled_from([0, 0, 1, MAX_NESTING, MAX_NESTING + 1, 3000]))
    return text + nest_statement(depth) if depth else text


def _offline(url: str):
    raise FetchError(url, "offline")


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("fuzz")
    (directory / "omld.json").write_text(json.dumps({"cd_dirs": [str(CD_DIR)]}))
    return directory


class TestMainFuzz:
    """``main`` on mutated datasets returns a documented exit code and raises nothing."""

    @settings(max_examples=200, deadline=None)
    @given(text=mutated_datasets(), run=st.sampled_from(FUZZ_RUNS))
    @example(text=fixture_text("geese.ttl") + nest_statement(3000), run=["verify"])
    def test_only_documented_exit_codes(self, fuzz_dir, text, run):
        dataset = fuzz_dir / "data.ttl"
        dataset.write_bytes(text.encode("utf-8", "surrogatepass"))
        argv = [run[0], str(dataset), *run[1:], "--config", str(fuzz_dir / "omld.json")]
        err = StringIO()
        # A mutated function IRI may name a CD outside cd_dirs: fail its fetch offline.
        with mock.patch.object(cli, "_fetch_cd", _offline):
            with redirect_stdout(StringIO()), redirect_stderr(err):
                code = main(argv)
        assert code in (0, 1, 2, 64), err.getvalue()
