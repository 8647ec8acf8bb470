from __future__ import annotations

import json
import gc
import os
import select
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

from omld import cli, resolver
from omld.cli import main
from omld.om import OPENMATH_XML_MIME, parse_om_xml, serialize_om_xml
from omld.rdf import RDF_VALUE, Iri, parse_turtle

from .conftest import CD_DIR, FIXTURES, fixture_text
from .helpers import (
    DATASET_PREFIXES,
    CountingTransport,
    chain_turtle,
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
        ):
            bad.write_text(text)
            code = main(["verify", str(FIXTURES / "geese.ttl"), "--config", str(bad)])
            assert code == 64

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

    def test_cd_with_bad_symbol_name_exits_2(self, tmp_path, capsys):
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
        assert main(["verify", str(dataset), "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"omld: {bad_dir / 'bad.ocd'}: <Name>: bad symbol name: 'bad name'\n"

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


class TestRecomputeCommand:
    def test_edited_base_value(self, tmp_path, config_file):
        dataset = tmp_path / "edited.ttl"
        dataset.write_text(fixture_text("geese.ttl").replace('"693"', '"700"'))
        out = tmp_path / "out.ttl"
        code = main(["recompute", str(dataset), "--out", str(out), "--config", config_file])
        assert code == 0
        graph = parse_turtle(out.read_text())
        (value,) = graph.match(
            Iri("http://example.org/ns/ahs#PD100"), Iri(RDF_VALUE), None
        )
        assert float(value.object.lexical) == 700 / 380

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
        (value,) = parse_turtle(out.read_text()).match(
            Iri("http://example.org/ns/ahs#D1"), Iri(RDF_VALUE), None
        )
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


ENV = "http://example.org/ns/env#"


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
        dataset = tmp_path / "data.ttl"
        dataset.write_text(DATASET_PREFIXES + point_turtle("A", 1))
        term = tmp_path / "term.om"
        term.write_text("<OMOBJ><OMI>1</OMI></OMOBJ>")
        args = {
            "verify": [str(dataset)],
            "recompute": [str(dataset)],
            "query-max": [str(dataset), ENV + "metric", ENV + "t1", ENV + "t2"],
            "expand": [str(term)],
        }[command]
        assert main([command, *args, "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err == "omld: a different CD is already stored for http://example.org/demo\n"


class TestUsage:
    def test_no_command_exits_64(self):
        assert main([]) == 64

    def test_unknown_command_exits_64(self):
        assert main(["fly"]) == 64

    def test_cli_import_does_not_load_the_server(self):
        # Only ``omld serve`` needs the HTTP server, and only a fetch an HTTP
        # client; the batch commands start without either.
        modules = ("omld.server", "http.server", "http.client", "urllib.request")
        probe = f"import sys, omld.cli; print([m for m in {modules!r} if m in sys.modules])"
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert out.strip() == "[]"


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
            ("serve", ["serve"], False),
        ],
    )
    def test_only_serve_runs_with_gc(self, gc_state, monkeypatch, command, argv, paused):
        seen = []
        monkeypatch.setitem(cli._COMMANDS, command, lambda args: seen.append(gc.isenabled()) or 0)
        assert main(argv) == 0
        assert seen == [gc_state and not paused]
