from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

from omld.cli import main
from omld.om import OPENMATH_XML_MIME, parse_om_xml, serialize_om_xml
from omld.rdf import RDF_VALUE, Iri, parse_turtle

from .conftest import CD_DIR, FIXTURES, fixture_text
from .helpers import DATASET_PREFIXES, chain_turtle, point_turtle, recursion_limit


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
        bad.write_text('{"tollerance": 1}')
        code = main(["verify", str(FIXTURES / "geese.ttl"), "--config", str(bad)])
        assert code == 64

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

    def test_unreachable_host_exits_2(self):
        code = main(["fetch", "http://127.0.0.1:1/statistics"])
        assert code == 2


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


class TestUsage:
    def test_no_command_exits_64(self):
        assert main([]) == 64

    def test_unknown_command_exits_64(self):
        assert main(["fly"]) == 64
