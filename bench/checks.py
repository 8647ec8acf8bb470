"""Answer checks: any wrong output raises WrongAnswer and fails the run."""

from __future__ import annotations

import json
import math
import re
import xml.etree.ElementTree as ET

from workloads import TOLERANCE, Inputs

OPENMATH_XML = "application/openmath+xml"
RDF_VALUE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#value"


class WrongAnswer(Exception):
    pass


def _close(a: float, b: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= TOLERANCE * max(1.0, abs(b))


def check_setup(stdout: str) -> None:
    if json.loads(stdout) != []:
        raise WrongAnswer(f"verify on a dataset with no points reported {stdout[:200]!r}")


def check_verify(inputs: Inputs, stdout: str) -> None:
    """Every derived point gets the expected verdict and the reference value."""
    records = {r["id"]: r for r in json.loads(stdout)}
    if set(records) != set(inputs.verdicts):
        missing = sorted(set(inputs.verdicts) - set(records))[:3]
        extra = sorted(set(records) - set(inputs.verdicts))[:3]
        raise WrongAnswer(f"verify reported other points: missing {missing}, extra {extra}")
    for pid, expected in inputs.verdicts.items():
        r = records[pid]
        if r["status"] != expected:
            raise WrongAnswer(f"verify: {pid} is {r['status']}, expected {expected}")
        if expected == "uncomputable":
            continue
        if not _close(float(r["stored"]), inputs.stored[pid]):
            raise WrongAnswer(f"verify: {pid} stored={r['stored']}, expected {inputs.stored[pid]}")
        if not _close(float(r["computed"]), inputs.values[pid]):
            raise WrongAnswer(
                f"verify: {pid} computed={r['computed']}, expected {inputs.values[pid]}"
            )


def check_recompute(inputs: Inputs, turtle: str) -> None:
    """Derived points carry the reference value; underived ones keep theirs."""
    from omld.rdf import parse_turtle

    values: dict[str, list[str]] = {}
    for t in parse_turtle(turtle).triples:
        if t.predicate.value == RDF_VALUE:
            values.setdefault(t.subject.value, []).append(t.object.lexical)
    expected = {**inputs.values, **inputs.unchanged}
    if set(values) != set(expected):
        missing = sorted(set(expected) - set(values))[:3]
        raise WrongAnswer(f"recompute: points without a value: {missing}")
    for pid, want in expected.items():
        lexicals = values[pid]
        if len(lexicals) != 1 or not _close(float(lexicals[0]), want):
            raise WrongAnswer(f"recompute: {pid} = {lexicals}, expected {want!r}")


def check_query(inputs: Inputs, stdout: str) -> None:
    region, increase = inputs.query_answer
    fields = stdout.strip().split("\t")
    if len(fields) != 2 or fields[0] != region or not _close(float(fields[1]), increase):
        raise WrongAnswer(f"query-max printed {stdout.strip()!r}, expected {region} {increase!r}")


def check_response(inputs: Inputs, request, status, content_type, location, body, base) -> None:
    """One route's status, content type and body against the CD file it serves."""
    cd = next(c for c in inputs.cds if c.name == request.cd)
    where = f"{request.kind} {request.path}"
    if request.kind == "see_other":
        if status != 303 or location != f"{base}/{cd.name}.xhtml":
            raise WrongAnswer(f"{where}: {status} Location={location!r}")
        return
    if status != 200:
        raise WrongAnswer(f"{where}: status {status}")
    ctype = (content_type or "").split(";")[0].strip()
    if request.kind == "xml":
        if ctype != OPENMATH_XML or body != cd.path.read_bytes():
            raise WrongAnswer(f"{where}: {ctype}, body is not the CD file")
    elif request.kind == "turtle":
        from omld.rdf import parse_turtle

        if ctype != "text/turtle":
            raise WrongAnswer(f"{where}: content type {ctype}")
        graph = parse_turtle(body.decode("utf-8"))
        symbols = {
            t.subject.value.rsplit("#", 1)[-1]
            for t in graph.triples
            if t.predicate.value.endswith("#definedIn")
        }
        if symbols != set(cd.symbols):
            raise WrongAnswer(f"{where}: describes {sorted(symbols)[:3]}...")
    elif request.kind == "html":
        text = body.decode("utf-8")
        ids = re.findall(r'<section\b[^>]*\bid="([^"]*)"', text)
        if ctype != "text/html" or sorted(ids) != sorted(cd.symbols):
            raise WrongAnswer(f"{where}: {ctype} with sections {ids[:3]}...")
    elif request.kind == "fragment":
        root = ET.fromstring(body)
        names = [
            (d.findtext("Name") or "").strip()
            for d in root
            if d.tag.rsplit("}", 1)[-1] == "CDDefinition"
        ]
        if ctype != OPENMATH_XML or names != [request.symbol]:
            raise WrongAnswer(f"{where}: {ctype} with definitions {names}")
    else:
        raise ValueError(request.kind)
