"""Golden outputs, compared byte for byte with the files under ``fixtures/golden``.

Each file holds every output of one subject: the batch commands on one
fixture dataset, ``expand`` on the fixture terms, or every route of one
fixture CD.  The commands run in-process through ``main()`` and the routes
through ``CdApp.route``.

After a deliberate change of output, regenerate the files from the
repository root with ``PYTHONPATH=src python -m tests.test_golden``.
"""

from __future__ import annotations

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from omld.cli import main
from omld.server import CdApp, load_snapshot

from .conftest import CD_DIR, FIXTURES

GOLDEN = FIXTURES / "golden"
DATASETS = ("geese.ttl", "listing1.ttl", "listing2.ttl", "regions.ttl")
ENV = "http://example.org/ns/env#"
QUERY = ["http://www.openmath.org/cd/arith1#divide", ENV + "year-2008", ENV + "year-2009"]
BASE = "http://cds.example"
CD_NAMES = ("chain", "cyclic", "elementary", "statistics")
NAMES = (
    *(f"dataset-{Path(name).stem}.txt" for name in DATASETS),
    "expand.txt",
    *(f"routes-{name}.txt" for name in CD_NAMES),
)

_EX = 'cdbase="http://example.org"'
TERMS = {
    "hdi": (
        f'<OMOBJ><OMA><OMS {_EX} cd="statistics" name="hdi"/>'
        '<OMF dec="0.8"/><OMF dec="0.9"/><OMF dec="0.7"/><OMF dec="0.6"/></OMA></OMOBJ>'
    ),
    "chain": f'<OMOBJ><OMA><OMS {_EX} cd="chain" name="c1"/><OMI>5</OMI></OMA></OMOBJ>',
    "cyclic": f'<OMOBJ><OMA><OMS {_EX} cd="cyclic" name="f"/><OMI>1</OMI></OMA></OMOBJ>',
    "base": (
        '<OMOBJ><OMA><OMS cd="arith1" name="divide"/><OMI>693</OMI><OMI>380</OMI></OMA></OMOBJ>'
    ),
    "residual": '<OMOBJ><OMA><OMS cd="transc1" name="sin"/><OMI>1</OMI></OMA></OMOBJ>',
    "binding": (
        '<OMOBJ><OMBIND><OMS cd="fns1" name="lambda"/><OMBVAR><OMV name="x"/></OMBVAR>'
        f'<OMA><OMS {_EX} cd="chain" name="c9"/><OMV name="x"/></OMA></OMBIND></OMOBJ>'
    ),
    "malformed": '<OMOBJ><OMA><OMS cd="arith1" name="plus"/></OMA></OMOBJ>',
}
ACCEPTS = (None, "text/turtle", "text/html", "application/openmath+xml", "image/png")


def _section(title: str, body: str) -> str:
    return f"=== {title}\n{body}"


def _cli(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


def _dataset(name: str, config: str) -> str:
    dataset = str(FIXTURES / name)
    runs = (
        ["verify", dataset],
        ["verify", dataset, "--json"],
        ["recompute", dataset],
        ["query-max", dataset, *QUERY],
    )
    return "".join(
        _section(" ".join(run[:1] + run[2:]), _cli([*run, "--config", config])) for run in runs
    )


def _terms(work: Path) -> str:
    parts = []
    for name, text in TERMS.items():
        term = work / f"{name}.om"
        term.write_text(text, encoding="utf-8")
        parts.append(_section(f"expand {name}", _cli(["expand", str(term), str(CD_DIR)])))
    return "".join(parts)


def _route(app: CdApp, path: str, accept: str | None) -> str:
    status, headers, body = app.route("GET", path, accept)
    lines = [f"status {status}", *(f"{k}: {v}" for k, v in headers.items())]
    return "\n".join(lines) + "\n--- body\n" + body.decode("utf-8") + "\n"


def _routes(app: CdApp, cdname: str) -> str:
    cd = app.cds[cdname].cd
    requests = [(f"/{cdname}", accept) for accept in ACCEPTS]
    requests.append((f"/{cdname}.xhtml", None))
    requests += [(f"/{cdname}/{d.name}", None) for d in cd.definitions]
    requests.append((f"/{cdname}/no-such-symbol", None))
    return "".join(
        _section(f"GET {path} Accept: {accept}", _route(app, path, accept))
        for path, accept in requests
    )


def outputs() -> dict[str, str]:
    """Every golden file's name and text, from the code as it is now."""
    app = CdApp(load_snapshot(CD_DIR), BASE)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        config = work / "omld.json"
        config.write_text(json.dumps({"cd_dirs": [str(CD_DIR)], "tolerance": 1e-9}))
        result = {
            f"dataset-{Path(name).stem}.txt": _dataset(name, str(config)) for name in DATASETS
        }
        result["expand.txt"] = _terms(work)
    result.update({f"routes-{name}.txt": _routes(app, name) for name in CD_NAMES})
    return result


@pytest.fixture(scope="module")
def current() -> dict[str, str]:
    return outputs()


def test_every_output_and_file_is_covered(current):
    assert sorted(current) == sorted(NAMES) == sorted(p.name for p in GOLDEN.iterdir())
    assert sorted(load_snapshot(CD_DIR)) == sorted(CD_NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_output_matches_golden(current, name):
    assert current[name] == (GOLDEN / name).read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, text in outputs().items():
        (GOLDEN / name).write_text(text, encoding="utf-8")
