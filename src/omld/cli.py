"""Command-line entry point.

Payloads go to stdout, diagnostics to stderr, and exit codes are systematic:
0 on success (for ``verify``: everything matched), 1 when a stored value
mismatches, 2 on runtime failures (unreachable hosts, cycles, uncomputable
points), 64 for usage problems such as missing files or bad config.
"""

from __future__ import annotations

import argparse
import gc
import json
import signal
import sys
from dataclasses import replace
from pathlib import Path

from .config import ConfigError, ToolkitConfig, load_config
from .errors import ToolkitError, read_utf8
from .om import OPENMATH_XML_MIME, parse_om_xml, serialize_om_xml
from .rdf import Graph, Iri, parse_turtle, serialize_turtle
from .resolver import fetch_cd, negotiate_fetch, strip_fragment
from .rewrite import (
    CdStore,
    expand,
    query_max_increase,
    recompute,
    residual_symbols,
    verify_dataset,
)

EX_OK = 0
EX_MISMATCH = 1
EX_FAILURE = 2
EX_USAGE = 64


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="omld", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="path to a JSON config file")

    p = sub.add_parser("verify", help="check stored derived values against recomputation")
    p.add_argument("dataset", help="Turtle dataset file")
    p.add_argument("--tolerance", type=float)
    p.add_argument("--json", action="store_true", help="machine-readable report")
    common(p)

    p = sub.add_parser("recompute", help="rewrite derived values from their sources")
    p.add_argument("dataset")
    p.add_argument("--out", help="output Turtle file (default: stdout)")
    common(p)

    p = sub.add_parser("expand", help="expand defined symbols down to base operations")
    p.add_argument("omxml", help="OpenMath XML file")
    p.add_argument("sources", nargs="*", help="CD directories or CD URLs to preload")
    common(p)

    p = sub.add_parser("fetch", help="dereference a URI and print the body")
    p.add_argument("uri")
    p.add_argument("--accept", default=OPENMATH_XML_MIME)

    p = sub.add_parser("serve", help="publish a CD directory as Linked Data")
    p.add_argument("--dir", help="directory of .ocd files")
    p.add_argument("--port", type=int)
    p.add_argument("--base-iri", dest="base_iri")
    common(p)

    p = sub.add_parser("query-max", help="region with the highest metric increase")
    p.add_argument("dataset")
    p.add_argument("metric", help="function IRI of the metric derivations")
    p.add_argument("t1", help="dimension IRI of the earlier time")
    p.add_argument("t2", help="dimension IRI of the later time")
    common(p)

    return parser


def _load_config(args) -> ToolkitConfig:
    if args.config:
        if not Path(args.config).is_file():
            raise _UsageError(f"config file not found: {args.config}")
        cfg = load_config(args.config)
    else:
        cfg = ToolkitConfig()
    if getattr(args, "tolerance", None) is not None:  # only verify has --tolerance
        cfg = replace(cfg, tolerance=args.tolerance)
    return cfg


def _read_graph(path: str) -> Graph:
    p = Path(path)
    if not p.is_file():
        raise _UsageError(f"dataset file not found: {path}")
    return parse_turtle(read_utf8(p))


def _build_store(cfg: ToolkitConfig) -> CdStore:
    store = CdStore(fetch=fetch_cd)
    for directory in cfg.cd_dirs:
        if not Path(directory).is_dir():
            raise _UsageError(f"CD directory not found: {directory}")
        store.load_directory(directory)
    return store


def _cmd_verify(args) -> int:
    cfg = _load_config(args)
    graph = _read_graph(args.dataset)
    report = verify_dataset(graph, _build_store(cfg), cfg.tolerance, cfg.vocab)
    if args.json:
        print(json.dumps(report.to_records(), indent=2))
    else:
        print(report.to_text())
    if report.any_uncomputable:
        return EX_FAILURE
    if report.any_mismatch:
        return EX_MISMATCH
    return EX_OK


def _cmd_recompute(args) -> int:
    cfg = _load_config(args)
    graph = _read_graph(args.dataset)
    result = recompute(graph, _build_store(cfg), cfg.vocab)
    text = serialize_turtle(result)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EX_OK


def _cmd_expand(args) -> int:
    cfg = _load_config(args)
    path = Path(args.omxml)
    if not path.is_file():
        raise _UsageError(f"OpenMath file not found: {args.omxml}")
    obj = parse_om_xml(read_utf8(path))

    store = _build_store(cfg)
    for source in args.sources:
        if source.startswith("http://") or source.startswith("https://"):
            # Fetched through the store, so it is remembered under the URL it
            # was fetched from; also stored under its declared cdbase.
            url = strip_fragment(source)
            cd = store.lookup(url)
            if cd is None:
                raise store.fetch_error(url)
            store.add(cd)
        elif Path(source).is_dir():
            store.load_directory(source)
        else:
            raise _UsageError(f"not a CD directory or URL: {source}")

    expanded = expand(obj, store)
    print(serialize_om_xml(expanded))
    for uri in residual_symbols(expanded):
        print(f"residual: {uri}", file=sys.stderr)
    return EX_OK


def _cmd_fetch(args) -> int:
    result = negotiate_fetch(args.uri, args.accept)
    sys.stdout.buffer.write(result.body)
    sys.stdout.buffer.flush()
    return EX_OK


def _cmd_serve(args) -> int:
    from .server import CdServer  # only serving needs http.server

    cfg = _load_config(args)
    directory = args.dir or cfg.cd_directory
    if not directory:
        raise _UsageError("no CD directory given (use --dir or the config file)")
    if not Path(directory).is_dir():
        raise _UsageError(f"CD directory not found: {directory}")
    server = CdServer(
        directory,
        port=args.port if args.port is not None else cfg.port,
        bind_address=cfg.bind_address,
        base_iri=args.base_iri or cfg.base_iri,
    )
    signal.signal(signal.SIGHUP, lambda signum, frame: server.reload())
    print(f"serving {directory} at {server.base_iri} (SIGHUP reloads)", file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    return EX_OK


def _cmd_query_max(args) -> int:
    cfg = _load_config(args)
    graph = _read_graph(args.dataset)
    region, increase = query_max_increase(
        graph,
        Iri(args.metric),
        Iri(cfg.region_type),
        Iri(args.t1),
        Iri(args.t2),
        _build_store(cfg),
        cfg.vocab,
    )
    print(f"{region.value}\t{increase!r}")
    return EX_OK


_COMMANDS = {
    "verify": _cmd_verify,
    "recompute": _cmd_recompute,
    "expand": _cmd_expand,
    "fetch": _cmd_fetch,
    "serve": _cmd_serve,
    "query-max": _cmd_query_max,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EX_USAGE
    # A batch command builds graphs and terms with no reference cycles, so
    # cyclic GC passes over them find nothing; only the server runs long.
    gc_was_enabled = gc.isenabled()
    if args.command != "serve":
        gc.disable()
    try:
        return _COMMANDS[args.command](args)
    except (_UsageError, ConfigError) as exc:
        print(f"omld: {exc}", file=sys.stderr)
        return EX_USAGE
    except ToolkitError as exc:
        print(f"omld: {exc}", file=sys.stderr)
        return EX_FAILURE
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
