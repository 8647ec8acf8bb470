"""Command-line entry point.

Payloads go to stdout, diagnostics to stderr, and exit codes are systematic:
0 on success (for ``verify``: everything matched), 1 when a stored value
mismatches, 2 on runtime failures (unreachable hosts, cycles, uncomputable
points), 64 for usage problems such as missing files, bad arguments or bad
config.

A config file (``--config``) is a JSON object with any of the keys
``tolerance``, ``cd_dirs``, ``bind_address``, ``port`` and ``base_iri``.
Datasets are read with the fixed terms of the data format: SCOVO
dimensions, ``rdf:value`` and ``sl:computedFrom`` derivations, with regions
typed ``env:Region``.

Every directory of the config's ``cd_dirs`` must exist, but its CDs are read
only when a run first needs one: ``verify``, ``recompute`` and ``query-max``
read them before computing when a derivation names a function that is not an
arith1 base operation, and ``expand`` at its first CD lookup.  A CD that
cannot be read then ends the run with exit 2; a run that needs no CD never
opens the directories.

Each command loads only the layers it runs.  Every command loads ``config``,
``errors``, ``om`` and ``rdf``.  ``verify``, ``recompute``, ``query-max`` and
``expand`` also load ``rewrite`` and ``annotations`` (and with them
``decimal``); they load ``cd`` only when a run first needs a CD, and
``resolver`` only when it fetches one.  ``fetch`` loads ``resolver`` and
``cd``.  ``serve`` loads ``server`` and ``cd``, and never the batch layers.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .config import ConfigError, ToolkitConfig, load_config
from .errors import ToolkitError, read_utf8
from .om import OPENMATH_XML_MIME, parse_om_xml, serialize_om_xml
from .rdf import Graph, Iri, parse_turtle, serialize_turtle

if TYPE_CHECKING:
    from .rewrite import CdStore

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
    p.add_argument("--dir", required=True, help="directory of .ocd files")
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
    # Each of these flags, on the commands that have it, overrides the config key of its name.
    flags = {key: getattr(args, key, None) for key in ("tolerance", "port", "base_iri")}
    overrides = {key: value for key, value in flags.items() if value is not None}
    if not args.config:
        return ToolkitConfig(**overrides)
    if not Path(args.config).is_file():
        raise _UsageError(f"config file not found: {args.config}")
    return load_config(args.config, overrides)


def _read_graph(path: str) -> Graph:
    p = Path(path)
    if not p.is_file():
        raise _UsageError(f"dataset file not found: {path}")
    return parse_turtle(read_utf8(p))


def _fetch_cd(url: str):
    from .resolver import fetch_cd  # only a run that fetches a CD needs the HTTP client

    return fetch_cd(url)


def _build_store(cfg: ToolkitConfig) -> CdStore:
    from .rewrite import CdStore  # the batch layer: serving never loads it

    store = CdStore(fetch=_fetch_cd)
    for directory in cfg.cd_dirs:
        if not Path(directory).is_dir():
            raise _UsageError(f"CD directory not found: {directory}")
        store.add_directory(directory)
    return store


def _cmd_verify(args) -> int:
    from .rewrite import verify_dataset

    cfg = _load_config(args)
    graph = _read_graph(args.dataset)
    report = verify_dataset(graph, _build_store(cfg), cfg.tolerance)
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
    from .rewrite import recompute

    cfg = _load_config(args)
    graph = _read_graph(args.dataset)
    result = recompute(graph, _build_store(cfg))
    text = serialize_turtle(result)
    if args.out:
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise ToolkitError(f"cannot write {args.out}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)
    return EX_OK


def _cmd_expand(args) -> int:
    from .rewrite import expand, residual_symbols

    cfg = _load_config(args)
    path = Path(args.omxml)
    if not path.is_file():
        raise _UsageError(f"OpenMath file not found: {args.omxml}")
    obj = parse_om_xml(read_utf8(path))

    store = _build_store(cfg)
    for source in args.sources:
        if source.startswith("http://") or source.startswith("https://"):
            from .resolver import strip_fragment

            # Fetched through the store, so it is remembered under the URL it
            # was fetched from; also stored under its declared cdbase.
            url = strip_fragment(source)
            cd = store.lookup(url)
            if cd is None:
                raise store.fetch_error(url)
            store.add(cd)
        elif Path(source).is_dir():
            store.add_directory(source)
        else:
            raise _UsageError(f"not a CD directory or URL: {source}")

    expanded = expand(obj, store)
    print(serialize_om_xml(expanded))
    for uri in residual_symbols(expanded):
        print(f"residual: {uri}", file=sys.stderr)
    return EX_OK


def _cmd_fetch(args) -> int:
    from .resolver import negotiate_fetch

    result = negotiate_fetch(args.uri, args.accept)
    sys.stdout.buffer.write(result.body)
    sys.stdout.buffer.flush()
    return EX_OK


def _cmd_serve(args) -> int:
    import signal

    from .server import CdServer  # only serving needs the HTTP server

    cfg = _load_config(args)
    if not Path(args.dir).is_dir():
        raise _UsageError(f"CD directory not found: {args.dir}")
    server = CdServer(
        args.dir,
        port=cfg.port,
        bind_address=cfg.bind_address,
        base_iri=cfg.base_iri,
    )
    signal.signal(signal.SIGHUP, lambda signum, frame: server.reload())
    print(f"serving {args.dir} at {server.base_iri} (SIGHUP reloads)", file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    return EX_OK


def _iri_argument(name: str, text: str) -> Iri:
    try:
        return Iri(text)
    except ValueError as exc:
        raise _UsageError(f"{name}: {exc}") from None


def _cmd_query_max(args) -> int:
    from .rewrite import query_max_increase

    cfg = _load_config(args)
    metric, t1, t2 = (_iri_argument(name, getattr(args, name)) for name in ("metric", "t1", "t2"))
    graph = _read_graph(args.dataset)
    region, increase = query_max_increase(graph, metric, t1, t2, _build_store(cfg))
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
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # so that a closed stdout fails here and not at exit
        return code
    except (_UsageError, ConfigError) as exc:
        print(f"omld: {exc}", file=sys.stderr)
        return EX_USAGE
    except ToolkitError as exc:
        print(f"omld: {exc}", file=sys.stderr)
        return EX_FAILURE
    except BrokenPipeError:
        # The reader of stdout has gone.  Point stdout at devnull, as the
        # Python docs on SIGPIPE advise, so the flush at exit cannot fail too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EX_FAILURE
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
