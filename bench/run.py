"""The omld benchmark: seeded inputs through the public CLI and the CD server.

Run it from the repository root:

    python3 bench/run.py --workload flat-divide --seed 1 --seconds 26 --trace 0

Each run writes its workload's inputs (workloads.py) under
``.bench_build/omld-bench/`` and removes them when it ends.  Every run plays
the same user session on them, in interleaved slices:

* set-up: the median time of ``omld verify`` on a dataset with no points
  plus the median time from spawning ``omld serve`` to its first 200
  response; one sample of each per slice;
* the batch commands ``verify --json``, ``recompute --out`` and
  ``query-max`` as child processes for ``--seconds`` in all, each command
  taking an equal share of that time, so a short command gets more samples;
  each is reported as the median of its scaled wall times (below);
* serving: a closed loop of two persistent HTTP/1.1 connections from this
  process, for half of ``--seconds`` in all and at least 1000 requests;
* peak RSS of the CLI children and the server process.

On a shared host the CPU speed drifts by tens of percent over minutes, as
other tenants come and go (a 2-vCPU VM showed 0.35-0.62 s for the same loop
within 20 minutes), and the drift moves every CPU-bound wall time by about
the same share.  So each set-up and batch sample is paired with a fixed
pure-Python loop that this process times right before and right after the
sample, and is reported as the wall time scaled to a host on which that
loop takes CAL_REFERENCE_S: ``wall * CAL_REFERENCE_S / loop``, with the
mean of the two loop times.  The raw wall times and the loop times are on
the info line.  Serving times, and the in-process ``server.*`` layer times
of a traced run, are not scaled: serving is set by a transport stall, not
by CPU speed.

Every output is checked against the known answers (checks.py); a wrong
answer fails the run.  A failed operation (an unexpected exit code or HTTP
status, a timeout, a broken connection) is counted in ``failed``.
``--tiny`` shrinks the inputs and the request count for the smoke self-test
(test_smoke.py).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` is a separate
run for per-layer numbers: the batch commands run in rounds with layer spans
installed (tracing.py) and each layer reports its median over the rounds;
the server's routes are timed in process, and the HTTP client's per-route
medians minus those give the transport time.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from checks import (
    OPENMATH_XML,
    WrongAnswer,
    check_query,
    check_recompute,
    check_response,
    check_setup,
    check_verify,
)
from tracing import summarize
from workloads import TINY, WORKLOADS, Inputs, generate

BENCH_DIR = Path(__file__).resolve().parent

SLICES = 6  # a timed run interleaves this many slices of set-up, batch and serving
SERVE_SHARE = 0.5  # serving lasts this share of --seconds, and MIN_REQUESTS at least
CONNECTIONS = 2
MIN_REQUESTS = 1000  # p99 then has at least ten samples beyond it
TRACE_MIN_ROUNDS = 3  # a traced run reports per-layer medians over at least this many rounds
TRACE_MIN_REQUESTS = 500
TINY_MIN_REQUESTS = 40
REQUEST_TIMEOUT_S = 10.0
CLI_TIMEOUT_S = 120.0
SERVER_START_TIMEOUT_S = 60.0
RUN_BUDGET_S = 140.0  # no new round or request is started after this
ROUTE_SAMPLES = 200
CAL_LOOPS = 1_000_000  # iterations of the speed calibration loop (~60 ms)
CAL_REFERENCE_S = 0.06  # its time on the reference host; scaled times are seconds there

# Request mix: share of each route kind, in percent.
MIX = (("xml", 40), ("turtle", 20), ("html", 20), ("see_other", 10), ("fragment", 10))
ACCEPT = {
    "xml": OPENMATH_XML,
    "turtle": "text/turtle",
    "html": "text/html",
    "see_other": "text/html",
    "fragment": OPENMATH_XML,
}


@dataclass(frozen=True)
class Request:
    kind: str
    path: str
    accept: str
    cd: str
    symbol: str | None = None

    @property
    def expected_status(self) -> int:
        return 303 if self.kind == "see_other" else 200


@dataclass
class Outcome:
    wall_s: float
    scaled_s: float  # wall_s at the reference host's speed
    stdout: Path
    spans: Path


@dataclass
class Server:
    proc: subprocess.Popen
    port: int
    startup_s: float
    drain: threading.Thread


@dataclass
class LoadResult:
    latencies: list[tuple[str, float]]  # (kind, seconds); failures count as the timeout
    ok: int
    wall_s: float


def _median(values: list[float], what: str) -> float:
    if not values:
        raise RuntimeError(f"no successful sample of {what}")
    return statistics.median(values)


def _p99(values: list[float]) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes now: the host's current speed."""
    start = time.perf_counter()
    total = 0
    for i in range(CAL_LOOPS):
        total += i * i
    return time.perf_counter() - start


def make_schedule(inputs: Inputs, seed: int, count: int = 4096) -> list[Request]:
    rng = random.Random(f"requests:{inputs.spec.name}:{seed}")
    kinds = [k for k, _ in MIX]
    weights = [w for _, w in MIX]
    schedule = []
    for kind in rng.choices(kinds, weights, k=count):
        cd = rng.choice(inputs.cds)
        if kind == "html":
            path, symbol = f"/{cd.name}.xhtml", None
        elif kind == "fragment":
            symbol = rng.choice(cd.symbols)
            path = f"/{cd.name}/{symbol}"
        else:
            path, symbol = f"/{cd.name}", None
        schedule.append(Request(kind, path, ACCEPT[kind], cd.name, symbol))
    return schedule


class Runner:
    def __init__(
        self, inputs: Inputs, seed: int, src: Path, work: Path, seconds: float, tiny: bool = False
    ):
        self.inputs = inputs
        self.work = work
        self.seconds = seconds
        self.min_requests = TINY_MIN_REQUESTS if tiny else MIN_REQUESTS
        self.trace_min_requests = TINY_MIN_REQUESTS if tiny else TRACE_MIN_REQUESTS
        paths = [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
        self.schedule = make_schedule(inputs, seed)
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.attempted = 0
        self.failed = 0
        self.peak_rss_kb = 0
        self.samples: dict[str, int] = {}
        self.details: dict = {}
        self.calibration_s: list[float] = []
        self._ops = 0
        self._requests = 0
        self._checked: set = set()

    # -- CLI --------------------------------------------------------------

    def cli(self, args: list[str], expect: int, traced: bool = False) -> Outcome | None:
        """One CLI command as a child process; None when it failed."""
        self._ops += 1
        tag = self.work / f"op{self._ops}"
        spans = tag.with_suffix(".spans.json")
        program = [str(BENCH_DIR / "traced_cli.py"), str(spans)] if traced else ["-m", "omld"]
        cmd = [
            sys.executable,
            str(BENCH_DIR / "measure.py"),
            f"{tag}.json",
            f"{tag}.out",
            f"{tag}.err",
            sys.executable,
            *program,
            *args,
        ]
        self.attempted += 1
        before = calibrate()
        proc = subprocess.Popen(cmd, env=self.env, stdin=subprocess.DEVNULL, start_new_session=True)
        try:
            proc.wait(timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            self.failed += 1
            print(f"bench: timed out: omld {' '.join(args)}", file=sys.stderr)
            return None
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        measured = json.loads(Path(f"{tag}.json").read_text(encoding="utf-8"))
        scaled = self.scale(measured["wall_s"], before)
        if measured["returncode"] != expect:
            self.failed += 1
            err = Path(f"{tag}.err").read_text(encoding="utf-8", errors="replace")[-400:]
            print(
                f"bench: omld {args[0]} exited {measured['returncode']}, expected {expect}: {err}",
                file=sys.stderr,
            )
            return None
        if not traced:
            self.peak_rss_kb = max(self.peak_rss_kb, measured["maxrss_kb"])
        return Outcome(measured["wall_s"], scaled, Path(f"{tag}.out"), spans)

    def scale(self, wall_s: float, before_s: float) -> float:
        """``wall_s`` at the reference host's speed.

        ``before_s`` is the loop time taken right before the sample; the loop
        is timed again now, right after it.
        """
        loop_s = (before_s + calibrate()) / 2
        self.calibration_s.append(loop_s)
        return wall_s * CAL_REFERENCE_S / loop_s

    def _common(self) -> list[str]:
        return ["--config", str(self.inputs.config)]

    def batch_setup(self) -> Outcome | None:
        out = self.cli(["verify", str(self.inputs.empty_dataset), "--json", *self._common()], 0)
        if out:
            check_setup(out.stdout.read_text(encoding="utf-8"))
        return out

    def verify(self, traced: bool = False) -> Outcome | None:
        args = ["verify", str(self.inputs.dataset), "--json", *self._common()]
        out = self.cli(args, self.inputs.verify_exit, traced)
        if out:
            check_verify(self.inputs, out.stdout.read_text(encoding="utf-8"))
        return out

    def recompute(self, traced: bool = False) -> Outcome | None:
        target = self.work / "recomputed.ttl"
        target.unlink(missing_ok=True)  # so the check reads only this call's output
        args = ["recompute", str(self.inputs.dataset), "--out", str(target), *self._common()]
        out = self.cli(args, 0, traced)
        if out:
            check_recompute(self.inputs, target.read_text(encoding="utf-8"))
        return out

    def query_max(self, traced: bool = False) -> Outcome | None:
        args = ["query-max", str(self.inputs.dataset), *self.inputs.query, *self._common()]
        out = self.cli(args, 0, traced)
        if out:
            check_query(self.inputs, out.stdout.read_text(encoding="utf-8"))
        return out

    def batch_ops(self):
        return (
            ("verify", self.verify),
            ("recompute", self.recompute),
            ("query_max", self.query_max),
        )

    # -- server -----------------------------------------------------------

    def start_server(self) -> Server:
        cmd = [sys.executable, "-m", "omld", "serve", "--dir", str(self.inputs.cd_dir)]
        cmd += ["--port", "0", *self._common()]
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd,
            env=self.env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        watchdog = threading.Timer(SERVER_START_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            line = proc.stderr.readline()
            found = re.search(r"http://[^\s/]+:(\d+)", line)
            if not found:
                raise RuntimeError(f"omld serve did not start: {line!r}")
            port = int(found.group(1))
            drain = threading.Thread(target=proc.stderr.read, daemon=True)
            drain.start()
            first = self.schedule[0]
            while True:
                conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
                try:
                    conn.request("GET", f"/{first.cd}", headers={"Accept": OPENMATH_XML})
                    if conn.getresponse().status == 200:
                        break
                except OSError:
                    if proc.poll() is not None:
                        raise RuntimeError("omld serve exited before answering") from None
                    time.sleep(0.001)
                finally:
                    conn.close()
            startup = time.perf_counter() - start
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        return Server(proc, port, startup, drain)

    def stop_server(self, server: Server) -> None:
        try:
            status = Path(f"/proc/{server.proc.pid}/status").read_text()
            found = re.search(r"^VmHWM:\s+(\d+) kB", status, re.M)
            if found:
                self.peak_rss_kb = max(self.peak_rss_kb, int(found.group(1)))
        except OSError:
            pass
        server.proc.terminate()
        try:
            server.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            server.proc.kill()
            server.proc.wait()
        server.drain.join(timeout=10)

    def load(self, server: Server, seconds: float, min_requests: int) -> LoadResult:
        """Closed loop for at least ``seconds`` and ``min_requests``.

        Each connection sends its next request when the last one is done.
        The schedule continues where the previous call left it.
        """
        lock = threading.Lock()
        issued = 0
        latencies: list[tuple[str, float]] = []
        variants: dict[tuple, tuple[Request, bytes]] = {}
        failures = 0
        start = time.perf_counter()
        stop_at = start + max(0.0, self.deadline - time.monotonic())

        def worker():
            nonlocal issued, failures
            conn = None
            while True:
                with lock:
                    now = time.perf_counter()
                    if now >= stop_at or (now - start >= seconds and issued >= min_requests):
                        break
                    request = self.schedule[(self._requests + issued) % len(self.schedule)]
                    issued += 1
                if conn is None:
                    conn = http.client.HTTPConnection(
                        "127.0.0.1", server.port, timeout=REQUEST_TIMEOUT_S
                    )
                t0 = time.perf_counter()
                try:
                    conn.request("GET", request.path, headers={"Accept": request.accept})
                    response = conn.getresponse()
                    body = response.read()
                    latency = time.perf_counter() - t0
                except (OSError, http.client.HTTPException):
                    conn.close()
                    conn = None
                    with lock:
                        failures += 1
                        latencies.append((request.kind, REQUEST_TIMEOUT_S))
                    continue
                key = (
                    request.path,
                    request.accept,
                    response.status,
                    response.getheader("Content-Type"),
                    response.getheader("Location"),
                    hash(body),
                )
                with lock:
                    if response.status != request.expected_status:
                        failures += 1
                        latencies.append((request.kind, REQUEST_TIMEOUT_S))
                    else:
                        latencies.append((request.kind, latency))
                        if key not in variants:
                            variants[key] = (request, body)
            if conn is not None:
                conn.close()

        threads = [threading.Thread(target=worker) for _ in range(CONNECTIONS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - start

        self.attempted += issued
        self.failed += failures
        self._requests += issued
        base = f"http://127.0.0.1:{server.port}"
        for key, (request, body) in variants.items():
            _, _, status, ctype, location, _ = key
            if (key, base) not in self._checked:
                check_response(self.inputs, request, status, ctype, location, body, base)
                self._checked.add((key, base))
        return LoadResult(latencies, issued - failures, wall)

    # -- runs -------------------------------------------------------------

    def timed_run(self) -> dict[str, tuple[float, str]]:
        """Slices of set-up, batch commands and serving, interleaved.

        Host noise comes in bursts of seconds, so each kind of sample is
        spread over the whole run.  Every slice takes one CLI set-up sample
        and restarts the server for one start-up sample, runs batch commands
        until the batch total reaches its share of --seconds, then serves
        its share of the requests and of the serving time.  The next batch
        command is always the one with the least time spent so far.
        """
        samples: dict[str, list[tuple[float, float]]] = {  # (wall, scaled) seconds
            name: [] for name in ("cli_setup", "server_setup", *dict(self.batch_ops()))
        }
        batch_s = 0.0
        latencies: list[tuple[str, float]] = []
        ok = 0
        served_s = 0.0
        server = None
        ops = dict(self.batch_ops())
        spent = dict.fromkeys(ops, 0.0)
        try:
            for k in range(1, SLICES + 1):
                out = self.batch_setup()
                if out:
                    samples["cli_setup"].append((out.wall_s, out.scaled_s))
                if server is not None:
                    self.stop_server(server)
                before = calibrate()
                server = self.start_server()
                wall = server.startup_s
                samples["server_setup"].append((wall, self.scale(wall, before)))
                while not all(spent.values()) or (
                    batch_s < self.seconds * k / SLICES and time.monotonic() < self.deadline
                ):
                    name = min(spent, key=spent.get)
                    start = time.monotonic()
                    out = ops[name]()
                    if out:
                        samples[name].append((out.wall_s, out.scaled_s))
                    elapsed = time.monotonic() - start
                    spent[name] += elapsed
                    batch_s += elapsed
                result = self.load(
                    server,
                    self.seconds * SERVE_SHARE / SLICES,
                    -(-self.min_requests // SLICES),
                )
                latencies += result.latencies
                ok += result.ok
                served_s += result.wall_s
        finally:
            if server is not None:
                self.stop_server(server)

        ordered = sorted(lat for _, lat in latencies)
        p99 = _p99(ordered)
        medians = {name: _median([x for _, x in pairs], name) for name, pairs in samples.items()}
        self.details["walls_s"] = {name: [w for w, _ in pairs] for name, pairs in samples.items()}
        self.details["calibration_s"] = self.calibration_s
        self.details["setup_parts_s"] = {
            "cli": medians["cli_setup"],
            "server": medians["server_setup"],
        }
        self.samples.update(
            setup=min(len(samples["cli_setup"]), len(samples["server_setup"])),
            batch_runs={name: len(samples[name]) for name in ops},
            requests=len(ordered),
            requests_beyond_p99=sum(1 for x in ordered if x > p99),
        )
        setup_s = sum(self.details["setup_parts_s"].values())
        return {
            "setup_s": (setup_s, "s"),
            "verify_s": (medians["verify"], "s"),
            "recompute_s": (medians["recompute"], "s"),
            "query_max_s": (medians["query_max"], "s"),
            "serve_rps": (ok / served_s, "1/s"),
            "serve_p50_ms": (statistics.median(ordered) * 1e3, "ms"),
            "serve_p99_ms": (p99 * 1e3, "ms"),
            "peak_rss_mb": (self.peak_rss_kb / 1024, "MB"),
        }

    def trace_run(self) -> dict[str, tuple[float, str]]:
        """Traced batch rounds, then the server's routes in process and over HTTP.

        A round runs ``verify`` untraced, then ``verify``, ``recompute`` and
        ``query-max`` traced.  Rounds go on until the traced rounds reach
        --seconds, and at least TRACE_MIN_ROUNDS run.  A layer metric is the
        median over rounds of the round's sum over the three commands, its
        seconds scaled like the command's wall time; a layer's share of
        ``verify`` is its self time in the traced ``verify`` over that
        command's wall time, a median over rounds.
        """
        rounds: list[dict[str, float]] = []
        shares: list[dict[str, float]] = []
        traced_verify: list[float] = []
        untraced_verify: list[float] = []
        batch_s = 0.0
        while len(rounds) < TRACE_MIN_ROUNDS or (
            batch_s < self.seconds and time.monotonic() < self.deadline
        ):
            start = time.monotonic()
            out = self.verify()
            if out:
                untraced_verify.append(out.scaled_s)
            exports = {}
            for name, op in self.batch_ops():
                out = op(traced=True)
                if out is None:
                    raise RuntimeError(f"traced {name} failed")
                export = json.loads(out.spans.read_text(encoding="utf-8"))
                if name == "verify":
                    traced_verify.append(out.scaled_s)
                    shares.append(
                        {layer: own / out.wall_s for layer, own in export["self_s"].items()}
                    )
                factor = out.scaled_s / out.wall_s
                export["self_s"] = {k: v * factor for k, v in export["self_s"].items()}
                exports[name] = export
            batch_s += time.monotonic() - start
            rounds.append(summarize(list(exports.values())))
        layer = {
            key: statistics.median(r.get(key, 0.0) for r in rounds) for key in set().union(*rounds)
        }
        self.details["verify_share"] = {
            name: statistics.median(s.get(name, 0.0) for s in shares)
            for name in sorted(set().union(*shares))
        }
        self.details["traced_verify_s"] = traced_verify
        self.details["untraced_verify_s"] = untraced_verify

        route_us, load_s = self._in_process_routes()
        server = self.start_server()
        try:
            result = self.load(server, self.seconds * SERVE_SHARE, self.trace_min_requests)
        finally:
            self.stop_server(server)
        client_ms = {
            kind: _median([lat for k_, lat in result.latencies if k_ == kind], kind) * 1e3
            for kind, _ in MIX
        }
        self.samples.update(
            trace_rounds=len(rounds),
            verify_pairs=min(len(traced_verify), len(untraced_verify)),
            route_calls_per_kind=ROUTE_SAMPLES,
            requests=len(result.latencies),
        )

        metrics = {
            "rdf.parse_s": (layer.get("rdf.parse.self_s", 0.0), "s"),
            "rdf.match_calls": (layer.get("rdf.match.calls", 0), "count"),
            "rdf.match_s": (layer.get("rdf.match.self_s", 0.0), "s"),
            "rdf.serialize_s": (layer.get("rdf.serialize.self_s", 0.0), "s"),
            "annotations.extract_s": (layer.get("annotations.extract.self_s", 0.0), "s"),
            "annotations.to_om_s": (layer.get("annotations.to_om.self_s", 0.0), "s"),
            "annotations.to_om_nodes": (layer.get("annotations.to_om.nodes", 0), "count"),
            "cd.parse_s": (layer.get("cd.parse.self_s", 0.0), "s"),
            "cd.store_lookups": (layer.get("cd.store_lookup.calls", 0), "count"),
            "cd.find_definition_calls": (layer.get("cd.find_definition.calls", 0), "count"),
            "rewrite.expand_s": (layer.get("rewrite.expand.self_s", 0.0), "s"),
            "rewrite.expanded_nodes": (layer.get("rewrite.expand.nodes", 0), "count"),
            "rewrite.evaluate_s": (layer.get("rewrite.evaluate.self_s", 0.0), "s"),
            "rewrite.evaluate_calls": (layer.get("rewrite.evaluate.calls", 0), "count"),
            "server.load_s": (load_s, "s"),
        }
        for kind, _ in MIX:
            metrics[f"server.route_us.{kind}"] = (route_us[kind], "us")
        for kind, _ in MIX:
            metrics[f"server.transport_ms.{kind}"] = (client_ms[kind] - route_us[kind] / 1e3, "ms")
        metrics["trace.overhead_ratio"] = (
            _median(traced_verify, "traced verify") / _median(untraced_verify, "verify"),
            "ratio",
        )
        return metrics

    def _in_process_routes(self) -> tuple[dict[str, float], float]:
        """Median CdApp.route time per route kind (µs), and the server's load time (s)."""
        from omld.server import CdServer

        loads = []
        for _ in range(3):
            start = time.perf_counter()
            server = CdServer(self.inputs.cd_dir, port=0)
            loads.append(time.perf_counter() - start)
            app = server.app
            server.start()
            server.close()
        times: dict[str, list[float]] = {kind: [] for kind, _ in MIX}
        for request in self.schedule * 4:
            bucket = times[request.kind]
            if len(bucket) >= ROUTE_SAMPLES:
                continue
            start = time.perf_counter()
            app.route("GET", request.path, request.accept)
            bucket.append(time.perf_counter() - start)
        return {k: _median(v, k) * 1e6 for k, v in times.items()}, statistics.median(loads)


def _report(workload, seed, trace, runner, metrics, correct) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6f} {unit}")
    info = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "samples": runner.samples,
        "fail_ratio": runner.failed / runner.attempted if runner.attempted else None,
        **runner.details,
    }
    print(json.dumps(info))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)
    # Let a termination request run the cleanup that stops child processes.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    src = root / "src"
    if not (src / "omld" / "__init__.py").is_file():
        print("bench: ./src/omld not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    spec = (TINY if args.tiny else WORKLOADS)[args.workload]
    work = root / ".bench_build" / "omld-bench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs = generate(spec, args.seed, work)
        runner = Runner(inputs, args.seed, src, work, args.seconds, args.tiny)
        try:
            metrics = runner.trace_run() if args.trace else runner.timed_run()
        except WrongAnswer as exc:
            print(f"bench: wrong answer: {exc}", file=sys.stderr)
            _report(args.workload, args.seed, args.trace, runner, {}, False)
            return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    _report(args.workload, args.seed, args.trace, runner, metrics, True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
