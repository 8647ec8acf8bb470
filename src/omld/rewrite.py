"""Definition expansion, arithmetic evaluation, and dataset verification.

Expansion rewrites every application whose head has a definitional FMP in its
CD, innermost first, pass by pass until nothing changes.  The base
operations, the seven arith1 operations under the default cdbase, are never
expanded; symbols without a definition stay in place and show up in the
residual set.  A definition-set that still rewrites after ``MAX_PASSES``
passes is reported as cyclic.

Evaluation is plain 64-bit float arithmetic over the base operations;
integers widen to float at application time.  Division by zero is an error,
not infinity: in statistical data a zero denominator is a data bug worth
surfacing.  So is every other step without a finite real value: an overflow,
an infinity or NaN, or the complex power of a negative base.
"""

from __future__ import annotations

import math
import operator
import threading
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping

from .annotations import (
    CyclicDerivationError,
    DataPoint,
    Derivation,
    derivation_to_om,
    extract_data_points,
    extract_derivations,
)
from .cd import ContentDictionary, DefinitionalFMP, load_cd_directory
from .config import DEFAULT_VOCAB, StatVocab
from .errors import NonFiniteResultError, ToolkitError
from .om import (
    DEFAULT_CDBASE,
    OMApplication,
    OMBinding,
    OMFloat,
    OMInteger,
    OMObject,
    OMSymbol,
    OMVariable,
    cd_url,
    free_variables,
    iter_symbols,
    serialize_om_xml,
    symbol_iri,
)
from .rdf import RDF_TYPE, XSD_DECIMAL, Graph, Iri, Literal, Triple


class DepthExceededError(ToolkitError):
    def __init__(self, max_depth: int, chain: list[str]):
        self.max_depth = max_depth
        self.chain = chain
        super().__init__(
            f"no fixpoint after {max_depth} rewrite passes; still expanding: "
            + ", ".join(chain)
        )


class ArityMismatchError(ToolkitError):
    def __init__(self, symbol: str, expected: int, got: int):
        self.symbol = symbol
        self.expected = expected
        self.got = got
        super().__init__(f"{symbol} expects {expected} argument(s), got {got}")


class DivisionByZeroError(ToolkitError):
    def __init__(self, location: str):
        self.location = location
        super().__init__(f"division by zero in {location}")


class UnknownSymbolError(ToolkitError):
    def __init__(self, uri: str):
        self.uri = uri
        super().__init__(f"no definition and no base operation for {uri}")


class FreeVariableError(ToolkitError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"cannot evaluate open term; free variable {name}")


class NonNumericLeafError(ToolkitError):
    pass


class NoComputableRegionError(ToolkitError):
    pass


# ---------------------------------------------------------------------------
# CD store
# ---------------------------------------------------------------------------


class CdStore:
    """CDs by URL (``om.cd_url``), with an optional fetch hook for misses.

    The hook, ``resolver.fetch_cd`` outside tests, takes the URL of a CD the
    store does not hold.  A stored CD is never silently replaced; re-adding
    an identical CD is a no-op, a conflicting one is a ToolkitError.  The
    store is the only cache of fetched CDs: each fetched CD, and each failed
    fetch, is remembered under the URL it was asked for, so a run requests
    each URL at most once, stays deterministic and does not hammer an
    unreachable host.
    """

    def __init__(self, fetch: Callable[[str], ContentDictionary] | None = None):
        self._fetch = fetch
        self._cds: dict[str, ContentDictionary] = {}
        self._fetch_errors: dict[str, Exception] = {}
        self._lock = threading.Lock()

    def add(self, cd: ContentDictionary) -> None:
        url = cd_url(cd.cdbase, cd.cdname)
        with self._lock:
            existing = self._cds.get(url)
            if existing is None:
                self._cds[url] = cd
            elif existing != cd:
                raise ToolkitError(f"a different CD is already stored for {url}")

    def load_directory(self, path: str | Path) -> int:
        """Add every CD of ``cd.load_cd_directory(path)``; the number of CDs read."""
        count = 0
        for loaded in load_cd_directory(path):
            self.add(loaded.cd)
            count += 1
        return count

    def lookup(self, url: str) -> ContentDictionary | None:
        with self._lock:
            if url in self._cds:
                return self._cds[url]
            if self._fetch is None or url in self._fetch_errors:
                return None
        try:
            cd = self._fetch(url)
        except Exception as exc:
            with self._lock:
                self._fetch_errors.setdefault(url, exc)
            return None
        with self._lock:
            self._cds.setdefault(url, cd)
            return self._cds[url]

    def definition(self, sym: OMSymbol) -> DefinitionalFMP | None:
        """The symbol's definitional FMP from its CD's table, or None."""
        cd = self.lookup(cd_url(sym.cdbase, sym.cd))
        return None if cd is None else cd.definitional.get(sym.name)

    def fetch_error(self, url: str) -> Exception | None:
        return self._fetch_errors.get(url)


# ---------------------------------------------------------------------------
# Base operations
# ---------------------------------------------------------------------------

MAX_PASSES = 32  # changing rewrite passes before expansion is reported as cyclic


def _fold(fn: Callable[[float, float], float]) -> Callable[[list[float]], float]:
    def apply(args: list[float]) -> float:
        acc = args[0]
        for a in args[1:]:
            acc = fn(acc, a)
        return acc

    return apply


# (arity, apply); arity None is n-ary, at least one argument.
_Operation = tuple[int | None, Callable[[list[float]], float]]

_ARITH1: dict[str, _Operation] = {
    "plus": (None, _fold(operator.add)),
    "times": (None, _fold(operator.mul)),
    "minus": (2, lambda a: a[0] - a[1]),
    "divide": (2, lambda a: a[0] / a[1]),
    "power": (2, lambda a: a[0] ** a[1]),
    "unary_minus": (1, lambda a: -a[0]),
    "abs": (1, lambda a: abs(a[0])),
}


_ARITH1_URL = cd_url(DEFAULT_CDBASE, "arith1")


def _base_op(sym: OMSymbol) -> _Operation | None:
    """The base operation a symbol names, or None: it may be expanded."""
    if sym.cd != "arith1" or cd_url(sym.cdbase, sym.cd) != _ARITH1_URL:
        return None
    return _ARITH1.get(sym.name)


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------


def _fresh_name(base: str, taken: set[str]) -> str:
    i = 1
    while f"{base}_{i}" in taken:
        i += 1
    return f"{base}_{i}"


def _replace(obj: OMObject, mapping: dict[str, OMObject], bound: frozenset[str]) -> OMObject:
    """Replace free occurrences of mapped variables; unmapped ones survive."""
    if isinstance(obj, OMVariable):
        if obj.name in bound or obj.name not in mapping:
            return obj
        return mapping[obj.name]
    if isinstance(obj, OMApplication):
        return OMApplication(
            _replace(obj.head, mapping, bound),
            tuple(_replace(a, mapping, bound) for a in obj.args),
        )
    if isinstance(obj, OMBinding):
        names = {v.name for v in obj.variables}
        body_free = free_variables(obj.body)
        active = {
            k: v
            for k, v in mapping.items()
            if k in body_free and k not in names and k not in bound
        }
        # Rename any bound variable that would capture a free variable of an
        # incoming replacement value.
        incoming = set()
        for value in active.values():
            incoming |= free_variables(value)
        clashes = sorted(names & incoming)
        variables = obj.variables
        body = obj.body
        if clashes:
            taken = names | incoming | set(mapping) | bound | free_variables(body)
            renames: dict[str, OMObject] = {}
            new_vars = []
            for v in variables:
                if v.name in clashes:
                    fresh = _fresh_name(v.name, taken)
                    taken.add(fresh)
                    renames[v.name] = OMVariable(fresh)
                    new_vars.append(OMVariable(fresh))
                else:
                    new_vars.append(v)
            body = _replace(body, renames, frozenset())
            variables = tuple(new_vars)
            names = {v.name for v in variables}
        return OMBinding(
            _replace(obj.binder, mapping, bound),
            variables,
            _replace(body, mapping, bound | frozenset(names)),
        )
    return obj


# ---------------------------------------------------------------------------
# Expansion
# ---------------------------------------------------------------------------


def _rewrite_pass(obj: OMObject, store: CdStore, rewritten: list[OMSymbol]) -> OMObject:
    """One innermost-first pass; substituted bodies wait for the next pass."""
    if isinstance(obj, OMApplication):
        new_args = tuple(_rewrite_pass(a, store, rewritten) for a in obj.args)
        head = obj.head
        if isinstance(head, OMSymbol):
            if _base_op(head) is None:
                defn = store.definition(head)
                if defn is not None:
                    if defn.arity != len(new_args):
                        raise ArityMismatchError(
                            symbol_iri(head).value, defn.arity, len(new_args)
                        )
                    rewritten.append(head)
                    mapping = {p.name: a for p, a in zip(defn.params, new_args)}
                    return _replace(defn.body, mapping, frozenset())
        else:
            head = _rewrite_pass(head, store, rewritten)
        return OMApplication(head, new_args)
    if isinstance(obj, OMSymbol) and _base_op(obj) is None:
        defn = store.definition(obj)
        if defn is not None and defn.arity == 0:
            rewritten.append(obj)
            return defn.body
        return obj
    if isinstance(obj, OMBinding):
        return OMBinding(
            _rewrite_pass(obj.binder, store, rewritten),
            obj.variables,
            _rewrite_pass(obj.body, store, rewritten),
        )
    return obj


def expand(obj: OMObject, store: CdStore) -> OMObject:
    """Rewrite to fixpoint with at most ``MAX_PASSES`` changing passes."""
    term = obj
    passes = 0
    while True:
        rewritten: list[OMSymbol] = []
        new_term = _rewrite_pass(term, store, rewritten)
        if not rewritten:  # a pass without a rewrite rebuilds an equal term
            return term
        passes += 1
        if passes > MAX_PASSES:
            chain = sorted({symbol_iri(sym).value for sym in rewritten})
            raise DepthExceededError(MAX_PASSES, chain)
        term = new_term


def residual_symbols(obj: OMObject) -> list[str]:
    """Non-base symbols left in a term, as sorted hash URIs."""
    return sorted({symbol_iri(s).value for s in iter_symbols(obj) if _base_op(s) is None})


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def evaluate(obj: OMObject) -> float:
    """Evaluate a closed, fully-expanded term to a finite 64-bit float."""
    if isinstance(obj, OMInteger):
        try:
            return float(obj.value)
        except OverflowError:
            raise NonFiniteResultError(
                f"a {obj.value.bit_length()}-bit integer is too large for a float"
            ) from None
    if isinstance(obj, OMFloat):
        if not math.isfinite(obj.value):
            raise NonFiniteResultError(f"{obj.value!r} is not a finite number")
        return obj.value
    if isinstance(obj, OMVariable):
        raise FreeVariableError(obj.name)
    if isinstance(obj, OMApplication):
        head = obj.head
        if not isinstance(head, OMSymbol):
            raise NonNumericLeafError("application head is not a symbol")
        op = _base_op(head)
        if op is None:
            raise UnknownSymbolError(symbol_iri(head).value)
        arity, apply = op
        args = [evaluate(a) for a in obj.args]
        if arity is not None and len(args) != arity:
            raise ArityMismatchError(symbol_iri(head).value, arity, len(args))
        try:
            value = apply(args)
        except ZeroDivisionError:
            raise DivisionByZeroError(serialize_om_xml(obj)) from None
        except OverflowError:
            raise NonFiniteResultError(f"overflow in {serialize_om_xml(obj)}") from None
        if not isinstance(value, float) or not math.isfinite(value):
            raise NonFiniteResultError(
                f"{value!r} is not a finite real number, in {serialize_om_xml(obj)}"
            )
        return value
    if isinstance(obj, OMSymbol):
        if _base_op(obj) is not None:
            raise NonNumericLeafError(f"bare operation {obj.cd}#{obj.name} is not a number")
        raise UnknownSymbolError(symbol_iri(obj).value)
    raise NonNumericLeafError(f"cannot evaluate {type(obj).__name__}")


# ---------------------------------------------------------------------------
# Verification and recomputation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PointResult:
    point_id: Iri
    status: str  # "match" | "mismatch" | "uncomputable"
    stored: float | None = None
    computed: float | None = None
    delta: float | None = None
    reason: str | None = None


@dataclass(frozen=True)
class VerificationReport:
    results: tuple[PointResult, ...]

    @property
    def any_mismatch(self) -> bool:
        return any(r.status == "mismatch" for r in self.results)

    @property
    def any_uncomputable(self) -> bool:
        return any(r.status == "uncomputable" for r in self.results)

    def to_text(self) -> str:
        lines = []
        for r in self.results:
            if r.status == "match":
                lines.append(f"MATCH {r.point_id} stored={r.stored!r} computed={r.computed!r}")
            elif r.status == "mismatch":
                lines.append(
                    f"MISMATCH {r.point_id} stored={r.stored!r} "
                    f"computed={r.computed!r} delta={r.delta!r}"
                )
            else:
                lines.append(f"UNCOMPUTABLE {r.point_id} reason={r.reason}")
        return "\n".join(lines)

    def to_records(self) -> list[dict]:
        return [
            {
                "id": r.point_id.value,
                "status": r.status,
                "stored": r.stored,
                "computed": r.computed,
                "delta": r.delta,
                "reason": r.reason,
            }
            for r in self.results
        ]


def _compute_term(term: OMObject, store: CdStore) -> float:
    expanded = expand(term, store)
    residual = [s for s in iter_symbols(expanded) if _base_op(s) is None]
    if residual:
        sym = min(residual, key=lambda s: symbol_iri(s).value)
        fetch_exc = store.fetch_error(cd_url(sym.cdbase, sym.cd))
        if fetch_exc is not None:
            if isinstance(fetch_exc, ToolkitError):
                raise fetch_exc
            raise ToolkitError(f"{type(fetch_exc).__name__}: {fetch_exc}")
        raise UnknownSymbolError(symbol_iri(sym).value)
    return evaluate(expanded)


def _extract(
    graph: Graph, vocab: StatVocab
) -> tuple[dict[str, DataPoint], dict[str, Derivation], dict[str, Decimal]]:
    """Data points, derivations and stored values, each keyed by point IRI."""
    points = {p.id.value: p for p in extract_data_points(graph, vocab)}
    derivations = {d.point_id.value: d for d in extract_derivations(graph, vocab)}
    stored = {pid: p.value for pid, p in points.items() if p.value is not None}
    return points, derivations, stored


def _compute_chains(
    targets: Iterable[str],
    derivations: Mapping[str, Derivation],
    fixed: Mapping[str, Decimal | float],
    store: CdStore,
) -> dict[str, float | ToolkitError]:
    """Compute each target and the derived inputs it needs, each point once.

    A source in ``fixed`` is taken as given.  Any other source that is a
    derived point is computed before the point that uses it (call by value),
    so when it fails, every point that uses it fails with the same error.  A
    cycle among non-fixed derived points fails as CyclicDerivationError.
    The walk keeps its own stack, so a chain may be deeper than Python's
    recursion limit.  The result maps each computed point to its value or
    its error.
    """
    results: dict[str, float | ToolkitError] = {}

    def sources(pid: str) -> list[str]:
        return [a.source.value for a in derivations[pid].args if a.source is not None]

    def uncomputed_inputs(pid: str) -> Iterator[str]:
        for sid in sources(pid):
            if sid in derivations and sid not in fixed and sid not in results:
                yield sid

    def compute(pid: str) -> float | ToolkitError:
        known = [s for s in sources(pid) if s in fixed or s in results]
        inputs = {s: fixed[s] if s in fixed else results[s] for s in known}
        for value in inputs.values():
            if isinstance(value, ToolkitError):
                return value
        try:
            return _compute_term(derivation_to_om(derivations[pid], inputs), store)
        except ToolkitError as exc:
            return exc

    for target in targets:
        # The points being computed, in call order, each with its inputs still to visit.
        path = {target: uncomputed_inputs(target)} if target not in results else {}
        while path:
            pid, inputs = next(reversed(path.items()))
            sid = next(inputs, None)
            if sid is None:
                path.popitem()
                if pid not in results:  # a point on a cycle already holds its error
                    results[pid] = compute(pid)
            elif sid in path:
                chain = list(path)
                results[sid] = CyclicDerivationError([*chain[chain.index(sid) :], sid])
            else:
                path[sid] = uncomputed_inputs(sid)
    return results


def verify_dataset(
    graph: Graph,
    store: CdStore,
    tolerance: float,
    vocab: StatVocab = DEFAULT_VOCAB,
) -> VerificationReport:
    """Recompute every derived point and compare against its stored value.

    A point matches when |stored - computed| <= tolerance * max(1, |stored|).
    Every stored value is taken as given where it is an input, so only
    derived inputs without a stored value are computed, each once.  A failed
    input makes every point that uses it fail with the same reason.  A stored
    value beyond the float range makes its point uncomputable; a difference
    beyond it is a mismatch without a delta.  Failures never abort the run;
    they are reported per point.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be >= 0")
    _, derivations, stored = _extract(graph, vocab)
    order = sorted(derivations)
    computed = _compute_chains(
        [pid for pid in order if pid in stored], derivations, stored, store
    )

    results = []
    for pid in order:
        point_id = derivations[pid].point_id
        if pid not in stored:
            results.append(PointResult(point_id, "uncomputable", reason="no stored value"))
            continue
        value, outcome = float(stored[pid]), computed[pid]
        if not math.isfinite(value):
            lexical = graph.objects(point_id, vocab.value)[0].lexical
            reason = f"stored value {lexical!r} is beyond the float range"
            results.append(PointResult(point_id, "uncomputable", reason=reason))
            continue
        if isinstance(outcome, ToolkitError):
            reason = f"{type(outcome).__name__}: {outcome}"
            results.append(PointResult(point_id, "uncomputable", stored=value, reason=reason))
            continue
        delta = abs(value - outcome)
        status = "match" if delta <= tolerance * max(1.0, abs(value)) else "mismatch"
        if not math.isfinite(delta):  # finite values of opposite sign near the float limit
            delta = None
        results.append(PointResult(point_id, status, value, outcome, delta))
    return VerificationReport(tuple(results))


def canonical_decimal(value: float) -> str:
    """Shortest exact decimal form, without exponent notation."""
    if not math.isfinite(value):
        raise NonFiniteResultError(f"cannot serialize non-finite value {value!r}")
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    text = repr(value)
    if "e" in text or "E" in text:
        return format(Decimal(text), "f")
    return text


def recompute(graph: Graph, store: CdStore, vocab: StatVocab = DEFAULT_VOCAB) -> Graph:
    """Replace every derived point's stored value with a fresh computation.

    Only the values of underived points are taken as given: every derived
    input is recomputed before anything that uses it, so fresh values flow
    down a chain.  A failed input makes every point that uses it fail with
    the same error; the first failed point by IRI raises it.  Underived
    points are untouched.
    """
    _, derivations, stored = _extract(graph, vocab)
    fixed = {pid: value for pid, value in stored.items() if pid not in derivations}
    order = sorted(derivations)
    computed = _compute_chains(order, derivations, fixed, store)

    new_values: dict[str, str] = {}
    for pid in order:
        outcome = computed[pid]
        if isinstance(outcome, ToolkitError):
            raise outcome
        new_values[pid] = canonical_decimal(outcome)

    derived_ids = {Iri(pid) for pid in new_values}
    triples = {
        t
        for t in graph.triples
        if not (t.subject in derived_ids and t.predicate == vocab.value)
    }
    for pid, lexical in new_values.items():
        triples.add(Triple(Iri(pid), vocab.value, Literal(lexical, datatype=Iri(XSD_DECIMAL))))
    return Graph(triples=frozenset(triples), prefixes=dict(graph.prefixes))


# ---------------------------------------------------------------------------
# Compute-then-query
# ---------------------------------------------------------------------------


def query_max_increase(
    graph: Graph,
    metric_function: Iri,
    region_type: Iri,
    t1: Iri,
    t2: Iri,
    store: CdStore,
    vocab: StatVocab = DEFAULT_VOCAB,
) -> tuple[Iri, float]:
    """The region whose computed metric grew the most between t1 and t2.

    Regions are the dimension IRIs typed as ``region_type``.  The metric for
    a (region, time) pair is computed from the derivation whose function is
    ``metric_function``; the metric point's own stored value is ignored, but
    every stored value is taken as given where it is an input.  A failed
    input makes every point that uses it fail, and failed points are left
    out.  Ties go to the lexicographically smaller region IRI.
    """
    points, derivations, stored = _extract(graph, vocab)
    regions = {t.subject for t in graph.match(None, Iri(RDF_TYPE), region_type)}

    keys: dict[str, tuple[str, str]] = {}
    for pid in sorted(derivations):
        point = points.get(pid)
        if point is None or derivations[pid].function_uri != metric_function:
            continue
        dims = set(point.dimensions)
        time = t1 if t1 in dims else (t2 if t2 in dims else None)
        in_region = [d for d in point.dimensions if d in regions]
        if time is not None and len(in_region) == 1:
            keys[pid] = (in_region[0].value, time.value)

    computed = _compute_chains(keys, derivations, stored, store)
    values: dict[tuple[str, str], float] = {}
    for pid, key in keys.items():
        if not isinstance(computed[pid], ToolkitError):
            values.setdefault(key, computed[pid])

    increases: list[tuple[str, float]] = []
    for region in sorted({r for (r, _) in values}):
        v1 = values.get((region, t1.value))
        v2 = values.get((region, t2.value))
        if v1 is not None and v2 is not None:
            increases.append((region, v2 - v1))
    if not increases:
        raise NoComputableRegionError("no region has the metric at both times")
    best = sorted(increases, key=lambda rv: (-rv[1], rv[0]))[0]
    return Iri(best[0]), best[1]
