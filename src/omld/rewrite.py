"""Definition expansion, compiled evaluation, and dataset verification.

Expansion rewrites every application whose head has a definitional FMP in its
CD, innermost first, pass by pass until nothing changes.  The base
operations, the seven arith1 operations under the default cdbase, are never
expanded; symbols without a definition stay in place and show up in the
residual set.  A definition-set that still rewrites after ``MAX_PASSES``
passes is reported as cyclic.  Every walk over a term keeps its own stack,
so a term of any depth expands.

A derived point is computed in two steps.  Its function is compiled once per
run and arity (``CdStore.program``): the function applied to parameter slots
is expanded, its residual symbols are checked, and the result becomes a
``Program``, flat postfix code over the slots.  An error of these steps is
kept in place of the program and stands for every point that uses it.  Each
point then turns its arguments into leaves (``annotations.argument_leaves``,
the leaves ``derivation_to_om`` applies the function to) and runs the
program in one loop over their values, on a value stack.  Its errors come in
the order a walk of its own expanded term would meet them, with the same
messages; a failing sub-term is rendered with the leaves in the slots.

Evaluation is plain 64-bit float arithmetic over the base operations;
integers widen to float at application time.  Division by zero is an error,
not infinity: in statistical data a zero denominator is a data bug worth
surfacing.  So is every other step without a finite real value: an overflow,
an infinity or NaN, or the complex power of a negative base.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable, Iterable, Iterator, Mapping
from decimal import Decimal
from pathlib import Path
from typing import TYPE_CHECKING

from .annotations import (
    VALUE,
    CyclicDerivationError,
    DataPoint,
    Derivation,
    argument_leaves,
    extract_data_points,
    extract_derivations,
    extract_regions,
)
from .errors import NonFiniteResultError, ToolkitError
from .om import (
    DEFAULT_CDBASE,
    MalformedSymbolUriError,
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
    parse_symbol_uri,
    serialize_om_xml,
    symbol_iri,
)
from .rdf import XSD_DECIMAL, Graph, Iri, Literal, Triple
from .value import Value, set_field

if TYPE_CHECKING:
    from .cd import ContentDictionary, DefinitionalFMP


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

    A directory given to ``add_directory`` is read when the store first
    needs a CD: at the first ``lookup``, or at ``read_directories``.  The
    directories are read once each, in the order they were added, so a run
    that looks no CD up never opens them.  A store serves one thread: each
    batch run makes its own, and the server does not use one.
    """

    def __init__(self, fetch: Callable[[str], ContentDictionary] | None = None):
        self._fetch = fetch
        self._cds: dict[str, ContentDictionary] = {}
        self._fetch_errors: dict[str, Exception] = {}
        self._programs: dict[tuple[str, int], Program | ToolkitError] = {}
        self._unread: list[str | Path] = []

    def add(self, cd: ContentDictionary) -> None:
        url = cd_url(cd.cdbase, cd.cdname)
        existing = self._cds.get(url)
        if existing is None:
            self._cds[url] = cd
            self._programs.clear()  # a new CD may define what a program lacked
        else:
            from .cd import serialize_cd_xml as text  # compares at any depth, where == recurses

            if existing.source_url != cd.source_url or text(existing) != text(cd):
                raise ToolkitError(f"a different CD is already stored for {url}")

    def add_directory(self, path: str | Path) -> None:
        """Add the CDs of a directory when the store first needs a CD."""
        self._unread.append(path)

    def read_directories(self) -> None:
        """Add every CD of ``cd.load_cd_directory`` for each directory not yet read."""
        from .cd import load_cd_directory  # a run that reads no CD needs no CD parser

        while self._unread:
            for loaded in load_cd_directory(self._unread.pop(0)):
                self.add(loaded.cd)

    def lookup(self, url: str) -> ContentDictionary | None:
        self.read_directories()
        if url in self._cds:
            return self._cds[url]
        if self._fetch is None or url in self._fetch_errors:
            return None
        try:
            cd = self._fetch(url)
        except Exception as exc:
            self._fetch_errors[url] = exc
            return None
        self._cds[url] = cd
        return cd

    def definition(self, sym: OMSymbol) -> DefinitionalFMP | None:
        """The symbol's definitional FMP from its CD's table, or None."""
        cd = self.lookup(cd_url(sym.cdbase, sym.cd))
        return None if cd is None else cd.definitional.get(sym.name)

    def fetch_error(self, url: str) -> Exception | None:
        return self._fetch_errors.get(url)

    def program(self, function: str, arity: int) -> Program | ToolkitError:
        """``compile_function``'s program for a function IRI, or the error it raised.

        Each is compiled at its first use and kept until a CD is added.
        """
        key = (function, arity)
        program = self._programs.get(key)
        if program is None:
            try:
                program = compile_function(function, arity, self)
            except ToolkitError as exc:
                program = exc
            self._programs[key] = program
        return program


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
    # Each open node: the node, its bound variables as renamed, the subterms to
    # replace in order, each with its mapping and bound names, and the results
    # so far.  A subterm of None is the result before it: a binding's body
    # whose clashing variables are renamed.
    stack: list[tuple[OMObject, tuple[OMVariable, ...], list, list[OMObject]]] = []
    while True:
        if isinstance(obj, OMVariable):
            if obj.name not in bound and obj.name in mapping:
                obj = mapping[obj.name]
        elif isinstance(obj, (OMApplication, OMBinding)):
            if isinstance(obj, OMApplication):
                variables = ()
                tasks = [(c, mapping, bound) for c in (obj.head, *obj.args)]
            else:
                variables, tasks = _binding_tasks(obj, mapping, bound)
            stack.append((obj, variables, tasks, []))
            obj, mapping, bound = tasks[0]
            continue
        while stack:
            node, variables, tasks, done = stack[-1]
            done.append(obj)
            if len(done) < len(tasks):
                obj, mapping, bound = tasks[len(done)]
                if obj is None:
                    obj = done[-1]
                break
            stack.pop()
            if isinstance(node, OMBinding):
                obj = OMBinding(done[0], variables, done[-1])
            else:
                obj = OMApplication(done[0], tuple(done[1:]))
        else:
            return obj


def _binding_tasks(
    obj: OMBinding, mapping: dict[str, OMObject], bound: frozenset[str]
) -> tuple[tuple[OMVariable, ...], list]:
    """A binding's variables and the replacements of its binder and body.

    Any bound variable that would capture a free variable of an incoming
    replacement value is renamed first, throughout the body.
    """
    names = {v.name for v in obj.variables}
    body_free = free_variables(obj.body)
    incoming = set()
    for k, v in mapping.items():
        if k in body_free and k not in names and k not in bound:
            incoming |= free_variables(v)
    clashes = names & incoming
    tasks = [(obj.binder, mapping, bound)]
    if not clashes:
        tasks.append((obj.body, mapping, bound | names))
        return obj.variables, tasks
    taken = names | incoming | set(mapping) | bound | body_free
    renames: dict[str, OMObject] = {}
    variables = []
    for v in obj.variables:
        if v.name in clashes:
            fresh = _fresh_name(v.name, taken)
            taken.add(fresh)
            renames[v.name] = OMVariable(fresh)
            v = OMVariable(fresh)
        variables.append(v)
    tasks.append((obj.body, renames, frozenset()))
    tasks.append((None, mapping, bound | {v.name for v in variables}))
    return tuple(variables), tasks


# ---------------------------------------------------------------------------
# Expansion
# ---------------------------------------------------------------------------


def _rewrite_pass(obj: OMObject, store: CdStore, rewritten: list[OMSymbol]) -> OMObject:
    """One innermost-first pass; substituted bodies wait for the next pass.

    An application's arguments are rewritten left to right, then a head that
    is not a symbol; a binding's binder, then its body.
    """
    # Each open node: the node, its subterms to rewrite in order, and the results so far.
    stack: list[tuple[OMObject, tuple[OMObject, ...], list[OMObject]]] = []
    while True:
        if isinstance(obj, OMApplication):
            todo = obj.args if isinstance(obj.head, OMSymbol) else (*obj.args, obj.head)
            stack.append((obj, todo, []))
            obj = todo[0]
            continue
        if isinstance(obj, OMBinding):
            stack.append((obj, (obj.binder, obj.body), []))
            obj = obj.binder
            continue
        if isinstance(obj, OMSymbol) and _base_op(obj) is None:
            defn = store.definition(obj)
            if defn is not None and defn.arity == 0:
                rewritten.append(obj)
                obj = defn.body
        while stack:
            node, todo, done = stack[-1]
            done.append(obj)
            if len(done) < len(todo):
                obj = todo[len(done)]
                break
            stack.pop()
            if isinstance(node, OMBinding):
                obj = OMBinding(done[0], node.variables, done[1])
            elif isinstance(node.head, OMSymbol):
                obj = _rewrite_application(node.head, tuple(done), store, rewritten)
            else:
                obj = OMApplication(done[-1], tuple(done[:-1]))
        else:
            return obj


def _rewrite_application(
    head: OMSymbol, args: tuple[OMObject, ...], store: CdStore, rewritten: list[OMSymbol]
) -> OMObject:
    """``head(args)``, or the body of head's definition with its parameters replaced."""
    if _base_op(head) is None:
        defn = store.definition(head)
        if defn is not None:
            if defn.arity != len(args):
                raise ArityMismatchError(symbol_iri(head).value, defn.arity, len(args))
            rewritten.append(head)
            mapping = {p.name: a for p, a in zip(defn.params, args)}
            return _replace(defn.body, mapping, frozenset())
    return OMApplication(head, args)


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
# Compilation and evaluation
# ---------------------------------------------------------------------------


class Program:
    """An expanded term as flat postfix code over parameter slots.

    Each instruction is ``(n, apply, term)``.  Without ``apply`` it pushes
    value n: the input of slot n, or after the slots one of the term's
    constants.  A value that is an error, from a leaf without a finite real
    value, is raised where it is pushed, as the tree walk would reach it.
    With ``apply`` it pops n values and pushes ``apply`` of them; ``term``
    is the sub-term it computes, rendered only when it fails.
    """

    __slots__ = ("params", "code", "constants")

    def __init__(self, term: OMObject, params: tuple[str, ...] = ()):
        slots = {name: i for i, name in enumerate(params)}
        code: list[tuple] = []
        constants: list[float | ToolkitError] = []

        def push(value: float | ToolkitError) -> tuple:
            constants.append(value)
            return (len(params) + len(constants) - 1, None, None)

        # The subterms still to compile and the operations that follow them, last first.
        todo: list = [term]
        while todo:
            obj = todo.pop()
            if isinstance(obj, tuple):
                code.append(obj)
            elif isinstance(obj, OMApplication):
                # A bad head fails before the arguments are evaluated.
                head = obj.head
                if not isinstance(head, OMSymbol):
                    code.append(push(NonNumericLeafError("application head is not a symbol")))
                elif (op := _base_op(head)) is None:
                    code.append(push(UnknownSymbolError(symbol_iri(head).value)))
                else:
                    arity, apply = op
                    n = len(obj.args)
                    if arity is None or n == arity:
                        todo.append((n, apply, obj))
                    else:
                        todo.append(push(ArityMismatchError(symbol_iri(head).value, arity, n)))
                    todo.extend(reversed(obj.args))
            elif isinstance(obj, OMVariable) and obj.name in slots:
                code.append((slots[obj.name], None, None))
            else:
                code.append(push(_leaf_value(obj)))
        self.params = params
        self.code = code
        self.constants = constants

    def run(self, inputs: list[float | ToolkitError], leaves: tuple[OMObject, ...]) -> float:
        """The term's finite 64-bit float value for one input per slot.

        ``leaves`` are the objects the inputs stand for, to render a failing
        sub-term.
        """
        values = inputs + self.constants
        stack: list[float] = []
        push = stack.append
        for n, apply, term in self.code:
            if apply is None:
                value = values[n]
                if isinstance(value, ToolkitError):
                    raise value.with_traceback(None)
                push(value)
                continue
            args = stack[-n:]
            del stack[-n:]
            try:
                value = apply(args)
            except ZeroDivisionError:
                raise DivisionByZeroError(self._render(term, leaves)) from None
            except OverflowError:
                raise NonFiniteResultError(f"overflow in {self._render(term, leaves)}") from None
            if not isinstance(value, float) or not math.isfinite(value):
                raise NonFiniteResultError(
                    f"{value!r} is not a finite real number, in {self._render(term, leaves)}"
                )
            push(value)
        return stack[-1]

    def _render(self, term: OMObject, leaves: tuple[OMObject, ...]) -> str:
        mapping = dict(zip(self.params, leaves))
        return serialize_om_xml(_replace(term, mapping, frozenset()))


def _leaf_value(obj: OMObject) -> float | ToolkitError:
    """The number of a leaf, or the error the tree walk raises at it."""
    if isinstance(obj, OMInteger):
        try:
            return float(obj.value)
        except OverflowError:
            return NonFiniteResultError(
                f"a {obj.value.bit_length()}-bit integer is too large for a float"
            )
    if isinstance(obj, OMFloat):
        if not math.isfinite(obj.value):
            return NonFiniteResultError(f"{obj.value!r} is not a finite number")
        return obj.value
    if isinstance(obj, OMVariable):
        return FreeVariableError(obj.name)
    if isinstance(obj, OMSymbol):
        if _base_op(obj) is not None:
            return NonNumericLeafError(f"bare operation {obj.cd}#{obj.name} is not a number")
        return UnknownSymbolError(symbol_iri(obj).value)
    return NonNumericLeafError(f"cannot evaluate {type(obj).__name__}")


def compile_function(function: str, arity: int, store: CdStore) -> Program:
    """The program of a function IRI applied to ``arity`` parameter slots.

    The application is expanded, and a symbol left without a definition
    fails as its CD's remembered fetch error or as UnknownSymbolError.
    """
    params = tuple(f"\0{i}" for i in range(arity))  # no XML document names such a variable
    term = OMApplication(parse_symbol_uri(function), tuple(OMVariable(p) for p in params))
    expanded = expand(term, store)
    residual = residual_symbols(expanded)
    if residual:
        fetch_exc = store.fetch_error(residual[0].rpartition("#")[0])
        if fetch_exc is not None:
            if isinstance(fetch_exc, ToolkitError):
                raise fetch_exc
            raise ToolkitError(f"{type(fetch_exc).__name__}: {fetch_exc}")
        raise UnknownSymbolError(residual[0])
    return Program(expanded, params)


def _compute_point(
    derivation: Derivation, inputs: Mapping[str, Decimal | float], store: CdStore
) -> float:
    """The derivation's value, from its function's program in the store.

    ``inputs`` maps each source point's IRI string to its number.  Failures
    come in the order of computing ``derivation_to_om`` and then walking
    the expanded term: the arguments in position order, the function IRI,
    its expansion, then each leaf and operation in post-order.
    """
    leaves = argument_leaves(derivation, inputs)
    program = store.program(derivation.function_uri.value, len(leaves))
    if isinstance(program, ToolkitError):
        raise program.with_traceback(None)
    return program.run([_leaf_value(leaf) for leaf in leaves], leaves)


# ---------------------------------------------------------------------------
# Verification and recomputation
# ---------------------------------------------------------------------------


class PointResult(Value):
    __slots__ = ("point_id", "status", "stored", "computed", "delta", "reason")

    def __init__(
        self,
        point_id: Iri,
        status: str,  # "match" | "mismatch" | "uncomputable"
        stored: float | None = None,
        computed: float | None = None,
        delta: float | None = None,
        reason: str | None = None,
    ):
        set_field(self, "point_id", point_id)
        set_field(self, "status", status)
        set_field(self, "stored", stored)
        set_field(self, "computed", computed)
        set_field(self, "delta", delta)
        set_field(self, "reason", reason)


class VerificationReport(Value):
    __slots__ = ("results",)

    def __init__(self, results: tuple[PointResult, ...]):
        set_field(self, "results", results)

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


def _needs_cd(function: str) -> bool:
    """Whether computing with a function IRI may look a CD up."""
    try:
        return _base_op(parse_symbol_uri(function)) is None
    except MalformedSymbolUriError:
        return True


def _extract(
    graph: Graph,
) -> tuple[dict[str, DataPoint], dict[str, Derivation], dict[str, Decimal]]:
    """Data points, derivations and stored values, each keyed by point IRI."""
    points = {p.id.value: p for p in extract_data_points(graph)}
    derivations = {d.point_id.value: d for d in extract_derivations(graph)}
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

    The store's directories are read first, and only if some derivation
    names a function that is not a base operation, so an error reading them
    ends the run instead of failing each point.
    """
    if any(map(_needs_cd, {d.function_uri.value for d in derivations.values()})):
        store.read_directories()
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
            return _compute_point(derivations[pid], inputs, store)
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


def verify_dataset(graph: Graph, store: CdStore, tolerance: float) -> VerificationReport:
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
    _, derivations, stored = _extract(graph)
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
            lexical = graph.objects(point_id, VALUE)[0].lexical
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


def recompute(graph: Graph, store: CdStore) -> Graph:
    """Replace every derived point's stored value with a fresh computation.

    Only the values of underived points are taken as given: every derived
    input is recomputed before anything that uses it, so fresh values flow
    down a chain.  A failed input makes every point that uses it fail with
    the same error; the first failed point by IRI raises it.  Underived
    points are untouched.
    """
    _, derivations, stored = _extract(graph)
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
        if not (t.subject in derived_ids and t.predicate == VALUE)
    }
    for pid, lexical in new_values.items():
        triples.add(Triple(Iri(pid), VALUE, Literal(lexical, datatype=Iri(XSD_DECIMAL))))
    return Graph(triples=frozenset(triples), prefixes=dict(graph.prefixes))


# ---------------------------------------------------------------------------
# Compute-then-query
# ---------------------------------------------------------------------------


def query_max_increase(
    graph: Graph,
    metric_function: Iri,
    t1: Iri,
    t2: Iri,
    store: CdStore,
) -> tuple[Iri, float]:
    """The region whose computed metric grew the most between t1 and t2.

    Regions are the dimension IRIs typed as ``env:Region``.  The metric for
    a (region, time) pair is computed from the derivation whose function is
    ``metric_function``; the metric point's own stored value is ignored, but
    every stored value is taken as given where it is an input.  A failed
    input makes every point that uses it fail, and failed points are left
    out.  Ties go to the lexicographically smaller region IRI.
    """
    points, derivations, stored = _extract(graph)
    regions = extract_regions(graph)

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
