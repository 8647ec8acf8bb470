"""Layer spans recorded around calls into omld's public functions.

The tracer replaces each target function (or method) with a wrapper for the
duration of a traced run.  A timed wrapper adds the call's self time to its
span name: the call's duration minus the time of the timed calls inside it,
so a ``Graph.match`` call made from inside ``extract_data_points`` counts for
``rdf.match`` and not for ``annotations.extract``.  A recursive function is
timed at its outermost call only; re-entries are counted without timing.
The counters stay in memory and are written out once, when the traced
command ends.

A target that no longer exists is skipped, and its metrics read 0.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# (module, attribute, span name, timed, count OpenMath nodes of the result)
LAYER_TARGETS = (
    ("omld.rdf", "parse_turtle", "rdf.parse", True, False),
    ("omld.rdf", "Graph.match", "rdf.match", True, False),
    ("omld.rdf", "serialize_turtle", "rdf.serialize", True, False),
    ("omld.annotations", "extract_data_points", "annotations.extract", True, False),
    ("omld.annotations", "extract_derivations", "annotations.extract", True, False),
    ("omld.annotations", "derivation_to_om", "annotations.to_om", True, True),
    ("omld.cd", "parse_cd_xml", "cd.parse", True, False),
    ("omld.rewrite", "CdStore.lookup", "cd.store_lookup", False, False),
    ("omld.cd", "find_definition", "cd.find_definition", False, False),
    ("omld.rewrite", "expand", "rewrite.expand", True, True),
    ("omld.rewrite", "evaluate", "rewrite.evaluate", True, False),
)


def om_size(obj) -> int:
    """Number of nodes in an OpenMath tree (applications, bindings, leaves)."""
    count = 0
    stack = [obj]
    while stack:
        node = stack.pop()
        count += 1
        args = getattr(node, "args", None)
        if args is not None:
            stack.append(node.head)
            stack.extend(args)
        elif hasattr(node, "binder") and hasattr(node, "body"):
            stack.append(node.binder)
            stack.extend(node.variables)
            stack.append(node.body)
    return count


class Tracer:
    def __init__(self):
        self.self_s: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.nodes: Counter[str] = Counter()
        self._child_s: list[float] = []  # per open timed call: seconds of its timed children
        self._active: Counter[str] = Counter()
        self._undo: list[tuple[object, str, object]] = []

    def _wrapper(self, original, name: str, timed: bool, count_nodes: bool):
        def traced(*args, **kwargs):
            self.calls[name] += 1
            if not timed or self._active[name]:
                return original(*args, **kwargs)
            self._child_s.append(0.0)
            self._active[name] += 1
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._active[name] -= 1
                self.self_s[name] += elapsed - self._child_s.pop()
                if self._child_s:
                    self._child_s[-1] += elapsed
            if count_nodes:
                t0 = time.perf_counter()
                self.nodes[name] += om_size(result)
                if self._child_s:  # counting is tracer work, not the parent's
                    self._child_s[-1] += time.perf_counter() - t0
            return result

        return traced

    def install(self, targets=LAYER_TARGETS) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "omld" and m]
        for module_name, attribute, name, timed, count_nodes in targets:
            module = sys.modules.get(module_name)
            owner_name, _, attr = attribute.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue
            wrapper = self._wrapper(original, name, timed, count_nodes)
            if owner_name:
                self._patch(owner, attr, wrapper)
                continue
            # Modules import functions by name, so patch every binding of it.
            for mod in modules:
                if vars(mod).get(attr) is original:
                    self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def export(self) -> dict:
        return {"self_s": dict(self.self_s), "calls": dict(self.calls), "nodes": dict(self.nodes)}


def summarize(exports: list[dict]) -> dict[str, float]:
    """Self seconds, call counts and node counts per span name, summed."""
    out: Counter[str] = Counter()
    for export in exports:
        for kind, counter in export.items():
            for name, n in counter.items():
                out[f"{name}.{kind}"] += n
    return dict(out)
