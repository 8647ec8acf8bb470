"""Seeded inputs for the omld benchmark, and their known answers.

A workload is a Turtle dataset plus a CD directory.  Every run verifies,
recomputes and queries the dataset through the CLI and serves the CD
directory over HTTP; the workloads differ in which layers the inputs stress:

* ``flat-divide``: a large graph of ``arith1#divide`` points.  Compute is
  trivial and no sub-term repeats, so graph lookups and extraction dominate
  the batch commands.  Its CD directory adds many synthetic CDs with
  definitional FMPs and ``rdfs:seeAlso`` links, so Turtle and HTML
  rendering weigh on serving and CD parsing on set-up.
* ``cd-chains``: a small graph of diamond-shaped derivation chains over
  ``statistics#hdi`` and the ten-level ``chain`` CD.  ``verify`` inlines the
  diamond, so identical sub-terms dominate expansion and evaluation, while
  ``recompute`` walks the chains once in dependency order.  It serves only
  those two small CDs.

The answers come from the small expression evaluator in this file, which
shares no code with ``omld``.  All inputs are positive and finite.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path
from xml.sax.saxutils import escape

ARITH1 = "http://www.openmath.org/cd/arith1#"
EXAMPLE_CDBASE = "http://example.org"
ENV = "http://example.org/ns/env#"
SEE_ALSO_URL = "http://example.org/wiki/"
TOLERANCE = 1e-9
YEARS = ("2008", "2009")

PREFIXES = """\
@prefix ahs: <http://example.org/ns/ahs#> .
@prefix env: <http://example.org/ns/env#> .
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
@prefix scv: <http://purl.org/NET/scovo#> .
@prefix sl:  <http://example.org/ns/sl#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
"""
AHS = "http://example.org/ns/ahs#"


@dataclass(frozen=True)
class Spec:
    """Sizes of one workload's inputs."""

    name: str
    dataset: str  # "flat" or "chains"
    regions: int = 0  # flat: regions, each observed in both years
    groups: int = 0  # chains: diamond groups
    depth: int = 0  # chains: diamond depth
    synth_cds: int = 0  # synthetic CDs besides statistics and chain
    synth_defs: int = 0  # definitions per synthetic CD
    perturb_share: float = 0.02  # share of stored derived values made wrong


WORKLOADS = {
    "flat-divide": Spec("flat-divide", "flat", regions=40, synth_cds=16, synth_defs=40),
    "cd-chains": Spec("cd-chains", "chains", groups=4, depth=11, perturb_share=0.25),
}

# Tiny sizes for the smoke self-test: same shapes, answers only.
TINY = {
    "flat-divide": Spec("flat-divide", "flat", regions=4, synth_cds=2, synth_defs=4),
    "cd-chains": Spec("cd-chains", "chains", groups=2, depth=3, perturb_share=0.25),
}


# ---------------------------------------------------------------------------
# Expressions: the reference evaluator and its OpenMath rendering
# ---------------------------------------------------------------------------
#
# An expression is an int or float constant, a variable name (str), an
# arith1 application ("plus" | "times" | "minus" | "divide", arg, ...), or a
# call of a CD function ("call", cd, name, arg, ...).


@dataclass(frozen=True)
class Definition:
    cd: str
    name: str
    params: tuple[str, ...]
    body: object
    description: str


def _apply_arith(op: str, args: list[float]) -> float:
    if op == "plus":
        acc = args[0]
        for a in args[1:]:
            acc = acc + a
        return acc
    if op == "times":
        acc = args[0]
        for a in args[1:]:
            acc = acc * a
        return acc
    if op == "minus":
        return args[0] - args[1]
    if op == "divide":
        return args[0] / args[1]
    raise ValueError(op)


def ref_eval(expr, env: dict[str, float], defs: dict[tuple[str, str], Definition]) -> float:
    """Call-by-value float evaluation, in the same operation order as the term."""
    if isinstance(expr, (int, float)):
        return float(expr)
    if isinstance(expr, str):
        return env[expr]
    if expr[0] == "call":
        _, cd, name, *args = expr
        d = defs[(cd, name)]
        values = [ref_eval(a, env, defs) for a in args]
        return ref_eval(d.body, dict(zip(d.params, values)), defs)
    return _apply_arith(expr[0], [ref_eval(a, env, defs) for a in expr[1:]])


def _om(expr) -> str:
    if isinstance(expr, bool):
        raise TypeError(expr)
    if isinstance(expr, int):
        return f"<OMI>{expr}</OMI>"
    if isinstance(expr, float):
        return f'<OMF dec="{expr!r}"/>'
    if isinstance(expr, str):
        return f'<OMV name="{expr}"/>'
    if expr[0] == "call":
        _, cd, name, *args = expr
        head = f'<OMS cdbase="{EXAMPLE_CDBASE}" cd="{cd}" name="{name}"/>'
    else:
        head = f'<OMS cd="arith1" name="{expr[0]}"/>'
        args = expr[1:]
    return "<OMA>" + head + "".join(_om(a) for a in args) + "</OMA>"


def _cd_xml(cdname: str, description: str, defs: list[Definition], links: bool) -> str:
    out = [
        "<CD>",
        f"  <CDName>{cdname}</CDName>",
        f"  <CDBase>{EXAMPLE_CDBASE}</CDBase>",
        f"  <Description>{escape(description)}</Description>",
    ]
    for d in defs:
        lhs = _om(("call", d.cd, d.name, *d.params))
        out += [
            "  <CDDefinition>",
            f"    <Name>{d.name}</Name>",
            f"    <Description>{escape(d.description)}</Description>",
            f"    <CMP>{escape(d.name)}({', '.join(d.params)}) is defined by the FMP below.</CMP>",
            "    <FMP><OMOBJ><OMA><OMS cd=\"relation1\" name=\"eq\"/>"
            + lhs
            + _om(d.body)
            + "</OMA></OMOBJ></FMP>",
        ]
        if links:
            out.append(
                '    <FMP><OMOBJ><OMA><OMS cdbase="http://www.w3.org/2000/01" '
                'cd="rdf-schema" name="seeAlso"/>'
                f'<OMS cdbase="{EXAMPLE_CDBASE}" cd="{d.cd}" name="{d.name}"/>'
                f"<OMSTR>{SEE_ALSO_URL}{d.cd}_{d.name}</OMSTR></OMA></OMOBJ></FMP>"
            )
        out.append("  </CDDefinition>")
    out.append("</CD>")
    return "\n".join(out) + "\n"


def _statistics_defs() -> list[Definition]:
    third = ("divide", 1, 3)
    body = (
        "times",
        third,
        ("plus", "LE", ("times", ("divide", 2, 3), "ALI"), ("times", third, "GEI"), "GDP"),
    )
    return [
        Definition(
            "statistics",
            "hdi",
            ("LE", "ALI", "GEI", "GDP"),
            body,
            "Composite development index over four normalized component indices.",
        )
    ]


def _chain_defs() -> list[Definition]:
    defs = []
    for r in range(1, 11):
        if r < 10:
            body = ("plus", ("call", "chain", f"c{r + 1}", "x"), 1)
            text = f"One more than c{r + 1} of the argument."
        else:
            body = ("times", "x", 2)
            text = "Twice the argument."
        defs.append(Definition("chain", f"c{r}", ("x",), body, text))
    return defs


def _synth_defs(i: int, count: int) -> list[Definition]:
    cd = f"synth{i:02d}"
    defs = []
    for j in range(count):
        a = (i + j) % 7 + 1
        kind = j % 4
        if kind == 0:
            body = ("divide", ("plus", "x", a), "y")
        elif kind == 1:
            body = ("times", ("divide", "x", "y"), a)
        elif kind == 2:
            body = ("plus", ("divide", "x", "y"), a)
        else:
            body = ("plus", ("call", cd, f"f{j - 1:02d}", "x", "y"), a)
        text = (
            f"Synthetic rate {j} of {cd}: scales the ratio of two positive observations "
            f"and shifts it by {a}, as a published statistical indicator would."
        )
        defs.append(Definition(cd, f"f{j:02d}", ("x", "y"), body, text))
    return defs


# ---------------------------------------------------------------------------
# Generated inputs
# ---------------------------------------------------------------------------


@dataclass
class CdInfo:
    name: str
    path: Path
    symbols: tuple[str, ...]


@dataclass
class Inputs:
    """Files for one run and the answers the program must produce."""

    spec: Spec
    dataset: Path
    empty_dataset: Path
    cd_dir: Path
    config: Path
    cds: list[CdInfo]
    verify_exit: int
    verdicts: dict[str, str]  # point IRI -> match | mismatch | uncomputable
    stored: dict[str, float]  # derived point IRI -> stored value
    values: dict[str, float]  # derived point IRI -> reference value
    unchanged: dict[str, float]  # underived point IRI -> stored value
    query: tuple[str, str, str]  # metric function IRI, t1 IRI, t2 IRI
    query_answer: tuple[str, float]  # region IRI, increase


def decimal_text(x: float) -> str:
    text = repr(x)
    if "e" in text or "E" in text:
        text = format(Decimal(text), "f")
    return text


def _derivation(function_iri: str, sources: list[str]) -> str:
    args = " ,\n      ".join(
        f'[ sl:argPosition "{k}"^^xsd:int ; sl:argValue ahs:{s} ]'
        for k, s in enumerate(sources, start=1)
    )
    return f"sl:computedFrom [ sl:function <{function_iri}> ;\n    sl:arguments {args} ]"


def _point(local: str, dims: list[str], value: str | None, derivation: str | None) -> str:
    parts = [f"scv:dimension env:{d}" for d in dims]
    if value is not None:
        parts.append(f'rdf:value "{value}"^^xsd:decimal')
    if derivation is not None:
        parts.append(derivation)
    return f"ahs:{local} " + " ;\n  ".join(parts) + " .\n"


def _perturb(rng: random.Random, x: float) -> float:
    return x * (1 + rng.choice((-1, 1)) * rng.uniform(0.01, 0.05))


def _best(increases: dict[str, float]) -> tuple[str, float] | None:
    """The unique winner, or None when the top two are too close to call."""
    ranked = sorted(increases.items(), key=lambda kv: (-kv[1], kv[0]))
    if len(ranked) > 1 and ranked[0][1] - ranked[1][1] <= 1e-6 * max(1.0, abs(ranked[0][1])):
        return None
    return ranked[0]


def _pick_perturbed(rng: random.Random, ids: list[str], share: float) -> set[str]:
    return set(rng.sample(sorted(ids), max(1, round(share * len(ids)))))


def _flat(spec: Spec, rng: random.Random) -> tuple[str, dict]:
    """R regions x 2 years of P, A and D = arith1#divide(P, A)."""
    function_iri = ARITH1 + "divide"
    while True:
        leaves: dict[str, float] = {}
        leaf_text: dict[str, str] = {}
        derived: dict[str, tuple[str, str, str]] = {}
        values: dict[str, float] = {}
        for r in range(spec.regions):
            for y in YEARS:
                p, a, d = f"pop-{r:03d}-{y}", f"area-{r:03d}-{y}", f"den-{r:03d}-{y}"
                leaf_text[p] = f"{rng.randint(1000, 99999)}.{rng.randint(0, 99):02d}"
                leaf_text[a] = f"{rng.randint(10, 999)}.{rng.randint(1, 9)}"
                leaves[p], leaves[a] = float(leaf_text[p]), float(leaf_text[a])
                derived[d] = (p, a, f"region-{r:03d}")
                values[d] = leaves[p] / leaves[a]
        increases = {
            ENV + f"region-{r:03d}": values[f"den-{r:03d}-{YEARS[1]}"]
            - values[f"den-{r:03d}-{YEARS[0]}"]
            for r in range(spec.regions)
        }
        best = _best(increases)
        if best is not None:
            break

    perturbed = _pick_perturbed(rng, list(derived), spec.perturb_share)
    parts = [PREFIXES, "\n"]
    parts += [f"env:region-{r:03d} a env:Region .\n" for r in range(spec.regions)]
    stored: dict[str, float] = {}
    for local, (p, a, region) in derived.items():
        year = local.rsplit("-", 1)[1]
        parts.append(_point(p, [region, f"year-{year}", "population"], leaf_text[p], None))
        parts.append(_point(a, [region, f"year-{year}", "area"], leaf_text[a], None))
        value = _perturb(rng, values[local]) if local in perturbed else values[local]
        stored_text = decimal_text(value)
        stored[AHS + local] = float(stored_text)
        parts.append(
            _point(
                local,
                [region, f"year-{year}", "density"],
                stored_text,
                _derivation(function_iri, [p, a]),
            )
        )
    verdicts = {AHS + d: "mismatch" if d in perturbed else "match" for d in derived}
    return "".join(parts), {
        "verdicts": verdicts,
        "stored": stored,
        "values": {AHS + d: v for d, v in values.items()},
        "unchanged": {AHS + k: v for k, v in leaves.items()},
        "verify_exit": 1,
        "query": (function_iri, ENV + f"year-{YEARS[0]}", ENV + f"year-{YEARS[1]}"),
        "query_answer": best,
    }


def _chains(spec: Spec, rng: random.Random, table) -> tuple[str, dict]:
    """Groups of 4 leaves, 2 hdi points and a diamond of depth d on top.

    A_0, B_0 are the hdi points; A_k = plus(A_{k-1}, B_{k-1}) and
    B_k = chain#c_r(A_{k-1}).  Only the leaves and the tops A_d, B_d store
    values, so every other derived point is uncomputable for ``verify``.
    """
    hdi_iri = f"{EXAMPLE_CDBASE}/statistics#hdi"
    rotations = ((0, 1, 2, 3), (1, 2, 3, 0))
    while True:
        leaf_text: dict[str, str] = {}
        leaves: dict[str, float] = {}
        values: dict[str, float] = {}
        plan: list[tuple[str, list[str], str, list[str]]] = []  # local, dims, fn, sources
        for g in range(spec.groups):
            group = f"group-{g:02d}"
            names = [f"leaf-{g:02d}-{c}" for c in range(4)]
            for c, name in enumerate(names):
                leaf_text[name] = f"0.{rng.randint(300, 999)}"
                leaves[name] = float(leaf_text[name])
            hdi_points = []
            for year, rot in zip(YEARS, rotations):
                local = f"hdi-{g:02d}-{year}"
                sources = [names[i] for i in rot]
                body = ("call", "statistics", "hdi", *sources)
                values[local] = ref_eval(body, leaves, table)
                plan.append((local, [group, f"year-{year}", "hdi"], hdi_iri, sources))
                hdi_points.append(local)
            prev_a, prev_b = hdi_points
            for k in range(1, spec.depth + 1):
                a, b = f"dia-{g:02d}-a-{k:02d}", f"dia-{g:02d}-b-{k:02d}"
                r = 1 + (3 * k + g) % 10  # fixed shape: only values depend on the seed
                values[a] = values[prev_a] + values[prev_b]
                chain = ("call", "chain", f"c{r}", "x")
                values[b] = ref_eval(chain, {"x": values[prev_a]}, table)
                level = f"level-{k:02d}"
                plan.append((a, [group, "diamond-a", level], ARITH1 + "plus", [prev_a, prev_b]))
                chain_iri = f"{EXAMPLE_CDBASE}/chain#c{r}"
                plan.append((b, [group, "diamond-b", level], chain_iri, [prev_a]))
                prev_a, prev_b = a, b
        increases = {
            ENV + f"group-{g:02d}": values[f"hdi-{g:02d}-{YEARS[1]}"]
            - values[f"hdi-{g:02d}-{YEARS[0]}"]
            for g in range(spec.groups)
        }
        best = _best(increases)
        if best is not None:
            break

    tops = [
        f"dia-{g:02d}-{side}-{spec.depth:02d}" for g in range(spec.groups) for side in "ab"
    ]
    perturbed = _pick_perturbed(rng, tops, spec.perturb_share)
    parts = [PREFIXES, "\n"]
    parts += [f"env:group-{g:02d} a env:Region .\n" for g in range(spec.groups)]
    for name, text in leaf_text.items():
        g, c = name.split("-")[1:]
        parts.append(_point(name, [f"group-{g}", f"component-{c}"], text, None))
    stored: dict[str, float] = {}
    verdicts: dict[str, str] = {}
    for local, dims, fn, sources in plan:
        value_text = None
        if local in tops:
            value = _perturb(rng, values[local]) if local in perturbed else values[local]
            value_text = decimal_text(value)
            stored[AHS + local] = float(value_text)
            verdicts[AHS + local] = "mismatch" if local in perturbed else "match"
        else:
            verdicts[AHS + local] = "uncomputable"
        parts.append(_point(local, dims, value_text, _derivation(fn, sources)))
    return "".join(parts), {
        "verdicts": verdicts,
        "stored": stored,
        "values": {AHS + k: v for k, v in values.items()},
        "unchanged": {AHS + k: v for k, v in leaves.items()},
        "verify_exit": 2,
        "query": (hdi_iri, ENV + f"year-{YEARS[0]}", ENV + f"year-{YEARS[1]}"),
        "query_answer": best,
    }


def generate(spec: Spec, seed: int, workdir: Path) -> Inputs:
    """Write the workload's files under ``workdir``; the same seed gives the same files."""
    rng = random.Random(f"{spec.name}:{seed}")
    cd_dir = workdir / "cds"
    cd_dir.mkdir(parents=True, exist_ok=True)

    groups = [("statistics", "Statistical index functions.", _statistics_defs(), False)]
    groups.append(("chain", "A ten-level acyclic definition chain.", _chain_defs(), False))
    for i in range(spec.synth_cds):
        defs = _synth_defs(i, spec.synth_defs)
        groups.append((f"synth{i:02d}", f"Synthetic indicator CD number {i}.", defs, True))
    table: dict[tuple[str, str], Definition] = {}
    cds = []
    for name, description, defs, links in groups:
        path = cd_dir / f"{name}.ocd"
        path.write_text(_cd_xml(name, description, defs, links), encoding="utf-8")
        cds.append(CdInfo(name, path, tuple(d.name for d in defs)))
        table.update({(d.cd, d.name): d for d in defs})

    if spec.dataset == "chains":
        text, answers = _chains(spec, rng, table)
    else:
        text, answers = _flat(spec, rng)

    dataset = workdir / "dataset.ttl"
    dataset.write_text(text, encoding="utf-8")
    empty = workdir / "empty.ttl"
    empty.write_text(PREFIXES, encoding="utf-8")
    config = workdir / "config.json"
    # cd_dirs must be absolute: the CLI turns it into a file URI.
    config.write_text(json.dumps({"cd_dirs": [str(cd_dir.resolve())]}), encoding="utf-8")
    (workdir / "answers.json").write_text(json.dumps(answers, indent=1), encoding="utf-8")
    return Inputs(
        spec=spec,
        dataset=dataset,
        empty_dataset=empty,
        cd_dir=cd_dir.resolve(),
        config=config,
        cds=cds,
        **answers,
    )
