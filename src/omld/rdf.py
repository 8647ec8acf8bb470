"""RDF terms, triples, an immutable graph, and a pragmatic Turtle subset.

The Turtle subset covers what SCOVO-style statistical data needs:

  * ``@prefix`` directives and prefixed names
  * absolute ``<...>`` IRIs
  * the ``a`` keyword
  * ``;`` / ``,`` predicate-object lists
  * anonymous ``[...]`` and labelled ``_:x`` blank nodes
  * string, numeric, typed, and language-tagged literals; a ``\\u``/``\\U``
    escape must name a Unicode scalar value (at most U+10FFFF, no surrogate)
  * ``#`` comments

Collections ``( )``, ``@base``, and multiline strings are deliberately not
supported.  Numeric shorthand (``693``, ``1.5``, ``2e3``) is normalized to a
typed literal with the matching XSD datatype, so downstream code only ever
sees typed literals.  Blank-node labels are rewritten to ``_:b0``, ``_:b1``,
... in first-seen order, which keeps parses deterministic.

A parse interns its terms: it builds one ``Iri`` per distinct string, so
the scheme check runs once per string, and one ``Literal`` per distinct
lexical form, datatype and language.  The tables live only as long as the
parse, so two parses share no term objects.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby
from operator import attrgetter

from .errors import ToolkitError

RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"
XSD_NS = "http://www.w3.org/2001/XMLSchema#"

RDF_TYPE = RDF_NS + "type"
RDF_VALUE = RDF_NS + "value"
XSD_INTEGER = XSD_NS + "integer"
XSD_DECIMAL = XSD_NS + "decimal"
XSD_DOUBLE = XSD_NS + "double"

_SCHEME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.\-]*:")


class TurtleSyntaxError(ToolkitError):
    def __init__(self, line: int, column: int, expected: str):
        self.line = line
        self.column = column
        self.expected = expected
        super().__init__(f"line {line}, column {column}: expected {expected}")


class UnknownPrefixError(ToolkitError):
    def __init__(self, prefix: str):
        self.prefix = prefix
        super().__init__(f"undeclared prefix {prefix!r}:")


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Iri:
    """An absolute IRI.  The fragment, if any, is kept verbatim."""

    value: str

    def __post_init__(self):
        if not self.value:
            raise ValueError("IRI must be nonempty")
        if not _SCHEME_RE.match(self.value):
            raise ValueError(f"IRI lacks a scheme: {self.value!r}")

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Literal:
    lexical: str
    datatype: Iri | None = None
    language: str | None = None

    def __post_init__(self):
        if self.datatype is not None and self.language is not None:
            raise ValueError("a literal cannot have both a datatype and a language tag")


@dataclass(frozen=True)
class BlankNode:
    label: str


Term = Iri | Literal | BlankNode


@dataclass(frozen=True)
class Triple:
    subject: Iri | BlankNode
    predicate: Iri
    object: Term


def term_key(term: Term) -> str:
    """N-Triples-style rendering, used as the deterministic sort key."""
    if isinstance(term, Iri):
        return f"<{term.value}>"
    if isinstance(term, BlankNode):
        return f"_:{term.label}"
    quoted = '"%s"' % _escape(term.lexical)
    if term.language is not None:
        return f"{quoted}@{term.language}"
    if term.datatype is not None:
        return f"{quoted}^^<{term.datatype.value}>"
    return quoted


def _triple_key(t: Triple) -> tuple[str, str, str]:
    return (term_key(t.subject), term_key(t.predicate), term_key(t.object))


@dataclass(frozen=True)
class Graph:
    """An immutable set of triples plus the prefix map seen at parse time.

    Iteration and ``match`` return triples in ``term_key`` order of subject,
    predicate, then object.  The sorted triples and the indexes that ``match``
    reads (by predicate, and by subject and predicate) are built lazily: once
    per graph, on the first iteration or ``match``, so a graph that is never
    queried pays nothing for them.
    """

    triples: frozenset[Triple] = frozenset()
    prefixes: dict[str, str] = field(default_factory=dict)

    @cached_property
    def _sorted(self) -> tuple[Triple, ...]:
        return tuple(sorted(self.triples, key=_triple_key))

    @cached_property
    def _index(self) -> tuple[dict[Iri, list[Triple]], dict[tuple[Term, Iri], list[Triple]]]:
        """The predicate and (subject, predicate) buckets, each in ``term_key`` order."""
        by_p: dict[Iri, list[Triple]] = {}
        by_sp: dict[tuple[Term, Iri], list[Triple]] = {}
        for t in self._sorted:
            by_p.setdefault(t.predicate, []).append(t)
            by_sp.setdefault((t.subject, t.predicate), []).append(t)
        return by_p, by_sp

    def __len__(self) -> int:
        return len(self.triples)

    def __iter__(self):
        return iter(self._sorted)

    def __contains__(self, triple: Triple) -> bool:
        return triple in self.triples

    def match(
        self,
        subject: Iri | BlankNode | None = None,
        predicate: Iri | None = None,
        object: Term | None = None,
    ) -> list[Triple]:
        """All triples matching the bound positions, in ``term_key`` order; None is a wildcard."""
        if predicate is None:
            candidates = self._sorted
        elif subject is None:
            candidates = self._index[0].get(predicate, ())
        else:
            candidates = self._index[1].get((subject, predicate), ())
            subject = None  # the bucket holds only this subject
        return [
            t
            for t in candidates
            if (subject is None or t.subject == subject)
            and (object is None or t.object == object)
        ]

    def objects(self, subject: Iri | BlankNode, predicate: Iri) -> list[Term]:
        return [t.object for t in self.match(subject, predicate)]


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_INTEGER_RE = re.compile(r"[+-]?[0-9]+$")
_DECIMAL_RE = re.compile(r"[+-]?[0-9]*\.[0-9]+$")
_DOUBLE_RE = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)[eE][+-]?[0-9]+$")
_NUMBER_TYPES = ((_DOUBLE_RE, XSD_DOUBLE), (_DECIMAL_RE, XSD_DECIMAL), (_INTEGER_RE, XSD_INTEGER))

_ESCAPES = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f", '"': '"', "'": "'", "\\": "\\"}

# A string body: characters other than a quote, backslash or newline, and complete escapes.
_STRING_BODY = r"""(?:[^"\\\n]|\\[tbnrf"'\\]|\\u[0-9A-Fa-f]{4}|\\U[0-9A-Fa-f]{8})*"""

# One alternative per token kind, tried in order; only SKIP spans newlines.
# Numerals, '_:' labels and prefixed names take every character that may
# continue them and are checked afterwards.  BAD_STRING (the valid part of
# an unclosed string), BAD_AT and ERROR only ever end in a syntax error.
_TOKEN_RE = re.compile(
    rf"""
      (?P<SKIP>(?:[ \t\r\n]|\#[^\n]*)+)
    | (?P<IRIREF><[^<>\n]*>)
    | (?P<STRING>"{_STRING_BODY}")
    | (?P<BAD_STRING>"{_STRING_BODY})
    | (?P<PREFIX_KW>@prefix)(?![^\W_]|-)
    | (?P<LANGTAG>@[A-Za-z]+(?:-[A-Za-z0-9]+)*)(?![^\W_]|-)
    | (?P<BAD_AT>@)
    | (?P<HATHAT>\^\^)
    | (?P<SEMI>;) | (?P<COMMA>,) | (?P<LBRACKET>\[) | (?P<RBRACKET>\])
    | (?P<NUMBER>(?:[-+0-9]|\.[0-9])(?:[0-9.]|[eE][-+]?)*)
    | (?P<DOT>\.)
    | (?P<BLANK>_:[A-Za-z0-9_-]*)
    | (?P<A>a)(?![A-Za-z0-9_:-])
    | (?P<PNAME>[A-Za-z_:][A-Za-z0-9_:-]*)
    | (?P<ERROR>.)
    """,
    re.VERBOSE | re.DOTALL,
)


@dataclass
class _Token:
    kind: str
    value: object
    line: int
    column: int


def _error(text: str, pos: int, expected: str) -> TurtleSyntaxError:
    """A syntax error at offset ``pos`` of ``text``."""
    return TurtleSyntaxError(text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos), expected)


def _unescape(text: str, start: int, end: int) -> str:
    """The characters of the string body ``text[start:end]``, whose escapes are complete."""
    chars: list[str] = []
    while (slash := text.find("\\", start, end)) >= 0:
        chars.append(text[start:slash])
        esc = text[slash + 1]
        if esc in "uU":
            start = slash + (6 if esc == "u" else 10)
            code = int(text[slash + 2 : start], 16)
            if code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:
                raise _error(text, slash, f"a Unicode scalar value (got {text[slash:start]})")
            chars.append(chr(code))
        else:
            start = slash + 2
            chars.append(_ESCAPES[esc])
    chars.append(text[start:end])
    return "".join(chars)


def _string_error(text: str, start: int, end: int) -> TurtleSyntaxError:
    """Why the string opened at ``start`` stops at ``end``: no closing quote or a bad escape."""
    _unescape(text, start + 1, end)  # an escape naming no character comes first
    if end == len(text) or text[end] == "\n":
        return _error(text, start, "closing '\"' (multiline strings unsupported)")
    esc = text[end + 1 : end + 2]
    if not esc:
        return _error(text, end + 1, "an escape character")
    if esc in "uU":
        width = 4 if esc == "u" else 8
        digits = text[end + 2 : end + 2 + width]
        hex_digits = len(digits) - len(digits.lstrip("0123456789abcdefABCDEF"))
        return _error(text, end + 2 + hex_digits, f"{width} hex digits")
    return _error(text, end + 2, f"a valid escape (got \\{esc})")


def _tokenize(text: str) -> list[_Token]:
    """Split Turtle text into tokens, the last of which is EOF."""
    tokens: list[_Token] = []
    line, line_start, pos = 1, 0, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        kind, end, value = m.lastgroup, m.end(), None
        if kind == "SKIP":
            newlines = text.count("\n", pos, end)
            if newlines:
                line += newlines
                line_start = text.rfind("\n", pos, end) + 1
            pos = end
            continue
        if kind == "PNAME":
            prefix, colon, local = text[pos:end].partition(":")
            if not colon:
                raise _error(text, pos, f"a prefixed name (got bare {prefix!r})")
            if ":" in local:
                raise _error(text, pos, "a prefixed name with a single ':'")
            value = (prefix, local)
        elif kind == "STRING":
            value = _unescape(text, pos + 1, end - 1)
        elif kind == "IRIREF":
            value = text[pos + 1 : end - 1]
        elif kind == "LANGTAG":
            value = text[pos + 1 : end]
            if value == "base":
                raise _error(text, pos, "no '@base' (unsupported directive)")
        elif kind == "NUMBER":
            chars = text[pos:end]
            value = next(((chars, dt) for rx, dt in _NUMBER_TYPES if rx.fullmatch(chars)), None)
            if value is None:
                raise _error(text, pos, f"a numeric literal (got {chars!r})")
        elif kind == "BLANK":
            value = text[pos + 2 : end]
            if not value:
                raise _error(text, pos, "a blank node label after '_:'")
        elif kind == "DOT" and text[end : end + 1].isdigit():  # a non-ASCII digit
            raise _error(text, pos, "a numeric literal (got '.')")
        elif kind == "BAD_STRING":
            raise _string_error(text, pos, end)
        elif kind == "BAD_AT":
            raise _error(text, pos, "a language tag or '@prefix'")
        elif kind == "ERROR":
            c = text[pos]
            if c == "<":
                raise _error(text, pos, "'>' closing the IRI")
            if c == "^":
                raise _error(text, pos + 1, "'^^'")
            raise _error(text, pos, f"a Turtle token (got {c!r})")
        tokens.append(_Token(kind, value, line, pos - line_start + 1))
        pos = end
    tokens.append(_Token("EOF", None, line, pos - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str, base_iri: Iri | None):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.base_iri = base_iri
        self.prefixes: dict[str, str] = {}
        self.triples: set[Triple] = set()
        self._bnode_counter = 0
        self._bnode_labels: dict[str, BlankNode] = {}
        # One term per distinct value, for this parse only.
        self._iris: dict[str, Iri] = {}
        self._literals: dict[tuple[str, str | None, str | None], Literal] = {}

    def _peek(self) -> _Token:
        return self.tokens[self.pos]

    def _take(self, kind: str, expected: str) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind:
            raise TurtleSyntaxError(tok.line, tok.column, expected)
        self.pos += 1
        return tok

    def _fresh_bnode(self) -> BlankNode:
        node = BlankNode(f"b{self._bnode_counter}")
        self._bnode_counter += 1
        return node

    def _labelled_bnode(self, label: str) -> BlankNode:
        if label not in self._bnode_labels:
            self._bnode_labels[label] = self._fresh_bnode()
        return self._bnode_labels[label]

    def _iri(self, text: str) -> Iri:
        """The one Iri of this parse for ``text``."""
        iri = self._iris.get(text)
        if iri is None:
            iri = self._iris[text] = Iri(text)
        return iri

    def _literal(
        self, lexical: str, datatype: Iri | None = None, language: str | None = None
    ) -> Literal:
        """The one Literal of this parse for its lexical form, datatype and language."""
        key = (lexical, None if datatype is None else datatype.value, language)
        literal = self._literals.get(key)
        if literal is None:
            literal = self._literals[key] = Literal(lexical, datatype, language)
        return literal

    def _resolve_iriref(self, tok: _Token) -> Iri:
        text = tok.value
        if text in self._iris or _SCHEME_RE.match(text):
            return self._iri(text)
        if self.base_iri is not None:
            from urllib.parse import urljoin

            return self._iri(urljoin(self.base_iri.value, text))
        raise TurtleSyntaxError(tok.line, tok.column, f"an absolute IRI (got <{text}>)")

    def _expand_pname(self, tok: _Token) -> Iri:
        prefix, local = tok.value
        if prefix not in self.prefixes:
            raise UnknownPrefixError(prefix)
        return self._iri(self.prefixes[prefix] + local)

    def parse(self) -> Graph:
        while self._peek().kind != "EOF":
            if self._peek().kind == "PREFIX_KW":
                self._prefix_directive()
            else:
                self._triples_statement()
        return Graph(triples=frozenset(self.triples), prefixes=dict(self.prefixes))

    def _prefix_directive(self):
        self._take("PREFIX_KW", "'@prefix'")
        tok = self._take("PNAME", "a prefix name like 'ex:'")
        prefix, local = tok.value
        if local:
            raise TurtleSyntaxError(tok.line, tok.column, "a prefix name ending in ':'")
        iri_tok = self._take("IRIREF", "the prefix IRI in <...>")
        self.prefixes[prefix] = self._resolve_iriref(iri_tok).value
        self._take("DOT", "'.' after the prefix directive")

    def _triples_statement(self):
        tok = self._peek()
        if tok.kind == "LBRACKET":
            subject = self._bnode_property_list()
            # A bracketed subject may stand alone or carry more predicates.
            if self._peek().kind == "DOT":
                self.pos += 1
                return
        else:
            subject = self._subject()
        self._predicate_object_list(subject)
        self._take("DOT", "'.' ending the statement")

    def _subject(self) -> Iri | BlankNode:
        tok = self._peek()
        if tok.kind == "IRIREF":
            self.pos += 1
            return self._resolve_iriref(tok)
        if tok.kind == "PNAME":
            self.pos += 1
            return self._expand_pname(tok)
        if tok.kind == "BLANK":
            self.pos += 1
            return self._labelled_bnode(tok.value)
        raise TurtleSyntaxError(tok.line, tok.column, "a subject (IRI or blank node)")

    def _predicate_object_list(self, subject: Iri | BlankNode):
        while True:
            predicate = self._verb()
            self._object_list(subject, predicate)
            if self._peek().kind == "SEMI":
                self.pos += 1
                # Tolerate a dangling ';' before '.' or ']'.
                if self._peek().kind in ("DOT", "RBRACKET"):
                    return
                continue
            return

    def _verb(self) -> Iri:
        tok = self._peek()
        if tok.kind == "A":
            self.pos += 1
            return self._iri(RDF_TYPE)
        if tok.kind == "IRIREF":
            self.pos += 1
            return self._resolve_iriref(tok)
        if tok.kind == "PNAME":
            self.pos += 1
            return self._expand_pname(tok)
        raise TurtleSyntaxError(tok.line, tok.column, "a predicate (IRI or 'a')")

    def _object_list(self, subject: Iri | BlankNode, predicate: Iri):
        while True:
            obj = self._object()
            self.triples.add(Triple(subject, predicate, obj))
            if self._peek().kind == "COMMA":
                self.pos += 1
                continue
            return

    def _object(self) -> Term:
        tok = self._peek()
        if tok.kind == "IRIREF":
            self.pos += 1
            return self._resolve_iriref(tok)
        if tok.kind == "PNAME":
            self.pos += 1
            return self._expand_pname(tok)
        if tok.kind == "BLANK":
            self.pos += 1
            return self._labelled_bnode(tok.value)
        if tok.kind == "LBRACKET":
            return self._bnode_property_list()
        if tok.kind == "NUMBER":
            self.pos += 1
            lexical, datatype = tok.value
            return self._literal(lexical, self._iri(datatype))
        if tok.kind == "STRING":
            self.pos += 1
            return self._literal_tail(tok.value)
        raise TurtleSyntaxError(tok.line, tok.column, "an object (IRI, blank node, or literal)")

    def _literal_tail(self, lexical: str) -> Literal:
        tok = self._peek()
        if tok.kind == "HATHAT":
            self.pos += 1
            dt_tok = self._peek()
            if dt_tok.kind == "IRIREF":
                self.pos += 1
                return self._literal(lexical, self._resolve_iriref(dt_tok))
            if dt_tok.kind == "PNAME":
                self.pos += 1
                return self._literal(lexical, self._expand_pname(dt_tok))
            raise TurtleSyntaxError(dt_tok.line, dt_tok.column, "a datatype IRI after '^^'")
        if tok.kind == "LANGTAG":
            self.pos += 1
            return self._literal(lexical, language=tok.value)
        return self._literal(lexical)

    def _bnode_property_list(self) -> BlankNode:
        open_tok = self._take("LBRACKET", "'['")
        node = self._fresh_bnode()
        if self._peek().kind == "RBRACKET":
            self.pos += 1
            return node
        self._predicate_object_list(node)
        tok = self._peek()
        if tok.kind != "RBRACKET":
            raise TurtleSyntaxError(open_tok.line, open_tok.column, "']' closing the blank node")
        self.pos += 1
        return node


def parse_turtle(text: str, base_iri: Iri | None = None) -> Graph:
    """Parse Turtle text into a Graph.

    Prefixed names are expanded eagerly; the result contains only absolute
    IRIs.  ``base_iri`` is used to resolve relative ``<...>`` references;
    without it, relative references are a syntax error.
    """
    return _Parser(text, base_iri).parse()


# ---------------------------------------------------------------------------
# Serializer
# ---------------------------------------------------------------------------


# Backslash, quote and every control character, as string escapes.
_ESCAPE_TABLE = {c: "\\u%04x" % c for c in range(0x20)} | str.maketrans(
    {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}
)


def _escape(text: str) -> str:
    return text.translate(_ESCAPE_TABLE)


_SAFE_LOCAL_RE = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_\-]*$")


def _abbreviate(iri: Iri, prefixes: dict[str, str]) -> str | None:
    best: tuple[int, str, str] | None = None
    for prefix, ns in prefixes.items():
        if iri.value.startswith(ns) and len(ns) > (best[0] if best else -1):
            local = iri.value[len(ns):]
            if local == "" or _SAFE_LOCAL_RE.fullmatch(local):
                best = (len(ns), prefix, local)
    if best is None:
        return None
    return f"{best[1]}:{best[2]}"


def _render_term(term: Term, prefixes: dict[str, str]) -> str:
    if isinstance(term, Iri):
        short = _abbreviate(term, prefixes)
        return short if short is not None else f"<{term.value}>"
    if isinstance(term, BlankNode):
        return f"_:{term.label}"
    if term.language is not None:
        return '"%s"@%s' % (_escape(term.lexical), term.language)
    if term.datatype is not None:
        dt = term.datatype.value
        if dt == XSD_INTEGER and _INTEGER_RE.fullmatch(term.lexical):
            return term.lexical
        if dt == XSD_DECIMAL and _DECIMAL_RE.fullmatch(term.lexical):
            return term.lexical
        if dt == XSD_DOUBLE and _DOUBLE_RE.fullmatch(term.lexical):
            return term.lexical
        return '"%s"^^%s' % (_escape(term.lexical), _render_term(term.datatype, prefixes))
    return '"%s"' % _escape(term.lexical)


def serialize_turtle(graph: Graph) -> str:
    """Render a Graph as Turtle that re-parses to an isomorphic graph.

    Blank nodes come out with explicit ``_:bN`` labels; triples are grouped
    by subject and emitted in the graph's iteration order, so output is
    deterministic.
    """
    lines: list[str] = []
    for prefix in sorted(graph.prefixes):
        lines.append(f"@prefix {prefix}: <{graph.prefixes[prefix]}> .")
    if lines:
        lines.append("")

    for subject, group in groupby(graph, key=attrgetter("subject")):
        subject_text = _render_term(subject, graph.prefixes)
        parts = []
        for t in group:
            pred = "a" if t.predicate.value == RDF_TYPE else _render_term(t.predicate, graph.prefixes)
            parts.append(f"{pred} {_render_term(t.object, graph.prefixes)}")
        lines.append(f"{subject_text} " + " ;\n    ".join(parts) + " .")
    return "\n".join(lines) + ("\n" if lines else "")

