"""RDF terms, triples, an immutable graph, and a pragmatic Turtle subset.

The Turtle subset covers what SCOVO-style statistical data needs:

  * ``@prefix`` directives and prefixed names
  * absolute ``<...>`` IRIs
  * the ``a`` keyword
  * ``;`` / ``,`` predicate-object lists
  * anonymous ``[...]`` blank nodes, nested at most ``MAX_NESTING`` deep,
    and labelled ``_:x`` ones
  * string, numeric, typed, and language-tagged literals; a ``\\u``/``\\U``
    escape must name a Unicode scalar value (at most U+10FFFF, no surrogate)
  * ``#`` comments

Collections ``( )``, ``@base`` and relative IRIs, and multiline strings are
deliberately not supported.  Numeric shorthand (``693``, ``1.5``, ``2e3``) is
normalized to a typed literal with the matching XSD datatype, so downstream
code only ever sees typed literals.  Blank-node labels are rewritten to
``_:b0``, ``_:b1``, ... in first-seen order, which keeps parses deterministic.

A token keeps only the offset where it starts; a syntax error turns its
offset into the line and column it reports.  A parse interns its terms: it
builds one ``Iri`` per distinct string, so the scheme check runs once per
string, and one ``Literal`` per distinct lexical form, datatype and language.
The tables live only as long as the parse, so two parses share no term
objects.
"""

from __future__ import annotations

import re
from collections.abc import KeysView
from functools import cached_property
from itertools import groupby
from operator import attrgetter

from .errors import ToolkitError
from .value import Value, set_field

RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
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


class Iri(Value):
    """An absolute IRI.  The fragment, if any, is kept verbatim."""

    __slots__ = ("value",)

    def __init__(self, value: str):
        if not value:
            raise ValueError("IRI must be nonempty")
        if not _SCHEME_RE.match(value):
            raise ValueError(f"IRI lacks a scheme: {value!r}")
        set_field(self, "value", value)

    def __str__(self) -> str:
        return self.value


class Literal(Value):
    __slots__ = ("lexical", "datatype", "language")

    def __init__(self, lexical: str, datatype: Iri | None = None, language: str | None = None):
        if datatype is not None and language is not None:
            raise ValueError("a literal cannot have both a datatype and a language tag")
        set_field(self, "lexical", lexical)
        set_field(self, "datatype", datatype)
        set_field(self, "language", language)


class BlankNode(Value):
    __slots__ = ("label",)

    def __init__(self, label: str):
        set_field(self, "label", label)


Term = Iri | Literal | BlankNode


class Triple(Value):
    __slots__ = ("subject", "predicate", "object")

    def __init__(self, subject: Iri | BlankNode, predicate: Iri, object: Term):
        set_field(self, "subject", subject)
        set_field(self, "predicate", predicate)
        set_field(self, "object", object)


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


class Graph(Value):
    """An immutable set of triples plus the prefix map seen at parse time.

    Iteration returns triples in ``term_key`` order of subject, predicate,
    then object.  ``subjects`` and ``objects`` read one table, built in one
    pass over the triples on the first lookup: predicate, then subject, to
    the objects in ``term_key`` order.  The sorted triples and the table are
    each built once per graph and only when first needed, so a graph that is
    only looked up in is never sorted.
    """

    __slots__ = ("triples", "prefixes", "__dict__")  # cached_property needs a __dict__

    def __init__(
        self, triples: frozenset[Triple] = frozenset(), prefixes: dict[str, str] | None = None
    ):
        set_field(self, "triples", triples)
        set_field(self, "prefixes", {} if prefixes is None else prefixes)

    @cached_property
    def _sorted(self) -> tuple[Triple, ...]:
        return tuple(sorted(self.triples, key=_triple_key))

    @cached_property
    def _table(self) -> dict[Iri, dict[Iri | BlankNode, list[Term]]]:
        """Predicate to subject to objects; only a bucket of two or more needs sorting."""
        table: dict[Iri, dict[Iri | BlankNode, list[Term]]] = {}
        for t in self.triples:
            by_subject = table.get(t.predicate)
            if by_subject is None:
                by_subject = table[t.predicate] = {}
            objects = by_subject.get(t.subject)
            if objects is None:
                by_subject[t.subject] = [t.object]
            else:
                objects.append(t.object)
        for by_subject in table.values():
            for objects in by_subject.values():
                if len(objects) > 1:
                    objects.sort(key=term_key)
        return table

    def __iter__(self):
        return iter(self._sorted)

    def subjects(self, predicate: Iri) -> KeysView[Iri | BlankNode]:
        """The subjects with at least one ``predicate`` triple, in no set order."""
        return self._table.get(predicate, {}).keys()

    def objects(self, subject: Iri | BlankNode, predicate: Iri) -> tuple[Term, ...]:
        """The objects of ``subject``'s ``predicate`` triples, in ``term_key`` order."""
        return tuple(self._table.get(predicate, {}).get(subject, ()))


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


# A token: its kind, its value, and the offset where it starts.
_Token = tuple[str, object, int]


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
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        kind, end, value = m.lastgroup, m.end(), None
        if kind == "SKIP":
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
        tokens.append((kind, value, pos))
        pos = end
    tokens.append(("EOF", None, pos))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


MAX_NESTING = 100  # levels of '[' ... ']'; each level takes four parser frames


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0  # the '[' open around the next token
        self.prefixes: dict[str, str] = {}
        self.triples: set[Triple] = set()
        self._bnode_counter = 0
        self._bnode_labels: dict[str, BlankNode] = {}
        # One term per distinct value, for this parse only.
        self._iris: dict[str, Iri] = {}
        self._literals: dict[tuple[str, str | None, str | None], Literal] = {}

    def _kind(self) -> str:
        """The kind of the next token."""
        return self.tokens[self.pos][0]

    def _next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _expected(self, expected: str, tok: _Token | None = None) -> TurtleSyntaxError:
        """A syntax error at ``tok``, by default the next token."""
        return _error(self.text, (self.tokens[self.pos] if tok is None else tok)[2], expected)

    def _take(self, kind: str, expected: str) -> _Token:
        if self._kind() != kind:
            raise self._expected(expected)
        return self._next()

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
        try:
            return self._iri(tok[1])
        except ValueError:  # empty or without a scheme
            raise self._expected(f"an absolute IRI (got <{tok[1]}>)", tok) from None

    def _expand_pname(self, tok: _Token) -> Iri:
        prefix, local = tok[1]
        if prefix not in self.prefixes:
            raise UnknownPrefixError(prefix)
        return self._iri(self.prefixes[prefix] + local)

    def parse(self) -> Graph:
        while (kind := self._kind()) != "EOF":
            if kind == "PREFIX_KW":
                self._prefix_directive()
            else:
                self._triples_statement()
        return Graph(triples=frozenset(self.triples), prefixes=dict(self.prefixes))

    def _prefix_directive(self):
        self._take("PREFIX_KW", "'@prefix'")
        tok = self._take("PNAME", "a prefix name like 'ex:'")
        prefix, local = tok[1]
        if local:
            raise self._expected("a prefix name ending in ':'", tok)
        iri_tok = self._take("IRIREF", "the prefix IRI in <...>")
        self.prefixes[prefix] = self._resolve_iriref(iri_tok).value
        self._take("DOT", "'.' after the prefix directive")

    def _triples_statement(self):
        if self._kind() == "LBRACKET":
            subject = self._bnode_property_list()
            # A bracketed subject may stand alone or carry more predicates.
            if self._kind() == "DOT":
                self.pos += 1
                return
        else:
            subject = self._subject()
        self._predicate_object_list(subject)
        self._take("DOT", "'.' ending the statement")

    def _subject(self) -> Iri | BlankNode:
        kind = self._kind()
        if kind == "IRIREF":
            return self._resolve_iriref(self._next())
        if kind == "PNAME":
            return self._expand_pname(self._next())
        if kind == "BLANK":
            return self._labelled_bnode(self._next()[1])
        raise self._expected("a subject (IRI or blank node)")

    def _predicate_object_list(self, subject: Iri | BlankNode):
        while True:
            predicate = self._verb()
            self._object_list(subject, predicate)
            if self._kind() == "SEMI":
                self.pos += 1
                # Tolerate a dangling ';' before '.' or ']'.
                if self._kind() in ("DOT", "RBRACKET"):
                    return
                continue
            return

    def _verb(self) -> Iri:
        kind = self._kind()
        if kind == "A":
            self.pos += 1
            return self._iri(RDF_TYPE)
        if kind == "IRIREF":
            return self._resolve_iriref(self._next())
        if kind == "PNAME":
            return self._expand_pname(self._next())
        raise self._expected("a predicate (IRI or 'a')")

    def _object_list(self, subject: Iri | BlankNode, predicate: Iri):
        while True:
            obj = self._object()
            self.triples.add(Triple(subject, predicate, obj))
            if self._kind() == "COMMA":
                self.pos += 1
                continue
            return

    def _object(self) -> Term:
        kind = self._kind()
        if kind == "IRIREF":
            return self._resolve_iriref(self._next())
        if kind == "PNAME":
            return self._expand_pname(self._next())
        if kind == "BLANK":
            return self._labelled_bnode(self._next()[1])
        if kind == "LBRACKET":
            return self._bnode_property_list()
        if kind == "NUMBER":
            lexical, datatype = self._next()[1]
            return self._literal(lexical, self._iri(datatype))
        if kind == "STRING":
            return self._literal_tail(self._next()[1])
        raise self._expected("an object (IRI, blank node, or literal)")

    def _literal_tail(self, lexical: str) -> Literal:
        kind = self._kind()
        if kind == "HATHAT":
            self.pos += 1
            kind = self._kind()
            if kind == "IRIREF":
                return self._literal(lexical, self._resolve_iriref(self._next()))
            if kind == "PNAME":
                return self._literal(lexical, self._expand_pname(self._next()))
            raise self._expected("a datatype IRI after '^^'")
        if kind == "LANGTAG":
            return self._literal(lexical, language=self._next()[1])
        return self._literal(lexical)

    def _bnode_property_list(self) -> BlankNode:
        open_tok = self._take("LBRACKET", "'['")
        if self.depth == MAX_NESTING:
            raise self._expected(f"at most {MAX_NESTING} nested '['", open_tok)
        node = self._fresh_bnode()
        if self._kind() == "RBRACKET":
            self.pos += 1
            return node
        self.depth += 1
        self._predicate_object_list(node)
        self.depth -= 1
        if self._kind() != "RBRACKET":
            raise self._expected("']' closing the blank node", open_tok)
        self.pos += 1
        return node


def parse_turtle(text: str) -> Graph:
    """Parse Turtle text into a Graph.

    Prefixed names are expanded eagerly; the result contains only absolute
    IRIs, and a relative ``<...>`` reference is a syntax error.
    """
    return _Parser(text).parse()


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


def _render_term(term: Term, prefixes: dict[str, str], iri_texts: dict[str, str]) -> str:
    """Turtle text of a term; ``iri_texts`` holds each IRI's text rendered so far."""
    if isinstance(term, Iri):
        text = iri_texts.get(term.value)
        if text is None:
            short = _abbreviate(term, prefixes)
            text = iri_texts[term.value] = short if short is not None else f"<{term.value}>"
        return text
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
        datatype = _render_term(term.datatype, prefixes, iri_texts)
        return '"%s"^^%s' % (_escape(term.lexical), datatype)
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

    iri_texts: dict[str, str] = {}
    for subject, group in groupby(graph, key=attrgetter("subject")):
        subject_text = _render_term(subject, graph.prefixes, iri_texts)
        parts = []
        for t in group:
            if t.predicate.value == RDF_TYPE:
                pred = "a"
            else:
                pred = _render_term(t.predicate, graph.prefixes, iri_texts)
            parts.append(f"{pred} {_render_term(t.object, graph.prefixes, iri_texts)}")
        lines.append(f"{subject_text} " + " ;\n    ".join(parts) + " .")
    return "\n".join(lines) + ("\n" if lines else "")

