"""RDF terms, triples, an immutable graph, and a pragmatic Turtle subset.

The Turtle subset covers what SCOVO-style statistical data needs:

  * ``@prefix`` directives and prefixed names
  * absolute ``<...>`` IRIs
  * the ``a`` keyword
  * ``;`` / ``,`` predicate-object lists
  * anonymous ``[...]`` and labelled ``_:x`` blank nodes
  * string, numeric, typed, and language-tagged literals
  * ``#`` comments

Collections ``( )``, ``@base``, and multiline strings are deliberately not
supported.  Numeric shorthand (``693``, ``1.5``, ``2e3``) is normalized to a
typed literal with the matching XSD datatype, so downstream code only ever
sees typed literals.  Blank-node labels are rewritten to ``_:b0``, ``_:b1``,
... in first-seen order, which keeps parses deterministic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

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
    """An immutable set of triples plus the prefix map seen at parse time."""

    triples: frozenset[Triple] = frozenset()
    prefixes: dict[str, str] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.triples)

    def __iter__(self):
        return iter(sorted(self.triples, key=_triple_key))

    def __contains__(self, triple: Triple) -> bool:
        return triple in self.triples

    def match(
        self,
        subject: Iri | BlankNode | None = None,
        predicate: Iri | None = None,
        object: Term | None = None,
    ) -> list[Triple]:
        """All triples matching the bound positions; None is a wildcard."""
        found = [
            t
            for t in self.triples
            if (subject is None or t.subject == subject)
            and (predicate is None or t.predicate == predicate)
            and (object is None or t.object == object)
        ]
        found.sort(key=_triple_key)
        return found

    def objects(self, subject: Iri | BlankNode, predicate: Iri) -> list[Term]:
        return [t.object for t in self.match(subject, predicate)]


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_INTEGER_RE = re.compile(r"[+-]?[0-9]+$")
_DECIMAL_RE = re.compile(r"[+-]?[0-9]*\.[0-9]+$")
_DOUBLE_RE = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)[eE][+-]?[0-9]+$")

_PNAME_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-")
_NUMBER_START = set("0123456789+-.")

_ESCAPES = {
    "t": "\t",
    "b": "\b",
    "n": "\n",
    "r": "\r",
    "f": "\f",
    '"': '"',
    "'": "'",
    "\\": "\\",
}


@dataclass
class _Token:
    kind: str
    value: object
    line: int
    column: int


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1

    def error(self, expected: str) -> TurtleSyntaxError:
        return TurtleSyntaxError(self.line, self.col, expected)

    def _peek(self, offset: int = 0) -> str | None:
        j = self.pos + offset
        return self.text[j] if j < len(self.text) else None

    def _advance(self) -> str:
        c = self.text[self.pos]
        self.pos += 1
        if c == "\n":
            self.line += 1
            self.col = 1
        else:
            self.col += 1
        return c

    def tokens(self) -> list[_Token]:
        out: list[_Token] = []
        while True:
            tok = self._next()
            out.append(tok)
            if tok.kind == "EOF":
                return out

    def _next(self) -> _Token:
        while True:
            c = self._peek()
            if c is None:
                return _Token("EOF", None, self.line, self.col)
            if c in " \t\r\n":
                self._advance()
                continue
            if c == "#":
                while self._peek() not in (None, "\n"):
                    self._advance()
                continue
            break

        line, col = self.line, self.col
        c = self._peek()

        if c == "<":
            return self._iriref(line, col)
        if c == '"':
            return self._string(line, col)
        if c == "@":
            return self._at_word(line, col)
        if c == "^":
            self._advance()
            if self._peek() == "^":
                self._advance()
                return _Token("HATHAT", None, line, col)
            raise self.error("'^^'")
        punct = {";": "SEMI", ",": "COMMA", "[": "LBRACKET", "]": "RBRACKET"}
        if c in punct:
            self._advance()
            return _Token(punct[c], None, line, col)
        if c == ".":
            # A dot only starts a number when a digit follows (e.g. ".5e0").
            nxt = self._peek(1)
            if nxt is None or not nxt.isdigit():
                self._advance()
                return _Token("DOT", None, line, col)
            return self._number(line, col)
        if c == "_" and self._peek(1) == ":":
            return self._blank_label(line, col)
        if c in _NUMBER_START:
            return self._number(line, col)
        if c in _PNAME_CHARS or c == ":":
            return self._pname_or_keyword(line, col)
        raise self.error(f"a Turtle token (got {c!r})")

    def _iriref(self, line: int, col: int) -> _Token:
        self._advance()  # '<'
        chars: list[str] = []
        while True:
            c = self._peek()
            if c is None or c in "\n<":
                raise TurtleSyntaxError(line, col, "'>' closing the IRI")
            self._advance()
            if c == ">":
                break
            chars.append(c)
        return _Token("IRIREF", "".join(chars), line, col)

    def _string(self, line: int, col: int) -> _Token:
        self._advance()  # opening quote
        chars: list[str] = []
        while True:
            c = self._peek()
            if c is None or c == "\n":
                raise TurtleSyntaxError(line, col, "closing '\"' (multiline strings unsupported)")
            self._advance()
            if c == '"':
                break
            if c == "\\":
                esc = self._peek()
                if esc is None:
                    raise TurtleSyntaxError(self.line, self.col, "an escape character")
                self._advance()
                if esc in _ESCAPES:
                    chars.append(_ESCAPES[esc])
                elif esc in "uU":
                    width = 4 if esc == "u" else 8
                    digits = ""
                    for _ in range(width):
                        d = self._peek()
                        if d is None or d not in "0123456789abcdefABCDEF":
                            raise TurtleSyntaxError(self.line, self.col, f"{width} hex digits")
                        digits += self._advance()
                    chars.append(chr(int(digits, 16)))
                else:
                    raise TurtleSyntaxError(self.line, self.col, f"a valid escape (got \\{esc})")
            else:
                chars.append(c)
        return _Token("STRING", "".join(chars), line, col)

    def _at_word(self, line: int, col: int) -> _Token:
        self._advance()  # '@'
        word = ""
        while (c := self._peek()) is not None and (c.isalnum() or c == "-"):
            word += self._advance()
        if word == "prefix":
            return _Token("PREFIX_KW", None, line, col)
        if word == "base":
            raise TurtleSyntaxError(line, col, "no '@base' (unsupported directive)")
        if re.fullmatch(r"[A-Za-z]+(-[A-Za-z0-9]+)*", word):
            return _Token("LANGTAG", word, line, col)
        raise TurtleSyntaxError(line, col, "a language tag or '@prefix'")

    def _blank_label(self, line: int, col: int) -> _Token:
        self._advance()
        self._advance()  # '_:'
        label = ""
        while (c := self._peek()) is not None and c in _PNAME_CHARS:
            label += self._advance()
        if not label:
            raise TurtleSyntaxError(line, col, "a blank node label after '_:'")
        return _Token("BLANK", label, line, col)

    def _number(self, line: int, col: int) -> _Token:
        chars = ""
        while (c := self._peek()) is not None and (c in "0123456789+-.eE"):
            # '+'/'-' are only legal at the start or right after an exponent marker.
            if c in "+-" and chars and chars[-1] not in "eE":
                break
            chars += self._advance()
        if _DOUBLE_RE.fullmatch(chars):
            return _Token("NUMBER", (chars, XSD_DOUBLE), line, col)
        if _DECIMAL_RE.fullmatch(chars):
            return _Token("NUMBER", (chars, XSD_DECIMAL), line, col)
        if _INTEGER_RE.fullmatch(chars):
            return _Token("NUMBER", (chars, XSD_INTEGER), line, col)
        raise TurtleSyntaxError(line, col, f"a numeric literal (got {chars!r})")

    def _pname_or_keyword(self, line: int, col: int) -> _Token:
        chars = ""
        while (c := self._peek()) is not None and (c in _PNAME_CHARS or c == ":"):
            chars += self._advance()
        if ":" in chars:
            prefix, local = chars.split(":", 1)
            if ":" in local:
                raise TurtleSyntaxError(line, col, "a prefixed name with a single ':'")
            return _Token("PNAME", (prefix, local), line, col)
        if chars == "a":
            return _Token("A", None, line, col)
        raise TurtleSyntaxError(line, col, f"a prefixed name (got bare {chars!r})")


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str, base_iri: Iri | None):
        self.tokens = _Tokenizer(text).tokens()
        self.pos = 0
        self.base_iri = base_iri
        self.prefixes: dict[str, str] = {}
        self.triples: set[Triple] = set()
        self._bnode_counter = 0
        self._bnode_labels: dict[str, BlankNode] = {}

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

    def _resolve_iriref(self, tok: _Token) -> Iri:
        text = tok.value
        if _SCHEME_RE.match(text):
            return Iri(text)
        if self.base_iri is not None:
            from urllib.parse import urljoin

            return Iri(urljoin(self.base_iri.value, text))
        raise TurtleSyntaxError(tok.line, tok.column, f"an absolute IRI (got <{text}>)")

    def _expand_pname(self, tok: _Token) -> Iri:
        prefix, local = tok.value
        if prefix not in self.prefixes:
            raise UnknownPrefixError(prefix)
        return Iri(self.prefixes[prefix] + local)

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
            return Iri(RDF_TYPE)
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
            return Literal(lexical, datatype=Iri(datatype))
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
                return Literal(lexical, datatype=self._resolve_iriref(dt_tok))
            if dt_tok.kind == "PNAME":
                self.pos += 1
                return Literal(lexical, datatype=self._expand_pname(dt_tok))
            raise TurtleSyntaxError(dt_tok.line, dt_tok.column, "a datatype IRI after '^^'")
        if tok.kind == "LANGTAG":
            self.pos += 1
            return Literal(lexical, language=tok.value)
        return Literal(lexical)

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


def _escape(text: str) -> str:
    out = []
    for c in text:
        if c == "\\":
            out.append("\\\\")
        elif c == '"':
            out.append('\\"')
        elif c == "\n":
            out.append("\\n")
        elif c == "\r":
            out.append("\\r")
        elif c == "\t":
            out.append("\\t")
        elif ord(c) < 0x20:
            out.append("\\u%04x" % ord(c))
        else:
            out.append(c)
    return "".join(out)


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
    by subject and emitted in sorted order, so output is deterministic.
    """
    lines: list[str] = []
    for prefix in sorted(graph.prefixes):
        lines.append(f"@prefix {prefix}: <{graph.prefixes[prefix]}> .")
    if lines:
        lines.append("")

    by_subject: dict[str, list[Triple]] = {}
    for t in graph.triples:
        by_subject.setdefault(term_key(t.subject), []).append(t)

    for key in sorted(by_subject):
        group = sorted(by_subject[key], key=_triple_key)
        subject_text = _render_term(group[0].subject, graph.prefixes)
        parts = []
        for t in group:
            pred = "a" if t.predicate.value == RDF_TYPE else _render_term(t.predicate, graph.prefixes)
            parts.append(f"{pred} {_render_term(t.object, graph.prefixes)}")
        lines.append(f"{subject_text} " + " ;\n    ".join(parts) + " .")
    return "\n".join(lines) + ("\n" if lines else "")

