"""The constraint specification language.

A spec declares an alphabet of notification tokens and a violation
pattern — a classical regular expression over those tokens::

    # door controller: closing twice in a row is a fault
    alphabet open close ;
    violation (open | close)* close close ;

Grammar (whitespace between tokens is insignificant, ``#`` starts a line
comment)::

    spec   := "alphabet" symbol+ ";" "violation" regex ";"
    regex  := seq ("|" seq)*
    seq    := rep+
    rep    := atom ("*" | "+" | "?")?
    atom   := symbol | "(" regex ")"
    symbol := [A-Za-z_][A-Za-z0-9_]*

Parentheses nest at most :data:`MAX_NESTING` levels deep.  A pattern
built in code may be no deeper than the parser can build, and may expand
to no more than :data:`MAX_PATTERN_SIZE` nodes.

The pattern denotes an arbitrary regular word set.  Compilation reads it
as a position automaton (one state per literal occurrence, no ε-moves)
and determinizes it in one walk that never goes past a first match: the
subsets walked are the states of a detector for the pattern's *kernel* —
the words that match without any earlier match on the way, i.e. the
minimal bad prefixes.  A pattern matching the empty word is rejected: the
empty observation cannot be a violation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .detector import (
    FiniteDetector,
    RegularPrefixFreeSet,
    anamorphism_regular,
    minimal_detector,
    reachable,
)
from .sequences import Alphabet, EpsilonViolation
from .systems import FAULT


class SpecError(ValueError):
    """A problem in a constraint spec, with its source position."""

    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"{message} (line {line}, column {col})")


class _Node:
    """Structural equality and hashing of pattern nodes, by walks without
    recursion, so that both hold at any depth and take a shared node once."""

    def _parts(self) -> tuple:
        return (self.symbol,) if isinstance(self, Lit) else _children(self)

    def __eq__(self, other: object) -> bool:
        todo, seen = [(self, other)], set()
        while todo:
            a, b = todo.pop()
            if a is b or (id(a), id(b)) in seen:
                continue
            seen.add((id(a), id(b)))
            if type(a) is not type(b) or not isinstance(a, _Node) and a != b:
                return False
            if isinstance(a, _Node):
                if len(a._parts()) != len(b._parts()):
                    return False
                todo += zip(a._parts(), b._parts())
        return True

    def __hash__(self) -> int:
        hashes: dict = {}  # by id; a part that is no node stands for itself
        todo = [self]
        while todo:
            node = todo.pop()
            fresh = [p for p in node._parts() if isinstance(p, _Node) and id(p) not in hashes]
            if fresh:
                todo += [node, *fresh]
            else:
                hashes[id(node)] = hash((type(node), *(hashes.get(id(p), p) for p in node._parts())))
        return hashes[id(self)]


@dataclass(frozen=True, eq=False)
class Lit(_Node):
    symbol: str


@dataclass(frozen=True, eq=False)
class Seq(_Node):
    items: tuple

    def __post_init__(self):
        if len(self.items) < 2:
            raise ValueError("a concatenation needs at least two parts")


@dataclass(frozen=True, eq=False)
class Alt(_Node):
    items: tuple

    def __post_init__(self):
        if len(self.items) < 2:
            raise ValueError("an alternation needs at least two branches")


@dataclass(frozen=True, eq=False)
class Star(_Node):
    item: object


@dataclass(frozen=True, eq=False)
class Plus(_Node):
    item: object


@dataclass(frozen=True, eq=False)
class Opt(_Node):
    item: object


MAX_NESTING = 50
"""Deepest parenthesis nesting a pattern may use.  It bounds the recursion
of the parser and of everything that walks a parsed pattern (automaton
construction, :func:`pretty`, equality)."""

_MAX_DEPTH = 3 * (MAX_NESTING + 1) + 1
"""Nodes on the longest path down a parsed pattern: an alternation, a
concatenation and a repetition per level, the top one too, then a literal."""


MAX_PATTERN_SIZE = 1 << 24
"""Most nodes a pattern may expand to, a node shared by several parents
counted once per parent.  A parsed pattern has fewer nodes than twice the
characters of its spec, so any spec up to 8 MiB passes; a pattern built in
code from shared nodes can double its expansion per level, and this keeps
the automaton construction and :func:`pretty` from expanding it."""


def _children(node) -> tuple:
    if isinstance(node, (Seq, Alt)):
        return node.items
    if isinstance(node, (Star, Plus, Opt)):
        return (node.item,)
    return ()


def _require_small(pattern) -> None:
    """Raise ``ValueError`` if ``pattern`` is deeper than :func:`parse` can
    build, walking it level by level (shared nodes once per level), or
    expands to more than :data:`MAX_PATTERN_SIZE` nodes, counting each
    shared node's expansion once."""
    level = {id(pattern): pattern}
    for _ in range(_MAX_DEPTH):
        level = {id(item): item for node in level.values() for item in _children(node)}
        if not level:
            break
    else:
        raise ValueError(f"pattern deeper than {_MAX_DEPTH} nodes ({MAX_NESTING} nesting levels)")
    sizes: dict[int, int] = {}

    def size(node) -> int:  # recursion no deeper than the walk above
        if id(node) not in sizes:
            sizes[id(node)] = 1 + sum(map(size, _children(node)))
        return sizes[id(node)]

    if size(pattern) > MAX_PATTERN_SIZE:
        raise ValueError(f"pattern expands to more than {MAX_PATTERN_SIZE} nodes")


@dataclass(frozen=True)
class ConstraintSpec:
    name: str
    alphabet: Alphabet
    pattern: object

    def __post_init__(self):
        _require_small(self.pattern)


def pretty(node) -> str:
    """Canonical concrete syntax of a pattern; ``parse`` inverts it."""
    _require_small(node)

    def show(node) -> str:
        if isinstance(node, Lit):
            return node.symbol
        if isinstance(node, Alt):
            return " | ".join(wrap(i, (Alt,)) for i in node.items)
        if isinstance(node, Seq):
            return " ".join(wrap(i, (Alt, Seq)) for i in node.items)
        if isinstance(node, (Star, Plus, Opt)):
            op = {Star: "*", Plus: "+", Opt: "?"}[type(node)]
            return wrap(node.item, (Alt, Seq, Star, Plus, Opt)) + op
        raise TypeError(f"not a pattern node: {node!r}")

    def wrap(child, forbid) -> str:
        body = show(child)
        return f"({body})" if isinstance(child, forbid) else body

    return show(node)


@dataclass(frozen=True)
class _Token:
    kind: str  # "name", "punct" or "end"
    value: str
    line: int
    col: int


_PUNCT = set(";|*+?()")
_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_NAME_CONT = _NAME_START | set("0123456789")


def _lex(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch.isspace():
            col += 1
            i += 1
        elif ch == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
        elif ch in _PUNCT:
            tokens.append(_Token("punct", ch, line, col))
            col += 1
            i += 1
        elif ch in _NAME_START:
            start = i
            start_col = col
            while i < len(text) and text[i] in _NAME_CONT:
                i += 1
                col += 1
            tokens.append(_Token("name", text[start:i], line, start_col))
        else:
            raise SpecError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "end":
            self.pos += 1
        return tok

    def expect_punct(self, value: str) -> _Token:
        tok = self.peek()
        if tok.kind != "punct" or tok.value != value:
            raise SpecError(f"expected {value!r}, found {tok.value or 'end of input'!r}",
                            tok.line, tok.col)
        return self.take()

    def expect_keyword(self, word: str) -> _Token:
        tok = self.peek()
        if tok.kind != "name" or tok.value != word:
            raise SpecError(f"expected {word!r}, found {tok.value or 'end of input'!r}",
                            tok.line, tok.col)
        return self.take()

    def parse_spec(self, name: str) -> ConstraintSpec:
        kw = self.expect_keyword("alphabet")
        symbols = []
        seen = set()
        while self.peek().kind == "name":
            tok = self.take()
            if tok.value in seen:
                raise SpecError(f"duplicate alphabet symbol {tok.value!r}", tok.line, tok.col)
            seen.add(tok.value)
            symbols.append(tok.value)
        if len(symbols) < 2:
            raise SpecError("an alphabet needs at least two symbols", kw.line, kw.col)
        self.expect_punct(";")
        alphabet = Alphabet(symbols)
        self.expect_keyword("violation")
        pattern = self.parse_alt(alphabet)
        self.expect_punct(";")
        tail = self.peek()
        if tail.kind != "end":
            raise SpecError(f"unexpected trailing input {tail.value!r}", tail.line, tail.col)
        return ConstraintSpec(name, alphabet, pattern)

    def parse_alt(self, alphabet: Alphabet):
        parts = [self.parse_seq(alphabet)]
        while self.peek().kind == "punct" and self.peek().value == "|":
            self.take()
            parts.append(self.parse_seq(alphabet))
        return parts[0] if len(parts) == 1 else Alt(tuple(parts))

    def parse_seq(self, alphabet: Alphabet):
        items = [self.parse_rep(alphabet)]
        while self.peek().kind == "name" or (
            self.peek().kind == "punct" and self.peek().value == "("
        ):
            items.append(self.parse_rep(alphabet))
        return items[0] if len(items) == 1 else Seq(tuple(items))

    def parse_rep(self, alphabet: Alphabet):
        atom = self.parse_atom(alphabet)
        tok = self.peek()
        if tok.kind == "punct" and tok.value in "*+?":
            self.take()
            return {"*": Star, "+": Plus, "?": Opt}[tok.value](atom)
        return atom

    def parse_atom(self, alphabet: Alphabet):
        tok = self.peek()
        if tok.kind == "name":
            self.take()
            if tok.value not in alphabet:
                raise SpecError(f"undeclared symbol {tok.value!r}", tok.line, tok.col)
            return Lit(tok.value)
        if tok.kind == "punct" and tok.value == "(":
            if self.depth == MAX_NESTING:
                raise SpecError(
                    f"parentheses nested deeper than {MAX_NESTING} levels", tok.line, tok.col
                )
            self.take()
            self.depth += 1
            inner = self.parse_alt(alphabet)
            self.depth -= 1
            self.expect_punct(")")
            return inner
        raise SpecError(
            f"expected a symbol or '(', found {tok.value or 'end of input'!r}",
            tok.line, tok.col,
        )


def parse(text: str, name: str = "constraint") -> ConstraintSpec:
    """Parse a constraint spec; every error carries its line and column."""
    return _Parser(_lex(text)).parse_spec(name)


class _Positions:
    """Position (Glushkov) automaton of a pattern, for the subset
    construction.

    Each literal occurrence is a position, numbered left to right, that
    reads its ``symbols`` entry; the number after the last position,
    ``end``, marks a completed match.  A subset holds the positions that
    may read the next symbol, and ``end`` when the input read so far
    matches.  Reading a position's symbol leads to its ``follow`` set, so a
    subset's move is a union of sets fixed once per pattern.
    """

    def __init__(self, pattern):
        self.follow: list[set] = []
        self.symbols: list[str] = []
        nullable, first, last = self.scan(pattern)
        self.end = len(self.follow)
        for p in last:
            self.follow[p].add(self.end)
        self.initial = frozenset(first | {self.end} if nullable else first)
        self.prefix_free = True

    def scan(self, node) -> tuple[bool, set, set]:
        """Whether ``node`` matches the empty word, and its first and last
        positions; fills ``follow`` for the positions inside ``node``."""
        if isinstance(node, Lit):
            p = len(self.follow)
            self.follow.append(set())
            self.symbols.append(node.symbol)
            return False, {p}, {p}
        if isinstance(node, Alt):
            nullable, first, last = False, set(), set()
            for item in node.items:
                item_nullable, item_first, item_last = self.scan(item)
                nullable = nullable or item_nullable
                first |= item_first
                last |= item_last
            return nullable, first, last
        if isinstance(node, Seq):
            nullable, first, last = True, set(), set()
            for item in node.items:
                item_nullable, item_first, item_last = self.scan(item)
                for p in last:
                    self.follow[p] |= item_first
                if nullable:
                    first |= item_first
                last = last | item_last if item_nullable else item_last
                nullable = nullable and item_nullable
            return nullable, first, last
        if isinstance(node, (Star, Plus, Opt)):
            nullable, first, last = self.scan(node.item)
            if not isinstance(node, Opt):  # a repetition loops back
                for p in last:
                    self.follow[p] |= first
            return nullable or not isinstance(node, Plus), first, last
        raise TypeError(f"not a pattern node: {node!r}")

    def expander(self, alphabet: Alphabet):
        """A subset's successors on each symbol of ``alphabet``, in one pass
        over its positions; one that matches is :data:`FAULT`, and turns
        ``prefix_free`` false if a position besides ``end`` extends the
        match (every position can still reach a match)."""
        column = {n: j for j, n in enumerate(alphabet.symbols)}
        k = len(column)  # the column of symbols not in the alphabet, never read
        moves = [(column.get(n, k), frozenset(f)) for n, f in zip(self.symbols, self.follow)]
        end = self.end

        def expand(subset) -> list:
            groups = [[] for _ in range(k + 1)]
            for p in subset:
                j, follow = moves[p]
                groups[j].append(follow)
            targets = [group[0] if len(group) == 1 else frozenset().union(*group)
                       for group in groups[:k]]
            for j, target in enumerate(targets):
                if end in target:
                    self.prefix_free = self.prefix_free and len(target) == 1
                    targets[j] = FAULT
            return targets

        return expand


def pattern_dfa(pattern, alphabet: Alphabet):
    """Subset-construction automaton of a pattern's position automaton,
    cut at its first matches: a step into a matching subset faults.

    Returns (subset order, rows, whether the pattern language is
    prefix-free), the subsets numbered and rowed by
    :func:`~vigil.detector.reachable`; the empty subset is the safe sink.
    :func:`compile` and :func:`pattern_is_prefix_free` take it from a
    caller that needs both.
    A pattern matching the empty word raises :class:`EpsilonViolation`.
    """
    _require_small(pattern)
    positions = _Positions(pattern)
    if positions.end in positions.initial:
        raise EpsilonViolation("the violation pattern matches the empty observation")
    order, rows = reachable(positions.initial, positions.expander(alphabet))
    return order, rows, positions.prefix_free


def prefix_free_kernel(pattern, alphabet: Alphabet) -> RegularPrefixFreeSet:
    """The minimal-bad-prefix language of a pattern: words that match with
    no earlier match on the way, as a minimized automaton.

    Implemented by :func:`compile`, whose pattern automaton stops every run
    at its first match.  When the pattern language is already prefix-free
    this is the language itself.  Accepts a pattern node or an existing
    :class:`RegularPrefixFreeSet` (making idempotence directly checkable).
    A pattern matching the empty word is rejected.
    """
    if isinstance(pattern, RegularPrefixFreeSet):
        if pattern.alphabet != alphabet:
            raise ValueError("alphabet mismatch")
        return pattern.minimized()
    return anamorphism_regular(*compile(ConstraintSpec("kernel", alphabet, pattern)))


def pattern_is_prefix_free(spec: ConstraintSpec, dfa=None) -> bool:
    """Whether the spec's pattern language is already prefix-free, i.e.
    kernelization does not change it.  ``dfa``: the pattern's
    :func:`pattern_dfa`, when the caller has it."""
    return (dfa or pattern_dfa(spec.pattern, spec.alphabet))[2]


def compile(spec: ConstraintSpec, dfa=None) -> tuple[FiniteDetector, str]:
    """Compile a spec to its canonical detector.

    The pattern automaton cut at its first matches (``dfa``: the pattern's
    :func:`pattern_dfa`, when the caller has it) is a detector already;
    its rows are minimized, and the returned initial state is ``"s0"``.
    """
    rows = (dfa or pattern_dfa(spec.pattern, spec.alphabet))[1]
    return minimal_detector(spec.alphabet, rows)
