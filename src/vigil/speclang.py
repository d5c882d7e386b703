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

import re
from dataclasses import dataclass, fields
from operator import or_

from .bisim import _minimal_rows
from .detector import FiniteDetector, RegularPrefixFreeSet, _automaton, minimal_detector
from .sequences import Alphabet, EpsilonViolation
from .systems import FAULT, lazy_rows, reachable


class SpecError(ValueError):
    """A problem in a constraint spec, with its source position."""

    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"{message} (line {line}, column {col})")


class _Node:
    """Structural equality, hashing, ``repr``, pickling and copying of
    pattern nodes, by walks without recursion, so that all of them hold at
    any depth and take a shared node once."""

    def _parts(self) -> tuple:
        return (self.symbol,) if isinstance(self, Lit) else _children(self)

    def _postorder(self) -> list:
        """The distinct nodes under this one, each after its node parts."""
        order, seen = [], {id(self)}
        todo = [(self, iter(self._parts()))]  # each node with its parts left to visit
        while todo:
            node, parts = todo[-1]
            for p in parts:
                if isinstance(p, _Node) and id(p) not in seen:
                    seen.add(id(p))
                    todo.append((p, iter(p._parts())))
                    break
            else:
                todo.pop()
                order.append(node)
        return order

    def _terms(self) -> tuple:
        """The distinct structural subterms under this node, itself last,
        each after its node parts, as (node type, parts): a node part by its
        place in the tuple, any other part as ``(itself,)``.  Nodes that
        differ only in which subterms they share give equal tuples."""
        places: dict = {}  # by id
        terms: dict = {}  # term -> its place
        for node in self._postorder():
            parts = tuple([places[id(p)] if isinstance(p, _Node) else (p,) for p in node._parts()])
            places[id(node)] = terms.setdefault((type(node), parts), len(terms))
        return tuple(terms)

    def __eq__(self, other: object) -> bool:
        """Equal :meth:`_terms`: a pairwise walk, each pair once, up to the first difference."""
        todo, seen = [other, self], set()  # pairs, flat, so no tuple outlives its step
        while todo:
            a, b = todo.pop(), todo.pop()
            if a is b or (pair := id(a) << 64 | id(b)) in seen:  # an int: no collector work
                continue
            seen.add(pair)
            if type(a) is not type(b) or len(pa := a._parts()) != len(pb := b._parts()):
                return False
            for x, y in zip(reversed(pa), reversed(pb)):  # the leftmost pair is taken next
                if isinstance(x, _Node) and isinstance(y, _Node):
                    todo += y, x
                elif isinstance(x, _Node) or isinstance(y, _Node) or not (x is y or x == y):
                    return False
        return True

    def __hash__(self) -> int:
        """The hash of :meth:`_terms`, kept on the node after the first call:
        a node whose ``items`` is a list must not be mutated once hashed."""
        if (h := self.__dict__.get("_hash")) is None:
            h = self.__dict__["_hash"] = hash(self._terms())  # frozen: past __setattr__
        return h

    def __repr__(self) -> str:
        """The dataclass ``repr``, e.g. ``Star(item=Lit(symbol='a'))``, or a
        placeholder for a node that expands to more than
        :data:`MAX_PATTERN_SIZE` nodes."""
        texts: dict = {}
        sizes: dict = {}  # expanded, by id
        for node in self._postorder():
            sizes[id(node)] = 1 + sum(sizes.get(id(p), 0) for p in node._parts())
            if sizes[id(node)] > MAX_PATTERN_SIZE:
                return f"<{type(self).__name__} expanding to more than {MAX_PATTERN_SIZE} nodes>"
            name = fields(node)[0].name
            parts = [texts[id(p)] if isinstance(p, _Node) else repr(p) for p in node._parts()]
            text = ", ".join(parts)
            if isinstance(node, (Seq, Alt)):  # two items or more
                text = f"[{text}]" if isinstance(node.items, list) else f"({text})"
            texts[id(node)] = f"{type(node).__qualname__}({name}={text})"
        return texts[id(self)]

    def __reduce__(self):
        """Pickle and copy as :meth:`_terms`."""
        return _rebuild, (self._terms(),)


def _rebuild(terms: tuple):
    """The node of a :meth:`_Node._terms` tuple: its last term."""
    built = []
    for kind, parts in terms:
        parts = [built[p] if isinstance(p, int) else p[0] for p in parts]
        built.append(kind(tuple(parts)) if issubclass(kind, (Seq, Alt)) else kind(*parts))
    return built[-1]


@dataclass(frozen=True, eq=False, repr=False)
class Lit(_Node):
    symbol: str


@dataclass(frozen=True, eq=False, repr=False)
class Seq(_Node):
    items: tuple

    def __post_init__(self):
        if len(self.items) < 2:
            raise ValueError("a concatenation needs at least two parts")


@dataclass(frozen=True, eq=False, repr=False)
class Alt(_Node):
    items: tuple

    def __post_init__(self):
        if len(self.items) < 2:
            raise ValueError("an alternation needs at least two branches")


@dataclass(frozen=True, eq=False, repr=False)
class Star(_Node):
    item: object


@dataclass(frozen=True, eq=False, repr=False)
class Plus(_Node):
    item: object


@dataclass(frozen=True, eq=False, repr=False)
class Opt(_Node):
    item: object


MAX_NESTING = 50
"""Deepest parenthesis nesting a pattern may use.  It bounds the recursion
of the parser and of everything that walks a parsed pattern (automaton
construction, :func:`pretty`)."""

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
    build or expands to more than :data:`MAX_PATTERN_SIZE` nodes, in one
    walk level by level that keeps each shared node once per level with the
    number of paths from the root to it: their sum is the expanded size."""
    level, size = {id(pattern): (pattern, 1)}, 0
    for _ in range(_MAX_DEPTH):
        below: dict = {}
        for node, paths in level.values():
            size += paths
            for item in _children(node):
                below[id(item)] = item, below.get(id(item), (None, 0))[1] + paths
        if not (level := below):
            break
    else:
        raise ValueError(f"pattern deeper than {_MAX_DEPTH} nodes ({MAX_NESTING} nesting levels)")
    if size > MAX_PATTERN_SIZE:
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


_TOKEN = re.compile(r"(?P<space>\s+)|(?P<comment>#[^\n]*)|(?P<punct>[;|*+?()])"
                    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<char>.)")


class _Parser:
    """A recursive-descent parser over the tokens of a spec, each a (kind,
    value, offset) tuple of kind "name", "punct" or "end"; a token's value
    fixes its kind, so a fixed token is matched by its value alone."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = []
        end = len(text)  # unless a comment runs to it: then its "#"
        for match in _TOKEN.finditer(text):
            kind = match.lastgroup
            if kind == "name" or kind == "punct":
                self.tokens.append((kind, match.group(), match.start()))
            elif kind == "char":
                self.fail(f"unexpected character {match.group()!r}", match.start())
            elif kind == "comment" and match.end() == len(text):
                end = match.start()
        self.tokens.append(("end", "", end))
        self.pos = 0
        self.depth = 0

    def fail(self, message: str, offset: int):
        """Raise a :class:`SpecError` at ``offset`` of the text."""
        line_start = self.text.rfind("\n", 0, offset)
        raise SpecError(message, self.text.count("\n", 0, offset) + 1, offset - line_start)

    def peek(self) -> tuple:
        return self.tokens[self.pos]

    def take(self) -> tuple:
        tok = self.tokens[self.pos]
        if tok[0] != "end":
            self.pos += 1
        return tok

    def expect(self, value: str) -> tuple:
        _, found, offset = self.peek()
        if found != value:
            self.fail(f"expected {value!r}, found {found or 'end of input'!r}", offset)
        return self.take()

    def parse_spec(self, name: str) -> ConstraintSpec:
        keyword = self.expect("alphabet")
        symbols: dict = {}  # a dict for its order and its hashed lookup
        while self.peek()[0] == "name":
            _, symbol, offset = self.take()
            if symbol in symbols:
                self.fail(f"duplicate alphabet symbol {symbol!r}", offset)
            symbols[symbol] = None
        if len(symbols) < 2:
            self.fail("an alphabet needs at least two symbols", keyword[2])
        self.expect(";")
        alphabet = Alphabet(symbols)
        self.expect("violation")
        pattern = self.parse_alt(alphabet)
        self.expect(";")
        kind, value, offset = self.peek()
        if kind != "end":
            self.fail(f"unexpected trailing input {value!r}", offset)
        return ConstraintSpec(name, alphabet, pattern)

    def parse_alt(self, alphabet: Alphabet):
        parts = [self.parse_seq(alphabet)]
        while self.peek()[1] == "|":
            self.take()
            parts.append(self.parse_seq(alphabet))
        return parts[0] if len(parts) == 1 else Alt(tuple(parts))

    def parse_seq(self, alphabet: Alphabet):
        items = [self.parse_rep(alphabet)]
        while self.peek()[0] == "name" or self.peek()[1] == "(":
            items.append(self.parse_rep(alphabet))
        return items[0] if len(items) == 1 else Seq(tuple(items))

    def parse_rep(self, alphabet: Alphabet):
        atom = self.parse_atom(alphabet)
        op = {"*": Star, "+": Plus, "?": Opt}.get(self.peek()[1])
        if op is None:
            return atom
        self.take()
        return op(atom)

    def parse_atom(self, alphabet: Alphabet):
        kind, value, offset = self.take()
        if kind == "name":
            if value not in alphabet:
                self.fail(f"undeclared symbol {value!r}", offset)
            return Lit(value)
        if value == "(":
            if self.depth == MAX_NESTING:
                self.fail(f"parentheses nested deeper than {MAX_NESTING} levels", offset)
            self.depth += 1
            inner = self.parse_alt(alphabet)
            self.depth -= 1
            self.expect(")")
            return inner
        self.fail(f"expected a symbol or '(', found {value or 'end of input'!r}", offset)


def parse(text: str, name: str = "constraint") -> ConstraintSpec:
    """Parse a constraint spec; every error carries its line and column."""
    return _Parser(text).parse_spec(name)


class _Positions:
    """Position (Glushkov) automaton of a pattern, for the subset
    construction.

    Each literal occurrence is a position, numbered left to right, that
    reads its ``symbols`` entry; the number after the last position,
    ``end``, marks a completed match.  A set of positions is an int, bit
    ``p`` for position ``p``: a subset holds the positions that may read the
    next symbol, and ``end`` when the input read so far matches.  Reading a
    position's symbol leads to its ``follow`` set: a move unites fixed sets.
    """

    def __init__(self, pattern):
        self.follow: list[int] = []
        self.symbols: list[str] = []
        nullable, first, last = self.scan(pattern)
        self.end = len(self.follow)
        self.extend(last, 1 << self.end)
        self.initial = first | 1 << self.end if nullable else first
        self.prefix_free = True

    def scan(self, node) -> tuple[bool, int, list]:
        """Whether ``node`` matches the empty word, its first positions and a
        list of its last ones; fills ``follow`` for the positions inside it."""
        if isinstance(node, Lit):
            p = len(self.follow)
            self.follow.append(0)
            self.symbols.append(node.symbol)
            return False, 1 << p, [p]
        if isinstance(node, Alt):
            nullable, first, last = False, 0, []
            for item in node.items:
                item_nullable, item_first, item_last = self.scan(item)
                nullable = nullable or item_nullable
                first |= item_first
                last += item_last
            return nullable, first, last
        if isinstance(node, Seq):
            nullable, first, last = True, 0, []
            for item in node.items:
                item_nullable, item_first, item_last = self.scan(item)
                self.extend(last, item_first)
                first = first | item_first if nullable else first
                last = last + item_last if item_nullable else item_last
                nullable = nullable and item_nullable
            return nullable, first, last
        if isinstance(node, (Star, Plus, Opt)):
            nullable, first, last = self.scan(node.item)
            if not isinstance(node, Opt):  # a repetition loops back
                self.extend(last, first)
            return nullable or not isinstance(node, Plus), first, last
        raise TypeError(f"not a pattern node: {node!r}")

    def extend(self, positions: list, mask: int):
        """Unite ``mask`` into the follow sets of ``positions``, once per shared set."""
        done: dict = {}  # id of an old follow set -> (it, kept alive; its union with mask)
        for p in positions:
            old = self.follow[p]
            got = done.get(id(old)) or done.setdefault(id(old), (old, old | mask if old else mask))
            self.follow[p] = got[1]

    def expander(self, alphabet: Alphabet):
        """A subset's successors on each symbol of ``alphabet``, ORed from
        one table entry per non-zero byte of it; one that matches is
        :data:`FAULT`, and turns ``prefix_free`` false if a position besides
        ``end`` extends the match (every position can still reach a match).
        A pattern that matches the empty word raises :class:`EpsilonViolation`."""
        end = self.end
        if self.initial.bit_length() > end:  # holds end, the highest position
            raise EpsilonViolation("the violation pattern matches the empty observation")
        column = {n: j for j, n in enumerate(alphabet.symbols)}
        k = len(column)  # the column of symbols not in the alphabet, never read
        moves = [(column.get(n, k), f) for n, f in zip(self.symbols, self.follow)]
        table: dict = {}  # bit offset << 5 | byte value -> the byte's follow sets per symbol

        def expand(subset: int) -> list:
            targets = None
            while subset:  # from the highest non-zero byte down, so zero bytes cost nothing
                offset = (subset.bit_length() - 1) & ~7
                byte = subset >> offset
                subset ^= byte << offset
                if (found := table.get(offset << 5 | byte)) is None:  # made on first use
                    found = [0] * (k + 1)
                    for p in range(offset, offset + byte.bit_length()):
                        if byte >> (p - offset) & 1:
                            j, follow = moves[p]
                            if found[j] is not follow:  # a shared mask is not copied
                                found[j] = found[j] | follow if found[j] else follow
                    found = table[offset << 5 | byte] = found[:k]
                targets = found if targets is None else list(map(or_, targets, found))
            row = []
            for target in targets or [0] * k:
                if target.bit_length() > end:  # holds end
                    self.prefix_free = self.prefix_free and target.bit_count() == 1
                    target = FAULT
                row.append(target)
            return row

        return expand


def pattern_dfa(pattern, alphabet: Alphabet):
    """Subset-construction automaton of a pattern's position automaton,
    cut at its first matches: a step into a matching subset faults.

    Returns (subset order, rows, whether the pattern language is
    prefix-free), the subsets (:class:`_Positions` bitmasks) numbered and
    rowed by :func:`~vigil.systems.reachable`; 0 is the safe sink.
    :func:`compile` and :func:`pattern_is_prefix_free` take it from a
    caller that needs both.
    A pattern matching the empty word raises :class:`EpsilonViolation`.
    """
    _require_small(pattern)
    return _pattern_dfa(pattern, alphabet)


def _pattern_dfa(pattern, alphabet: Alphabet):
    """:func:`pattern_dfa` of a pattern already held to size, as a spec's is."""
    positions = _Positions(pattern)
    order, rows = reachable(positions.initial, positions.expander(alphabet))
    return order, rows, positions.prefix_free


def subset_rows(spec: ConstraintSpec) -> tuple:
    """``(row, fault)``: the :class:`~vigil.systems.LazyRow` of the first
    subset of :func:`pattern_dfa`, whose rows are built only as a walk
    reaches them, and its fault row.  Walks give the verdicts of
    :func:`compile`'s detector, and an epsilon pattern raises as there."""
    positions = _Positions(spec.pattern)
    row_of, fault = lazy_rows(spec.alphabet.symbols, positions.expander(spec.alphabet))
    return row_of(positions.initial), fault


def prefix_free_kernel(pattern, alphabet: Alphabet) -> RegularPrefixFreeSet:
    """The minimal-bad-prefix language of a pattern: words that match with
    no earlier match on the way, as a minimized automaton.

    Read off the quotient of :func:`pattern_dfa`'s rows, whose runs stop at
    their first match.  When the pattern language is already prefix-free
    this is the language itself.  Accepts a pattern node or an existing
    :class:`RegularPrefixFreeSet` (making idempotence directly checkable).
    A pattern matching the empty word is rejected.
    """
    if isinstance(pattern, RegularPrefixFreeSet):
        if pattern.alphabet != alphabet:
            raise ValueError("alphabet mismatch")
        return pattern.minimized()
    return _automaton(alphabet, _minimal_rows(pattern_dfa(pattern, alphabet)[1]))


def pattern_is_prefix_free(spec: ConstraintSpec, dfa=None) -> bool:
    """Whether the spec's pattern language is already prefix-free, i.e.
    kernelization does not change it.  ``dfa``: the pattern's
    :func:`pattern_dfa`, when the caller has it."""
    return (dfa or _pattern_dfa(spec.pattern, spec.alphabet))[2]


def compile(spec: ConstraintSpec, dfa=None) -> tuple[FiniteDetector, str]:
    """Compile a spec to its canonical detector.

    The pattern automaton cut at its first matches (``dfa``: the pattern's
    :func:`pattern_dfa`, when the caller has it) is a detector already;
    its rows are minimized, and the returned initial state is ``"s0"``.
    """
    rows = (dfa or _pattern_dfa(spec.pattern, spec.alphabet))[1]
    return minimal_detector(spec.alphabet, rows)
