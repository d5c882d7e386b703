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
to no more than :data:`MAX_PATTERN_SIZE` nodes; one parsed from at most
8 MiB of text is within both as built, so :func:`parse` skips the check.

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
from collections.abc import Iterator
from operator import or_

# detector and bisim are imported where they are used: `vigil monitor` compiles neither
from .sequences import Alphabet, EpsilonViolation, _Record, _require_same_alphabet
from .systems import FAULT, lazy_rows, reachable, unfolding


class SpecError(ValueError):
    """A problem in a constraint spec, with its source position."""

    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"{message} (line {line}, column {col})")


class _Node(_Record):
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
        """The frozen dataclass text, e.g. ``Star(item=Lit(symbol='a'))``, or a
        placeholder for a node that expands to more than
        :data:`MAX_PATTERN_SIZE` nodes."""
        texts: dict = {}
        sizes: dict = {}  # expanded, by id
        for node in self._postorder():
            sizes[id(node)] = 1 + sum(sizes.get(id(p), 0) for p in node._parts())
            if sizes[id(node)] > MAX_PATTERN_SIZE:
                return f"<{type(self).__name__} expanding to more than {MAX_PATTERN_SIZE} nodes>"
            name = node.__match_args__[0]
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


class Lit(_Node):
    __match_args__ = ("symbol",)

    def __init__(self, symbol: str):
        self.__dict__["symbol"] = symbol


class Seq(_Node):
    __match_args__ = ("items",)

    def __init__(self, items: tuple):
        if len(items) < 2:
            raise ValueError("a concatenation needs at least two parts")
        self.__dict__["items"] = items


class Alt(_Node):
    __match_args__ = ("items",)

    def __init__(self, items: tuple):
        if len(items) < 2:
            raise ValueError("an alternation needs at least two branches")
        self.__dict__["items"] = items


class _Unary(_Node):
    __match_args__ = ("item",)

    def __init__(self, item):
        self.__dict__["item"] = item


class Star(_Unary):
    pass


class Plus(_Unary):
    pass


class Opt(_Unary):
    pass


MAX_NESTING = 50
"""Deepest parenthesis nesting a pattern may use.  It bounds the recursion
of everything that walks a parsed pattern (automaton construction,
:func:`pretty`)."""

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


class ConstraintSpec(_Record):
    __match_args__ = ("name", "alphabet", "pattern")

    def __init__(self, name: str, alphabet: Alphabet, pattern):
        _require_small(pattern)
        self.__dict__.update(name=name, alphabet=alphabet, pattern=pattern)


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


_TOKEN = re.compile(r"#[^\n]*|([;|*+?()]|[A-Za-z_][A-Za-z0-9_]*|\S)")
"""A comment, its group empty, or a token: punctuation, a name or a stray
character.  Whitespace matches nothing."""

_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_REPEATS = {"*": Star, "+": Plus, "?": Opt}


def parse(text: str, name: str = "constraint") -> ConstraintSpec:
    """Parse a constraint spec; every error carries its line and column.

    One descent over the tokens as strings, a stack holding the open
    parentheses.  An error tokenizes again for its offset, and is the first
    stray character instead, if there is one."""
    tokens = [*filter(None, _TOKEN.findall(text)), ""]  # "": the end of input

    def fail(message: str, index: int):  # at token ``index``, or the end if past the last
        end = text.find("#", text.rfind("\n") + 1)  # a comment on the last line runs to the end
        offset, count = len(text) if end < 0 else end, 0
        for match in _TOKEN.finditer(text):
            token = match.group()
            if token[0] in _NAME_START or token in ";|*+?()":
                offset = match.start() if count == index else offset
                count += 1
            elif token[0] != "#":
                message, offset = f"unexpected character {token!r}", match.start()
                break
        line_start = text.rfind("\n", 0, offset)
        raise SpecError(message, text.count("\n", 0, offset) + 1, offset - line_start)

    def expect(value: str, index: int) -> int:  # the index after it
        if tokens[index] != value:
            fail(f"expected {value!r}, found {tokens[index] or 'end of input'!r}", index)
        return index + 1

    at = expect("alphabet", 0)
    symbols: dict = {}  # a dict for its order and its hashed lookup
    while tokens[at][:1] in _NAME_START:
        if tokens[at] in symbols:
            fail(f"duplicate alphabet symbol {tokens[at]!r}", at)
        symbols[tokens[at]] = None
        at += 1
    if len(symbols) < 2:
        fail("an alphabet needs at least two symbols", 0)
    at = expect(";", at)
    alphabet = Alphabet._of(tuple(symbols))  # distinct names, two or more: Alphabet's checks hold
    at = expect("violation", at)
    groups = []  # the branches and items of each open parenthesis
    branches, items = [], []  # of the innermost alternation and its last concatenation
    while True:
        token = tokens[at]
        if token in symbols:
            items.append(Lit(token))
            at += 1
        elif token == "(":
            if len(groups) == MAX_NESTING:
                fail(f"parentheses nested deeper than {MAX_NESTING} levels", at)
            groups.append((branches, items))
            branches, items, at = [], [], at + 1
            continue
        elif token[:1] in _NAME_START:
            fail(f"undeclared symbol {token!r}", at)
        elif not items:
            fail(f"expected a symbol or '(', found {token or 'end of input'!r}", at)
        else:  # the end of a concatenation
            branches.append(items[0] if len(items) == 1 else Seq(tuple(items)))
            if token == "|":
                items, at = [], at + 1
                continue
            pattern = branches[0] if len(branches) == 1 else Alt(tuple(branches))
            at = expect(")" if groups else ";", at)
            if not groups:
                break
            branches, items = groups.pop()
            items.append(pattern)
        if (repeat := _REPEATS.get(tokens[at])) is not None:
            items[-1] = repeat(items[-1])
            at += 1
    if tokens[at]:
        fail(f"unexpected trailing input {tokens[at]!r}", at)
    if len(text) > MAX_PATTERN_SIZE // 2:  # else within both bounds as built, so not walked
        return ConstraintSpec(name, alphabet, pattern)
    spec = ConstraintSpec.__new__(ConstraintSpec)
    spec.__dict__.update(name=name, alphabet=alphabet, pattern=pattern)
    return spec


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


class SpecGraph:
    """The subset graph of a pattern's :class:`_Positions` over an
    alphabet, cut at its first matches.  Each walk of it, whole
    (:meth:`unfold`), numbered (:meth:`unfolding`) or linked (:meth:`rows`),
    builds its rows by the one :meth:`expand`.  The pattern must be within
    its size bounds, as a spec's is; one that matches the empty word raises
    :class:`EpsilonViolation`."""

    __slots__ = ("alphabet", "initial", "_end", "_moves", "_table", "_prefix_free")

    def __init__(self, pattern, alphabet: Alphabet):
        positions = _Positions(pattern)
        if positions.initial.bit_length() > positions.end:  # holds end, the highest position
            raise EpsilonViolation("the violation pattern matches the empty observation")
        column = {n: j for j, n in enumerate(alphabet.symbols)}
        k = len(column)  # the column of symbols not in the alphabet, never read
        self._moves = [(column.get(n, k), f) for n, f in zip(positions.symbols, positions.follow)]
        self.alphabet, self.initial, self._end = alphabet, positions.initial, positions.end
        self._table: dict = {}  # bit offset << 5 | byte value -> the byte's follow sets per symbol
        self._prefix_free = True

    def expand(self, subset: int) -> list:
        """A subset's successors on each symbol, ORed from one table entry per
        non-zero byte of it; one that holds ``end`` is :data:`FAULT`, and shows
        that the language is not prefix-free if it holds another position too
        (every position can still reach a match)."""
        table, targets = self._table, None
        while subset:  # from the highest non-zero byte down, so zero bytes cost nothing
            offset = (subset.bit_length() - 1) & ~7
            byte = subset >> offset
            subset ^= byte << offset
            if (found := table.get(offset << 5 | byte)) is None:  # made on first use
                moves, k = self._moves, len(self.alphabet)
                found = [0] * (k + 1)
                for p in range(offset, offset + byte.bit_length()):
                    if byte >> (p - offset) & 1:
                        j, follow = moves[p]
                        if found[j] is not follow:  # a shared mask is not copied
                            found[j] = found[j] | follow if found[j] else follow
                found = table[offset << 5 | byte] = found[:k]
            targets = found if targets is None else list(map(or_, targets, found))
        row, end = [], self._end
        for target in targets or [0] * len(self.alphabet):
            if target.bit_length() > end:  # holds end
                self._prefix_free = self._prefix_free and target.bit_count() == 1
                target = FAULT
            row.append(target)
        return row

    def unfold(self) -> tuple[list, list, bool]:
        """``(order, rows, prefix_free)``: the subsets numbered and rowed by
        :func:`~vigil.systems.reachable` (subset 0 is the safe sink), and whether
        the pattern language is prefix-free, known only once the walk is whole."""
        order, rows = reachable(self.initial, self.expand)
        return order, rows, self._prefix_free

    def unfolding(self) -> Iterator[list]:
        """The rows of :meth:`unfold`, numbered as there, one at a time
        (:func:`~vigil.systems.unfolding`), each built only when a walk asks."""
        return unfolding([self.initial], self.expand)

    def rows(self) -> tuple:
        """``(row, fault)``: the first subset's :class:`~vigil.systems.LazyRow`,
        whose rows are built as a walk reaches them, and the fault row."""
        row_of, fault = lazy_rows(self.alphabet.symbols, self.expand)
        return row_of(self.initial), fault

    def words(self, depth: int) -> list:
        """The minimal violation words up to length ``depth``, as symbol tuples,
        read off the rows of :meth:`unfold` (:func:`~vigil.detector._violation_words`)."""
        from .detector import _violation_words

        return _violation_words(self.unfold()[1], self.alphabet.symbols, depth)


def pattern_dfa(pattern, alphabet: Alphabet):
    """:meth:`SpecGraph.unfold` of a pattern held first to its size bounds:
    (subset order, rows, whether the pattern language is prefix-free)."""
    _require_small(pattern)
    return SpecGraph(pattern, alphabet).unfold()


def prefix_free_kernel(pattern, alphabet: Alphabet) -> RegularPrefixFreeSet:
    """The minimal-bad-prefix language of a pattern: words that match with
    no earlier match on the way, as a minimized automaton.

    Read off the quotient of :func:`pattern_dfa`'s rows, whose runs stop at
    their first match.  When the pattern language is already prefix-free
    this is the language itself.  Accepts a pattern node or an existing
    :class:`~vigil.detector.RegularPrefixFreeSet` (making idempotence
    directly checkable).  A pattern matching the empty word is rejected.
    """
    from .bisim import _minimal_rows
    from .detector import RegularPrefixFreeSet, _automaton

    if isinstance(pattern, RegularPrefixFreeSet):
        _require_same_alphabet(pattern.alphabet, alphabet)
        return pattern.minimized()
    return _automaton(alphabet, _minimal_rows(pattern_dfa(pattern, alphabet)[1]))


def pattern_is_prefix_free(spec: ConstraintSpec) -> bool:
    """Whether the spec's pattern language is already prefix-free, i.e.
    kernelization does not change it."""
    return SpecGraph(spec.pattern, spec.alphabet).unfold()[2]


def compile(spec: ConstraintSpec) -> tuple[FiniteDetector, str]:
    """Compile a spec to its canonical detector.

    The pattern automaton cut at its first matches (:meth:`SpecGraph.unfold`)
    is a detector already; its rows are minimized, and the returned initial
    state is ``"s0"``.
    """
    from .detector import minimal_detector

    return minimal_detector(spec.alphabet, SpecGraph(spec.pattern, spec.alphabet).unfold()[1])
