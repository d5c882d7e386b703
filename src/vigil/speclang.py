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

The pattern denotes an arbitrary regular word set; compilation first
normalizes it to its *kernel* — the words that match without any earlier
match on the way, i.e. the minimal bad prefixes — and then builds the
detector for that prefix-free language.  A pattern matching the empty word
is rejected: the empty observation cannot be a violation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .detector import (
    FiniteDetector,
    RegularPrefixFreeSet,
    canonical_form,
    detector_from_regular,
    first_prefix_pair,
    subset_automaton,
)
from .sequences import Alphabet, EpsilonViolation


class SpecError(ValueError):
    """A problem in a constraint spec, with its source position."""

    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"{message} (line {line}, column {col})")


@dataclass(frozen=True)
class Lit:
    symbol: str


@dataclass(frozen=True)
class Seq:
    items: tuple

    def __post_init__(self):
        if len(self.items) < 2:
            raise ValueError("a concatenation needs at least two parts")


@dataclass(frozen=True)
class Alt:
    items: tuple

    def __post_init__(self):
        if len(self.items) < 2:
            raise ValueError("an alternation needs at least two branches")


@dataclass(frozen=True)
class Star:
    item: object


@dataclass(frozen=True)
class Plus:
    item: object


@dataclass(frozen=True)
class Opt:
    item: object


RegexAst = (Lit, Seq, Alt, Star, Plus, Opt)


@dataclass(frozen=True)
class ConstraintSpec:
    name: str
    alphabet: Alphabet
    pattern: object


def pretty(node) -> str:
    """Canonical concrete syntax of a pattern; ``parse`` inverts it."""

    def wrap(child, forbid) -> str:
        body = pretty(child)
        return f"({body})" if isinstance(child, forbid) else body

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
            self.take()
            inner = self.parse_alt(alphabet)
            self.expect_punct(")")
            return inner
        raise SpecError(
            f"expected a symbol or '(', found {tok.value or 'end of input'!r}",
            tok.line, tok.col,
        )


def parse(text: str, name: str = "constraint") -> ConstraintSpec:
    """Parse a constraint spec; every error carries its line and column."""
    return _Parser(_lex(text)).parse_spec(name)


class _Nfa:
    """Fragment-style automaton with epsilon moves, for pattern lowering."""

    def __init__(self):
        self.count = 0
        self.eps: dict[int, set[int]] = {}
        self.sym: dict[tuple[int, str], set[int]] = {}

    def state(self) -> int:
        self.count += 1
        return self.count - 1

    def add_eps(self, q: int, r: int) -> None:
        self.eps.setdefault(q, set()).add(r)

    def add_sym(self, q: int, n: str, r: int) -> None:
        self.sym.setdefault((q, n), set()).add(r)

    def fragment(self, node) -> tuple[int, int]:
        if isinstance(node, Lit):
            s, e = self.state(), self.state()
            self.add_sym(s, node.symbol, e)
            return s, e
        if isinstance(node, Seq):
            first_s, cur_e = self.fragment(node.items[0])
            for item in node.items[1:]:
                s, e = self.fragment(item)
                self.add_eps(cur_e, s)
                cur_e = e
            return first_s, cur_e
        if isinstance(node, Alt):
            s, e = self.state(), self.state()
            for item in node.items:
                fs, fe = self.fragment(item)
                self.add_eps(s, fs)
                self.add_eps(fe, e)
            return s, e
        if isinstance(node, (Star, Plus, Opt)):
            s, e = self.state(), self.state()
            fs, fe = self.fragment(node.item)
            self.add_eps(s, fs)
            self.add_eps(fe, e)
            if isinstance(node, (Star, Opt)):
                self.add_eps(s, e)
            if isinstance(node, (Star, Plus)):
                self.add_eps(fe, fs)
            return s, e
        raise TypeError(f"not a pattern node: {node!r}")

    def closure(self, states) -> frozenset:
        seen = set(states)
        stack = list(seen)
        while stack:
            q = stack.pop()
            for r in self.eps.get(q, ()):
                if r not in seen:
                    seen.add(r)
                    stack.append(r)
        return frozenset(seen)

    def move(self, subset, n: str) -> frozenset:
        """The ε-closure of the ``n``-successors of a subset."""
        return self.closure(r for q in subset for r in self.sym.get((q, n), ()))


def _pattern_dfa(pattern, alphabet: Alphabet):
    """Complete subset-construction automaton of a pattern.

    Returns (subset order, transition table, initial subset, acceptance
    test); the empty subset is the dead sink.
    """
    nfa = _Nfa()
    start, end = nfa.fragment(pattern)
    initial = nfa.closure({start})
    order, table = subset_automaton(initial, alphabet, nfa.move)
    return order, table, initial, (lambda subset: end in subset)


def prefix_free_kernel(pattern, alphabet: Alphabet) -> RegularPrefixFreeSet:
    """The minimal-bad-prefix language of a pattern: words that match with
    no earlier match on the way.

    Implemented on the pattern automaton by cutting every run at its first
    acceptance: all transitions out of accepting states are redirected into
    one absorbing accepting state.  When the pattern language is already
    prefix-free this is the language itself.  Accepts a pattern node or an
    existing :class:`RegularPrefixFreeSet` (making idempotence directly
    checkable).  A pattern matching the empty word is rejected.
    """
    if isinstance(pattern, RegularPrefixFreeSet):
        if pattern.alphabet != alphabet:
            raise ValueError("alphabet mismatch")
        order = list(pattern.states)
        table = pattern.transitions
        initial = pattern.initial
        accepting = lambda q: q == pattern.accept
    else:
        order, table, initial, accepting = _pattern_dfa(pattern, alphabet)
    if accepting(initial):
        raise EpsilonViolation("the violation pattern matches the empty observation")
    rename = {q: i for i, q in enumerate(q for q in order if not accepting(q))}
    acc = len(rename)
    kernel_table = {}
    for q, i in rename.items():
        for n in alphabet:
            target = table[(q, n)]
            kernel_table[(i, n)] = acc if accepting(target) else rename[target]
    for n in alphabet:
        kernel_table[(acc, n)] = acc
    raw = RegularPrefixFreeSet(
        alphabet, list(range(acc + 1)), rename[initial], acc, kernel_table
    )
    return raw.minimized()


def pattern_is_prefix_free(spec: ConstraintSpec) -> bool:
    """Whether the spec's pattern language is already prefix-free, i.e.
    kernelization does not change it."""
    order, table, _, accepting = _pattern_dfa(spec.pattern, spec.alphabet)
    return first_prefix_pair(order, table, spec.alphabet, accepting) is None


def compile(spec: ConstraintSpec) -> tuple[FiniteDetector, str]:
    """Compile a spec to its canonical detector.

    The pattern is kernelized to its minimal bad prefixes, the kernel
    automaton is read as a detector (entering its accepting state faults),
    and that detector is minimized; the returned initial state is ``"s0"``.
    """
    kernel = prefix_free_kernel(spec.pattern, spec.alphabet)
    return canonical_form(*detector_from_regular(kernel))
