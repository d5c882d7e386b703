"""Alphabets, finite words, and eventually periodic event streams.

This module is the ground vocabulary of the toolkit: notification tokens are
grouped into an :class:`Alphabet`, finite observations are :class:`Word`
values, and complete (infinite) behaviours are represented as lasso streams,
i.e. a finite prefix followed by a period repeated forever.  On top of these
it provides the word-set operations everything else is built from: symbol
derivatives, prefix-freeness, and the first-symbol decomposition of a
prefix-free set.

All values are immutable and hashable; operations are pure functions.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable, Iterator


class AlphabetMismatchError(ValueError):
    """Raised when values over different alphabets are combined."""


class PrefixFreeViolation(ValueError):
    """A word set that must be prefix-free contains a word and a proper
    prefix of it.  ``shorter`` and ``longer`` carry the witness pair."""

    def __init__(self, shorter: "Word", longer: "Word"):
        self.shorter = shorter
        self.longer = longer
        super().__init__(
            f"not prefix-free: {shorter.text() or 'the empty word'!r} "
            f"is a proper prefix of {longer.text()!r}"
        )


class EpsilonViolation(ValueError):
    """The empty word appeared where only nonempty violation words make
    sense (violation languages never contain the empty word)."""


def is_token(text) -> bool:
    """Whether ``text`` can stand as one token of the text formats (symbols,
    state names): a nonempty string without whitespace, ';', ':', '#' or
    '->'."""
    return (
        isinstance(text, str) and bool(text) and not any(ch.isspace() for ch in text)
        and not set(text) & {";", ":", "#"} and "->" not in text
    )


class Alphabet:
    """An ordered finite set of notification tokens.

    Iteration follows declaration order, which fixes every symbol ordering
    used elsewhere (word sorting, automaton construction, CLI output).  At
    least two distinct symbols are required.
    """

    __slots__ = ("symbols", "_index")

    def __init__(self, symbols: Iterable[str]):
        symbols = tuple(symbols)
        for s in symbols:
            if not is_token(s):
                if not isinstance(s, str) or not s:
                    raise ValueError(f"alphabet symbol must be a nonempty string, got {s!r}")
                raise ValueError(
                    f"alphabet symbol {s!r} may not contain whitespace, ';', ':', '#' or '->'"
                )
        if len(set(symbols)) != len(symbols):
            raise ValueError(f"duplicate alphabet symbols in {symbols!r}")
        if len(symbols) < 2:
            raise ValueError("an alphabet needs at least two symbols")
        self.symbols = symbols
        self._index = {s: i for i, s in enumerate(symbols)}

    def index(self, symbol: str) -> int:
        """The place of ``symbol`` in declaration order.  Every step that
        takes one symbol checks it with this call."""
        try:
            return self._index[symbol]
        except KeyError:
            raise ValueError(f"symbol {symbol!r} is not in alphabet {self.symbols}") from None

    def __contains__(self, symbol: object) -> bool:
        return symbol in self._index

    def __iter__(self) -> Iterator[str]:
        return iter(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def __eq__(self, other: object) -> bool:
        return self is other or isinstance(other, Alphabet) and self.symbols == other.symbols

    def __hash__(self) -> int:
        return hash(self.symbols)

    def __repr__(self) -> str:
        return f"Alphabet({list(self.symbols)!r})"

    def word(self, text: str = "") -> "Word":
        """Parse a word from whitespace-separated tokens ('' is the empty word)."""
        return Word(self, text.split())

    def lasso(self, text: str) -> "LassoStream":
        """Parse a lasso literal ``prefix-tokens ; period-tokens``."""
        if text.count(";") != 1:
            raise ValueError(f"lasso literal needs exactly one ';': {text!r}")
        prefix, period = text.split(";")
        return LassoStream(self, self.word(prefix), self.word(period))


def _require_same_alphabet(a: Alphabet, b: Alphabet) -> None:
    if a != b:
        raise AlphabetMismatchError(f"alphabet mismatch: {a!r} vs {b!r}")


class Word:
    """A finite, possibly empty sequence of alphabet tokens."""

    __slots__ = ("alphabet", "symbols")

    def __init__(self, alphabet: Alphabet, symbols: Iterable[str] = ()):
        symbols = tuple(symbols)
        for s in symbols:
            if s not in alphabet:
                raise ValueError(f"token {s!r} is not in alphabet {alphabet.symbols}")
        self.alphabet = alphabet
        self.symbols = symbols

    def __len__(self) -> int:
        return len(self.symbols)

    def __bool__(self) -> bool:
        return bool(self.symbols)

    def __iter__(self) -> Iterator[str]:
        return iter(self.symbols)

    def __getitem__(self, k: int) -> str:
        return self.symbols[k]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Word)
            and self.symbols == other.symbols
            and self.alphabet == other.alphabet
        )

    def __hash__(self) -> int:
        return hash(self.symbols)

    def __repr__(self) -> str:
        return f"Word({self.text()!r})"

    def text(self) -> str:
        """Whitespace-separated token rendering; the empty word renders as ''."""
        return " ".join(self.symbols)

    def sort_key(self) -> tuple:
        """Length-then-lexicographic key, lexicographic in declaration order."""
        return _sort_keys(self.alphabet, (self.symbols,))[0]


def _sort_keys(alphabet: Alphabet, words: tuple) -> tuple:
    """:meth:`Word.sort_key` of each symbol tuple in ``words``, computed
    without a Python-level call per word."""
    index = repeat(alphabet._index.__getitem__)
    return tuple(zip(map(len, words), map(tuple, map(map, index, words))))


def _word(alphabet: Alphabet, symbols: tuple) -> Word:
    """The word of ``symbols``, already checked against ``alphabet``, built
    without checking them again."""
    word = object.__new__(Word)
    word.alphabet, word.symbols = alphabet, symbols
    return word


def _primitive_root(symbols: tuple[str, ...]) -> tuple[str, ...]:
    n = len(symbols)
    for d in range(1, n + 1):
        if n % d == 0 and symbols[:d] * (n // d) == symbols:
            return symbols[:d]
    return symbols


class LassoStream:
    """An eventually periodic stream: ``prefix`` then ``period`` forever.

    The representation is canonicalized on construction (primitive period,
    shortest prefix), so structural equality coincides with equality of the
    streams the values denote.
    """

    __slots__ = ("alphabet", "prefix", "period")

    def __init__(self, alphabet: Alphabet, prefix: Word, period: Word):
        _require_same_alphabet(alphabet, prefix.alphabet)
        _require_same_alphabet(alphabet, period.alphabet)
        if len(period) == 0:
            raise ValueError("lasso period must be nonempty")
        per = _primitive_root(period.symbols)
        pre = prefix.symbols
        # absorb prefix symbols that already agree with the loop
        while pre and pre[-1] == per[-1]:
            per = per[-1:] + per[:-1]
            pre = pre[:-1]
        self.alphabet = alphabet
        self.prefix = Word(alphabet, pre)
        self.period = Word(alphabet, per)

    def at(self, k: int) -> str:
        """The token at position ``k`` (defined for every k >= 0)."""
        if k < 0:
            raise ValueError("stream position must be nonnegative")
        if k < len(self.prefix):
            return self.prefix[k]
        return self.period[(k - len(self.prefix)) % len(self.period)]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LassoStream)
            and self.alphabet == other.alphabet
            and self.prefix == other.prefix
            and self.period == other.period
        )

    def __hash__(self) -> int:
        return hash((self.alphabet, self.prefix, self.period))

    def __repr__(self) -> str:
        return f"LassoStream({self.text()!r})"

    def text(self) -> str:
        """Lasso literal rendering ``prefix ; period`` (prefix may be empty)."""
        return f"{self.prefix.text()} ; {self.period.text()}".strip()


class FiniteWordSet:
    """A finite set of words over one alphabet, kept as one tuple of symbol
    tuples in word order (length-then-lexicographic in declaration order)
    and its frozenset, hashed once; ``words`` holds the members as
    :class:`Word` values, built on first use."""

    __slots__ = ("alphabet", "_key", "_members", "_words")

    def __init__(self, alphabet: Alphabet, words: Iterable[Word] = ()):
        members = set()
        for w in words:
            _require_same_alphabet(alphabet, w.alphabet)
            members.add(w.symbols)
        members = tuple(members)
        ordered = sorted(zip(_sort_keys(alphabet, members), members))  # no two keys tie
        key = tuple(w for _, w in ordered)
        self.alphabet, self._key, self._members, self._words = alphabet, key, frozenset(key), None

    @classmethod
    def _of(cls, alphabet: Alphabet, key: tuple) -> "FiniteWordSet":
        """The set of the symbol tuples in ``key``, which are already checked
        against ``alphabet``, distinct and in word order."""
        new = object.__new__(cls)
        new.alphabet, new._key, new._members, new._words = alphabet, key, frozenset(key), None
        return new

    @classmethod
    def from_texts(cls, alphabet: Alphabet, texts: Iterable[str]) -> "FiniteWordSet":
        return cls(alphabet, (alphabet.word(t) for t in texts))

    @property
    def words(self) -> tuple:
        """The members as :class:`Word` values, in word order."""
        if self._words is None:
            self._words = tuple(_word(self.alphabet, symbols) for symbols in self._key)
        return self._words

    def __contains__(self, w: object) -> bool:
        return isinstance(w, Word) and w.symbols in self._members and w.alphabet == self.alphabet

    def __iter__(self) -> Iterator[Word]:
        return iter(self.words)

    def __len__(self) -> int:
        return len(self._key)

    def __eq__(self, other: object) -> bool:
        return self is other or isinstance(other, FiniteWordSet) and (
            self._members == other._members and self.alphabet == other.alphabet)

    def __hash__(self) -> int:
        return hash(self._members)

    def __repr__(self) -> str:
        return f"FiniteWordSet({{{', '.join(repr(' '.join(w)) for w in self._key)}}})"


def concat(u: Word, t):
    """Concatenate a word onto a word or a lasso stream.

    Appending to a word yields a word; appending to a lasso extends its
    prefix.  Both arguments must share an alphabet.
    """
    if isinstance(t, Word):
        _require_same_alphabet(u.alphabet, t.alphabet)
        return _word(u.alphabet, u.symbols + t.symbols)
    if isinstance(t, LassoStream):
        _require_same_alphabet(u.alphabet, t.alphabet)
        return LassoStream(u.alphabet, _word(u.alphabet, u.symbols + t.prefix.symbols), t.period)
    raise TypeError(f"cannot concatenate onto {type(t).__name__}")


def slice_from(s, m: int):
    """Drop the first ``m`` positions of a word or lasso.

    A lasso stays a lasso: once the prefix is consumed, the period rotates.
    Slicing a word past its end yields the empty word.
    """
    if m < 0:
        raise ValueError("slice offset must be nonnegative")
    if isinstance(s, Word):
        return Word(s.alphabet, s.symbols[m:])
    if isinstance(s, LassoStream):
        if m <= len(s.prefix):
            return LassoStream(s.alphabet, Word(s.alphabet, s.prefix.symbols[m:]), s.period)
        r = (m - len(s.prefix)) % len(s.period)
        rotated = s.period.symbols[r:] + s.period.symbols[:r]
        return LassoStream(s.alphabet, Word(s.alphabet), Word(s.alphabet, rotated))
    raise TypeError(f"cannot slice {type(s).__name__}")


def slice_range(s, m: int, l: int) -> Word:
    """The word of positions ``m`` up to (excluding) ``l``, truncated to
    wherever ``s`` is defined.  ``slice_range(s, 0, m)`` is the length-m
    prefix of a stream."""
    if m < 0 or l < 0:
        raise ValueError("slice bounds must be nonnegative")
    if isinstance(s, Word):
        return Word(s.alphabet, s.symbols[m:max(m, l)])
    if isinstance(s, LassoStream):
        pre, per = s.prefix.symbols, s.period.symbols
        turns = max(0, -((len(pre) - l) // len(per)))  # periods enough to reach position l
        return Word(s.alphabet, (pre + per * turns)[m:max(m, l)])
    raise TypeError(f"cannot slice {type(s).__name__}")


def derivative_set(n: str, a: FiniteWordSet) -> FiniteWordSet:
    """All words that remain after reading ``n`` from a member of ``a``:
    exactly {u | n u in a}, still in word order."""
    a.alphabet.index(n)
    return FiniteWordSet._of(a.alphabet, tuple(w[1:] for w in a._key if w and w[0] == n))


def is_prefix_free(a: FiniteWordSet) -> bool:
    """True iff no member of ``a`` has a proper prefix that is also a member.

    The empty word is a proper prefix of every nonempty word, so a
    prefix-free set containing it can only be the singleton of it.
    """
    return _find_prefix_pair(a) is None


def _find_prefix_pair(a: FiniteWordSet) -> tuple[Word, Word] | None:
    lex = sorted(a._key)  # a member that is a proper prefix sorts just before an extension
    if all(u != v[:len(u)] for u, v in zip(lex, lex[1:])):
        return None
    members = a._members
    for w in a._key:
        for m in range(len(w)):
            if w[:m] in members:
                return _word(a.alphabet, w[:m]), _word(a.alphabet, w)
    return None


def require_prefix_free(a: FiniteWordSet) -> None:
    """Raise :class:`PrefixFreeViolation` / :class:`EpsilonViolation` unless
    ``a`` is a valid violation language (prefix-free, no empty word)."""
    if () in a._members:
        raise EpsilonViolation("violation languages may not contain the empty word")
    pair = _find_prefix_pair(a)
    if pair is not None:
        raise PrefixFreeViolation(*pair)


def decompose(p: FiniteWordSet) -> tuple[frozenset, dict]:
    """Split a prefix-free set by first symbol.

    Returns the set of symbols that are themselves (one-letter) members, and
    for every other symbol ``n`` its derivative ``{u | n u in p}``.  The
    original set is exactly the disjoint union of the one-letter members and
    the symbol-prefixed derivative parts.
    """
    require_prefix_free(p)
    heads = frozenset(n for n in p.alphabet if (n,) in p._members)
    parts = {n: derivative_set(n, p) for n in p.alphabet if n not in heads}
    return heads, parts
