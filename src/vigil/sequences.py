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

from collections.abc import Iterable, Iterator
from itertools import repeat


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


class _Record:
    """A frozen record whose fields are its ``__match_args__``: equal to a
    record of the same class with equal fields, hashed by its fields, and
    shown and matched as a frozen dataclass of those fields would be.  Each
    record's ``__init__`` writes its fields into ``__dict__``."""

    __match_args__: tuple = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__match_args__])
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


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

    @classmethod
    def _of(cls, symbols: tuple) -> "Alphabet":
        """The alphabet of ``symbols``, which already pass the checks of
        ``__init__``, built without checking them again."""
        new = object.__new__(cls)
        new.symbols, new._index = symbols, {s: i for i, s in enumerate(symbols)}
        return new

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
    if a is not b and a != b:
        raise AlphabetMismatchError(f"alphabet mismatch: {a!r} vs {b!r}")


class Word:
    """A finite, possibly empty sequence of alphabet tokens."""

    __slots__ = ("alphabet", "symbols")

    def __init__(self, alphabet: Alphabet, symbols: Iterable[str] = ()):
        symbols = tuple(symbols)
        if not all(map(alphabet._index.__contains__, symbols)):
            foreign = next(s for s in symbols if s not in alphabet)
            raise ValueError(f"token {foreign!r} is not in alphabet {alphabet.symbols}")
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
    """The shortest ``r`` with ``symbols == r * k``.  With each symbol
    closed by a space, the text first recurs in its own square after its
    root, which ends at a symbol's end since no symbol holds whitespace."""
    text = " ".join(symbols) + " "
    return symbols[:text.count(" ", 0, (text + text).find(text, 1))]


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
        # absorb the prefix symbols that already agree with the loop, read
        # backwards, then rotate the loop back by their count
        k = 0
        while k < len(pre) and pre[-1 - k] == per[(-1 - k) % len(per)]:
            k += 1
        cut = -k % len(per)
        per = per[cut:] + per[:cut]
        pre = pre[:len(pre) - k]
        self.alphabet = alphabet
        self.prefix = _word(alphabet, pre)
        self.period = _word(alphabet, per)

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
        return _word(s.alphabet, s.symbols[m:])
    if isinstance(s, LassoStream):  # a suffix of a canonical lasso is canonical as it stands
        pre, per = s.prefix.symbols, s.period.symbols
        r = max(0, m - len(pre)) % len(per)
        suffix = object.__new__(LassoStream)
        suffix.alphabet, suffix.prefix = s.alphabet, _word(s.alphabet, pre[m:])
        suffix.period = _word(s.alphabet, per[r:] + per[:r]) if r else s.period
        return suffix
    raise TypeError(f"cannot slice {type(s).__name__}")


def slice_range(s, m: int, l: int) -> Word:
    """The word of positions ``m`` up to (excluding) ``l``, truncated to
    wherever ``s`` is defined.  ``slice_range(s, 0, m)`` is the length-m
    prefix of a stream.

    On a lasso the slice reads the period from its place at position
    ``m``, taken modulo the period's length, so it costs time and memory in
    ``l - m`` alone, however far out ``m`` lies."""
    if m < 0 or l < 0:
        raise ValueError("slice bounds must be nonnegative")
    l = max(m, l)
    if isinstance(s, Word):
        return _word(s.alphabet, s.symbols[m:l])
    if isinstance(s, LassoStream):
        pre, per = s.prefix.symbols, s.period.symbols
        start = max(m, len(pre))
        body = pre[m:l]
        if l > start:  # the rest lies in the period, from its place r on
            r = (start - len(pre)) % len(per)
            head = per[r:r + l - start]
            rest = l - start - len(head)
            body += head + per * (rest // len(per)) + per[:rest % len(per)]
        return _word(s.alphabet, body)
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


def _split(a: FiniteWordSet) -> dict:
    """The first-symbol split of ``a`` in one pass: each symbol, in alphabet
    order, steps to None if it is a one-letter member (in word order, before
    its extensions), else to the tails of the words it starts, in word order.
    So the steps count each word once (the derivative walk checks it) but
    for the empty word and any word that extends a one-letter member."""
    parts = {n: [] for n in a.alphabet.symbols}
    words = a._key
    for w in words[1:] if words and not words[0] else words:
        parts[w[0]].append(w[1:])
    return {n: None if tails and not tails[0] else tuple(tails) for n, tails in parts.items()}


def decompose(p: FiniteWordSet) -> tuple[frozenset, dict]:
    """Split a prefix-free set by first symbol, in one pass (:func:`_split`).

    Returns the set of symbols that are themselves (one-letter) members, and
    for every other symbol ``n`` its derivative ``{u | n u in p}``.  The
    original set is exactly the disjoint union of the one-letter members and
    the symbol-prefixed derivative parts.
    """
    require_prefix_free(p)
    steps = _split(p)
    heads = frozenset(n for n, tails in steps.items() if tails is None)
    return heads, {n: FiniteWordSet._of(p.alphabet, tails)
                   for n, tails in steps.items() if tails is not None}
