"""Constraint families and their detector constructors.

Three ways of specifying a violation language, each compiled to a detector:

* an :class:`EilenbergMachine` (a nondeterministic finite acceptor) whose
  language is the violation set — determinized by the one unfold,
  :func:`~vigil.systems.reachable`, whole, so that a language that is not prefix-free shows
  a witness, into a finite detector whose states are numbered from 0;
* a :class:`DecisionProcedure`, a total membership predicate — stepped by
  precomposition, one membership query per symbol;
* an :class:`Enumerator` that lists the violation words in some fixed
  order — stepped by a budgeted scan of the enumeration, which may answer
  :data:`~vigil.detector.UNKNOWN` honestly instead of blocking forever.

The module also provides the closure check that decides when a finite
family of explicit violation languages is realized by a single detector
whose states range over exactly that family.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Mapping
from functools import reduce
from itertools import islice

from .detector import (
    UNKNOWN,
    DetectorHandle,
    FiniteDetector,
    SetHandle,
    _from_rows,
    first_prefix_pair,
)
from .sequences import (
    Alphabet,
    EpsilonViolation,
    FiniteWordSet,
    PrefixFreeViolation,
    Word,
    _require_same_alphabet,
    _sort_keys,
    _split,
    _word,
    is_token,
    require_prefix_free,
)
from .systems import FAULT, reachable


class EilenbergMachine:
    """A nondeterministic finite acceptor ``(states, transitions, initial, final)``.

    Transitions are labelled triples; several initial states and
    nondeterministic moves are permitted, epsilon moves are not.
    """

    __slots__ = ("alphabet", "states", "transitions", "initial", "final", "_moves")

    def __init__(
        self,
        alphabet: Alphabet,
        states: Iterable[Hashable],
        transitions: Iterable[tuple],
        initial: Iterable[Hashable],
        final: Iterable[Hashable],
    ):
        self.alphabet = alphabet
        self.states = tuple(states)
        if len(set(self.states)) != len(self.states):
            raise ValueError("duplicate machine states")
        members = set(self.states)
        transitions = frozenset(transitions)
        self._moves: dict = {}  # (state, symbol) -> successor states
        for q, n, r in transitions:
            if q not in members or r not in members:
                raise ValueError(f"transition ({q!r}, {n!r}, {r!r}) leaves the state set")
            if n not in alphabet:
                raise ValueError(f"transition symbol {n!r} is not in the alphabet")
            self._moves.setdefault((q, n), set()).add(r)
        self.transitions = transitions
        self.initial = frozenset(initial)
        self.final = frozenset(final)
        if not self.initial <= members or not self.final <= members:
            raise ValueError("initial and final sets must consist of machine states")

    def successors(self, subset: frozenset, n: str) -> frozenset:
        return frozenset(r for q in subset for r in self._moves.get((q, n), ()))

    def accepts(self, u: Word) -> bool:
        return bool(reduce(self.successors, u, self.initial) & self.final)

    def words_up_to(self, depth: int) -> FiniteWordSet:
        """All accepted words of length <= depth, the empty word too if it is accepted."""
        found, frontier = [], [(self.initial, ())]  # the words of one length, with their subsets
        for length in range(max(depth, 0) + 1):
            found += [_word(self.alphabet, w) for subset, w in frontier if subset & self.final]
            frontier = [(target, w + (n,)) for subset, w in frontier if length < depth
                        for n in self.alphabet if (target := self.successors(subset, n))]
        return FiniteWordSet(self.alphabet, found)


def machine_to_detector(m: EilenbergMachine) -> tuple[FiniteDetector, int]:
    """Determinize a machine into a detector that faults exactly when the
    word read so far is accepted.

    The machine's language must be a violation language: nonempty words
    only (:class:`EpsilonViolation` otherwise) and prefix-free
    (:class:`PrefixFreeViolation` with a shortest witness pair otherwise).
    Detector states number the non-accepting subset-construction states
    breadth first, the initial subset being 0; the empty subset is the
    safe sink.
    """
    if m.initial & m.final:
        raise EpsilonViolation("the machine accepts the empty word")
    symbols = m.alphabet.symbols
    order, rows = reachable(m.initial, lambda subset: [m.successors(subset, n) for n in symbols])
    accepting = [bool(subset & m.final) for subset in order]
    pair = first_prefix_pair(rows, m.alphabet, accepting)
    if pair is not None:
        raise PrefixFreeViolation(*pair)
    live = {i: k for k, i in enumerate(i for i, hit in enumerate(accepting) if not hit)}
    rows = [[live.get(t, -1) for t in rows[i]] for i in live]  # an accepting subset faults
    return _from_rows(m.alphabet, range(len(live)), rows), 0


def machine_derivative(m: EilenbergMachine, n: str) -> EilenbergMachine:
    """The machine accepting exactly the words that remain after reading
    ``n``: same states and transitions, the new initial states are the
    n-successors of the old ones.

    Requires that ``n`` itself is not accepted (a violation language never
    continues past a fault).
    """
    m.alphabet.index(n)
    initial = m.successors(m.initial, n)
    if initial & m.final:
        raise ValueError(f"cannot take the derivative by {n!r}: it is already a violation")
    return EilenbergMachine(m.alphabet, m.states, m.transitions, initial, m.final)


class DecisionProcedure:
    """A total membership predicate over words, claimed to decide a
    prefix-free violation language.

    The value doubles as a language representation: the derivative of the
    predicate's language by the word ``consumed`` (empty by default).  Its
    one-symbol step queries the predicate once, on ``consumed`` plus that
    symbol, and on survival carries the longer word.
    """

    __slots__ = ("alphabet", "decides", "consumed")

    def __init__(
        self, alphabet: Alphabet, decides: Callable[[Word], bool], consumed: Word | None = None
    ):
        self.alphabet = alphabet
        self.decides = decides
        self.consumed = Word(alphabet) if consumed is None else consumed
        _require_same_alphabet(alphabet, self.consumed.alphabet)

    def final_step(self, n: str):
        self.alphabet.index(n)
        word = _word(self.alphabet, self.consumed.symbols + (n,))
        if self.decides(word):
            return FAULT
        return DecisionProcedure(self.alphabet, self.decides, word)


class _AuditedDecisionHandle(SetHandle):
    """Decision-procedure detector that re-checks, on every step, that no
    earlier prefix of the word read so far satisfies the predicate."""

    __slots__ = ()

    def step(self, symbol: str):
        p, alphabet = self.language, self.alphabet
        alphabet.index(symbol)
        word = p.consumed.symbols + (symbol,)
        for k in range(1, len(word)):
            if p.decides(prefix := _word(alphabet, word[:k])):
                # the detector survived past a member: the claimed language
                # is not prefix-free (or the predicate is not deterministic)
                raise PrefixFreeViolation(prefix, _word(alphabet, word))
        nxt = p.final_step(symbol)
        return FAULT if nxt is FAULT else _AuditedDecisionHandle(nxt)


def decidable_detector(p: DecisionProcedure, audit: bool = False) -> DetectorHandle:
    """Detector handle for a predicate-decided violation language.

    The handle state is the word read so far; each step costs one
    membership query.  With ``audit=True`` every step additionally
    re-evaluates the predicate on all earlier prefixes and raises
    :class:`PrefixFreeViolation` if one of them is a member.
    """
    return _AuditedDecisionHandle(p) if audit else SetHandle(p)


class Enumerator:
    """A deterministic, resumable enumeration of the members of a violation
    language.

    One draw loop reads, checks, indexes and caches every item, so that
    separate detector steps observe one and the same enumeration order;
    ``word_at(k)`` draws up to the k-th.  An iterable that runs out has
    listed the language completely: ``finished`` turns true, and it is never
    read again.
    """

    __slots__ = ("alphabet", "finished", "_source", "_cache", "_first")

    def __init__(self, alphabet: Alphabet, words: Iterable[Word]):
        self.alphabet = alphabet
        self._source = iter(words)
        self._cache: list[Word] = []
        self._first: dict[int, dict[tuple, int]] = {}  # length -> symbols -> first index
        self.finished = False

    @property
    def drawn(self) -> int:
        return len(self._cache)

    def word_at(self, k: int) -> Word | None:
        """The k-th enumerated word, or ``None`` once the enumeration is
        exhausted before reaching ``k``."""
        self._first_hit((), max(k + 1 - len(self._cache), 0))
        return self._cache[k] if k < len(self._cache) else None

    def _first_hit(self, word: tuple, budget: int) -> int | None:
        """The length of the first item that is ``word`` or a nonempty prefix
        of it, looked up among the drawn items, else sought by the one draw
        loop among up to ``budget`` fresh ones; None if there is none."""
        hits = [(k, m) for m, first in self._first.items()
                if 0 < m <= len(word) and (k := first.get(word[:m])) is not None]
        if hits or self.finished:
            return min(hits, default=(None, None))[1]
        cache, first, alphabet, start = self._cache, self._first, self.alphabet, len(self._cache)
        for item in islice(self._source, budget):
            if not isinstance(item, Word) or (
                    item.alphabet is not alphabet and item.alphabet != alphabet):
                raise ValueError(f"enumerator produced a malformed word: {item!r}")
            symbols = item.symbols
            if (by_symbols := first.get(len(symbols))) is None:
                by_symbols = first[len(symbols)] = {}
            by_symbols.setdefault(symbols, len(cache))
            cache.append(item)
            if symbols and word[:len(symbols)] == symbols:
                return len(symbols)
        self.finished = len(cache) - start < budget
        return None


class EnumeratedPrefixFreeSet:
    """A violation language known only through an enumeration, relativized
    to the word consumed so far.

    The one-symbol step asks whether consumed-plus-symbol is a member.  The
    enumeration is read in order, and its first item that is the full
    candidate word answers fault, or that is a proper prefix of it answers
    survival (a prefix-free language cannot also contain the full word);
    exhaustion answers survival definitively.  Items drawn already are
    looked up, not rescanned; the enumerator's one draw loop reads at most
    ``budget`` fresh items per step, and none once the enumeration has ended.
    If the budget runs out undecided the step answers
    :data:`~vigil.detector.UNKNOWN`; stepping again later resumes the scan
    where it stopped.
    """

    __slots__ = ("enumerator", "consumed", "budget", "alphabet")

    def __init__(self, enumerator: Enumerator, consumed: Word, budget: int):
        if budget < 1:
            raise ValueError("enumeration budget must be at least 1")
        _require_same_alphabet(enumerator.alphabet, consumed.alphabet)
        self.enumerator, self.consumed, self.budget = enumerator, consumed, budget
        self.alphabet = enumerator.alphabet

    def final_step(self, n: str):
        self.alphabet.index(n)
        word = self.consumed.symbols + (n,)
        m = self.enumerator._first_hit(word, self.budget)
        if m is None and not self.enumerator.finished:
            return UNKNOWN
        if m == len(word):
            return FAULT
        return EnumeratedPrefixFreeSet(self.enumerator, _word(self.alphabet, word), self.budget)


def re_detector(e: Enumerator, budget: int) -> DetectorHandle:
    """Detector handle for an enumerated violation language with a fixed
    search budget per step."""
    return SetHandle(EnumeratedPrefixFreeSet(e, Word(e.alphabet), budget))


def check_universal_family(c: Iterable[FiniteWordSet]):
    """Whether a finite family of explicit violation languages is closed
    under symbol derivatives (up to fault).

    Returns ``(True, None)`` when for every member ``p`` and symbol ``n``,
    either ``n`` is itself a member of ``p`` or the derivative of ``p`` by
    ``n`` is again in the family; otherwise ``(False, (p, n))`` with the
    least failing pair, by ``p``'s words, then by the alphabet.  The first
    member, in the order given, that is not a violation language raises.
    """
    members = list(c)
    witness = _family_steps(members)[2] if members else None
    return witness is None, witness


def universal_detector_for(c: Iterable[FiniteWordSet]) -> tuple[FiniteDetector, Mapping]:
    """One detector whose states are exactly the members of a
    derivative-closed family, stepping by derivative and faulting on
    one-letter membership.

    The states are the distinct members ordered by size and then by their
    words.  Returns the detector and the map from each member language to
    the state realizing it.
    """
    members = list(c)
    if not members:
        raise ValueError("a universal detector needs at least one member language")
    distinct, rows, witness = _family_steps(members)
    if witness is not None:
        p, n = witness
        raise ValueError(
            f"family is not derivative-closed: derivative of {p!r} by {n!r} is missing"
        )
    alphabet = members[0].alphabet
    order = sorted(range(len(distinct)), key=lambda i: (
        len(distinct[i]), _sort_keys(alphabet, distinct[i]._key)))
    rank = {i: r for r, i in enumerate(order)}
    states = [distinct[i] for i in order]
    rows = [[t if t < 0 else rank[t] for t in rows[i]] for i in order]
    return _from_rows(alphabet, states, rows), {p: p for p in states}


def _family_steps(members: list) -> tuple[list, list, tuple | None]:
    """The one closure walk over a nonempty family: its distinct members in
    the order given, each one's steps in alphabet order (a member's number
    there, -1 for :data:`FAULT`, None off the family), and the least step
    off the family, by the member's words, then by the alphabet, or None.

    Each member is split once (:func:`~vigil.sequences._split`) and checked
    to hold no empty word and no one-letter word that a longer one extends,
    so that its split counts each of its words once.
    Then a closed family is prefix-free, by induction on the longest word:
    a pair ``u``, ``uv`` with ``|u| >= 2`` in ``p`` is one in the derivative
    of ``p`` by ``u[0]``, a member.  Otherwise the members are checked in
    full, in order, as are those before a member over another alphabet.
    """
    alphabet = members[0].alphabet
    number: dict = {}  # a member's words -> the number of its first occurrence
    distinct = []
    for k, p in enumerate(members):
        if p.alphabet is not alphabet and p.alphabet != alphabet:
            for q in members[:k]:
                require_prefix_free(q)
            raise ValueError("family members must share one alphabet")
        if number.setdefault(p._members, len(distinct)) == len(distinct):
            distinct.append(p)
    rows, local = [], True
    for p in distinct:
        steps = _split(p).values()
        local = local and len(p) == sum(1 if tails is None else len(tails) for tails in steps)
        rows.append([-1 if tails is None else number.get(frozenset(tails)) for tails in steps])
    missing = [i for i, row in enumerate(rows) if None in row]
    if missing or not local:
        for p in members:
            require_prefix_free(p)
    if not missing:
        return distinct, rows, None
    i = min(missing, key=lambda i: _sort_keys(alphabet, distinct[i]._key))
    return distinct, rows, (distinct[i], alphabet.symbols[rows[i].index(None)])


def machine_to_text(m: EilenbergMachine) -> str:
    """Serialize a machine (see :func:`machine_from_text`); states must be
    token-shaped strings."""
    for x in m.states:
        if not is_token(x):
            raise ValueError(f"machine state {x!r} is not serializable")
    order = {x: i for i, x in enumerate(m.states)}
    lines = [
        "states: " + " ".join(m.states),
        "alphabet: " + " ".join(m.alphabet.symbols),
        "initial: " + " ".join(sorted(m.initial, key=order.get)),
        "final: " + " ".join(sorted(m.final, key=order.get)),
    ]
    for q, n, r in sorted(
        m.transitions, key=lambda t: (order[t[0]], m.alphabet.index(t[1]), order[t[2]])
    ):
        lines.append(f"{q} -{n}-> {r}")
    return "\n".join(lines) + "\n"


def machine_from_text(text: str) -> EilenbergMachine:
    """Parse the machine serialization produced by :func:`machine_to_text`."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    headers = {}
    for expected in ("states", "alphabet", "initial", "final"):
        if not lines or not lines[0].startswith(expected + ":"):
            raise ValueError(f"machine text must declare '{expected}:' next")
        headers[expected] = lines.pop(0).split(":", 1)[1].split()
    transitions = []
    for ln in lines:
        parts = ln.split()
        if len(parts) != 3 or not parts[1].startswith("-") or not parts[1].endswith("->"):
            raise ValueError(f"bad transition line: {ln!r}")
        transitions.append((parts[0], parts[1][1:-2], parts[2]))
    return EilenbergMachine(
        Alphabet(headers["alphabet"]),
        headers["states"],
        transitions,
        headers["initial"],
        headers["final"],
    )
