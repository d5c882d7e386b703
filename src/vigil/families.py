"""Constraint families and their detector constructors.

Three ways of specifying a violation language, each compiled to a detector:

* an :class:`EilenbergMachine` (a nondeterministic finite acceptor) whose
  language is the violation set — determinized into a finite detector;
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

from typing import Callable, Hashable, Iterable, Mapping

from .detector import (
    UNKNOWN,
    DetectorHandle,
    FiniteDetector,
    SetHandle,
    first_prefix_pair,
    subset_automaton,
)
from .sequences import (
    Alphabet,
    EpsilonViolation,
    FiniteWordSet,
    PrefixFreeViolation,
    Word,
    concat,
    derivative_set,
    is_token,
    require_prefix_free,
    slice_range,
)
from .systems import FAULT


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
        subset = self.initial
        for n in u:
            subset = self.successors(subset, n)
        return bool(subset & self.final)

    def words_up_to(self, depth: int) -> FiniteWordSet:
        """All accepted words of length <= depth (including the empty word
        when it is accepted)."""
        found = []
        if self.initial & self.final:
            found.append(Word(self.alphabet))
        frontier = [(self.initial, ())]
        for _ in range(depth):
            nxt = []
            for subset, syms in frontier:
                for n in self.alphabet:
                    target = self.successors(subset, n)
                    if not target:
                        continue
                    if target & self.final:
                        found.append(Word(self.alphabet, syms + (n,)))
                    nxt.append((target, syms + (n,)))
            frontier = nxt
        return FiniteWordSet(self.alphabet, found)


def machine_to_detector(m: EilenbergMachine) -> tuple[FiniteDetector, frozenset]:
    """Determinize a machine into a detector that faults exactly when the
    word read so far is accepted.

    The machine's language must be a violation language: nonempty words
    only (:class:`EpsilonViolation` otherwise) and prefix-free
    (:class:`PrefixFreeViolation` with a shortest witness pair otherwise).
    Detector states are the non-accepting subset-construction states; the
    empty subset is the safe sink.
    """
    if m.initial & m.final:
        raise EpsilonViolation("the machine accepts the empty word")
    order, table = subset_automaton(m.initial, m.alphabet, m.successors)

    def accepting(subset: frozenset) -> bool:
        return bool(subset & m.final)

    pair = first_prefix_pair(order, table, m.alphabet, accepting)
    if pair is not None:
        raise PrefixFreeViolation(*pair)
    det_states = [s for s in order if not accepting(s)]
    det_table = {}
    for subset in det_states:
        for n in m.alphabet:
            target = table[(subset, n)]
            det_table[(subset, n)] = FAULT if accepting(target) else target
    return FiniteDetector(m.alphabet, det_states, det_table), m.initial


def machine_derivative(m: EilenbergMachine, n: str) -> EilenbergMachine:
    """The machine accepting exactly the words that remain after reading
    ``n``: same states and transitions, the new initial states are the
    n-successors of the old ones.

    Requires that ``n`` itself is not accepted (a violation language never
    continues past a fault).
    """
    if n not in m.alphabet:
        raise ValueError(f"symbol {n!r} is not in alphabet {m.alphabet.symbols}")
    if m.accepts(Word(m.alphabet, (n,))):
        raise ValueError(f"cannot take the derivative by {n!r}: it is already a violation")
    return EilenbergMachine(
        m.alphabet, m.states, m.transitions, m.successors(m.initial, n), m.final
    )


class DecisionProcedure:
    """A total membership predicate over words, claimed to decide a
    prefix-free violation language.

    The value doubles as a language representation: its one-symbol step
    queries the predicate on that symbol and, on survival, precomposes the
    predicate with the consumed symbol.
    """

    __slots__ = ("alphabet", "decides")

    def __init__(self, alphabet: Alphabet, decides: Callable[[Word], bool]):
        self.alphabet = alphabet
        self.decides = decides

    def final_step(self, n: str):
        if n not in self.alphabet:
            raise ValueError(f"symbol {n!r} is not in alphabet {self.alphabet.symbols}")
        head = Word(self.alphabet, (n,))
        if self.decides(head):
            return FAULT
        inner = self.decides
        return DecisionProcedure(self.alphabet, lambda u: inner(concat(head, u)))


class _AuditedDecisionHandle(DetectorHandle):
    """Decision-procedure detector that re-checks, on every step, that no
    earlier prefix of the word read so far satisfies the predicate."""

    __slots__ = ("procedure", "history", "alphabet")

    def __init__(self, procedure: DecisionProcedure, history: Word):
        self.procedure = procedure
        self.history = history
        self.alphabet = procedure.alphabet

    def step(self, symbol: str):
        word = concat(self.history, Word(self.alphabet, (symbol,)))
        for k in range(1, len(word)):
            prefix = slice_range(word, 0, k)
            if self.procedure.decides(prefix):
                # the detector survived past a member: the claimed language
                # is not prefix-free (or the predicate is not deterministic)
                raise PrefixFreeViolation(prefix, word)
        if self.procedure.decides(word):
            return FAULT
        return _AuditedDecisionHandle(self.procedure, word)


def decidable_detector(p: DecisionProcedure, audit: bool = False) -> DetectorHandle:
    """Detector handle for a predicate-decided violation language.

    The handle state is the word read so far; each step costs one
    membership query.  With ``audit=True`` every step additionally
    re-evaluates the predicate on all earlier prefixes and raises
    :class:`PrefixFreeViolation` if one of them is a member.
    """
    if audit:
        return _AuditedDecisionHandle(p, Word(p.alphabet))
    return SetHandle(p)


class Enumerator:
    """A deterministic, resumable enumeration of the members of a violation
    language.

    ``word_at(k)`` returns the k-th enumerated word, drawing lazily from
    the underlying iterable and caching every item so that separate
    detector steps observe one and the same enumeration order.  A finite
    iterable that runs out means the language has been listed completely.
    """

    __slots__ = ("alphabet", "_source", "_cache", "_finished")

    def __init__(self, alphabet: Alphabet, words: Iterable[Word]):
        self.alphabet = alphabet
        self._source = iter(words)
        self._cache: list[Word] = []
        self._finished = False

    @property
    def drawn(self) -> int:
        return len(self._cache)

    @property
    def finished(self) -> bool:
        return self._finished

    def word_at(self, k: int) -> Word | None:
        """The k-th enumerated word, or ``None`` once the enumeration is
        exhausted before reaching ``k``."""
        while len(self._cache) <= k and not self._finished:
            try:
                item = next(self._source)
            except StopIteration:
                self._finished = True
                break
            if not isinstance(item, Word) or item.alphabet != self.alphabet:
                raise ValueError(f"enumerator produced a malformed word: {item!r}")
            self._cache.append(item)
        return self._cache[k] if k < len(self._cache) else None


class EnumeratedPrefixFreeSet:
    """A violation language known only through an enumeration, relativized
    to the word consumed so far.

    The one-symbol step asks whether consumed-plus-symbol is a member.  The
    enumeration is scanned item by item: the full candidate word answers
    fault, a proper prefix of it answers survival (a prefix-free language
    cannot also contain the full word), exhaustion answers survival
    definitively.  At most ``budget`` fresh items are drawn per step;
    rescanning previously drawn items is free.  If the budget runs out
    undecided the step answers :data:`~vigil.detector.UNKNOWN`; stepping
    again later resumes the scan where it stopped.
    """

    __slots__ = ("enumerator", "consumed", "budget", "alphabet")

    def __init__(self, enumerator: Enumerator, consumed: Word, budget: int):
        if budget < 1:
            raise ValueError("enumeration budget must be at least 1")
        self.enumerator = enumerator
        self.consumed = consumed
        self.budget = budget
        self.alphabet = enumerator.alphabet

    def final_step(self, n: str):
        if n not in self.alphabet:
            raise ValueError(f"symbol {n!r} is not in alphabet {self.alphabet.symbols}")
        word = concat(self.consumed, Word(self.alphabet, (n,)))
        proper = {slice_range(word, 0, k) for k in range(1, len(word))}
        survived = EnumeratedPrefixFreeSet(self.enumerator, word, self.budget)
        k = 0
        fresh = 0
        while True:
            if k >= self.enumerator.drawn:
                if self.enumerator.finished:
                    return survived
                if fresh >= self.budget:
                    return UNKNOWN
                fresh += 1
            item = self.enumerator.word_at(k)
            if item is None:
                return survived
            k += 1
            if item == word:
                return FAULT
            if item in proper:
                return survived


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
    first failing pair.
    """
    members = list(c)
    if not members:
        return True, None
    alphabet = members[0].alphabet
    for p in members:
        if p.alphabet != alphabet:
            raise ValueError("family members must share one alphabet")
        require_prefix_free(p)
    family = set(members)
    for p in sorted(family, key=lambda s: tuple(w.sort_key() for w in s.words)):
        for n in alphabet:
            if Word(alphabet, (n,)) in p:
                continue
            if derivative_set(n, p) not in family:
                return False, (p, n)
    return True, None


def universal_detector_for(c: Iterable[FiniteWordSet]) -> tuple[FiniteDetector, Mapping]:
    """One detector whose states are exactly the members of a
    derivative-closed family, stepping by derivative and faulting on
    one-letter membership.

    Returns the detector and the map from each member language to the
    state realizing it.
    """
    members = list(c)
    if not members:
        raise ValueError("a universal detector needs at least one member language")
    ok, witness = check_universal_family(members)
    if not ok:
        p, n = witness
        raise ValueError(
            f"family is not derivative-closed: derivative of {p!r} by {n!r} is missing"
        )
    alphabet = members[0].alphabet
    states = sorted(set(members), key=lambda s: (len(s), tuple(w.sort_key() for w in s.words)))
    table = {}
    for p in states:
        for n in alphabet:
            if Word(alphabet, (n,)) in p:
                table[(p, n)] = FAULT
            else:
                table[(p, n)] = derivative_set(n, p)
    return FiniteDetector(alphabet, states, table), {p: p for p in states}


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
