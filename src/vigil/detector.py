"""Violation detectors and their observable violation languages.

A detector watches a stream of notifications and, for each state and each
incoming symbol, either faults (the violation marker) or moves to a
successor state.  The observable behaviour of a detector state is its
*violation language*: the prefix-free set of minimal words that drive it
into the fault.

This module provides the finite detector, which numbers its states once
and holds each one's row of successor numbers, a generic stepping handle
for detectors whose state spaces are not finite tables, the automaton
representation of a violation language (a state of a finite detector),
and the language-level step (fault on membership, otherwise take the
symbol derivative) that makes prefix-free sets themselves behave as
detector states.

Every route between a detector and its violation language goes through the
one unfold, which numbers the states it finds and whose step may fault and
is then not walked past: whole (:func:`~vigil.systems.reachable`) for the
anamorphism into the automaton, the spec and machine compilers and the one
minimizer; on demand (:func:`~vigil.systems.unfolding`) for language
equality and the truncated violation words
(:func:`~vigil.systems._violation_words`), a handle's over the words it has
read.  A finite detector is unfolded from its start state's number, so no
state is hashed after it is built, and no handle is; a monitor links its
rows as it walks them (:func:`~vigil.systems.lazy_rows`).  Explicit word
sets alone are numbered by their words, by one derivative walk
(:func:`_derivative_walk`).
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping

from .bisim import _minimal_rows, bisimilar
from .sequences import (
    Alphabet,
    EpsilonViolation,
    FiniteWordSet,
    Word,
    _require_same_alphabet,
    _split,
    derivative_set,
    is_token,
    require_prefix_free,
)
from .systems import (FAULT, UNKNOWN, _check_states, _fault_distances, _require_total_map,
                      _violation_words, reachable)


class BudgetExhausted(RuntimeError):
    """An exact answer was requested from a budgeted detector, but the
    search budget ran out before the step could be decided."""


class FiniteDetector:
    """A detector with an explicit finite state table.

    The table given must be total: one entry per (state, symbol) pair, each
    either :data:`FAULT` or a member state.  "Nothing is ever a violation
    from here" is expressed by an explicit safe state looping to itself.
    States are numbered once, in order: ``rows[i]`` lists the numbers of
    state ``i``'s successors in alphabet order, -1 for a fault, and
    ``step_table`` is a view of them, built on each read.
    """

    __slots__ = ("alphabet", "states", "rows", "_number")

    def __init__(self, alphabet: Alphabet, states: Iterable[Hashable], step_table: Mapping):
        self.alphabet = alphabet
        self.states = _check_states(states)
        self._number = number = {x: i for i, x in enumerate(self.states)}
        self.rows = []
        for x in self.states:
            row = []
            for n in alphabet.symbols:
                if (x, n) not in step_table:
                    raise ValueError(f"step undefined for state {x!r} on symbol {n!r}")
                target = step_table[(x, n)]
                if target is not FAULT and target not in number:
                    raise ValueError(f"step target {target!r} of ({x!r}, {n!r}) is not a state")
                row.append(-1 if target is FAULT else number[target])
            self.rows.append(row)

    @property
    def step_table(self) -> dict:
        """The rows keyed by (state, symbol), each entry a state or :data:`FAULT`."""
        targets, symbols = (*self.states, FAULT), self.alphabet.symbols
        return {(x, n): targets[t] for x, row in zip(self.states, self.rows)
                for n, t in zip(symbols, row)}

    def _successors(self, i: int) -> list:
        """State ``i``'s successors' numbers, :data:`FAULT` for a fault, to unfold."""
        return [FAULT if t < 0 else t for t in self.rows[i]]

    def _unfold(self, x) -> list:
        """The rows of state ``x``'s unfold (:func:`~vigil.systems.reachable`), walked by number."""
        return reachable(self.require_state(x), self._successors)[1]

    def row(self, x) -> list:
        """State ``x``'s successors, one per symbol in alphabet order."""
        return [FAULT if t < 0 else self.states[t] for t in self.rows[self.require_state(x)]]

    def step(self, x, n: str):
        try:
            t = self.rows[self._number[x]][self.alphabet._index[n]]
        except KeyError:
            self.alphabet.index(n)
            raise ValueError(f"unknown state {x!r}") from None
        return FAULT if t < 0 else self.states[t]

    def require_state(self, x) -> int:
        """State ``x``'s number; an unknown state raises."""
        try:
            return self._number[x]
        except KeyError:
            raise ValueError(f"unknown state {x!r}") from None


def extend(a: FiniteDetector, x, u: Word):
    """Run the detector over a whole nonempty word: the final state, or
    :data:`FAULT` as soon as any step faults."""
    _require_same_alphabet(a.alphabet, u.alphabet)
    a.require_state(x)
    if len(u) == 0:
        raise ValueError("extend is defined on nonempty words only")
    cur = x
    for n in u:
        cur = a.step(cur, n)
        if cur is FAULT:
            return FAULT
    return cur


class DetectorHandle:
    """Deterministic stepping interface over an opaque detector state.

    ``step`` returns the next handle, :data:`FAULT`, or — for detectors
    backed by a bounded search — :data:`UNKNOWN`.  Handles are values:
    stepping never mutates, so a handle that answered UNKNOWN may be
    stepped again (typically after its backing search gained budget).
    """

    alphabet: Alphabet

    def step(self, symbol: str):
        raise NotImplementedError


class FiniteDetectorHandle(DetectorHandle):
    """Handle view of a finite detector state."""

    __slots__ = ("detector", "state", "alphabet")

    def __init__(self, detector: FiniteDetector, state):
        detector.require_state(state)
        self.detector = detector
        self.state = state
        self.alphabet = detector.alphabet

    def step(self, symbol: str):
        target = self.detector.step(self.state, symbol)
        if target is FAULT:
            return FAULT
        return FiniteDetectorHandle(self.detector, target)


class SetHandle(DetectorHandle):
    """Handle whose state is a violation language itself, stepped by
    :func:`final_step`."""

    __slots__ = ("language", "alphabet")

    def __init__(self, language):
        self.language = language
        self.alphabet = language.alphabet

    def step(self, symbol: str):
        nxt = final_step(self.language, symbol)
        if nxt is FAULT or nxt is UNKNOWN:
            return nxt
        return SetHandle(nxt)


class RegularPrefixFreeSet:
    """A prefix-free violation language carried by a complete automaton.

    The automaton has a single absorbing accepting state; a word belongs to
    the language iff its run enters the accepting state exactly at its last
    symbol (runs that faulted earlier do not count, so the language is
    prefix-free by construction).  The empty word is never accepted: the
    initial state may not be the accepting state.

    The language is state ``initial`` of ``detector``, which runs on the
    automaton's other states, a step into the accepting state faulting.  It
    holds nothing else: ``alphabet``, ``states`` and ``transitions`` are
    views of that detector.  Equality is language equality, decided by
    :func:`~vigil.bisim.bisimilar` on the two detector states, reading their
    tables only as far as its pair walk goes, so two automata for one
    language compare equal and these values are not hashable.
    """

    __slots__ = ("detector", "initial", "accept", "_transitions")

    def __init__(self, alphabet: Alphabet, states: Iterable[Hashable], initial, accept,
                 transitions: Mapping):
        states = _check_states(states)
        members = set(states)
        if initial not in members or accept not in members:
            raise ValueError("initial and accepting states must be automaton states")
        if initial == accept:
            raise EpsilonViolation("the empty word may not belong to a violation language")
        table = dict(transitions)
        if FAULT in members or FAULT in table.values():
            raise ValueError("FAULT marks a detector's fault; it is not an automaton state")
        if any(table.get((accept, n), FAULT) != accept for n in alphabet.symbols):
            raise ValueError("the accepting state must be absorbing, on every symbol")
        # the detector's constructor checks that the other states' table is total and closed
        self.detector = FiniteDetector(alphabet, [q for q in states if q != accept],
                                       {k: FAULT if t == accept else t for k, t in table.items()})
        self.initial, self.accept = initial, accept

    @classmethod
    def _of(cls, detector: FiniteDetector, initial, accept) -> "RegularPrefixFreeSet":
        """State ``initial`` of ``detector``, unchecked, its fault read as ``accept``."""
        p = object.__new__(cls)
        p.detector, p.initial, p.accept = detector, initial, accept
        return p

    @property
    def alphabet(self) -> Alphabet:
        return self.detector.alphabet

    @property
    def states(self) -> tuple:
        """The detector's states, then the accepting state."""
        return (*self.detector.states, self.accept)

    @property
    def transitions(self) -> dict:
        """The detector's table, built on first read, a fault read as ``accept``, which absorbs."""
        if not hasattr(self, "_transitions"):
            accept, table = self.accept, self.detector.step_table
            self._transitions = {k: accept if t is FAULT else t for k, t in table.items()}
            self._transitions.update(((accept, n), accept) for n in self.alphabet.symbols)
        return self._transitions

    def contains(self, u: Word) -> bool:
        """Membership: the run reaches the accepting state exactly at the
        end of ``u`` and not earlier."""
        _require_same_alphabet(self.alphabet, u.alphabet)
        cur = self.initial
        for i, n in enumerate(u, 1):
            cur = self.detector.step(cur, n)
            if cur is FAULT:
                return i == len(u)
        return False

    def advance(self, n: str):
        """Language-level step by one symbol: :data:`FAULT` if ``n`` itself
        belongs, otherwise the derivative language, a moved state of the same detector."""
        target = self.detector.step(self.initial, n)
        return FAULT if target is FAULT else self._of(self.detector, target, self.accept)

    def words_up_to(self, depth: int) -> FiniteWordSet:
        """All members of length <= depth."""
        if depth < 0:
            raise ValueError("depth must be nonnegative")
        if depth == 0:
            return FiniteWordSet(self.alphabet)
        return minimal_violation_words(self.detector, self.initial, depth)

    def is_empty(self) -> bool:
        return not any(-1 in row for row in self.detector._unfold(self.initial))

    def equivalent(self, other: "RegularPrefixFreeSet") -> bool:
        """Language equality: the two detector states are bisimilar."""
        if not isinstance(other, RegularPrefixFreeSet):
            return NotImplemented
        return self.alphabet == other.alphabet and bisimilar(
            self.detector, self.initial, other.detector, other.initial)

    __eq__ = equivalent
    __hash__ = None  # language equality is not hash-compatible

    def minimized(self) -> "RegularPrefixFreeSet":
        """Language-equal automaton with merged states and canonical names
        (breadth first from the initial state, the accepting state last)."""
        return _automaton(self.alphabet, _minimal_rows(self.detector._unfold(self.initial)))

    def __repr__(self) -> str:
        return f"RegularPrefixFreeSet({len(self.states)} states over {list(self.alphabet.symbols)})"


def minimal_violation_words(a, x, depth: int) -> FiniteWordSet:
    """The violation language of a detector state, truncated to ``depth``.

    Words are grown breadth first and never past a fault, so the result is
    the set of minimal faulting words of length <= depth and is prefix-free
    at every depth.  They are read off the unfold of ``x``
    (:func:`~vigil.systems._violation_words`).  For a :class:`DetectorHandle`
    pass ``x=None``: its unfold's states are the words read so far, each
    one's handle kept unhashed until it is stepped.  A handle that answers
    :data:`UNKNOWN` makes the truncation undecidable and raises
    :class:`BudgetExhausted` instead of returning a wrong set.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if isinstance(a, FiniteDetector):
        initial, expand = a.require_state(x), a._successors
    elif not isinstance(a, DetectorHandle):
        raise TypeError(f"expected a FiniteDetector or DetectorHandle, got {type(a).__name__}")
    elif x is not None:
        raise ValueError("handles carry their own state; pass x=None")
    else:
        alphabet, initial, handles = a.alphabet, (), {(): a}

        def expand(word: tuple) -> list:
            handle, row = handles.pop(word), []
            for n in alphabet.symbols:
                grown, target = word + (n,), handle.step(n)
                if target is UNKNOWN:
                    raise BudgetExhausted(
                        f"cannot decide the step on {Word(alphabet, grown).text()!r}")
                if target is not FAULT:
                    handles[grown] = target
                row.append(target if target is FAULT else grown)
            return row
    words = _violation_words(initial, expand, a.alphabet.symbols, depth)
    return FiniteWordSet._of(a.alphabet, tuple(words))


def anamorphism_regular(a: FiniteDetector, x) -> RegularPrefixFreeSet:
    """The violation language of state ``x`` as an automaton.

    Reachable detector states become automaton states ``d0, d1, ...``
    (breadth first); the fault becomes the unique absorbing accepting
    state ``acc``.
    """
    return _automaton(a.alphabet, a._unfold(x))


def _automaton(alphabet: Alphabet, rows: list) -> RegularPrefixFreeSet:
    """State 0's violation language of rows as :func:`~vigil.systems.reachable`
    gives them: ``d0`` of their detector on ``d0, d1, ...``, its fault ``acc``."""
    return RegularPrefixFreeSet._of(
        _from_rows(alphabet, [f"d{i}" for i in range(len(rows))], rows), "d0", "acc")


def _from_rows(alphabet: Alphabet, states, rows: list) -> FiniteDetector:
    """The detector on ``states``, in row order, that steps as ``rows`` say,
    holding ``rows`` themselves; rows of the one unfold are total and
    closed, so they are not checked."""
    a = object.__new__(FiniteDetector)
    a.alphabet, a.states, a.rows = alphabet, tuple(states), rows
    a._number = {x: i for i, x in enumerate(a.states)}
    return a


def minimal_detector(alphabet: Alphabet, rows: list) -> tuple[FiniteDetector, str]:
    """The canonical detector of state 0 of rows as
    :func:`~vigil.systems.reachable` gives them: their quotient
    (:func:`~vigil.bisim._minimal_rows`), its states named ``s0, s1, ...``."""
    merged = _minimal_rows(rows)
    return _from_rows(alphabet, [f"s{i}" for i in range(len(merged))], merged), "s0"


def first_prefix_pair(rows: list, alphabet: Alphabet, accepting: list):
    """Shortest witness that an automaton's language is not prefix-free: an
    accepted word ``u`` and an accepted proper extension ``uv``, or None.

    ``rows`` come from :func:`~vigil.systems.reachable`, with no faults;
    ``accepting[i]`` says whether state ``i`` accepts.  ``u`` leads to the
    first accepting state ``q``, in numbering order, from which a nonempty
    word reaches acceptance, and ``uv`` is its shortest such extension.
    Both descend fault distances (:func:`~vigil.systems._fault_distances`):
    ``u`` from state 0, a step into ``q`` read as a fault, and ``v`` from
    ``q``, a step into acceptance read as one.  Each step takes the first
    symbol, in alphabet order, that cuts the distance by one, so each word
    is the first of its length in breadth-first order.
    """
    def descend(start, distance, goal) -> tuple:
        word = []
        for left in range(distance[start] - 1, -1, -1):
            n, start = next((n, t) for n, t in zip(alphabet.symbols, rows[start])
                            if (goal(t) if left == 0 else distance[t] == left))
            word.append(n)
        return tuple(word)

    live = _fault_distances([[-1 if accepting[t] else t for t in row] for row in rows])
    q = next((q for q, hit in enumerate(accepting) if hit and live[q]), None)
    if q is None:
        return None
    u = () if q == 0 else descend(
        0, _fault_distances([[-1 if t == q else t for t in row] for row in rows]), q.__eq__)
    return Word(alphabet, u), Word(alphabet, u + descend(q, live, accepting.__getitem__))


def final_step(p, n: str):
    """One step of the violation-language detector: fault if the one-letter
    word ``n`` belongs to ``p``, otherwise the derivative of ``p`` by ``n``.

    Dispatches on the representation: explicit word sets take a literal
    derivative, automaton-backed sets move their initial state, and any
    object exposing its own ``final_step`` (predicate- or search-backed
    languages) is deferred to.  Search-backed languages may answer
    :data:`UNKNOWN`.
    """
    if isinstance(p, FiniteWordSet):
        if () in p._members:
            raise EpsilonViolation("violation languages may not contain the empty word")
        p.alphabet.index(n)
        if (n,) in p._members:
            return FAULT
        return derivative_set(n, p)
    if isinstance(p, RegularPrefixFreeSet):
        return p.advance(n)
    hook = getattr(p, "final_step", None)
    if hook is not None:
        return hook(n)
    raise TypeError(f"{type(p).__name__} is not a prefix-free set representation")


def check_detector_morphism(f: Mapping, a: FiniteDetector, b: FiniteDetector) -> bool:
    """Whether ``f`` preserves detector behaviour at every state and
    symbol: faults match exactly, and surviving steps commute with ``f``."""
    _require_same_alphabet(a.alphabet, b.alphabet)
    _require_total_map(f, a.states, b.states)
    return all((FAULT if t is FAULT else f[t]) == u
               for x in a.states for t, u in zip(a.row(x), b.row(f[x])))


def _derivative_walk(seeds: list) -> tuple[list, list, list]:
    """The one walk over explicit word sets, stepping as :func:`final_step`
    does: the distinct ``seeds`` in the order given, then the sets they
    reach, breadth first, numbered by their words; their rows (a number per
    symbol in alphabet order, -1 for a fault); and for each set whether its
    split (:func:`~vigil.sequences._split`) counts each of its words once.

    A set is a violation language exactly when no set it reaches fails that
    local check: violation languages step only to violation languages, and
    by induction on the longest word, a pair ``u``, ``uv`` with ``|u| >= 2``
    in a set that passes is one in the tails of ``u[0]``."""
    alphabet, number, sets, rows, local = seeds[0].alphabet, {}, [], [], []
    for p in seeds:
        if number.setdefault(p._members, len(sets)) == len(sets):
            sets.append(p)
    for q in sets:  # grows while it is walked
        steps = list(_split(q).values())
        local.append(len(q._key) == sum([1 if tails is None else len(tails) for tails in steps]))
        row = [-1 if tails is None else number.get(frozenset(tails)) for tails in steps]
        if None in row:  # build only the sets not numbered yet
            for j, tails in enumerate(steps):
                if row[j] is None:
                    new = FiniteWordSet._of(alphabet, tails)
                    row[j] = number.setdefault(new._members, len(sets))
                    if row[j] == len(sets):
                        sets.append(new)
        rows.append(row)
    return sets, rows, local


def detector_from_explicit_set(p: FiniteWordSet) -> tuple[FiniteDetector, FiniteWordSet]:
    """The derivative-closure detector of a finite prefix-free set.

    States are the distinct iterated derivatives of ``p`` (the empty set
    acts as the safe sink) as the one derivative walk numbers and steps them
    (:func:`_derivative_walk`); state 0's language is exactly ``p``.  Only
    when a state fails the walk's local check does
    :func:`~vigil.sequences.require_prefix_free` read ``p`` whole, to raise
    its witness.
    """
    sets, rows, local = _derivative_walk([p])
    if not all(local):
        require_prefix_free(p)
    return _from_rows(p.alphabet, sets, rows), p


def canonical_form(a: FiniteDetector, init) -> tuple[FiniteDetector, str]:
    """Reachable, behaviour-minimal copy of a detector with states renamed
    ``s0, s1, ...`` breadth first from the initial state.

    States with equal violation languages are merged (refinement over fault
    profiles), so two detectors describe the same constraint iff their
    canonical forms have identical tables.
    """
    return minimal_detector(a.alphabet, a._unfold(init))


def detector_to_text(a: FiniteDetector) -> str:
    """Serialize a detector as a text table (see :func:`detector_from_text`).

    States must already be token-shaped strings other than ``FAULT``, which
    marks a fault; detectors with other state identifiers should go through
    :func:`canonical_form` first.
    """
    for x in a.states:
        if not is_token(x) or x == "FAULT":
            raise ValueError(f"state {x!r} is not serializable; canonicalize the detector first")
    lines = ["states: " + " ".join(a.states), "alphabet: " + " ".join(a.alphabet.symbols)]
    for x in a.states:
        cells = [f"{n}->{'FAULT' if t is FAULT else t}" for n, t in zip(a.alphabet, a.row(x))]
        lines.append(f"{x}: " + " ".join(cells))
    return "\n".join(lines) + "\n"


def detector_from_text(text: str) -> FiniteDetector:
    """Parse the text-table serialization produced by :func:`detector_to_text`."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2 or not lines[0].startswith("states:") or not lines[1].startswith("alphabet:"):
        raise ValueError("detector table must start with 'states:' and 'alphabet:' lines")
    states = lines[0].split(":", 1)[1].split()
    if "FAULT" in states:
        raise ValueError("'FAULT' marks a fault; it may not name a state")
    alphabet = Alphabet(lines[1].split(":", 1)[1].split())
    table = {}
    rows = {}
    for ln in lines[2:]:
        if ":" not in ln:
            raise ValueError(f"bad detector row: {ln!r}")
        name, cells = ln.split(":", 1)
        name = name.strip()
        if name in rows:
            raise ValueError(f"duplicate row for state {name!r}")
        rows[name] = cells.split()
    if set(rows) != set(states):
        raise ValueError("detector rows do not match the declared states")
    for x in states:
        for cell in rows[x]:
            if "->" not in cell:
                raise ValueError(f"bad transition cell {cell!r}")
            n, target = cell.split("->", 1)
            if n not in alphabet:
                raise ValueError(f"row {x!r}: cell {cell!r} is on a symbol outside the alphabet")
            if (x, n) in table:
                raise ValueError(f"row {x!r}: cell {cell!r} repeats symbol {n!r}")
            table[(x, n)] = FAULT if target == "FAULT" else target
    return FiniteDetector(alphabet, states, table)
