"""Finite-state transition systems: with termination, and with output.

Two machine shapes underpin the monitoring constructions.  A
:class:`TSystem` steps each state either to a successor or to the fault
marker :data:`FAULT`; its observable behaviour is a termination time (how
many steps until the fault, possibly never).  An :class:`SSystem` emits an
output token at every state and always steps on; its observable behaviour
is the output stream, which on a finite carrier is always a lasso.

Carriers are restricted to finite state sets so that behaviours are exactly
computable: every behaviour in the package is read off one unfold, which
numbers the states reachable from a start breadth first and gives each a
row of successor numbers (:func:`unfolding`, row by row as a walk asks, so
the pair walk of ``bisimilar`` and ``vigil equiv`` stops where it decides
and ``vigil words`` reads no deeper than its depth; :func:`reachable`,
whole), and fault distances, which the minimizer, ``vigil words`` and a
machine's prefix witness read, off one walk back over those rows
(:func:`_fault_distances`).  Only monitors read linked rows, built on first
visit (:func:`lazy_rows`) from a finite detector's numbered rows or a spec's
subset graph, one run at a time; a lasso is fed to that monitor a turn at a time.
"""

from __future__ import annotations

import enum
from collections.abc import Hashable, Iterable, Iterator, Mapping

from .sequences import Alphabet, LassoStream, Word, _Record, _require_same_alphabet, slice_from


class _Marker(enum.Enum):
    """Singleton outcome markers: a step faulted (``FAULT``), a budgeted
    detector could not decide a step (``UNKNOWN``), a fed symbol completed
    no violation (``OK``)."""

    FAULT = "FAULT"
    UNKNOWN = "UNKNOWN"
    OK = "OK"

    def __repr__(self) -> str:
        return self.value

    __str__ = __repr__


FAULT = _Marker.FAULT
UNKNOWN = _Marker.UNKNOWN
OK = _Marker.OK


def _check_states(states: Iterable[Hashable]) -> tuple:
    states = tuple(states)
    if not states:
        raise ValueError("a system needs at least one state")
    if len(set(states)) != len(states):
        raise ValueError("duplicate state identifiers")
    return states


class TSystem:
    """A system with termination: each state steps to a state or faults."""

    __slots__ = ("states", "step_table")

    def __init__(self, states: Iterable[Hashable], step_table: Mapping):
        self.states = _check_states(states)
        members = set(self.states)
        table = dict(step_table)
        for x in self.states:
            if x not in table:
                raise ValueError(f"step undefined for state {x!r}")
            target = table[x]
            if target is not FAULT and target not in members:
                raise ValueError(f"step target {target!r} of {x!r} is not a state")
        self.step_table = {x: table[x] for x in self.states}

    def step(self, x):
        try:
            return self.step_table[x]
        except KeyError:
            raise ValueError(f"unknown state {x!r}") from None


class TerminationTime(_Record):
    """Observable behaviour of a terminating system state: the number of
    steps after which the fault occurs, or ``None`` for a run that never
    faults."""

    __match_args__ = ("steps",)

    def __init__(self, steps: int | None):
        if steps is not None and steps < 0:
            raise ValueError("termination time must be nonnegative")
        self.__dict__["steps"] = steps

    @classmethod
    def finite(cls, k: int) -> "TerminationTime":
        return cls(k)

    @property
    def is_finite(self) -> bool:
        return self.steps is not None

    def __repr__(self) -> str:
        return f"TerminationTime({'inf' if self.steps is None else self.steps})"


INFINITE = TerminationTime(None)


class SSystem:
    """A system with output: every state emits a token and moves on."""

    __slots__ = ("alphabet", "states", "out_table", "tr_table")

    def __init__(
        self,
        alphabet: Alphabet,
        states: Iterable[Hashable],
        out_table: Mapping,
        tr_table: Mapping,
    ):
        self.alphabet = alphabet
        self.states = _check_states(states)
        members = set(self.states)
        self.out_table = {}
        self.tr_table = {}
        for x in self.states:
            if x not in out_table or x not in tr_table:
                raise ValueError(f"output or transition undefined for state {x!r}")
            if out_table[x] not in alphabet:
                raise ValueError(f"output {out_table[x]!r} of {x!r} is not an alphabet symbol")
            if tr_table[x] not in members:
                raise ValueError(f"transition target {tr_table[x]!r} of {x!r} is not a state")
            self.out_table[x] = out_table[x]
            self.tr_table[x] = tr_table[x]

    def out(self, x) -> str:
        try:
            return self.out_table[x]
        except KeyError:
            raise ValueError(f"unknown state {x!r}") from None

    def tr(self, x):
        try:
            return self.tr_table[x]
        except KeyError:
            raise ValueError(f"unknown state {x!r}") from None


def t_iterate(g: TSystem, x, k: int):
    """The k-fold fault-propagating iterate of ``g`` at ``x`` (k >= 1):
    once a run faults it stays faulted."""
    if k < 1:
        raise ValueError("iterate count starts at 1")
    if x not in g.step_table:
        raise ValueError(f"unknown state {x!r}")
    cur = x
    for _ in range(k):
        cur = g.step(cur)
        if cur is FAULT:
            return FAULT
    return cur


def reachable(initial, expand) -> tuple[list, list]:
    """The one unfold, whole: the states reachable from ``initial``,
    numbered breadth first from 0, and every row :func:`unfolding` yields."""
    order = [initial]
    return order, list(unfolding(order, expand))


def unfolding(order: list, expand) -> Iterator[list]:
    """The rows of the states reachable from ``order[0]``, one at a time, each
    built when it is asked for.  ``expand(q)`` lists state ``q``'s successors
    in a fixed order (alphabet order for a detector), any of them
    :data:`FAULT`, which is never walked; ``order`` gains each state as it is
    numbered, breadth first from 0, and the ``i``-th row yielded lists the
    number of each successor of state ``i``, or -1 for a fault."""
    number = {order[0]: 0, FAULT: -1}
    for q in order:  # grows while it is walked
        row = []
        for t in expand(q):
            i = number.setdefault(t, len(order))  # hashes t once
            if i == len(order):
                order.append(t)
            row.append(i)
        yield row


def _fault_distances(rows: list) -> list:
    """Each state's shortest faulting word, by length, or 0 if no word
    faults from it, given rows of successor numbers, -1 for a fault, as
    :func:`unfolding` yields them: one breadth-first walk back from the
    faulting steps."""
    into = [[] for _ in range(len(rows) + 1)]  # the last list gathers the steps into -1
    distance = [0] * len(rows)
    queue = []
    for q, row in enumerate(rows):
        if -1 in row:
            distance[q] = 1
            queue.append(q)
        for t in row:
            into[t].append(q)
    for t in queue:  # grows while it is walked
        d = distance[t] + 1
        for q in into[t]:
            if not distance[q]:
                distance[q] = d
                queue.append(q)
    return distance


class LazyRow(dict):
    """A state's row in a graph a monitor walks on demand, a finite detector's
    numbered rows or a spec's subset graph
    (:meth:`~vigil.speclang.SpecGraph.rows`): a dict from each symbol to the
    row of the state it leads to, filled whole on its first lookup.  A
    symbol outside the alphabet raises KeyError (an unhashable one,
    TypeError) and fills nothing.  Rows refer to one another: compare them
    with ``is``, never ``==``."""

    __slots__ = ("state", "fill")

    def __missing__(self, symbol):
        if self:  # filled already, so not a symbol
            raise KeyError(symbol)
        self.fill(self, symbol)
        return self[symbol]


def lazy_rows(symbols, successors) -> tuple:
    """``(row_of, fault)`` of a graph determinized as it is walked: ``row_of(q)``
    is state ``q``'s :class:`LazyRow`, made once per state, in which the
    ``j``-th of ``symbols`` leads to the row of the ``j``-th of ``successors(q)``.
    Each :data:`FAULT` among them leads to ``fault``, which maps every symbol to itself."""
    symbols = tuple(symbols)
    fault = LazyRow()
    fault.update(dict.fromkeys(symbols, fault))
    rows = {FAULT: fault}

    def row_of(q) -> LazyRow:
        if (row := rows.get(q)) is None:
            row = rows[q] = LazyRow()
            row.state, row.fill = q, fill
        return row

    def fill(row: LazyRow, symbol) -> None:
        if symbol not in fault:
            raise KeyError(symbol)
        row.update(zip(symbols, map(row_of, successors(row.state))))

    return row_of, fault


def t_anamorphism(g: TSystem, x) -> TerminationTime:
    """Exact termination time of ``g`` from ``x``: the length of its
    orbit, if the orbit ends in the fault.  On a finite carrier, an orbit
    that does not fault returns to a state it has passed, and never
    faults."""
    if x not in g.step_table:
        raise ValueError(f"unknown state {x!r}")
    order, rows = reachable(x, lambda y: [g.step_table[y]])
    return TerminationTime(len(order) - 1) if rows[-1] == [-1] else INFINITE


def s_anamorphism(sigma: SSystem, x) -> LassoStream:
    """The output stream of ``sigma`` from ``x``, in lasso form.

    The transition orbit of a finite carrier returns to a state; the
    outputs before that state give the lasso prefix, the rest the period.
    """
    if x not in sigma.tr_table:
        raise ValueError(f"unknown state {x!r}")
    order, rows = reachable(x, lambda y: [sigma.tr_table[y]])
    loop_start = rows[-1][0]
    outputs = [sigma.out_table[y] for y in order]
    prefix = Word(sigma.alphabet, outputs[:loop_start])
    return LassoStream(sigma.alphabet, prefix, Word(sigma.alphabet, outputs[loop_start:]))


def stream_system(s: LassoStream) -> tuple[SSystem, LassoStream]:
    """The canonical output system of a stream: states are the distinct
    suffixes of ``s``, the output is the head, the transition drops it.

    Unfolding the result from its initial state reproduces ``s`` exactly.
    """
    order, rows = reachable(s, lambda t: [slice_from(t, 1)])
    sigma = object.__new__(SSystem)  # the unfold's tables are total and closed: not checked
    sigma.alphabet, sigma.states = s.alphabet, tuple(order)
    sigma.out_table = {t: t.at(0) for t in order}
    sigma.tr_table = {t: order[row[0]] for t, row in zip(order, rows)}
    return sigma, s


def _require_total_map(f: Mapping, domain: Iterable, codomain: Iterable) -> None:
    targets = set(codomain)
    for x in domain:
        if x not in f:
            raise ValueError(f"state map undefined for {x!r}")
        if f[x] not in targets:
            raise ValueError(f"state map target {f[x]!r} is not a state of the codomain system")


def check_s_morphism(f: Mapping, sigma: SSystem, tau: SSystem) -> bool:
    """Whether ``f`` intertwines outputs and transitions at every state:
    out(f x) = out(x) and tr(f x) = f(tr x)."""
    _require_same_alphabet(sigma.alphabet, tau.alphabet)
    _require_total_map(f, sigma.states, tau.states)
    return all(
        tau.out(f[x]) == sigma.out(x) and tau.tr(f[x]) == f[sigma.tr(x)]
        for x in sigma.states
    )


def check_t_morphism(f: Mapping, g: TSystem, h: TSystem) -> bool:
    """Whether ``f`` preserves stepping: faulting states map to faulting
    states, and surviving steps commute with ``f``."""
    _require_total_map(f, g.states, h.states)
    for x in g.states:
        gx = g.step(x)
        if (FAULT if gx is FAULT else f[gx]) != h.step(f[x]):
            return False
    return True
