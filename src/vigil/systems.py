"""Finite-state transition systems: with termination, and with output.

Two machine shapes underpin the monitoring constructions.  A
:class:`TSystem` steps each state either to a successor or to the fault
marker :data:`FAULT`; its observable behaviour is a termination time (how
many steps until the fault, possibly never).  An :class:`SSystem` emits an
output token at every state and always steps on; its observable behaviour
is the output stream, which on a finite carrier is always a lasso.

Carriers are restricted to finite state sets so that behaviours are exactly
computable by cycle detection.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping

from .sequences import Alphabet, LassoStream, Word, _require_same_alphabet


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


@dataclass(frozen=True)
class TerminationTime:
    """Observable behaviour of a terminating system state: the number of
    steps after which the fault occurs, or ``None`` for a run that never
    faults."""

    steps: int | None

    def __post_init__(self):
        if self.steps is not None and self.steps < 0:
            raise ValueError("termination time must be nonnegative")

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


def t_anamorphism(g: TSystem, x) -> TerminationTime:
    """Exact termination time of ``g`` from ``x``.

    On a finite carrier, revisiting a state without having faulted proves
    the run never faults.
    """
    if x not in g.step_table:
        raise ValueError(f"unknown state {x!r}")
    visited = {x}
    cur = x
    steps = 0
    while True:
        nxt = g.step(cur)
        if nxt is FAULT:
            return TerminationTime(steps)
        if nxt in visited:
            return INFINITE
        visited.add(nxt)
        cur = nxt
        steps += 1


def s_anamorphism(sigma: SSystem, x) -> LassoStream:
    """The output stream of ``sigma`` from ``x``, in lasso form.

    The transition orbit of a finite carrier repeats a state; outputs up to
    the first repeat give the lasso prefix and period.
    """
    if x not in sigma.tr_table:
        raise ValueError(f"unknown state {x!r}")
    order: dict = {}
    orbit = []
    cur = x
    while cur not in order:
        order[cur] = len(orbit)
        orbit.append(cur)
        cur = sigma.tr(cur)
    loop_start = order[cur]
    prefix = Word(sigma.alphabet, (sigma.out(y) for y in orbit[:loop_start]))
    period = Word(sigma.alphabet, (sigma.out(y) for y in orbit[loop_start:]))
    return LassoStream(sigma.alphabet, prefix, period)


def stream_system(s: LassoStream) -> tuple[SSystem, LassoStream]:
    """The canonical output system of a stream: states are the distinct
    suffixes of ``s``, the output is the head, the transition drops it.

    Unfolding the result from its initial state reproduces ``s`` exactly.
    """
    from .sequences import slice_from

    suffixes = []
    seen = set()
    cur = s
    while cur not in seen:
        seen.add(cur)
        suffixes.append(cur)
        cur = slice_from(cur, 1)
    out_table = {t: t.at(0) for t in suffixes}
    tr_table = {t: slice_from(t, 1) for t in suffixes}
    return SSystem(s.alphabet, suffixes, out_table, tr_table), s


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
