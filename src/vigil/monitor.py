"""Monitoring: pairing an observed system with a detector.

Running a detector against a behaviour is modelled by the product of an
output system and a detector: the product steps as long as the detector
survives the emitted token and faults the moment it does not.  The
functions here materialize that product for small instances, decide lasso
streams exactly (violation with the minimal bad prefix, or certified safe
via cycle detection), and drive live token feeds incrementally.

A violation verdict reports both the 1-based length of the minimal bad
prefix and the number of surviving steps before it (``ana_value``, always
``prefix_len - 1``); keeping both pins down a classic off-by-one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

from .detector import (
    UNKNOWN,
    DetectorHandle,
    FiniteDetector,
    FiniteDetectorHandle,
    RegularPrefixFreeSet,
    anamorphism_regular,
    final_step,
)
from .sequences import LassoStream, Word, _require_same_alphabet, slice_range
from .systems import FAULT, OK, SSystem, TSystem


@dataclass(frozen=True)
class Violation:
    """The monitored behaviour violates the constraint: ``bad_prefix`` is
    the minimal faulting prefix, of length ``prefix_len``; ``ana_value`` is
    the number of surviving steps before the fault."""

    prefix_len: int
    bad_prefix: Word
    ana_value: int

    def __post_init__(self):
        if self.prefix_len < 1 or self.ana_value != self.prefix_len - 1:
            raise ValueError("a violation verdict requires ana_value == prefix_len - 1 >= 0")
        if len(self.bad_prefix) != self.prefix_len:
            raise ValueError("bad_prefix length must equal prefix_len")


@dataclass(frozen=True)
class CertifiedSafe:
    """The behaviour provably never faults (finite detector, lasso stream)."""


@dataclass(frozen=True)
class Unknown:
    """The monitor ran out of budget after ``steps_consumed`` symbols."""

    steps_consumed: int


MonitorVerdict = Union[Violation, CertifiedSafe, Unknown]


def join(sigma: SSystem, a: FiniteDetector) -> TSystem:
    """The full product system of an output system and a detector: a pair
    faults exactly when the detector faults on the emitted token, and
    otherwise both components advance."""
    _require_same_alphabet(sigma.alphabet, a.alphabet)
    states = [(x, y) for x in sigma.states for y in a.states]
    table = {}
    for x, y in states:
        target = a.step(y, sigma.out(x))
        table[(x, y)] = FAULT if target is FAULT else (sigma.tr(x), target)
    return TSystem(states, table)


def join_map(f: Mapping, g: Mapping) -> dict:
    """The product of a system map and a detector map, acting on product
    states componentwise."""
    return {(x, y): (f[x], g[y]) for x in f for y in g}


def _run_lasso(s: LassoStream, start, step, key) -> MonitorVerdict:
    """Run ``step(state, symbol)`` along a lasso from ``start`` until it
    faults or a (position, ``key(state)``) pair repeats.

    Positions index ``prefix + period``; after the last one the stream goes
    on at ``len(prefix)``.  The lasso is canonical, so distinct positions
    are distinct suffixes of the stream and a repeated pair proves that the
    run never faults.
    """
    symbols = s.prefix.symbols + s.period.symbols
    loop = len(s.prefix)
    pos = 0
    cur = start
    visited = {(0, key(start))}
    m = 0
    while True:
        target = step(cur, symbols[pos])
        m += 1
        if target is FAULT:
            return Violation(prefix_len=m, bad_prefix=slice_range(s, 0, m), ana_value=m - 1)
        pos = pos + 1 if pos + 1 < len(symbols) else loop
        seen = (pos, key(target))
        if seen in visited:
            return CertifiedSafe()
        visited.add(seen)
        cur = target


def monitor_lasso(a: FiniteDetector, x, s: LassoStream) -> MonitorVerdict:
    """Exact verdict of a finite detector on a lasso stream.

    The pair (position in the lasso, detector state) ranges over a finite
    set, so either some step faults — yielding the minimal bad prefix — or
    a pair repeats, certifying that no prefix ever faults.  Only finite
    detectors can certify safety; drive a handle-backed detector with
    :func:`monitor_online` instead.
    """
    if not isinstance(a, FiniteDetector):
        raise TypeError("monitor_lasso needs a FiniteDetector; use monitor_online for handles")
    _require_same_alphabet(a.alphabet, s.alphabet)
    a.require_state(x)
    return _run_lasso(s, x, a.step, lambda q: q)


def constr_member(a: FiniteDetector, x, s: LassoStream) -> bool:
    """Whether the stream satisfies the constraint recognized by the
    detector state — i.e. monitoring certifies it safe."""
    return isinstance(monitor_lasso(a, x, s), CertifiedSafe)


class MonitorClosedError(RuntimeError):
    """A terminal verdict was already reported; the monitor takes no more
    symbols."""


@dataclass(frozen=True)
class FeedViolation:
    """The symbol at this 1-based position completed a minimal bad prefix."""

    position: int


@dataclass(frozen=True)
class FeedUnknown:
    """The detector could not decide this symbol within its budget."""

    position: int


class OnlineMonitor:
    """Incremental monitor over a live token feed.

    Each ``feed`` advances the underlying detector handle by one symbol and
    answers :data:`OK`, a :class:`FeedViolation`, or a :class:`FeedUnknown`.
    After a violation or an unknown the monitor is closed.  A finite feed
    with no violation is only ever "ok so far" — certified safety needs the
    lasso form.
    """

    def __init__(self, handle: DetectorHandle):
        self._handle = handle
        self.alphabet = handle.alphabet
        self.position = 0
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    def feed(self, symbol: str):
        if self._closed:
            raise MonitorClosedError("the monitor already reported a terminal verdict")
        self.position += 1
        target = self._handle.step(symbol)
        if target is FAULT:
            self._closed = True
            return FeedViolation(self.position)
        if target is UNKNOWN:
            self._closed = True
            return FeedUnknown(self.position)
        self._handle = target
        return OK


def monitor_online(a, x=None) -> OnlineMonitor:
    """Build an online monitor from a finite detector state or from any
    detector handle."""
    if isinstance(a, FiniteDetector):
        return OnlineMonitor(FiniteDetectorHandle(a, x))
    if isinstance(a, DetectorHandle):
        if x is not None:
            raise ValueError("handles carry their own state; pass x=None")
        return OnlineMonitor(a)
    raise TypeError(f"expected a FiniteDetector or DetectorHandle, got {type(a).__name__}")


def _monitor_lasso_language(p: RegularPrefixFreeSet, s: LassoStream) -> MonitorVerdict:
    """Monitor a lasso with the violation language itself as the detector
    state, stepping by membership-then-derivative on the automaton
    representation."""
    _require_same_alphabet(p.alphabet, s.alphabet)
    return _run_lasso(s, p, final_step, lambda q: q.initial)


def transfer_to_universal(a: FiniteDetector, x, s: LassoStream):
    """Monitor the same lasso twice: through the detector itself, and
    through its violation language run as a state of the language-level
    detector.  The two verdicts agree; both are returned so the agreement
    is directly checkable."""
    direct = monitor_lasso(a, x, s)
    language = anamorphism_regular(a, x)
    return direct, _monitor_lasso_language(language, s)
