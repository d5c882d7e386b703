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
from functools import reduce
from typing import Mapping, Union

from .detector import (
    UNKNOWN,
    DetectorHandle,
    FiniteDetector,
    anamorphism_regular,
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


def _run_lasso(s: LassoStream, row, fault) -> MonitorVerdict:
    """Walk linked rows (dicts from each symbol to the next row) along a lasso from
    ``row`` until the walk reaches ``fault`` or a row repeats at the start
    of a period.

    The prefix, then each turn of the period, is one ``reduce``; the fault
    row keeps a walk there, and a block that ends there is walked again,
    symbol by symbol, to the first fault.  The row at a period start fixes
    the one at the next, so a repeated row proves that the run never faults.
    """
    block, done, seen = s.prefix.symbols, 0, set()
    while (end := reduce(dict.__getitem__, block, row)) is not fault:
        row, done, block = end, done + len(block), s.period.symbols
        if id(row) in seen:
            return CertifiedSafe()
        seen.add(id(row))
    for m, symbol in enumerate(block, done + 1):
        row = row[symbol]
        if row is fault:
            return Violation(prefix_len=m, bad_prefix=slice_range(s, 0, m), ana_value=m - 1)


def monitor_lasso(a: FiniteDetector, x, s: LassoStream) -> MonitorVerdict:
    """Exact verdict of a finite detector on a lasso stream.

    The detector's row at the start of each turn of the period
    (:meth:`FiniteDetector.dense`) ranges over a finite set, so either some
    step faults — yielding the minimal bad prefix — or a row repeats there,
    certifying that no prefix ever faults.  ``vigil monitor --lasso`` runs
    the same walk over a spec's unforced subset graph.  Only finite
    detectors can certify safety; drive a handle-backed detector with
    :func:`monitor_online` instead.
    """
    if not isinstance(a, FiniteDetector):
        raise TypeError("monitor_lasso needs a FiniteDetector; use monitor_online for handles")
    _require_same_alphabet(a.alphabet, s.alphabet)
    a.require_state(x)
    index, fault = a.dense()
    return _run_lasso(s, index[x], fault)


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

    Each ``feed`` advances the detector by one symbol and answers
    :data:`OK`, a :class:`FeedViolation`, or a :class:`FeedUnknown`.
    After a violation or an unknown the monitor is closed.  A finite feed
    with no violation is only ever "ok so far" — certified safety needs the
    lasso form.  A finite detector is walked along the linked rows of
    :meth:`FiniteDetector.dense` (or a spec's unforced
    :func:`~vigil.speclang.subset_rows`), holding the current row; a handle
    is stepped symbol by symbol.
    """

    def __init__(self, source, state=None):
        self.alphabet, self.position, self._closed = source.alphabet, 0, False
        if isinstance(source, FiniteDetector):
            source.require_state(state)
            index, self._fault = source.dense()
            self._row = index[state]
        else:
            self._handle, self._row = source, None

    @classmethod
    def _on_rows(cls, alphabet, row, fault) -> "OnlineMonitor":
        """A monitor that walks linked rows over ``alphabet`` from ``row``."""
        live = cls.__new__(cls)
        live.alphabet, live.position, live._closed, live._row, live._fault = (
            alphabet, 0, False, row, fault)
        return live

    @property
    def closed(self) -> bool:
        return self._closed

    def feed(self, symbol: str):
        """Feed one symbol, as ``feed_many`` would: one row step over a
        finite detector."""
        row = self._row
        if row is None or self._closed:
            return self.feed_many((symbol,))
        try:
            row = row[symbol]
        except KeyError:
            self.alphabet.index(symbol)
            raise
        self._row = row
        self.position += 1
        if row is self._fault:
            self._closed = True
            return FeedViolation(self.position)
        return OK

    def feed_many(self, symbols):
        """Feed ``symbols`` in order up to the first terminal verdict, or
        :data:`OK` if all survive.  A symbol outside the alphabet raises
        :class:`ValueError`; ``position`` then counts the symbols before it.

        Over a finite detector a list or tuple is first walked in one
        ``reduce`` over the rows; only when that walk ends on the fault row
        or meets a foreign symbol is the batch walked again, symbol by
        symbol, to find the first one.  Any other iterable is read symbol by
        symbol and left unread after a verdict."""
        if self._closed:
            raise MonitorClosedError("the monitor already reported a terminal verdict")
        if self._row is None:
            for symbol in symbols:
                target = self._handle.step(symbol)
                self.position += 1
                if target is FAULT or target is UNKNOWN:
                    self._closed = True
                    return (FeedViolation if target is FAULT else FeedUnknown)(self.position)
                self._handle = target
            return OK
        row, fault, position = self._row, self._fault, self.position
        if isinstance(symbols, (list, tuple)):
            try:
                end = reduce(dict.__getitem__, symbols, row)
            except (KeyError, TypeError):  # a foreign or unhashable symbol: the walk below meets it
                end = fault
            if end is not fault:
                self._row = end
                self.position += len(symbols)
                return OK
        try:
            for symbol in symbols:
                row = row[symbol]
                position += 1
                if row is fault:
                    self._closed = True
                    return FeedViolation(position)
        except KeyError:
            self.alphabet.index(symbol)
            raise
        finally:
            self._row, self.position = row, position
        return OK


def monitor_online(a, x=None) -> OnlineMonitor:
    """Build an online monitor from a finite detector state or from any
    detector handle."""
    if isinstance(a, DetectorHandle) and x is not None:
        raise ValueError("handles carry their own state; pass x=None")
    if isinstance(a, (FiniteDetector, DetectorHandle)):
        return OnlineMonitor(a, x)
    raise TypeError(f"expected a FiniteDetector or DetectorHandle, got {type(a).__name__}")


def transfer_to_universal(a: FiniteDetector, x, s: LassoStream):
    """Monitor the same lasso twice: through the detector itself, and
    through its violation language, the initial state of the
    language's own detector (:func:`~vigil.detector.anamorphism_regular`).
    The two verdicts agree; both are returned so the agreement is
    directly checkable."""
    language = anamorphism_regular(a, x)
    return monitor_lasso(a, x, s), monitor_lasso(language.detector, language.initial, s)
