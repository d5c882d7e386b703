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

from collections.abc import Mapping
from functools import cache, reduce

# detector and bisim are imported where they are used: `vigil monitor` compiles neither
from .sequences import LassoStream, Word, _Record, _require_same_alphabet, slice_range
from .systems import FAULT, OK, UNKNOWN, SSystem, TSystem, lazy_rows


class Violation(_Record):
    """The monitored behaviour violates the constraint: ``bad_prefix`` is
    the minimal faulting prefix, of length ``prefix_len``; ``ana_value`` is
    the number of surviving steps before the fault."""

    __match_args__ = ("prefix_len", "bad_prefix", "ana_value")

    def __init__(self, prefix_len: int, bad_prefix: Word, ana_value: int):
        if prefix_len < 1 or ana_value != prefix_len - 1:
            raise ValueError("a violation verdict requires ana_value == prefix_len - 1 >= 0")
        if len(bad_prefix) != prefix_len:
            raise ValueError("bad_prefix length must equal prefix_len")
        self.__dict__.update(prefix_len=prefix_len, bad_prefix=bad_prefix, ana_value=ana_value)


class CertifiedSafe(_Record):
    """The behaviour provably never faults (finite detector, lasso stream)."""


class Unknown(_Record):
    """The monitor ran out of budget after ``steps_consumed`` symbols."""

    __match_args__ = ("steps_consumed",)

    def __init__(self, steps_consumed: int):
        self.__dict__["steps_consumed"] = steps_consumed


MonitorVerdict = Violation | CertifiedSafe | Unknown


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


@cache
def _detector_types() -> tuple:
    """``(FiniteDetector, DetectorHandle)``, imported on the first call and
    kept, so building a monitor pays no import statement."""
    from .detector import DetectorHandle, FiniteDetector

    return FiniteDetector, DetectorHandle


def monitor_lasso(a: FiniteDetector, x, s: LassoStream) -> MonitorVerdict:
    """Exact verdict of a finite detector on a lasso stream, fed to an
    :class:`OnlineMonitor` of ``x`` a turn at a time.

    The detector's row at the start of each turn of the period, linked by
    :func:`~vigil.systems.lazy_rows`, ranges over a finite set, so either
    some step faults — yielding the minimal bad prefix — or a row repeats
    there, certifying that no prefix ever faults.  ``vigil monitor
    --lasso`` feeds a monitor on a spec's subset graph alike.  A handle's
    states never repeat, so drive one with :func:`monitor_online`.
    """
    if not isinstance(a, _detector_types()[0]):
        raise TypeError("monitor_lasso needs a FiniteDetector; use monitor_online for handles")
    _require_same_alphabet(a.alphabet, s.alphabet)
    return OnlineMonitor(a, x).feed_lasso(s)


def constr_member(a: FiniteDetector, x, s: LassoStream) -> bool:
    """Whether the stream satisfies the constraint recognized by the
    detector state — i.e. monitoring certifies it safe."""
    return isinstance(monitor_lasso(a, x, s), CertifiedSafe)


class MonitorClosedError(RuntimeError):
    """A terminal verdict was already reported; the monitor takes no more
    symbols."""


class FeedViolation(_Record):
    """The symbol at this 1-based position completed a minimal bad prefix."""

    __match_args__ = ("position",)

    def __init__(self, position: int):
        self.__dict__["position"] = position


class FeedUnknown(_Record):
    """The detector could not decide this symbol within its budget."""

    __match_args__ = ("position",)

    def __init__(self, position: int):
        self.__dict__["position"] = position


class OnlineMonitor:
    """Incremental monitor over a live token feed.

    Each ``feed`` advances the detector by one symbol and answers
    :data:`OK`, a :class:`FeedViolation`, or a :class:`FeedUnknown`.
    After a violation or an unknown the monitor is closed.  A finite feed
    with no violation is only ever "ok so far" — certified safety needs the
    lasso form (:meth:`feed_lasso`).  A finite detector state is walked
    along its rows as :func:`~vigil.systems.lazy_rows` links them from the
    numbered ones, each linked on a first visit (a spec's, from
    :meth:`~vigil.speclang.SpecGraph.rows`, through :meth:`on_rows`),
    holding the current row: only monitors read linked rows.  A handle,
    given no state, is stepped symbol by symbol.  Any other source raises.
    """

    def __init__(self, source, state=None):
        finite, handle = _detector_types()
        if isinstance(source, finite):
            row_of, self._fault = lazy_rows(source.alphabet.symbols, source._successors)
            self._row = row_of(source.require_state(state))
        elif not isinstance(source, handle):
            raise TypeError(
                f"expected a FiniteDetector or DetectorHandle, got {type(source).__name__}")
        elif state is not None:
            raise ValueError("handles carry their own state; pass x=None")
        else:
            self._handle, self._row = source, None
        self.alphabet, self.position, self._closed = source.alphabet, 0, False

    @classmethod
    def on_rows(cls, alphabet, row, fault) -> "OnlineMonitor":
        """A monitor that walks linked rows over ``alphabet`` from ``row`` to
        ``fault``, unchecked, as :meth:`~vigil.speclang.SpecGraph.rows` gives them."""
        live = cls.__new__(cls)
        live.alphabet, live.position, live._closed, live._row, live._fault = (
            alphabet, 0, False, row, fault)
        return live

    @property
    def closed(self) -> bool:
        return self._closed

    def feed_lasso(self, s: LassoStream) -> MonitorVerdict:
        """The exact verdict of a lasso fed to this fresh monitor of rows:
        the prefix, then the period a turn at a time through :meth:`feed_many`,
        until a symbol faults or a row repeats at a turn's start, which fixes
        the row at the next: a repeated row proves the run never faults."""
        if self._row is None or self.position:  # a handle's states never repeat
            raise ValueError("a lasso needs a fresh monitor of a finite detector's rows")
        block, seen = s.prefix.symbols, set()
        while (outcome := self.feed_many(block)) is OK:
            if id(self._row) in seen:
                return CertifiedSafe()
            seen.add(id(self._row))
            block = s.period.symbols
        m = outcome.position
        return Violation(prefix_len=m, bad_prefix=slice_range(s, 0, m), ana_value=m - 1)

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
    """An online monitor of a finite detector state ``x`` or of a detector
    handle (``x=None``); :class:`OnlineMonitor` checks both."""
    return OnlineMonitor(a, x)


def transfer_to_universal(a: FiniteDetector, x, s: LassoStream):
    """Monitor the same lasso twice: through the detector itself, and
    through its violation language, the initial state of the
    language's own detector (:func:`~vigil.detector.anamorphism_regular`).
    The two verdicts agree; both are returned so the agreement is
    directly checkable."""
    from .detector import anamorphism_regular

    language = anamorphism_regular(a, x)
    return monitor_lasso(a, x, s), monitor_lasso(language.detector, language.initial, s)
