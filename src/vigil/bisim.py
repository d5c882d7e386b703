"""Behavioural equivalence of detector states and of output-system states,
and the one partition refinement that decides it.

Two detector states are bisimilar exactly when they have the same
violation language; two output-system states exactly when they emit the
same stream.  Both are decided by Moore refinement on the disjoint union of
the two carriers: split by the immediately observable data (fault profile,
output token), then refine by successor blocks until stable.  The same
refinement minimizes detectors (:func:`~vigil.detector.canonical_form`) and
violation-language automata.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from .sequences import _require_same_alphabet
from .systems import FAULT, SSystem

if TYPE_CHECKING:
    from .detector import FiniteDetector


@dataclass(frozen=True)
class StatePairRelation:
    """A set of (left-system state, right-system state) pairs."""

    pairs: frozenset

    def __contains__(self, pair) -> bool:
        return pair in self.pairs

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)


def _refine(items, observe, successors) -> dict:
    """Moore refinement: ``observe`` gives the initial class of an item,
    ``successors`` its tuple of follow-up items, where any value that is not
    an item (such as :data:`FAULT`) marks a step out of the carrier.
    Returns the block number of each item in the coarsest stable partition.
    """
    index = {it: i for i, it in enumerate(items)}
    rows = [tuple(index.get(s, -1) for s in successors(it)) for it in items]
    renumber: dict = {}
    block = [renumber.setdefault(observe(it), len(renumber)) for it in items]
    count = len(renumber)
    while True:
        block.append(-1)  # the block of a step out of the carrier
        renumber = {}
        block = [
            renumber.setdefault((block[i], tuple(block[j] for j in row)), len(renumber))
            for i, row in enumerate(rows)
        ]
        if len(renumber) == count:  # each round splits blocks, never merges them
            return dict(zip(items, block))
        count = len(renumber)


def _pairs(block: dict, left, right) -> StatePairRelation:
    """Pairs of a left and a right state (tagged 0 and 1) in one block."""
    by_block: dict = {}
    for y in right:
        by_block.setdefault(block[(1, y)], []).append(y)
    return StatePairRelation(
        frozenset((x, y) for x in left for y in by_block.get(block[(0, x)], ()))
    )


def _detector_blocks(a: FiniteDetector, b: FiniteDetector) -> dict:
    """Blocks of equal violation language over the states of ``a`` and
    ``b``, keyed ``(0, x)`` and ``(1, y)``."""
    _require_same_alphabet(a.alphabet, b.alphabet)
    systems = (a, b)

    def observe(item):
        tag, x = item
        return frozenset(n for n in a.alphabet if systems[tag].step(x, n) is FAULT)

    def successors(item):
        tag, x = item
        return tuple((tag, systems[tag].step(x, n)) for n in a.alphabet)

    items = [(0, x) for x in a.states] + [(1, y) for y in b.states]
    return _refine(items, observe, successors)


def largest_detector_bisimulation(a: FiniteDetector, b: FiniteDetector) -> StatePairRelation:
    """All pairs of states of ``a`` and ``b`` with equal violation
    languages — the greatest relation closed under matching faults and
    related successors."""
    return _pairs(_detector_blocks(a, b), a.states, b.states)


def bisimilar(a: FiniteDetector, x, b: FiniteDetector, y) -> bool:
    """Whether states ``x`` of ``a`` and ``y`` of ``b`` have the same
    violation language."""
    a.require_state(x)
    b.require_state(y)
    block = _detector_blocks(a, b)
    return block[(0, x)] == block[(1, y)]


def largest_s_bisimulation(sigma: SSystem, tau: SSystem) -> StatePairRelation:
    """All pairs of states of two output systems that emit the same
    stream."""
    _require_same_alphabet(sigma.alphabet, tau.alphabet)
    systems = (sigma, tau)
    items = [(0, x) for x in sigma.states] + [(1, y) for y in tau.states]

    def observe(item):
        tag, x = item
        return systems[tag].out(x)

    def successors(item):
        tag, x = item
        return ((tag, systems[tag].tr(x)),)

    return _pairs(_refine(items, observe, successors), sigma.states, tau.states)
