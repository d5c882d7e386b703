"""Behavioural equivalence of detector states and of output-system states.

Two detector states are bisimilar exactly when they have the same violation
language; two output-system states exactly when they emit the same stream.
The one union-find pair walk (Hopcroft & Karp 1971), :func:`unfolds_bisimilar`,
goes by state number over two on-demand unfolds, each row built when the
walk first reaches it: two detector states' for :func:`bisimilar` and
language equality, two specs' subset graphs for ``vigil equiv``.  The one
partition refinement, Moore's, starts from observable data (distance to a
fault, output token), then splits by successor blocks: on two carriers side
by side for the largest bisimulations, and on one state's unfold for the
minimizer.
"""

from __future__ import annotations

from collections.abc import Iterator
from operator import itemgetter

from .sequences import _Record, _require_same_alphabet
from .systems import SSystem, _fault_distances, unfolding


class StatePairRelation(_Record):
    """A set of (left-system state, right-system state) pairs."""

    __match_args__ = ("pairs",)

    def __init__(self, pairs: frozenset):
        self.__dict__["pairs"] = pairs

    def __contains__(self, pair) -> bool:
        return pair in self.pairs

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)


def _refine(rows, classes) -> list:
    """Moore refinement over items numbered from 0: ``classes[i]`` is the
    initial class of item ``i``, ``rows[i]`` its successors' numbers, -1
    marking a step out of the carrier (such as a fault), a block of its
    own.  The first blocks split each class by distance to such a step,
    which equal behaviours share, so a chain is stable after one round.
    Returns each item's block number in the coarsest stable partition."""
    dist = _fault_distances(rows)
    # an item's key in a round: its own block, then its successors' blocks;
    # index -1 reads the block of a step out of the carrier
    keys = [itemgetter(i, *row) for i, row in enumerate(rows)]
    renumber: dict = {}
    block = [renumber.setdefault(key, len(renumber)) for key in zip(classes, dist)]
    count = len(renumber)
    while True:
        block.append(-1)  # the block of a step out of the carrier
        renumber = {}
        block = [renumber.setdefault(key(block), len(renumber)) for key in keys]
        if len(renumber) == count:  # each round splits blocks, never merges them
            return block
        count = len(renumber)


def _minimal_rows(rows: list) -> list:
    """The quotient of rows as :func:`~vigil.systems.reachable` gives them,
    each reachable from row 0, by equal violation languages: one merged row
    per block, the blocks numbered breadth first, which is the order in
    which the refinement numbers them, by their first states."""
    block = _refine(rows, [0] * len(rows))
    stand_in = {b: i for i, b in enumerate(block)}  # any state of a block has its row
    block.append(-1)  # row entry -1 stays a fault
    return [[block[t] for t in rows[stand_in[b]]] for b in range(len(stand_in))]


def _pairs(block: list, left, right) -> StatePairRelation:
    """Pairs of a left and a right state in one block; the items are the
    left states, then the right states, in order."""
    by_block: dict = {}
    for y, b in zip(right, block[len(left):]):
        by_block.setdefault(b, []).append(y)
    return StatePairRelation(
        frozenset((x, y) for x, b in zip(left, block) for y in by_block.get(b, ()))
    )


def largest_detector_bisimulation(a: FiniteDetector, b: FiniteDetector) -> StatePairRelation:
    """All pairs of states of ``a`` and ``b`` with equal violation
    languages — the greatest relation closed under matching faults and
    related successors."""
    _require_same_alphabet(a.alphabet, b.alphabet)
    k = len(a.states)  # b's state j is item k + j
    rows = [*a.rows, *([-1 if t < 0 else k + t for t in row] for row in b.rows)]
    return _pairs(_refine(rows, [0] * len(rows)), a.states, b.states)


def bisimilar(a: FiniteDetector, x, b: FiniteDetector, y) -> bool:
    """Whether states ``x`` of ``a`` and ``y`` of ``b`` have the same
    violation language: :func:`unfolds_bisimilar` over their two unfolds
    from the states' numbers, each row read as the walk reaches its state."""
    i, j = a.require_state(x), b.require_state(y)
    _require_same_alphabet(a.alphabet, b.alphabet)
    return unfolds_bisimilar(unfolding([i], a._successors), unfolding([j], b._successors))


def unfolds_bisimilar(left, right) -> bool:
    """Whether state 0 of two unfolds, row iterators as
    :func:`~vigil.systems.unfolding` gives them, has the same violation
    language on both sides: a breadth-first walk over pairs of state numbers
    not yet joined by union-find, left state ``i`` the item ``i`` and right
    state ``j`` the item ``~j``, up to a first pair where one side faults.  A
    side's rows are built in order, only up to the highest state a walked pair holds."""
    leader: dict = {}

    def find(i: int) -> int:
        while (j := leader.get(i, i)) != i:
            leader[i] = i = leader.get(j, j)  # path halving
        return i

    rows_left, rows_right = [], []
    todo = [(0, 0)]
    for i, j in todo:  # grows while it is walked
        a, b = find(i), find(~j)
        if a != b:
            leader[a] = b
            while len(rows_left) <= i:
                rows_left.append(next(left))
            while len(rows_right) <= j:
                rows_right.append(next(right))
            for u, v in zip(rows_left[i], rows_right[j]):
                if (u < 0) is not (v < 0):
                    return False
                if u >= 0:
                    todo.append((u, v))
    return True


def largest_s_bisimulation(sigma: SSystem, tau: SSystem) -> StatePairRelation:
    """All pairs of states of two output systems that emit the same
    stream."""
    _require_same_alphabet(sigma.alphabet, tau.alphabet)
    left = {x: i for i, x in enumerate(sigma.states)}
    right = {y: i for i, y in enumerate(tau.states, len(left))}  # items after sigma's
    rows = [[left[sigma.tr(x)]] for x in sigma.states] + [[right[tau.tr(y)]] for y in tau.states]
    block = _refine(rows, [sigma.out(x) for x in sigma.states] + [tau.out(y) for y in tau.states])
    return _pairs(block, sigma.states, tau.states)
