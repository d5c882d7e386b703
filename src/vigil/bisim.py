"""Behavioural equivalence of detector states and of output-system states.

Two detector states are bisimilar exactly when they have the same violation
language; two output-system states exactly when they emit the same stream.
:func:`bisimilar` is one union-find pair walk over linked rows (Hopcroft & Karp
1971), as ``vigil equiv`` on two specs' lazy subset graphs.  The one partition
refinement, Moore's, starts from observable data (distance to a fault, output
token), then splits by successor blocks: on two carriers side by side for the
largest bisimulations, and on one state's unfold for the minimizer.
"""

from __future__ import annotations

from collections.abc import Iterator
from operator import itemgetter

from .sequences import _Record, _require_same_alphabet
from .systems import FAULT, SSystem, _fault_distances


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
    dist = _fault_distances((i, FAULT if t < 0 else t) for i, row in enumerate(rows) for t in row)
    # an item's key in a round: its own block, then its successors' blocks;
    # index -1 reads the block of a step out of the carrier
    keys = [itemgetter(i, *row) for i, row in enumerate(rows)]
    renumber: dict = {}
    block = [renumber.setdefault((c, dist.get(i)), len(renumber)) for i, c in enumerate(classes)]
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


def _side_by_side(left, right) -> tuple[dict, dict]:
    """Item numbers of two carriers' states: the left ones first."""
    return {x: i for i, x in enumerate(left)}, {y: i for i, y in enumerate(right, len(left))}


def largest_detector_bisimulation(a: FiniteDetector, b: FiniteDetector) -> StatePairRelation:
    """All pairs of states of ``a`` and ``b`` with equal violation
    languages — the greatest relation closed under matching faults and
    related successors."""
    _require_same_alphabet(a.alphabet, b.alphabet)
    sides = list(zip((a, b), _side_by_side(a.states, b.states)))
    rows = [[number.get(t, -1) for t in d.row(x)] for d, number in sides for x in d.states]
    return _pairs(_refine(rows, [0] * len(rows)), a.states, b.states)


def bisimilar(a: FiniteDetector, x, b: FiniteDetector, y) -> bool:
    """Whether states ``x`` of ``a`` and ``y`` of ``b`` have the same
    violation language: :func:`rows_bisimilar` on their linked rows."""
    a.require_state(x)
    b.require_state(y)
    _require_same_alphabet(a.alphabet, b.alphabet)
    (rows_a, fault_a), (rows_b, fault_b) = a.dense(), b.dense()
    return rows_bisimilar(a.alphabet.symbols, rows_a[x], fault_a, rows_b[y], fault_b)


def rows_bisimilar(symbols, x, fault_x, y, fault_y) -> bool:
    """Whether linked rows ``x`` and ``y`` (dicts, lazy or dense), whose faults lead to
    ``fault_x`` and ``fault_y``, have the same violation language: a breadth-first walk over
    pairs of rows not yet joined by union-find, up to a first pair where one side faults."""
    leader: dict = {}  # by id; the rows live as long as their graphs

    def find(i: int) -> int:
        while (j := leader.get(i, i)) != i:
            leader[i] = i = leader.get(j, j)  # path halving
        return i

    todo = [(x, y)]
    for r, s in todo:  # grows while it is walked
        i, j = find(id(r)), find(id(s))
        if i != j:
            leader[i] = j
            for n in symbols:
                u, v = r[n], s[n]
                if (u is fault_x) is not (v is fault_y):
                    return False
                if u is not fault_x:
                    todo.append((u, v))
    return True


def largest_s_bisimulation(sigma: SSystem, tau: SSystem) -> StatePairRelation:
    """All pairs of states of two output systems that emit the same
    stream."""
    _require_same_alphabet(sigma.alphabet, tau.alphabet)
    sides = list(zip((sigma, tau), _side_by_side(sigma.states, tau.states)))
    rows = [[number[s.tr(x)]] for s, number in sides for x in s.states]
    block = _refine(rows, [s.out(x) for s, _ in sides for x in s.states])
    return _pairs(block, sigma.states, tau.states)
