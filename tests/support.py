"""Shared generators and independent oracles for the test suite.

The oracles here deliberately avoid the library's own stepping machinery:
faults are located by walking raw transition tables, regex membership is
decided by a backtracking interval matcher, and prefix-free sets are
enumerated as antichains of the prefix forest.  Some keep a slower route
the library had as the reference for its fast path: subsets as
frozensets, bisimilarity as identical canonical quotients, spec
equivalence as identical canonical tables, fault distances as a search
forward from each state, the pattern size guard as a depth walk plus a
memoized recursive size, Moore's refinement started
from the classes alone, and the spec parser over (kind, value, offset)
tokens.  ``cold_start`` runs code in a fresh interpreter and reports the
modules it loaded.
"""

from __future__ import annotations

import itertools
import re
import subprocess
import sys
from functools import lru_cache
from operator import itemgetter
from pathlib import Path

from vigil.bisim import _minimal_rows
from vigil.detector import FiniteDetector, final_step
from vigil.families import EilenbergMachine, Enumerator
from vigil.sequences import Alphabet, EpsilonViolation, FiniteWordSet, LassoStream, Word
from vigil.sequences import _sort_keys, require_prefix_free
from vigil.speclang import MAX_NESTING, MAX_PATTERN_SIZE, _MAX_DEPTH, _children
from vigil.speclang import Alt, ConstraintSpec, Lit, Opt, Plus, Seq, SpecError, Star
from vigil.speclang import compile as compile_spec
from vigil.systems import FAULT, UNKNOWN, SSystem, reachable


def binary() -> Alphabet:
    return Alphabet(["a", "b"])


def all_words(alphabet: Alphabet, max_len: int, min_len: int = 0):
    """Every word of length min_len..max_len, shortest first."""
    for length in range(min_len, max_len + 1):
        for combo in itertools.product(alphabet.symbols, repeat=length):
            yield Word(alphabet, combo)


@lru_cache(maxsize=1)
def raw_table(det: FiniteDetector) -> dict:
    """``det.step_table``, a view built on each read, kept for the detector
    last asked for: the oracles walk one detector many times in a row."""
    return det.step_table


def oracle_first_fault(det: FiniteDetector, state, symbols) -> int | None:
    """1-based position of the first fault when reading ``symbols`` from
    ``state``, walking the raw table; None if the whole word survives."""
    cur, table = state, raw_table(det)
    for i, n in enumerate(symbols):
        cur = table[(cur, n)]
        if cur is FAULT:
            return i + 1
    return None


def oracle_minimal_words(det: FiniteDetector, state, depth: int) -> set[Word]:
    """Minimal faulting words of length <= depth by full enumeration: a
    word qualifies iff its first fault lands exactly on its last symbol."""
    result = set()
    for w in all_words(det.alphabet, depth, min_len=1):
        if oracle_first_fault(det, state, w.symbols) == len(w):
            result.add(w)
    return result


def unpruned_violation_words(det: FiniteDetector, state, depth: int) -> list[tuple]:
    """:func:`oracle_minimal_words` as symbol tuples in word order (shorter
    first, then in alphabet order), every word of each length tried."""
    return [w.symbols for w in all_words(det.alphabet, depth, min_len=1)
            if oracle_first_fault(det, state, w.symbols) == len(w)]


def quotient_bisimilar(a: FiniteDetector, x, b: FiniteDetector, y) -> bool:
    """Bisimilarity as identical canonical quotients: the minimizer's merged
    rows of each state's unfold, numbered breadth first, compared."""
    return _minimal_rows(reachable(x, a.row)[1]) == _minimal_rows(reachable(y, b.row)[1])


def moore_refine(rows, classes) -> list:
    """Moore refinement as ``bisim._refine`` computes it, but with the
    first blocks the classes alone, not split by distance to a fault: one
    round per distinguishing depth, so quadratic on a chain.  Items,
    ``rows`` with -1 for a step out of the carrier, and the block numbers
    returned read as there."""
    keys = [itemgetter(i, *row) for i, row in enumerate(rows)]
    renumber: dict = {}
    block = [renumber.setdefault(c, len(renumber)) for c in classes]
    count = len(renumber)
    while True:
        block.append(-1)  # the block of a step out of the carrier
        renumber = {}
        block = [renumber.setdefault(key(block), len(renumber)) for key in keys]
        if len(renumber) == count:
            return block
        count = len(renumber)


def oracle_fault_distances(rows: list) -> list:
    """``systems._fault_distances`` by a breadth-first search forward from
    each state in turn: the length of its shortest faulting word, or 0 if
    none faults; ``rows`` hold successor numbers, -1 for a fault."""
    distances = []
    for start in range(len(rows)):
        seen, level, length, found = {start}, [start], 0, 0
        while level and not found:
            length += 1
            below = []
            for q in level:
                for t in rows[q]:
                    if t < 0:
                        found = length
                    elif t not in seen:
                        seen.add(t)
                        below.append(t)
            level = below
        distances.append(found)
    return distances


def lasso_symbols(s: LassoStream, count: int) -> tuple[str, ...]:
    return tuple(s.at(k) for k in range(count))


def prefix_free_tuples(alphabet: Alphabet, max_len: int):
    """All prefix-free sets of nonempty words of length <= max_len, as
    frozensets of symbol tuples (antichains of the prefix forest)."""

    def antichains(word: tuple, below: int) -> list[frozenset]:
        keep = frozenset({word})
        if below == 0:
            return [frozenset(), keep]
        child = [antichains(word + (n,), below - 1) for n in alphabet.symbols]
        combos = [frozenset().union(*pick) for pick in itertools.product(*child)]
        return combos + [keep]

    roots = [antichains((n,), max_len - 1) for n in alphabet.symbols]
    for pick in itertools.product(*roots):
        yield frozenset().union(*pick)


def word_set(alphabet: Alphabet, tuples) -> FiniteWordSet:
    return FiniteWordSet(alphabet, (Word(alphabet, t) for t in tuples))


def random_word(rng, alphabet: Alphabet, length: int) -> Word:
    return Word(alphabet, (rng.choice(alphabet.symbols) for _ in range(length)))


def random_lasso(rng, alphabet: Alphabet, max_prefix: int = 3, max_period: int = 3) -> LassoStream:
    prefix = random_word(rng, alphabet, rng.randint(0, max_prefix))
    period = random_word(rng, alphabet, rng.randint(1, max_period))
    return LassoStream(alphabet, prefix, period)


def enumerate_lassos(alphabet: Alphabet, max_total: int) -> list[LassoStream]:
    """All lassos with |prefix| + |period| <= max_total, deduplicated up to
    stream equality."""
    seen = set()
    out = []
    for total in range(1, max_total + 1):
        for period_len in range(1, total + 1):
            prefix_len = total - period_len
            for pre in itertools.product(alphabet.symbols, repeat=prefix_len):
                for per in itertools.product(alphabet.symbols, repeat=period_len):
                    s = LassoStream(alphabet, Word(alphabet, pre), Word(alphabet, per))
                    if s not in seen:
                        seen.add(s)
                        out.append(s)
    return out


def random_detector(rng, alphabet: Alphabet, n_states: int, fault_prob: float = 0.3) -> FiniteDetector:
    states = [f"q{i}" for i in range(n_states)]
    table = {}
    for x in states:
        for n in alphabet:
            if rng.random() < fault_prob:
                table[(x, n)] = FAULT
            else:
                table[(x, n)] = rng.choice(states)
    return FiniteDetector(alphabet, states, table)


def all_detectors(alphabet: Alphabet, n_states: int):
    """Every detector on states q0..q(n-1): each (state, symbol) entry
    ranges over FAULT and all states."""
    states = [f"q{i}" for i in range(n_states)]
    targets = [FAULT] + states
    cells = [(x, n) for x in states for n in alphabet]
    for combo in itertools.product(targets, repeat=len(cells)):
        yield FiniteDetector(alphabet, states, dict(zip(cells, combo)))


def random_ssystem(rng, alphabet: Alphabet, n_states: int) -> SSystem:
    states = [f"o{i}" for i in range(n_states)]
    out = {x: rng.choice(alphabet.symbols) for x in states}
    tr = {x: rng.choice(states) for x in states}
    return SSystem(alphabet, states, out, tr)


def inflate_detector(rng, det: FiniteDetector, max_copies: int = 2):
    """A detector that unrolls each state of ``det`` into 1..max_copies
    indistinguishable copies, together with the collapsing state map (a
    detector morphism by construction)."""
    copies = {x: rng.randint(1, max_copies) for x in det.states}
    states = [(x, i) for x in det.states for i in range(copies[x])]
    table, step_table = {}, det.step_table
    for x, i in states:
        for n in det.alphabet:
            target = step_table[(x, n)]
            if target is FAULT:
                table[((x, i), n)] = FAULT
            else:
                table[((x, i), n)] = (target, rng.randrange(copies[target]))
    collapse = {(x, i): x for x, i in states}
    return FiniteDetector(det.alphabet, states, table), collapse


def inflate_ssystem(rng, sys_: SSystem, max_copies: int = 2):
    """Output-system unrolling with its collapsing morphism."""
    copies = {x: rng.randint(1, max_copies) for x in sys_.states}
    states = [(x, i) for x in sys_.states for i in range(copies[x])]
    out = {(x, i): sys_.out_table[x] for x, i in states}
    tr = {}
    for x, i in states:
        target = sys_.tr_table[x]
        tr[(x, i)] = (target, rng.randrange(copies[target]))
    collapse = {(x, i): x for x, i in states}
    return SSystem(sys_.alphabet, states, out, tr), collapse


def machine_for_set(words: FiniteWordSet) -> EilenbergMachine:
    """A machine accepting exactly the given finite set: one plain chain of
    states per word, run nondeterministically side by side."""
    states = []
    transitions = []
    initial = []
    final = []
    for i, w in enumerate(words.words):
        chain = [f"w{i}_{j}" for j in range(len(w) + 1)]
        states.extend(chain)
        initial.append(chain[0])
        final.append(chain[-1])
        for j, n in enumerate(w.symbols):
            transitions.append((chain[j], n, chain[j + 1]))
    return EilenbergMachine(words.alphabet, states, transitions, initial, final)


def random_machine(rng, alphabet: Alphabet, n_states: int) -> EilenbergMachine:
    states = [f"m{i}" for i in range(n_states)]
    transitions = set()
    for _ in range(rng.randint(1, 2 * n_states)):
        transitions.add(
            (rng.choice(states), rng.choice(alphabet.symbols), rng.choice(states))
        )
    initial = [x for x in states if rng.random() < 0.5] or [rng.choice(states)]
    final = [x for x in states if rng.random() < 0.4]
    return EilenbergMachine(alphabet, states, transitions, initial, final)


def oracle_first_prefix_pair(rows: list, alphabet: Alphabet, accepting: list):
    """The prefix-freeness witness of an automaton by a breadth-first
    search carrying words from every accepting state in turn (cubic in the
    states): ``u`` the shortest word to the first accepting state, in
    numbering order, that reaches acceptance again by a nonempty word,
    ``uv`` with ``v`` the first shortest such word; or None."""
    symbols = alphabet.symbols
    shortest: dict = {0: ()}
    for q, row in enumerate(rows):
        for n, t in zip(symbols, row):
            shortest.setdefault(t, shortest[q] + (n,))
    for q in range(len(rows)):
        if not accepting[q]:
            continue
        frontier = [(q, ())]
        seen = {q}
        while frontier:
            nxt = []
            for cur, syms in frontier:
                for n, target in zip(symbols, rows[cur]):
                    if accepting[target]:
                        u = shortest[q]
                        return Word(alphabet, u), Word(alphabet, u + syms + (n,))
                    if target not in seen:
                        seen.add(target)
                        nxt.append((target, syms + (n,)))
            frontier = nxt
    return None


def advance_lasso_fault(p, s: LassoStream) -> int | None:
    """1-based position of the first fault on a lasso when the violation
    language ``p`` itself is stepped with ``advance``, one symbol at a
    time; None once the language at the start of a period repeats (safe)."""
    q, position, seen = p, 0, set()
    for symbol in s.prefix.symbols:
        position += 1
        q = q.advance(symbol)
        if q is FAULT:
            return position
    while q.initial not in seen:
        seen.add(q.initial)
        for symbol in s.period.symbols:
            position += 1
            q = q.advance(symbol)
            if q is FAULT:
                return position
    return None


def oracle_primitive_root(symbols: tuple) -> tuple:
    """The shortest repeating block of ``symbols``: each divisor of the
    length tried in turn."""
    n = len(symbols)
    return next(symbols[:d] for d in range(1, n + 1) if n % d == 0 and symbols[:d] * (n // d) == symbols)


def oracle_lasso_parts(prefix: tuple, period: tuple) -> tuple:
    """The canonical (prefix, period) symbols of a lasso: the shortest
    repeating block of the period, then the prefix symbols that agree with
    the loop absorbed one at a time, the loop rotated back by one for
    each."""
    per = oracle_primitive_root(period)
    pre = prefix
    while pre and pre[-1] == per[-1]:
        per = per[-1:] + per[:-1]
        pre = pre[:-1]
    return pre, per


def scan_enumerated_step(e: Enumerator, consumed: tuple, n: str, budget: int):
    """One step of an enumerated violation language by a scan of the
    enumeration from its first item: :data:`FAULT` if the first item that
    is the candidate word ``consumed + (n,)`` or a proper nonempty prefix
    of it is the word itself, the word if it is a prefix or the
    enumeration runs out first, :data:`UNKNOWN` once ``budget`` fresh
    items are drawn without an answer.  Draws from ``e`` as it goes."""
    word = consumed + (n,)
    proper = {word[:k] for k in range(1, len(word))}
    k = fresh = 0
    while True:
        if k >= e.drawn:
            if e.finished:
                return word
            if fresh >= budget:
                return UNKNOWN
            fresh += 1
        item = e.word_at(k)
        if item is None:
            return word
        k += 1
        if item.symbols == word:
            return FAULT
        if item.symbols in proper:
            return word


def random_prefix_free(rng, alphabet: Alphabet, max_len: int, tries: int = 12) -> FiniteWordSet:
    """A random prefix-free set of nonempty words, grown greedily."""
    kept: list[tuple] = []
    for _ in range(tries):
        cand = tuple(rng.choice(alphabet.symbols) for _ in range(rng.randint(1, max_len)))
        comparable = any(
            cand[: len(k)] == k or k[: len(cand)] == cand for k in kept
        )
        if not comparable:
            kept.append(cand)
    return word_set(alphabet, kept)


def tuple_set(words) -> frozenset:
    """Oracle for explicit word sets: a set held as the frozenset of its
    members' symbol tuples, and operated on by the plain definitions."""
    return frozenset(tuple(w) for w in words)


def tuple_sort_key(alphabet: Alphabet, t: tuple) -> tuple:
    """Word order: shorter first, then lexicographic in declaration order."""
    return len(t), [alphabet.symbols.index(n) for n in t]


def tuple_set_key(alphabet: Alphabet, members: frozenset) -> list:
    """The order of word sets: by their members, each in word order."""
    return sorted(tuple_sort_key(alphabet, t) for t in members)


def tuple_derivative(n: str, members: frozenset) -> frozenset:
    return frozenset(t[1:] for t in members if t[:1] == (n,))


def tuple_prefix_pair(alphabet: Alphabet, members: frozenset):
    """The witness that ``members`` is not prefix-free, by comparing every
    pair: the first member in word order that extends another member, and
    the shortest member it extends; None if there is none."""
    pairs = [(u, v) for u in members for v in members if len(u) < len(v) and v[:len(u)] == u]
    return min(pairs, key=lambda p: (tuple_sort_key(alphabet, p[1]), len(p[0])), default=None)


def tuple_final_step(n: str, members: frozenset):
    """FAULT when the one-letter word ``n`` is a member, otherwise the
    derivative; a set holding the empty word has no step."""
    if () in members:
        raise EpsilonViolation("the empty word is a member")
    return FAULT if (n,) in members else tuple_derivative(n, members)


def tuple_closure(alphabet: Alphabet, members: frozenset) -> set[frozenset]:
    """Every set reachable from ``members`` by steps that do not fault."""
    seen, todo = {members}, [members]
    while todo:
        current = todo.pop()
        for n in alphabet.symbols:
            step = tuple_final_step(n, current)
            if step is not FAULT and step not in seen:
                seen.add(step)
                todo.append(step)
    return seen


def reference_family_steps(members: list) -> tuple[list, dict, tuple | None]:
    """Reference for the closure walk of ``vigil.families``, one step at a
    time: every member checked in full, in the order given, the distinct
    members taken in the order of their words, each step by
    :func:`~vigil.detector.final_step`.  Returns the distinct members by
    size and then words, the step table, and the first step that leaves the
    family, or None."""
    alphabet = members[0].alphabet
    family: dict = {}
    for p in members:
        if p.alphabet != alphabet:
            raise ValueError("family members must share one alphabet")
        require_prefix_free(p)
        family.setdefault(p, p)
    order = {p: _sort_keys(alphabet, p._key) for p in family}
    table: dict = {}
    for p in sorted(family, key=order.__getitem__):
        for n in alphabet.symbols:
            d = final_step(p, n)
            table[p, n] = d if d is FAULT else family.get(d)
            if table[p, n] is None:
                return [], {}, (p, n)
    return sorted(family, key=lambda p: (len(p), order[p])), table, None


def reference_check_universal_family(members: list):
    witness = reference_family_steps(members)[2] if members else None
    return witness is None, witness


def reference_universal_detector_for(members: list):
    if not members:
        raise ValueError("a universal detector needs at least one member language")
    states, table, witness = reference_family_steps(members)
    if witness is not None:
        p, n = witness
        raise ValueError(
            f"family is not derivative-closed: derivative of {p!r} by {n!r} is missing"
        )
    return FiniteDetector(members[0].alphabet, states, table), {p: p for p in states}


def regex_matches(node, symbols: tuple) -> bool:
    """Backtracking regex membership, independent of the automaton route."""

    @lru_cache(maxsize=None)
    def match(which, start: int, end: int) -> bool:
        part = parts[which]
        if isinstance(part, Lit):
            return end - start == 1 and symbols[start] == part.symbol
        if isinstance(part, Alt):
            return any(match(index[id(i)], start, end) for i in part.items)
        if isinstance(part, Seq):
            return seq_match(tuple(index[id(i)] for i in part.items), start, end)
        if isinstance(part, Opt):
            return start == end or match(index[id(part.item)], start, end)
        if isinstance(part, Star):
            if start == end:
                return True
            inner = index[id(part.item)]
            return any(
                match(inner, start, mid) and match(which, mid, end)
                for mid in range(start + 1, end + 1)
            )
        if isinstance(part, Plus):
            inner = index[id(part.item)]
            return any(
                match(inner, start, mid) and (mid == end or match(which, mid, end))
                for mid in range(start + 1, end + 1)
            ) or match(inner, start, end)
        raise TypeError(part)

    @lru_cache(maxsize=None)
    def seq_match(which_items: tuple, start: int, end: int) -> bool:
        if len(which_items) == 1:
            return match(which_items[0], start, end)
        head, rest = which_items[0], which_items[1:]
        return any(
            match(head, start, mid) and seq_match(rest, mid, end)
            for mid in range(start, end + 1)
        )

    parts = []
    index = {}

    def collect(n):
        if id(n) in index:
            return
        index[id(n)] = len(parts)
        parts.append(n)
        if isinstance(n, (Seq, Alt)):
            for i in n.items:
                collect(i)
        elif isinstance(n, (Star, Plus, Opt)):
            collect(n.item)

    collect(node)
    return match(index[id(node)], 0, len(symbols))


def regex_matcher(node):
    """Membership in a pattern's language for many words, decided like
    :func:`regex_matches` by backtracking, but memoized by (pattern node,
    piece of word) across calls: words that share pieces share the work."""
    parts, index = [], {}

    def collect(n):
        if id(n) in index:
            return
        index[id(n)] = len(parts)
        parts.append(n)
        if isinstance(n, (Seq, Alt)):
            for i in n.items:
                collect(i)
        elif isinstance(n, (Star, Plus, Opt)):
            collect(n.item)

    @lru_cache(maxsize=None)
    def match(which: int, u: tuple) -> bool:
        part = parts[which]
        if isinstance(part, Lit):
            return u == (part.symbol,)
        if isinstance(part, Alt):
            return any(match(index[id(i)], u) for i in part.items)
        if isinstance(part, Seq):
            return seq_match(tuple(index[id(i)] for i in part.items), u)
        inner = index[id(part.item)]
        if isinstance(part, Opt):
            return not u or match(inner, u)
        if not u:  # a star matches the empty word, a plus when its item does
            return isinstance(part, Star) or match(inner, u)
        return any(match(inner, u[:k]) and (k == len(u) or match(which, u[k:]))
                   for k in range(1, len(u) + 1))  # a nonempty first turn, then the rest

    @lru_cache(maxsize=None)
    def seq_match(items: tuple, u: tuple) -> bool:
        if len(items) == 1:
            return match(items[0], u)
        return any(match(items[0], u[:k]) and seq_match(items[1:], u[k:])
                   for k in range(len(u) + 1))

    collect(node)
    return lambda symbols: match(0, tuple(symbols))


def minimal_matches(node, alphabet: Alphabet, max_len: int) -> set[Word]:
    """Oracle kernel: words matching the pattern none of whose proper
    nonempty or empty prefixes match, up to max_len."""
    out = set()
    for w in all_words(alphabet, max_len, min_len=1):
        if not regex_matches(node, w.symbols):
            continue
        if any(regex_matches(node, w.symbols[:k]) for k in range(len(w))):
            continue
        out.add(w)
    return out


def subset_of(mask: int) -> frozenset:
    """The positions of a subset held as a bitmask, bit ``p`` for position ``p``."""
    return frozenset(p for p in range(mask.bit_length()) if mask >> p & 1)


def oracle_require_small(pattern) -> None:
    """The pattern size guard as two walks: a level-by-level depth walk
    (shared nodes once per level), then the expanded size, each shared
    node's expansion counted once by a memoized recursion."""
    level = {id(pattern): pattern}
    for _ in range(_MAX_DEPTH):
        level = {id(item): item for node in level.values() for item in _children(node)}
        if not level:
            break
    else:
        raise ValueError(f"pattern deeper than {_MAX_DEPTH} nodes ({MAX_NESTING} nesting levels)")
    sizes: dict[int, int] = {}

    def size(node) -> int:  # recursion no deeper than the walk above
        if id(node) not in sizes:
            sizes[id(node)] = 1 + sum(map(size, _children(node)))
        return sizes[id(node)]

    if size(pattern) > MAX_PATTERN_SIZE:
        raise ValueError(f"pattern expands to more than {MAX_PATTERN_SIZE} nodes")


class FrozensetSubsets:
    """The subset construction of a pattern's positions (a
    ``speclang._Positions``) with each subset a frozenset of positions:
    ``initial``, and ``expand``, a subset's successors in alphabet order,
    each the union of the follow sets (read as frozensets) of its positions
    that read the symbol, :data:`FAULT` for one that holds ``end``.  ``prefix_free`` turns
    false once such a successor holds another position too."""

    def __init__(self, positions, alphabet: Alphabet):
        self.positions, self.alphabet = positions, alphabet
        self.initial = subset_of(positions.initial)
        self.prefix_free = True

    def expand(self, subset: frozenset) -> list:
        pos, row = self.positions, []
        for n in self.alphabet.symbols:
            target = frozenset().union(*[subset_of(pos.follow[p]) for p in subset
                                         if pos.symbols[p] == n])
            if pos.end in target:
                self.prefix_free = self.prefix_free and len(target) == 1
                target = FAULT
            row.append(target)
        return row


def reordered(node):
    """The same pattern with every alternation's branches reversed."""
    if isinstance(node, Lit):
        return node
    if isinstance(node, (Seq, Alt)):
        items = tuple(map(reordered, node.items))
        return Alt(items[::-1]) if isinstance(node, Alt) else Seq(items)
    return type(node)(reordered(node.item))


def sigma_closed(node, alphabet: Alphabet):
    """The pattern followed by any word: the same minimal bad prefixes."""
    return Seq((node, Star(Alt(tuple(map(Lit, alphabet.symbols))))))


def mutated(rng, node, alphabet: Alphabet):
    """The same pattern with one literal, drawn at random, read as another
    symbol."""
    literals = []

    def count(n):
        if isinstance(n, Lit):
            literals.append(n)
        else:
            for item in n.items if isinstance(n, (Seq, Alt)) else (n.item,):
                count(item)

    count(node)
    target = rng.choice(literals)

    def rebuild(n):
        if n is target:
            return Lit(rng.choice([m for m in alphabet.symbols if m != n.symbol]))
        if isinstance(n, Lit):
            return n
        if isinstance(n, (Seq, Alt)):
            return type(n)(tuple(map(rebuild, n.items)))
        return type(n)(rebuild(n.item))

    return rebuild(node)


def compiled_equivalent(a: ConstraintSpec, b: ConstraintSpec) -> bool:
    """Spec equivalence as identical canonical detector tables."""
    return compile_spec(a)[0].step_table == compile_spec(b)[0].step_table


def compiled_words(spec: ConstraintSpec, depth: int) -> str:
    """What ``vigil words`` prints, read off the canonical detector by
    :func:`unpruned_violation_words`."""
    det, init = compile_spec(spec)
    return "".join(" ".join(w) + "\n" for w in unpruned_violation_words(det, init, depth))


def random_ast(rng, alphabet: Alphabet, depth: int):
    """A random normalized pattern tree (no unary Seq/Alt)."""
    if depth <= 0:
        return Lit(rng.choice(alphabet.symbols))
    kind = rng.choice(["lit", "seq", "alt", "star", "plus", "opt"])
    if kind == "lit":
        return Lit(rng.choice(alphabet.symbols))
    if kind in ("seq", "alt"):
        arity = rng.randint(2, 3)
        items = tuple(random_ast(rng, alphabet, depth - 1) for _ in range(arity))
        return Seq(items) if kind == "seq" else Alt(items)
    wrap = {"star": Star, "plus": Plus, "opt": Opt}[kind]
    return wrap(random_ast(rng, alphabet, depth - 1))


def with_peak_rss(argv: list) -> list:
    """``argv`` run under a small Python that writes its peak RSS (KiB on
    Linux) as the last line of stderr and exits with its code.  A
    process's peak counts at least its parent's size when it was started,
    so the test process must not be that parent."""
    script = "; ".join([
        "import resource, subprocess, sys",
        "code = subprocess.run(sys.argv[1:]).returncode",
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, file=sys.stderr)",
        "sys.exit(code)"])
    return [sys.executable, "-c", script, *argv]


_ORACLE_TOKEN = re.compile(r"(?P<space>\s+)|(?P<comment>#[^\n]*)|(?P<punct>[;|*+?()])"
                           r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<char>.)")


class OracleParser:
    """The spec parser ``speclang.parse`` replaced, kept as its oracle: a
    recursive descent over the tokens of a spec, each a (kind, value,
    offset) tuple of kind "name", "punct" or "end", made by one regex with
    a named group per kind, the whole text tokenized before the descent
    starts.  Its spec goes through the size guard of ``ConstraintSpec``."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = []
        end = len(text)  # unless a comment runs to it: then its "#"
        for match in _ORACLE_TOKEN.finditer(text):
            kind = match.lastgroup
            if kind == "name" or kind == "punct":
                self.tokens.append((kind, match.group(), match.start()))
            elif kind == "char":
                self.fail(f"unexpected character {match.group()!r}", match.start())
            elif kind == "comment" and match.end() == len(text):
                end = match.start()
        self.tokens.append(("end", "", end))
        self.pos = 0
        self.depth = 0

    def fail(self, message: str, offset: int):
        """Raise a :class:`SpecError` at ``offset`` of the text."""
        line_start = self.text.rfind("\n", 0, offset)
        raise SpecError(message, self.text.count("\n", 0, offset) + 1, offset - line_start)

    def peek(self) -> tuple:
        return self.tokens[self.pos]

    def take(self) -> tuple:
        tok = self.tokens[self.pos]
        if tok[0] != "end":
            self.pos += 1
        return tok

    def expect(self, value: str) -> tuple:
        _, found, offset = self.peek()
        if found != value:
            self.fail(f"expected {value!r}, found {found or 'end of input'!r}", offset)
        return self.take()

    def parse_spec(self, name: str) -> ConstraintSpec:
        keyword = self.expect("alphabet")
        symbols: dict = {}  # a dict for its order and its hashed lookup
        while self.peek()[0] == "name":
            _, symbol, offset = self.take()
            if symbol in symbols:
                self.fail(f"duplicate alphabet symbol {symbol!r}", offset)
            symbols[symbol] = None
        if len(symbols) < 2:
            self.fail("an alphabet needs at least two symbols", keyword[2])
        self.expect(";")
        alphabet = Alphabet(symbols)
        self.expect("violation")
        pattern = self.parse_alt(alphabet)
        self.expect(";")
        kind, value, offset = self.peek()
        if kind != "end":
            self.fail(f"unexpected trailing input {value!r}", offset)
        return ConstraintSpec(name, alphabet, pattern)

    def parse_alt(self, alphabet: Alphabet):
        parts = [self.parse_seq(alphabet)]
        while self.peek()[1] == "|":
            self.take()
            parts.append(self.parse_seq(alphabet))
        return parts[0] if len(parts) == 1 else Alt(tuple(parts))

    def parse_seq(self, alphabet: Alphabet):
        items = [self.parse_rep(alphabet)]
        while self.peek()[0] == "name" or self.peek()[1] == "(":
            items.append(self.parse_rep(alphabet))
        return items[0] if len(items) == 1 else Seq(tuple(items))

    def parse_rep(self, alphabet: Alphabet):
        atom = self.parse_atom(alphabet)
        op = {"*": Star, "+": Plus, "?": Opt}.get(self.peek()[1])
        if op is None:
            return atom
        self.take()
        return op(atom)

    def parse_atom(self, alphabet: Alphabet):
        kind, value, offset = self.take()
        if kind == "name":
            if value not in alphabet:
                self.fail(f"undeclared symbol {value!r}", offset)
            return Lit(value)
        if value == "(":
            if self.depth == MAX_NESTING:
                self.fail(f"parentheses nested deeper than {MAX_NESTING} levels", offset)
            self.depth += 1
            inner = self.parse_alt(alphabet)
            self.depth -= 1
            self.expect(")")
            return inner
        self.fail(f"expected a symbol or '(', found {value or 'end of input'!r}", offset)


def oracle_parse(text: str, name: str = "constraint") -> ConstraintSpec:
    """``speclang.parse`` as :class:`OracleParser` reads it."""
    return OracleParser(text).parse_spec(name)


def cold_start(code: str) -> tuple[str, set[str]]:
    """The output of a ``python -S`` child, with ``src`` first on its path,
    that runs ``code``, and the modules loaded when it ends."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = f"import sys\nsys.path.insert(0, {str(src)!r})\n{code}\nprint(*sys.modules)"
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr[-2000:]
    *output, modules = done.stdout.splitlines()
    return "\n".join(output), set(modules.split())
