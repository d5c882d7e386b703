"""Shared generators and independent oracles for the test suite.

The oracles here deliberately avoid the library's own stepping machinery:
faults are located by walking raw transition tables, regex membership is
decided by a backtracking interval matcher, and prefix-free sets are
enumerated as antichains of the prefix forest.
"""

from __future__ import annotations

import itertools
import sys
from functools import lru_cache

from vigil.detector import FiniteDetector
from vigil.families import EilenbergMachine, Enumerator
from vigil.sequences import Alphabet, EpsilonViolation, FiniteWordSet, LassoStream, Word
from vigil.speclang import Alt, Lit, Opt, Plus, Seq, Star
from vigil.systems import FAULT, UNKNOWN, SSystem


def binary() -> Alphabet:
    return Alphabet(["a", "b"])


def all_words(alphabet: Alphabet, max_len: int, min_len: int = 0):
    """Every word of length min_len..max_len, shortest first."""
    for length in range(min_len, max_len + 1):
        for combo in itertools.product(alphabet.symbols, repeat=length):
            yield Word(alphabet, combo)


def oracle_first_fault(det: FiniteDetector, state, symbols) -> int | None:
    """1-based position of the first fault when reading ``symbols`` from
    ``state``, walking the raw table; None if the whole word survives."""
    cur = state
    for i, n in enumerate(symbols):
        cur = det.step_table[(cur, n)]
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
    table = {}
    for x, i in states:
        for n in det.alphabet:
            target = det.step_table[(x, n)]
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


def oracle_lasso_parts(prefix: tuple, period: tuple) -> tuple:
    """The canonical (prefix, period) symbols of a lasso: the shortest
    repeating block of the period, then the prefix symbols that agree with
    the loop absorbed one at a time, the loop rotated back by one for
    each."""
    per = next(period[:d] for d in range(1, len(period) + 1)
               if period[:d] * (len(period) // d) == period)
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
