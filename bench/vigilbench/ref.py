"""Reference answers that do not use vigil's own stepping.

* Patterns are the generator's own tuple trees (``("lit", s)``, ``("seq",
  items)``, ``("alt", items)``, ``("star", x)``, ``("plus", x)``,
  ``("opt", x)``).  :class:`Derivatives` decides them with Brzozowski
  derivatives and its own Moore refinement, which gives the canonical
  detector size, the minimal violation words, prefix-freeness and spec
  equivalence.
* Sigma*-suffix specs over fixed-length windows are decided by a window
  scan: tokens are encoded one byte each and the window is a byte regex.
* Explicit word sets are plain sets of tuples.
* ``tests/support.py`` is loaded unmodified for its ``regex_matches`` and
  ``minimal_matches`` oracles.
"""

from __future__ import annotations

import importlib.util
import os
import re

FAULT = "FAULT"


# ---------------------------------------------------------------- patterns

def render(node) -> str:
    """Concrete spec syntax of a pattern tree."""
    kind = node[0]
    if kind == "lit":
        return node[1]
    if kind == "alt":
        return "(" + " | ".join(render(i) for i in node[1]) + ")"
    if kind == "seq":
        return " ".join(render(i) for i in node[1])
    op = {"star": "*", "plus": "+", "opt": "?"}[kind]
    inner = render(node[1])
    return f"({inner}){op}" if node[1][0] != "lit" else inner + op


def spec_text(symbols, pattern) -> str:
    return f"alphabet {' '.join(symbols)} ;\nviolation {render(pattern)} ;\n"


def to_vigil_ast(node):
    """The same tree as vigil's pattern dataclasses, for tests/support."""
    from vigil.speclang import Alt, Lit, Opt, Plus, Seq, Star

    kind = node[0]
    if kind == "lit":
        return Lit(node[1])
    if kind in ("seq", "alt"):
        items = tuple(to_vigil_ast(i) for i in node[1])
        return (Seq if kind == "seq" else Alt)(items)
    return {"star": Star, "plus": Plus, "opt": Opt}[kind](to_vigil_ast(node[1]))


class Derivatives:
    """Interned Brzozowski derivatives of one pattern over one alphabet.

    Terms are tuples over child ids, so hashing stays shallow: id 0 is the
    empty language, id 1 the empty word.
    """

    EMPTY, EPS = 0, 1

    def __init__(self, symbols):
        self.symbols = tuple(symbols)
        self.terms = [("empty",), ("eps",)]
        self.ids = {t: i for i, t in enumerate(self.terms)}
        self._nullable = {0: False, 1: True}
        self._deriv = {}

    def _intern(self, term) -> int:
        tid = self.ids.get(term)
        if tid is None:
            tid = len(self.terms)
            self.terms.append(term)
            self.ids[term] = tid
        return tid

    def lit(self, s) -> int:
        return self._intern(("lit", s))

    def alt(self, ids) -> int:
        flat = set()
        for i in ids:
            term = self.terms[i]
            if term[0] == "or":
                flat |= term[1]
            elif i != self.EMPTY:
                flat.add(i)
        if not flat:
            return self.EMPTY
        if len(flat) == 1:
            return next(iter(flat))
        return self._intern(("or", frozenset(flat)))

    def cat(self, ids) -> int:
        flat = []
        for i in ids:
            if i == self.EMPTY:
                return self.EMPTY
            term = self.terms[i]
            if term[0] == "cat":
                flat.extend(term[1])
            elif i != self.EPS:
                flat.append(i)
        if not flat:
            return self.EPS
        if len(flat) == 1:
            return flat[0]
        return self._intern(("cat", tuple(flat)))

    def star(self, i) -> int:
        if i in (self.EMPTY, self.EPS) or self.terms[i][0] == "star":
            return self.EPS if i in (self.EMPTY, self.EPS) else i
        return self._intern(("star", i))

    def build(self, node) -> int:
        kind = node[0]
        if kind == "lit":
            return self.lit(node[1])
        if kind == "seq":
            return self.cat([self.build(i) for i in node[1]])
        if kind == "alt":
            return self.alt([self.build(i) for i in node[1]])
        inner = self.build(node[1])
        if kind == "star":
            return self.star(inner)
        if kind == "plus":
            return self.cat([inner, self.star(inner)])
        return self.alt([self.EPS, inner])

    def nullable(self, i) -> bool:
        got = self._nullable.get(i)
        if got is None:
            term = self.terms[i]
            if term[0] == "lit":
                got = False
            elif term[0] == "star":
                got = True
            elif term[0] == "or":
                got = any(self.nullable(j) for j in term[1])
            else:
                got = all(self.nullable(j) for j in term[1])
            self._nullable[i] = got
        return got

    def deriv(self, i, n) -> int:
        key = (i, n)
        got = self._deriv.get(key)
        if got is None:
            term = self.terms[i]
            kind = term[0]
            if kind in ("empty", "eps"):
                got = self.EMPTY
            elif kind == "lit":
                got = self.EPS if term[1] == n else self.EMPTY
            elif kind == "or":
                got = self.alt([self.deriv(j, n) for j in term[1]])
            elif kind == "star":
                got = self.cat([self.deriv(term[1], n), i])
            else:
                head, rest = term[1][0], term[1][1:]
                tail = self.cat(list(rest))
                got = self.cat([self.deriv(head, n), tail])
                if self.nullable(head):
                    got = self.alt([got, self.deriv(tail, n)])
            self._deriv[key] = got
        return got

    def kernel_table(self, start) -> tuple[list, dict]:
        """Reachable states of the kernel detector: a step faults when the
        derivative is nullable (a first match ends here)."""
        if self.nullable(start):
            raise ValueError("the pattern matches the empty word")
        order, seen, table = [start], {start}, {}
        for q in order:
            for n in self.symbols:
                d = self.deriv(q, n)
                if self.nullable(d):
                    table[(q, n)] = FAULT
                else:
                    table[(q, n)] = d
                    if d not in seen:
                        seen.add(d)
                        order.append(d)
        return order, table


def _minimal_blocks(symbols, order, table) -> dict:
    """Moore refinement: states with equal violation languages share a
    block number."""
    block = {q: tuple(table[(q, n)] == FAULT for n in symbols) for q in order}
    count = len(set(block.values()))
    while True:
        sig = {
            q: (block[q], tuple(None if table[(q, n)] == FAULT else block[table[(q, n)]]
                                for n in symbols))
            for q in order
        }
        names = {}
        fresh = {q: names.setdefault(sig[q], len(names)) for q in order}
        if len(names) == count:
            return fresh
        block, count = fresh, len(names)


def detector_states(symbols, pattern) -> int:
    """State count of the canonical detector of a spec."""
    engine = Derivatives(symbols)
    order, table = engine.kernel_table(engine.build(pattern))
    return len(set(_minimal_blocks(engine.symbols, order, table).values()))


def minimal_words(symbols, pattern, depth) -> list[tuple]:
    """Minimal violation words up to ``depth``, length then declaration
    order (the order ``vigil words`` prints)."""
    engine = Derivatives(symbols)
    _, table = engine.kernel_table(engine.build(pattern))
    found = []
    frontier = [(engine.build(pattern), ())]
    for _ in range(depth):
        nxt = []
        for q, word in frontier:
            for n in engine.symbols:
                target = table[(q, n)]
                if target == FAULT:
                    found.append(word + (n,))
                elif target != engine.EMPTY:
                    nxt.append((target, word + (n,)))
        frontier = nxt
    return sorted(found, key=lambda w: (len(w), [engine.symbols.index(s) for s in w]))


def pattern_prefix_free(symbols, pattern) -> bool:
    """Whether no match of the pattern extends to a longer match."""
    engine = Derivatives(symbols)
    start = engine.build(pattern)
    order, seen = [start], {start}
    for q in order:
        for n in engine.symbols:
            d = engine.deriv(q, n)
            if d not in seen:
                seen.add(d)
                order.append(d)
    for q in order:
        if not engine.nullable(q):
            continue
        stack = [engine.deriv(q, n) for n in engine.symbols]
        visited = set(stack)
        while stack:
            d = stack.pop()
            if engine.nullable(d):
                return False
            for n in engine.symbols:
                e = engine.deriv(d, n)
                if e not in visited:
                    visited.add(e)
                    stack.append(e)
    return True


def equivalent(symbols, pattern_a, pattern_b) -> bool:
    """Whether two specs have the same minimal bad prefixes: a synchronous
    walk of both kernel detectors that compares every fault."""
    engine = Derivatives(symbols)
    start = (engine.build(pattern_a), engine.build(pattern_b))
    if engine.nullable(start[0]) or engine.nullable(start[1]):
        raise ValueError("a pattern matches the empty word")
    stack, seen = [start], {start}
    while stack:
        p, q = stack.pop()
        for n in engine.symbols:
            dp, dq = engine.deriv(p, n), engine.deriv(q, n)
            fp, fq = engine.nullable(dp), engine.nullable(dq)
            if fp != fq:
                return False
            if not fp and (dp, dq) not in seen:
                seen.add((dp, dq))
                stack.append((dp, dq))
    return True


# ------------------------------------------------ Sigma*-suffix window scan

class WindowSpec:
    """A spec ``(Sigma)* C1 ... Cm`` with one symbol class per window slot.

    Tokens are encoded as single bytes (``a`` for the first symbol, and
    so on), so the window is a byte regex and the first violation of a
    trace is the end of the leftmost match (all matches have length m).
    """

    def __init__(self, symbols, classes):
        self.symbols = list(symbols)
        self.classes = [list(c) for c in classes]
        self.code = {s: 97 + i for i, s in enumerate(self.symbols)}
        body = b"".join(
            b"[" + bytes(self.code[s] for s in c) + b"]" for c in self.classes
        )
        self.regex = re.compile(body)
        self.width = len(self.classes)

    def pattern(self):
        slots = [("lit", c[0]) if len(c) == 1 else ("alt", tuple(("lit", s) for s in c))
                 for c in self.classes]
        sigma = ("alt", tuple(("lit", s) for s in self.symbols))
        return ("seq", (("star", sigma),) + tuple(slots))

    def text(self) -> str:
        return spec_text(self.symbols, self.pattern())

    def first_violation(self, buf) -> int | None:
        """1-based position where the first window match ends."""
        m = self.regex.search(buf)
        return None if m is None else m.end()

    def names(self, buf) -> list[str]:
        return [self.symbols[c - 97] for c in buf]


# ------------------------------------------------------- explicit word sets

def derivative_closure(words: frozenset, symbols) -> list[frozenset]:
    """The set and its iterated symbol derivatives, skipping a symbol that
    is itself a member (the detector faults there)."""
    order, seen = [words], {words}
    for p in order:
        for n in symbols:
            if (n,) in p:
                continue
            d = frozenset(w[1:] for w in p if w[0] == n)
            if d not in seen:
                seen.add(d)
                order.append(d)
    return order


def first_member_prefix(word, words: frozenset) -> int | None:
    for k in range(1, len(word) + 1):
        if word[:k] in words:
            return k
    return None


# ------------------------------------------------------ tests/support.py

def load_support(root):
    """Import ``tests/support.py`` from the repository without changing
    it or ``sys.path``."""
    path = os.path.join(root, "tests", "support.py")
    spec = importlib.util.spec_from_file_location("vigil_tests_support", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
