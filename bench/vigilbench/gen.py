"""Seeded inputs for the four workloads.

``generate(name, seed, work, sizes)`` writes every input file into
``work`` before any timing starts and returns a :class:`Workload`: the
operations of one pass (JSON-able dicts with their expected results),
the state the parent needs to check outputs, and the inputs the traced
run feeds to each layer.  The same seed gives the same inputs.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

from . import calib, ref

# equal lengths, so that every seed's traces cost the same per token
EVENT_NAMES = ["open", "shut", "lock", "free", "read", "save", "sync", "halt"]
LETTERS = ["a", "b", "c", "d"]

# Each workload at full size and at the toy size the self-test uses.
SIZES = {
    "full": {
        "trace_lens": (800_000, 840_000, 800_000, 840_000),
        "ladder": (4, 9), "ladder_equiv": 8, "random_specs": 20, "words_depth": 4,
        "periods": (200, 283, 400, 566, 800, 1131, 1600), "transfer_period": 300,
        "word_sets": 3, "set_parts": ((20, 20), (25, 28), (30, 30)), "feeds": 8,
        "set_words_depth": 8,
        "probe_tokens": 200_000,
    },
    "toy": {
        "trace_lens": (2_000, 2_100, 2_000, 2_100),
        "ladder": (3, 4), "ladder_equiv": 4, "random_specs": 3, "words_depth": 3,
        "periods": (20, 40), "transfer_period": 40,
        "word_sets": 1, "set_parts": ((4, 4),), "feeds": 2, "set_words_depth": 6,
        "probe_tokens": 2_000,
    },
}

WORKLOADS = ("trace_monitor", "spec_compile", "lasso_check", "word_sets")


@dataclass
class Workload:
    name: str
    work: str
    ops: list = field(default_factory=list)
    # parent-side data for checking: byte-encoded traces and lassos
    streams: dict = field(default_factory=dict)
    # inputs of the per-layer probes (see layers.py)
    specs: list = field(default_factory=list)      # spec file paths
    token_files: list = field(default_factory=list)  # (spec path, token file path)
    lassos: list = field(default_factory=list)     # (spec path, lasso literal)
    set_file: str | None = None
    # calibration rounds per sample (see calib.py)
    cal_rounds: int = calib.CAL_ROUNDS

    def add(self, op: dict) -> None:
        op["id"] = len(self.ops)
        self.ops.append(op)


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def _write_tokens(path: str, names: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for i in range(0, len(names), 16):
            handle.write(" ".join(names[i:i + 16]))
            handle.write("\n")


# ------------------------------------------------ Sigma*-suffix specs

def window_spec(rng: random.Random, lo: int = 10, hi: int = 200,
                size: int | None = None) -> ref.WindowSpec:
    """A spec ``(Sigma)* C1 ... Cm`` over ``size`` (default 6-8) event
    names whose canonical detector has between ``lo`` and ``hi`` states.
    The window classes draw on three "hot" names, so partial matches
    overlap."""
    while True:
        symbols = rng.sample(EVENT_NAMES, size or rng.randint(6, 8))
        hot = rng.sample(symbols, 3)
        classes = [rng.sample(hot, rng.choice((1, 1, 2))) for _ in range(rng.randint(6, 9))]
        spec = ref.WindowSpec(symbols, classes)
        if lo <= ref.detector_states(symbols, spec.pattern()) <= hi:
            return spec


def _random_codes(rng: random.Random, spec: ref.WindowSpec, length: int) -> bytearray:
    """Tokens biased towards the window's hot names, so the detector
    leaves its initial state often."""
    hot = {s for c in spec.classes for s in c}
    weights = [3.0 if s in hot else 1.0 for s in spec.symbols]
    codes = [spec.code[s] for s in spec.symbols]
    return bytearray(rng.choices(codes, weights, k=length))


def _break_matches(rng: random.Random, spec: ref.WindowSpec, buf: bytearray, at) -> None:
    """Remove every window match by rewriting the last token of each,
    leftmost first.  ``at(buf, i, code)`` writes the token at position i:
    in place, or at its position in a lasso's period."""
    last = {spec.code[s] for s in spec.classes[-1]}
    others = [spec.code[s] for s in spec.symbols if spec.code[s] not in last]
    pos = 0
    while True:
        m = spec.regex.search(buf, pos)
        if m is None:
            return
        at(buf, m.end() - 1, rng.choice(others))
        pos = max(0, m.end() - spec.width)


def _plant(rng: random.Random, spec: ref.WindowSpec, buf: bytearray, end: int) -> None:
    for j, cls in enumerate(spec.classes):
        buf[end - spec.width + j] = spec.code[rng.choice(cls)]


def _set(buf, i, code):
    buf[i] = code


# ------------------------------------------------------------ workloads

def trace_monitor(rng, wl: Workload, sz) -> None:
    """Four traces of 0.8M tokens.  Two end ok_so_far, two carry one
    planted violation at about 95 % of a slightly longer trace; the first
    is also read once more through stdin.  All five operations read about
    as many tokens, so the median and p90 draw on every operation of
    every pass, and lengths, alphabet sizes and violation positions are
    the same for every seed."""
    wl.cal_rounds = 20 * calib.CAL_ROUNDS
    for i, length in enumerate(sz["trace_lens"]):
        tenth = length // 10
        spec = window_spec(rng, size=(6, 7, 8, 7)[i])
        spec_path = _write(os.path.join(wl.work, f"trace{i}.vgl"), spec.text())
        buf = _random_codes(rng, spec, length)
        _break_matches(rng, spec, buf, _set)
        if i % 2:
            _plant(rng, spec, buf, length - tenth + int(tenth * rng.uniform(0.48, 0.52)))
        first = spec.first_violation(buf)
        trace_path = os.path.join(wl.work, f"trace{i}.txt")
        names = spec.names(buf)
        _write_tokens(trace_path, names)
        wl.streams[i] = (spec, buf)
        expect = {"type": "trace", "stream": i, "first": first, "length": length}
        wl.add({"kind": "cli", "argv": ["monitor", spec_path, "--trace", trace_path],
                "stdin": None, "expect": expect})
        if i == 0:
            wl.add({"kind": "cli", "argv": ["monitor", spec_path, "--trace", "-"],
                    "stdin": trace_path, "expect": expect})
        wl.specs.append(spec_path)
        probe = os.path.join(wl.work, f"probe{i}.txt")
        _write_tokens(probe, names[:sz["probe_tokens"]])
        wl.token_files.append((spec_path, probe))
        prefix, period = names[:20], names[20:420]
        wl.lassos.append((spec_path, " ".join(prefix) + " ; " + " ".join(period)))
    wl.set_file = _window_set(rng, wl, wl.streams[0][0])


def _ladder(k: int, order=("a", "b"), last="b"):
    ab = ("alt", tuple(("lit", s) for s in order))
    return ("seq", (("star", ab), ("lit", "a")) + (ab,) * k
            + (("lit", "b"),) * 3 + (("lit", last),))


def _random_pattern(rng, symbols, depth):
    if depth <= 0:
        return ("lit", rng.choice(symbols))
    kind = rng.choice(["lit", "seq", "alt", "star", "plus", "opt"])
    if kind == "lit":
        return ("lit", rng.choice(symbols))
    if kind in ("seq", "alt"):
        return (kind, tuple(_random_pattern(rng, symbols, depth - 1)
                            for _ in range(rng.randint(2, 3))))
    return (kind, _random_pattern(rng, symbols, depth - 1))


def _size(node) -> int:
    if node[0] == "lit":
        return 1
    if node[0] in ("seq", "alt"):
        return 1 + sum(_size(i) for i in node[1])
    return 1 + _size(node[1])


def _reorder(node):
    """The same pattern with every alternation's branches reversed."""
    kind = node[0]
    if kind == "lit":
        return node
    if kind in ("seq", "alt"):
        items = tuple(_reorder(i) for i in node[1])
        return (kind, items[::-1] if kind == "alt" else items)
    return (kind, _reorder(node[1]))


def _mutate(rng, node, symbols):
    """The same pattern with one literal replaced by another symbol."""
    lits = []

    def walk(n, path):
        if n[0] == "lit":
            lits.append(path)
        elif n[0] in ("seq", "alt"):
            for j, item in enumerate(n[1]):
                walk(item, path + (j,))
        else:
            walk(n[1], path + (0,))

    walk(node, ())
    target = rng.choice(lits)

    def rebuild(n, path):
        if not path:
            return ("lit", rng.choice([s for s in symbols if s != n[1]]))
        if n[0] in ("seq", "alt"):
            items = list(n[1])
            items[path[0]] = rebuild(items[path[0]], path[1:])
            return (n[0], tuple(items))
        return (n[0], rebuild(n[1], path[1:]))

    return rebuild(node, target)


def spec_compile(rng, wl: Workload, sz, support) -> None:
    """The k-ladder, seeded random patterns over 2-4 symbols, and equiv
    pairs that are equal by construction or differ by one literal."""

    def spec_file(name, symbols, pattern):
        return _write(os.path.join(wl.work, f"{name}.vgl"), ref.spec_text(symbols, pattern))

    def check(name, symbols, pattern):
        path = spec_file(name, symbols, pattern)
        wl.add({"kind": "cli", "argv": ["check", path], "stdin": None, "expect": {
            "type": "check", "name": name, "alphabet": list(symbols),
            "states": ref.detector_states(symbols, pattern),
            "changed": not ref.pattern_prefix_free(symbols, pattern)}})
        return path

    def words(path, symbols, pattern, depth, oracle=None):
        expected = oracle if oracle is not None else ref.minimal_words(symbols, pattern, depth)
        wl.add({"kind": "cli", "argv": ["words", path, "--depth", str(depth)], "stdin": None,
                "expect": {"type": "words", "words": [list(w) for w in expected]}})

    def equiv(path_a, path_b, equal):
        wl.add({"kind": "cli", "argv": ["equiv", path_a, path_b], "stdin": None,
                "expect": {"type": "equiv", "equal": equal}})

    ab = ["a", "b"]
    lo, hi = sz["ladder"]
    for k in range(lo, hi + 1):
        path = check(f"ladder{k}", ab, _ladder(k))
        wl.specs.append(path)
        if k <= sz["ladder_equiv"]:
            words(path, ab, _ladder(k), k + 5)
            equiv(path, spec_file(f"ladder{k}_reordered", ab, _ladder(k, ("b", "a"))), True)
            equiv(path, spec_file(f"ladder{k}_mutated", ab, _ladder(k, last="a")),
                  ref.equivalent(ab, _ladder(k), _ladder(k, last="a")))
    made = 0
    while made < sz["random_specs"]:
        # alphabet size and pattern size cycle, so every seed's corpus has
        # the same mix
        symbols = LETTERS[:2 + made % 3]
        pattern = _random_pattern(rng, symbols, 3)
        low, high = ((3, 6), (7, 11), (12, 18), (19, 40))[made % 4]
        if not low <= _size(pattern) <= high:
            continue
        engine = ref.Derivatives(symbols)
        if engine.nullable(engine.build(pattern)):
            continue
        if not 2 <= ref.detector_states(symbols, pattern) <= 60:
            continue
        name = f"rand{made:02d}"
        path = check(name, symbols, pattern)
        depth = sz["words_depth"]
        oracle = None
        if len(symbols) <= 3:
            # tests/support's backtracking oracle, kept to small alphabets
            from vigil.sequences import Alphabet

            alphabet = Alphabet(symbols)
            found = support.minimal_matches(ref.to_vigil_ast(pattern), alphabet, depth)
            oracle = sorted((tuple(w.symbols) for w in found),
                            key=lambda w: (len(w), [symbols.index(s) for s in w]))
        words(path, symbols, pattern, depth, oracle)
        sigma = ("alt", tuple(("lit", s) for s in symbols))
        closed = ("seq", (pattern, ("star", sigma)))
        equiv(path, spec_file(f"{name}_sigma", symbols, closed), True)
        equiv(path, spec_file(f"{name}_reordered", symbols, _reorder(pattern)), True)
        mutated = _mutate(rng, pattern, symbols)  # nullability is structural
        equiv(path, spec_file(f"{name}_mutated", symbols, mutated),
              ref.equivalent(symbols, pattern, mutated))
        if made < 4:
            wl.specs.append(path)
            toks = [rng.choice(symbols) for _ in range(sz["probe_tokens"] // 4)]
            probe = os.path.join(wl.work, f"{name}_probe.txt")
            _write_tokens(probe, toks)
            wl.token_files.append((path, probe))
            wl.lassos.append((path, " ".join(toks[:20]) + " ; " + " ".join(toks[20:220])))
        made += 1
    toy = SIZES["toy"]
    wl.set_file = _sets_file(rng, wl, toy, LETTERS, _word_sets(rng, toy, 1), timed=False)


def _lasso(rng, spec: ref.WindowSpec, prefix_len: int, period_len: int, violate: bool):
    """A lasso whose unrolled stream avoids the window, or violates it once
    deep in the period.  Returns (literal, unrolled bytes, first
    violation)."""
    pre = _random_codes(rng, spec, prefix_len)
    per = _random_codes(rng, spec, period_len)

    def unrolled():
        return pre + per + per[:spec.width]

    def at(buf, i, code):
        if i < prefix_len:
            pre[i] = code
        else:
            per[(i - prefix_len) % period_len] = code
        buf[:] = unrolled()

    buf = unrolled()
    # a rewrite in the period also changes its other copy, so scan again
    while spec.first_violation(buf) is not None:
        _break_matches(rng, spec, buf, at)
    if violate:
        end = prefix_len + int(period_len * rng.uniform(0.78, 0.82))
        for j, cls in enumerate(spec.classes):
            per[end - spec.width + j - prefix_len] = spec.code[rng.choice(cls)]
        buf = unrolled()
    names = spec.names
    literal = " ".join(names(pre)) + " ; " + " ".join(names(per))
    return literal, buf, spec.first_violation(buf)


def lasso_check(rng, wl: Workload, sz) -> None:
    """Per period length one lasso that violates deep in the period (at
    about 80 %) and one safe lasso with a period shorter by sqrt(0.8), so
    that both cost the same (the loop is quadratic in the period); the
    short ones also go through transfer_to_universal.  Period lengths are
    the same for every seed."""
    pool = []
    for i in range(4):
        spec = window_spec(rng)
        pool.append((spec, _write(os.path.join(wl.work, f"lasso{i}.vgl"), spec.text())))
        wl.specs.append(pool[-1][1])
    for level in sz["periods"]:
        for violate in (False, True):
            spec, path = pool[len(wl.streams) % len(pool)]
            period = level if violate else round(level * 0.8 ** 0.5)
            literal, buf, first = _lasso(rng, spec, rng.randint(20, 24), period, violate)
            idx = len(wl.streams)
            wl.streams[idx] = (spec, buf)
            expect = {"type": "lasso", "stream": idx, "first": first}
            wl.add({"kind": "cli", "argv": ["monitor", path, "--lasso", literal],
                    "stdin": None, "expect": expect})
            if level <= sz["transfer_period"]:
                wl.add({"kind": "lib", "call": "transfer", "spec": path, "lasso": literal,
                        "expect": expect})
            if len(wl.lassos) < 6:
                wl.lassos.append((path, literal))
    for i, (spec, path) in enumerate(pool):
        buf = _random_codes(rng, spec, sz["probe_tokens"] // 4)
        probe = os.path.join(wl.work, f"lasso{i}_probe.txt")
        _write_tokens(probe, spec.names(buf))
        wl.token_files.append((path, probe))
    wl.set_file = _window_set(rng, wl, pool[0][0])


def _prefix_free(rng, count: int, lo: int, hi: int) -> list[tuple]:
    kept: list[tuple] = []
    while len(kept) < count:
        w = tuple(rng.choice(LETTERS) for _ in range(rng.randint(lo, hi)))
        if not any(w[:len(k)] == k or k[:len(w)] == w for k in kept):
            kept.append(w)
    return kept


def _sets_file(rng, wl: Workload, sz, symbols, sets, timed: bool = True) -> str:
    """Write the explicit sets with their derivative closures and
    enumeration orders; when ``timed``, add the library operations on
    them to the workload."""
    payload = {"alphabet": list(symbols), "sets": []}
    for words in sets:
        words = sorted(words, key=lambda w: (len(w), [symbols.index(s) for s in w]))
        members = frozenset(words)
        closure = ref.derivative_closure(members, symbols)
        enum = list(words)
        rng.shuffle(enum)
        feeds = [rng.choice(words) for _ in range(sz["feeds"])]
        feeds += [tuple(rng.choice(symbols) for _ in range(12)) for _ in range(sz["feeds"])]
        idx = len(payload["sets"])
        payload["sets"].append({
            "words": [list(w) for w in words],
            "closure": [[list(w) for w in c] for c in closure],
            "enum": [list(w) for w in enum],
        })
        depth = sz["set_words_depth"]
        short = [list(w) for w in words if len(w) <= depth]
        calls = [
            ("explicit", {}, len(closure)),
            ("canonical", {}, len(closure)),
            ("bisimilar", {"target": "s0"}, True),
            ("bisimilar", {"target": "s1"}, False),
            ("words", {"depth": depth}, short),
            ("closure", {"drop": None}, True),
            ("closure", {"drop": len(closure) - 1}, False),
            ("universal", {}, len(closure)),
        ]
        calls += [("enum_feed", {"word": list(w), "budget": 32},
                   ref.first_member_prefix(w, members)) for w in feeds]
        calls += [("set_feed", {"word": list(w)}, ref.first_member_prefix(w, members))
                  for w in feeds]
        for call, args, value in calls if timed else ():
            wl.add({"kind": "lib", "call": call, "set": idx, **args,
                    "expect": {"type": "value", "value": value}})
    path = os.path.join(wl.work, "sets.json")
    _write(path, json.dumps(payload))
    return path


def _window_set(rng, wl: Workload, spec: ref.WindowSpec) -> str:
    """A word set for the layer probes of the window workloads: sampled
    words of exactly one window (all of one length, so prefix-free)."""
    words = sorted({tuple(rng.choice(c) for c in spec.classes) for _ in range(200)})
    return _sets_file(rng, wl, SIZES["toy"], spec.symbols, [words], timed=False)


def _word_sets(rng, sz, count: int) -> list:
    sets = []
    for i in range(count):
        heads, tails = sz["set_parts"][i % len(sz["set_parts"])]
        head = _prefix_free(rng, heads, 3, 5)
        tail = _prefix_free(rng, tails, 4, 6)
        sets.append([u + v for u in head for v in tail])
    return sets


def word_sets(rng, wl: Workload, sz) -> None:
    """Sets U.V of prefix-free parts: hundreds to about a thousand words of
    length about 10 over 4 symbols, whose detectors stay small."""
    sets = _word_sets(rng, sz, sz["word_sets"])
    wl.set_file = _sets_file(rng, wl, sz, LETTERS, sets)
    # layer probes: the head part of the first set as a spec
    head = sorted({w[:3] for w in sets[0]})
    pattern = ("alt", tuple(("seq", tuple(("lit", s) for s in w)) for w in head)) \
        if len(head) > 1 else ("seq", tuple(("lit", s) for s in head[0]))
    path = _write(os.path.join(wl.work, "heads.vgl"), ref.spec_text(LETTERS, pattern))
    wl.specs.append(path)
    toks = [rng.choice(LETTERS) for _ in range(sz["probe_tokens"] // 4)]
    probe = os.path.join(wl.work, "heads_probe.txt")
    _write_tokens(probe, toks)
    wl.token_files.append((path, probe))
    wl.lassos.append((path, " ".join(toks[:20]) + " ; " + " ".join(toks[20:220])))


def generate(name: str, seed: int, work: str, sizes: str = "full", support=None) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{name}:{seed}")
    wl = Workload(name, work)
    sz = SIZES[sizes]
    if name == "trace_monitor":
        trace_monitor(rng, wl, sz)
    elif name == "spec_compile":
        spec_compile(rng, wl, sz, support)
    elif name == "lasso_check":
        lasso_check(rng, wl, sz)
    else:
        word_sets(rng, wl, sz)
    _write(os.path.join(work, "ops.json"),
           json.dumps({"ops": wl.ops, "sets": wl.set_file, "cal_rounds": wl.cal_rounds}))
    return wl
