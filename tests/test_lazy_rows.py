"""Rows built on first visit: the lazy row type and the spec's subset
graph that ``vigil monitor`` walks unforced; and the lasso walk of a
violation language's own detector, checked against stepping the
language."""

import random
from functools import reduce

import pytest

from vigil.detector import anamorphism_regular
from vigil.monitor import (
    OK,
    CertifiedSafe,
    FeedViolation,
    OnlineMonitor,
    Violation,
    _run_lasso,
    monitor_lasso,
    monitor_online,
)
from vigil.sequences import Alphabet, EpsilonViolation, slice_range
from vigil.speclang import ConstraintSpec, compile, parse, subset_rows
from vigil.systems import FAULT, lazy_rows

from support import (
    advance_lasso_fault,
    binary,
    inflate_detector,
    oracle_first_fault,
    random_ast,
    random_detector,
    random_lasso,
    random_word,
)


def kth_from_last(k: int) -> str:
    """A spec whose canonical detector has 2^(k+1) states."""
    return f"alphabet a b; violation (a|b)* a {' '.join(['(a|b)'] * k)} b;"


def rows_reached(row, fault) -> list:
    """The rows reachable from ``row`` through filled rows, the fault row
    aside."""
    seen, todo = {id(row): row}, [row]
    while todo:
        for nxt in todo.pop().values():
            if id(nxt) not in seen:
                seen[id(nxt)] = nxt
                todo.append(nxt)
    seen.pop(id(fault), None)
    return list(seen.values())


def assert_empty_or_full(row, fault, alphabet: Alphabet):
    for r in rows_reached(row, fault):
        assert list(r) in ([], list(alphabet.symbols))


class TestLazyRow:
    def counting_graph(self):
        """States 0..2 over a b: ``a`` counts up, ``b`` stays, but faults
        from 2; the successor calls are recorded."""
        calls = []

        def successors(q):
            calls.append(q)
            return [(q + 1) % 3, FAULT if q == 2 else q]

        return (*lazy_rows(["a", "b"], successors), calls)

    def test_a_row_is_filled_whole_on_its_first_lookup(self):
        row_of, fault, calls = self.counting_graph()
        r0 = row_of(0)
        assert not r0 and calls == []
        assert r0["b"] is r0 and list(r0) == ["a", "b"] and calls == [0]
        assert r0["a"] is row_of(1) and not row_of(1)
        assert reduce(dict.__getitem__, "aab", r0) is fault
        assert reduce(dict.__getitem__, "aab" * 3, r0) is fault
        assert calls == [0, 1, 2]  # once per state
        assert row_of(2)["a"] is r0 and row_of(0) is r0
        assert list(fault) == ["a", "b"] and all(fault[n] is fault for n in "ab")

    def test_foreign_and_unhashable_symbols_fill_nothing(self):
        row_of, fault, calls = self.counting_graph()
        row_of(1)["a"]
        for row in (row_of(0), row_of(1), fault):  # unfilled, filled, fault
            before = list(row)
            for symbol, error in (("z", KeyError), (None, KeyError), (["a"], TypeError)):
                with pytest.raises(error):
                    row[symbol]
            assert list(row) == before
        assert calls == [1]


class TestSpecGraph:
    def test_epsilon_spec_raises_as_compile_does(self):
        spec = parse("alphabet a b; violation a* | b;")
        with pytest.raises(EpsilonViolation, match="matches the empty observation"):
            compile(spec)
        with pytest.raises(EpsilonViolation, match="matches the empty observation"):
            subset_rows(spec)

    def test_walks_agree_with_the_compiled_detector(self):
        """First-fault positions of traces, fed in one batch and symbol by
        symbol, and lasso verdicts with their bad prefixes, on seeded random
        specs; one graph serves every walk of a spec."""
        rng = random.Random(211)
        seen = {"fault": 0, "ok": 0, "violation": 0, "safe": 0}
        for _ in range(400):
            al = Alphabet(["a", "b", "c"][: rng.randint(2, 3)])
            spec = ConstraintSpec("random", al, random_ast(rng, al, rng.randint(1, 6)))
            try:
                det, init = compile(spec)
            except EpsilonViolation:
                with pytest.raises(EpsilonViolation):
                    subset_rows(spec)
                continue
            row, fault = subset_rows(spec)
            for _ in range(3):
                trace = list(random_word(rng, al, rng.randint(0, 30)).symbols)
                want = oracle_first_fault(det, init, trace)
                outcome = OK if want is None else FeedViolation(want)
                seen["ok" if want is None else "fault"] += 1
                batch = OnlineMonitor._on_rows(al, row, fault)
                assert batch.feed_many(trace) == outcome
                single = OnlineMonitor._on_rows(al, row, fault)
                fed = [single.feed(n) for n in trace[: want or len(trace)]]
                assert fed == [OK] * (len(trace) if want is None else want - 1) + (
                    [] if want is None else [outcome])
                assert batch.position == single.position == (want or len(trace))
                s = random_lasso(rng, al, 6, 6)
                verdict = _run_lasso(s, row, fault)
                assert verdict == monitor_lasso(det, init, s)
                seen["safe" if verdict == CertifiedSafe() else "violation"] += 1
            assert_empty_or_full(row, fault, al)
        assert min(seen.values()) >= 100, seen

    @pytest.mark.parametrize("k", [0, 1, 2, 7, 40, 200])
    def test_a_k_token_feed_fills_at_most_k_plus_one_rows(self, k):
        """On a kernel of 2^17 states, the fault row counted."""
        spec = parse(kth_from_last(16))
        rng = random.Random(223 + k)
        for feed in ("batch", "single"):
            trace = [rng.choice("ab") for _ in range(k)]
            row, fault = subset_rows(spec)
            live = OnlineMonitor._on_rows(spec.alphabet, row, fault)
            if feed == "batch":
                live.feed_many(trace)
            else:
                for n in trace:
                    if live.feed(n) is not OK:
                        break
            filled = [r for r in rows_reached(row, fault) if r]
            assert len(filled) + 1 <= k + 1, (feed, len(filled))
            assert_empty_or_full(row, fault, spec.alphabet)

    def test_foreign_and_unhashable_tokens_fail_as_today(self):
        """Each error has the type and message of the compiled detector's
        monitor, counts for nothing, and leaves every row empty or full."""
        rng = random.Random(227)
        spec = parse("alphabet a b c; violation (a | b c)* c c a;")
        det, init = compile(spec)
        for _ in range(200):
            word = list(random_word(rng, spec.alphabet, rng.randint(0, 12)).symbols)
            bad = rng.choice(["z", None, 7, ("a",), ["a"], {"a": 1}])
            word.insert(rng.randint(0, len(word)), bad)
            shape = rng.choice([list, tuple, iter, "feed"])
            row, fault = subset_rows(spec)
            outcomes = []
            for live in (monitor_online(det, init), OnlineMonitor._on_rows(spec.alphabet, row, fault)):
                try:
                    if shape == "feed":
                        got = []
                        for n in word:
                            got.append(live.feed(n))
                            if got[-1] is not OK:
                                break
                    else:
                        got = live.feed_many(shape(word))
                except (ValueError, TypeError) as exc:
                    got = (type(exc), str(exc))
                outcomes.append((got, live.position, live.closed))
            assert outcomes[0] == outcomes[1]
            assert_empty_or_full(row, fault, spec.alphabet)


class TestLanguageRows:
    def test_row_walk_equals_stepping_advance(self):
        """On 300 seeded lassos, the lasso walk from the initial state of a
        language's detector decides as stepping the language with
        ``advance`` symbol by symbol."""
        rng = random.Random(229)
        al = binary()
        seen = {"violation": 0, "safe": 0}
        for _ in range(300):
            det, _ = inflate_detector(rng, random_detector(rng, al, rng.randint(1, 5),
                                                           fault_prob=rng.choice([0.05, 0.2])))
            p = anamorphism_regular(det, rng.choice(det.states))
            s = random_lasso(rng, al, 8, 8)
            fault = advance_lasso_fault(p, s)
            want = CertifiedSafe() if fault is None else Violation(
                prefix_len=fault, bad_prefix=slice_range(s, 0, fault), ana_value=fault - 1)
            assert monitor_lasso(p.detector, p.initial, s) == want
            seen["safe" if fault is None else "violation"] += 1
        assert min(seen.values()) >= 50, seen
