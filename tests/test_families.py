"""Machines, decision procedures, enumerations, universal families."""

import itertools
import os
import random
import subprocess
import sys
import time
from collections import Counter

import pytest

import vigil
from vigil.detector import (
    FAULT,
    UNKNOWN,
    anamorphism_regular,
    canonical_form,
    detector_from_explicit_set,
    final_step,
    first_prefix_pair,
    minimal_violation_words,
)
from vigil.families import (
    DecisionProcedure,
    EilenbergMachine,
    EnumeratedPrefixFreeSet,
    Enumerator,
    check_universal_family,
    decidable_detector,
    machine_derivative,
    machine_from_text,
    machine_to_detector,
    machine_to_text,
    re_detector,
    universal_detector_for,
)
from vigil.monitor import monitor_online
from vigil.sequences import (
    Alphabet,
    AlphabetMismatchError,
    EpsilonViolation,
    FiniteWordSet,
    PrefixFreeViolation,
    Word,
    derivative_set,
)
from vigil.systems import reachable

from support import (
    all_words,
    binary,
    machine_for_set,
    oracle_first_fault,
    oracle_first_prefix_pair,
    random_machine,
    random_prefix_free,
    random_word,
    reference_check_universal_family,
    reference_universal_detector_for,
    scan_enumerated_step,
    tuple_closure,
    tuple_final_step,
    tuple_set,
    tuple_set_key,
    word_set,
)


class TestEilenbergMachine:
    def test_validates_endpoints(self, ab):
        with pytest.raises(ValueError, match="state set"):
            EilenbergMachine(ab, ["q"], [("q", "a", "zz")], ["q"], [])

    def test_accepts_by_subset_run(self, ab):
        m = EilenbergMachine(ab, ["0", "1"], [("0", "a", "0"), ("0", "b", "1")], ["0"], ["1"])
        assert m.accepts(ab.word("a a b"))
        assert not m.accepts(ab.word("a a"))
        assert not m.accepts(ab.word(""))

    def test_words_up_to_matches_per_word_acceptance(self):
        rng = random.Random(79)
        al = binary()
        for _ in range(60):
            m = random_machine(rng, al, rng.randint(1, 4))
            listed = m.words_up_to(4)
            for w in all_words(al, 4):
                assert (w in listed) == m.accepts(w)

    def test_text_round_trip(self, ab):
        m = EilenbergMachine(
            ab, ["q0", "q1"], [("q0", "a", "q0"), ("q0", "b", "q1")], ["q0"], ["q1"]
        )
        text = machine_to_text(m)
        back = machine_from_text(text)
        assert machine_to_text(back) == text
        assert back.transitions == m.transitions
        assert back.initial == m.initial and back.final == m.final


class TestMachineToDetector:
    def test_single_word_language(self, ab):
        m = EilenbergMachine(ab, ["q0", "qf"], [("q0", "b", "qf")], ["q0"], ["qf"])
        det, init = machine_to_detector(m)
        assert (det.states, init) == ((0, 1), 0)  # live subsets, breadth first
        assert det.step(init, "b") is FAULT
        sink = det.step(init, "a")
        for n in ab:
            assert det.step(sink, n) == sink

    def test_a_star_b(self, ab):
        m = EilenbergMachine(
            ab, ["q0", "qf"], [("q0", "a", "q0"), ("q0", "b", "qf")], ["q0"], ["qf"]
        )
        det, init = machine_to_detector(m)
        for depth in range(1, 7):
            got = minimal_violation_words(det, init, depth)
            want = FiniteWordSet(ab, (Word(ab, ("a",) * k + ("b",)) for k in range(depth)))
            assert got == want

    def test_empty_language_single_sink(self, ab):
        m = EilenbergMachine(ab, [], [], [], [])
        det, init = machine_to_detector(m)
        assert len(det.states) == 1
        assert minimal_violation_words(det, init, 4) == FiniteWordSet(ab)

    def test_epsilon_rejected(self, ab):
        m = EilenbergMachine(ab, ["q"], [], ["q"], ["q"])
        with pytest.raises(EpsilonViolation):
            machine_to_detector(m)

    def test_prefix_violation_witness(self, ab):
        # accepts a, ab, abb, ... : 'a' is a proper prefix of 'a b'
        m = EilenbergMachine(ab, ["0", "1"], [("0", "a", "1"), ("1", "b", "1")], ["0"], ["1"])
        with pytest.raises(PrefixFreeViolation) as err:
            machine_to_detector(m)
        assert err.value.shorter == ab.word("a")
        assert err.value.longer == ab.word("a b")

    def test_witness_agrees_with_the_search_from_every_accepting_state(self):
        """On seeded random machines, many of them not prefix-free, over
        their whole subset automata."""
        rng = random.Random(8161)
        witnessed = 0
        for _ in range(600):
            al = Alphabet(["a", "b", "c"][: rng.randint(2, 3)])
            m = random_machine(rng, al, rng.randint(1, 6))
            order, rows = reachable(m.initial, lambda s: [m.successors(s, n) for n in al.symbols])
            accepting = [bool(s & m.final) for s in order]
            pair = first_prefix_pair(rows, al, accepting)
            assert pair == oracle_first_prefix_pair(rows, al, accepting)
            witnessed += pair is not None
        assert 100 < witnessed < 500

    def test_witness_from_an_accepting_state_0_has_an_empty_u(self, ab):
        rows, accepting = [[1, 2], [0, 2], [2, 2]], [True, False, False]  # 'a a' returns to 0
        pair = first_prefix_pair(rows, ab, accepting)
        assert pair == (ab.word(""), ab.word("a a"))
        assert pair == oracle_first_prefix_pair(rows, ab, accepting)

    def test_witness_words_are_alphabet_first_among_the_shortest(self):
        """Two shortest words reach the accepting state 3, and two shortest
        nonempty words lead from it back to acceptance; each pair differs
        only in order, and the alphabet is declared b before a."""
        ba = Alphabet(["b", "a"])  # rows list the b-step, then the a-step
        rows = [[1, 2], [4, 3], [3, 4], [5, 6], [4, 4], [4, 3], [3, 4]]
        accepting = [False, False, False, True, False, False, False]
        pair = first_prefix_pair(rows, ba, accepting)
        assert pair == (ba.word("b a"), ba.word("b a b a"))
        assert pair == oracle_first_prefix_pair(rows, ba, accepting)

    def test_witness_search_is_linear(self):
        """``a* b`` beside a dead 20,000-cycle: 20,000 accepting subsets,
        each with the whole cycle behind it, in a child held to 30 s;
        a search carrying words from each of them takes hours."""
        code = "\n".join([
            "from vigil.families import EilenbergMachine, machine_to_detector",
            "from vigil.sequences import Alphabet",
            "n = 20000",
            "cycle = [f'c{i}' for i in range(n)]",
            "moves = [('s', 'a', 's'), ('s', 'b', 'f')] + [(c, 'b', c) for c in cycle]",
            "moves += [(c, 'a', cycle[(i + 1) % n]) for i, c in enumerate(cycle)]",
            "m = EilenbergMachine(Alphabet(['a', 'b']), ['s', 'f', *cycle], moves,",
            "                     ['s', 'c0'], ['f'])",
            "assert len(machine_to_detector(m)[0].states) == 2 * n"])
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(vigil.__file__)))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=30)
        assert done.returncode == 0, done.stderr[-2000:]

    def test_language_agreement_on_random_prefix_free_sets(self):
        rng = random.Random(83)
        al = binary()
        for _ in range(60):
            p = random_prefix_free(rng, al, 4)
            det, init = machine_to_detector(machine_for_set(p))
            for depth in (3, 6):
                want = FiniteWordSet(al, (w for w in p if len(w) <= depth))
                assert minimal_violation_words(det, init, depth) == want


class TestMachineDerivative:
    def test_single_word(self, ab):
        m = EilenbergMachine(
            ab, ["0", "1", "2"], [("0", "a", "1"), ("1", "b", "2")], ["0"], ["2"]
        )
        d = machine_derivative(m, "a")
        assert d.words_up_to(4) == FiniteWordSet.from_texts(ab, ["b"])

    def test_empty_language(self, ab):
        m = EilenbergMachine(ab, ["0"], [], ["0"], [])
        assert machine_derivative(m, "a").words_up_to(4) == FiniteWordSet(ab)

    def test_a_star_b_fixpoint(self, ab):
        m = EilenbergMachine(
            ab, ["0", "1"], [("0", "a", "0"), ("0", "b", "1")], ["0"], ["1"]
        )
        d = machine_derivative(m, "a")
        assert d.words_up_to(5) == m.words_up_to(5)

    def test_rejects_accepted_symbol(self, ab):
        m = EilenbergMachine(ab, ["0", "1"], [("0", "a", "1")], ["0"], ["1"])
        with pytest.raises(ValueError, match="already a violation"):
            machine_derivative(m, "a")

    def test_agrees_with_set_derivative(self):
        rng = random.Random(89)
        al = binary()
        checked = 0
        while checked < 150:
            m = random_machine(rng, al, rng.randint(1, 4))
            for n in al:
                if m.accepts(Word(al, (n,))):
                    continue
                got = machine_derivative(m, n).words_up_to(4)
                want = derivative_set(n, m.words_up_to(5))
                assert got == want
                checked += 1


class TestDecidableDetector:
    def test_word_equals_b(self, ab):
        # the membership question is always about the whole word read so
        # far, so {'b'} can only fault on the very first symbol
        p = DecisionProcedure(ab, lambda w: w.symbols == ("b",))
        assert decidable_detector(p).step("b") is FAULT
        handle = decidable_detector(p)
        for n in ("a", "a", "b"):
            handle = handle.step(n)
            assert handle is not FAULT

    def test_no_b_anywhere_constraint(self, ab):
        # "b never occurs": the violation words are a^k b
        p = DecisionProcedure(
            ab, lambda w: len(w) >= 1 and w.symbols[-1] == "b" and "b" not in w.symbols[:-1]
        )
        handle = decidable_detector(p)
        handle = handle.step("a")
        assert handle is not FAULT
        handle = handle.step("a")
        assert handle is not FAULT
        assert handle.step("b") is FAULT

    def test_membership_set(self, ab):
        members = {("a", "b"), ("b", "a")}
        handle = decidable_detector(DecisionProcedure(ab, lambda w: w.symbols in members))
        assert handle.step("a").step("b") is FAULT

    def test_always_false(self, ab):
        rng = random.Random(97)
        handle = decidable_detector(DecisionProcedure(ab, lambda w: False))
        for _ in range(10):
            handle = handle.step(rng.choice(ab.symbols))
            assert handle is not FAULT

    def test_agrees_with_explicit_trie(self):
        rng = random.Random(101)
        al = binary()
        for _ in range(25):
            p = random_prefix_free(rng, al, 4)
            members = {w.symbols for w in p}
            trie, _ = detector_from_explicit_set(p)
            init = trie.states[0]
            handle0 = decidable_detector(DecisionProcedure(al, lambda w: w.symbols in members))
            for w in all_words(al, 6, min_len=1):
                want = oracle_first_fault(trie, init, w.symbols)
                handle = handle0
                got = None
                for i, n in enumerate(w.symbols):
                    handle = handle.step(n)
                    if handle is FAULT:
                        got = i + 1
                        break
                assert got == want

    def test_two_thousand_steps_one_query_each(self, ab):
        # each step asks about the whole word read so far, once, at a call
        # depth that does not grow with the steps
        asked = []
        handle = decidable_detector(DecisionProcedure(ab, lambda w: asked.append(len(w)) or False))
        for i in range(2000):
            handle = handle.step("ab"[i % 2])
            assert handle is not FAULT
        assert asked == list(range(1, 2001))

    def test_audit_flags_non_prefix_free_predicate(self, ab):
        flip = {"count": 0}

        def unstable(w):
            if w.symbols == ("a",):
                flip["count"] += 1
                return flip["count"] > 1  # hides the member on first probing
            return False

        handle = decidable_detector(DecisionProcedure(ab, unstable), audit=True)
        handle = handle.step("a")
        with pytest.raises(PrefixFreeViolation):
            handle.step("b")

    def test_audit_passes_on_honest_prefix_free_predicate(self, ab):
        members = {("a", "b")}
        handle = decidable_detector(
            DecisionProcedure(ab, lambda w: w.symbols in members), audit=True
        )
        assert handle.step("a").step("b") is FAULT


class TestReDetector:
    def test_immediate_hit(self, ab):
        e = Enumerator(ab, iter([ab.word("b")]))
        assert re_detector(e, 10).step("b") is FAULT

    def test_budget_exhaustion_is_unknown(self, ab):
        def irrelevant():
            while True:
                yield ab.word("b b b b b")

        handle = re_detector(Enumerator(ab, irrelevant()), 10)
        assert handle.step("a") is UNKNOWN

    def test_two_step_trace(self, ab):
        e = Enumerator(ab, iter([ab.word("a b")]))
        handle = re_detector(e, 10)
        mid = handle.step("a")  # enumeration exhausts: 'a' is settled clean
        assert mid is not FAULT and mid is not UNKNOWN
        assert mid.step("b") is FAULT

    def test_proper_prefix_hit_settles_survival(self, ab):
        # the language contains 'a'; after surviving... the detector faults
        # at 'a'; but a handle fed 'b' first can settle 'b a' as clean once
        # 'a'... is irrelevant; use a prefix of the probe word instead:
        e = Enumerator(ab, iter([ab.word("b"), ab.word("a a a a")]))
        handle = re_detector(e, 1)
        assert handle.step("b") is FAULT

    def test_retry_after_unknown_makes_progress(self, ab):
        e = Enumerator(ab, iter([ab.word("b b"), ab.word("b a"), ab.word("a")]))
        handle = re_detector(e, 1)
        first = handle.step("a")
        assert first is UNKNOWN  # only 'b b' drawn
        second = handle.step("a")
        assert second is UNKNOWN  # 'b a' drawn
        assert handle.step("a") is FAULT  # 'a' drawn

    def test_malformed_enumerator_output(self, ab):
        other = Alphabet(["x", "y"])
        e = Enumerator(ab, iter([other.word("x")]))
        with pytest.raises(ValueError, match="malformed"):
            re_detector(e, 5).step("a")

    def test_long_feed_past_a_finished_enumeration_is_linear(self, ab):
        """Each step looks up the consumed word's prefixes only at the
        lengths drawn, so 1,500 symbols fed past a finished enumeration of
        short words take well under 2 s."""
        handle = re_detector(Enumerator(ab, iter([ab.word("a a"), ab.word("a b a")])), 8)
        start = time.perf_counter()
        for _ in range(1500):
            handle = handle.step("b")
            assert handle is not FAULT and handle is not UNKNOWN
        assert time.perf_counter() - start < 2

    def test_generous_budget_agrees_with_trie(self):
        rng = random.Random(103)
        al = binary()
        for _ in range(20):
            p = random_prefix_free(rng, al, 3)
            trie, _ = detector_from_explicit_set(p)
            init = trie.states[0]
            for w in all_words(al, 4, min_len=1):
                e = Enumerator(al, iter(p.words))
                handle = re_detector(e, budget=len(p.words) + 1)
                got = None
                cur = handle
                for i, n in enumerate(w.symbols):
                    cur = cur.step(n)
                    assert cur is not UNKNOWN
                    if cur is FAULT:
                        got = i + 1
                        break
                assert got == oracle_first_fault(trie, init, w.symbols)

    def test_scan_matches_proper_prefix_set_semantics(self):
        """Verdicts, UNKNOWN included, and the number of items drawn equal
        those of a scan that tests each item against the set of proper
        prefixes of the candidate word, on seeded random enumerations."""

        def source(items, forever):
            return itertools.cycle(items) if forever and items else iter(items)

        rng = random.Random(109)
        al = binary()
        seen = {"fault": 0, "unknown": 0, "survive": 0}
        for _ in range(400):
            items = [random_word(rng, al, rng.randint(0, 5)) for _ in range(rng.randint(0, 10))]
            forever = rng.random() < 0.3
            budget = rng.randint(1, 4)
            ref_e = Enumerator(al, source(items, forever))
            new_e = Enumerator(al, source(items, forever))
            consumed = ()
            handle = re_detector(new_e, budget)
            for n in (rng.choice(al.symbols) for _ in range(rng.randint(1, 8))):
                for _attempt in range(4):
                    want = scan_enumerated_step(ref_e, consumed, n, budget)
                    got = handle.step(n)
                    assert new_e.drawn == ref_e.drawn
                    if want is UNKNOWN or want is FAULT:
                        assert got is want
                        seen["unknown" if want is UNKNOWN else "fault"] += 1
                    else:
                        assert got.language.consumed.symbols == want
                        seen["survive"] += 1
                    if want is not UNKNOWN:
                        break
                if want is UNKNOWN or want is FAULT:
                    break
                consumed, handle = want, got
        assert min(seen.values()) >= 50, seen

    def test_lookup_agrees_with_the_scan_on_long_enumerations(self):
        """Many drawn items, duplicates and prefix pairs among them, so the
        earliest of several items that decide a step must win: verdicts,
        UNKNOWN included, and items drawn equal the scan's, on walks that
        retry after UNKNOWN."""
        rng = random.Random(127)
        seen = {"fault": 0, "unknown": 0, "survive": 0}
        for _ in range(150):
            al = Alphabet(["a", "b", "c"][: rng.randint(2, 3)])
            pool = [random_word(rng, al, rng.randint(0, 4)) for _ in range(rng.randint(1, 12))]
            items = [rng.choice(pool) for _ in range(rng.randint(0, 80))]
            budget = rng.randint(1, 8)
            ref_e, new_e = Enumerator(al, iter(items)), Enumerator(al, iter(items))
            consumed, handle = (), re_detector(new_e, budget)
            for n in (rng.choice(al.symbols) for _ in range(rng.randint(1, 10))):
                want = UNKNOWN
                while want is UNKNOWN:
                    want = scan_enumerated_step(ref_e, consumed, n, budget)
                    got = handle.step(n)
                    assert new_e.drawn == ref_e.drawn
                    if want is UNKNOWN or want is FAULT:
                        assert got is want
                    else:
                        assert got.language.consumed.symbols == want
                    seen[{UNKNOWN: "unknown", FAULT: "fault"}.get(want, "survive")] += 1
                if want is FAULT:
                    break
                consumed, handle = want, got
        assert min(seen.values()) >= 50, seen

    def test_scan_agrees_on_malformed_items_ended_sources_and_budget_edges(self):
        """Against the scan, on seeded random enumerations: a malformed item
        raises the same ValueError at the same ``drawn``, before it is
        cached; a source that would yield again after it has ended is never
        read again; an enumeration that ends exactly where a step's budget
        does answers UNKNOWN, then survival on the retry."""

        class Restarting:
            """Its items, then the end once, then ``late`` forever."""

            def __init__(self, items, late):
                self.items, self.late, self.at, self.late_reads = items, late, 0, 0

            def __iter__(self):
                return self

            def __next__(self):
                self.at += 1
                if self.at <= len(self.items):
                    return self.items[self.at - 1]
                if self.at == len(self.items) + 1:
                    raise StopIteration
                self.late_reads += 1
                return self.late

        def outcome(step):
            try:
                return step()
            except ValueError as error:
                return error

        rng = random.Random(131)
        al, other = binary(), Alphabet(["x", "y"])
        seen = {"malformed": 0, "read after the end": 0, "ended at the budget": 0}
        for round_ in range(300):
            kind = ("malformed", "ended", "boundary")[round_ % 3]
            budget = rng.randint(1, 4)
            if kind == "boundary":  # items longer than any walk: none decides a step
                items = [random_word(rng, al, 9) for _ in range(budget * rng.randint(1, 3))]
            else:
                items = [random_word(rng, al, rng.randint(0, 4)) for _ in range(rng.randint(0, 10))]
            bad = rng.randint(0, len(items))
            if kind == "malformed":
                items.insert(bad, rng.choice([other.word("x"), ("a",), "a", None]))
            sources = [Restarting(items, al.word("a")) for _ in range(2)]
            ref_e, new_e = (Enumerator(al, source) for source in sources)
            consumed, handle = (), re_detector(new_e, budget)
            for n in (rng.choice(al.symbols) for _ in range(rng.randint(1, 8))):
                want, retry = UNKNOWN, None
                while want is UNKNOWN:
                    before, ended = ref_e.drawn, ref_e.finished
                    want = outcome(lambda: scan_enumerated_step(ref_e, consumed, n, budget))
                    got = outcome(lambda: handle.step(n))
                    assert new_e.drawn == ref_e.drawn
                    seen["read after the end"] += ended
                    if isinstance(want, ValueError):
                        assert type(got) is type(want) and str(got) == str(want)
                        assert kind == "malformed" and new_e.drawn == bad
                        seen["malformed"] += 1
                        break
                    if want is UNKNOWN or want is FAULT:
                        assert got is want
                    else:
                        assert got.language.consumed.symbols == want
                    if retry is UNKNOWN and want is not UNKNOWN and ref_e.drawn == before:
                        assert want is not FAULT and new_e.finished
                        seen["ended at the budget"] += kind == "boundary"
                    retry = want
                if want is FAULT or isinstance(want, ValueError):
                    break
                consumed, handle = want, got
            assert sources[0].late_reads == sources[1].late_reads == 0
        assert min(seen.values()) >= 50, seen

    def test_a_step_reads_only_fresh_items(self, ab):
        """Items drawn by earlier steps are looked up, not read again: with
        2,000 items drawn, each later step pulls at most ``budget`` fresh
        items from the source and the one that decides it (or finds its
        end)."""
        reads = [0]

        def counted(items):
            for item in items:
                reads[0] += 1
                yield item
            reads[0] += 1  # the pull that finds the end

        tail = [ab.word("a a a")] * 2  # still unread once the first 2,001 are drawn
        e = Enumerator(ab, counted(itertools.chain([ab.word("b b a")] * 2000, [ab.word("a")], tail)))
        handle = re_detector(e, 3)
        while handle.step("a") is UNKNOWN:  # the language decides 'a' at item 2,001
            pass
        assert e.drawn == 2001 and reads[0] == 2001
        for word, faults in (("b b a", True), ("b b b", False), ("a", True)):
            reads[0] = 0
            *head, last = word.split()
            cur = handle
            for n in head:
                cur = cur.step(n)
            got = cur.step(last)
            assert (got is FAULT) == faults and got is not UNKNOWN
            assert reads[0] <= len(word.split()) * (3 + 1)
        assert e.drawn == 2003 and e.finished

    def test_budget_must_be_positive(self, ab):
        with pytest.raises(ValueError, match="at least 1"):
            re_detector(Enumerator(ab, iter([])), 0)

    def test_consumed_word_over_another_alphabet_is_rejected(self, ab):
        """A step builds the longer word without checking its alphabet
        again, so a consumed word over another alphabet fails at once."""
        other = Alphabet(["x", "y"])
        with pytest.raises(AlphabetMismatchError):
            EnumeratedPrefixFreeSet(Enumerator(ab, iter([])), other.word("x"), 3)
        with pytest.raises(AlphabetMismatchError):
            DecisionProcedure(ab, lambda w: False, other.word("x"))


class TestUniversalFamily:
    def test_empty_set_family_is_closed(self, ab):
        ok, witness = check_universal_family([FiniteWordSet(ab)])
        assert ok and witness is None

    def test_missing_derivative_witness(self, ab):
        p = FiniteWordSet.from_texts(ab, ["a b"])
        ok, witness = check_universal_family([p])
        assert not ok
        assert witness == (p, "a")

    def test_closed_three_member_family(self, ab):
        family = [
            FiniteWordSet.from_texts(ab, ["a b"]),
            FiniteWordSet.from_texts(ab, ["b"]),
            FiniteWordSet(ab),
        ]
        ok, witness = check_universal_family(family)
        assert ok and witness is None

    def test_invalid_members_rejected(self, ab):
        with pytest.raises(PrefixFreeViolation):
            check_universal_family([FiniteWordSet.from_texts(ab, ["a", "a b"])])

    def test_detector_for_trivial_family(self, ab):
        det, mapping = universal_detector_for([FiniteWordSet(ab)])
        assert len(det.states) == 1
        state = mapping[FiniteWordSet(ab)]
        assert minimal_violation_words(det, state, 4) == FiniteWordSet(ab)

    def test_detector_faults_on_members(self, ab):
        family = [FiniteWordSet.from_texts(ab, ["b"]), FiniteWordSet(ab)]
        det, mapping = universal_detector_for(family)
        assert len(det.states) == 2
        assert det.step(mapping[family[0]], "b") is FAULT

    def test_each_state_realizes_its_language(self, ab):
        family = [
            FiniteWordSet.from_texts(ab, ["a b"]),
            FiniteWordSet.from_texts(ab, ["b"]),
            FiniteWordSet(ab),
        ]
        det, mapping = universal_detector_for(family)
        for p in family:
            for depth in range(1, 7):
                want = FiniteWordSet(ab, (w for w in p if len(w) <= depth))
                assert minimal_violation_words(det, mapping[p], depth) == want

    def test_derivative_closure_reproduces_the_trie(self, ab):
        p = FiniteWordSet.from_texts(ab, ["a b"])
        closure = {p}
        frontier = [p]
        while frontier:
            q = frontier.pop()
            for n in ab:
                if Word(ab, (n,)) in q:
                    continue
                d = derivative_set(n, q)
                if d not in closure:
                    closure.add(d)
                    frontier.append(d)
        universal, mapping = universal_detector_for(closure)
        trie, trie_init = detector_from_explicit_set(p)
        canon_u = canonical_form(universal, mapping[p])
        canon_t = canonical_form(trie, trie_init)
        assert canon_u[0].states == canon_t[0].states
        assert canon_u[0].step_table == canon_t[0].step_table
        assert canon_u[1] == canon_t[1]

    def test_open_family_fails_construction(self, ab):
        with pytest.raises(ValueError, match="not derivative-closed"):
            universal_detector_for([FiniteWordSet.from_texts(ab, ["a b"])])

    def test_witness_and_state_order_on_seeded_families(self):
        """The closure check takes the members in the order of their words
        and reports the first step that leaves the family; the universal
        detector lists its states by size, then by their words.  Both are
        checked against the tuple-set oracle on derivative closures of
        random sets, shuffled, with duplicates, and with one member dropped."""
        rng = random.Random(3301)
        for _ in range(60):
            al = Alphabet(rng.sample(["c", "a", "b"], rng.randint(2, 3)))
            root = tuple_set(random_prefix_free(rng, al, 4))
            closure = sorted(tuple_closure(al, root), key=lambda m: tuple_set_key(al, m))
            rng.shuffle(closure)
            members = [word_set(al, m) for m in closure]
            det, mapping = universal_detector_for(members + members[:2])
            by_size = sorted(closure, key=lambda m: (len(m), tuple_set_key(al, m)))
            assert [tuple_set(p) for p in det.states] == by_size
            for p in det.states:
                assert mapping[p] is p
                for n in al:
                    want = tuple_final_step(n, tuple_set(p))
                    step = det.step(p, n)
                    assert step is FAULT if want is FAULT else tuple_set(step) == want
            for drop in range(len(closure)):
                kept = closure[:drop] + closure[drop + 1:]
                want = (True, None)
                for m in sorted(kept, key=lambda m: tuple_set_key(al, m)):
                    missing = [n for n in al if tuple_final_step(n, m) not in (FAULT, *kept)]
                    if missing:
                        want = (False, (m, missing[0]))
                        break
                ok, witness = check_universal_family(members[:drop] + members[drop + 1:])
                assert (ok, witness and (tuple_set(witness[0]), witness[1])) == want

    @staticmethod
    def same_outcome(call, reference, members) -> str:
        """Run both on ``members``: the same error (type, message, witness
        pair), or the same result, witness member and states by identity;
        returns the kind of outcome."""
        def outcome(f):
            try:
                return f(list(members))
            except ValueError as error:
                return error

        got, want = outcome(call), outcome(reference)
        if isinstance(want, ValueError):
            assert type(got) is type(want) and str(got) == str(want)
            if isinstance(want, PrefixFreeViolation):
                assert (got.shorter, got.longer) == (want.shorter, want.longer)
            return type(want).__name__
        if call is check_universal_family:
            (ok, witness), (want_ok, want_witness) = got, want
            assert ok == want_ok and (witness is None) == (want_witness is None)
            if witness is not None:
                assert witness[0] is want_witness[0] and witness[1] == want_witness[1]
            return "closed" if ok else "open"
        (det, mapping), (want_det, want_mapping) = got, want
        assert len(det.states) == len(want_det.states)
        assert all(x is y for x, y in zip(det.states, want_det.states))
        assert det.step_table == want_det.step_table and mapping == want_mapping
        return "detector"

    def test_agrees_with_the_reference_walk_on_seeded_families(self):
        """Derivative closures of random sets, prefix-free or not: shuffled,
        with duplicates that are equal but distinct objects, with a member
        dropped, with a member that holds the empty word, and with a member
        over another alphabet after them."""
        rng = random.Random(3313)
        other = Alphabet(["x", "y"])
        seen = Counter()
        for round_ in range(150):
            al = Alphabet(rng.sample(["c", "a", "b"], rng.randint(2, 3)))
            if round_ % 3:
                root = tuple_set(random_prefix_free(rng, al, 4))
            else:  # any set of nonempty words: its closure may hold a prefix pair
                root = tuple_set(random_word(rng, al, rng.randint(1, 4)) for _ in range(5))
            closure = list(tuple_closure(al, root))
            rng.shuffle(closure)
            members = [word_set(al, m) for m in closure]
            families = [members, members + [word_set(al, m) for m in closure[:2]]]
            families += [members[:k] + members[k + 1:] for k in rng.sample(
                range(len(members)), min(3, len(members)))]
            empty = word_set(al, rng.choice(closure) | {()})
            families.append(members[:1] + [empty] + members[1:])
            families += [f[:k] + [FiniteWordSet(other)] + f[k:] for f in families[-2:]
                         for k in {0, rng.randint(0, len(f))}]
            for family in families:
                seen[self.same_outcome(check_universal_family,
                                       reference_check_universal_family, family)] += 1
                self.same_outcome(universal_detector_for, reference_universal_detector_for, family)
        assert min(seen[kind] for kind in ("closed", "open", "PrefixFreeViolation",
                                           "EpsilonViolation", "ValueError")) >= 50, seen

    def test_a_closed_family_may_hold_a_member_that_is_not_prefix_free(self, ab):
        """``{a, a b}`` steps to FAULT by ``a`` and to ``{}`` by ``b``, so the
        family is closed, yet its walk must still find the prefix pair."""
        family = [FiniteWordSet.from_texts(ab, ["a", "a b"]), FiniteWordSet(ab)]
        for call in (check_universal_family, universal_detector_for):
            with pytest.raises(PrefixFreeViolation) as raised:
                call(family)
            assert (raised.value.shorter, raised.value.longer) == (ab.word("a"), ab.word("a b"))

    def test_an_invalid_member_is_raised_before_a_later_alphabet_mismatch(self, ab):
        bad, good = FiniteWordSet.from_texts(ab, ["b", "b a"]), FiniteWordSet(ab)
        for call in (check_universal_family, universal_detector_for):
            with pytest.raises(PrefixFreeViolation):
                call([good, bad, FiniteWordSet(Alphabet(["x", "y"]))])
            with pytest.raises(ValueError, match="^family members must share one alphabet$"):
                call([good, FiniteWordSet(Alphabet(["x", "y"])), bad])

    def test_a_closed_family_is_walked_without_sorting_or_full_checks(self, monkeypatch):
        """On the closure of a 60-word set, the closure check neither sorts
        nor runs the full prefix-freeness check, and the universal detector
        computes each member's sort key at most once."""
        rng = random.Random(3319)
        al = Alphabet(["c", "a", "b"])
        words: set = set()
        while len(words) < 60:
            w = tuple(rng.choices(al.symbols, k=rng.randint(3, 7)))
            if not any(w[:len(v)] == v or v[:len(w)] == w for v in words):
                words.add(w)
        closure = [word_set(al, m) for m in tuple_closure(al, frozenset(words))]
        calls = Counter()
        for name in ("require_prefix_free", "_sort_keys"):
            def counted(*args, _real=getattr(vigil.families, name), _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(vigil.families, name, counted)
        assert check_universal_family(closure) == (True, None)
        assert calls == Counter()
        det, _ = universal_detector_for(closure)
        assert len(det.states) == len(closure)
        assert calls["require_prefix_free"] == 0 and calls["_sort_keys"] <= len(closure)


def test_every_step_rejects_a_foreign_symbol_with_one_message(ab):
    """Each one-symbol step, over every representation, names the symbol
    and the alphabet in the same words."""
    words = FiniteWordSet.from_texts(ab, ["a b", "b b"])
    det, init = detector_from_explicit_set(words)
    steps = [
        lambda: det.step(init, "z"),
        lambda: anamorphism_regular(det, init).advance("z"),
        lambda: final_step(words, "z"),
        lambda: machine_derivative(machine_for_set(words), "z"),
        lambda: DecisionProcedure(ab, lambda w: False).final_step("z"),
        lambda: re_detector(Enumerator(ab, iter(words.words)), budget=2).step("z"),
        lambda: derivative_set("z", words),
        lambda: monitor_online(det, init).feed_many(["a", "z"]),
    ]
    for step in steps:
        with pytest.raises(ValueError) as raised:
            step()
        assert str(raised.value) == "symbol 'z' is not in alphabet ('a', 'b')"


REJECTIONS = [
    pytest.param(lambda ab: EilenbergMachine(ab, ["q", "q"], [], ["q"], []),
                 ValueError, "^duplicate machine states$", id="duplicate machine states"),
    pytest.param(lambda ab: EilenbergMachine(ab, ["q"], [("q", "c", "q")], ["q"], []),
                 ValueError, "^transition symbol 'c' is not in the alphabet$", id="symbol outside"),
    pytest.param(lambda ab: EilenbergMachine(ab, ["q"], [], ["z"], []), ValueError,
                 "^initial and final sets must consist of machine states$", id="initial outside"),
    pytest.param(lambda ab: EilenbergMachine(ab, ["q"], [], ["q"], ["z"]), ValueError,
                 "^initial and final sets must consist of machine states$", id="final outside"),
    pytest.param(lambda ab: universal_detector_for([]), ValueError,
                 "^a universal detector needs at least one member language$", id="empty family"),
    pytest.param(lambda ab: universal_detector_for([FiniteWordSet(ab),
                                                    FiniteWordSet(Alphabet(["x", "y"]))]),
                 ValueError, "^family members must share one alphabet$", id="mixed alphabets"),
    pytest.param(lambda ab: machine_to_text(EilenbergMachine(ab, [("q", 1)], [], [("q", 1)], [])),
                 ValueError, r"^machine state \('q', 1\) is not serializable$",
                 id="text of structured states"),
    pytest.param(lambda ab: machine_from_text("states: q\nalphabet: a b\nfinal: q\n"), ValueError,
                 "^machine text must declare 'initial:' next$", id="header out of order"),
    pytest.param(lambda ab: machine_from_text(""),
                 ValueError, "^machine text must declare 'states:' next$", id="empty text"),
    pytest.param(lambda ab: machine_from_text("states: q\nalphabet: a b\ninitial:\nfinal:\nq a\n"),
                 ValueError, "^bad transition line: 'q a'$", id="bad transition line"),
]


@pytest.mark.parametrize("call, error, message", REJECTIONS)
def test_rejects(ab, call, error, message):
    with pytest.raises(error, match=message):
        call(ab)

