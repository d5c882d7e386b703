"""Machines, decision procedures, enumerations, universal families."""

import itertools
import random

import pytest

from vigil.detector import (
    FAULT,
    UNKNOWN,
    anamorphism_regular,
    canonical_form,
    detector_from_explicit_set,
    final_step,
    minimal_violation_words,
)
from vigil.families import (
    DecisionProcedure,
    EilenbergMachine,
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
    EpsilonViolation,
    FiniteWordSet,
    PrefixFreeViolation,
    Word,
    derivative_set,
)

from support import (
    all_words,
    binary,
    machine_for_set,
    oracle_first_fault,
    random_machine,
    random_prefix_free,
    random_word,
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

    def test_a_step_reads_only_fresh_items(self, ab):
        """Items drawn by earlier steps are looked up, not read again: with
        2,000 items drawn, each later step reads at most ``budget`` fresh
        items and the one that decides it."""

        class Counting(Enumerator):
            __slots__ = ("reads",)

            def word_at(self, k):
                self.reads += 1
                return super().word_at(k)

        e = Counting(ab, itertools.chain([ab.word("b b a")] * 2000, [ab.word("a")]))
        e.reads = 0
        handle = re_detector(e, 3)
        while handle.step("a") is UNKNOWN:  # the language decides 'a' at its last item
            pass
        assert e.drawn == 2001
        for word, faults in (("b b a", True), ("b b b", False), ("a", True)):
            e.reads = 0
            *head, last = word.split()
            cur = handle
            for n in head:
                cur = cur.step(n)
            got = cur.step(last)
            assert (got is FAULT) == faults and got is not UNKNOWN
            assert e.reads <= len(word.split()) * (3 + 1)

    def test_budget_must_be_positive(self, ab):
        with pytest.raises(ValueError, match="at least 1"):
            re_detector(Enumerator(ab, iter([])), 0)


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
