"""Finite detectors, violation languages, language-level stepping."""

import copy
import pickle
import random
import time

import pytest

from vigil.detector import (
    FAULT,
    UNKNOWN,
    BudgetExhausted,
    FiniteDetector,
    FiniteDetectorHandle,
    RegularPrefixFreeSet,
    SetHandle,
    anamorphism_regular,
    canonical_form,
    check_detector_morphism,
    detector_from_explicit_set,
    detector_from_text,
    detector_to_text,
    extend,
    final_step,
    minimal_violation_words,
)
from vigil.sequences import (
    Alphabet,
    AlphabetMismatchError,
    EpsilonViolation,
    FiniteWordSet,
    PrefixFreeViolation,
    Word,
    derivative_set,
    is_prefix_free,
)
from vigil.speclang import ConstraintSpec, Lit, Seq
from vigil.speclang import compile as compile_spec

from support import (
    all_detectors,
    all_words,
    binary,
    inflate_detector,
    minimal_matches,
    oracle_first_fault,
    oracle_minimal_words,
    random_ast,
    random_detector,
    random_word,
)


@pytest.fixture
def first_b(ab):
    """Faults at the first 'b', loops on 'a'."""
    return FiniteDetector(ab, ["x"], {("x", "a"): "x", ("x", "b"): FAULT})


@pytest.fixture
def never(ab):
    return FiniteDetector(ab, ["x"], {("x", "a"): "x", ("x", "b"): "x"})


class TestFiniteDetector:
    def test_requires_total_table(self, ab):
        with pytest.raises(ValueError, match="undefined"):
            FiniteDetector(ab, ["x"], {("x", "a"): "x"})

    def test_rejects_foreign_targets(self, ab):
        with pytest.raises(ValueError, match="not a state"):
            FiniteDetector(ab, ["x"], {("x", "a"): "y", ("x", "b"): FAULT})

    def test_step_errors(self, first_b):
        with pytest.raises(ValueError, match="not in alphabet"):
            first_b.step("x", "c")
        with pytest.raises(ValueError, match="unknown state"):
            first_b.step("nope", "a")

    def test_dense_rows_link_the_table(self):
        rng = random.Random(131)
        al = Alphabet(["a", "b", "c"])
        for _ in range(60):
            det = random_detector(rng, al, rng.randint(1, 6))
            index, fault = det.dense()
            assert det.dense() is det.dense()  # built once
            assert list(index) == list(det.states)
            assert list(fault) == list(al.symbols)
            assert all(fault[n] is fault for n in al.symbols)
            for x, row in index.items():
                assert list(row) == list(al.symbols)
                for n in al.symbols:
                    target = det.step_table[(x, n)]
                    assert row[n] is (fault if target is FAULT else index[target])

    def test_copies_leave_the_dense_rows_behind(self, ab):
        """A long chain nests its linked rows thousands deep; copying a
        detector must neither recurse along them nor share them."""
        n = 5000
        table = {(i, "a"): i + 1 if i + 1 < n else FAULT for i in range(n)}
        table.update({(i, "b"): 0 for i in range(n)})
        det = FiniteDetector(ab, range(n), table)
        det.dense()
        for twin in (pickle.loads(pickle.dumps(det)), copy.deepcopy(det), copy.copy(det)):
            assert twin.states == det.states and twin.step_table == det.step_table
            index, fault = twin.dense()
            assert index[n - 1]["a"] is fault and index[n - 1] is not det.dense()[0][n - 1]


class TestExtend:
    def test_single_fault(self, first_b, ab):
        assert extend(first_b, "x", ab.word("b")) is FAULT

    def test_self_loop(self, first_b, ab):
        assert extend(first_b, "x", ab.word("a a a")) == "x"

    def test_two_step_fault(self, first_b, ab):
        assert extend(first_b, "x", ab.word("a b")) is FAULT

    def test_empty_word_rejected(self, first_b, ab):
        with pytest.raises(ValueError, match="nonempty"):
            extend(first_b, "x", ab.word(""))

    def test_alphabet_mismatch(self, first_b):
        other = Alphabet(["x", "y"])
        with pytest.raises(AlphabetMismatchError):
            extend(first_b, "x", other.word("x"))

    def test_composition_law_random(self):
        """Reading u then v equals reading uv, with faults absorbing."""
        rng = random.Random(31)
        al = binary()
        for _ in range(400):
            det = random_detector(rng, al, rng.randint(1, 4))
            x = rng.choice(det.states)
            u = random_word(rng, al, rng.randint(1, 3))
            v = random_word(rng, al, rng.randint(1, 3))
            uv = Word(al, u.symbols + v.symbols)
            via_u = extend(det, x, u)
            combined = extend(det, x, uv)
            if via_u is FAULT:
                assert combined is FAULT
            else:
                assert combined == extend(det, via_u, v)


class TestMinimalViolationWords:
    def test_faults_everywhere(self, ab):
        det = FiniteDetector(ab, ["x"], {("x", "a"): FAULT, ("x", "b"): FAULT})
        assert minimal_violation_words(det, "x", 2) == FiniteWordSet.from_texts(ab, ["a", "b"])

    def test_first_b_depth3(self, first_b, ab):
        got = minimal_violation_words(first_b, "x", 3)
        assert got == FiniteWordSet.from_texts(ab, ["b", "a b", "a a b"])

    def test_never_faults(self, never, ab):
        assert minimal_violation_words(never, "x", 4) == FiniteWordSet(ab)

    def test_depth_must_be_positive(self, never):
        with pytest.raises(ValueError, match="at least 1"):
            minimal_violation_words(never, "x", 0)

    def test_matches_enumeration_oracle(self):
        rng = random.Random(37)
        al = binary()
        for _ in range(150):
            det = random_detector(rng, al, rng.randint(1, 4))
            x = rng.choice(det.states)
            got = minimal_violation_words(det, x, 5)
            assert set(got.words) == oracle_minimal_words(det, x, 5)

    def test_spec_detectors_against_minimal_match_oracle(self):
        """Compiled specs, most of which have states that can no longer
        fault, give the pattern's minimal matches at every small depth."""
        rng = random.Random(43)
        al = binary()
        with_sink = 0
        for _ in range(120):
            node = random_ast(rng, al, rng.randint(1, 3))
            try:
                det, init = compile_spec(ConstraintSpec("r", al, node))
            except EpsilonViolation:
                continue
            with_sink += any(oracle_minimal_words(det, x, 4) == set() for x in det.states)
            for depth in range(1, 6):
                got = minimal_violation_words(det, init, depth)
                assert set(got.words) == minimal_matches(node, al, depth), node
        assert with_sink >= 30

    def test_handle_walk_ends_with_its_last_word(self, ab):
        """A handle whose every word faults is not stepped on through an
        empty frontier up to the depth asked for."""
        p = FiniteWordSet.from_texts(ab, ["a", "b a", "b b"])
        start = time.perf_counter()
        assert minimal_violation_words(SetHandle(p), None, 10**8) == p
        assert time.perf_counter() - start < 1.0

    def test_prefix_free_and_monotone(self):
        rng = random.Random(41)
        al = binary()
        for _ in range(80):
            det = random_detector(rng, al, rng.randint(1, 4))
            x = rng.choice(det.states)
            previous = None
            for depth in range(1, 7):
                words = minimal_violation_words(det, x, depth)
                assert is_prefix_free(words)
                if previous is not None:
                    assert set(previous.words) == {w for w in words if len(w) < depth}
                previous = words


class TestAnamorphismRegular:
    def test_never_faulting_is_empty(self, never, ab):
        assert anamorphism_regular(never, "x").is_empty()

    def test_first_b_language(self, first_b, ab):
        lang = anamorphism_regular(first_b, "x")
        for depth in range(1, 7):
            assert lang.words_up_to(depth) == minimal_violation_words(first_b, "x", depth)

    def test_bisimilar_states_same_language(self, ab):
        det = FiniteDetector(
            ab,
            ["x", "y"],
            {("x", "a"): "y", ("x", "b"): FAULT, ("y", "a"): "x", ("y", "b"): FAULT},
        )
        assert anamorphism_regular(det, "x") == anamorphism_regular(det, "y")

    def test_truncations_agree_exhaustively_two_states(self):
        al = binary()
        for det in all_detectors(al, 2):
            for x in det.states:
                lang = anamorphism_regular(det, x)
                for depth in range(1, 7):
                    assert lang.words_up_to(depth) == minimal_violation_words(det, x, depth)


class TestRegularPrefixFreeSet:
    def test_rejects_epsilon(self, ab):
        with pytest.raises(EpsilonViolation):
            RegularPrefixFreeSet(
                ab, ["q"], "q", "q", {("q", "a"): "q", ("q", "b"): "q"}
            )

    def test_accept_must_absorb(self, ab):
        with pytest.raises(ValueError, match="absorbing"):
            RegularPrefixFreeSet(
                ab,
                ["q", "f"],
                "q",
                "f",
                {("q", "a"): "f", ("q", "b"): "q", ("f", "a"): "q", ("f", "b"): "f"},
            )

    def test_contains_is_first_arrival(self, first_b, ab):
        lang = anamorphism_regular(first_b, "x")
        assert lang.contains(ab.word("a a b"))
        assert not lang.contains(ab.word("a b a"))  # fault already happened
        assert not lang.contains(ab.word("a a"))
        assert not lang.contains(ab.word(""))

    def test_minimized_preserves_language(self):
        rng = random.Random(43)
        al = binary()
        for _ in range(60):
            det = random_detector(rng, al, rng.randint(1, 4))
            lang = anamorphism_regular(det, rng.choice(det.states))
            small = lang.minimized()
            assert small == lang
            assert len(small.states) <= len(lang.states)

    def test_equality_is_language_equality(self):
        """States of two detectors with at most three states each have equal
        languages iff their minimal violation words agree up to depth 6 (the
        disjoint union with the fault sink has at most 7 states); equality
        answers both ways on seeded pairs."""
        rng = random.Random(61)
        al = binary()
        answers = []
        for _ in range(300):
            a = random_detector(rng, al, rng.randint(1, 3))
            b = random_detector(rng, al, rng.randint(1, 3))
            x, y = rng.choice(a.states), rng.choice(b.states)
            same = oracle_minimal_words(a, x, 6) == oracle_minimal_words(b, y, 6)
            left, right = anamorphism_regular(a, x), anamorphism_regular(b, y)
            assert (left == right) is same
            assert (right == left) is same
            assert (left != right) is not same
            answers.append(same)
        assert 30 <= sum(answers) <= 270

    def test_different_alphabets_compare_unequal(self, ab, first_b):
        abc = Alphabet(["a", "b", "c"])
        wider = FiniteDetector(
            abc, ["x"], {("x", "a"): "x", ("x", "b"): FAULT, ("x", "c"): "x"}
        )
        assert anamorphism_regular(first_b, "x") != anamorphism_regular(wider, "x")
        assert anamorphism_regular(first_b, "x") != "a* b"

    def test_is_empty_ignores_unreachable_states(self, ab, never):
        """``u`` is never reached from ``q``; only what ``q`` reaches counts."""
        def automaton(q_on_b):
            return RegularPrefixFreeSet(
                ab,
                ["q", "u", "f"],
                "q",
                "f",
                {
                    ("q", "a"): "q", ("q", "b"): q_on_b,
                    ("u", "a"): "f", ("u", "b"): "q",
                    ("f", "a"): "f", ("f", "b"): "f",
                },
            )

        hidden, reached = automaton("q"), automaton("f")
        assert hidden.is_empty()
        assert hidden == anamorphism_regular(never, "x")
        assert not reached.is_empty()
        assert reached.words_up_to(3) == FiniteWordSet.from_texts(ab, ["b", "a b", "a a b"])
        assert hidden != reached
        assert not automaton("u").is_empty()  # b a is a member, through u

    def test_random_emptiness_matches_oracle(self):
        rng = random.Random(67)
        al = binary()
        answers = []
        for _ in range(200):
            det = random_detector(rng, al, rng.randint(1, 4), fault_prob=0.15)
            x = rng.choice(det.states)
            empty = not oracle_minimal_words(det, x, 4)  # 4 states reach a fault within 4 steps
            assert anamorphism_regular(det, x).is_empty() is empty
            answers.append(empty)
        assert 10 <= sum(answers) <= 190

    def test_words_up_to_zero_is_empty(self, ab):
        rng = random.Random(71)
        for _ in range(20):
            det = random_detector(rng, ab, rng.randint(1, 4))
            lang = anamorphism_regular(det, rng.choice(det.states))
            assert lang.words_up_to(0) == FiniteWordSet(ab)
        with pytest.raises(ValueError, match="nonnegative"):
            lang.words_up_to(-1)

    def test_advance_shares_the_automaton(self, first_b, ab):
        lang = anamorphism_regular(first_b, "x")
        stepped = lang.advance("a")
        assert stepped.transitions is lang.transitions and stepped.states is lang.states
        assert stepped == lang and lang.advance("b") is FAULT


class TestFinalStep:
    def test_explicit_fault(self, ab):
        assert final_step(FiniteWordSet.from_texts(ab, ["b"]), "b") is FAULT

    def test_explicit_derivative(self, ab):
        got = final_step(FiniteWordSet.from_texts(ab, ["a b", "b"]), "a")
        assert got == FiniteWordSet.from_texts(ab, ["b"])

    def test_explicit_matches_derivative_oracle(self):
        rng = random.Random(47)
        al = binary()
        universe = list(all_words(al, 3, min_len=1))
        for _ in range(300):
            subset = FiniteWordSet(al, rng.sample(universe, rng.randint(0, 6)))
            for n in al:
                got = final_step(subset, n)
                if Word(al, (n,)) in subset:
                    assert got is FAULT
                else:
                    assert got == derivative_set(n, subset)

    def test_regular_derivative_fixpoint(self, first_b, ab):
        lang = anamorphism_regular(first_b, "x")  # all words a^k b
        stepped = final_step(lang, "a")
        assert stepped == lang
        assert final_step(lang, "b") is FAULT

    def test_rejects_epsilon_member(self, ab):
        with pytest.raises(EpsilonViolation):
            final_step(FiniteWordSet.from_texts(ab, ["", "a"]), "a")

    def test_rejects_unknown_representation(self):
        with pytest.raises(TypeError, match="not a prefix-free set"):
            final_step(object(), "a")


class TestDetectorMorphism:
    def test_identity(self, first_b):
        assert check_detector_morphism({"x": "x"}, first_b, first_b)

    def test_fault_misalignment_fails(self, ab, first_b, never):
        assert not check_detector_morphism({"x": "x"}, first_b, never)

    def test_collapse_into_canonical_quotient(self):
        """Mapping every reachable state to its language class is a
        detector morphism into the minimized detector."""
        from vigil.bisim import bisimilar

        rng = random.Random(53)
        al = binary()
        for _ in range(25):
            det = random_detector(rng, al, rng.randint(1, 4))
            init = det.states[0]
            canon, _ = canonical_form(det, init)
            reachable = [init]
            for x in reachable:
                for n in al:
                    t = det.step(x, n)
                    if t is not FAULT and t not in reachable:
                        reachable.append(t)
            sub_table = {(x, n): det.step(x, n) for x in reachable for n in al}
            sub = FiniteDetector(al, reachable, sub_table)
            f = {}
            for x in reachable:
                f[x] = next(s for s in canon.states if bisimilar(sub, x, canon, s))
            assert check_detector_morphism(f, sub, canon)

    def test_language_map_commutes_with_language_stepping(self):
        """Sending a state to its violation language is a morphism into
        language-level stepping: faults line up symbol by symbol, and the
        stepped language equals the target state's language (automaton
        equality = language equality)."""
        rng = random.Random(55)
        al = binary()
        for _ in range(40):
            det = random_detector(rng, al, rng.randint(1, 4))
            for x in det.states:
                lang = anamorphism_regular(det, x)
                for n in al:
                    target = det.step(x, n)
                    stepped = final_step(lang, n)
                    if target is FAULT:
                        assert stepped is FAULT
                    else:
                        assert stepped == anamorphism_regular(det, target)

    def test_morphisms_preserve_violation_languages(self):
        rng = random.Random(59)
        al = binary()
        for _ in range(40):
            base = random_detector(rng, al, rng.randint(1, 3))
            big, collapse = inflate_detector(rng, base)
            assert check_detector_morphism(collapse, big, base)
            for x in big.states:
                for depth in range(1, 7):
                    assert minimal_violation_words(big, x, depth) == minimal_violation_words(
                        base, collapse[x], depth
                    )


class TestDetectorFromExplicitSet:
    def test_empty_set_never_faults(self, ab):
        det, init = detector_from_explicit_set(FiniteWordSet(ab))
        assert len(det.states) == 1
        assert minimal_violation_words(det, init, 5) == FiniteWordSet(ab)

    def test_single_letter_set(self, ab):
        det, init = detector_from_explicit_set(FiniteWordSet.from_texts(ab, ["b"]))
        assert len(det.states) == 2  # the set itself and the empty sink
        assert det.step(init, "b") is FAULT
        assert det.step(init, "a") == FiniteWordSet(ab)

    def test_two_word_trie(self, ab):
        p = FiniteWordSet.from_texts(ab, ["a b", "b a"])
        det, init = detector_from_explicit_set(p)
        assert len(det.states) == 4
        assert set(det.states) == {
            p,
            FiniteWordSet.from_texts(ab, ["b"]),
            FiniteWordSet.from_texts(ab, ["a"]),
            FiniteWordSet(ab),
        }

    def test_language_is_the_set_at_every_depth(self):
        rng = random.Random(61)
        al = binary()
        from support import random_prefix_free

        for _ in range(50):
            p = random_prefix_free(rng, al, 4)
            det, init = detector_from_explicit_set(p)
            for depth in range(1, 6):
                want = FiniteWordSet(al, (w for w in p if len(w) <= depth))
                assert minimal_violation_words(det, init, depth) == want

    def test_rejects_bad_input(self, ab):
        with pytest.raises(PrefixFreeViolation):
            detector_from_explicit_set(FiniteWordSet.from_texts(ab, ["a", "a b"]))
        with pytest.raises(EpsilonViolation):
            detector_from_explicit_set(FiniteWordSet.from_texts(ab, [""]))

    def test_stepping_commutes_with_language_step(self):
        """Each trie transition is exactly the language-level step of the
        set labelling the state."""
        rng = random.Random(67)
        al = binary()
        from support import random_prefix_free

        for _ in range(40):
            p = random_prefix_free(rng, al, 4)
            det, _ = detector_from_explicit_set(p)
            for q in det.states:
                for n in al:
                    assert det.step(q, n) == final_step(q, n) or (
                        det.step(q, n) is FAULT and final_step(q, n) is FAULT
                    )


class TestCanonicalForm:
    def test_merges_equivalent_states(self, ab):
        det = FiniteDetector(
            ab,
            ["x", "y"],
            {("x", "a"): "y", ("x", "b"): FAULT, ("y", "a"): "x", ("y", "b"): FAULT},
        )
        canon, init = canonical_form(det, "x")
        assert len(canon.states) == 1
        assert init == "s0"

    def test_idempotent(self):
        rng = random.Random(71)
        al = binary()
        for _ in range(40):
            det = random_detector(rng, al, rng.randint(1, 5))
            canon, init = canonical_form(det, det.states[0])
            again, init2 = canonical_form(canon, init)
            assert again.states == canon.states
            assert again.step_table == canon.step_table
            assert init2 == init

    def test_language_preserved(self):
        rng = random.Random(73)
        al = binary()
        for _ in range(40):
            det = random_detector(rng, al, rng.randint(1, 5))
            x = det.states[0]
            canon, init = canonical_form(det, x)
            for depth in range(1, 7):
                assert minimal_violation_words(det, x, depth) == minimal_violation_words(
                    canon, init, depth
                )


    def test_inflated_copies_give_the_original_table(self):
        """Every copy of a state in an inflated detector has that state's
        canonical form, table for table."""
        rng = random.Random(79)
        for _ in range(60):
            al = Alphabet(["a", "b", "c"][: rng.randint(2, 3)])
            det = random_detector(rng, al, rng.randint(1, 7))
            big, collapse = inflate_detector(rng, det, max_copies=3)
            for y in big.states:
                want, want_init = canonical_form(det, collapse[y])
                got, got_init = canonical_form(big, y)
                assert got.states == want.states and got.step_table == want.step_table
                assert got_init == want_init == "s0"

    def test_one_state_per_reachable_language(self):
        """The canonical form keeps one state per violation language among
        the states reachable from the initial one, told apart by the
        brute-force minimal-word oracle after an independent walk; states
        that no path reaches are dropped and change nothing."""
        rng = random.Random(83)
        for _ in range(60):
            al = Alphabet(["a", "b", "c"][: rng.randint(2, 3)])
            det = random_detector(rng, al, rng.randint(1, 5))
            x = det.states[0]
            reach = [x]
            for q in reach:
                for n in al:
                    t = det.step_table[q, n]
                    if t is not FAULT and t not in reach:
                        reach.append(t)
            depth = len(det.states)  # n states are told apart by words of length n
            languages = {frozenset(oracle_minimal_words(det, q, depth)) for q in reach}
            canon, init = canonical_form(det, x)
            assert len(canon.states) == len(languages)
            unreached = {("u0", n): rng.choice([FAULT, "u0", "u1", x]) for n in al}
            unreached.update({("u1", n): "u0" for n in al})
            wider = FiniteDetector(al, [*det.states, "u0", "u1"], {**det.step_table, **unreached})
            again, again_init = canonical_form(wider, x)
            assert again.states == canon.states and again.step_table == canon.step_table
            assert again_init == init

    def test_states_are_named_breadth_first(self):
        """A breadth-first walk over the output table, in symbol order,
        meets ``s0, s1, ...`` in order, on seeded random, inflated and
        compiled detectors."""
        rng = random.Random(89)
        for i in range(300):
            al = Alphabet(["a", "b", "c"][: rng.randint(2, 3)])
            det = random_detector(rng, al, rng.randint(1, 9))
            x = rng.choice(det.states)
            if i % 3 == 1:
                det = inflate_detector(rng, det, max_copies=3)[0]
                x = rng.choice(det.states)
            elif i % 3 == 2:  # a pattern that cannot match the empty word
                pattern = Seq((random_ast(rng, al, 4), Lit("a")))
                det, x = compile_spec(ConstraintSpec("random", al, pattern))
            canon, init = canonical_form(det, x)
            met = [init]
            for q in met:
                for n in al:
                    t = canon.step_table[q, n]
                    if t is not FAULT and t not in met:
                        met.append(t)
            assert met == [f"s{j}" for j in range(len(canon.states))] == list(canon.states)


class TestSerialization:
    def test_round_trip_text_exact(self, ab, first_b):
        text = detector_to_text(first_b)
        assert text == "states: x\nalphabet: a b\nx: a->x b->FAULT\n"
        back = detector_from_text(text)
        assert detector_to_text(back) == text
        assert back.step_table == first_b.step_table

    def test_structured_states_need_canonicalization(self, ab):
        det, init = detector_from_explicit_set(FiniteWordSet.from_texts(ab, ["b"]))
        with pytest.raises(ValueError, match="canonicalize"):
            detector_to_text(det)
        canon, _ = canonical_form(det, init)
        assert detector_from_text(detector_to_text(canon)).step_table == canon.step_table

    def test_parse_errors(self):
        with pytest.raises(ValueError, match="must start"):
            detector_from_text("alphabet: a b\nstates: x\n")
        with pytest.raises(ValueError, match="do not match"):
            detector_from_text("states: x y\nalphabet: a b\nx: a->x b->x\n")

    def test_repeated_cell_names_the_row_and_the_cell(self):
        with pytest.raises(ValueError, match=r"^row 'x': cell 'a->FAULT' repeats symbol 'a'$"):
            detector_from_text("states: x\nalphabet: a b\nx: a->x a->FAULT b->x c->FAULT\n")

    def test_cell_outside_the_alphabet_names_the_row_and_the_cell(self):
        with pytest.raises(ValueError, match=r"^row 'y': cell 'c->FAULT' is on a symbol outside"):
            detector_from_text("states: x y\nalphabet: a b\nx: a->y b->x\ny: a->x b->y c->FAULT\n")


class TestHandles:
    def test_finite_handle_matches_detector(self, first_b, ab):
        handle = FiniteDetectorHandle(first_b, "x")
        nxt = handle.step("a")
        assert isinstance(nxt, FiniteDetectorHandle)
        assert nxt.step("b") is FAULT

    def test_set_handle_runs_the_language(self, ab):
        p = FiniteWordSet.from_texts(ab, ["a b", "b a"])
        handle = SetHandle(p)
        mid = handle.step("a")
        assert isinstance(mid, SetHandle)
        assert mid.language == FiniteWordSet.from_texts(ab, ["b"])
        assert mid.step("b") is FAULT

    def test_violation_words_from_handle(self, ab):
        p = FiniteWordSet.from_texts(ab, ["b", "a b"])
        got = minimal_violation_words(SetHandle(p), None, 3)
        assert got == p

    def test_handle_rejects_state_argument(self, ab):
        handle = SetHandle(FiniteWordSet(ab))
        with pytest.raises(ValueError, match="x=None"):
            minimal_violation_words(handle, "x", 3)

    def test_budget_exhaustion_raises(self, ab):
        from vigil.families import Enumerator, re_detector

        def chatter():
            while True:
                yield ab.word("a a a a")

        handle = re_detector(Enumerator(ab, chatter()), budget=3)
        with pytest.raises(BudgetExhausted):
            minimal_violation_words(handle, None, 2)


def test_unknown_singleton_repr():
    from vigil.monitor import OK

    for marker, text in ((UNKNOWN, "UNKNOWN"), (FAULT, "FAULT"), (OK, "OK")):
        assert repr(marker) == text
        assert marker is copy.copy(marker)
        assert marker is copy.deepcopy(marker)
        assert marker is pickle.loads(pickle.dumps(marker))
        assert bool(marker)
