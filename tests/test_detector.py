"""Finite detectors, violation languages, language-level stepping."""

import copy
import gc
import pickle
import random
import time
import tracemalloc

import pytest

from vigil.detector import (
    FAULT,
    UNKNOWN,
    BudgetExhausted,
    DetectorHandle,
    FiniteDetector,
    FiniteDetectorHandle,
    RegularPrefixFreeSet,
    SetHandle,
    _from_rows,
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
from vigil.bisim import _minimal_rows, bisimilar
from vigil.families import (
    DecisionProcedure,
    Enumerator,
    check_universal_family,
    decidable_detector,
    re_detector,
)
from vigil.monitor import OK, FeedViolation, OnlineMonitor, Violation, monitor_lasso
from vigil.sequences import (
    Alphabet,
    AlphabetMismatchError,
    EpsilonViolation,
    FiniteWordSet,
    PrefixFreeViolation,
    Word,
    derivative_set,
    is_prefix_free,
    require_prefix_free,
)
from vigil.speclang import ConstraintSpec, Lit, Seq, pattern_dfa, prefix_free_kernel
from vigil.speclang import compile as compile_spec
from vigil.systems import LazyRow, reachable

from support import (
    CountedHandle,
    all_detectors,
    all_words,
    binary,
    inflate_detector,
    minimal_matches,
    oracle_first_fault,
    oracle_minimal_words,
    random_ast,
    random_detector,
    random_prefix_free,
    random_word,
    reference_explicit_detector,
    reference_handle_words,
    regex_matches,
    word_set,
    unpruned_violation_words,
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
        """A monitor of a table links its numbered rows (``lazy_rows``): one
        row per state reached, from each symbol to the row of the state the
        table names, every fault to the one fault row, which maps each
        symbol to itself."""
        rng = random.Random(131)
        al = Alphabet(["a", "b", "c"])
        for _ in range(60):
            det = random_detector(rng, al, rng.randint(1, 6))
            table, start = det.step_table, rng.choice(det.states)
            live = OnlineMonitor(det, start)
            fault = live._fault
            assert type(fault) is LazyRow and list(fault) == list(al.symbols)
            assert all(fault[n] is fault for n in al.symbols)
            index, order = {start: live._row}, [start]
            for x in order:  # grows while it is walked
                row = index[x]
                for n in al.symbols:
                    target = table[(x, n)]
                    if target is FAULT:
                        assert row[n] is fault
                    elif target not in index:
                        index[target] = row[n]
                        order.append(target)
                    assert row[n] is (fault if target is FAULT else index[target])
                assert list(row) == list(al.symbols)
            assert set(index) == set(reachable(start, det.row)[0]) - {FAULT}
            assert len({id(row) for row in index.values()}) == len(index)

    def test_feed_on_dense_rows_rejects_foreign_and_unhashable_symbols(self, first_b):
        """A foreign symbol is a ValueError naming the alphabet, an
        unhashable one a TypeError; neither counts as a step."""
        live = OnlineMonitor(first_b, "x")
        assert live.feed("a") is OK
        for symbol in ("z", None):
            with pytest.raises(ValueError, match="not in alphabet"):
                live.feed(symbol)
        with pytest.raises(TypeError):
            live.feed(["a"])
        assert live.position == 1 and not live.closed
        assert live.feed("b") == FeedViolation(2)

    def test_copies_leave_the_dense_rows_behind(self, ab):
        """A monitor links a long chain's rows thousands deep; copying the
        detector afterwards must not recurse along them."""
        n = 5000
        table = {(i, "a"): i + 1 if i + 1 < n else FAULT for i in range(n)}
        table.update({(i, "b"): 0 for i in range(n)})
        det = FiniteDetector(ab, range(n), table)
        assert isinstance(monitor_lasso(det, 0, ab.lasso("; a")), Violation)
        for twin in (pickle.loads(pickle.dumps(det)), copy.deepcopy(det), copy.copy(det)):
            assert twin.states == det.states and twin.step_table == det.step_table


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

    def test_pruned_walk_agrees_with_growing_every_word(self):
        """The words of ``support.unpruned_violation_words``, in its order,
        at depths 1..8: on seeded random detectors, many with states far
        from a fault or with none in reach, on handles of them, and on set
        and predicate handles, audited or not, of their words up to 8."""
        rng = random.Random(47)
        sinks = 0
        for i in range(150):
            al = Alphabet(["a", "b", "c"][: rng.choice([2, 2, 2, 3])])
            det = random_detector(rng, al, rng.randint(1, 8), rng.choice([0.02, 0.1, 0.3]))
            x = rng.choice(det.states)
            every = unpruned_violation_words(det, x, 8)
            members = set(every)  # read for membership only
            handles = [
                [FiniteDetectorHandle(det, x)],
                [SetHandle(word_set(al, every))],
                [decidable_detector(DecisionProcedure(al, lambda w: w.symbols in members),
                                    audit=audit) for audit in (False, True)],
            ][i % 5] if i % 5 < 3 else []
            for depth in range(1, 9):
                want = [w for w in every if len(w) <= depth]
                assert [w.symbols for w in minimal_violation_words(det, x, depth)] == want
                for handle in handles:
                    assert [w.symbols for w in minimal_violation_words(handle, None, depth)] == want
            live = {q for q in det.states if FAULT in det.row(q)}  # grown to a fixpoint
            while more := {q for q in det.states if live.intersection(det.row(q))} - live:
                live |= more
            sinks += len(live) < len(det.states)  # some state can never fault
        assert sinks > 30, sinks

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
        assert stepped.detector is lang.detector
        assert stepped == lang and lang.advance("b") is FAULT

    @staticmethod
    def valid_table() -> dict:
        """``q`` and ``r`` over a b, with ``f`` accepting."""
        return {("q", "a"): "r", ("q", "b"): "f", ("r", "a"): "q", ("r", "b"): "f",
                ("f", "a"): "f", ("f", "b"): "f"}

    @pytest.mark.parametrize("case", [
        "duplicate state", "initial not a state", "accept not a state",
        "missing step", "missing accepting step", "target not a state",
        "FAULT as a target", "accept not absorbing"])
    def test_constructor_rejects(self, ab, case):
        states, initial, accept, table = ["q", "r", "f"], "q", "f", self.valid_table()
        assert RegularPrefixFreeSet(ab, states, initial, accept, table).words_up_to(2) == \
            FiniteWordSet.from_texts(ab, ["b", "a b"])
        if case == "duplicate state":
            states = ["q", "r", "q", "f"]
        elif case == "initial not a state":
            initial = "z"
        elif case == "accept not a state":
            accept = "z"
        elif case == "missing step":
            del table["r", "b"]
        elif case == "missing accepting step":
            del table["f", "a"]
        elif case == "target not a state":
            table["q", "a"] = "z"
        elif case == "FAULT as a target":
            table["q", "a"] = FAULT
        else:
            table["f", "b"] = "q"
        with pytest.raises(ValueError):
            RegularPrefixFreeSet(ab, states, initial, accept, table)

    def test_constructor_builds_the_detector_of_the_automaton(self, ab):
        """The language is state ``initial`` of the detector on the other
        states, in which a step into the accepting state faults."""
        lang = RegularPrefixFreeSet(ab, ["q", "r", "f"], "q", "f", self.valid_table())
        assert lang.detector.states == ("q", "r")
        assert lang.detector.step_table == {("q", "a"): "r", ("q", "b"): FAULT,
                                            ("r", "a"): "q", ("r", "b"): FAULT}
        assert lang.transitions == self.valid_table() and lang.initial == "q"
        assert repr(lang) == "RegularPrefixFreeSet(3 states over ['a', 'b'])"

    def test_states_list_the_accepting_state_last(self, ab):
        """The automaton is read off its detector, so a constructor call that
        lists the accepting state first reads it last."""
        lang = RegularPrefixFreeSet(ab, ["f", "q", "r"], "q", "f", self.valid_table())
        assert lang.states == ("q", "r", "f") and lang.alphabet is ab
        assert lang.transitions == self.valid_table()
        assert list(lang.transitions)[-2:] == [("f", "a"), ("f", "b")]

    def test_the_table_is_built_once_per_object(self, first_b):
        lang = anamorphism_regular(first_b, "x")
        table = lang.transitions
        assert lang.transitions is table and lang.minimized().transitions == table
        stepped = lang.advance("a")
        assert stepped.transitions is stepped.transitions and stepped.transitions == table

    def test_copies_do_not_recurse_along_the_dense_rows(self, ab):
        """After a lasso monitor has linked a 5,000-state chain's rows, which
        the detector does not hold, pickle and deepcopy copy the language, and
        a shallow copy shares the detector, as ``advance`` does; none of them
        recurses."""
        n = 5000
        names = [f"c{i}" for i in range(n)] + ["acc"]
        table = {(q, "a"): t for q, t in zip(names, names[1:])}
        table.update({(q, "b"): "c0" for q in names[:-1]})
        table.update({("acc", "a"): "acc", ("acc", "b"): "acc"})
        lang = RegularPrefixFreeSet(ab, names, "c0", "acc", table)
        assert lang == lang.minimized()
        assert isinstance(monitor_lasso(lang.detector, "c0", ab.lasso("; a")), Violation)
        for twin in (pickle.loads(pickle.dumps(lang)), copy.deepcopy(lang)):
            assert twin.detector is not lang.detector
            assert (twin.states, twin.initial, twin.accept, twin.transitions) == (
                lang.states, lang.initial, lang.accept, lang.transitions)
            assert twin == lang
        twin = copy.copy(lang)
        assert twin.detector is lang.detector and twin == lang
        assert twin.contains(ab.word(" ".join(["a"] * n)))


class TestAutomatonFromRows:
    """``minimized``, ``equivalent``, ``is_empty`` and ``words_up_to`` read
    the automaton's own detector; each agrees with what the detector built
    from the automaton's table by the public constructor gives."""

    @staticmethod
    def random_automaton(rng, alphabet: Alphabet, n_states: int) -> RegularPrefixFreeSet:
        """States named out of order, some of them unreachable."""
        names = rng.sample([f"q{i}" for i in range(3 * n_states + 3)], n_states + 1)
        accept, states = names[0], names[1:]
        table = {(accept, n): accept for n in alphabet}
        for q in states:
            for n in alphabet:
                table[q, n] = accept if rng.random() < 0.25 else rng.choice(states)
        return RegularPrefixFreeSet(alphabet, names, rng.choice(states), accept, table)

    @staticmethod
    def as_detector(lang: RegularPrefixFreeSet) -> FiniteDetector:
        """A step into the accepting state is FAULT."""
        states = [q for q in lang.states if q != lang.accept]
        return FiniteDetector(lang.alphabet, states, {
            (q, n): FAULT if lang.transitions[q, n] == lang.accept else lang.transitions[q, n]
            for q in states for n in lang.alphabet})

    def test_against_the_detector_of_the_automaton(self):
        rng = random.Random(4021)
        answers = {"equal": 0, "unequal": 0, "empty": 0, "nonempty": 0}
        earlier = []
        for _ in range(400):
            al = binary() if rng.random() < 0.7 else Alphabet(["a", "b", "c"])
            lang = self.random_automaton(rng, al, rng.randint(1, 4))
            det = self.as_detector(lang)
            small = lang.minimized()
            want = anamorphism_regular(*canonical_form(det, lang.initial))
            assert (small.states, small.initial, small.accept, small.transitions) == (
                want.states, want.initial, want.accept, want.transitions)
            reached, faults = [lang.initial], False
            for q in reached:  # grows while it is walked
                for n in al:
                    t = det.step_table[q, n]
                    faults = faults or t is FAULT
                    if t is not FAULT and t not in reached:
                        reached.append(t)
            assert lang.is_empty() is not faults
            answers["nonempty" if faults else "empty"] += 1
            assert lang.words_up_to(5) == minimal_violation_words(det, lang.initial, 5)
            for other in [small, *rng.sample(earlier, min(len(earlier), 3))]:
                if other.alphabet == al:
                    same = bisimilar(det, lang.initial, self.as_detector(other), other.initial)
                    assert lang.equivalent(other) is same and other.equivalent(lang) is same
                    answers["equal" if same else "unequal"] += 1
            earlier.append(lang)
        assert min(answers.values()) > 40, answers


class TestAutomatonIsADetectorState:
    """The automaton's states, table and names are read off the detector:
    each equals the table built straight from the unfold's rows."""

    @staticmethod
    def oracle(alphabet: Alphabet, rows: list) -> tuple:
        """``(states, initial, accept, transitions)`` of rows named ``d0,
        d1, ...`` in order, a row entry -1 being the absorbing ``acc``."""
        names = [f"d{i}" for i in range(len(rows))] + ["acc"]
        table = {(q, n): names[t] for q, row in zip(names, rows) for n, t in zip(alphabet, row)}
        table.update((("acc", n), "acc") for n in alphabet)
        return tuple(names), "d0", "acc", table

    @staticmethod
    def parts(lang: RegularPrefixFreeSet) -> tuple:
        return lang.states, lang.initial, lang.accept, lang.transitions

    def test_against_the_table_of_the_rows(self):
        rng = random.Random(5011)
        sizes = set()
        for _ in range(300):
            al = binary() if rng.random() < 0.6 else Alphabet(["a", "b", "c"])
            det = random_detector(rng, al, rng.randint(1, 6), fault_prob=0.2)
            x = rng.choice(det.states)
            rows = reachable(x, det.row)[1]
            lang = anamorphism_regular(det, x)
            assert self.parts(lang) == self.oracle(al, rows)
            assert self.parts(lang.minimized()) == self.oracle(al, _minimal_rows(rows))
            assert self.parts(prefix_free_kernel(lang, al)) == self.oracle(al, _minimal_rows(rows))
            ast = random_ast(rng, al, rng.randint(1, 4))
            if not regex_matches(ast, ()):
                kernel = prefix_free_kernel(ast, al)
                assert self.parts(kernel) == self.oracle(al, _minimal_rows(pattern_dfa(ast, al)[1]))
            sizes.add(len(lang.states))
        assert len(sizes) >= 5, sizes

    def test_holds_no_more_than_its_detector(self, ab):
        """On a 20,000-state chain the language holds at most 1.25 times
        what the detector of the same rows holds: it builds no table."""
        n = 20000
        table = {(f"c{i}", "a"): f"c{i + 1}" for i in range(n - 1)}
        table.update({(f"c{i}", "b"): "c0" for i in range(n)})
        table[f"c{n - 1}", "a"] = FAULT
        det = FiniteDetector(ab, [f"c{i}" for i in range(n)], table)
        rows = reachable("c0", det.row)[1]

        def held(build) -> int:
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                kept = build()  # held while it is measured
                return tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()

        lang = held(lambda: anamorphism_regular(det, "c0"))
        alone = held(lambda: _from_rows(ab, [f"d{i}" for i in range(n)], [r[:] for r in rows]))
        assert lang <= 1.25 * alone, (lang, alone)


REJECTIONS = [
    pytest.param(lambda ab: FiniteDetector(ab, [], {}),
                 ValueError, "^a system needs at least one state$", id="no states"),
    pytest.param(lambda ab: FiniteDetector(ab, ["x", "x"], {("x", "a"): "x", ("x", "b"): "x"}),
                 ValueError, "^duplicate state identifiers$", id="duplicate states"),
    pytest.param(lambda ab: RegularPrefixFreeSet(ab, [], "q", "f", {}),
                 ValueError, "^a system needs at least one state$", id="no automaton states"),
    pytest.param(lambda ab: RegularPrefixFreeSet(ab, ["q", "f", "q"], "q", "f", {}),
                 ValueError, "^duplicate state identifiers$", id="duplicate automaton states"),
    pytest.param(lambda ab: minimal_violation_words(ab, None, 2), TypeError,
                 "^expected a FiniteDetector or DetectorHandle, got Alphabet$",
                 id="words of an alphabet"),
    pytest.param(lambda ab: detector_from_text("states: x\nalphabet: a b\nx a->x b->x\n"),
                 ValueError, "^bad detector row: 'x a->x b->x'$", id="row without a colon"),
    pytest.param(lambda ab: detector_from_text("states: x\nalphabet: a b\nx: a->x b->x\nx: a->x\n"),
                 ValueError, "^duplicate row for state 'x'$", id="duplicate row"),
    pytest.param(lambda ab: detector_from_text("states: x\nalphabet: a b\nx: a->x b\n"),
                 ValueError, "^bad transition cell 'b'$", id="cell without an arrow"),
]


@pytest.mark.parametrize("call, error, message", REJECTIONS)
def test_rejects(ab, call, error, message):
    with pytest.raises(error, match=message):
        call(ab)


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

    def test_questions_hash_each_state_argument_once(self, monkeypatch):
        """The detector of a 60-word set numbers its set states when it is
        built; afterwards each question hashes a set state at most once per
        state it is given, and unfolds by number."""
        from support import random_prefix_free

        al = Alphabet(["a", "b", "c"])
        p = random_prefix_free(random.Random(60), al, 8, tries=400)
        p = FiniteWordSet(al, p.words[:60])
        assert len(p) == 60
        det, init = detector_from_explicit_set(p)
        hashes, real = 0, FiniteWordSet.__hash__

        def counted(self):
            nonlocal hashes
            hashes += 1
            return real(self)

        monkeypatch.setattr(FiniteWordSet, "__hash__", counted)
        questions = [
            (lambda: bisimilar(det, init, det, init), 2),
            (lambda: canonical_form(det, init), 1),
            (lambda: minimal_violation_words(det, init, 8), 1),
            (lambda: anamorphism_regular(det, init), 1),
            (lambda: monitor_lasso(det, init, al.lasso("a b ; c a b")), 1),
        ]
        for ask, arguments in questions:
            hashes = 0
            ask()
            assert hashes <= arguments, (hashes, arguments)

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

    def test_a_prefix_free_set_is_proved_by_its_walk(self, monkeypatch):
        """On seeded prefix-free sets, from the empty set to a few hundred
        words, the local checks of the walk prove the set valid, so the full
        prefix-freeness check is never called."""
        calls = []
        monkeypatch.setattr("vigil.detector.require_prefix_free", calls.append)
        rng = random.Random(71)
        sizes = set()
        for _ in range(80):
            al = Alphabet(["a", "b", "c"][: rng.randint(2, 3)])
            p = random_prefix_free(rng, al, rng.randint(1, 9), tries=rng.choice([0, 5, 40, 400]))
            det, init = detector_from_explicit_set(p)
            assert init is p and det.states[0] is p
            sizes.add(min(len(p), 50) // 25)
        assert calls == [] and sizes == {0, 1, 2}

    def test_an_invalid_set_raises_what_the_full_check_raises(self):
        """On seeded sets that hold the empty word or a prefix pair, at the
        top or deep inside, the error is the one ``require_prefix_free``
        raises: its type, message and witness pair."""
        def outcome(call, p):
            try:
                call(p)
            except ValueError as error:
                return error
            return None

        rng = random.Random(73)
        seen = {"PrefixFreeViolation": 0, "EpsilonViolation": 0}
        for _ in range(400):
            al = Alphabet(["a", "b", "c"][: rng.randint(2, 3)])
            words = {random_word(rng, al, rng.randint(1, 6)).symbols
                     for _ in range(rng.randint(1, 12))}
            if rng.random() < 0.15:
                words.add(())
            w = rng.choice(sorted(words))
            words.add(w[:rng.randint(0, len(w))] if rng.random() < 0.5 else w + ("a",))
            p = word_set(al, words)
            want = outcome(require_prefix_free, p)
            if want is None:
                continue
            got = outcome(detector_from_explicit_set, p)
            assert type(got) is type(want) and str(got) == str(want)
            if isinstance(want, PrefixFreeViolation):
                assert (got.shorter, got.longer) == (want.shorter, want.longer)
            seen[type(want).__name__] += 1
        assert min(seen.values()) >= 50, seen

    def test_matches_the_reference_unfold(self):
        """On seeded prefix-free sets, from the empty set to a few hundred
        words, the states, their order and the table are those of the one
        unfold stepped by :func:`final_step`."""
        rng = random.Random(79)
        for _ in range(80):
            al = Alphabet(rng.sample(["c", "a", "b"], rng.randint(2, 3)))
            p = random_prefix_free(rng, al, rng.randint(1, 9), tries=rng.choice([0, 5, 40, 400]))
            det, init = detector_from_explicit_set(p)
            want, _ = reference_explicit_detector(p)
            assert init is p and det.states == want.states
            assert det.step_table == want.step_table

    def test_builds_hash_each_state_once(self, monkeypatch):
        """The walk numbers each set by its words, so building the detector
        of a seeded 300-word set hashes each state once, to index it."""
        al = Alphabet(["a", "b", "c"])
        p = random_prefix_free(random.Random(83), al, 9, tries=2000)
        assert len(p) >= 300
        hashes, real = 0, FiniteWordSet.__hash__

        def counted(self):
            nonlocal hashes
            hashes += 1
            return real(self)

        monkeypatch.setattr(FiniteWordSet, "__hash__", counted)
        det, _ = detector_from_explicit_set(p)
        assert hashes <= len(det.states), (hashes, len(det.states))

    def test_a_large_set_is_walked_in_linear_time(self):
        """A seeded 20,000-word set: its detector and the closure check of
        it alone walk its derivatives once, under bounds about three times
        the time measured on 2 shared cores (0.28 s and 0.26 s)."""
        rng = random.Random(89)
        al = Alphabet(["c", "a", "b"])
        words = {tuple(rng.choices(al.symbols, k=rng.randint(10, 16))) for _ in range(23000)}
        words = sorted(w for w in words if not any(w[:k] in words for k in range(10, len(w))))
        p = word_set(al, words[:20000])
        assert len(p) == 20000
        start = time.perf_counter()
        det, _ = detector_from_explicit_set(p)
        middle = time.perf_counter()
        assert check_universal_family([p])[0] is False
        end = time.perf_counter()
        assert len(det.states) > 10000
        assert middle - start < 0.9 and end - middle < 0.8, (middle - start, end - middle)

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

    def test_a_state_named_fault_is_not_read_back_as_a_fault(self, ab):
        """Written out, a step into a state named ``FAULT`` would read back as
        a fault and change the language: the writer refuses such a state,
        and the reader refuses to declare one."""
        det = FiniteDetector(ab, ["x", "FAULT"], {
            ("x", "a"): "FAULT", ("x", "b"): "FAULT", ("FAULT", "a"): "x", ("FAULT", "b"): "x"})
        with pytest.raises(ValueError, match="^state 'FAULT' is not serializable; canonicalize"):
            detector_to_text(det)
        with pytest.raises(ValueError, match="^'FAULT' marks a fault; it may not name a state$"):
            detector_from_text("states: x FAULT\nalphabet: a b\n"
                               "x: a->FAULT b->FAULT\nFAULT: a->x b->x\n")
        canon, c0 = canonical_form(det, "x")
        assert bisimilar(det, "x", detector_from_text(detector_to_text(canon)), c0)

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

    @pytest.mark.parametrize("kind, outcomes", [
        ("explicit", {list}), ("enumerated", {list, BudgetExhausted}),
        ("predicate", {list}), ("audited", {list, PrefixFreeViolation}),
    ], ids=["explicit", "enumerated", "predicate", "audited"])
    def test_truncation_matches_the_reference(self, kind, outcomes):
        """On seeded handles, :func:`minimal_violation_words` gives what
        ``support.reference_handle_words`` gives: the same words in the same
        order, or the same exception and message, after as many steps and,
        for an enumeration, as many items drawn."""
        rng = random.Random(59)
        seen = set()
        for _ in range(225):
            make, depth = seeded_handle(rng, kind), rng.randint(1, 5)
            runs = []
            for walk in (reference_handle_words, truncated):
                handle, enumerator = make()
                steps = [0]
                runs.append((walk(CountedHandle(handle, steps), depth), steps[0],
                             enumerator and enumerator.drawn))
            assert runs[0] == runs[1], kind
            seen.add(runs[1][0][0] if isinstance(runs[1][0], tuple) else list)
        assert seen == outcomes

    def test_a_handle_with_no_hash_truncates(self, ab):
        """Handles are never hashed: one with value equality and so no hash
        truncates as the reference grows it."""
        class FirstB(DetectorHandle):
            """Faults at the first ``b``; equal to another when the words read are."""

            def __init__(self, word):
                self.word, self.alphabet = word, ab

            def __eq__(self, other):
                return isinstance(other, FirstB) and self.word == other.word

            def step(self, symbol):
                return FAULT if symbol == "b" else FirstB(self.word + (symbol,))

        assert FirstB.__hash__ is None
        got = minimal_violation_words(FirstB(()), None, 3)
        assert [w.symbols for w in got] == reference_handle_words(FirstB(()), 3) == [
            ("b",), ("a", "b"), ("a", "a", "b")]

    def test_budget_exhaustion_raises(self, ab):
        def chatter():
            while True:
                yield ab.word("a a a a")

        handle = re_detector(Enumerator(ab, chatter()), budget=3)
        with pytest.raises(BudgetExhausted):
            minimal_violation_words(handle, None, 2)


def seeded_handle(rng, kind: str):
    """A maker of fresh ``(handle, enumerator or None)`` pairs for one
    seeded language: an explicit prefix-free set; its words listed in a
    shuffled order, some twice, under a budget of 1..6 items a step; or
    six random words as a predicate, which for ``audited`` hides each
    member the first time it is asked, so that the audit can catch it."""
    al = Alphabet(["a", "b", "c"][: rng.choice([2, 3])])
    if kind == "explicit":
        p = random_prefix_free(rng, al, 5)
        return lambda: (SetHandle(p), None)
    if kind == "enumerated":
        items = list(random_prefix_free(rng, al, 4).words)
        items += [rng.choice(items) for _ in range(rng.randint(0, 6))]
        rng.shuffle(items)
        budget = rng.randint(1, 6)

        def make():
            e = Enumerator(al, items)
            return re_detector(e, budget), e
        return make
    members = [random_word(rng, al, rng.randint(1, 4)).symbols for _ in range(6)]

    def make():
        asked = []

        def decides(w):
            asked.append(w.symbols)
            return w.symbols in members and (kind != "audited" or asked.count(w.symbols) > 1)
        return decidable_detector(DecisionProcedure(al, decides), audit=kind == "audited"), None
    return make


def truncated(handle, depth: int):
    """A handle's minimal violation words up to ``depth`` as symbol tuples,
    or the type and message of what the truncation raised."""
    try:
        return [w.symbols for w in minimal_violation_words(handle, None, depth)]
    except Exception as exc:
        return type(exc), str(exc)


def test_unknown_singleton_repr():
    from vigil.monitor import OK

    for marker, text in ((UNKNOWN, "UNKNOWN"), (FAULT, "FAULT"), (OK, "OK")):
        assert repr(marker) == text
        assert marker is copy.copy(marker)
        assert marker is copy.deepcopy(marker)
        assert marker is pickle.loads(pickle.dumps(marker))
        assert bool(marker)
