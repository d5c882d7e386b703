"""The product construction and the monitoring engines."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vigil.detector import (
    FiniteDetector,
    FiniteDetectorHandle,
    anamorphism_regular,
    minimal_violation_words,
)
from vigil.monitor import (
    OK,
    CertifiedSafe,
    FeedUnknown,
    FeedViolation,
    MonitorClosedError,
    OnlineMonitor,
    Unknown,
    Violation,
    constr_member,
    join,
    join_map,
    monitor_lasso,
    monitor_online,
    transfer_to_universal,
)
from vigil.sequences import (
    Alphabet,
    AlphabetMismatchError,
    LassoStream,
    Word,
    slice_from,
    slice_range,
)
from vigil.systems import (
    FAULT,
    INFINITE,
    SSystem,
    TerminationTime,
    check_t_morphism,
    s_anamorphism,
    stream_system,
    t_anamorphism,
    t_iterate,
)

from support import (
    binary,
    enumerate_lassos,
    inflate_detector,
    inflate_ssystem,
    lasso_symbols,
    oracle_first_fault,
    random_detector,
    random_lasso,
    random_ssystem,
)


@pytest.fixture
def first_b(ab):
    return FiniteDetector(ab, ["x"], {("x", "a"): "x", ("x", "b"): FAULT})


@pytest.fixture
def never(ab):
    return FiniteDetector(ab, ["x"], {("x", "a"): "x", ("x", "b"): "x"})


def oracle_verdict(det, x, s: LassoStream):
    """Brute-force verdict: scan unrolled prefixes up to the pigeonhole
    bound on (state, stream position) pairs."""
    bound = len(det.states) * (len(s.prefix) + len(s.period)) + 1
    hit = oracle_first_fault(det, x, lasso_symbols(s, bound))
    if hit is None:
        return CertifiedSafe()
    return Violation(prefix_len=hit, bad_prefix=slice_range(s, 0, hit), ana_value=hit - 1)


def long_lasso_cases(rng, count: int):
    """Lassos of up to 12 + 40 symbols against detectors of up to 8 states
    with few faults, so that many runs go round the period more than once."""
    al = binary()
    for _ in range(count):
        det = random_detector(rng, al, rng.randint(1, 8), fault_prob=rng.choice([0.02, 0.1, 0.3]))
        yield det, rng.choice(det.states), random_lasso(rng, al, max_prefix=12, max_period=40)


def wrapped(verdict, s: LassoStream) -> bool:
    """Whether the run that gave ``verdict`` read past the end of the period."""
    return not isinstance(verdict, Violation) or verdict.prefix_len > len(s.prefix) + len(s.period)


def counter_detector(size: int, step_a, fault_b=None) -> FiniteDetector:
    """States c0 .. c<size-1> over a b: 'a' moves c<i> to c<step_a(i)>, or
    faults where ``step_a`` gives None; 'b' keeps the state, except that it
    faults at c<fault_b>."""
    al = binary()
    table = {}
    for i in range(size):
        target = step_a(i)
        table[(f"c{i}", "a")] = FAULT if target is None else f"c{target}"
        table[(f"c{i}", "b")] = FAULT if i == fault_b else f"c{i}"
    return FiniteDetector(al, [f"c{i}" for i in range(size)], table)


def fault_place(verdict: Violation, s: LassoStream) -> str:
    """Where the last symbol of the bad prefix sits: in the prefix, or
    first, last or inside a turn of the period."""
    k = verdict.prefix_len - 1 - len(s.prefix)
    if k < 0:
        return "prefix"
    k %= len(s.period)
    return "first" if k == 0 else "last" if k == len(s.period) - 1 else "inside"


def turn_starts(det, x, s: LassoStream) -> list:
    """The states at the starts of the period's turns, walking the raw
    table, up to and including the first that repeats an earlier one; a
    run that faults stops at FAULT."""
    starts, cur = [], x
    for n in s.prefix:
        cur = cur if cur is FAULT else det.step_table[(cur, n)]
    while cur is not FAULT and cur not in starts:
        starts.append(cur)
        for n in s.period:
            cur = cur if cur is FAULT else det.step_table[(cur, n)]
    return starts + [cur]


class TestVerdictTypes:
    def test_violation_pins_the_off_by_one(self, ab):
        with pytest.raises(ValueError, match="prefix_len - 1"):
            Violation(prefix_len=2, bad_prefix=ab.word("a b"), ana_value=2)
        with pytest.raises(ValueError, match="length"):
            Violation(prefix_len=2, bad_prefix=ab.word("a"), ana_value=1)

    def test_unknown_records_consumption(self):
        assert Unknown(steps_consumed=7).steps_consumed == 7


class TestJoin:
    def test_never_faulting_detector_gives_no_faults(self, ab, never):
        sigma = SSystem(ab, ["s"], {"s": "a"}, {"s": "s"})
        product = join(sigma, never)
        assert all(product.step(q) is not FAULT for q in product.states)

    def test_constant_violation_faults_everywhere(self, ab, first_b):
        sigma = SSystem(ab, ["s"], {"s": "b"}, {"s": "s"})
        product = join(sigma, first_b)
        assert all(product.step(q) is FAULT for q in product.states)

    def test_fault_after_exactly_two_steps(self, ab, first_b):
        sigma, init = stream_system(ab.lasso("a ; b"))
        product = join(sigma, first_b)
        assert t_anamorphism(product, (init, "x")) == TerminationTime.finite(1)

    def test_alphabet_mismatch(self, first_b):
        from vigil.sequences import Alphabet

        other = Alphabet(["x", "y"])
        sigma = SSystem(other, ["s"], {"s": "x"}, {"s": "s"})
        with pytest.raises(AlphabetMismatchError):
            join(sigma, first_b)

    def test_product_iterates_track_word_reading(self):
        """After m surviving steps the product sits at (m-shifted stream,
        state reached by the length-m prefix)."""
        from vigil.detector import extend

        rng = random.Random(107)
        al = binary()
        for _ in range(60):
            det = random_detector(rng, al, rng.randint(1, 3))
            x = rng.choice(det.states)
            s = random_lasso(rng, al)
            sigma, init = stream_system(s)
            product = join(sigma, det)
            for m in range(1, 21):
                prefix = slice_range(s, 0, m)
                expected_state = extend(det, x, prefix)
                got = t_iterate(product, (init, x), m)
                if expected_state is FAULT:
                    assert got is FAULT
                else:
                    assert got == (slice_from(s, m), expected_state)


class TestJoinMap:
    def test_identities(self, ab, first_b):
        sigma = SSystem(ab, ["s"], {"s": "a"}, {"s": "s"})
        f = {"s": "s"}
        g = {"x": "x"}
        product = join(sigma, first_b)
        assert join_map(f, g) == {("s", "x"): ("s", "x")}
        assert check_t_morphism(join_map(f, g), product, product)

    def test_collapsing_pairs_commute(self):
        rng = random.Random(109)
        al = binary()
        for _ in range(60):
            base_sigma = random_ssystem(rng, al, rng.randint(1, 3))
            base_det = random_detector(rng, al, rng.randint(1, 3))
            big_sigma, f = inflate_ssystem(rng, base_sigma)
            big_det, g = inflate_detector(rng, base_det)
            product_map = join_map(f, g)
            assert check_t_morphism(
                product_map, join(big_sigma, big_det), join(base_sigma, base_det)
            )

    def test_non_morphism_fails_the_product_check(self, ab, first_b):
        sigma = SSystem(ab, ["s", "t"], {"s": "a", "t": "b"}, {"s": "t", "t": "s"})
        bad_f = {"s": "t", "t": "t"}  # not an output-preserving map
        g = {"x": "x"}
        product = join(sigma, first_b)
        assert not check_t_morphism(join_map(bad_f, g), product, product)


class TestMonitorLasso:
    def test_a_handle_is_rejected(self, ab, first_b):
        """A handle's states never repeat, so a safe lasso would never end."""
        with pytest.raises(TypeError, match="use monitor_online for handles"):
            monitor_lasso(FiniteDetectorHandle(first_b, "x"), None, ab.lasso("; a"))

    def test_feed_lasso_takes_only_a_fresh_monitor_of_rows(self, ab, first_b):
        """On a handle's monitor a repeat proves nothing, and on a monitor
        that has read symbols the positions would be off: both raise."""
        used = OnlineMonitor(first_b, "x")
        assert used.feed("a") is OK
        for live in (OnlineMonitor(FiniteDetectorHandle(first_b, "x")), used):
            with pytest.raises(ValueError, match="fresh monitor of a finite detector's rows"):
                live.feed_lasso(ab.lasso("; a b"))
        assert OnlineMonitor(first_b, "x").feed_lasso(ab.lasso("a ; a b")) == Violation(
            prefix_len=3, bad_prefix=ab.word("a a b"), ana_value=2)

    def test_all_a_stream_is_safe(self, ab, first_b):
        assert monitor_lasso(first_b, "x", ab.lasso("; a")) == CertifiedSafe()

    def test_delayed_violation(self, ab, first_b):
        verdict = monitor_lasso(first_b, "x", ab.lasso("a a ; b"))
        assert verdict == Violation(
            prefix_len=3, bad_prefix=ab.word("a a b"), ana_value=2
        )

    def test_immediate_violation(self, ab, first_b):
        verdict = monitor_lasso(first_b, "x", ab.lasso("b ; a"))
        assert verdict.prefix_len == 1 and verdict.ana_value == 0

    def test_bad_prefix_is_a_minimal_violation_word(self, ab):
        rng = random.Random(113)
        al = binary()
        for _ in range(120):
            det = random_detector(rng, al, rng.randint(1, 4))
            x = rng.choice(det.states)
            s = random_lasso(rng, al)
            verdict = monitor_lasso(det, x, s)
            if isinstance(verdict, Violation):
                words = minimal_violation_words(det, x, verdict.prefix_len)
                assert verdict.bad_prefix in words
            else:
                deep = minimal_violation_words(det, x, 8)
                for m in range(1, 9):
                    assert slice_range(s, 0, m) not in deep

    def test_matches_brute_force_scan(self):
        rng = random.Random(127)
        al = binary()
        for _ in range(250):
            det = random_detector(rng, al, rng.randint(1, 4))
            x = rng.choice(det.states)
            s = random_lasso(rng, al)
            assert monitor_lasso(det, x, s) == oracle_verdict(det, x, s)
        went_round = 0
        for det, x, s in long_lasso_cases(rng, 200):
            verdict = monitor_lasso(det, x, s)
            assert verdict == oracle_verdict(det, x, s)
            went_round += wrapped(verdict, s)
        assert went_round >= 50

    def test_agrees_with_product_termination_time(self):
        rng = random.Random(131)
        al = binary()
        for _ in range(80):
            det = random_detector(rng, al, rng.randint(1, 3))
            x = rng.choice(det.states)
            s = random_lasso(rng, al)
            sigma, init = stream_system(s)
            time = t_anamorphism(join(sigma, det), (init, x))
            verdict = monitor_lasso(det, x, s)
            if isinstance(verdict, Violation):
                assert time == TerminationTime.finite(verdict.ana_value)
            else:
                assert time == INFINITE

    def test_shared_bad_prefix_dooms_every_continuation(self):
        rng = random.Random(137)
        al = binary()
        found = 0
        while found < 120:
            det = random_detector(rng, al, rng.randint(1, 4))
            x = rng.choice(det.states)
            s = random_lasso(rng, al)
            verdict = monitor_lasso(det, x, s)
            if not isinstance(verdict, Violation):
                continue
            found += 1
            for _ in range(5):
                tail = random_lasso(rng, al)
                spliced = LassoStream(
                    al,
                    Word(al, verdict.bad_prefix.symbols + tail.prefix.symbols),
                    tail.period,
                )
                again = monitor_lasso(det, x, spliced)
                assert isinstance(again, Violation)
                assert again.prefix_len == verdict.prefix_len
                assert again.bad_prefix == verdict.bad_prefix


class TestLassoBlockWalk:
    """Lassos a walk a period at a time could get wrong: a fault in the
    prefix, at the first or last symbol of a turn or only after many turns,
    and safe runs whose turn-start state settles only after several turns.
    Both monitors must give the brute-force oracle's verdict."""

    deep = counter_detector(60, lambda i: None if i == 49 else min(i + 1, 59))  # 50th 'a' faults
    cyclic = counter_detector(7, lambda i: (i + 1) % 7, fault_b=5)

    def test_fault_on_the_fiftieth_turn(self):
        al = binary()
        for period, position in (("a b b", 49 * 3 + 1), ("b b a", 50 * 3), ("b a b b", 49 * 4 + 2)):
            s = al.lasso("; " + period)
            assert monitor_lasso(self.deep, "c0", s) == oracle_verdict(self.deep, "c0", s)
            assert monitor_lasso(self.deep, "c0", s).prefix_len == position
        s = al.lasso("b " + "a " * 50 + "; b")
        assert monitor_lasso(self.deep, "c0", s).prefix_len == 51

    def cases(self):
        al = binary()
        for x in ("c0", "c10", "c48", "c49", "c55"):
            for text in ("; a b b", "; b b a", "; b a b b", "; a", "b " + "a " * 50 + "; b",
                         "a " * 49 + "; b", "a a a ; b a b a b b"):
                yield self.deep, x, al.lasso(text)
        never = counter_detector(12, lambda i: min(i + 1, 11))  # a count that stops at 11
        for text in ("; a b", "; b a", "b b ; a b b", "a ; a a b", "; b"):
            yield never, "c0", al.lasso(text)
        for x in self.cyclic.states:  # turn starts go round the cycle, then 'b' at c5 faults
            for text in ("; a a b", "; b a a", "; a b a", "; a a", "; a a a b", "b a ; a a a a b"):
                yield self.cyclic, x, al.lasso(text)
        yield from long_lasso_cases(random.Random(173), 300)

    def test_both_monitors_agree_with_the_oracle(self):
        places, settled_late = dict.fromkeys(("prefix", "first", "last", "inside"), 0), 0
        for det, x, s in self.cases():
            expected = oracle_verdict(det, x, s)
            assert monitor_lasso(det, x, s) == expected, (x, s)
            assert transfer_to_universal(det, x, s) == (expected, expected), (x, s)
            if isinstance(expected, Violation):
                places[fault_place(expected, s)] += 1
            else:
                settled_late += len(turn_starts(det, x, s)) > 5
        assert min(places.values()) >= 10 and settled_late >= 10, (places, settled_late)

    def test_constructed_cases_hit_their_targets(self):
        """The counters above settle late, or fault where they are meant to."""
        al = binary()
        never = counter_detector(12, lambda i: min(i + 1, 11))
        assert len(turn_starts(never, "c0", al.lasso("; a b"))) == 13
        assert turn_starts(self.cyclic, "c0", al.lasso("; a")) == [f"c{i}" for i in (*range(7), 0)]
        for text, place in (("; a a b", "last"), ("; b a a", "first"), ("; a b a", "inside")):
            s = al.lasso(text)
            verdict = monitor_lasso(self.cyclic, "c0", s)
            assert fault_place(verdict, s) == place and verdict.prefix_len > 2 * len(s.period)


class TestConstrMember:
    def test_never_faulting_accepts_everything(self, ab, never):
        rng = random.Random(139)
        for _ in range(20):
            assert constr_member(never, "x", random_lasso(rng, binary()))

    def test_examples(self, ab, first_b):
        assert constr_member(first_b, "x", ab.lasso("; a"))
        assert not constr_member(first_b, "x", ab.lasso("; a b"))


class TestOnlineMonitor:
    def test_feed_sequence(self, ab, first_b):
        live = monitor_online(first_b, "x")
        assert live.feed("a") is OK
        assert live.feed("a") is OK
        assert live.feed("b") == FeedViolation(position=3)

    def test_never_faults_hundred_feeds(self, ab, never):
        live = monitor_online(never, "x")
        rng = random.Random(149)
        for _ in range(100):
            assert live.feed(rng.choice(ab.symbols)) is OK

    def test_closed_after_violation(self, ab, first_b):
        live = monitor_online(first_b, "x")
        live.feed("b")
        assert live.closed
        with pytest.raises(MonitorClosedError):
            live.feed("a")

    def test_unknown_propagates_and_closes(self, ab):
        from vigil.families import Enumerator, re_detector

        def chatter():
            while True:
                yield ab.word("b b b")

        live = monitor_online(re_detector(Enumerator(ab, chatter()), budget=2))
        assert live.feed("a") == FeedUnknown(position=1)
        with pytest.raises(MonitorClosedError):
            live.feed("a")

    def test_agrees_with_lasso_monitor_on_unrollings(self):
        rng = random.Random(151)
        al = binary()
        for _ in range(100):
            det = random_detector(rng, al, rng.randint(1, 4))
            x = rng.choice(det.states)
            s = random_lasso(rng, al)
            verdict = monitor_lasso(det, x, s)
            horizon = (
                verdict.prefix_len
                if isinstance(verdict, Violation)
                else len(det.states) * (len(s.prefix) + len(s.period)) + 3
            )
            live = monitor_online(det, x)
            outcome = OK
            position = None
            for k in range(horizon):
                outcome = live.feed(s.at(k))
                if outcome is not OK:
                    position = outcome.position
                    break
            if isinstance(verdict, Violation):
                assert outcome == FeedViolation(position=verdict.prefix_len)
            else:
                assert outcome is OK and position is None

    def test_requires_handle_or_detector(self):
        with pytest.raises(TypeError, match="FiniteDetector or DetectorHandle"):
            monitor_online(42)

    def test_the_constructor_checks_its_source_as_monitor_online_does(self, first_b):
        """A non-detector is a TypeError and a handle given a state a
        ValueError, with the same message whichever way the monitor is
        built."""
        handle = FiniteDetectorHandle(first_b, "x")
        for source, state, error in ((object(), None, TypeError), (42, "x", TypeError),
                                     (handle, "x", ValueError)):
            messages = []
            for build in (OnlineMonitor, monitor_online):
                with pytest.raises(error) as caught:
                    build(source, state)
                messages.append(str(caught.value))
            assert messages[0] == messages[1]
        assert messages[0] == "handles carry their own state; pass x=None"
        assert str(pytest.raises(TypeError, OnlineMonitor, object()).value) == (
            "expected a FiniteDetector or DetectorHandle, got object")


@st.composite
def fed_runs(draw):
    """A random detector over three symbols, a start state, a word, and
    cut points that split the word into chunks (empty chunks included)."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    det = random_detector(
        rng,
        Alphabet(["a", "b", "c"]),
        draw(st.integers(1, 6)),
        fault_prob=draw(st.sampled_from([0.0, 0.03, 0.1, 0.3])),
    )
    word = draw(st.lists(st.sampled_from(["a", "b", "c"]), max_size=60))
    cuts = sorted(draw(st.lists(st.integers(0, len(word)), max_size=8)))
    return det, draw(st.sampled_from(det.states)), word, cuts


def both_monitors(det, x):
    """The dense-row monitor and the monitor that steps a finite handle."""
    return monitor_online(det, x), OnlineMonitor(FiniteDetectorHandle(det, x))


def feed_each(live, word):
    """Feed symbol by symbol; the outcomes up to the first terminal one."""
    outcomes = []
    for symbol in word:
        outcomes.append(live.feed(symbol))
        if outcomes[-1] is not OK:
            break
    return outcomes


class TestOnlineFastPath:
    """Differential checks of the dense-row monitor against the raw-table
    oracle and against the handle-backed monitor."""

    @given(fed_runs())
    @settings(max_examples=300, deadline=None)
    def test_feed_agrees_with_oracle_and_handle(self, run):
        det, x, word, _ = run
        fault = oracle_first_fault(det, x, word)
        want = [OK] * (len(word) if fault is None else fault - 1)
        if fault is not None:
            want.append(FeedViolation(fault))
        for live in both_monitors(det, x):
            assert feed_each(live, word) == want
            assert live.position == len(want)
            assert live.closed == (fault is not None)

    @given(fed_runs(), st.sampled_from([list, tuple, iter]))
    @settings(max_examples=300, deadline=None)
    def test_feed_many_agrees_over_any_chunking(self, run, batch):
        """Lists and tuples take the one-pass walk, iterators the
        symbol-by-symbol one; both answer as the oracle does."""
        det, x, word, cuts = run
        chunks = [word[i:j] for i, j in zip([0] + cuts, cuts + [len(word)])]
        fault = oracle_first_fault(det, x, word)
        for live in both_monitors(det, x):
            outcome = OK
            for chunk in chunks:
                outcome = live.feed_many(batch(chunk))
                if outcome is not OK:
                    break
            assert outcome == (OK if fault is None else FeedViolation(fault))
            assert live.position == (len(word) if fault is None else fault)
            assert live.closed == (fault is not None)

    @given(fed_runs(), st.integers(0, 60), st.sampled_from([list, tuple]))
    @settings(max_examples=300, deadline=None)
    def test_foreign_symbol_in_one_batch(self, run, at, batch):
        """A violation before the foreign symbol wins; otherwise the foreign
        symbol raises, counts for nothing, and the rest runs as usual."""
        det, x, word, _ = run
        fault = oracle_first_fault(det, x, word)
        at = min(at, len(word))
        for live in both_monitors(det, x):
            if fault is not None and fault <= at:
                assert live.feed_many(batch(word[:at] + ["z"] + word[at:])) == FeedViolation(fault)
                assert live.position == fault and live.closed
                continue
            with pytest.raises(ValueError, match="'z' is not in alphabet"):
                live.feed_many(batch(word[:at] + ["z"] + word[at:]))
            assert live.position == at and not live.closed
            rest = live.feed_many(batch(word[at:]))
            assert rest == (OK if fault is None else FeedViolation(fault))

    @given(fed_runs())
    @settings(max_examples=100, deadline=None)
    def test_iterator_is_not_read_past_the_violation(self, run):
        det, x, word, _ = run
        fault = oracle_first_fault(det, x, word)
        if fault is None:
            return

        def up_to_the_violation():
            yield from word[:fault]
            raise AssertionError("read past the violating symbol")

        for live in both_monitors(det, x):
            assert live.feed_many(up_to_the_violation()) == FeedViolation(fault)

    @given(fed_runs())
    @settings(max_examples=100, deadline=None)
    def test_closed_after_a_verdict(self, run):
        det, x, word, _ = run
        fault = oracle_first_fault(det, x, word)
        if fault is None:
            return
        for live in both_monitors(det, x):
            assert live.feed_many(word + ["a"]) == FeedViolation(fault)
            with pytest.raises(MonitorClosedError):
                live.feed("a")
            for batch in ([], ["b"]):
                with pytest.raises(MonitorClosedError):
                    live.feed_many(batch)
            assert live.position == fault

    @given(fed_runs(), st.integers(0, 60))
    @settings(max_examples=100, deadline=None)
    def test_unknown_symbol_does_not_advance(self, run, at):
        det, x, word, _ = run
        at = min(at, len(word))
        fault = oracle_first_fault(det, x, word)
        for live in both_monitors(det, x):
            head = feed_each(live, word[:at])
            if head and head[-1] is not OK:
                continue
            for bad in (lambda: live.feed("z"), lambda: live.feed_many(["z", "a"])):
                with pytest.raises(ValueError, match="'z' is not in alphabet"):
                    bad()
                assert live.position == at and not live.closed
            # the error consumed nothing: the rest of the word runs as usual
            rest = live.feed_many(word[at:])
            assert rest == (OK if fault is None else FeedViolation(fault))

    def test_unknown_state_rejected(self, first_b):
        with pytest.raises(ValueError, match="unknown state"):
            monitor_online(first_b, "nowhere")


class TestTransferToUniversal:
    def test_safe_case(self, ab, first_b):
        direct, via_language = transfer_to_universal(first_b, "x", ab.lasso("; a"))
        assert direct == CertifiedSafe() and via_language == CertifiedSafe()

    def test_violation_case(self, ab, first_b):
        direct, via_language = transfer_to_universal(first_b, "x", ab.lasso("a ; b"))
        assert direct == via_language
        assert direct.prefix_len == 2

    def test_never_fault_case(self, ab, never):
        rng = random.Random(157)
        for _ in range(10):
            direct, via_language = transfer_to_universal(never, "x", random_lasso(rng, binary()))
            assert direct == CertifiedSafe() and via_language == CertifiedSafe()

    def test_random_agreement(self):
        rng = random.Random(163)
        al = binary()
        for _ in range(150):
            det = random_detector(rng, al, rng.randint(1, 4))
            x = rng.choice(det.states)
            s = random_lasso(rng, al)
            direct, via_language = transfer_to_universal(det, x, s)
            assert direct == via_language
        went_round = 0
        for det, x, s in long_lasso_cases(rng, 100):
            direct, via_language = transfer_to_universal(det, x, s)
            assert direct == via_language == oracle_verdict(det, x, s)
            went_round += wrapped(direct, s)
        assert went_round >= 25


class TestBehaviouralInvariance:
    def test_equivalent_states_give_equal_verdicts(self):
        """Language-equal detector states and stream-equal system states
        induce the same verdict on every short lasso."""
        from vigil.bisim import largest_detector_bisimulation

        rng = random.Random(167)
        al = binary()
        lassos = enumerate_lassos(al, 6)
        for _ in range(8):
            base = random_detector(rng, al, rng.randint(1, 3))
            big, collapse = inflate_detector(rng, base)
            relation = largest_detector_bisimulation(big, base)
            related = [pair for pair in relation if collapse[pair[0]] == pair[1]]
            assert related  # the collapsing map is itself a bisimulation
            for x_big, x_base in related[:4]:
                for s in lassos:
                    assert monitor_lasso(big, x_big, s) == monitor_lasso(base, x_base, s)

    def test_join_respects_stream_equality(self):
        """Two different systems unfolding to the same stream give the same
        product termination time against any detector state."""
        rng = random.Random(173)
        al = binary()
        for _ in range(40):
            det = random_detector(rng, al, rng.randint(1, 3))
            x = rng.choice(det.states)
            s = random_lasso(rng, al)
            sigma, init = stream_system(s)
            big, collapse = inflate_ssystem(rng, sigma)
            big_init = next(q for q in big.states if collapse[q] == init)
            assert s_anamorphism(big, big_init) == s
            t_direct = t_anamorphism(join(sigma, det), (init, x))
            t_big = t_anamorphism(join(big, det), (big_init, x))
            assert t_direct == t_big
