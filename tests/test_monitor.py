"""The product construction and the monitoring engines."""

import random

import pytest

from vigil.detector import FiniteDetector, anamorphism_regular, minimal_violation_words
from vigil.monitor import (
    OK,
    CertifiedSafe,
    FeedUnknown,
    FeedViolation,
    MonitorClosedError,
    Unknown,
    Violation,
    constr_member,
    join,
    join_map,
    monitor_lasso,
    monitor_online,
    transfer_to_universal,
)
from vigil.sequences import AlphabetMismatchError, LassoStream, Word, slice_from, slice_range
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
