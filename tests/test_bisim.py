"""Partition-refinement equivalence checking."""

import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vigil.bisim import (
    StatePairRelation,
    _pairs,
    _refine,
    bisimilar,
    largest_detector_bisimulation,
    largest_s_bisimulation,
)
from vigil.detector import (
    FiniteDetector,
    RegularPrefixFreeSet,
    check_detector_morphism,
    minimal_violation_words,
)
from vigil.monitor import monitor_lasso
from vigil.sequences import Alphabet, AlphabetMismatchError
from vigil.systems import FAULT, SSystem, s_anamorphism, stream_system

from support import (
    all_detectors,
    binary,
    enumerate_lassos,
    inflate_detector,
    inflate_ssystem,
    moore_refine,
    quotient_bisimilar,
    random_detector,
    random_ssystem,
)


class TestDetectorBisimulation:
    def test_redundant_never_faulting_states_all_related(self, ab):
        det = FiniteDetector(
            ab,
            ["u", "v"],
            {("u", "a"): "v", ("u", "b"): "v", ("v", "a"): "u", ("v", "b"): "u"},
        )
        relation = largest_detector_bisimulation(det, det)
        assert len(relation) == 4

    def test_unrolled_copy_pairs_with_the_original(self, ab):
        one = FiniteDetector(ab, ["x"], {("x", "a"): "x", ("x", "b"): FAULT})
        two = FiniteDetector(
            ab,
            ["x0", "x1"],
            {("x0", "a"): "x1", ("x0", "b"): FAULT, ("x1", "a"): "x0", ("x1", "b"): FAULT},
        )
        relation = largest_detector_bisimulation(one, two)
        assert ("x", "x0") in relation and ("x", "x1") in relation

    def test_different_fault_profiles_unrelated(self, ab):
        fault_a = FiniteDetector(ab, ["x"], {("x", "a"): FAULT, ("x", "b"): "x"})
        fault_b = FiniteDetector(ab, ["x"], {("x", "a"): "x", ("x", "b"): FAULT})
        assert len(largest_detector_bisimulation(fault_a, fault_b)) == 0

    def test_alphabet_mismatch(self, ab):
        from vigil.sequences import Alphabet

        other = Alphabet(["x", "y"])
        d1 = FiniteDetector(ab, ["q"], {("q", "a"): "q", ("q", "b"): "q"})
        d2 = FiniteDetector(other, ["q"], {("q", "x"): "q", ("q", "y"): "q"})
        with pytest.raises(AlphabetMismatchError):
            largest_detector_bisimulation(d1, d2)

    def test_reflexivity(self, ab):
        never = FiniteDetector(ab, ["x"], {("x", "a"): "x", ("x", "b"): "x"})
        assert bisimilar(never, "x", never, "x")

    def test_unreachable_states_do_not_count(self, ab):
        """``x`` faults on ``b`` only; its unreachable neighbours differ,
        one faulting on ``a`` too, one never faulting, one a loop."""
        lone = FiniteDetector(ab, ["x"], {("x", "a"): "x", ("x", "b"): FAULT})
        crowd = FiniteDetector(ab, ["u", "x", "v", "w"], {
            ("u", "a"): FAULT, ("u", "b"): FAULT, ("x", "a"): "x", ("x", "b"): FAULT,
            ("v", "a"): "v", ("v", "b"): "v", ("w", "a"): "u", ("w", "b"): "x",
        })
        assert bisimilar(lone, "x", crowd, "x") and bisimilar(crowd, "x", lone, "x")
        assert not bisimilar(lone, "x", crowd, "u")
        assert not bisimilar(crowd, "v", lone, "x")
        assert not bisimilar(crowd, "w", crowd, "x")

    def test_bisimilar_errors(self, ab):
        from vigil.sequences import Alphabet

        d1 = FiniteDetector(ab, ["q"], {("q", "a"): "q", ("q", "b"): "q"})
        d2 = FiniteDetector(Alphabet(["x", "y"]), ["q"], {("q", "x"): "q", ("q", "y"): "q"})
        with pytest.raises(AlphabetMismatchError):
            bisimilar(d1, "q", d2, "q")
        with pytest.raises(ValueError, match="unknown state 'z'"):
            bisimilar(d1, "z", d1, "q")
        with pytest.raises(ValueError, match="unknown state 'z'"):
            bisimilar(d1, "q", d1, "z")

    def test_fault_a_vs_never(self, ab):
        fault_a = FiniteDetector(ab, ["x"], {("x", "a"): FAULT, ("x", "b"): "x"})
        never = FiniteDetector(ab, ["x"], {("x", "a"): "x", ("x", "b"): "x"})
        assert not bisimilar(fault_a, "x", never, "x")

    def test_is_an_equivalence_on_one_detector(self):
        rng = random.Random(179)
        al = binary()
        for _ in range(30):
            det = random_detector(rng, al, rng.randint(1, 4))
            relation = largest_detector_bisimulation(det, det)
            for x in det.states:
                assert (x, x) in relation
            for x, y in relation:
                assert (y, x) in relation
            for x, y in relation:
                for y2, z in relation:
                    if y2 == y:
                        assert (x, z) in relation

    def test_agrees_with_language_equality_exhaustively(self):
        """On every pair of 1..2-state detectors, relatedness coincides
        with violation-language equality up to the summed state count, and
        ``bisimilar`` with relatedness."""
        al = binary()
        small = list(all_detectors(al, 1)) + list(all_detectors(al, 2))
        languages = {}
        for i, det in enumerate(small):
            for x in det.states:
                languages[(i, x)] = minimal_violation_words(det, x, 4)
        for i, a in enumerate(small):
            for j, b in enumerate(small):
                relation = largest_detector_bisimulation(a, b)
                depth = len(a.states) + len(b.states)
                for x in a.states:
                    for y in b.states:
                        left = FiniteWordSetTrunc(languages[(i, x)], depth)
                        right = FiniteWordSetTrunc(languages[(j, y)], depth)
                        assert ((x, y) in relation) == (left == right)
                        assert bisimilar(a, x, b, y) == ((x, y) in relation)

    def test_morphism_graph_is_a_bisimulation(self):
        rng = random.Random(181)
        al = binary()
        for _ in range(40):
            base = random_detector(rng, al, rng.randint(1, 3))
            big, collapse = inflate_detector(rng, base)
            assert check_detector_morphism(collapse, big, base)
            relation = largest_detector_bisimulation(big, base)
            for x, y in collapse.items():
                assert (x, y) in relation

    def test_pair_walk_agrees_with_comparing_quotients(self):
        """``bisimilar`` against ``support.quotient_bisimilar`` on seeded
        pairs over two or three symbols: a detector and an unrolled copy of
        it, a state of the copy paired with its image (related) or with any
        state, and two random detectors."""
        rng = random.Random(197)
        seen = {True: 0, False: 0}
        for _ in range(600):
            al = Alphabet(["a", "b", "c"][: rng.randint(2, 3)])
            a = random_detector(rng, al, rng.randint(1, 6), rng.choice([0.05, 0.2, 0.4]))
            if rng.random() < 0.5:
                b, collapse = inflate_detector(rng, a, 3)
                y = rng.choice(b.states)
                x = collapse[y] if rng.random() < 0.5 else rng.choice(a.states)
            else:
                b = random_detector(rng, al, rng.randint(1, 6), rng.choice([0.05, 0.2, 0.4]))
                x, y = rng.choice(a.states), rng.choice(b.states)
            want = quotient_bisimilar(a, x, b, y)
            assert bisimilar(a, x, b, y) == bisimilar(b, y, a, x) == want
            seen[want] += 1
        assert min(seen.values()) > 150, seen

    def test_pair_walk_reads_the_table_not_linked_rows(self, ab):
        """``bisimilar`` and language equality read each detector's table
        through its unfold, so neither links a detector's rows."""
        table = {("p", "a"): "q", ("p", "b"): "p", ("q", "a"): "acc", ("q", "b"): "p"}
        table.update({("acc", "a"): "acc", ("acc", "b"): "acc"})
        lang = RegularPrefixFreeSet(ab, ["p", "q", "acc"], "p", "acc", table)
        twin = lang.minimized()
        assert bisimilar(lang.detector, "p", twin.detector, twin.initial)
        assert lang == twin and lang != lang.advance("a")
        assert lang.detector._dense is None and twin.detector._dense is None

    def test_pair_walk_stops_at_the_first_differing_pair(self, ab, monkeypatch):
        """Two 100,000-state chains that differ on their first symbol: the
        walk builds one row on each side and no more."""
        n = 100_000
        names = [f"c{i}" for i in range(n)]
        steps = {(q, "a"): t for q, t in zip(names, names[1:] + ["c0"])}
        one = FiniteDetector(ab, names, {**steps, **{(q, "b"): FAULT for q in names}})
        two = FiniteDetector(ab, names, {**steps, ("c0", "a"): FAULT,
                                         **{(q, "b"): "c0" for q in names}})
        row, calls = FiniteDetector.row, []

        def counted(self, x):
            calls.append(x)
            return row(self, x)

        monkeypatch.setattr(FiniteDetector, "row", counted)
        assert not bisimilar(one, "c0", two, "c0")
        assert len(calls) <= 2, calls[:5]

    def test_related_states_give_equal_verdicts(self):
        rng = random.Random(191)
        al = binary()
        lassos = enumerate_lassos(al, 5)
        for _ in range(6):
            a = random_detector(rng, al, rng.randint(1, 3))
            b = random_detector(rng, al, rng.randint(1, 3))
            relation = largest_detector_bisimulation(a, b)
            for x, y in itertools.islice(relation, 4):
                for s in lassos:
                    assert monitor_lasso(a, x, s) == monitor_lasso(b, y, s)


def FiniteWordSetTrunc(words, depth):
    return frozenset(w for w in words if len(w) <= depth)


class TestSystemBisimulation:
    def test_identical_systems_contain_diagonal(self, ab):
        sys_ = SSystem(ab, ["x", "y"], {"x": "a", "y": "b"}, {"x": "y", "y": "x"})
        relation = largest_s_bisimulation(sys_, sys_)
        assert ("x", "x") in relation and ("y", "y") in relation

    def test_period_multiples_relate(self, ab):
        short, short_init = stream_system(ab.lasso("; a b"))
        long, long_init = stream_system(ab.lasso("; a b a b"))
        relation = largest_s_bisimulation(short, long)
        assert (short_init, long_init) in relation

    def test_constant_systems_with_different_outputs(self, ab):
        const_a = SSystem(ab, ["x"], {"x": "a"}, {"x": "x"})
        const_b = SSystem(ab, ["x"], {"x": "b"}, {"x": "x"})
        assert len(largest_s_bisimulation(const_a, const_b)) == 0

    def test_relatedness_is_stream_equality(self):
        rng = random.Random(193)
        al = binary()
        from support import random_ssystem

        for _ in range(40):
            sigma = random_ssystem(rng, al, rng.randint(1, 4))
            tau = random_ssystem(rng, al, rng.randint(1, 4))
            relation = largest_s_bisimulation(sigma, tau)
            for x in sigma.states:
                for y in tau.states:
                    same = s_anamorphism(sigma, x) == s_anamorphism(tau, y)
                    assert ((x, y) in relation) == same


def detector_rows(*detectors) -> list:
    """The rows of detectors' states side by side, in order, numbered as
    :func:`largest_detector_bisimulation` numbers them: -1 for a fault."""
    states = [(d, x) for d in detectors for x in d.states]
    number = {(id(d), x): i for i, (d, x) in enumerate(states)}
    return [[number.get((id(d), t), -1) for t in d.row(x)] for d, x in states]


class TestRefinementFromFaultDistances:
    """``_refine`` starts from each class split by distance to a fault;
    ``support.moore_refine`` from the classes alone.  The block lists must
    be equal, numbering included."""

    def test_equals_unseeded_moore_on_detectors(self):
        """Seeded random detectors over two or three symbols, and unrolled
        copies of them, whose copies of a state share its block."""
        rng = random.Random(211)
        split = 0
        for _ in range(400):
            al = Alphabet(["a", "b", "c"][: rng.randint(2, 3)])
            det = random_detector(rng, al, rng.randint(1, 12), rng.choice([0.05, 0.2, 0.4]))
            if rng.random() < 0.5:
                det = inflate_detector(rng, det, 3)[0]
            rows = detector_rows(det)
            want = moore_refine(rows, [0] * len(rows))
            assert _refine(rows, [0] * len(rows)) == want
            split += len(set(want)) > 1
        assert split > 300, split

    def test_equals_unseeded_moore_on_two_detectors_side_by_side(self):
        """The rows :func:`largest_detector_bisimulation` refines: a detector
        beside a random one or beside an unrolled copy of itself; the
        relation is the one read off the unseeded blocks."""
        rng = random.Random(223)
        for _ in range(300):
            al = Alphabet(["a", "b", "c"][: rng.randint(2, 3)])
            a = random_detector(rng, al, rng.randint(1, 8), rng.choice([0.05, 0.2, 0.4]))
            if rng.random() < 0.5:
                b = inflate_detector(rng, a, 3)[0]
            else:
                b = random_detector(rng, al, rng.randint(1, 8), rng.choice([0.05, 0.2, 0.4]))
            rows = detector_rows(a, b)
            want = moore_refine(rows, [0] * len(rows))
            assert _refine(rows, [0] * len(rows)) == want
            assert largest_detector_bisimulation(a, b) == _pairs(want, a.states, b.states)

    def test_equals_unseeded_moore_on_output_systems(self):
        """Output systems never step out of their carrier, so their first
        blocks are their output classes, as before."""
        rng = random.Random(227)
        for _ in range(300):
            al = Alphabet(["a", "b", "c"][: rng.randint(2, 3)])
            sigma = random_ssystem(rng, al, rng.randint(1, 8))
            if rng.random() < 0.5:
                tau = inflate_ssystem(rng, sigma, 3)[0]
            else:
                tau = random_ssystem(rng, al, rng.randint(1, 8))
            states = [(s, x) for s in (sigma, tau) for x in s.states]
            number = {(id(s), x): i for i, (s, x) in enumerate(states)}
            rows = [[number[id(s), s.tr(x)]] for s, x in states]
            classes = [s.out(x) for s, x in states]
            want = moore_refine(rows, classes)
            assert _refine(rows, classes) == want
            assert largest_s_bisimulation(sigma, tau) == _pairs(want, sigma.states, tau.states)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equals_unseeded_moore_on_any_rows_and_classes(self, data):
        """Any rows of one to four successors, -1 among them or not, with
        any classes."""
        n = data.draw(st.integers(1, 10))
        width = data.draw(st.integers(1, 4))
        rows = data.draw(st.lists(st.lists(st.integers(-1, n - 1), min_size=width, max_size=width),
                                  min_size=n, max_size=n))
        classes = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        assert _refine(rows, classes) == moore_refine(rows, classes)

    def test_a_4001_state_chain_relates_within_two_seconds(self, ab):
        """The detector of ``a^4000``: a chain of 4,000 states, each moving
        on along ``a``, the last one faulting, and falling into a safe sink
        on ``b``.  Every state is alone in its block.  Refined from the
        classes alone, or from whether a state can fault at all, it took
        one round per state, quadratic in the chain."""
        n = 4000
        table = {(n, "a"): n, (n, "b"): n}
        table.update(((i, "a"), i + 1 if i + 1 < n else FAULT) for i in range(n))
        table.update(((i, "b"), n) for i in range(n))
        det = FiniteDetector(ab, range(n + 1), table)
        start = time.perf_counter()
        relation = largest_detector_bisimulation(det, det)
        wall = time.perf_counter() - start
        assert relation.pairs == {(x, x) for x in det.states}
        assert wall < 2, wall


def test_relation_container_protocol():
    relation = StatePairRelation(frozenset({(1, 2)}))
    assert (1, 2) in relation
    assert list(relation) == [(1, 2)]
    assert len(relation) == 1
