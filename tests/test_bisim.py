"""Partition-refinement equivalence checking."""

import itertools
import random

import pytest

from vigil.bisim import (
    StatePairRelation,
    bisimilar,
    largest_detector_bisimulation,
    largest_s_bisimulation,
)
from vigil.detector import FiniteDetector, check_detector_morphism, minimal_violation_words
from vigil.monitor import monitor_lasso
from vigil.sequences import AlphabetMismatchError
from vigil.systems import FAULT, SSystem, s_anamorphism, stream_system

from support import (
    all_detectors,
    binary,
    enumerate_lassos,
    inflate_detector,
    random_detector,
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


def test_relation_container_protocol():
    relation = StatePairRelation(frozenset({(1, 2)}))
    assert (1, 2) in relation
    assert list(relation) == [(1, 2)]
    assert len(relation) == 1
