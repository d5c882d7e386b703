"""Systems with termination and with output, and their exact behaviours."""

import itertools
import random
import time

import pytest

from vigil.sequences import Alphabet, LassoStream, Word
from vigil.systems import (
    FAULT,
    INFINITE,
    SSystem,
    TSystem,
    TerminationTime,
    _fault_distances,
    check_s_morphism,
    check_t_morphism,
    s_anamorphism,
    stream_system,
    t_anamorphism,
    t_iterate,
)

from support import binary, inflate_ssystem, oracle_fault_distances, random_lasso, random_ssystem


def chain(*targets) -> TSystem:
    states = [f"c{i}" for i in range(len(targets))]
    table = {}
    for i, t in enumerate(targets):
        table[states[i]] = FAULT if t is FAULT else f"c{t}"
    return TSystem(states, table)


class TestTIterate:
    def test_immediate_fault(self):
        g = chain(FAULT)
        assert t_iterate(g, "c0", 1) is FAULT

    def test_two_step_fault(self):
        g = chain(1, FAULT)
        assert t_iterate(g, "c0", 2) is FAULT

    def test_cycle(self):
        g = chain(1, 0)
        assert t_iterate(g, "c0", 5) == "c1"

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="starts at 1"):
            t_iterate(chain(FAULT), "c0", 0)

    def test_unknown_state(self):
        with pytest.raises(ValueError, match="unknown state"):
            t_iterate(chain(FAULT), "nope", 1)


class TestTAnamorphism:
    def test_immediate_fault_is_zero(self):
        assert t_anamorphism(chain(FAULT), "c0") == TerminationTime.finite(0)

    def test_chain_of_three(self):
        assert t_anamorphism(chain(1, 2, FAULT), "c0") == TerminationTime.finite(2)

    def test_cycle_never_terminates(self):
        assert t_anamorphism(chain(1, 0), "c0") == INFINITE

    def test_characterized_by_iterates_exhaustively(self):
        """On every 3-state system: the behaviour is k exactly when the
        (k+1)-st iterate faults first."""
        states = ["c0", "c1", "c2"]
        targets = [FAULT] + states
        for combo in itertools.product(targets, repeat=3):
            g = TSystem(states, dict(zip(states, combo)))
            for x in states:
                t = t_anamorphism(g, x)
                if t.is_finite:
                    k = t.steps
                    assert t_iterate(g, x, k + 1) is FAULT
                    for j in range(1, k + 1):
                        assert t_iterate(g, x, j) is not FAULT
                else:
                    for j in range(1, 8):
                        assert t_iterate(g, x, j) is not FAULT

    def test_commutes_with_behaviour_step(self):
        """Stepping the system then taking behaviours equals stepping the
        behaviour (0 faults, infinity stays, k decrements)."""
        states = ["c0", "c1", "c2"]
        targets = [FAULT] + states
        for combo in itertools.product(targets, repeat=3):
            g = TSystem(states, dict(zip(states, combo)))
            for x in states:
                t = t_anamorphism(g, x)
                gx = g.step(x)
                if t == TerminationTime.finite(0):
                    assert gx is FAULT
                elif t.is_finite:
                    assert gx is not FAULT
                    assert t_anamorphism(g, gx) == TerminationTime.finite(t.steps - 1)
                else:
                    assert gx is not FAULT
                    assert t_anamorphism(g, gx) == INFINITE


class TestSAnamorphism:
    def test_constant_output(self, ab):
        sys_ = SSystem(ab, ["x"], {"x": "a"}, {"x": "x"})
        assert s_anamorphism(sys_, "x") == LassoStream(ab, ab.word(""), ab.word("a"))

    def test_prefix_then_loop(self, ab):
        sys_ = SSystem(ab, ["x", "y"], {"x": "a", "y": "b"}, {"x": "y", "y": "y"})
        assert s_anamorphism(sys_, "x") == LassoStream(ab, ab.word("a"), ab.word("b"))

    def test_two_cycle(self, ab):
        sys_ = SSystem(ab, ["x", "y"], {"x": "a", "y": "b"}, {"x": "y", "y": "x"})
        assert s_anamorphism(sys_, "x") == LassoStream(ab, ab.word(""), ab.word("a b"))

    def test_unknown_state(self, ab):
        sys_ = SSystem(ab, ["x"], {"x": "a"}, {"x": "x"})
        with pytest.raises(ValueError, match="unknown state"):
            s_anamorphism(sys_, "zzz")


class TestStreamSystem:
    def test_one_state_loop(self, ab):
        sys_, init = stream_system(ab.lasso("; a"))
        assert len(sys_.states) == 1
        assert sys_.tr(init) == init
        assert sys_.out(init) == "a"

    def test_prefix_lasso_has_two_suffixes(self, ab):
        sys_, _ = stream_system(ab.lasso("a ; b"))
        assert len(sys_.states) == 2

    def test_cycle_lasso_has_two_suffixes(self, ab):
        sys_, _ = stream_system(ab.lasso("; a b"))
        assert len(sys_.states) == 2

    def test_unfolding_reproduces_the_stream(self):
        rng = random.Random(23)
        al = binary()
        for _ in range(100):
            s = random_lasso(rng, al, max_prefix=4, max_period=4)
            sys_, init = stream_system(s)
            assert SSystem(al, sys_.states, sys_.out_table, sys_.tr_table).states == sys_.states
            back = s_anamorphism(sys_, init)
            assert back == s
            horizon = 3 * (len(s.prefix) + len(s.period))
            for k in range(horizon):
                assert back.at(k) == s.at(k)


    def test_a_long_period_takes_under_a_second(self):
        """Each suffix is built from its parts and hashed a few times, so
        a period of 4,000 (4,020 suffixes) unfolds well within a second."""
        rng = random.Random(1423)
        al = Alphabet(["a", "b", "c"])
        s = LassoStream(al, Word(al, rng.choices(al.symbols, k=20)),
                        Word(al, rng.choices(al.symbols, k=4000)))
        start = time.perf_counter()
        sys_, init = stream_system(s)
        elapsed = time.perf_counter() - start
        assert len(sys_.states) == len(s.prefix) + len(s.period) == 4020
        assert s_anamorphism(sys_, init) == s
        assert elapsed < 1.0, elapsed


class TestMorphismChecks:
    def test_identity_is_s_morphism(self, ab):
        sys_ = SSystem(ab, ["x", "y"], {"x": "a", "y": "b"}, {"x": "y", "y": "x"})
        assert check_s_morphism({"x": "x", "y": "y"}, sys_, sys_)

    def test_collapse_of_equal_output_states(self, ab):
        double = SSystem(
            ab,
            ["x1", "x2"],
            {"x1": "a", "x2": "a"},
            {"x1": "x2", "x2": "x1"},
        )
        single = SSystem(ab, ["x"], {"x": "a"}, {"x": "x"})
        assert check_s_morphism({"x1": "x", "x2": "x"}, double, single)

    def test_output_mismatch_fails(self, ab):
        sigma = SSystem(ab, ["x"], {"x": "a"}, {"x": "x"})
        tau = SSystem(ab, ["y"], {"y": "b"}, {"y": "y"})
        assert not check_s_morphism({"x": "y"}, sigma, tau)

    def test_identity_is_t_morphism(self):
        g = chain(1, FAULT)
        assert check_t_morphism({"c0": "c0", "c1": "c1"}, g, g)

    def test_depth_preserving_chain_map(self):
        g = chain(1, 2, FAULT)
        h = chain(1, 2, FAULT)
        f = {"c0": "c0", "c1": "c1", "c2": "c2"}
        assert check_t_morphism(f, g, h)

    def test_fault_mismatch_fails(self):
        g = chain(FAULT)
        h = chain(0)
        assert not check_t_morphism({"c0": "c0"}, g, h)

    def test_partial_map_rejected(self, ab):
        sys_ = SSystem(ab, ["x", "y"], {"x": "a", "y": "b"}, {"x": "y", "y": "x"})
        with pytest.raises(ValueError, match="undefined"):
            check_s_morphism({"x": "x"}, sys_, sys_)

    def test_s_morphism_preserves_behaviour(self):
        """Any collapsing morphism sends a state to one with pointwise the
        same output stream (checked to depth 30)."""
        rng = random.Random(29)
        al = binary()
        for _ in range(60):
            base = random_ssystem(rng, al, rng.randint(1, 4))
            big, collapse = inflate_ssystem(rng, base)
            assert check_s_morphism(collapse, big, base)
            for x in big.states:
                left = s_anamorphism(big, x)
                right = s_anamorphism(base, collapse[x])
                assert left == right
                for k in range(30):
                    assert left.at(k) == right.at(k)


def test_termination_time_validation():
    with pytest.raises(ValueError):
        TerminationTime(-1)
    assert not INFINITE.is_finite
    assert TerminationTime.finite(3).steps == 3


def _ssystem(ab, out=None, tr=None) -> SSystem:
    return SSystem(ab, ["x"], {"x": "a"} if out is None else out, {"x": "x"} if tr is None else tr)


REJECTIONS = [
    pytest.param(lambda ab: TSystem([], {}),
                 ValueError, "^a system needs at least one state$", id="no states"),
    pytest.param(lambda ab: TSystem(["x", "x"], {"x": "x"}),
                 ValueError, "^duplicate state identifiers$", id="duplicate states"),
    pytest.param(lambda ab: TSystem(["x", "y"], {"x": "y"}),
                 ValueError, "^step undefined for state 'y'$", id="step undefined"),
    pytest.param(lambda ab: TSystem(["x"], {"x": "z"}),
                 ValueError, "^step target 'z' of 'x' is not a state$", id="step target outside"),
    pytest.param(lambda ab: chain(FAULT).step("z"),
                 ValueError, "^unknown state 'z'$", id="step of an unknown state"),
    pytest.param(lambda ab: _ssystem(ab, out={}),
                 ValueError, "^output or transition undefined for state 'x'$",
                 id="output undefined"),
    pytest.param(lambda ab: _ssystem(ab, tr={}),
                 ValueError, "^output or transition undefined for state 'x'$",
                 id="transition undefined"),
    pytest.param(lambda ab: _ssystem(ab, out={"x": "c"}),
                 ValueError, "^output 'c' of 'x' is not an alphabet symbol$", id="output outside"),
    pytest.param(lambda ab: _ssystem(ab, tr={"x": "z"}),
                 ValueError, "^transition target 'z' of 'x' is not a state$",
                 id="transition target outside"),
    pytest.param(lambda ab: _ssystem(ab).out("z"),
                 ValueError, "^unknown state 'z'$", id="output of an unknown state"),
    pytest.param(lambda ab: _ssystem(ab).tr("z"),
                 ValueError, "^unknown state 'z'$", id="transition of an unknown state"),
    pytest.param(lambda ab: t_anamorphism(chain(FAULT), "z"),
                 ValueError, "^unknown state 'z'$", id="termination time of an unknown state"),
    pytest.param(lambda ab: s_anamorphism(_ssystem(ab), "z"),
                 ValueError, "^unknown state 'z'$", id="stream of an unknown state"),
    pytest.param(lambda ab: check_t_morphism({"c0": "z"}, chain(FAULT), chain(FAULT)),
                 ValueError, "^state map target 'z' is not a state of the codomain system$",
                 id="map target outside"),
    pytest.param(lambda ab: check_s_morphism({}, _ssystem(ab), _ssystem(ab)),
                 ValueError, "^state map undefined for 'x'$", id="map undefined"),
]


@pytest.mark.parametrize("call, error, message", REJECTIONS)
def test_rejects(ab, call, error, message):
    with pytest.raises(error, match=message):
        call(ab)


class TestFaultDistances:
    def test_equal_a_search_from_each_state(self):
        """On seeded random rows: each state's distance equals a breadth-first
        search forward from it.  The rows include self-loops, states that no
        walk from state 0 reaches, states from which nothing faults, and a
        state 0 that faults at once."""
        rng = random.Random(2801)
        seen = dict.fromkeys(("self-loop", "unreached", "never faults", "0 faults at once"), 0)
        for _ in range(600):
            n, width = rng.randint(1, 12), rng.randint(1, 3)
            fault = rng.choice([0.0, 0.05, 0.2, 0.5])
            rows = [[-1 if rng.random() < fault else rng.randrange(n) for _ in range(width)]
                    for _ in range(n)]
            want = oracle_fault_distances(rows)
            assert _fault_distances(rows) == want, rows
            reached = {0}
            todo = [0]
            while todo:
                for t in rows[todo.pop()]:
                    if t >= 0 and t not in reached:
                        reached.add(t)
                        todo.append(t)
            seen["self-loop"] += any(q in row for q, row in enumerate(rows))
            seen["unreached"] += len(reached) < n
            seen["never faults"] += 0 in want
            seen["0 faults at once"] += -1 in rows[0]
        assert min(seen.values()) >= 50, seen
