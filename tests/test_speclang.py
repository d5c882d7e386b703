"""Parsing, kernelization, and compilation of constraint specs."""

import random

import pytest

from vigil.detector import (
    FAULT,
    canonical_form,
    detector_from_explicit_set,
    detector_to_text,
    minimal_violation_words,
)
from vigil.families import EilenbergMachine, machine_to_detector
from vigil.monitor import CertifiedSafe, Violation, monitor_lasso
from vigil.sequences import Alphabet, EpsilonViolation, FiniteWordSet, Word, is_prefix_free
from vigil.speclang import (
    Alt,
    ConstraintSpec,
    Lit,
    Opt,
    Plus,
    Seq,
    SpecError,
    Star,
    compile,
    parse,
    pattern_is_prefix_free,
    prefix_free_kernel,
    pretty,
)

from support import (
    binary,
    lasso_symbols,
    minimal_matches,
    random_ast,
    random_lasso,
    random_prefix_free,
    regex_matches,
)


class TestParse:
    def test_literal(self):
        spec = parse("alphabet a b; violation b;")
        assert spec.alphabet.symbols == ("a", "b")
        assert spec.pattern == Lit("b")

    def test_star_then_literal(self):
        spec = parse("alphabet a b; violation a* b;")
        assert spec.pattern == Seq((Star(Lit("a")), Lit("b")))

    def test_alternation_and_grouping(self):
        spec = parse("alphabet a b; violation (a | b)* b b;")
        assert spec.pattern == Seq((Star(Alt((Lit("a"), Lit("b")))), Lit("b"), Lit("b")))

    def test_postfix_operators(self):
        spec = parse("alphabet a b; violation a+ b?;")
        assert spec.pattern == Seq((Plus(Lit("a")), Opt(Lit("b"))))

    def test_comments_and_whitespace(self):
        spec = parse("# header\nalphabet a b ; # tokens\nviolation\n  a ;")
        assert spec.pattern == Lit("a")

    def test_alphabet_too_small(self):
        with pytest.raises(SpecError, match="two symbols") as err:
            parse("alphabet a; violation a;")
        assert err.value.line == 1 and err.value.col == 1

    def test_duplicate_symbol_position(self):
        with pytest.raises(SpecError, match="duplicate") as err:
            parse("alphabet a\nb a; violation b;")
        assert err.value.line == 2 and err.value.col == 3

    def test_undeclared_symbol(self):
        with pytest.raises(SpecError, match="undeclared symbol 'c'") as err:
            parse("alphabet a b; violation a c;")
        assert err.value.line == 1 and err.value.col == 27

    def test_lexical_error(self):
        with pytest.raises(SpecError, match="unexpected character"):
            parse("alphabet a b; violation a $ b;")

    def test_syntax_errors(self):
        with pytest.raises(SpecError, match="expected a symbol"):
            parse("alphabet a b; violation ;")
        with pytest.raises(SpecError, match=r"expected '\)'"):
            parse("alphabet a b; violation (a;")
        with pytest.raises(SpecError, match="trailing"):
            parse("alphabet a b; violation a; extra")

    def test_name_defaults_and_overrides(self):
        assert parse("alphabet a b; violation a;").name == "constraint"
        assert parse("alphabet a b; violation a;", name="door").name == "door"


class TestPretty:
    def test_examples(self):
        assert pretty(Seq((Star(Lit("a")), Lit("b")))) == "a* b"
        assert pretty(Alt((Seq((Lit("a"), Lit("b"))), Lit("b")))) == "a b | b"
        assert pretty(Star(Alt((Lit("a"), Lit("b"))))) == "(a | b)*"
        assert pretty(Star(Star(Lit("a")))) == "(a*)*"

    def test_round_trip_random_asts(self):
        rng = random.Random(197)
        al = binary()
        for _ in range(500):
            ast = random_ast(rng, al, rng.randint(0, 5))
            text = f"alphabet a b; violation {pretty(ast)};"
            assert parse(text).pattern == ast


class TestKernel:
    def test_single_word_already_prefix_free(self, ab):
        kernel = prefix_free_kernel(Lit("b"), ab)
        assert kernel.words_up_to(4) == FiniteWordSet.from_texts(ab, ["b"])

    def test_a_star_b_unchanged(self, ab):
        pattern = Seq((Star(Lit("a")), Lit("b")))
        kernel = prefix_free_kernel(pattern, ab)
        for depth in (3, 6):
            got = kernel.words_up_to(depth)
            assert set(got.words) == minimal_matches(pattern, ab, depth)
            assert {w.symbols for w in got} == {("a",) * k + ("b",) for k in range(depth)}

    def test_strips_extensions(self, ab):
        pattern = Seq((Lit("a"), Opt(Lit("b"))))  # matches a and a b
        kernel = prefix_free_kernel(pattern, ab)
        assert kernel.words_up_to(3) == FiniteWordSet.from_texts(ab, ["a"])

    def test_epsilon_pattern_rejected(self, ab):
        with pytest.raises(EpsilonViolation):
            prefix_free_kernel(Star(Lit("a")), ab)
        with pytest.raises(EpsilonViolation):
            prefix_free_kernel(Opt(Lit("b")), ab)

    def test_kernel_matches_oracle_on_random_patterns(self):
        rng = random.Random(199)
        al = binary()
        checked = 0
        while checked < 120:
            ast = random_ast(rng, al, rng.randint(0, 4))
            if regex_matches(ast, ()):
                continue
            kernel = prefix_free_kernel(ast, al)
            assert set(kernel.words_up_to(6).words) == minimal_matches(ast, al, 6)
            checked += 1

    def test_kernel_output_is_prefix_free(self):
        rng = random.Random(211)
        al = binary()
        checked = 0
        while checked < 80:
            ast = random_ast(rng, al, rng.randint(0, 4))
            if regex_matches(ast, ()):
                continue
            kernel = prefix_free_kernel(ast, al)
            assert is_prefix_free(kernel.words_up_to(6))
            checked += 1

    def test_kernel_idempotent(self):
        rng = random.Random(223)
        al = binary()
        checked = 0
        while checked < 80:
            ast = random_ast(rng, al, rng.randint(0, 4))
            if regex_matches(ast, ()):
                continue
            once = prefix_free_kernel(ast, al)
            twice = prefix_free_kernel(once, al)
            assert once == twice
            checked += 1

    def test_kernel_identity_on_prefix_free_sets(self):
        """Lifting a random finite prefix-free set to a pattern and
        kernelizing gives back exactly that language."""
        rng = random.Random(227)
        al = binary()
        for _ in range(60):
            p = random_prefix_free(rng, al, 4)
            if not p.words:
                continue
            branches = []
            for w in p.words:
                lits = tuple(Lit(n) for n in w.symbols)
                branches.append(lits[0] if len(lits) == 1 else Seq(lits))
            ast = branches[0] if len(branches) == 1 else Alt(tuple(branches))
            kernel = prefix_free_kernel(ast, al)
            assert kernel.words_up_to(5) == p


class TestPatternIsPrefixFree:
    def test_examples(self):
        assert pattern_is_prefix_free(parse("alphabet a b; violation a* b;"))
        assert not pattern_is_prefix_free(parse("alphabet a b; violation a b?;"))
        assert not pattern_is_prefix_free(parse("alphabet a b; violation (a|b)* b b;"))


class TestCompile:
    def test_literal_b_detector(self, ab):
        # faults exactly when the very first symbol is b; after an 'a' the
        # safe sink is reached and nothing can ever fault
        det, init = compile(parse("alphabet a b; violation b;"))
        assert det.step(init, "b") is FAULT
        sink = det.step(init, "a")
        assert sink != init
        assert det.step(sink, "a") == sink and det.step(sink, "b") == sink
        assert minimal_violation_words(det, init, 6) == FiniteWordSet.from_texts(ab, ["b"])

    def test_first_b_detector(self, ab):
        det, init = compile(parse("alphabet a b; violation a* b;"))
        assert len(det.states) == 1
        assert det.step(init, "b") is FAULT
        assert det.step(init, "a") == init

    def test_two_word_trie(self, ab):
        det, init = compile(parse("alphabet a b; violation a b | b a;"))
        want, want_init = detector_from_explicit_set(FiniteWordSet.from_texts(ab, ["a b", "b a"]))
        canon_want, canon_init = canonical_form(want, want_init)
        assert det.states == canon_want.states
        assert det.step_table == canon_want.step_table
        assert init == canon_init

    def test_double_b_kernel(self, ab):
        spec = parse("alphabet a b; violation (a|b)* b b;")
        det, init = compile(spec)
        got = minimal_violation_words(det, init, 6)
        assert set(got.words) == minimal_matches(spec.pattern, ab, 6)

    def test_compiled_detector_is_canonical(self):
        rng = random.Random(229)
        al = binary()
        checked = 0
        while checked < 40:
            ast = random_ast(rng, al, rng.randint(0, 4))
            if regex_matches(ast, ()):
                continue
            det, init = compile(ConstraintSpec("r", al, ast))
            again, again_init = canonical_form(det, init)
            assert again.states == det.states and again.step_table == det.step_table
            assert again_init == init
            checked += 1

    def test_monitor_verdicts_match_prefix_scan(self):
        """A compiled detector's verdict equals a brute scan for the first
        prefix that is a minimal match of the pattern."""
        rng = random.Random(233)
        al = binary()
        checked = 0
        while checked < 60:
            ast = random_ast(rng, al, rng.randint(0, 4))
            if regex_matches(ast, ()):
                continue
            det, init = compile(ConstraintSpec("r", al, ast))
            s = random_lasso(rng, al)
            bound = len(det.states) * (len(s.prefix) + len(s.period)) + 1
            symbols = lasso_symbols(s, bound)
            expected = None
            for m in range(1, bound + 1):
                prefix = symbols[:m]
                if regex_matches(ast, prefix) and not any(
                    regex_matches(ast, prefix[:k]) for k in range(m)
                ):
                    expected = m
                    break
            verdict = monitor_lasso(det, init, s)
            if expected is None:
                assert verdict == CertifiedSafe()
            else:
                assert isinstance(verdict, Violation)
                assert verdict.prefix_len == expected
            checked += 1

    def test_same_detector_as_the_machine_route(self):
        """Compiling straight from the kernel gives the same detector table
        as reading the kernel back as a machine, determinizing it, and
        taking the canonical form."""

        def via_machine(spec):
            kernel = prefix_free_kernel(spec.pattern, spec.alphabet)
            transitions = [
                (q, n, kernel.transitions[(q, n)])
                for q in kernel.states
                if q != kernel.accept
                for n in spec.alphabet
            ]
            machine = EilenbergMachine(
                spec.alphabet, kernel.states, transitions, [kernel.initial], [kernel.accept]
            )
            return canonical_form(*machine_to_detector(machine))

        rng = random.Random(239)
        specs = [
            parse("alphabet a b; violation (a|b)* a " + "(a|b) " * k + "b b b b;")
            for k in range(9)
        ]
        while len(specs) < 9 + 120:
            al = Alphabet(["a", "b", "c"][: rng.randint(2, 3)])
            ast = random_ast(rng, al, rng.randint(0, 5))
            if not regex_matches(ast, ()):
                specs.append(ConstraintSpec("r", al, ast))
        for spec in specs:
            det, init = compile(spec)
            want, want_init = via_machine(spec)
            assert init == want_init
            assert detector_to_text(det) == detector_to_text(want)
