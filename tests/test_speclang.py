"""Parsing, kernelization, and compilation of constraint specs."""

import copy
import os
import pickle
import random
import re
import subprocess
import sys
import time
from dataclasses import make_dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vigil.detector import (
    FAULT,
    anamorphism_regular,
    canonical_form,
    detector_from_explicit_set,
    detector_to_text,
    minimal_violation_words,
)
from vigil.bisim import largest_detector_bisimulation
from vigil.families import EilenbergMachine, machine_to_detector
from vigil.monitor import CertifiedSafe, Violation, monitor_lasso
from vigil.sequences import (
    Alphabet,
    AlphabetMismatchError,
    EpsilonViolation,
    FiniteWordSet,
    Word,
    is_prefix_free,
)
import vigil
from vigil.cli import main
from vigil.detector import first_prefix_pair
from vigil.systems import reachable
from vigil import speclang
from vigil.speclang import (
    _MAX_DEPTH,
    MAX_NESTING,
    MAX_PATTERN_SIZE,
    Alt,
    ConstraintSpec,
    Lit,
    Opt,
    Plus,
    Seq,
    SpecError,
    Star,
    _Node,
    _Positions,
    _require_small,
    compile,
    parse,
    pattern_dfa,
    pattern_is_prefix_free,
    prefix_free_kernel,
    pretty,
)

from support import (
    FrozensetSubsets,
    all_words,
    binary,
    lasso_symbols,
    oracle_first_fault,
    minimal_matches,
    oracle_parse,
    oracle_require_small,
    random_ast,
    random_lasso,
    random_prefix_free,
    regex_matcher,
    regex_matches,
    subset_of,
    with_peak_rss,
)


def full_walk(pattern, alphabet: Alphabet):
    """The whole subset automaton of a pattern's positions, walked past
    its matches too, one move per symbol: (subset order, rows, initial
    subset, whether each subset accepts)."""
    positions = _Positions(pattern)
    end = positions.end

    def moves(subset):
        return [frozenset().union(*[subset_of(positions.follow[p]) for p in subset
                                    if p != end and positions.symbols[p] == n])
                for n in alphabet.symbols]

    initial = subset_of(positions.initial)
    order, rows = reachable(initial, moves)
    return order, rows, initial, [end in subset for subset in order]


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

    def test_parsed_alphabet_equals_the_checked_one(self):
        """The parser builds its alphabet without ``Alphabet``'s checks; on
        seeded names of every character class the tokenizer admits, in
        declaration order, the result is the one ``Alphabet`` builds."""
        rng = random.Random(7019)
        head, tail = "_" + "abcxyzABCXYZ", "_" + "abcxyzABCXYZ" + "0123456789"
        for _ in range(500):
            names = list(dict.fromkeys(
                rng.choice(head) + "".join(rng.choices(tail, k=rng.randint(0, 6)))
                for _ in range(rng.randint(2, 8))))
            if len(names) < 2:
                continue
            got = parse(f"alphabet {' '.join(names)} ; violation {names[-1]} ;").alphabet
            want = Alphabet(names)
            assert type(got) is Alphabet and got.symbols == want.symbols
            assert got._index == want._index and got == want and hash(got) == hash(want)

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

    @pytest.mark.parametrize("text, message, line, col", [
        ("alphabet a b;\r\nviolation a $;", "unexpected character '\\$'", 2, 13),
        ("alphabet a b;\r\n\tviolation\ta\t$;", "unexpected character", 2, 14),
        ("alphabet a b;\x1c violation a\x1c$;", "unexpected character", 1, 28),
        ("alphabet a b;\u2028violation a\u2028$;", "unexpected character", 1, 27),
        ("alphabet a b;\u00a0violation a\u00a0$;", "unexpected character", 1, 27),
        ("alphabet a b; # a comment\n  $ violation a;", "unexpected character", 2, 3),
        ("alphabet a b; violation a # no newline", "found 'end of input'", 1, 27),
        ("alphabet a b; violation a  \n\t ", "found 'end of input'", 2, 3),
        ("alphabet a b; violation a;\r\n# done\r\n  c", "trailing input 'c'", 3, 3),
        ("alphabet a b; violation c $;", "unexpected character '\\$'", 1, 27),
        ("alphabet a; violation ( $", "unexpected character '\\$'", 1, 25),
        ("alphabet a; # $ in a comment\nviolation a;", "two symbols", 1, 1),
        ("alphabet a b; violation a", "found 'end of input'", 1, 26),
        ("alphabet a b; violation a # c\n", "found 'end of input'", 2, 1),
        ("alphabet a b; violation a\n#", "found 'end of input'", 2, 1),
        ("alphabet a b; violation a\n  # tail", "found 'end of input'", 2, 3),
        ("alphabet a b; violation aé;", "unexpected character 'é'", 1, 26),
        ("alphabet café b; violation b;", "unexpected character 'é'", 1, 13),
        ("alphabet a b; violation " + "(" * MAX_NESTING + "a" + ")" * (MAX_NESTING - 1) + ";",
         "expected '\\)', found ';'", 1, 125),
        ("alphabet a b; violation " + "(" * (MAX_NESTING + 1) + "a" + ")" * (MAX_NESTING + 1) + ";",
         "nested deeper", 1, 75),
    ])
    def test_error_positions(self, text, message, line, col):
        """Only ``\\n`` starts a line; any other whitespace is one column;
        input that ends inside a comment ends at its ``#``; a stray
        character is reported before any error of the grammar, even one
        earlier in the text, but not inside a comment; a letter outside
        ASCII is a stray character, even within a name; parentheses may
        nest :data:`MAX_NESTING` deep, and the next one is the error."""
        with pytest.raises(SpecError, match=message) as err:
            parse(text)
        assert (err.value.line, err.value.col) == (line, col)

    def test_name_defaults_and_overrides(self):
        assert parse("alphabet a b; violation a;").name == "constraint"
        assert parse("alphabet a b; violation a;", name="door").name == "door"

    def test_nesting_limit(self):
        """Three pattern nodes per level at the deepest allowed nesting still
        parse, compile and print; one level more is a SpecError at the
        offending parenthesis."""
        text = "a"
        for _ in range(MAX_NESTING):
            text = f"({text}* b | a)"
        spec = parse(f"alphabet a b; violation {text};")
        assert compile(spec)[0].states == ("s0",)
        assert parse(f"alphabet a b; violation {pretty(spec.pattern)};") == spec
        with pytest.raises(SpecError, match="nested deeper") as err:
            parse(f"alphabet a b;\nviolation ({text});")
        assert (err.value.line, err.value.col) == (2, 11 + MAX_NESTING)


class TestParseAgainstTheOracle:
    """``parse`` gives the spec of the parser it replaced
    (:class:`support.OracleParser`), or its ``SpecError`` with the same
    message, line and column."""

    GAPS = [" ", "  ", "\n", "\t", "\r\n", " # a comment\n", "\n# ( $ é\n  "]
    EDITS = [*" \n\t\r#;|*+?()abcx_9$é", "alphabet", "violation", " # c\n"]

    @staticmethod
    def outcome(parser, text: str):
        try:
            spec = parser(text, name="fuzz")
        except SpecError as err:
            return str(err), err.line, err.col
        return spec.name, spec.alphabet, spec.pattern

    def spaced(self, rng, alphabet: Alphabet) -> str:
        """A valid spec of a random pattern, with whitespace or a comment
        between each two tokens, and now and then before the first and
        after the last."""
        body = pretty(random_ast(rng, alphabet, rng.randint(0, 5)))
        tokens = ["alphabet", *alphabet.symbols, ";", "violation",
                  *re.findall(r"\w+|\S", body), ";"]
        text = "".join(token + rng.choice(self.GAPS) for token in tokens)
        lead = rng.choice(["", *self.GAPS])
        tail = rng.choice(["", "\n", " # the end", "# no newline\n"])
        return lead + text.rstrip() + tail

    def edited(self, rng, text: str) -> str:
        """``text`` with one to three random insertions, deletions and swaps."""
        chars = list(text)
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(chars))
            edit = rng.random()
            if edit < 0.4:
                chars.insert(at, rng.choice(self.EDITS))
            elif edit < 0.7:
                del chars[at]
            else:
                other = rng.randrange(len(chars))
                chars[at], chars[other] = chars[other], chars[at]
        return "".join(chars)

    def test_spaced_and_edited_random_specs(self):
        rng = random.Random(2026)
        names = ["a", "b", "c", "open", "x_1", "A9", "_"]
        kinds = {}
        for _ in range(1500):
            alphabet = Alphabet(rng.sample(names, rng.randint(2, 4)))
            text = self.spaced(rng, alphabet)
            expected = self.outcome(oracle_parse, text)
            assert self.outcome(parse, text) == expected == ("fuzz", alphabet, expected[2]), text
            text = self.edited(rng, text)
            got = self.outcome(parse, text)
            assert got == self.outcome(oracle_parse, text), text
            kind = "spec" if got[0] == "fuzz" else got[0].split(" (line")[0].split(" '")[0]
            kinds[kind] = kinds.get(kind, 0) + 1
        assert kinds["spec"] > 150 and kinds["unexpected character"] > 150, kinds
        assert len(kinds) >= 8, kinds

    def test_nesting_around_the_limit(self):
        """Opened and closed parentheses around :data:`MAX_NESTING`, each
        side balanced or not, with a repetition after every group."""
        for opened in range(MAX_NESTING - 2, MAX_NESTING + 3):
            for closed in range(opened - 1, opened + 2):
                for core in ("a", "a | b*", "", "$"):
                    text = "alphabet a b; violation " + "(" * opened + core + ")*" * closed + ";"
                    assert self.outcome(parse, text) == self.outcome(oracle_parse, text), text


class TestPatternDepth:
    """A pattern built in code is held to the depth ``parse`` can build."""

    @staticmethod
    def deepest_pattern():
        """An alternation, a concatenation and a repetition on every level,
        the top one included, then a literal: 3 * (MAX_NESTING + 1) + 1 nodes."""
        text = "a* b | a"
        for _ in range(MAX_NESTING):
            text = f"({text})* b | a"
        return parse(f"alphabet a b; violation {text};").pattern

    def test_deepest_parsed_pattern_is_accepted(self, ab):
        pattern = self.deepest_pattern()
        spec = ConstraintSpec("deep", ab, pattern)
        assert parse(f"alphabet a b; violation {pretty(pattern)};", name="deep") == spec
        order, _, initial, accepting = full_walk(pattern, ab)
        assert order[0] == initial and not accepting[0]
        assert subset_of(pattern_dfa(pattern, ab)[0][0]) == initial
        assert compile(spec)[0].states == ("s0",)

    @pytest.mark.parametrize("levels", [52, 300, 5000])
    def test_deeper_pattern_built_in_code_is_a_value_error(self, ab, levels):
        pattern = Lit("a")
        for _ in range(levels):
            pattern = Alt((Seq((Star(pattern), Lit("b"))), Lit("a")))
        for build in (lambda: ConstraintSpec("deep", ab, pattern),
                      lambda: pretty(pattern),
                      lambda: pattern_dfa(pattern, ab)):
            with pytest.raises(ValueError, match="deeper than"):
                build()
        with pytest.raises(ValueError, match="deeper than"):
            pretty(Opt(self.deepest_pattern()))

    def test_shared_nodes_are_walked_once_per_level(self, ab):
        pattern = Lit("a")
        for _ in range(60):
            pattern = Alt((pattern, pattern))  # 2**60 root-to-leaf paths
        with pytest.raises(ValueError, match="expands to more than"):
            ConstraintSpec("shared", ab, pattern)
        for _ in range(200):
            pattern = Alt((pattern, pattern))
        with pytest.raises(ValueError, match="deeper than"):
            ConstraintSpec("shared", ab, pattern)


class TestPatternEquality:
    """Pattern nodes compare and hash by structure, at any depth."""

    @staticmethod
    def chain(levels: int, symbol: str = "a"):
        pattern = Lit(symbol)
        for _ in range(levels):
            pattern = Star(pattern)
        return pattern

    def test_nodes_deeper_than_parse_builds_compare_and_hash(self):
        deep, twin = self.chain(5000), self.chain(5000)
        assert deep == twin and hash(deep) == hash(twin)
        assert deep != self.chain(5000, "b") and deep != self.chain(4999)
        assert len({deep, twin, self.chain(4999)}) == 2
        spec = ConstraintSpec("shallow", Alphabet(["a", "b"]), Lit("a"))
        assert spec != ConstraintSpec("shallow", spec.alphabet, Lit("b"))

    def test_shared_nodes_are_walked_once(self):
        pattern, twin = Lit("a"), Lit("a")
        for _ in range(200):  # 2**200 root-to-leaf paths
            pattern, twin = Alt((pattern, pattern)), Alt((twin, twin))
        assert pattern == twin and hash(pattern) == hash(twin)
        assert Seq((pattern, Lit("a"))) != Seq((twin, Lit("b")))

    def test_sharing_does_not_change_equality(self):
        """A node compares and hashes as the tree it expands to, whatever
        its parts share, also after pickling and copying; one literal
        changed deep down a shared node makes it unequal."""
        x = Lit("a")
        assert Alt((x, x)) == Alt((Lit("a"), Lit("a")))
        assert hash(Alt((x, x))) == hash(Alt((Lit("a"), Lit("a"))))

        def level_up(left, right, looped):
            return Seq((Alt((left, right)), Star(looped)))

        def tree(levels):  # no node shared
            if not levels:
                return self.chain(300)
            return level_up(tree(levels - 1), tree(levels - 1), tree(levels - 1))

        shared = mixed = self.chain(300)
        changed = self.chain(300, "b")
        for level in range(5):
            shared, mixed, changed = (level_up(shared, shared, shared),
                                      level_up(mixed, tree(level), mixed),
                                      level_up(shared, shared, changed))
        expanded = tree(5)
        # the asserts name no node: a failure would render 73,000 of them
        for twin in (expanded, mixed, pickle.loads(pickle.dumps(shared)), copy.deepcopy(expanded)):
            equal, same_hash = twin == shared, hash(twin) == hash(shared)
            assert equal and same_hash
        for twin in (changed, pickle.loads(pickle.dumps(changed)), copy.deepcopy(changed)):
            unequal = twin != expanded and not twin == shared
            assert unequal

    def test_hash_is_computed_once(self, monkeypatch):
        """The first ``hash()`` builds ``_terms`` and the node keeps it;
        equal nodes that share different subterms hash alike, and so do the
        nodes that ``copy`` and ``pickle`` rebuild."""
        builds = []
        terms = _Node._terms
        monkeypatch.setattr(_Node, "_terms", lambda node: builds.append(node) or terms(node))
        x = Lit("a")
        shared, unshared = Seq((Alt((x, x)), Star(x))), Seq((Alt((Lit("a"), x)), Star(Lit("a"))))
        assert hash(shared) == hash(shared) and builds == [shared]
        assert hash(unshared) == hash(shared) == hash(unshared)
        assert builds == [shared, unshared]
        for twin in (copy.copy(shared), copy.deepcopy(shared), pickle.loads(pickle.dumps(shared))):
            assert twin is not shared and hash(twin) == hash(shared)

    def test_agrees_with_the_structural_rendering(self):
        """Two nodes are equal exactly when their dataclass reprs, which
        name every node, are, and exactly when their ``_terms`` are, also
        against a twin that shares every repeated subterm; equal nodes hash
        alike."""
        rng = random.Random(5150)
        alphabet = Alphabet(["a", "b"])
        nodes = [random_ast(rng, alphabet, depth=rng.randint(0, 3)) for _ in range(300)]
        for x in nodes:
            for y in rng.sample(nodes, 20) + [copy.deepcopy(x), pickle.loads(pickle.dumps(x))]:
                assert (x == y) == (repr(x) == repr(y)) == (x._terms() == y._terms())
                if x == y:
                    assert hash(x) == hash(y)
        assert Star(Lit("a")) != Plus(Lit("a")) != Opt(Lit("a"))
        assert Seq((Lit("a"), Lit("b"))) != Alt((Lit("a"), Lit("b")))
        assert Lit("a") != "a" and Seq((Lit("a"), Lit("b"), Lit("a"))) != Seq((Lit("a"), Lit("b")))

    def test_deep_and_shared_nodes_pickle_and_copy(self):
        deep = self.chain(5000)
        pattern = Lit("a")
        for _ in range(200):  # 2**200 root-to-leaf paths
            pattern = Alt((pattern, pattern))
        for node in (deep, pattern, Seq((Star(deep), pattern))):
            for twin in (pickle.loads(pickle.dumps(node)), copy.deepcopy(node), copy.copy(node)):
                # the asserts name no node: a failure would render 2**200 paths
                equal, fresh = twin == node, twin is not node
                assert equal and fresh
        twin = copy.deepcopy(pattern)
        shared = twin.items[0] is twin.items[1]
        assert shared and len(pickle.dumps(pattern)) < 10_000

    def test_repr_is_the_dataclass_repr(self):
        """Equal to the ``repr`` that plain dataclasses of the same shape
        generate, on seeded random parsed patterns and at any depth."""
        mirrors = {kind: make_dataclass(kind.__name__, kind.__match_args__, frozen=True)
                   for kind in (Lit, Seq, Alt, Star, Plus, Opt)}

        def mirror(node):
            if isinstance(node, Lit):
                return mirrors[Lit](node.symbol)
            if isinstance(node, (Seq, Alt)):
                return mirrors[type(node)](tuple(map(mirror, node.items)))
            return mirrors[type(node)](mirror(node.item))

        rng = random.Random(5153)
        alphabet = Alphabet(["a", "b", "c"])
        for _ in range(300):
            ast = random_ast(rng, alphabet, depth=rng.randint(0, 5))
            pattern = parse(f"alphabet a b c; violation {pretty(ast)};").pattern
            assert repr(pattern) == repr(mirror(pattern))
        assert repr(self.chain(5000)) == "Star(item=" * 5000 + "Lit(symbol='a')" + ")" * 5000
        assert repr(Seq([Lit("a"), "b"])) == "Seq(items=[Lit(symbol='a'), 'b'])"

    def test_repr_of_a_node_too_big_to_expand_is_bounded(self):
        """``p = Alt((p, p))`` 200 times over expands to 2**201 - 1 nodes:
        its ``repr`` names its type and the bound instead, in a child
        held to 20 s and 1 GiB."""
        code = "; ".join([
            "import resource", "from vigil.speclang import Alt, Lit",
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))",
            "p = Lit('a')", "exec('for _ in range(200): p = Alt((p, p))')", "print(repr(p))"])
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(vigil.__file__)))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=20)
        assert done.returncode == 0, done.stderr[-2000:]
        assert done.stdout == f"<Alt expanding to more than {MAX_PATTERN_SIZE} nodes>\n"
        x = Lit("a")
        assert repr(Alt((x, x))) == "Alt(items=(Lit(symbol='a'), Lit(symbol='a')))"


class TestPatternSize:
    """A pattern is held to MAX_PATTERN_SIZE nodes, expanded."""

    @staticmethod
    def tree_size(pattern) -> int:
        count, todo = 0, [pattern]
        while todo:
            node = todo.pop()
            count += 1
            if isinstance(node, (Seq, Alt)):
                todo.extend(node.items)
            elif isinstance(node, (Star, Plus, Opt)):
                todo.append(node.item)
        return count

    def test_shared_nodes_are_counted_once_per_parent(self, ab):
        """``p = Alt((p, p))`` doubles the expansion per level: 23 levels
        make 2**24 - 1 nodes out of 24 built ones."""
        assert MAX_PATTERN_SIZE == 2**24
        pattern = Lit("a")
        for _ in range(23):
            pattern = Alt((pattern, pattern))
        assert ConstraintSpec("edge", ab, Opt(pattern)).alphabet == ab  # exactly the bound
        over = Seq((pattern, Lit("b")))  # one node more
        for _ in range(77):
            pattern = Alt((pattern, pattern))  # 100 levels, 2**101 - 1 nodes
        for big in (over, pattern):
            for build in (lambda: ConstraintSpec("big", ab, big),
                          lambda: pattern_dfa(big, ab),
                          lambda: pretty(big)):
                with pytest.raises(ValueError, match=f"more than {MAX_PATTERN_SIZE} nodes"):
                    build()

    @staticmethod
    def guard_outcome(guard, pattern):
        try:
            guard(pattern)
        except ValueError as err:
            return str(err)
        return None

    def test_one_walk_guard_agrees_with_the_two_walk_oracle(self):
        """On seeded random patterns whose nodes share parts, a string among
        them now and then, and on doubling chains of every depth and size
        around the two bounds: the same ``ValueError`` message, or none."""
        rng = random.Random(2027)
        patterns = []
        for _ in range(400):
            built = [Lit("a"), Lit("b")]
            for _ in range(rng.randint(1, 400)):
                parts = rng.choices(built[-4:], k=rng.randint(2, 3))
                if rng.random() < 0.02:
                    parts[0] = "x"  # not a node: a leaf to the guard
                kind = rng.choice([Seq, Alt, Star, Plus, Opt])
                built.append(kind(tuple(parts)) if kind in (Seq, Alt) else kind(parts[-1]))
            patterns.append(built[-1])
        for levels in range(20, 26):
            doubled = Lit("a")
            for _ in range(levels):
                doubled = Alt((doubled, doubled))  # 2**(levels + 1) - 1 nodes
            for pad in range(_MAX_DEPTH - levels - 3, _MAX_DEPTH - levels + 1):
                for top in (doubled, Opt(doubled), Seq((doubled, Lit("b")))):
                    for _ in range(pad):
                        top = Star(top)
                    patterns.append(top)
        seen = {}
        for pattern in patterns:
            got = self.guard_outcome(_require_small, pattern)
            assert got == self.guard_outcome(oracle_require_small, pattern)
            kind = got and got.split()[1]  # None, "deeper" or "expands"
            seen[kind] = seen.get(kind, 0) + 1
        assert min(seen.get(k, 0) for k in (None, "deeper", "expands")) > 40, seen

    def test_a_part_that_is_not_a_node_passes_the_guard_and_fails_the_scan(self, ab):
        pattern = Seq(("x", Lit("a")))
        assert ConstraintSpec("odd", ab, pattern).pattern is pattern
        with pytest.raises(TypeError, match="not a pattern node: 'x'"):
            pattern_dfa(pattern, ab)

    def test_parsed_patterns_have_fewer_nodes_than_twice_their_text(self):
        """So every spec up to 8 MiB is under the bound."""
        assert MAX_PATTERN_SIZE >= 2 * 8 * 2**20
        texts = [f"alphabet a b; violation {body};"
                 for body in ("a*b*" * 4000, "a|" * 8000 + "b", "(a)?" * 4000, "a b " * 4000)]
        rng = random.Random(37)
        alphabet = Alphabet(["a", "b", "c"])
        for _ in range(300):
            body = pretty(random_ast(rng, alphabet, depth=4))
            texts.append(f"alphabet a b c;violation {body};")
        for text in texts:
            assert self.tree_size(parse(text).pattern) < 2 * len(text)

    def test_parse_runs_the_size_guard_only_past_half_the_bound(self, monkeypatch):
        """A parsed pattern has fewer nodes than twice its text, so ``parse``
        skips the guard up to ``MAX_PATTERN_SIZE // 2`` characters (8 MiB)
        and runs it past that: here with the bound lowered to twice the
        text, first with a guard that refuses every pattern, then with the
        guard itself."""
        text = "alphabet a b; violation " + "a " * 20 + ";"
        spec = parse(text)
        monkeypatch.setattr(speclang, "MAX_PATTERN_SIZE", 2 * len(text))
        with monkeypatch.context() as patched:
            patched.setattr(speclang, "_require_small", self.refuse)
            assert parse(text) == spec
            with pytest.raises(ValueError, match="refused"):
                parse(text + " ")
        assert parse(text + " ") == spec
        with pytest.raises(ValueError, match=f"more than {2 * len(text)} nodes"):
            parse("alphabet a b; violation " + "a " * 200 + ";")

    @staticmethod
    def refuse(pattern):
        raise ValueError("refused")


_SOUP = st.sampled_from(
    ["alphabet", "violation", "a", "b", "c", "x_1", "A9", "(", ")", "|", "*", "+", "?", ";", "#"]
)


class TestParseFuzz:
    """On any input, parse returns a spec or raises SpecError; a spec it
    returns prints back to itself."""

    @staticmethod
    def parses_or_spec_error(text):
        try:
            spec = parse(text)
        except SpecError:
            return
        assert isinstance(spec, ConstraintSpec)
        assert parse(f"alphabet {' '.join(spec.alphabet)}; violation {pretty(spec.pattern)};",
                     name=spec.name) == spec

    @settings(max_examples=300, deadline=None)
    @given(st.text())
    def test_arbitrary_text(self, text):
        self.parses_or_spec_error(text)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(_SOUP, st.sampled_from(["", " ", "\n"])), max_size=40),
        st.booleans(),
    )
    def test_token_soup(self, parts, with_header):
        soup = "".join(token + gap for token, gap in parts)
        self.parses_or_spec_error(("alphabet a b c; violation " if with_header else "") + soup)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 6000), st.integers(0, 6000), st.sampled_from(["a", "a* b", "(a|b)+", ""]))
    def test_deep_nesting(self, opened, closed, core):
        self.parses_or_spec_error(
            "alphabet a b; violation " + "(" * opened + core + ")" * closed + ";"
        )


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


REJECTIONS = [
    pytest.param(lambda: pretty("a"), TypeError, "^not a pattern node: 'a'$", id="a string"),
    pytest.param(lambda: pretty(Seq((Lit("a"), 3))), TypeError, "^not a pattern node: 3$",
                 id="a number inside a node"),
]


@pytest.mark.parametrize("call, error, message", REJECTIONS)
def test_pretty_rejects(call, error, message):
    with pytest.raises(error, match=message):
        call()


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

    def test_kernel_is_the_anamorphism_of_the_compiled_detector(self):
        """The automaton read straight off the quotient rows is the one the
        compiled detector unfolds to, names and all, also for patterns
        reading symbols outside the alphabet."""
        rng = random.Random(9041)
        abc = Alphabet(["a", "b", "c"])
        checked = 0
        while checked < 400:
            al = Alphabet(["a", "b", "c"][: rng.randint(2, 3)])
            ast = random_ast(rng, abc, rng.randint(0, 5))
            if regex_matches(ast, ()):
                continue
            got = prefix_free_kernel(ast, al)
            want = anamorphism_regular(*compile(ConstraintSpec("k", al, ast)))
            assert (got.states, got.initial, got.accept, got.transitions) == (
                want.states, want.initial, want.accept, want.transitions), pretty(ast)
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

    def test_kernel_of_a_language_over_another_alphabet(self, ab):
        """A mismatch names both alphabets, as every other one does."""
        kernel = prefix_free_kernel(Lit("a"), ab)
        with pytest.raises(AlphabetMismatchError) as err:
            prefix_free_kernel(kernel, Alphabet(["a", "c"]))
        assert str(err.value) == "alphabet mismatch: Alphabet(['a', 'b']) vs Alphabet(['a', 'c'])"

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

    def test_flag_of_the_cut_walk_agrees_with_the_whole_automaton(self):
        """The walk stops at first matches, yet its flag is the answer of
        ``first_prefix_pair`` on the whole automaton, past every match."""
        rng = random.Random(9011)
        checked = flagged = 0
        while checked < 2000:
            al = Alphabet(["a", "b", "c"][: rng.randint(2, 3)])
            ast = random_ast(rng, al, rng.randint(0, 5))
            if regex_matches(ast, ()):
                continue
            _, rows, _, accepting = full_walk(ast, al)
            whole = first_prefix_pair(rows, al, accepting) is None
            assert pattern_dfa(ast, al)[2] == whole, pretty(ast)
            checked += 1
            flagged += not whole
        assert 200 < flagged < 1800

    def test_walk_never_expands_a_match(self, ab):
        """``(a|b)* a (a|b)^10``: the whole automaton has a subset for each
        of the 2**11 last-eleven-symbol windows, the cut walk only for the
        2**10 of them that have not yet matched."""
        pattern = parse("alphabet a b; violation (a|b)* a" + " (a|b)" * 10 + ";").pattern
        assert len(full_walk(pattern, ab)[0]) == 2**11
        assert len(pattern_dfa(pattern, ab)[0]) == 2**10

    def test_hostile_spec_checks_in_bounded_memory(self, tmp_path):
        """``vigil check`` on ``(a|b)* a (a|b)^16``: walking past first
        matches builds 131,072 subsets and peaks over 350 MB; the cut walk
        builds half as many and stays under 250 MB."""
        spec = tmp_path / "hostile.vgl"
        spec.write_text("alphabet a b; violation (a|b)* a" + " (a|b)" * 16 + ";\n",
                        encoding="utf-8")
        script = "import sys; from vigil.cli import main; sys.exit(main())"
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(vigil.__file__)))
        done = subprocess.run(with_peak_rss([sys.executable, "-c", script, "check", str(spec)]),
                              capture_output=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.decode().splitlines() == [
            "spec: hostile", "alphabet: a b", "detector states: 17",
            "kernel changed language: yes"]
        assert int(done.stderr) / 1024 < 250


    @staticmethod
    def check_wide(tmp_path, pattern):
        """``vigil check`` on ``pattern`` over ``a b``, in a child capped at a
        512 MiB address space: its stdout lines, wall time and peak RSS in MiB."""
        spec = tmp_path / "wide.vgl"
        spec.write_text(f"alphabet a b; violation {pattern};\n", encoding="utf-8")
        script = "; ".join([
            "import resource, sys", "resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))",
            "from vigil.cli import main", "sys.exit(main())"])
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(vigil.__file__)))
        start = time.perf_counter()
        done = subprocess.run(with_peak_rss([sys.executable, "-c", script, "check", str(spec)]),
                              capture_output=True, env=env, timeout=120)
        wall = time.perf_counter() - start
        assert done.returncode == 0, done.stderr[-2000:]
        return done.stdout.decode().splitlines(), wall, int(done.stderr.split()[-1]) / 1024

    def test_positions_share_their_follow_masks(self):
        """In ``(a | b | ...)* a b`` the 2,000 branch positions have one
        follow set, and hold it as one object: with the follow sets of the
        last ``a`` and ``b``, three objects in all."""
        branches = " | ".join(["a", "b"] * 1000)
        follow = _Positions(parse(f"alphabet a b; violation ({branches})* a b;").pattern).follow
        assert len(follow) == 2002 and len({id(f) for f in follow}) == 3
        assert follow[0] == (1 << 2001) - 1

    def test_wide_alternation_checks_in_small_memory(self, tmp_path):
        """``(a | b | a | b | ...) a`` with 100,000 branches: every position
        is followed by the last one, and one mask shared between them keeps
        the check within 10 s and 150 MiB, where a mask per position took
        1.3 GB."""
        branches = " | ".join(["a", "b"] * 50000)
        lines, wall, peak_mib = self.check_wide(tmp_path, f"({branches}) a")
        assert lines == [
            "spec: wide", "alphabet: a b", "detector states: 3", "kernel changed language: no"]
        assert wall < 10 and peak_mib < 150, (wall, peak_mib)

    def test_wide_starred_alternation_checks_in_small_memory(self, tmp_path):
        """``(a | b | a | b | ...)* a b`` with 20,000 and with 80,000
        branches: each position follows all of them, which as sets of
        positions ran out of a 512 MiB address space at 20,000.  As one
        shared bitmask the peak grows by well under 1 KiB a branch (a mask
        per position grew by about 8 KiB a branch), and each check takes
        under 10 s."""
        peaks = []
        for n in (20000, 80000):
            branches = " | ".join(["a", "b"] * (n // 2))
            lines, wall, peak_mib = self.check_wide(tmp_path, f"({branches})* a b")
            assert lines == [
                "spec: wide", "alphabet: a b", "detector states: 2", "kernel changed language: yes"]
            assert wall < 10, (n, wall)
            peaks.append(peak_mib)
        assert (peaks[1] - peaks[0]) * 1024 / 60000 < 1, peaks

    def test_a_20000_literal_chain_checks_in_linear_time(self, tmp_path):
        """``vigil check`` on ``a a ... a``, 20,000 literals: the
        minimizer's first blocks are the states' distances to the fault,
        all distinct, so one round proves them stable where a round per
        distinguishing depth took minutes.  Within 10 s and 150 MiB."""
        lines, wall, peak_mib = self.check_wide(tmp_path, " ".join("a" * 20000))
        assert lines[2:] == ["detector states: 20001", "kernel changed language: no"]
        assert wall < 10 and peak_mib < 150, (wall, peak_mib)


class TestBitmaskSubsets:
    """Subsets are int bitmasks, each move ORed out of a table of byte
    entries; ``support.FrozensetSubsets`` makes the same walk over
    frozensets, one union of follow sets per move."""

    def test_rows_and_flag_match_the_frozenset_construction(self):
        """On seeded random patterns, some of them reading symbols outside
        the alphabet: the same subsets in the same order, the same rows
        and the same flag."""
        rng = random.Random(9013)
        abc = Alphabet(["a", "b", "c"])
        checked = wide = 0
        while checked < 1500:
            al = Alphabet(["a", "b", "c"][: rng.randint(2, 3)])
            parts = [random_ast(rng, abc, rng.randint(0, 6)) for _ in range(rng.randint(1, 4))]
            ast = parts[0] if len(parts) == 1 else Seq(tuple(parts))
            if regex_matches(ast, ()):
                with pytest.raises(EpsilonViolation):
                    pattern_dfa(ast, al)
                continue
            oracle = FrozensetSubsets(_Positions(ast), al)
            order, rows = reachable(oracle.initial, oracle.expand)
            masks, got_rows, flag = pattern_dfa(ast, al)
            assert ([subset_of(m) for m in masks], got_rows, flag) == (
                order, rows, oracle.prefix_free), pretty(ast)
            checked += 1
            wide += _Positions(ast).end >= 16  # subsets of three bytes or more
        assert wide > 200, wide

    def test_a_20000_literal_chain_unfolds_within_two_seconds(self, ab):
        """One subset per literal, each one set bit among 20,000: a move
        that shifted through the zero bytes would take quadratic time."""
        rng = random.Random(9029)
        chain = Seq(tuple(Lit(rng.choice("ab")) for _ in range(20000)))
        start = time.perf_counter()
        masks, rows, flag = pattern_dfa(chain, ab)
        wall = time.perf_counter() - start
        assert len(rows) == 20001 and flag
        assert sorted(masks[:3]) == [0, 1, 2] and masks[-1] == 1 << 19999
        assert wall < 2, wall


def _random_specs(seed: int, count: int, depth: int):
    """Seeded random specs over 2 or 3 symbols whose pattern does not
    match the empty word, each with a table of which words of length
    1..depth the pattern matches, decided by the backtracking oracle."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        al = Alphabet(["a", "b", "c"][: rng.randint(2, 3)])
        ast = random_ast(rng, al, rng.randint(0, 5))
        if not regex_matches(ast, ()):
            matches = {w.symbols: regex_matches(ast, w.symbols) for w in all_words(al, depth, 1)}
            out.append((ConstraintSpec("r", al, ast), matches))
    return out


class TestAgainstBacktrackingOracle:
    """The compile path checked against ``support.regex_matches`` alone, so
    that a wrong subset construction cannot hide behind a second use of
    the same automaton."""

    def test_first_fault_is_first_match(self):
        for spec, matches in _random_specs(251, 120, 6):
            det, init = compile(spec)
            for word in matches:
                first = next((k for k in range(1, len(word) + 1) if matches[word[:k]]), None)
                assert oracle_first_fault(det, init, word) == first, (pretty(spec.pattern), word)

    def test_pattern_automaton_accepts_exactly_the_matches(self):
        """The whole pattern automaton, not only its first-match cut (the
        prefix-free flag rests on what lies past a first match): its run
        on a word ends in an accepting subset exactly when the pattern
        matches."""
        for spec, matches in _random_specs(263, 120, 6):
            _, rows, _, accepting = full_walk(spec.pattern, spec.alphabet)
            assert not accepting[0]
            for word, hit in matches.items():
                state = 0
                for n in word:
                    state = rows[state][spec.alphabet.index(n)]
                assert accepting[state] == hit, (pretty(spec.pattern), word)

    def test_kernel_changed_flag(self, tmp_path, capsys):
        """``vigil check`` says the kernel changed the language exactly
        when the pattern matches a word and a proper extension of it: its
        answer "no" must survive a brute-force search of all words up to
        length 6, and its answer "yes" comes with a pair the oracle
        confirms."""
        path = tmp_path / "r.vgl"
        flags = set()
        for spec, matches in _random_specs(257, 120, 6):
            path.write_text(
                f"alphabet {' '.join(spec.alphabet)}; violation {pretty(spec.pattern)};",
                encoding="utf-8",
            )
            assert main(["check", str(path)]) == 0
            changed = capsys.readouterr().out.splitlines()[-1].split(": ")[1]
            flags.add(changed)
            pair = next(
                (w for w, hit in matches.items()
                 if hit and any(matches[w[:k]] for k in range(1, len(w)))),
                None,
            )
            if changed == "no":
                assert pair is None, (pretty(spec.pattern), pair)
            else:
                _, rows, _, accepting = full_walk(spec.pattern, spec.alphabet)
                u, uv = first_prefix_pair(rows, spec.alphabet, accepting)
                assert len(u) < len(uv)
                assert regex_matches(spec.pattern, u.symbols)
                assert regex_matches(spec.pattern, uv.symbols)
        assert flags == {"yes", "no"}


class TestCompileOnRandomPatterns:
    """The compile path on 200 seeded random patterns over 2 to 4 symbols,
    each checked against the oracles of ``tests/support.py`` on every word
    up to length 6 (``regex_matcher`` is ``regex_matches`` memoized across
    words, which a test below checks)."""

    def test_compile_against_oracles(self):
        rng = random.Random(271)
        done = flagged = 0
        while done < 200:
            al = Alphabet(["a", "b", "c", "d"][: rng.randint(2, 4)])
            ast = random_ast(rng, al, rng.randint(0, 4))
            if regex_matches(ast, ()):
                continue
            dfa = pattern_dfa(ast, al)
            det, init = compile(ConstraintSpec("r", al, ast))
            matches = regex_matcher(ast)
            # the first fault is the shortest matching prefix; a pair is a
            # match and a matching proper extension of it
            first, pair = {(): None}, None
            for w in all_words(al, 6, 1):
                u = w.symbols
                before = first[u[:-1]]
                hit = (before is None or pair is None) and matches(u)
                first[u] = len(u) if before is None and hit else before
                if before is not None and hit:
                    pair = u
                assert oracle_first_fault(det, init, u) == first[u], (pretty(ast), u)
            if pair is not None:
                assert not dfa[2], (pretty(ast), pair)
            elif not dfa[2]:  # every pair is longer than 6: the oracle confirms one
                _, rows, _, accepting = full_walk(ast, al)
                u, uv = first_prefix_pair(rows, al, accepting)
                assert matches(u.symbols) and matches(uv.symbols)
            assert largest_detector_bisimulation(det, det).pairs == {(x, x) for x in det.states}
            again, again_init = canonical_form(det, init)
            assert (again.states, again.step_table) == (det.states, det.step_table)
            assert init == again_init == det.states[0] == "s0"
            done += 1
            flagged += not dfa[2]
        assert 30 < flagged < 170

    def test_memoized_matcher_agrees_with_the_backtracking_oracle(self):
        rng = random.Random(277)
        for _ in range(60):
            al = Alphabet(["a", "b", "c"][: rng.randint(2, 3)])
            ast = random_ast(rng, al, rng.randint(0, 5))
            matches = regex_matcher(ast)
            for w in all_words(al, 5):
                assert matches(w.symbols) == regex_matches(ast, w.symbols), (pretty(ast), w)


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
