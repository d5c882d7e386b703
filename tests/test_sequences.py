"""Words, lassos, derivatives, prefix-freeness, decomposition."""

import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vigil.sequences import (
    Alphabet,
    AlphabetMismatchError,
    EpsilonViolation,
    FiniteWordSet,
    LassoStream,
    PrefixFreeViolation,
    Word,
    concat,
    decompose,
    derivative_set,
    is_prefix_free,
    require_prefix_free,
    slice_from,
    slice_range,
)
from vigil.sequences import _primitive_root

import vigil
from vigil.detector import FAULT, final_step

from support import (
    all_words,
    binary,
    lasso_symbols,
    oracle_lasso_parts,
    oracle_primitive_root,
    prefix_free_tuples,
    random_lasso,
    random_prefix_free,
    tuple_derivative,
    tuple_final_step,
    tuple_prefix_pair,
    tuple_set,
    tuple_sort_key,
    word_set,
)


def oracle_derivative(n, a):
    """Direct definition: all u (up to the longest member length) with n u in a."""
    max_len = max((len(w) for w in a.words), default=0)
    return {u for u in all_words(a.alphabet, max_len) if concat(Word(a.alphabet, (n,)), u) in a}


class TestAlphabet:
    def test_requires_two_symbols(self):
        with pytest.raises(ValueError, match="two symbols"):
            Alphabet(["only"])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            Alphabet(["a", "b", "a"])

    def test_rejects_malformed_tokens(self):
        for bad in ["", "two words", "semi;colon", "arrow->x", "ha#sh"]:
            with pytest.raises(ValueError):
                Alphabet([bad, "ok"])

    def test_order_is_declaration_order(self):
        assert Alphabet(["z", "m", "a"]).symbols == ("z", "m", "a")

    def test_realistic_event_names(self):
        al = Alphabet(["door_open", "door_close"])
        assert al.word("door_open door_close").symbols == ("door_open", "door_close")


class TestWordsAndText:
    def test_word_validates_membership(self, ab):
        with pytest.raises(ValueError, match="not in alphabet"):
            Word(ab, ("a", "c"))

    def test_foreign_token_error_names_the_first_one(self, ab):
        for symbols in (["c"], ["a", "b", "c", "a", "d"], ["a"] * 500 + ["dd", "c"]):
            first = next(s for s in symbols if s not in ("a", "b"))
            with pytest.raises(ValueError) as caught:
                Word(ab, symbols)
            assert str(caught.value) == f"token {first!r} is not in alphabet ('a', 'b')"

    def test_unhashable_symbol_is_a_type_error(self, ab):
        for symbols in ([["a"]], ["a", "b", {"b"}], ("a", ["c"], "c")):
            with pytest.raises(TypeError, match="unhashable"):
                Word(ab, symbols)

    def test_text_round_trip(self, ab):
        for text in ["", "a", "a b b a"]:
            assert ab.word(text).text() == text

    def test_lasso_literal_round_trip(self, ab):
        assert ab.lasso("a a ; b").text() == "a a ; b"
        assert ab.lasso("; a b").text() == "; a b"
        with pytest.raises(ValueError, match="';'"):
            ab.lasso("a b")

    def test_lasso_needs_nonempty_period(self, ab):
        with pytest.raises(ValueError, match="period"):
            LassoStream(ab, ab.word("a"), ab.word(""))

    def test_lasso_canonical_forms_equal_streams(self, ab):
        assert ab.lasso("a ; a") == ab.lasso("; a")
        assert ab.lasso("; a b a b") == ab.lasso("; a b")
        assert ab.lasso("a ; b a") == ab.lasso("; a b")
        assert ab.lasso("; a b") != ab.lasso("; b a")

    def test_lasso_canonical_form_agrees_with_absorbing_one_symbol_at_a_time(self):
        rng = random.Random(6007)
        al = Alphabet(["a", "b", "c"])
        for _ in range(3000):
            period = tuple(rng.choice("ab") for _ in range(rng.randint(1, 6)))
            period *= rng.randint(1, 3)
            tail = period * rng.randint(0, 3)
            prefix = tuple(rng.choice("abc") for _ in range(rng.randint(0, 4)))
            prefix += tail[rng.randint(0, len(tail)):]
            s = LassoStream(al, Word(al, prefix), Word(al, period))
            assert (s.prefix.symbols, s.period.symbols) == oracle_lasso_parts(prefix, period)

    def test_primitive_root_agrees_with_trying_each_divisor(self):
        """On seeded powers, near-powers (one symbol changed, added or
        dropped) and plain tuples over tokens that are prefixes and
        suffixes of one another, so a match of the joined text that starts
        inside a token would show."""
        rng = random.Random(6011)
        tokens = ["a", "ab", "aab", "b", "ba", "aa"]
        kinds = set()
        for _ in range(4000):
            root = tuple(rng.choices(tokens[:rng.randint(2, 6)], k=rng.randint(1, 7)))
            symbols = root * rng.randint(1, 6)
            kind = rng.choice(["power", "changed", "added", "dropped", "plain"])
            if kind == "changed":
                i = rng.randrange(len(symbols))
                symbols = symbols[:i] + (rng.choice(tokens),) + symbols[i + 1:]
            elif kind == "added":
                symbols += (rng.choice(tokens),)
            elif kind == "dropped" and len(symbols) > 1:
                symbols = symbols[:-1]
            elif kind == "plain":
                symbols = tuple(rng.choices(tokens, k=rng.randint(1, 12)))
            want = oracle_primitive_root(symbols)
            kinds.add((kind, want == symbols))
            assert _primitive_root(symbols) == want, symbols
        assert len(kinds) == 10  # every kind met both with and without a shorter root

    def test_lasso_absorbing_a_long_prefix_is_linear(self):
        """A 64,000-symbol period behind ``b`` and two and a half periods
        that agree with the loop: absorbed by one rotation, in a child held
        to 20 s; one rotation per absorbed symbol takes minutes."""
        code = "\n".join([
            "from vigil.sequences import Alphabet",
            "P = 64000",
            "per = ['a'] * (P - 1) + ['b']",
            "text = ' '.join(['b', *per[P // 2:], *per, *per]) + ' ; ' + ' '.join(per)",
            "s = Alphabet(['a', 'b']).lasso(text)",
            "assert s.prefix.symbols == ('b',)",
            "assert s.period.symbols == tuple(per[P // 2:] + per[:P // 2])"])
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(vigil.__file__)))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=20)
        assert done.returncode == 0, done.stderr[-2000:]


class TestConcat:
    def test_empty_is_identity(self, ab):
        assert concat(ab.word(""), ab.word("a b")) == ab.word("a b")
        assert concat(ab.word("a b"), ab.word("")) == ab.word("a b")

    def test_word_concat(self, ab):
        assert concat(ab.word("a b"), ab.word("b")) == ab.word("a b b")

    def test_lasso_concat_extends_prefix(self, ab):
        got = concat(ab.word("a"), LassoStream(ab, ab.word("b"), ab.word("a b")))
        assert got == LassoStream(ab, ab.word("a b"), ab.word("a b"))

    def test_alphabet_mismatch(self, ab):
        other = Alphabet(["x", "y"])
        with pytest.raises(AlphabetMismatchError):
            concat(ab.word("a"), other.word("x"))
        with pytest.raises(AlphabetMismatchError):
            concat(ab.word("a"), other.lasso("x ; y"))
        with pytest.raises(AlphabetMismatchError):
            concat(ab.word(""), Alphabet(["a", "b", "c"]).word(""))

    def test_result_is_an_ordinary_word(self, ab):
        got = concat(ab.word("a b"), ab.word("b a"))
        assert type(got) is Word and got.alphabet is ab
        assert hash(got) == hash(ab.word("a b b a")) and got.symbols == ("a", "b", "b", "a")

    @given(
        u=st.lists(st.sampled_from(["a", "b"]), max_size=5),
        v=st.lists(st.sampled_from(["a", "b"]), max_size=5),
        w=st.lists(st.sampled_from(["a", "b"]), max_size=5),
    )
    @settings(max_examples=200)
    def test_associativity(self, u, v, w):
        al = binary()
        wu, wv, ww = Word(al, u), Word(al, v), Word(al, w)
        assert concat(concat(wu, wv), ww) == concat(wu, concat(wv, ww))


class TestSlicing:
    def test_slice_from_word(self, ab):
        assert slice_from(ab.word("a b a"), 1) == ab.word("b a")
        assert slice_from(ab.word("a b a"), 5) == ab.word("")

    def test_slice_from_lasso_rotates(self, ab):
        al = Alphabet(["a", "b", "c"])
        got = slice_from(LassoStream(al, al.word(""), al.word("a b c")), 4)
        want = LassoStream(al, al.word(""), al.word("b c a"))
        assert got == want
        for k in range(13):
            assert got.at(k) == LassoStream(al, al.word(""), al.word("a b c")).at(k + 4)

    def test_slice_from_lasso_within_prefix(self, ab):
        s = LassoStream(ab, ab.word("a a b"), ab.word("a b"))
        got = slice_from(s, 2)
        for k in range(12):
            assert got.at(k) == s.at(k + 2)

    def test_slice_range_word(self, ab):
        assert slice_range(ab.word("a b a"), 0, 2) == ab.word("a b")
        assert slice_range(ab.word("a b a"), 2, 2) == ab.word("")
        assert slice_range(ab.word("a b a"), 1, 9) == ab.word("b a")

    def test_slice_range_lasso_pointwise(self, ab):
        s = LassoStream(ab, ab.word(""), ab.word("a b"))
        got = slice_range(s, 1, 4)
        assert got == ab.word("b a b")
        assert got.symbols == tuple(s.at(k) for k in range(1, 4))

    def test_slice_range_lasso_matches_lasso_symbols(self):
        """A slice of a lasso holds the stream's symbols at those
        positions, on seeded random lassos and bounds, past the prefix and
        across many turns of the period too."""
        rng = random.Random(13)
        for _ in range(400):
            al = Alphabet(["a", "b", "c"][: rng.randint(2, 3)])
            s = random_lasso(rng, al, max_prefix=6, max_period=6)
            m, l = rng.randint(0, 40), rng.randint(0, 40)
            got = slice_range(s, m, l)
            assert got.alphabet == al
            assert got.symbols == lasso_symbols(s, max(m, l))[m:]

    def test_negative_position_is_rejected(self, ab):
        s = LassoStream(ab, ab.word("b b"), ab.word("a"))
        for k in (-1, -2, -5):
            with pytest.raises(ValueError, match="nonnegative"):
                s.at(k)
        assert (s.at(0), s.at(1), s.at(2)) == ("b", "b", "a")

    def test_slice_from_composes(self):
        rng = random.Random(7)
        al = binary()
        for _ in range(50):
            s = random_lasso(rng, al)
            for m in range(0, 6):
                for k in range(0, 6):
                    double = slice_from(slice_from(s, m), k)
                    single = slice_from(s, m + k)
                    assert double == single
                    for i in range(41):
                        assert double.at(i) == s.at(i + m + k)

    def test_a_lasso_suffix_equals_the_constructors(self):
        """A suffix is built from the lasso's parts, not canonicalized
        again; on seeded lassos, at every offset 0..11, its parts equal
        those the public constructor gives the same stream, read off
        ``at`` as a full-length prefix and the period after it."""
        rng = random.Random(1409)
        for _ in range(3000):
            al = Alphabet(["a", "b", "c"][: rng.randint(2, 3)])
            s = random_lasso(rng, al, 6, 6)
            pre, per = len(s.prefix), len(s.period)
            for m in range(12):
                window = lasso_symbols(s, m + pre + per)
                want = LassoStream(al, Word(al, window[m:m + pre]), Word(al, window[m + pre:]))
                got = slice_from(s, m)
                assert got == want and got.alphabet is al
                assert (got.prefix.symbols, got.period.symbols) == (
                    want.prefix.symbols, want.period.symbols)
                assert got.prefix.alphabet is got.period.alphabet is al


class TestDerivative:
    def test_empty_set(self, ab):
        assert derivative_set("a", FiniteWordSet(ab)) == FiniteWordSet(ab)

    def test_examples(self, ab):
        a_set = FiniteWordSet.from_texts(ab, ["a b", "b"])
        assert derivative_set("a", a_set) == FiniteWordSet.from_texts(ab, ["b"])
        assert derivative_set("b", a_set) == FiniteWordSet.from_texts(ab, [""])

    def test_unknown_symbol(self, ab):
        with pytest.raises(ValueError, match="not in alphabet"):
            derivative_set("c", FiniteWordSet(ab))

    def test_matches_direct_definition_exhaustively(self):
        al = binary()
        universe = list(all_words(al, 3, min_len=1))
        for mask in range(1 << len(universe)):
            subset = FiniteWordSet(al, (w for i, w in enumerate(universe) if mask >> i & 1))
            for n in al:
                got = derivative_set(n, subset)
                assert set(got.words) == oracle_derivative(n, subset)


class TestPrefixFree:
    def test_epsilon_singleton_is_prefix_free(self, ab):
        assert is_prefix_free(FiniteWordSet.from_texts(ab, [""]))

    def test_epsilon_with_others_is_not(self, ab):
        assert not is_prefix_free(FiniteWordSet.from_texts(ab, ["", "a"]))

    def test_proper_prefix_detected(self, ab):
        assert not is_prefix_free(FiniteWordSet.from_texts(ab, ["a", "a b"]))

    def test_antichain_is_prefix_free(self, ab):
        assert is_prefix_free(FiniteWordSet.from_texts(ab, ["a b", "b a", "a a"]))

    def test_agrees_with_all_pairs_oracle(self):
        al = binary()
        universe = list(all_words(al, 3))
        rng = random.Random(13)
        for _ in range(500):
            subset = FiniteWordSet(al, rng.sample(universe, rng.randint(0, 8)))
            brute = all(
                u.symbols != v.symbols[: len(u)]
                for u in subset
                for v in subset
                if len(u) < len(v)
            ) and not (len(subset) > 1 and Word(al) in subset)
            # the oracle above misses the pure-epsilon corner; align it
            if Word(al) in subset and len(subset) == 1:
                brute = True
            assert is_prefix_free(subset) == brute


class TestDecompose:
    def test_single_letter(self, ab):
        heads, parts = decompose(FiniteWordSet.from_texts(ab, ["a"]))
        assert heads == frozenset({"a"})
        assert parts == {"b": FiniteWordSet(ab)}

    def test_two_branches(self, ab):
        heads, parts = decompose(FiniteWordSet.from_texts(ab, ["a b", "b a"]))
        assert heads == frozenset()
        assert parts["a"] == FiniteWordSet.from_texts(ab, ["b"])
        assert parts["b"] == FiniteWordSet.from_texts(ab, ["a"])

    def test_mixed(self, ab):
        heads, parts = decompose(FiniteWordSet.from_texts(ab, ["a", "b b"]))
        assert heads == frozenset({"a"})
        assert set(parts) == {"b"}
        assert parts["b"] == FiniteWordSet.from_texts(ab, ["b"])

    def test_rejects_non_prefix_free(self, ab):
        with pytest.raises(PrefixFreeViolation):
            decompose(FiniteWordSet.from_texts(ab, ["a", "a b"]))

    def test_rejects_epsilon(self, ab):
        with pytest.raises(EpsilonViolation):
            decompose(FiniteWordSet.from_texts(ab, [""]))

    def test_reassembly_exhaustive_depth3(self):
        al = binary()
        count = 0
        for tuples in prefix_free_tuples(al, 3):
            p = word_set(al, tuples)
            heads, parts = decompose(p)
            rebuilt = {Word(al, (n,)) for n in heads}
            for n, part in parts.items():
                chunk = {concat(Word(al, (n,)), u) for u in part}
                assert not rebuilt & chunk  # disjointness
                rebuilt |= chunk
            assert rebuilt == set(p.words)
            count += 1
        assert count == 676  # all antichains over two symbols up to length 3

    def test_reassembly_sampled_depth4(self):
        al = binary()
        rng = random.Random(17)
        universe = list(all_words(al, 4, min_len=1))
        seen = 0
        while seen < 3000:
            sample = rng.sample(universe, rng.randint(0, 10))
            kept = []
            for cand in sample:
                if not any(
                    cand.symbols[: len(k)] == k.symbols or k.symbols[: len(cand)] == cand.symbols
                    for k in kept
                ):
                    kept.append(cand)
            p = FiniteWordSet(al, kept)
            heads, parts = decompose(p)
            rebuilt = {Word(al, (n,)) for n in heads}
            for n, part in parts.items():
                rebuilt |= {concat(Word(al, (n,)), u) for u in part}
            assert rebuilt == set(p.words)
            seen += 1


def test_derivative_preserves_prefix_freeness_exhaustive():
    """For every prefix-free set of nonempty words up to length 3 and every
    symbol that is not itself a member, the derivative is prefix-free and
    does not contain the empty word."""
    al = binary()
    for tuples in prefix_free_tuples(al, 3):
        p = word_set(al, tuples)
        for n in al:
            if Word(al, (n,)) in p:
                continue
            d = derivative_set(n, p)
            assert is_prefix_free(d)
            assert Word(al) not in d


class TestWordSetsAgainstTupleSets:
    """Explicit word sets against the frozenset-of-tuples oracle, on seeded
    random prefix-free sets and random subsets of ``all_words``, over
    alphabets whose declaration order is not their string order."""

    @staticmethod
    def cases(seed: int, count: int = 150):
        rng = random.Random(seed)
        for k in range(count):
            al = Alphabet(rng.sample(["c", "a", "b"], rng.randint(2, 3)))
            if k % 2:
                words = list(random_prefix_free(rng, al, 4))
            else:
                pool = list(all_words(al, 3))
                words = rng.sample(pool, rng.randint(0, 12))
            yield rng, al, words, tuple_set(words)

    def test_equality_hash_order_and_length(self):
        for rng, al, words, oracle in self.cases(2101):
            built = FiniteWordSet(al, words)
            shuffled = [Word(al, w.symbols) for w in words + rng.choices(words, k=len(words))]
            rng.shuffle(shuffled)
            again = FiniteWordSet(Alphabet(al.symbols), shuffled)  # an equal, distinct alphabet
            assert built == again and hash(built) == hash(again)
            assert len(built) == len(again) == len(oracle)
            ordered = sorted(oracle, key=lambda t: tuple_sort_key(al, t))
            assert [w.symbols for w in built.words] == ordered
            assert list(built) == [Word(al, t) for t in ordered]
            assert all(type(w) is Word and w.alphabet is al for w in built.words)
            for t in oracle:
                smaller = word_set(al, oracle - {t})
                assert smaller != built and len(smaller) == len(oracle) - 1
            wider = Alphabet(al.symbols + ("z",))
            assert word_set(wider, oracle) != built

    def test_membership(self):
        for _, al, words, oracle in self.cases(2102, 60):
            built = FiniteWordSet(al, words)
            other = Alphabet(al.symbols + ("z",))
            for w in all_words(al, 4):
                assert (w in built) == (w.symbols in oracle)
                assert w.symbols not in built and w.text() not in built
                assert Word(other, w.symbols) not in built
            assert None not in built and [] not in built

    def test_derivative_prefix_freeness_and_decompose(self):
        for _, al, words, oracle in self.cases(2103):
            built = FiniteWordSet(al, words)
            for n in al:
                derived = derivative_set(n, built)
                assert tuple_set(derived) == tuple_derivative(n, oracle)
                assert derived == word_set(al, tuple_derivative(n, oracle))
                assert list(derived) == sorted(derived, key=Word.sort_key)
            pair = tuple_prefix_pair(al, oracle)
            assert is_prefix_free(built) == (pair is None)
            if () in oracle:
                for check in (require_prefix_free, decompose):
                    with pytest.raises(EpsilonViolation):
                        check(built)
            elif pair is not None:
                for check in (require_prefix_free, decompose):
                    with pytest.raises(PrefixFreeViolation) as raised:
                        check(built)
                    assert (raised.value.shorter.symbols, raised.value.longer.symbols) == pair
            else:
                heads, parts = decompose(built)
                assert heads == {n for n in al if (n,) in oracle}
                assert {n: tuple_set(part) for n, part in parts.items()} == {
                    n: tuple_derivative(n, oracle) for n in al if n not in heads}

    def test_final_step(self):
        for _, al, words, oracle in self.cases(2104):
            built = FiniteWordSet(al, words)
            for n in al:
                try:
                    want = tuple_final_step(n, oracle)
                except EpsilonViolation:
                    with pytest.raises(EpsilonViolation):
                        final_step(built, n)
                    continue
                got = final_step(built, n)
                assert got is FAULT if want is FAULT else tuple_set(got) == want
            if () not in oracle:
                with pytest.raises(ValueError, match="not in alphabet"):
                    final_step(built, "z")

    def test_alphabet_mismatch(self):
        for _, al, words, oracle in self.cases(2105, 40):
            other = Alphabet(al.symbols[::-1])
            with pytest.raises(AlphabetMismatchError):
                FiniteWordSet(al, [*words, Word(other, ())])
            with pytest.raises(AlphabetMismatchError):
                FiniteWordSet(other, words or [Word(al, ())])


REJECTIONS = [
    pytest.param(lambda ab: concat(ab.word("a"), ("b",)),
                 TypeError, "^cannot concatenate onto tuple$", id="concat onto a tuple"),
    pytest.param(lambda ab: slice_from(ab.word("a b"), -1),
                 ValueError, "^slice offset must be nonnegative$", id="negative offset"),
    pytest.param(lambda ab: slice_from(("a", "b"), 1),
                 TypeError, "^cannot slice tuple$", id="offset slice of a tuple"),
    pytest.param(lambda ab: slice_range(ab.word("a b"), -1, 1),
                 ValueError, "^slice bounds must be nonnegative$", id="negative start"),
    pytest.param(lambda ab: slice_range(ab.word("a b"), 0, -1),
                 ValueError, "^slice bounds must be nonnegative$", id="negative end"),
    pytest.param(lambda ab: slice_range(("a", "b"), 0, 1),
                 TypeError, "^cannot slice tuple$", id="range slice of a tuple"),
]


@pytest.mark.parametrize("call, error, message", REJECTIONS)
def test_rejects(ab, call, error, message):
    with pytest.raises(error, match=message):
        call(ab)

