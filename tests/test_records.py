"""The frozen records (verdicts, feed outcomes, relations, termination
times, specs and pattern nodes) behave as the frozen dataclasses of the
same fields would: ``repr``, equality, hashing, ``match``, immutability,
pickling and copying, and the checks their constructors make."""

import copy
import pickle
from dataclasses import make_dataclass

import pytest

from vigil.bisim import StatePairRelation
from vigil.monitor import CertifiedSafe, FeedUnknown, FeedViolation, Unknown, Violation
from vigil.sequences import Alphabet
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
    Star,
)
from vigil.systems import TerminationTime

AB = Alphabet(["a", "b"])
NODES = (Lit, Seq, Alt, Star, Plus, Opt)


def samples() -> list:
    """Fresh records of all 14 classes, several of each: a second call
    gives equal records that are not the same objects."""
    a, b = Lit("a"), Lit("b")
    return [
        Violation(2, AB.word("a b"), 1), Violation(1, AB.word("b"), 0), Violation(2, AB.word("b b"), 1),
        CertifiedSafe(),
        Unknown(3), Unknown(4),
        FeedViolation(3), FeedViolation(5),
        FeedUnknown(3), FeedUnknown(0),
        StatePairRelation(frozenset({(0, 1), (1, 1)})), StatePairRelation(frozenset()),
        TerminationTime(0), TerminationTime(7), TerminationTime(None),
        ConstraintSpec("s", AB, a), ConstraintSpec("s", AB, Star(b)), ConstraintSpec("t", AB, a),
        a, b,
        Seq((a, b)), Seq((a, b, a)),
        Alt((a, b)), Alt([a, Star(b)]),
        Star(a), Star(Seq((a, b))),
        Plus(a), Plus(b),
        Opt(a), Opt(Alt((b, a))),
    ]


def values(record) -> list:
    return [getattr(record, name) for name in record.__match_args__]


MIRRORS = {
    kind: make_dataclass(kind.__name__, kind.__match_args__, frozen=True,
                         namespace={"__repr__": kind.__repr__} if kind is TerminationTime else {})
    for kind in {type(r) for r in samples()}
}
"""Each record class's frozen dataclass of the same name and fields, with
the record's own ``repr`` where the record class defines one."""


def mirror(record):
    """The record's values in its class's mirror dataclass."""
    return MIRRORS[type(record)](*values(record))


def test_every_class_is_sampled():
    kinds = {type(r) for r in samples()}
    assert len(kinds) == 14 and set(NODES) <= kinds


@pytest.mark.parametrize("record", samples(), ids=repr)
def test_repr_and_fields_are_the_dataclass_ones(record):
    twin = mirror(record)
    assert repr(record) == repr(twin)
    assert record.__match_args__ == type(twin).__match_args__
    if not isinstance(record, NODES):  # nodes hash by their structural terms
        assert hash(record) == hash(twin)


def test_equality_and_hash_agree_with_the_dataclass_ones():
    for x, y in zip(samples(), samples()):
        assert x is not y and x == y and hash(x) == hash(y)
    records = samples()
    for x in records:
        for y in records:
            assert (x == y) == (mirror(x) == mirror(y)) == (type(x) is type(y) and values(x) == values(y))


def test_another_class_or_a_tuple_is_not_equal():
    assert FeedViolation(3) != FeedUnknown(3) and FeedUnknown(3) != FeedViolation(3)
    assert Unknown(3) != (3,) and (3,) != Unknown(3) and CertifiedSafe() != ()
    assert TerminationTime(None) != (None,) and Lit("a") != ("a",) and Lit("a") != "a"


def test_match_reads_the_fields_in_order():
    match Violation(2, AB.word("a b"), 1):
        case Violation(n, word, k):
            assert (n, word.text(), k) == (2, "a b", 1)
    match Alt((Lit("a"), Star(Lit("b")))):
        case Alt((Lit("a"), Star(Lit(symbol)))):
            assert symbol == "b"
    match CertifiedSafe():
        case CertifiedSafe():
            pass
        case _:
            pytest.fail("CertifiedSafe() did not match")


@pytest.mark.parametrize("record", samples(), ids=repr)
def test_fields_cannot_be_assigned_or_deleted(record):
    for name in (*record.__match_args__, "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == repr(mirror(record))


@pytest.mark.parametrize("record", samples(), ids=repr)
def test_pickle_and_copy_round_trip(record):
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(twin) is type(record) and twin == record and hash(twin) == hash(record)
        if not isinstance(record, NODES):  # a node copies its list of items as a tuple
            assert repr(twin) == repr(record)
        with pytest.raises(AttributeError):
            twin.other = 1


@pytest.mark.parametrize("record", samples(), ids=repr)
def test_positional_and_keyword_construction_agree(record):
    kind, fields = type(record), values(record)
    by_keyword = kind(**dict(zip(record.__match_args__, fields)))
    assert kind(*fields) == by_keyword == record
    assert repr(by_keyword) == repr(record)


def message(call) -> str:
    with pytest.raises(ValueError) as caught:
        call()
    return str(caught.value)


def test_constructors_check_as_before():
    deep, wide = Lit("a"), Lit("a")
    for _ in range(_MAX_DEPTH):
        deep = Star(deep)
    for _ in range(MAX_PATTERN_SIZE.bit_length()):  # 2**25 root-to-leaf paths
        wide = Alt((wide, wide))
    assert message(lambda: Violation(0, AB.word(""), -1)) == \
        "a violation verdict requires ana_value == prefix_len - 1 >= 0"
    assert message(lambda: Violation(2, AB.word("a b"), 2)) == \
        "a violation verdict requires ana_value == prefix_len - 1 >= 0"
    assert message(lambda: Violation(2, AB.word("a"), 1)) == "bad_prefix length must equal prefix_len"
    assert message(lambda: TerminationTime(-1)) == "termination time must be nonnegative"
    assert message(lambda: Seq((Lit("a"),))) == "a concatenation needs at least two parts"
    assert message(lambda: Alt([Lit("a")])) == "an alternation needs at least two branches"
    assert message(lambda: ConstraintSpec("deep", AB, deep)) == \
        f"pattern deeper than {_MAX_DEPTH} nodes ({MAX_NESTING} nesting levels)"
    assert message(lambda: ConstraintSpec("wide", AB, wide)) == \
        f"pattern expands to more than {MAX_PATTERN_SIZE} nodes"
