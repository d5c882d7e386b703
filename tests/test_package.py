"""The package root's names: each resolves, on first use, to the object its
module defines, and ``dir``, ``from vigil import *`` and a missing name
behave as they did when the root imported every module eagerly."""

import importlib

import pytest

import vigil

from support import cold_start

EXPORTED = {
    "sequences": ["Alphabet", "AlphabetMismatchError", "EpsilonViolation", "FiniteWordSet",
                  "LassoStream", "PrefixFreeViolation", "Word", "concat", "decompose",
                  "derivative_set", "is_prefix_free", "require_prefix_free", "slice_from",
                  "slice_range"],
    "systems": ["FAULT", "INFINITE", "SSystem", "TSystem", "TerminationTime", "check_s_morphism",
                "check_t_morphism", "s_anamorphism", "stream_system", "t_anamorphism", "t_iterate"],
    "detector": ["UNKNOWN", "BudgetExhausted", "DetectorHandle", "FiniteDetector",
                 "FiniteDetectorHandle", "RegularPrefixFreeSet", "SetHandle",
                 "anamorphism_regular", "canonical_form", "check_detector_morphism",
                 "detector_from_explicit_set", "detector_from_text", "detector_to_text",
                 "extend", "final_step", "minimal_violation_words"],
    "families": ["DecisionProcedure", "EilenbergMachine", "EnumeratedPrefixFreeSet", "Enumerator",
                 "check_universal_family", "decidable_detector", "machine_derivative",
                 "machine_from_text", "machine_to_detector", "machine_to_text", "re_detector",
                 "universal_detector_for"],
    "monitor": ["OK", "CertifiedSafe", "FeedUnknown", "FeedViolation", "MonitorClosedError",
                "MonitorVerdict", "OnlineMonitor", "Unknown", "Violation", "constr_member", "join",
                "join_map", "monitor_lasso", "monitor_online", "transfer_to_universal"],
    "bisim": ["StatePairRelation", "bisimilar", "largest_detector_bisimulation",
              "largest_s_bisimulation"],
    "speclang": ["ConstraintSpec", "SpecError", "parse", "pattern_is_prefix_free",
                 "prefix_free_kernel", "pretty", "compile_spec"],
}
"""Each module and the names the package has exported from it since the
root imported them all; ``compile_spec`` is ``speclang.compile``."""

PUBLIC = {*EXPORTED, *[name for names in EXPORTED.values() for name in names]}
"""The public names of a freshly imported package: the exported names and
the modules they come from."""


@pytest.mark.parametrize("module", sorted(EXPORTED))
def test_each_name_is_the_object_on_its_module(module):
    home = importlib.import_module(f"vigil.{module}")
    assert getattr(vigil, module) is home
    for name in EXPORTED[module]:
        assert getattr(vigil, name) is getattr(home, "compile" if name == "compile_spec" else name)


def test_star_import_gives_the_public_names():
    names = {}
    exec("from vigil import *", names)
    assert set(names) - {"__builtins__"} == PUBLIC


def test_a_missing_name_raises_the_standard_error():
    with pytest.raises(AttributeError, match=r"^module 'vigil' has no attribute 'nope'$"):
        vigil.nope
    assert getattr(vigil, "nope", None) is None


def test_a_fresh_package_lists_the_public_names_and_loads_only_what_is_looked_up():
    """``dir`` lists the same names before and after a lookup, and a lookup
    loads only the module it needs and those that module imports."""
    code = ("import vigil\n"
            "print(*sorted(n for n in dir(vigil) if not n.startswith('_')))\n"
            "vigil.Alphabet, vigil.speclang\n"
            "print(*sorted(n for n in dir(vigil) if not n.startswith('_')))")
    output, loaded = cold_start(code)
    before, after = output.splitlines()
    assert set(before.split()) == set(after.split()) == PUBLIC
    assert sorted(m for m in loaded if m.startswith("vigil.")) == [
        "vigil.sequences", "vigil.speclang", "vigil.systems"]
