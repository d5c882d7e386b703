"""Runtime verification of safety constraints via violation-prefix detectors.

Constraints are given as prefix-free languages of minimal bad prefixes;
detectors watch a token stream and fault exactly when such a prefix has
been read.  The package provides the word/stream vocabulary, detector
construction from explicit sets, automata, predicates, enumerations and a
small spec language, exact lasso monitoring, online monitoring, and
bisimulation checking.

``import vigil`` loads none of its modules: each name below, and each
module itself (``vigil.speclang``), is imported on first use.
"""

import sys as _sys

_EXPORTS = {  # module: the names the package takes from it
    "sequences": "Alphabet AlphabetMismatchError EpsilonViolation FiniteWordSet LassoStream "
                 "PrefixFreeViolation Word concat decompose derivative_set is_prefix_free "
                 "require_prefix_free slice_from slice_range",
    "systems": "FAULT INFINITE SSystem TSystem TerminationTime check_s_morphism "
               "check_t_morphism s_anamorphism stream_system t_anamorphism t_iterate",
    "detector": "UNKNOWN BudgetExhausted DetectorHandle FiniteDetector FiniteDetectorHandle "
                "RegularPrefixFreeSet SetHandle anamorphism_regular canonical_form "
                "check_detector_morphism detector_from_explicit_set detector_from_text "
                "detector_to_text extend final_step minimal_violation_words",
    "families": "DecisionProcedure EilenbergMachine EnumeratedPrefixFreeSet Enumerator "
                "check_universal_family decidable_detector machine_derivative "
                "machine_from_text machine_to_detector machine_to_text re_detector "
                "universal_detector_for",
    "monitor": "OK CertifiedSafe FeedUnknown FeedViolation MonitorClosedError MonitorVerdict "
               "OnlineMonitor Unknown Violation constr_member join join_map monitor_lasso "
               "monitor_online transfer_to_universal",
    "bisim": "StatePairRelation bisimilar largest_detector_bisimulation largest_s_bisimulation",
    "speclang": "ConstraintSpec SpecError parse pattern_is_prefix_free prefix_free_kernel "
                "pretty compile_spec",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_RENAMED = {"compile_spec": "compile"}

__all__ = [*_EXPORTS, *_HOME]
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the module that ``name`` comes from, or that it names, and
    bind the name here, so each is looked up once."""
    module = _HOME.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{module}")
    value = _sys.modules[f"{__name__}.{module}"]
    if name in _HOME:
        value = getattr(value, _RENAMED.get(name, name))
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})
