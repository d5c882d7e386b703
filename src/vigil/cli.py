"""Command line entry points.

``vigil check`` compiles a spec and reports the detector size,
``vigil words`` lists minimal violation words, ``vigil monitor`` runs a
trace or a lasso against a spec, ``vigil equiv`` decides whether two specs
describe the same constraint, and ``vigil family`` checks that explicit
word-set files are closed under derivatives.

Exit codes: 0 no violation, 1 violation (or: not equivalent / not closed),
2 spec or usage error, 3 undecided within budget.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .bisim import bisimilar
from .detector import minimal_violation_words
from .families import check_universal_family
from .monitor import FeedUnknown, FeedViolation, Violation, monitor_lasso, monitor_online
from .sequences import Alphabet, FiniteWordSet
from . import speclang

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_SPEC_ERROR = 2
EXIT_UNKNOWN = 3

_VERDICT_EXITS = {
    "safe_certified": EXIT_OK,
    "ok_so_far": EXIT_OK,
    "violation": EXIT_VIOLATION,
    "unknown": EXIT_UNKNOWN,
}


def verdict_exit_code(tag: str) -> int:
    """Exit code for a verdict tag; total over the four tags."""
    return _VERDICT_EXITS[tag]


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_SPEC_ERROR


def _load_spec(path: str) -> speclang.ConstraintSpec:
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    name = os.path.splitext(os.path.basename(path))[0]
    return speclang.parse(text, name=name)


def _token_stream(handle):
    """Trace tokens, lazily: whitespace separated, '#' comments to end of
    line.  Long traces are consumed line by line, so a violation stops the
    read early."""
    for line in handle:
        yield from line.split("#", 1)[0].split()


def _report(tag, prefix_len=None, ana_value=None, bad_prefix=None, steps_consumed=None) -> dict:
    return {
        "verdict": tag,
        "prefix_len": prefix_len,
        "ana_value": ana_value,
        "bad_prefix": bad_prefix,
        "steps_consumed": steps_consumed,
    }


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report))
    else:
        for key, value in report.items():
            if value is None:
                rendered = "-"
            elif isinstance(value, list):
                rendered = " ".join(value)
            else:
                rendered = str(value)
            print(f"{key}: {rendered}")


def cmd_check(args) -> int:
    try:
        spec = _load_spec(args.spec)
        detector, _ = speclang.compile(spec)
        unchanged = speclang.pattern_is_prefix_free(spec)
    except (OSError, ValueError) as exc:
        return _fail(str(exc))
    print(f"spec: {spec.name}")
    print("alphabet: " + " ".join(spec.alphabet.symbols))
    print(f"detector states: {len(detector.states)}")
    print(f"kernel changed language: {'no' if unchanged else 'yes'}")
    return EXIT_OK


def cmd_words(args) -> int:
    if args.depth < 1:
        return _fail("--depth must be at least 1")
    try:
        spec = _load_spec(args.spec)
        detector, init = speclang.compile(spec)
    except (OSError, ValueError) as exc:
        return _fail(str(exc))
    for word in minimal_violation_words(detector, init, args.depth):
        print(word.text())
    return EXIT_OK


def cmd_monitor(args) -> int:
    try:
        spec = _load_spec(args.spec)
        detector, init = speclang.compile(spec)
    except (OSError, ValueError) as exc:
        return _fail(str(exc))
    if args.lasso is not None:
        try:
            stream = spec.alphabet.lasso(args.lasso)
        except ValueError as exc:
            return _fail(str(exc))
        verdict = monitor_lasso(detector, init, stream)
        if isinstance(verdict, Violation):
            report = _report(
                "violation",
                prefix_len=verdict.prefix_len,
                ana_value=verdict.ana_value,
                bad_prefix=list(verdict.bad_prefix.symbols),
            )
        else:
            report = _report("safe_certified")
    else:
        try:
            source = sys.stdin if args.trace == "-" else open(args.trace, encoding="utf-8")
        except OSError as exc:
            return _fail(str(exc))
        live = monitor_online(detector, init)
        consumed: list[str] = []
        report = None
        try:
            for token in _token_stream(source):
                if token not in spec.alphabet:
                    return _fail(
                        f"trace token {token!r} is not in the alphabet "
                        f"{list(spec.alphabet.symbols)}"
                    )
                consumed.append(token)
                outcome = live.feed(token)
                if isinstance(outcome, FeedViolation):
                    report = _report(
                        "violation",
                        prefix_len=outcome.position,
                        ana_value=outcome.position - 1,
                        bad_prefix=consumed[: outcome.position],
                    )
                    break
                if isinstance(outcome, FeedUnknown):
                    report = _report("unknown", steps_consumed=outcome.position)
                    break
        finally:
            if source is not sys.stdin:
                source.close()
        if report is None:
            report = _report("ok_so_far", steps_consumed=len(consumed))
    _emit(report, args.format)
    return verdict_exit_code(report["verdict"])


def cmd_equiv(args) -> int:
    try:
        spec_a = _load_spec(args.spec_a)
        spec_b = _load_spec(args.spec_b)
        if spec_a.alphabet != spec_b.alphabet:
            raise ValueError("the two specs declare different alphabets")
        det_a, init_a = speclang.compile(spec_a)
        det_b, init_b = speclang.compile(spec_b)
    except (OSError, ValueError) as exc:
        return _fail(str(exc))
    if bisimilar(det_a, init_a, det_b, init_b):
        print("equivalent")
        return EXIT_OK
    print("not equivalent")
    return EXIT_VIOLATION


def _read_word_set(path: str) -> FiniteWordSet:
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    lines = []
    for raw in text.splitlines():
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append(stripped)
    if not lines or not lines[0].startswith("alphabet:"):
        raise ValueError(f"{path}: the first line must declare 'alphabet: ...'")
    alphabet = Alphabet(lines[0].split(":", 1)[1].split())
    return FiniteWordSet(alphabet, (alphabet.word(line) for line in lines[1:]))


def cmd_family(args) -> int:
    try:
        sets = [_read_word_set(path) for path in args.sets]
        alphabets = {s.alphabet for s in sets}
        if len(alphabets) > 1:
            raise ValueError("all set files must declare the same alphabet")
        closed, witness = check_universal_family(sets)
    except (OSError, ValueError) as exc:
        return _fail(str(exc))
    if closed:
        print(f"closed: {len(set(sets))} member sets")
        return EXIT_OK
    p, n = witness
    shown = "{" + ", ".join(w.text() for w in p.words) + "}"
    print(f"not closed: the derivative of {shown} by {n!r} is not in the family")
    return EXIT_VIOLATION


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vigil",
        description="Compile violation specs and monitor event traces against them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="parse and compile a spec")
    check.add_argument("spec", help="spec file")
    check.set_defaults(func=cmd_check)

    words = sub.add_parser("words", help="list minimal violation words")
    words.add_argument("spec", help="spec file")
    words.add_argument("--depth", type=int, required=True, help="maximum word length")
    words.set_defaults(func=cmd_words)

    mon = sub.add_parser("monitor", help="monitor a trace or a lasso")
    mon.add_argument("spec", help="spec file")
    source = mon.add_mutually_exclusive_group(required=True)
    source.add_argument("--trace", help="token file ('-' for stdin)")
    source.add_argument("--lasso", help="lasso literal 'prefix tokens ; period tokens'")
    mon.add_argument("--format", choices=("json", "text"), default="json")
    mon.set_defaults(func=cmd_monitor)

    equiv = sub.add_parser("equiv", help="decide whether two specs are equivalent")
    equiv.add_argument("spec_a")
    equiv.add_argument("spec_b")
    equiv.set_defaults(func=cmd_equiv)

    family = sub.add_parser("family", help="check derivative closure of word-set files")
    family.add_argument("sets", nargs="+", help="word-set files")
    family.set_defaults(func=cmd_family)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
