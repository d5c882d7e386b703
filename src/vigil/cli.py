"""Command line entry points.

``vigil check`` compiles a spec and reports the detector size,
``vigil words`` lists minimal violation words, ``vigil monitor`` runs a
trace or a lasso against a spec, ``vigil equiv`` decides whether two specs
describe the same constraint, and ``vigil family`` checks that explicit
word-set files are closed under derivatives.

Exit codes: 0 no violation, 1 violation (or: not equivalent / not closed),
2 spec or usage error, 3 undecided within budget (or: out of memory).
Help is laid out without importing ``shutil`` (:class:`_HelpFormatter`),
and a library module that one command alone uses is imported when that
command runs, so a start compiles only the modules it runs.
"""

from __future__ import annotations

import argparse
import codecs
import contextlib
import functools
import io
import json
import os
import re
import sys

from .monitor import OK, FeedViolation, OnlineMonitor, Violation
from .monitor import monitor_online  # noqa: F401  not called here; bench/vigilbench/spans.py wraps it
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


def _open_trace(path: str):
    """The trace as UTF-8 text.  A byte sequence that is not UTF-8
    decodes to lone surrogates, so it makes a token outside the alphabet
    instead of an exception, whichever read it falls in."""
    if path != "-":
        return open(path, encoding="utf-8", errors="surrogateescape")
    if isinstance(sys.stdin, io.TextIOWrapper):
        if not sys.stdin.seekable():
            return _PipeText(sys.stdin.buffer)
        sys.stdin.reconfigure(encoding="utf-8", errors="surrogateescape")
    return sys.stdin


class _PipeText:
    """The text of a byte stream that cannot seek (a pipe, a terminal),
    decoded as a trace file is: UTF-8 with undecodable bytes escaped, and
    universal newlines.  A read returns what one read of the stream gives
    and waits for no more, so a violation on a live feed is reported as
    soon as it arrives."""

    def __init__(self, stream):
        self._read1 = stream.read1
        self._decoder = io.IncrementalNewlineDecoder(
            codecs.getincrementaldecoder("utf-8")("surrogateescape"), translate=True)

    def read(self, size: int) -> str:
        while True:  # bytes that end in a character or after a '\r' decode to nothing yet
            data = self._read1(size)
            text = self._decoder.decode(data, final=not data)
            if text or not data:
                return text

    def seekable(self) -> bool:
        return False


TRACE_BLOCK = 1 << 14
"""Characters (bytes, from a pipe) ``monitor --trace`` asks for per read,
or as many as the unfinished token carried in, so that a token longer
than a block doubles the read and costs linear time.  A read may end in
the middle of a token or a comment; the next read carries it on."""

TOKEN_SHOWN = 80
"""Characters of a foreign trace token that its error message shows.  A
token longer than this and than every symbol is known to be foreign, so
it is not read to its end."""

_COMMENT = re.compile(r"#[^\n]*")


def _trace_blocks(source, longest: int, spool=None):
    """The tokens of ``source``, one list per read; each read is copied to
    ``spool`` first when one is given.  Every read is tokenized alike:
    '#' comments to end of line are cut out, the rest split at whitespace.
    A read hands one carry to the next: its unfinished last token, or '#'
    while a comment is still open.  An unfinished token longer than
    ``longest`` ends the blocks, cut where the read ended."""
    carry = ""
    while True:
        text = source.read(max(TRACE_BLOCK, len(carry)))
        if spool is not None:
            spool.write(text)
        whole = carry + text
        tokens = _COMMENT.sub("", whole).split()
        if not text:
            yield tokens
            return
        if whole.rfind("#") > whole.rfind("\n"):
            carry = "#"
        elif whole[-1].isspace():
            carry = ""
        else:
            carry = tokens.pop()
            if len(carry) > longest:
                yield tokens + [carry]
                return
        yield tokens


def _first_tokens(blocks, count: int):
    """The blocks cut after their first ``count`` tokens."""
    for tokens in blocks:
        if len(tokens) >= count:
            yield tokens[:count]
            return
        count -= len(tokens)
        yield tokens


def _report(tag, prefix_len=None, ana_value=None, bad_prefix=None, steps_consumed=None) -> dict:
    return {
        "verdict": tag,
        "prefix_len": prefix_len,
        "ana_value": ana_value,
        "bad_prefix": bad_prefix,
        "steps_consumed": steps_consumed,
    }


def _render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report) + "\n"
    lines = []
    for key, value in report.items():
        if value is None:
            rendered = "-"
        elif isinstance(value, list):
            rendered = " ".join(value)
        else:
            rendered = str(value)
        lines.append(f"{key}: {rendered}\n")
    return "".join(lines)


_MARK = "\0"  # stands in for each symbol of a streamed bad prefix


def _emit(report: dict, fmt: str, alphabet=None, blocks=()) -> None:
    """Print ``report``.  Given an ``alphabet``, its ``bad_prefix`` is the
    symbols of ``blocks``, written one block at a time.  The text before,
    between and after them comes from rendering the same report with a
    two-item list, so the streamed and the whole form cannot drift.  A
    block is one join when every symbol renders as itself in quotes, as
    every symbol of a parsed spec does."""
    if alphabet is None:
        sys.stdout.write(_render(report, fmt))
        return
    show = json.dumps if fmt == "json" else str
    marked = _render(dict(report, bad_prefix=[_MARK, _MARK]), fmt)
    head, sep, tail = marked.split(show(_MARK))
    shown = {n: show(n) for n in alphabet}
    quote = show("")[:1]  # '"' in json, nothing in text
    plain = all(shown[n] == quote + n + quote for n in alphabet)  # else json escapes one
    link = quote + sep + quote
    write = sys.stdout.write
    write(head)
    lead = ""
    for tokens in blocks:
        if tokens:
            write(lead + (quote + link.join(tokens) + quote if plain
                          else sep.join([shown[t] for t in tokens])))
            lead = sep
    write(tail)


def cmd_check(args) -> int:
    from .detector import minimal_detector

    try:
        spec = _load_spec(args.spec)
        _, rows, unchanged = speclang.SpecGraph(spec.pattern, spec.alphabet).unfold()
    except (OSError, ValueError) as exc:
        return _fail(str(exc))
    detector, _ = minimal_detector(spec.alphabet, rows)
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
        words = speclang.SpecGraph(spec.pattern, spec.alphabet).words(args.depth)
    except (OSError, ValueError) as exc:
        return _fail(str(exc))
    sys.stdout.write("".join(" ".join(word) + "\n" for word in words))
    return EXIT_OK


def cmd_monitor(args) -> int:
    try:
        spec = _load_spec(args.spec)
        graph = speclang.SpecGraph(spec.pattern, spec.alphabet)
        live = OnlineMonitor.on_rows(spec.alphabet, *graph.rows())  # built lazily
    except (OSError, ValueError) as exc:
        return _fail(str(exc))
    if args.lasso is not None:
        try:
            stream = spec.alphabet.lasso(args.lasso)
        except ValueError as exc:
            return _fail(str(exc))
        verdict = live.feed_lasso(stream)
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
            source = _open_trace(args.trace)
        except OSError as exc:
            return _fail(str(exc))
        try:
            return _monitor_trace(spec.alphabet, live, source, args.format)
        finally:
            if args.trace != "-":
                source.close()
    _emit(report, args.format)
    return verdict_exit_code(report["verdict"])


def _monitor_trace(alphabet: Alphabet, live, source, fmt: str) -> int:
    """Feed a trace to ``live`` block by block, keeping no history.  On a
    violation the trace is read again up to it: from where ``source``
    started if it can seek, otherwise from a temporary file that every
    read was copied to."""
    spool = None
    if not source.seekable():
        import tempfile  # here, not at start-up: only a pipe needs it

        spool = tempfile.TemporaryFile("w+", encoding="utf-8", errors="surrogatepass", newline="")
    again, start = (source, source.tell()) if spool is None else (spool, 0)
    longest = max(TOKEN_SHOWN, *map(len, alphabet))
    with spool or contextlib.nullcontext():
        outcome = OK
        for tokens in _trace_blocks(source, longest, spool):
            before = live.position
            try:
                outcome = live.feed_many(tokens)
            except ValueError:
                token = tokens[live.position - before]
                shown = repr(token) if len(token) <= longest else f"{token[:TOKEN_SHOWN]!r}..."
                return _fail(f"trace token {shown} is not in the alphabet {list(alphabet.symbols)}")
            if outcome is not OK:
                break
        if not isinstance(outcome, FeedViolation):  # a finite detector never answers unknown
            _emit(_report("ok_so_far", steps_consumed=live.position), fmt)
            return EXIT_OK
        again.seek(start)
        report = _report("violation", prefix_len=outcome.position,
                         ana_value=outcome.position - 1, bad_prefix=[])
        blocks = _first_tokens(_trace_blocks(again, longest), outcome.position)
        _emit(report, fmt, alphabet, blocks)
        return EXIT_VIOLATION


def cmd_equiv(args) -> int:
    try:
        spec_a = _load_spec(args.spec_a)
        spec_b = _load_spec(args.spec_b)
        if spec_a.alphabet != spec_b.alphabet:
            raise ValueError("the two specs declare different alphabets")
        left = speclang.SpecGraph(spec_a.pattern, spec_a.alphabet).unfolding()
        right = speclang.SpecGraph(spec_b.pattern, spec_b.alphabet).unfolding()
    except (OSError, ValueError) as exc:
        return _fail(str(exc))
    from .bisim import unfolds_bisimilar

    # the subset graphs are built only as far as the pair walk reaches
    if unfolds_bisimilar(left, right):
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
    from .families import check_universal_family

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


class _HelpFormatter(argparse.HelpFormatter):
    """argparse's help layout at ``shutil.get_terminal_size``'s width: ``COLUMNS``
    if a positive number, else the terminal's on standard output, else 80."""

    def __init__(self, prog):
        try:
            width = int(os.environ.get("COLUMNS", 0))
        except ValueError:
            width = 0
        if width <= 0:
            try:
                width = os.get_terminal_size(sys.__stdout__.fileno()).columns
            except (AttributeError, ValueError, OSError):
                width = 0
        super().__init__(prog, width=(width or 80) - 2)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first :func:`main`;
    each call parses into a fresh namespace."""
    new_parser = functools.partial(argparse.ArgumentParser, formatter_class=_HelpFormatter)
    parser = new_parser(
        prog="vigil",
        description="Compile violation specs and monitor event traces against them.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=new_parser)

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
    try:
        return args.func(args)
    except MemoryError:
        pass  # its traceback holds the walk's graphs, which go only when this block ends
    print("error: out of memory before an answer was reached", file=sys.stderr)
    return EXIT_UNKNOWN


if __name__ == "__main__":
    sys.exit(main())
