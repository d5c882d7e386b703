"""``vigil monitor --trace`` streams: it reads the trace in blocks that
may end anywhere, in a token or a comment, and carries only the unfinished
token (or the open comment) on to the next read.  It keeps no history, and
on a violation reads the trace again (a seekable source from where it
started, a pipe from a temporary copy) to write ``bad_prefix`` block by
block."""

import io
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc

import pytest

import vigil
from vigil import cli
from vigil.cli import main
from vigil.sequences import Alphabet
from vigil.speclang import ConstraintSpec, Lit, Seq, Star
from vigil.speclang import compile as compile_spec
from vigil.speclang import parse

from support import oracle_first_fault, with_peak_rss

def spec_for(symbols) -> str:
    x, y = symbols
    return f"alphabet {x} {y}; violation ({x}|{y})* {y} {x} {y};"


ALPHABET = ("a", "b")
SPEC = spec_for(ALPHABET)
NAMES = [("a", "b", "c"), ("alpha", "beta", "alphabeta")]
"""Two symbols and a token outside the alphabet: single letters, and
names that a block can cut in the middle."""


@pytest.fixture
def spec_path(tmp_path):
    path = tmp_path / "s.vgl"
    path.write_text(SPEC, encoding="utf-8")
    return str(path)


def child(*args: str) -> list[str]:
    """argv of a fresh ``vigil`` in development mode, so that a file left
    open shows as a ResourceWarning on its stderr."""
    script = "; ".join(["import sys", "from vigil import cli", *args, "sys.exit(cli.main())"])
    return [sys.executable, "-X", "dev", "-c", script]


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(vigil.__file__)))


def expected(data: bytes, fmt: str = "json", symbols=ALPHABET):
    """(exit code, stdout, stderr) of monitoring ``data`` against the spec
    of ``symbols``, from an independent reading of the trace format: UTF-8
    with undecodable bytes escaped, universal newlines, '#' comments to end
    of line.  A foreign token longer than 80 characters and than every
    symbol is named by its first 80 characters and '...'."""
    text = data.decode("utf-8", "surrogateescape").replace("\r\n", "\n").replace("\r", "\n")
    tokens = [t for line in text.split("\n") for t in line.split("#", 1)[0].split()]
    det, init = compile_spec(parse(spec_for(symbols)))
    foreign = next((i for i, t in enumerate(tokens) if t not in symbols), len(tokens))
    fault = oracle_first_fault(det, init, tokens[:foreign])
    if fault is None and foreign < len(tokens):
        token = tokens[foreign]
        shown = repr(token) if len(token) <= max(80, *map(len, symbols)) else f"{token[:80]!r}..."
        return 2, "", f"error: trace token {shown} is not in the alphabet {list(symbols)}\n"
    if fault is None:
        report = {"verdict": "ok_so_far", "prefix_len": None, "ana_value": None,
                  "bad_prefix": None, "steps_consumed": len(tokens)}
    else:
        report = {"verdict": "violation", "prefix_len": fault, "ana_value": fault - 1,
                  "bad_prefix": tokens[:fault], "steps_consumed": None}
    if fmt == "json":
        return int(fault is not None), json.dumps(report) + "\n", ""
    shown = ("-" if v is None else " ".join(v) if isinstance(v, list) else str(v)
             for v in report.values())
    return int(fault is not None), "".join(f"{k}: {v}\n" for k, v in zip(report, shown)), ""


def random_trace(rng: random.Random, names=NAMES[0]) -> bytes:
    """Short lines of two symbols and the odd foreign token (``names``),
    with comments, blank lines, CRLF and lone CR ends, and undecodable or
    split UTF-8 bytes."""
    x, y, z = (name.encode() for name in names)
    pieces = [x, y, x, y, x, z, b"\xff", b"\xc3\xa9", b"\xe6\x97"]
    ends = [b"\n", b"\r\n", b"\r", b" # " + b" ".join([y, x, y]) + b"\n", b"\n\n", b"  \t\n",
            b"#\xff\r\n"]
    out = []
    for _ in range(rng.randint(0, 8)):
        words = [rng.choice(pieces[:5] if rng.random() < 0.9 else pieces)
                 for _ in range(rng.randint(0, 6))]
        out.append(b" ".join(words) + rng.choice(ends))
    return b"".join(out)[:rng.randint(0, 200)]


class Unseekable(io.StringIO):
    """A text stream that cannot seek, like a pipe."""

    def seekable(self):
        return False


class TestBlockEdges:
    """Every block size cuts lines, tokens, CRLF pairs, comments and UTF-8
    sequences in different places; none of them may change the answer."""

    @pytest.mark.parametrize("block", [1, 3, 7, cli.TRACE_BLOCK])
    def test_against_oracle(self, block, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "TRACE_BLOCK", block)
        rng = random.Random(4100 + block)
        spec_path, trace = tmp_path / "s.vgl", tmp_path / "t.txt"
        for names in NAMES:
            spec_path.write_text(spec_for(names[:2]), encoding="utf-8")
            codes = []
            for _ in range(150):
                data = random_trace(rng, names)
                trace.write_bytes(data)
                fmt = rng.choice(["json", "text"])
                want = expected(data, fmt, names[:2])
                text = data.decode("utf-8", "surrogateescape")
                text = text.replace("\r\n", "\n").replace("\r", "\n")
                for source, stdin in ((str(trace), None), ("-", io.StringIO(text)),
                                      ("-", Unseekable(text))):
                    if stdin is not None:
                        monkeypatch.setattr("sys.stdin", stdin)
                    code = main(["monitor", str(spec_path), "--trace", source, "--format", fmt])
                    captured = capsys.readouterr()
                    assert (code, captured.out, captured.err) == want, (data, source)
                codes.append(want[0])
            assert min(codes.count(0), codes.count(1), codes.count(2)) >= 20, names

    @pytest.mark.parametrize("block", [1, 3, 7])
    def test_foreign_token_and_bad_bytes_beside_a_violation(
            self, block, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "TRACE_BLOCK", block)
        spec_path, trace = tmp_path / "s.vgl", tmp_path / "t.txt"
        cases = [b"A B A B C\n", b"A B A C B\n", b"B A\r\nB \xff\n", b"B A \xc3\xa9 B\n",
                 b"B A B\xc3", b"# C\r\nB A\r\n# \xff\r\nB\r\n", b"\n\n\nB\n\nA\n\nB",
                 b"B A#C\nB", b"B#\nA B"]
        for names in NAMES:
            spec_path.write_text(spec_for(names[:2]), encoding="utf-8")
            for pad in range(8):
                for case in cases:
                    data = b" " * pad + case
                    for letter, name in zip(b"ABC", names):
                        data = data.replace(bytes([letter]), name.encode())
                    trace.write_bytes(data)
                    code = main(["monitor", str(spec_path), "--trace", str(trace)])
                    captured = capsys.readouterr()
                    want = expected(data, symbols=names[:2])
                    assert (code, captured.out, captured.err) == want, data


def test_single_line_of_two_million_tokens(spec_path, tmp_path):
    """A line longer than any block, and no newline at all: each of the
    62,500 reads of 64 characters hands at most one token on to the next,
    so the line is never gathered whole."""
    trace = tmp_path / "t.txt"
    for tail, code in ((b"a b a b", 1), (b"a a", 0)):
        data = b"a " * 2_000_000 + tail
        trace.write_bytes(data)
        argv = child("cli.TRACE_BLOCK = 64") + ["monitor", spec_path, "--trace", str(trace)]
        done = subprocess.run(argv, capture_output=True, env=child_env(), timeout=30)
        assert (done.returncode, done.stderr) == (code, b"")
        want = expected(data)[1].encode()
        assert len(done.stdout) == len(want) and done.stdout == want


def test_token_longer_than_many_blocks(spec_path, tmp_path):
    """A 3M-character token read 64 characters at a time: once the
    unfinished token is longer than every symbol and than 80 characters it
    is known to be foreign and read no further, where carrying it whole
    through 46,875 reads takes over 30 s."""
    trace = tmp_path / "t.txt"
    data = b"a b\n" + b"x" * 3_000_000 + b" b a b\n"
    trace.write_bytes(data)
    argv = child("cli.TRACE_BLOCK = 64") + ["monitor", spec_path, "--trace", str(trace)]
    done = subprocess.run(argv, capture_output=True, env=child_env(), timeout=30)
    want = expected(data)
    assert (done.returncode, done.stdout, done.stderr) == (want[0], b"", want[2].encode())


@pytest.mark.parametrize("block", [64, cli.TRACE_BLOCK])
def test_symbol_longer_than_many_blocks(block, tmp_path, capsys, monkeypatch):
    """A 3,000-character symbol is carried through the reads that cut it
    and read whole; a foreign token no longer than the longest symbol (or
    than 80 characters) is named whole, a longer one by its first 80
    characters, unless a violation comes first."""
    monkeypatch.setattr(cli, "TRACE_BLOCK", block)
    long = "a" * 3000
    spec_path, trace = tmp_path / "s.vgl", tmp_path / "t.txt"
    codes = []
    for symbols, cases in (((long, "b"), [f"{long} b {long} b\n", f"{long} {long[:-1]} b",
                                          f"{long} {long}a b", f"b {long} b {long}a"]),
                           (ALPHABET, [f"b\n{'x' * 81}", f"b\n{'x' * 80}"])):
        spec_path.write_text(spec_for(symbols), encoding="utf-8")
        for case in cases:
            data = case.encode()
            trace.write_bytes(data)
            code = main(["monitor", str(spec_path), "--trace", str(trace)])
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == expected(data, symbols=symbols), case
            codes.append((code, "'... is not" in captured.err))
    assert codes == [(1, False), (2, False), (2, True), (1, False), (2, True), (2, False)]


def test_foreign_token_longer_than_every_symbol_is_not_read_whole(tmp_path):
    """A 20M-character foreign token after ten symbols: the error names its
    first 80 characters on one short line, and ``vigil`` stops reading it,
    where naming it whole writes a 20 MB line and peaks at over 100 MB RSS.  A
    violation before the token is still reported."""
    spec = tmp_path / "s.vgl"
    spec.write_text("alphabet alpha beta; violation alpha* beta;", encoding="utf-8")
    trace = tmp_path / "t.txt"
    argv = with_peak_rss(child() + ["monitor", str(spec), "--trace", str(trace)])
    for head, code in (("alpha " * 10, 2), ("alpha " * 10 + "beta ", 1)):
        trace.write_text(head + "x" * 20_000_000, encoding="utf-8")
        done = subprocess.run(argv, capture_output=True, env=child_env(), timeout=60)
        assert done.returncode == code
        *errors, peak = done.stderr.decode().splitlines()
        assert int(peak) / 1024 < 40
        if code == 2:
            assert errors == [f"error: trace token {'x' * 80!r}... is not in the alphabet "
                              "['alpha', 'beta']"]
            assert len(done.stderr) < 200 and done.stdout == b""
        else:
            assert errors == [] and json.loads(done.stdout)["prefix_len"] == 11


def test_peak_memory_does_not_grow_with_the_violation_position(tmp_path, monkeypatch):
    """A violation near the end of a 1M-token trace: traced allocations
    peak at about 1 MB, where keeping the lines read and the bad prefix as
    a list costs over 20 MB."""
    spec = tmp_path / "s.vgl"
    spec.write_text("alphabet a b; violation a* b;", encoding="utf-8")
    trace = tmp_path / "t.txt"
    line = "a " * 16 + "\n"
    trace.write_text(line * 62_000 + "b\n" + line * 500, encoding="utf-8")
    out = tmp_path / "out.json"
    with open(out, "w", encoding="utf-8") as sink:
        monkeypatch.setattr("sys.stdout", sink)
        tracemalloc.start()
        try:
            code = main(["monitor", str(spec), "--trace", str(trace)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 1
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["prefix_len"] == 62_000 * 16 + 1 == len(report["bad_prefix"])
    assert peak < 2_000_000


def test_peak_memory_does_not_grow_with_the_line_length(tmp_path):
    """2M five-letter tokens, violated by the last one: on one line the
    peak RSS of ``vigil`` is within a few MB of the same tokens on 16-token
    lines, where reading the line whole before splitting it costs over
    300 MB."""
    spec = tmp_path / "s.vgl"
    spec.write_text("alphabet alpha omega; violation alpha* omega;", encoding="utf-8")
    trace = tmp_path / "t.txt"
    argv = with_peak_rss(child())
    peaks, outs = [], []
    for line_end in ("\n", " "):
        trace.write_text(("alpha " * 15 + "alpha" + line_end) * 125_000 + "omega",
                         encoding="utf-8")
        outs.append(tmp_path / f"out{len(outs)}.json")
        with open(outs[-1], "wb") as sink:
            done = subprocess.run(argv + ["monitor", str(spec), "--trace", str(trace)],
                                  stdout=sink, stderr=subprocess.PIPE, env=child_env(),
                                  timeout=60)
        assert done.returncode == 1
        peaks.append(int(done.stderr) / 1024)
    short_lines, one_line = peaks
    assert one_line < short_lines + 5, peaks
    assert outs[0].read_bytes() == outs[1].read_bytes()
    report = json.loads(outs[1].read_text(encoding="utf-8"))
    assert report["prefix_len"] == 2_000_001 == len(report["bad_prefix"])


def planted_trace(rng: random.Random, tokens: int, violate: bool) -> bytes:
    """About ``tokens`` tokens of a and b with no 'b a b' in them, and one
    planted near a random place if ``violate``; with comments and CRLF."""
    names = []
    while len(names) < tokens:
        name = rng.choice(ALPHABET)
        if names[-2:] == ["b", "a"] and name == "b":
            name = "a"
        names.append(name)
    if violate:
        at = rng.randrange(tokens - 3)
        names[at:at + 3] = ["b", "a", "b"]
    lines, i = [], 0
    while i < len(names):
        width = rng.randint(0, 40)
        lines.append(" ".join(names[i:i + width]) + rng.choice(["\n", "\r\n", " # b a b\n"]))
        i += width
    return "".join(lines).encode()


def test_pipe_seekable_stdin_and_file_give_identical_bytes(spec_path, tmp_path):
    """``--trace -`` from a pipe (spooled), ``--trace -`` from stdin
    redirected from a file (re-read by seeking) and ``--trace FILE``."""
    rng = random.Random(4217)
    trace = tmp_path / "t.txt"
    for violate in (True, True, False):
        data = planted_trace(rng, 60_000, violate)
        trace.write_bytes(data)
        for fmt in ("json", "text"):
            argv = child() + ["monitor", spec_path, "--format", fmt, "--trace"]
            want = expected(data, fmt)
            want = (want[0], want[1].encode(), b"")
            runs = [subprocess.run(argv + ["-"], input=data, capture_output=True,
                                   env=child_env(), timeout=120)]
            with open(trace, "rb") as stdin:
                runs.append(subprocess.run(argv + ["-"], stdin=stdin, capture_output=True,
                                           env=child_env(), timeout=120))
            runs.append(subprocess.run(argv + [str(trace)], capture_output=True,
                                       env=child_env(), timeout=120))
            for done in runs:
                assert (done.returncode, done.stdout, done.stderr) == want


def test_stdin_read_again_from_where_it_started(spec_path, tmp_path):
    """A seekable stdin that a caller has already read into is read again
    from that point, not from the start of the file."""
    trace = tmp_path / "t.txt"
    trace.write_bytes(b"b a b\na a b a b a\n")
    with open(trace, "rb") as stdin:
        stdin.seek(6)  # the offset is shared with the child
        done = subprocess.run(child() + ["monitor", spec_path, "--trace", "-"], stdin=stdin,
                              capture_output=True, env=child_env(), timeout=60)
    assert (done.returncode, done.stderr) == (1, b"")
    assert json.loads(done.stdout)["bad_prefix"] == ["a", "a", "b", "a", "b"]


def test_non_ascii_symbols_golden(tmp_path, capsys, monkeypatch):
    """Symbols outside ASCII come out as json.dumps writes them (\\u
    escapes) in JSON and as themselves in text, streamed from a trace just
    as from a lasso's whole list."""
    alphabet = Alphabet(["é", "日本"])
    spec = ConstraintSpec("u", alphabet, Seq((Star(Lit("é")), Lit("日本"))))
    monkeypatch.setattr(cli, "_load_spec", lambda path: spec)
    trace = tmp_path / "t.txt"
    trace.write_text("é é # 日本\n日本 é\n", encoding="utf-8")
    json_golden = ('{"verdict": "violation", "prefix_len": 3, "ana_value": 2, '
                   '"bad_prefix": ["\\u00e9", "\\u00e9", "\\u65e5\\u672c"], '
                   '"steps_consumed": null}\n')
    text_golden = ("verdict: violation\nprefix_len: 3\nana_value: 2\n"
                   "bad_prefix: é é 日本\nsteps_consumed: -\n")
    for fmt, golden in (("json", json_golden), ("text", text_golden)):
        for source in (["--trace", str(trace)], ["--lasso", "é é ; 日本"]):
            assert main(["monitor", "u.vgl", "--format", fmt, *source]) == 1
            assert capsys.readouterr().out == golden
    assert json_golden == json.dumps(json.loads(json_golden)) + "\n"


def test_violation_on_an_open_pipe_is_reported_at_once(spec_path):
    """A live feed through a pipe is monitored as it arrives: the violation
    is reported while the writer still holds the pipe open."""
    proc = subprocess.Popen(child() + ["monitor", spec_path, "--trace", "-"],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=child_env())
    try:
        proc.stdin.write(b"a a\nb a b a\n")
        proc.stdin.flush()
        assert proc.wait(timeout=30) == 1
        report = json.loads(proc.stdout.read())
        assert report["bad_prefix"] == ["a", "a", "b", "a", "b"]
        assert proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.wait()
        for pipe in (proc.stdin, proc.stdout, proc.stderr):
            pipe.close()


class Writes(io.RawIOBase):
    """A pipe whose writes are all made: a read gets at most what one
    write put in."""

    def __init__(self, writes):
        self.writes = [data for data in writes if data]

    def readable(self):
        return True

    def readinto(self, buffer):
        if not self.writes:
            return 0
        data = self.writes.pop(0)
        size = min(len(buffer), len(data))
        buffer[:size] = data[:size]
        if size < len(data):
            self.writes.insert(0, data[size:])
        return size


SPLIT_TRACES = [b"a a # x\rb a b\n", b"a # \xe6\x97\xa5\r\nb a b a\r\n",
                b"b a \xe6\x97\xa5 b\r\n", b"a\r\r\nb \xc3\xa9", b"b a \xe6\x97"]
"""A CR ending a comment, CRLFs, a character outside the alphabet, and
one cut short at the end."""


@pytest.mark.parametrize("block", [1, 4, cli.TRACE_BLOCK])
def test_pipe_writes_cut_anywhere(block, spec_path, capsys, monkeypatch):
    """A pipe is decoded as it is read, so two writes cut between the bytes
    of a character, or between a CR and its LF, read as one write does."""
    monkeypatch.setattr(cli, "TRACE_BLOCK", block)
    for data in SPLIT_TRACES:
        for cut in range(len(data) + 1):
            for fmt in ("json", "text"):
                stdin = io.TextIOWrapper(io.BufferedReader(Writes([data[:cut], data[cut:]])),
                                         encoding="utf-8")
                monkeypatch.setattr("sys.stdin", stdin)
                with stdin:
                    code = main(["monitor", spec_path, "--trace", "-", "--format", fmt])
                assert (code, *capsys.readouterr()) == expected(data, fmt), (data, cut)


def test_pipe_writes_cut_in_a_character_and_a_crlf(spec_path):
    """The same through a real pipe, written piece by piece while the
    monitor reads: each write waits long enough for the monitor to have
    started and read the one before."""
    cases = [[b"a a # \xe6\x97", b"\xa5\r", b"b a b\r", b"\n"],
             [b"a \xe6\x97", b"\xa5\r", b"\nb"]]
    for writes in cases:
        proc = subprocess.Popen(child() + ["monitor", spec_path, "--trace", "-"],
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE,
                                env=dict(child_env(), PYTHONIOENCODING="utf-8"))
        try:
            for data in writes:
                proc.stdin.write(data)
                proc.stdin.flush()
                time.sleep(0.4)
            proc.stdin.close()
            code = proc.wait(timeout=30)
            got = (code, proc.stdout.read().decode(), proc.stderr.read().decode())
            assert got == expected(b"".join(writes))
        finally:
            proc.kill()
            proc.wait()
            for pipe in (proc.stdin, proc.stdout, proc.stderr):
                pipe.close()
