"""Command line golden tests and exit-code contract."""

import argparse
import gc
import json
import os
import random
import subprocess
import sys
import time

import pytest

import vigil
from vigil import cli
from vigil.cli import main, verdict_exit_code

from support import (
    compiled_equivalent,
    compiled_words,
    mutated,
    random_ast,
    regex_matches,
    reordered,
    sigma_closed,
    with_peak_rss,
)

FIRST_B = "alphabet a b;\nviolation a* b;\n"


@pytest.fixture
def first_b_spec(tmp_path):
    path = tmp_path / "firstb.vgl"
    path.write_text(FIRST_B, encoding="utf-8")
    return str(path)


def write(tmp_path, name, content):
    path = tmp_path / name
    path.write_text(content, encoding="utf-8")
    return str(path)


def fresh(*args: str) -> list[str]:
    """argv of a fresh ``vigil`` process; ``args`` run before its ``main``."""
    script = "; ".join(["import sys", *args, "from vigil.cli import main", "sys.exit(main())"])
    return [sys.executable, "-c", script]


def fresh_env() -> dict:
    return dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(vigil.__file__)))


class TestCheck:
    def test_valid_spec(self, first_b_spec, capsys):
        assert main(["check", first_b_spec]) == 0
        out = capsys.readouterr().out
        assert "spec: firstb\n" in out
        assert "alphabet: a b\n" in out
        assert "detector states: 1\n" in out
        assert "kernel changed language: no\n" in out

    def test_kernelization_reported(self, tmp_path, capsys):
        spec = write(tmp_path, "opt.vgl", "alphabet a b; violation a b?;")
        assert main(["check", spec]) == 0
        assert "kernel changed language: yes" in capsys.readouterr().out

    def test_small_alphabet_exits_2(self, tmp_path, capsys):
        spec = write(tmp_path, "one.vgl", "alphabet a; violation a;")
        assert main(["check", spec]) == 2
        assert "two symbols" in capsys.readouterr().err

    def test_epsilon_violation_exits_2(self, tmp_path, capsys):
        spec = write(tmp_path, "eps.vgl", "alphabet a b; violation a*;")
        assert main(["check", spec]) == 2
        assert "empty observation" in capsys.readouterr().err

    def test_wide_alphabet_checks_in_linear_memory(self, tmp_path):
        """``violation s0 s1 s2;`` over 200,000 symbols: the detector keeps
        one row of numbers per state, with no (state, symbol) key, and
        ``check`` stays within 5 s and 110 MiB."""
        symbols = " ".join(f"s{i}" for i in range(200_000))
        spec = write(tmp_path, "wide.vgl", f"alphabet {symbols}; violation s0 s1 s2;\n")
        start = time.perf_counter()
        done = subprocess.run(with_peak_rss(fresh() + ["check", spec]),
                              capture_output=True, env=fresh_env(), timeout=120)
        wall = time.perf_counter() - start
        assert done.returncode == 0, done.stderr[-2000:]
        assert "detector states: 4" in done.stdout.decode().splitlines()
        assert wall < 5 and int(done.stderr.split()[-1]) / 1024 < 110, wall

    def test_missing_file_exits_2(self, capsys):
        assert main(["check", "/nonexistent/nowhere.vgl"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("depth", [400, 5000])
    def test_deep_nesting_exits_2(self, tmp_path, capsys, depth):
        spec = write(tmp_path, "deep.vgl",
                     "alphabet a b;\nviolation " + "(" * depth + "a" + ")" * depth + " b;\n")
        assert main(["check", spec]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: parentheses nested deeper than")
        assert "(line 2, column" in err


class TestWords:
    def test_golden_depth3(self, first_b_spec, capsys):
        assert main(["words", first_b_spec, "--depth", "3"]) == 0
        assert capsys.readouterr().out == "b\na b\na a b\n"

    def test_never_violating_spec_prints_nothing(self, tmp_path, capsys):
        # kernel of 'b b' never fires on an 'a'-only path, but a spec with
        # an empty language needs an unmatchable pattern: none exists in
        # the grammar, so use a deep one and a shallow depth instead
        spec = write(tmp_path, "deep.vgl", "alphabet a b; violation b b b b;")
        assert main(["words", spec, "--depth", "3"]) == 0
        assert capsys.readouterr().out == ""

    def test_depth_zero_is_usage_error(self, first_b_spec, capsys):
        assert main(["words", first_b_spec, "--depth", "0"]) == 2
        assert "--depth" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        (None, "No such file or directory"),
        ("alphabet a b; violation (a;", "expected ')', found ';' (line 1, column 27)"),
        ("alphabet a b; violation a*;", "the violation pattern matches the empty observation"),
    ], ids=["missing file", "parse error", "empty word"])
    def test_spec_errors_exit_2(self, tmp_path, capsys, text, message):
        spec = str(tmp_path / "none.vgl") if text is None else write(tmp_path, "bad.vgl", text)
        assert main(["words", spec, "--depth", "3"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    def test_length_then_lex_order(self, tmp_path, capsys):
        spec = write(tmp_path, "two.vgl", "alphabet a b; violation b a | a b | b b a;")
        assert main(["words", spec, "--depth", "4"]) == 0
        assert capsys.readouterr().out == "a b\nb a\nb b a\n"

    def test_depth_does_not_grow_words_that_cannot_fault(self, tmp_path):
        """Every word but 'a b' reaches a state that never faults, so depth
        100,000 answers at once and in the memory of depth 2.  The child's
        address space is capped at 512 MiB, so that a walk that does grow
        such words fails fast instead of taking the machine's memory."""
        spec = write(tmp_path, "sink.vgl", "alphabet a b; violation a b;")
        cap = "resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))"
        argv = with_peak_rss(fresh("import resource", cap) + ["words", spec, "--depth", "100000"])
        start = time.perf_counter()
        done = subprocess.run(argv, capture_output=True, env=fresh_env(), timeout=120)
        wall = time.perf_counter() - start
        assert (done.returncode, done.stdout) == (0, b"a b\n"), done.stderr[-300:]
        peak_mib = int(done.stderr.split()[-1]) / 1024
        assert wall < 10 and peak_mib < 100, (wall, peak_mib)

    def test_depth_stops_at_a_level_that_adds_no_state(self, tmp_path):
        """The subset graph of 'a b' is whole after two levels, so depth 10^9
        reads no more of it and answers at once."""
        spec = write(tmp_path, "sink.vgl", "alphabet a b; violation a b;")
        start = time.perf_counter()
        done = subprocess.run(fresh() + ["words", spec, "--depth", "1000000000"],
                              capture_output=True, env=fresh_env(), timeout=120)
        wall = time.perf_counter() - start
        assert (done.returncode, done.stdout) == (0, b"a b\n"), done.stderr[-300:]
        assert wall < 1, wall


class TestMonitor:
    def test_golden_safe_lasso(self, first_b_spec, capsys):
        code = main(["monitor", first_b_spec, "--lasso", "; a"])
        assert code == 0
        out = capsys.readouterr().out
        assert out == (
            '{"verdict": "safe_certified", "prefix_len": null, "ana_value": null, '
            '"bad_prefix": null, "steps_consumed": null}\n'
        )

    def test_golden_violating_trace(self, first_b_spec, tmp_path, capsys):
        trace = write(tmp_path, "trace.txt", "a a b a\n")
        code = main(["monitor", first_b_spec, "--trace", trace])
        assert code == 1
        out = capsys.readouterr().out
        assert out == (
            '{"verdict": "violation", "prefix_len": 3, "ana_value": 2, '
            '"bad_prefix": ["a", "a", "b"], "steps_consumed": null}\n'
        )

    def test_golden_clean_trace(self, first_b_spec, tmp_path, capsys):
        trace = write(tmp_path, "ok.txt", "a a a\n")
        code = main(["monitor", first_b_spec, "--trace", trace])
        assert code == 0
        out = capsys.readouterr().out
        assert out == (
            '{"verdict": "ok_so_far", "prefix_len": null, "ana_value": null, '
            '"bad_prefix": null, "steps_consumed": 3}\n'
        )

    def test_violating_lasso(self, first_b_spec, capsys):
        code = main(["monitor", first_b_spec, "--lasso", "a a ; b"])
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "violation"
        assert report["prefix_len"] == 3
        assert report["ana_value"] == 2
        assert report["bad_prefix"] == ["a", "a", "b"]

    def test_trace_with_comments(self, first_b_spec, tmp_path, capsys):
        trace = write(tmp_path, "c.txt", "# preamble\na a # two clean\na\n")
        assert main(["monitor", first_b_spec, "--trace", trace]) == 0
        assert json.loads(capsys.readouterr().out)["steps_consumed"] == 3

    def test_foreign_token_exits_2(self, first_b_spec, tmp_path, capsys):
        trace = write(tmp_path, "bad.txt", "a c\n")
        assert main(["monitor", first_b_spec, "--trace", trace]) == 2
        assert "'c'" in capsys.readouterr().err

    def test_bad_lasso_literal_exits_2(self, first_b_spec, capsys):
        assert main(["monitor", first_b_spec, "--lasso", "a b"]) == 2
        capsys.readouterr()

    def test_text_format(self, first_b_spec, capsys):
        assert main(["monitor", first_b_spec, "--lasso", "a a ; b", "--format", "text"]) == 1
        out = capsys.readouterr().out
        assert out == (
            "verdict: violation\nprefix_len: 3\nana_value: 2\n"
            "bad_prefix: a a b\nsteps_consumed: -\n"
        )

    def test_lasso_agrees_with_unrolled_trace(self, first_b_spec, tmp_path, capsys):
        code_lasso = main(["monitor", first_b_spec, "--lasso", "a a ; b"])
        lasso_report = json.loads(capsys.readouterr().out)
        trace = write(tmp_path, "unrolled.txt", "a a b b b\n")
        code_trace = main(["monitor", first_b_spec, "--trace", trace])
        trace_report = json.loads(capsys.readouterr().out)
        assert code_lasso == code_trace == 1
        for key in ("verdict", "prefix_len", "ana_value", "bad_prefix"):
            assert lasso_report[key] == trace_report[key]

    def test_stdin_trace(self, first_b_spec, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("a b\n"))
        assert main(["monitor", first_b_spec, "--trace", "-"]) == 1
        assert json.loads(capsys.readouterr().out)["prefix_len"] == 2

    def test_spec_errors_come_before_lasso_and_trace_errors(self, first_b_spec, tmp_path, capsys):
        epsilon = write(tmp_path, "eps.vgl", "alphabet a b; violation a*;")
        missing = str(tmp_path / "nothere.txt")
        cases = [
            ([epsilon, "--lasso", "a;;b"], "the violation pattern matches the empty observation"),
            ([epsilon, "--trace", missing], "the violation pattern matches the empty observation"),
            ([first_b_spec, "--lasso", "a;;b"], "lasso literal needs exactly one ';': 'a;;b'"),
            ([first_b_spec, "--lasso", "a ;"], "lasso period must be nonempty"),
            ([first_b_spec, "--trace", missing],
             f"[Errno 2] No such file or directory: {missing!r}"),
        ]
        for argv, message in cases:
            assert main(["monitor", *argv]) == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("source", ["--trace", "--lasso"])
    def test_exponential_kernel_is_monitored_on_demand(self, tmp_path, source):
        """``(a|b)* a (a|b)^17 b`` has a canonical detector of 2^18 states;
        determinizing it whole takes seconds and hundreds of MiB.  The
        violation at token 27 needs about 27 rows."""
        k = 17
        spec = write(tmp_path, "kth.vgl",
                     f"alphabet a b; violation (a|b)* a {' '.join(['(a|b)'] * k)} b;")
        head = ["b"] * 8 + ["a"] * (k + 1) + ["b"]
        if source == "--trace":
            argv = ["--trace", write(tmp_path, "t.txt", " ".join(head + ["a", "b"] * 87))]
        else:
            argv = ["--lasso", " ".join(head[:8]) + " ; " + " ".join(head[8:])]
        start = time.perf_counter()
        done = subprocess.run(with_peak_rss(fresh() + ["monitor", spec, *argv]),
                              capture_output=True, env=fresh_env(), timeout=120)
        wall = time.perf_counter() - start
        assert done.returncode == 1, done.stderr[-300:]
        report = json.loads(done.stdout)
        assert (report["prefix_len"], report["bad_prefix"]) == (len(head), head)
        peak_mib = int(done.stderr.split()[-1]) / 1024
        assert wall < 2 and peak_mib < 100, (wall, peak_mib)


class TestMonitorTraceEdges:
    """Trace monitoring reads blocks of whole lines and reads the trace
    again up to a violation; these pin the verdicts, errors and bytes at
    the edges of that."""

    def run(self, spec, trace, capsys, *extra):
        code = main(["monitor", spec, "--trace", trace, *extra])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_violation_on_first_token(self, first_b_spec, tmp_path, capsys):
        code, out, _ = self.run(first_b_spec, write(tmp_path, "t.txt", "b a a\n"), capsys)
        assert code == 1
        assert out == (
            '{"verdict": "violation", "prefix_len": 1, "ana_value": 0, '
            '"bad_prefix": ["b"], "steps_consumed": null}\n'
        )

    def test_violation_on_last_token_of_a_later_line(self, first_b_spec, tmp_path, capsys):
        trace = write(tmp_path, "t.txt", "a a # x y\n\na b\nb b\n")
        code, out, _ = self.run(first_b_spec, trace, capsys)
        assert code == 1
        report = json.loads(out)
        assert report["prefix_len"] == 4
        assert report["bad_prefix"] == ["a", "a", "a", "b"]

    def test_bad_token_after_violation_on_same_line(self, first_b_spec, tmp_path, capsys):
        code, out, err = self.run(first_b_spec, write(tmp_path, "t.txt", "a b c\n"), capsys)
        assert code == 1 and err == ""
        assert json.loads(out)["bad_prefix"] == ["a", "b"]

    def test_bad_token_before_violation(self, first_b_spec, tmp_path, capsys):
        for text in ("a c b\n", "c\n", "a a\n# c\na a c b\n"):
            code, out, err = self.run(first_b_spec, write(tmp_path, "t.txt", text), capsys)
            assert code == 2 and out == ""
            assert err == "error: trace token 'c' is not in the alphabet ['a', 'b']\n"

    def test_comment_only_and_blank_lines(self, first_b_spec, tmp_path, capsys):
        trace = write(tmp_path, "t.txt", "# c c b\n\n   \n\t# b\na # b\n\na\n")
        code, out, _ = self.run(first_b_spec, trace, capsys)
        assert code == 0
        assert json.loads(out)["steps_consumed"] == 2

    def test_empty_trace(self, first_b_spec, tmp_path, capsys):
        code, out, _ = self.run(first_b_spec, write(tmp_path, "t.txt", ""), capsys)
        assert code == 0
        assert out == (
            '{"verdict": "ok_so_far", "prefix_len": null, "ana_value": null, '
            '"bad_prefix": null, "steps_consumed": 0}\n'
        )

    def test_text_format(self, first_b_spec, tmp_path, capsys):
        trace = write(tmp_path, "t.txt", "a\na b\n")
        _, out, _ = self.run(first_b_spec, trace, capsys, "--format", "text")
        assert out == (
            "verdict: violation\nprefix_len: 3\nana_value: 2\n"
            "bad_prefix: a a b\nsteps_consumed: -\n"
        )
        trace = write(tmp_path, "t.txt", "a a\n")
        _, out, _ = self.run(first_b_spec, trace, capsys, "--format", "text")
        assert out == (
            "verdict: ok_so_far\nprefix_len: -\nana_value: -\n"
            "bad_prefix: -\nsteps_consumed: 2\n"
        )

    def test_file_and_stdin_give_identical_bytes(self, first_b_spec, tmp_path, capsys, monkeypatch):
        import io

        rng = random.Random(241)
        for text in ["a " * 40 + "\n# b\n" + "a a b a\n", "a a\n" * 30]:
            trace = write(tmp_path, "t.txt", text)
            for fmt in ("json", "text"):
                from_file = self.run(first_b_spec, trace, capsys, "--format", fmt)
                monkeypatch.setattr("sys.stdin", io.StringIO(text))
                assert self.run(first_b_spec, "-", capsys, "--format", fmt) == from_file
        for _ in range(30):
            pieces = ["a ", "b ", "a", "\n", " # b c\n", "\t"]
            text = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 40)))
            trace = write(tmp_path, "t.txt", text)
            from_file = self.run(first_b_spec, trace, capsys)
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            assert self.run(first_b_spec, "-", capsys) == from_file

    def test_multiline_traces_against_oracle(self, tmp_path, capsys):
        from support import oracle_first_fault
        from vigil.speclang import compile as compile_spec
        from vigil.speclang import parse

        text = "alphabet a b; violation (a|b)* b a b;"
        spec = write(tmp_path, "s.vgl", text)
        det, init = compile_spec(parse(text))
        rng = random.Random(243)
        codes = []
        for case in range(200):
            lines = []
            for _ in range(rng.randint(0, 6)):
                line = " ".join(rng.choice("ab") for _ in range(rng.randint(0, 5)))
                lines.append(line + rng.choice(["", "  # b a b", "\t"]))
            tokens = [t for line in lines for t in line.split("#")[0].split()]
            trace = write(tmp_path, f"t{case}.txt", "\n".join(lines))
            code, out, _ = self.run(spec, trace, capsys)
            codes.append(code)
            report = json.loads(out)
            fault = oracle_first_fault(det, init, tokens)
            if fault is None:
                assert code == 0 and report["steps_consumed"] == len(tokens)
            else:
                assert code == 1 and report["bad_prefix"] == tokens[:fault]
        assert min(codes.count(0), codes.count(1)) >= 50

    def test_undecodable_bytes_in_a_trace_file(self, first_b_spec, tmp_path, capsys):
        """Bytes that are not UTF-8 make a token outside the alphabet: a
        violation before them still wins, and otherwise the error is the
        foreign-token error, wherever the decoder's chunks end."""
        trace = tmp_path / "t.txt"

        def run(data: bytes):
            trace.write_bytes(data)
            return self.run(first_b_spec, str(trace), capsys)

        for data, bad_prefix in ((b"a b\n\xff\n", "ab"), (b"a b \xff\n", "ab"),
                                 (b"a a\na b \xfe\xff", "aaab")):
            code, out, err = run(data)
            assert code == 1 and err == ""
            assert json.loads(out)["bad_prefix"] == list(bad_prefix)
        code, out, err = run(b"a \xffa b\n")
        assert (code, out) == (2, "")
        assert err == "error: trace token '\\udcffa' is not in the alphabet ['a', 'b']\n"
        for pad in range(8184, 8196):  # 8192: the text decoder's chunk size
            code, out, err = run(b" " * pad + b"a \xc3\xa9 b\n")
            assert (code, out) == (2, "")
            assert err == "error: trace token 'é' is not in the alphabet ['a', 'b']\n"
            code, out, err = run(b" " * pad + b"a b \xc3\n")
            assert code == 1 and err == ""

    def test_undecodable_bytes_on_strict_stdin(self, first_b_spec):
        """The same, for ``--trace -`` when stdin decodes strictly."""
        import os
        import subprocess
        import sys

        import vigil

        env = dict(os.environ, PYTHONIOENCODING="utf-8:strict",
                   PYTHONPATH=os.path.dirname(os.path.dirname(vigil.__file__)))
        argv = [sys.executable, "-c", "import sys; from vigil.cli import main; sys.exit(main())",
                "monitor", first_b_spec, "--trace", "-"]

        def run(data: bytes):
            done = subprocess.run(argv, input=data, capture_output=True, env=env, timeout=60)
            return done.returncode, done.stdout.decode(), done.stderr.decode()

        code, out, err = run(b"a b\n\xff\n")
        assert code == 1 and err == ""
        assert json.loads(out)["bad_prefix"] == ["a", "b"]
        assert run(b"a \xff b\n") == (
            2, "", "error: trace token '\\udcff' is not in the alphabet ['a', 'b']\n"
        )


class TestEquiv:
    def test_spec_vs_itself(self, first_b_spec, capsys):
        assert main(["equiv", first_b_spec, first_b_spec]) == 0
        assert capsys.readouterr().out == "equivalent\n"

    def test_same_language_different_phrasing(self, tmp_path, capsys):
        one = write(tmp_path, "one.vgl", "alphabet a b; violation a* b;")
        two = write(tmp_path, "two.vgl", "alphabet a b; violation b | a a* b;")
        assert main(["equiv", one, two]) == 0
        capsys.readouterr()

    def test_different_languages(self, tmp_path, capsys):
        one = write(tmp_path, "one.vgl", "alphabet a b; violation a;")
        two = write(tmp_path, "two.vgl", "alphabet a b; violation b;")
        assert main(["equiv", one, two]) == 1
        assert capsys.readouterr().out == "not equivalent\n"

    def test_alphabet_mismatch_exits_2(self, tmp_path, capsys):
        one = write(tmp_path, "one.vgl", "alphabet a b; violation a;")
        two = write(tmp_path, "two.vgl", "alphabet a c; violation a;")
        assert main(["equiv", one, two]) == 2
        capsys.readouterr()

    def test_specs_that_differ_early_are_told_apart_on_demand(self, tmp_path):
        """``a | (a|b)* a (a|b)^20 b`` faults on ``a``, ``(a|b)* a (a|b)^20
        b`` does not, and each has a canonical detector of about 2^21
        states.  The pair walk stops at its first pair, so the subset graphs
        are built no further.  The child's address space is capped at 1
        GiB, so that a walk that builds them fails fast instead of taking
        the machine's memory."""
        tail = "(a|b)* a " + " ".join(["(a|b)"] * 20) + " b"
        one = write(tmp_path, "one.vgl", f"alphabet a b; violation a | {tail};")
        two = write(tmp_path, "two.vgl", f"alphabet a b; violation {tail};")
        cap = "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))"
        argv = with_peak_rss(fresh("import resource", cap) + ["equiv", one, two])
        start = time.perf_counter()
        done = subprocess.run(argv, capture_output=True, env=fresh_env(), timeout=120)
        wall = time.perf_counter() - start
        assert (done.returncode, done.stdout) == (1, b"not equivalent\n"), done.stderr[-300:]
        peak_mib = int(done.stderr.split()[-1]) / 1024
        assert wall < 2 and peak_mib < 100, (wall, peak_mib)

    @staticmethod
    def counted_expanders(monkeypatch) -> dict:
        """Wraps the one ``SpecGraph.expand``: from each spec's graph, in the
        order they first expand, to the subsets it expanded, in order."""
        from vigil.speclang import SpecGraph

        expanded, expand = {}, SpecGraph.expand

        def counted(graph, subset):
            expanded.setdefault(graph, []).append(subset)
            return expand(graph, subset)

        monkeypatch.setattr(SpecGraph, "expand", counted)
        return expanded

    def test_specs_that_differ_early_expand_one_subset_each(self, tmp_path, capsys, monkeypatch):
        """The pair walk stops at its first pair: a first ``a`` faults on the
        left only."""
        tail = "(a|b)* a " + " ".join(["(a|b)"] * 12) + " b"
        one = write(tmp_path, "one.vgl", f"alphabet a b; violation a | {tail};")
        two = write(tmp_path, "two.vgl", f"alphabet a b; violation {tail};")
        expanded = self.counted_expanders(monkeypatch)
        assert main(["equiv", one, two]) == 1
        assert capsys.readouterr().out == "not equivalent\n"
        assert [len(subsets) for subsets in expanded.values()] == [1, 1]

    def test_a_walk_expands_each_subset_once(self, tmp_path, capsys, monkeypatch):
        """On a ladder and seeded random specs against their reordered twins,
        each side expands no subset twice, and, as equal specs walk every
        pair, each subset that the whole unfold numbers."""
        from vigil.sequences import Alphabet
        from vigil.speclang import ConstraintSpec, parse, pattern_dfa, pretty

        rng = random.Random(2803)
        ladder = parse(f"alphabet a b; violation (a|b)* a {' '.join(['(a|b)'] * 6)} b b b b;")
        specs = [ladder]
        while len(specs) < 60:
            al = Alphabet(["a", "b", "c"][: rng.randint(2, 3)])
            node = random_ast(rng, al, rng.randint(1, 5))
            if not regex_matches(node, ()):
                specs.append(ConstraintSpec("s", al, node))
        expanded = self.counted_expanders(monkeypatch)
        for spec in specs:
            symbols = " ".join(spec.alphabet.symbols)
            paths = [write(tmp_path, f"{name}.vgl", f"alphabet {symbols}; violation {pretty(node)};")
                     for name, node in (("one", spec.pattern), ("two", reordered(spec.pattern)))]
            expanded.clear()
            assert main(["equiv", *paths]) == 0
            assert capsys.readouterr().out == "equivalent\n"
            for subsets, node in zip([*expanded.values()], (spec.pattern, reordered(spec.pattern))):
                assert len(set(subsets)) == len(subsets), pretty(node)
                assert len(subsets) == len(pattern_dfa(node, spec.alphabet)[0]), pretty(node)

    def test_a_walk_leaves_nothing_to_the_cyclic_collector(self, tmp_path, capsys):
        """With the collector off, ``equiv`` on ladder 6 and its reordered
        twin frees what it built as the command returns: no reference
        cycle is left for ``gc.collect()``."""
        rungs = " ".join(["(a|b)"] * 6)
        one = write(tmp_path, "one.vgl", f"alphabet a b; violation (a|b)* a {rungs} b b b b;")
        twin = rungs.replace("a|b", "b|a")
        two = write(tmp_path, "two.vgl", f"alphabet a b; violation (b|a)* a {twin} b b b b;")
        assert main(["equiv", one, two]) == 0  # the parser and the modules, made once
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            assert main(["equiv", one, two]) == 0
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()
        assert capsys.readouterr().out == "equivalent\n" * 2


class TestFamily:
    def test_trivial_family_closed(self, tmp_path, capsys):
        empty = write(tmp_path, "empty.set", "alphabet: a b\n")
        assert main(["family", empty]) == 0
        assert capsys.readouterr().out == "closed: 1 member sets\n"

    def test_single_two_letter_word_not_closed(self, tmp_path, capsys):
        lone = write(tmp_path, "lone.set", "alphabet: a b\na b\n")
        assert main(["family", lone]) == 1
        out = capsys.readouterr().out
        assert out == "not closed: the derivative of {a b} by 'a' is not in the family\n"

    def test_derivative_closure_closed(self, tmp_path, capsys):
        f1 = write(tmp_path, "f1.set", "alphabet: a b\na b\n")
        f2 = write(tmp_path, "f2.set", "alphabet: a b\nb\n")
        f3 = write(tmp_path, "f3.set", "alphabet: a b\n")
        assert main(["family", f1, f2, f3]) == 0
        assert capsys.readouterr().out == "closed: 3 member sets\n"

    def test_invalid_member_exits_2(self, tmp_path, capsys):
        bad = write(tmp_path, "bad.set", "alphabet: a b\na\na b\n")
        assert main(["family", bad]) == 2
        capsys.readouterr()

    def test_mismatched_alphabets_exit_2(self, tmp_path, capsys):
        f1 = write(tmp_path, "f1.set", "alphabet: a b\n")
        f2 = write(tmp_path, "f2.set", "alphabet: a c\n")
        assert main(["family", f1, f2]) == 2
        capsys.readouterr()

    def test_missing_header_exits_2(self, tmp_path, capsys):
        bad = write(tmp_path, "bad.set", "a b\n")
        assert main(["family", bad]) == 2
        capsys.readouterr()


class TestExitCodeContract:
    def test_verdict_mapping_is_total(self):
        assert verdict_exit_code("safe_certified") == 0
        assert verdict_exit_code("ok_so_far") == 0
        assert verdict_exit_code("violation") == 1
        assert verdict_exit_code("unknown") == 3

    def test_usage_error_is_2(self, capsys):
        for argv in (["monitor"], ["monitor", "x.vgl", "--trace", "-", "--budget", "5"]):
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == 2
            capsys.readouterr()

    def test_unknown_command_is_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("command", [["equiv", "S", "S"], ["check", "S"],
                                         ["words", "S", "--depth", "23"]])
    def test_out_of_memory_is_3(self, tmp_path, command):
        """``(a|b)* a (a|b)^20 b`` has a subset graph of about 2^21 rows, which
        ``equiv`` on the spec and itself, ``check`` and ``words`` to a depth
        past its every state build whole.
        In a child whose address space is capped at 128 MiB the build runs
        out of memory: that is "undecided within budget", not the "not
        equivalent" or "violation" of exit 1, and it prints one line."""
        tail = " ".join(["(a|b)"] * 20)
        spec = write(tmp_path, "wide.vgl", f"alphabet a b; violation (a|b)* a {tail} b;")
        cap = "resource.setrlimit(resource.RLIMIT_AS, (1 << 27, 1 << 27))"
        argv = fresh("import resource", cap) + [spec if arg == "S" else arg for arg in command]
        done = subprocess.run(argv, capture_output=True, env=fresh_env(), timeout=120)
        assert (done.returncode, done.stdout) == (3, b""), done.stderr[-300:]
        lines = done.stderr.decode().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: out of memory"), lines

    def test_words_builds_only_the_rows_within_its_depth(self, tmp_path):
        """``words --depth 3`` on the spec above reads the subsets within two
        steps of the start, so under the same 128 MiB cap it answers at once:
        no word of length 3 or less is a violation."""
        tail = " ".join(["(a|b)"] * 20)
        spec = write(tmp_path, "wide.vgl", f"alphabet a b; violation (a|b)* a {tail} b;")
        cap = "resource.setrlimit(resource.RLIMIT_AS, (1 << 27, 1 << 27))"
        argv = fresh("import resource", cap) + ["words", spec, "--depth", "3"]
        start = time.perf_counter()
        done = subprocess.run(argv, capture_output=True, env=fresh_env(), timeout=120)
        wall = time.perf_counter() - start
        assert (done.returncode, done.stdout, done.stderr) == (0, b"", b""), done.stderr[-300:]
        assert wall < 1, wall


class TestOneParserPerProcess:
    """``main`` builds its argument parser once per process and reuses it;
    no call leaves anything behind for the next."""

    def test_parser_is_built_at_most_once(self, first_b_spec, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))  # sub-parsers are named 'vigil check', ...
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        for _ in range(3):
            assert main(["check", first_b_spec]) == 0
        capsys.readouterr()
        assert built.count("vigil") <= 1, built

    def test_calls_in_a_row_match_fresh_processes(self, first_b_spec, tmp_path, capsys,
                                                  monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap alike in both
        trace = write(tmp_path, "t.txt", "a a\nb a\n")
        calls = [
            ["monitor", first_b_spec],  # neither --trace nor --lasso: usage error
            ["check", first_b_spec],
            ["monitor", first_b_spec, "--lasso", "a ; a b", "--format", "text"],
            ["monitor", first_b_spec, "--lasso", "a ; a b"],
            ["monitor", first_b_spec, "--trace", trace],
            ["monitor", first_b_spec, "--lasso", "; a"],
            ["words", first_b_spec, "--depth", "3"],
            ["words", first_b_spec, "--depth", "4"],
        ]
        in_process = []
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            in_process.append((code, *capsys.readouterr()))
        runs = [subprocess.run(fresh() + argv, capture_output=True, text=True,
                               env=fresh_env(), timeout=60) for argv in calls]
        assert in_process == [(done.returncode, done.stdout, done.stderr) for done in runs]
        assert in_process[0][0] == 2 and in_process[1][0] == 0
        assert json.loads(in_process[3][1])["verdict"] == "violation"


class TestHelpWidth:
    """Help text is laid out as argparse's own formatter lays it out, at the
    width ``shutil.get_terminal_size`` gives, with no ``shutil`` import."""

    @staticmethod
    def shown(argv, capsys) -> str:
        """What a fresh vigil parser prints for ``argv``."""
        with pytest.raises(SystemExit):
            cli._build_parser.__wrapped__().parse_args(argv)
        return capsys.readouterr().out

    @pytest.mark.parametrize("columns", ["40", "80", "200", None, "0", "wide"])
    @pytest.mark.parametrize("argv", [["--help"], ["monitor", "--help"]])
    def test_help_is_byte_identical_to_argparse_defaults(self, argv, columns, capsys, monkeypatch):
        if columns is None:
            monkeypatch.delenv("COLUMNS", raising=False)
        else:
            monkeypatch.setenv("COLUMNS", columns)
        ours = self.shown(argv, capsys)
        monkeypatch.setattr(cli, "_HelpFormatter", argparse.HelpFormatter)
        assert ours == self.shown(argv, capsys)
        assert ours.startswith("usage: vigil")


def test_equiv_agrees_with_depth8_language_comparison(tmp_path, capsys):
    """The equivalence verdict matches an eight-deep comparison of the
    compiled violation languages and bisimilarity of the compiled
    detectors, across a small corpus of spec pairs."""
    from vigil.bisim import bisimilar
    from vigil.detector import minimal_violation_words
    from vigil.speclang import compile as compile_spec
    from vigil.speclang import parse

    bodies = [
        "a* b",
        "b | a a* b",
        "b",
        "a b | b a",
        "(a|b)* b b",
        "b b | (a|b)* b b",
        "a+ b",
    ]
    for left in bodies:
        for right in bodies:
            one = write(tmp_path, "left.vgl", f"alphabet a b; violation {left};")
            two = write(tmp_path, "right.vgl", f"alphabet a b; violation {right};")
            code = main(["equiv", one, two])
            capsys.readouterr()
            det_l, init_l = compile_spec(parse(f"alphabet a b; violation {left};"))
            det_r, init_r = compile_spec(parse(f"alphabet a b; violation {right};"))
            same = minimal_violation_words(det_l, init_l, 8) == minimal_violation_words(
                det_r, init_r, 8
            )
            assert code == (0 if same else 1)
            assert bisimilar(det_l, init_l, det_r, init_r) == same


def test_equiv_and_words_agree_with_the_compiled_tables(tmp_path, capsys):
    """On seeded random specs: ``equiv`` against the same spec with its
    alternations reordered, followed by any word, and with one literal
    changed, each decided by comparing canonical detector tables; and
    ``words`` against every word tried on the canonical detector."""
    from vigil.sequences import Alphabet
    from vigil.speclang import ConstraintSpec, pretty

    def spec_file(name, alphabet, node):
        return write(tmp_path, name, f"alphabet {' '.join(alphabet)}; violation {pretty(node)};")

    rng = random.Random(1811)
    seen = {0: 0, 1: 0}
    made = 0
    while made < 150:
        al = Alphabet(["a", "b", "c"][: rng.randint(2, 3)])
        node = random_ast(rng, al, rng.randint(1, 5))
        if regex_matches(node, ()):
            continue
        spec, path = ConstraintSpec("s", al, node), spec_file("s.vgl", al, node)
        for other in (reordered(node), sigma_closed(node, al), mutated(rng, node, al)):
            if regex_matches(other, ()):
                continue
            code = main(["equiv", path, spec_file("o.vgl", al, other)])
            want = 0 if compiled_equivalent(spec, ConstraintSpec("o", al, other)) else 1
            assert (code, capsys.readouterr().out) == (
                want, ["equivalent\n", "not equivalent\n"][want]), (pretty(node), pretty(other))
            seen[want] += 1
        depth = rng.randint(1, 7)
        assert main(["words", path, "--depth", str(depth)]) == 0
        assert capsys.readouterr().out == compiled_words(spec, depth), pretty(node)
        made += 1
    assert min(seen.values()) > 100, seen


def test_report_schema_on_random_corpus(tmp_path, capsys):
    """Every monitor invocation emits exactly the five fixed keys, with
    types matching the verdict (500 random cases)."""
    import random

    rng = random.Random(239)
    spec = write(tmp_path, "s.vgl", "alphabet a b; violation (a|b)* b b;")
    for case in range(500):
        if rng.random() < 0.5:
            prefix = " ".join(rng.choice("ab") for _ in range(rng.randint(0, 3)))
            period = " ".join(rng.choice("ab") for _ in range(rng.randint(1, 3)))
            code = main(["monitor", spec, "--lasso", f"{prefix} ; {period}"])
        else:
            tokens = " ".join(rng.choice("ab") for _ in range(rng.randint(0, 8)))
            trace = write(tmp_path, f"t{case}.txt", tokens + "\n")
            code = main(["monitor", spec, "--trace", trace])
        report = json.loads(capsys.readouterr().out)
        assert list(report) == [
            "verdict", "prefix_len", "ana_value", "bad_prefix", "steps_consumed",
        ]
        if report["verdict"] == "violation":
            assert code == 1
            assert report["ana_value"] == report["prefix_len"] - 1
            assert len(report["bad_prefix"]) == report["prefix_len"]
        else:
            assert code == 0
            assert report["prefix_len"] is None and report["bad_prefix"] is None
