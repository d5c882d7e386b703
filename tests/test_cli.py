"""Command line golden tests and exit-code contract."""

import json

import pytest

from vigil.cli import main, verdict_exit_code

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

    def test_missing_file_exits_2(self, capsys):
        assert main(["check", "/nonexistent/nowhere.vgl"]) == 2
        assert "error:" in capsys.readouterr().err


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

    def test_length_then_lex_order(self, tmp_path, capsys):
        spec = write(tmp_path, "two.vgl", "alphabet a b; violation b a | a b | b b a;")
        assert main(["words", spec, "--depth", "4"]) == 0
        assert capsys.readouterr().out == "a b\nb a\nb b a\n"


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


def test_equiv_agrees_with_depth8_language_comparison(tmp_path, capsys):
    """The equivalence verdict matches an eight-deep comparison of the
    compiled violation languages, across a small corpus of spec pairs."""
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
