"""Toy-size self-test of the benchmark harness.

Runs every workload's operations in-process at toy sizes and checks that
vigil's outputs agree with the harness's references, that the references
agree with ``tests/support.py``, and that a traced run yields every
per-layer metric.  Collected by the repository's pytest run; takes about
two seconds.
"""

from __future__ import annotations

import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from vigilbench import gen, layers, ops, ref, spans, verify  # noqa: E402

SUPPORT = ref.load_support(run.ROOT)


@pytest.mark.parametrize("name", gen.WORKLOADS)
def test_toy_workload_matches_references(name, tmp_path):
    wl = gen.generate(name, 7, str(tmp_path), "toy", SUPPORT)
    runner = ops.Runner(wl.set_file)
    out = str(tmp_path / "op.out")
    reasons = [verify.check(wl, op, runner.run(op, out), out) for op in wl.ops]
    assert wl.ops and reasons == [None] * len(wl.ops)


def test_same_seed_same_inputs(tmp_path):
    made = []
    for sub in ("a", "b"):
        os.makedirs(tmp_path / sub)
        made.append(gen.generate("lasso_check", 3, str(tmp_path / sub), "toy", SUPPORT))
    literals = [[op["argv"][-1] for op in wl.ops if op["kind"] == "cli"] for wl in made]
    expects = [[op["expect"] for op in wl.ops] for wl in made]
    assert literals[0] == literals[1] and expects[0] == expects[1]


def test_wrong_output_is_counted(tmp_path):
    wl = gen.generate("spec_compile", 5, str(tmp_path), "toy", SUPPORT)
    op = next(o for o in wl.ops if o["expect"]["type"] == "check")
    out = str(tmp_path / "op.out")
    record = ops.Runner(wl.set_file).run(op, out)
    with open(out, "a", encoding="utf-8") as handle:
        handle.write("extra line\n")
    assert verify.check(wl, op, record, out) is not None


def test_derivative_reference_agrees_with_support_oracles():
    from vigil.sequences import Alphabet

    rng = random.Random(11)
    for _ in range(40):
        symbols = ["a", "b", "c"][:rng.randint(2, 3)]
        pattern = gen._random_pattern(rng, symbols, 2)
        engine = ref.Derivatives(symbols)
        if engine.nullable(engine.build(pattern)):
            continue
        node = ref.to_vigil_ast(pattern)
        oracle = SUPPORT.minimal_matches(node, Alphabet(symbols), 4)
        assert set(ref.minimal_words(symbols, pattern, 4)) == {tuple(w.symbols) for w in oracle}


def test_window_scan_finds_first_match():
    spec = ref.WindowSpec(["x", "y", "z"], [["x"], ["y", "z"]])
    assert spec.first_violation(bytearray(b"aabacb")) == 3
    assert spec.first_violation(bytearray(b"bbbb")) is None


def test_self_times_subtract_children():
    trace = [["cli.main", 0, None, 0.0, 1.0, None],
             ["speclang.compile", 0, 0, 0.1, 0.4, 3],
             ["detector.canonical_form", 0, 1, 0.2, 0.3, None]]
    own = spans.self_times(trace)
    assert own == pytest.approx({0: 0.7, 1: 0.2, 2: 0.1})
    assert spans.layer_self_by_op(trace)["speclang"] == pytest.approx([0.2])


def test_traced_run_yields_every_layer_metric(tmp_path):
    wl = gen.generate("word_sets", 2, str(tmp_path), "toy", SUPPORT)
    tally = run.Tally()
    metrics, _ = run.traced_run(wl, 0.0, tally, 2, spans_dir=str(tmp_path))
    assert set(metrics) == set(layers.METRICS)
    assert tally.failed == 0
    assert (tmp_path / "spans-word_sets-seed2.json").exists()
