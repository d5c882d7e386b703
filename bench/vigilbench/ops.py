"""Executes workload operations in one process, the way users drive vigil.

CLI operations call ``vigil.cli.main`` with stdout sent to a file; library
operations call the public functions through their modules, so that the
traced run's wrappers see them.  Inputs are loaded and compiled before an
operation's clock starts.

As a program it runs one timed pass in a fresh child process::

    python -m vigilbench.ops OPS_JSON OUT_DIR RESULTS_JSONL

writing one JSON record per operation to RESULTS_JSONL, then one record
``{"calibration": [[time, seconds], ...]}`` with the calibration samples
taken between operations (see :mod:`vigilbench.calib`).
"""

from __future__ import annotations

import json
import os
import sys
import time

from vigil import bisim, cli, detector, families, monitor, sequences, speclang
from vigil.sequences import Alphabet, FiniteWordSet, Word
from vigil.systems import FAULT

from .calib import CAL_EVERY_S, CAL_ROUNDS, calibrate


def _verdict(v) -> dict:
    if isinstance(v, monitor.Violation):
        return {"verdict": "violation", "prefix_len": v.prefix_len,
                "ana_value": v.ana_value, "bad_prefix": list(v.bad_prefix.symbols)}
    return {"verdict": "safe_certified" if isinstance(v, monitor.CertifiedSafe) else repr(v)}


def _feed(handle, word) -> tuple:
    """Feed a word, stepping again after UNKNOWN (the enumeration has grown
    in between).  Returns (1-based fault position or None, steps, unknowns)."""
    steps = unknown = 0
    for i, symbol in enumerate(word, 1):
        while True:
            steps += 1
            target = handle.step(symbol)
            if target is not detector.UNKNOWN:
                break
            unknown += 1
        if target is FAULT:
            return i, steps, unknown
        handle = target
    return None, steps, unknown


class Runner:
    """Runs operations of one workload; keeps the objects that later
    library operations on the same word set build on."""

    def __init__(self, set_file: str | None):
        self.sets = []
        self.alphabet = None
        if set_file:
            with open(set_file, encoding="utf-8") as handle:
                data = json.load(handle)
            self.alphabet = Alphabet(data["alphabet"])
            for entry in data["sets"]:
                self.sets.append({
                    "set": self._load_words(entry["words"]),
                    "closure": [self._load_words(c) for c in entry["closure"]],
                    "enum": [Word(self.alphabet, w) for w in entry["enum"]],
                })
        self._compiled = {}
        self._tokens = {}

    def _load_words(self, words) -> FiniteWordSet:
        return FiniteWordSet(self.alphabet, (Word(self.alphabet, w) for w in words))

    def _compile(self, path):
        if path not in self._compiled:
            with open(path, encoding="utf-8") as handle:
                spec = speclang.parse(handle.read())
            self._compiled[path] = (spec,) + speclang.compile(spec)
        return self._compiled[path]

    def _token_list(self, path):
        if path not in self._tokens:
            with open(path, encoding="utf-8") as handle:
                self._tokens[path] = handle.read().split()
        return self._tokens[path]

    def prepare(self, op) -> None:
        """Load what an operation needs before its clock starts."""
        if "spec" in op and op["call"] != "transfer":
            self._compile(op["spec"])
        if "tokens" in op:
            self._token_list(op["tokens"])

    def run(self, op: dict, out_path: str) -> dict:
        """Run one operation; never raises.  The record carries the wall
        time, the CLI exit code or the library result, and any error."""
        record = {"id": op["id"], "wall": None, "exit": None, "value": None,
                  "info": None, "error": None}
        try:
            self.prepare(op)
            if op["kind"] == "cli":
                record["exit"], record["wall"] = self._cli(op, out_path)
            else:
                start = time.perf_counter()
                record["value"], record["info"] = getattr(self, "_" + op["call"])(op)
                record["wall"] = time.perf_counter() - start
        except Exception as exc:  # a failed operation is counted, not fatal
            record["error"] = f"{type(exc).__name__}: {exc}"
        return record

    def _cli(self, op, out_path) -> tuple:
        saved = sys.stdout, sys.stdin
        stdin = open(op["stdin"], encoding="utf-8") if op["stdin"] else None
        try:
            with open(out_path, "w", encoding="utf-8") as out:
                sys.stdout = out
                if stdin is not None:
                    sys.stdin = stdin
                start = time.perf_counter()
                try:
                    code = cli.main(op["argv"])
                except SystemExit as exc:  # argparse usage errors
                    code = exc.code
                wall = time.perf_counter() - start
        finally:
            sys.stdout, sys.stdin = saved
            if stdin is not None:
                stdin.close()
        return code, wall

    # ---- library operations on explicit word sets

    def _explicit(self, op):
        entry = self.sets[op["set"]]
        entry["det"], entry["init"] = detector.detector_from_explicit_set(entry["set"])
        return len(entry["det"].states), None

    def _canonical(self, op):
        entry = self.sets[op["set"]]
        entry["canon"], entry["c0"] = detector.canonical_form(entry["det"], entry["init"])
        return len(entry["canon"].states), None

    def _bisimilar(self, op):
        entry = self.sets[op["set"]]
        return bisim.bisimilar(entry["det"], entry["init"], entry["canon"], op["target"]), None

    def _words(self, op):
        entry = self.sets[op["set"]]
        found = detector.minimal_violation_words(entry["canon"], entry["c0"], op["depth"])
        return [list(w.symbols) for w in found.words], None

    def _closure(self, op):
        members = list(self.sets[op["set"]]["closure"])
        if op["drop"] is not None:
            del members[op["drop"]]
        closed, _ = families.check_universal_family(members)
        return closed, None

    def _universal(self, op):
        det, _ = families.universal_detector_for(self.sets[op["set"]]["closure"])
        return len(det.states), None

    def _enum_feed(self, op):
        entry = self.sets[op["set"]]
        handle = families.re_detector(families.Enumerator(self.alphabet, entry["enum"]),
                                      op["budget"])
        at, steps, unknown = _feed(handle, op["word"])
        return at, {"steps": steps, "unknown": unknown}

    def _set_feed(self, op):
        at, steps, _ = _feed(detector.SetHandle(self.sets[op["set"]]["set"]), op["word"])
        return at, {"steps": steps}

    def _derivative(self, op):
        derived = sequences.derivative_set(op["symbol"], self.sets[op["set"]]["set"])
        return len(derived), None

    def _prefix_free(self, op):
        return sequences.is_prefix_free(self.sets[op["set"]]["set"]), None

    # ---- library operations on specs, traces and lassos

    def _transfer(self, op):
        with open(op["spec"], encoding="utf-8") as handle:
            spec = speclang.parse(handle.read())
        det, init = speclang.compile(spec)
        stream = spec.alphabet.lasso(op["lasso"])
        direct, language = monitor.transfer_to_universal(det, init, stream)
        return [_verdict(direct), _verdict(language)], None

    def _machine(self, op):
        """The kernel automaton as an EilenbergMachine, determinized."""
        spec, _, _ = self._compile(op["spec"])
        kernel = speclang.prefix_free_kernel(spec.pattern, spec.alphabet)
        transitions = [(q, n, kernel.transitions[(q, n)])
                       for q in kernel.states if q != kernel.accept for n in spec.alphabet]
        machine = families.EilenbergMachine(spec.alphabet, kernel.states, transitions,
                                            [kernel.initial], [kernel.accept])
        det, _ = families.machine_to_detector(machine)
        return len(det.states), None

    def _step_loop(self, op):
        """A bare FiniteDetector.step walk; restarts after a fault."""
        _, det, init = self._compile(op["spec"])
        tokens = self._token_list(op["tokens"])
        step, cur = det.step, init
        for token in tokens:
            cur = step(cur, token)
            if cur is FAULT:
                cur = init
        return len(tokens), None

    def _feed_loop(self, op):
        """monitor_online plus feed; a new monitor after each violation."""
        _, det, init = self._compile(op["spec"])
        tokens = self._token_list(op["tokens"])
        live = monitor.monitor_online(det, init)
        for token in tokens:
            if live.feed(token) is not monitor.OK:
                live = monitor.monitor_online(det, init)
        return len(tokens), None

    def _slice_loop(self, op):
        """``slice_from(s, 1)`` once per position of the lasso."""
        spec, _, _ = self._compile(op["spec"])
        stream = spec.alphabet.lasso(op["lasso"])
        steps = len(stream.prefix) + len(stream.period)
        for _ in range(steps):
            stream = sequences.slice_from(stream, 1)
        return steps, None


def main(argv) -> int:
    ops_file, out_dir, results = argv
    with open(ops_file, encoding="utf-8") as handle:
        data = json.load(handle)
    runner = Runner(data["sets"])
    rounds, samples = data["cal_rounds"], []

    def sample(count):
        for _ in range(count):
            samples.append((time.perf_counter(), calibrate(rounds)))

    sample(2)
    with open(results, "w", encoding="utf-8") as sink:
        for op in data["ops"]:
            if time.perf_counter() - samples[-1][0] >= CAL_EVERY_S:
                sample(2 if rounds == CAL_ROUNDS else 1)
            start = time.perf_counter()
            record = runner.run(op, os.path.join(out_dir, f"{op['id']}.out"))
            record["span"] = [start, time.perf_counter()]
            sink.write(json.dumps(record) + "\n")
        sample(2)
        sink.write(json.dumps({"calibration": samples}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
