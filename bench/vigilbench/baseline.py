"""One-off reproduction of the baselines listed under ROADMAP item 1.

Single runs, not medians: these figures are for comparing with the ROADMAP
text, not for accepting a change (the workloads do that).
"""

from __future__ import annotations

import os
import random
import shutil
import time

from . import gen, ref


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def main(root: str, vigil: list, launch_measured) -> None:
    from vigil import bisim, monitor, speclang
    from vigil.systems import FAULT

    rng = random.Random("baseline")
    work = os.path.join(root, ".bench_work", f"baseline-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    usage_path = os.path.join(work, "usage.json")
    try:
        # CLI monitor --trace on 4M tokens, multi-character and one-letter names
        letters = ref.WindowSpec(["a", "b", "c"], [["a"], ["b"], ["a", "c"], ["b"], ["b"],
                                                   ["c"], ["a"], ["b"]])
        for label, spec in (("event names", gen.window_spec(rng)), ("a b c", letters)):
            buf = gen._random_codes(rng, spec, 4_000_000)
            gen._break_matches(rng, spec, buf, gen._set)
            spec_path = gen._write(os.path.join(work, "big.vgl"), spec.text())
            trace = os.path.join(work, "big.txt")
            gen._write_tokens(trace, spec.names(buf))
            wall, code, usage = launch_measured(
                vigil + ["monitor", spec_path, "--trace", trace], usage_path)
            print(f"cli monitor --trace 4M tokens ({label}): {wall:.2f} s, "
                  f"{4_000_000 / wall:,.0f} tok/s, peak RSS {usage['maxrss_mb']:.0f} MB, "
                  f"exit {code}")
        open(trace, "w").close()
        wall, code, usage = launch_measured(vigil + ["monitor", spec_path, "--trace", trace],
                                            usage_path)
        print(f"cli monitor --trace empty trace: {wall:.3f} s, "
              f"peak RSS {usage['maxrss_mb']:.0f} MB, exit {code}")

        # library feed against a raw walk of the same step table
        spec = gen.window_spec(rng)
        det, init = speclang.compile(speclang.parse(spec.text()))
        buf = gen._random_codes(rng, spec, 1_000_000)
        gen._break_matches(rng, spec, buf, gen._set)
        tokens = spec.names(buf)
        live = monitor.monitor_online(det, init)
        feed_s, _ = _timed(lambda: [live.feed(t) for t in tokens])
        table = det.step_table

        def walk():
            cur = init
            for t in tokens:
                cur = table[(cur, t)]
                if cur is FAULT:
                    cur = init

        walk_s, _ = _timed(walk)
        print(f"monitor_online feed: {len(tokens) / feed_s:,.0f} tok/s; raw table walk: "
              f"{len(tokens) / walk_s:,.0f} tok/s ({len(det.states)} states)")

        # monitor_lasso by period length on a detector of about 20 states
        spec = gen.window_spec(rng, 18, 22)
        parsed = speclang.parse(spec.text())
        det, init = speclang.compile(parsed)
        for period in (200, 400, 800, 1600):
            literal, _, _ = gen._lasso(rng, spec, 10, period, violate=False)
            seconds, verdict = _timed(monitor.monitor_lasso, det, init,
                                      parsed.alphabet.lasso(literal))
            print(f"monitor_lasso P={period} ({len(det.states)} states): {seconds:.3f} s, "
                  f"{type(verdict).__name__}")

        # compile and bisimilar on the k ladder
        for k in (6, 8, 10):
            text = ref.spec_text(["a", "b"], gen._ladder(k))
            seconds, (det, init) = _timed(speclang.compile, speclang.parse(text))
            line = f"compile ladder k={k}: {len(det.states)} states in {seconds:.2f} s"
            if k == 10:
                same, _ = _timed(bisim.bisimilar, det, init, det, init)
                line += f"; bisimilar with itself {same:.2f} s"
            print(line)
    finally:
        shutil.rmtree(work, ignore_errors=True)
