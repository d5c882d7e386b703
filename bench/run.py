#!/usr/bin/env python3
"""vigil's benchmark.

Run from the root of a source checkout (nothing needs building)::

    python3 bench/run.py --workload trace_monitor --seed 1 --seconds 22 --trace 0
    python3 bench/run.py --all --seed 1 --seconds 22   # every workload, one table
    python3 bench/run.py --baseline                    # the ROADMAP item-1 figures

Workloads: trace_monitor, spec_compile, lasso_check, word_sets (see
bench/README.md).  Load model: a closed loop with one caller and no think
time.  Inputs are generated from the seed into ``.bench_work/`` before
timing.  Each timed pass runs every operation of the workload once, in a
fresh single-threaded child process; passes repeat until ``--seconds`` of
pass time has been measured.  Every output is checked against an
independent reference.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate in-process traced run (spans go to ``.bench_out/``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

END_TO_END = {
    "setup_s": "s",
    "verdict_p50_s": "s",
    "verdict_p90_s": "s",
    "ops_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
SETUP_LAUNCHES = 9
VIGIL = [sys.executable, "-c", "import sys; from vigil.cli import main; sys.exit(main())"]


def _require_checkout() -> None:
    for part in (("src", "vigil", "cli.py"), ("tests", "support.py")):
        if not os.path.isfile(os.path.join(ROOT, *part)):
            sys.exit(f"error: {os.path.join(*part)} not found; run from a vigil checkout")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
    return env


def launch(argv, stderr=None, timeout=150.0):
    """Run a child to completion, waiting with wait4; returns (wall
    seconds, exit code).  A child past ``timeout`` is killed (exit -9)."""
    start = time.perf_counter()
    with open(os.devnull, "w") as null, open(stderr or os.devnull, "w") as err:
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=null, stderr=err,
                                env=_child_env(), cwd=ROOT)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        _, status, _ = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return time.perf_counter() - start, proc.returncode


def launch_measured(argv, usage_path, stderr=None, timeout=150.0):
    """``launch`` through vigilbench.spawn, so that the child's peak RSS is
    its own (see there); returns (wall seconds, exit code, usage dict with
    cpu_s and maxrss_mb, or None if the launcher failed)."""
    wall, code = launch([sys.executable, "-m", "vigilbench.spawn", usage_path,
                         str(timeout), *argv], stderr, timeout + 10)
    if code != 0:
        return wall, code, None
    with open(usage_path, encoding="utf-8") as handle:
        usage = json.load(handle)
    return wall, usage["exit"], usage


def setup_command(wl) -> list:
    """A fresh ``vigil`` on the workload's empty input: an empty trace, the
    smallest spec, a one-token safe lasso, or ``import vigil``."""
    if wl.name == "trace_monitor":
        empty = os.path.join(wl.work, "empty.txt")
        open(empty, "w").close()
        return VIGIL + ["monitor", wl.specs[0], "--trace", empty]
    if wl.name == "spec_compile":
        path = os.path.join(wl.work, "smallest.vgl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("alphabet a b ;\nviolation a ;\n")
        return VIGIL + ["check", path]
    if wl.name == "lasso_check":
        spec = wl.streams[0][0]
        used = {s for c in spec.classes for s in c}
        quiet = next(s for s in spec.symbols if s not in used)
        return VIGIL + ["monitor", wl.specs[0], "--lasso", f" ; {quiet}"]
    return [sys.executable, "-c", "import vigil"]


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, reason) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAILED: {reason}", file=sys.stderr)


def measure_setup(wl, tally: Tally) -> list[float]:
    """Launch times in reference seconds, scaled by calibration samples
    taken between the launches."""
    from vigilbench import calib

    argv = setup_command(wl)
    walls, samples = [], []
    for _ in range(SETUP_LAUNCHES):
        samples.append(calib.calibrate())
        wall, code = launch(argv)
        tally.add(None if code == 0 else f"setup launch exited {code}")
        walls.append(wall)
    scale = calib.factor(samples)
    return [wall * scale for wall in walls]


def timed_run(wl, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """Passes in fresh children until ``seconds`` of pass time.  Returns the
    end-to-end metrics, in reference seconds (see vigilbench.calib), and
    the sample counts behind them."""
    from vigilbench import calib, verify

    setup = measure_setup(wl, tally)
    ops_file = os.path.join(wl.work, "ops.json")
    out_dir = os.path.join(wl.work, "out")
    results = os.path.join(wl.work, "results.jsonl")
    errors = os.path.join(wl.work, "pass.err")
    usage_file = os.path.join(wl.work, "usage.json")
    os.makedirs(out_dir, exist_ok=True)
    walls, cpu, rss, scales = [], [], [], []
    tokens = token_time = 0.0
    measured = 0.0
    while measured < seconds:
        wall, code, usage = launch_measured([sys.executable, "-m", "vigilbench.ops",
                                             ops_file, out_dir, results], usage_file, errors)
        measured += wall
        records, samples = {}, None
        if code == 0:
            with open(results, encoding="utf-8") as handle:
                for record in map(json.loads, handle):
                    if "calibration" in record:
                        samples = record["calibration"]
                    else:
                        records[record["id"]] = record
        else:
            with open(errors, encoding="utf-8") as handle:
                print(handle.read()[-2000:], file=sys.stderr)
        scale = calib.factor([s for _, s in samples], wl.cal_rounds) if samples else 1.0
        scales.append(scale)
        if usage is not None:
            cpu.append(usage["cpu_s"] * scale)
            rss.append(usage["maxrss_mb"])
        for op in wl.ops:
            record = records.get(op["id"])
            out = os.path.join(out_dir, f"{op['id']}.out")
            if record is None:
                tally.add(f"pass child exited {code} before operation {op['id']}")
                continue
            tally.add(verify.check(wl, op, record, out))
            if record["wall"] is not None:
                walls.append(record["wall"]
                             * calib.local_factor(samples, *record["span"], wl.cal_rounds))
                if op["expect"]["type"] == "trace":
                    first = op["expect"]["first"]
                    tokens += first if first is not None else op["expect"]["length"]
                    token_time += walls[-1]
            if os.path.exists(out):
                os.remove(out)
    metrics = {
        "setup_s": statistics.median(setup),
        "verdict_p50_s": statistics.median(walls),
        "verdict_p90_s": statistics.quantiles(walls, n=10, method="inclusive")[8],
        "ops_per_s": len(walls) / sum(walls),
        "cpu_s": statistics.median(cpu),
        "peak_rss_mb": statistics.median(rss),
    }
    counts = {"setup_s": len(setup), "verdict_p50_s": len(walls),
              "verdict_p90_s": len(walls), "ops_per_s": len(walls),
              "cpu_s": len(cpu), "peak_rss_mb": len(rss)}
    if token_time:
        metrics["monitor_tokens_per_s"] = tokens / token_time
        counts["monitor_tokens_per_s"] = sum(
            1 for op in wl.ops if op["expect"]["type"] == "trace") * len(cpu)
    metrics["speed_factor"] = statistics.median(scales)
    counts["speed_factor"] = len(scales)
    return metrics, counts


def traced_run(wl, seconds: float, tally: Tally, seed: int,
               spans_dir: str = os.path.join(ROOT, ".bench_out")) -> tuple[dict, dict]:
    """The workload's operations in this process, alternately untraced and
    traced until half of ``seconds``, then the layer probes traced."""
    from vigilbench import layers, ops, spans, verify

    runner = ops.Runner(wl.set_file)
    tracer = spans.Tracer()
    out = os.path.join(wl.work, "traced.out")
    plain, traced, records = [], [], []
    executions = 0

    def run(op, on: bool):
        nonlocal executions
        tracer.op = executions
        executions += 1
        if on:
            tracer.install()
        try:
            record = runner.run(op, out)
        finally:
            tracer.uninstall()
        record["op"] = tracer.op
        return record

    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds / 2:
        for on, sink in ((False, plain), (True, traced)):
            for op in wl.ops:
                record = run(op, on)
                tally.add(verify.check(wl, op, record, out))
                if record["wall"] is not None:
                    sink.append(record["wall"])
                if on:
                    records.append(record)
    with open(wl.set_file, encoding="utf-8") as handle:
        symbols = json.load(handle)["alphabet"]
    probes = layers.probe_ops(wl, symbols, start_id=len(wl.ops))
    for op in probes:
        records.append(run(op, op.get("call") not in layers.UNTRACED_CALLS))
    ops_by_id = {op["id"]: op for op in wl.ops + probes}
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics, counts = layers.compute(tracer.spans, records, ops_by_id, overhead)
    counts["trace.overhead_s"] = len(traced)

    os.makedirs(spans_dir, exist_ok=True)
    tracer.dump(os.path.join(spans_dir, f"spans-{wl.name}-seed{seed}.json"))
    print(f"traced: {len(tracer.spans)} spans; tracing overhead per operation "
          f"{overhead:+.6f} s (p50 traced {statistics.median(traced):.6f} s, "
          f"untraced {statistics.median(plain):.6f} s, n={len(traced)}/{len(plain)})")
    print("self time per layer (median s per operation that uses the layer):")
    for layer, values in sorted(spans.layer_self_by_op(tracer.spans).items()):
        print(f"  {layer:<10} {statistics.median(values):.6f} s  "
              f"total {sum(values):.4f} s  n={len(values)}")
    return metrics, counts


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    from vigilbench import gen, ref

    work = os.path.join(ROOT, ".bench_work", f"{name}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        support = ref.load_support(ROOT)
        wl = gen.generate(name, seed, work, "full", support)
        tally = Tally()
        if trace:
            metrics, counts = traced_run(wl, seconds, tally, seed)
        else:
            metrics, counts = timed_run(wl, seconds, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return metrics, counts, tally


def _print_metrics(name, metrics, counts, units, tally) -> None:
    for key, value in metrics.items():
        n = f"  n={counts[key]}" if key in counts else ""
        print(f"{name:<14} {key:<32} {value:>16.6f} {units.get(key, ''):<6}{n}")
    print(f"{name:<14} {'error_rate':<32} {tally.failed / tally.attempted:>16.6f} "
          f"{'ratio':<6}  n={tally.attempted}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--baseline", action="store_true",
                        help="reproduce the ROADMAP item-1 baselines once")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=22)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _require_checkout()
    sys.path[:0] = [SRC]
    from vigilbench import gen, layers

    if args.baseline:
        from vigilbench import baseline

        baseline.main(ROOT, VIGIL, launch_measured)
        return 0
    names = gen.WORKLOADS if args.all else [args.workload]
    if names == [None]:
        parser.error("give --workload NAME, --all or --baseline")
    units = dict(END_TO_END, monitor_tokens_per_s="1/s", speed_factor="ratio",
                 **layers.METRICS)
    summary = {}
    for name in names:
        metrics, counts, tally = run_workload(name, args.seed, args.seconds, bool(args.trace))
        _print_metrics(name, metrics, counts, units, tally)
        keep = layers.METRICS if args.trace else END_TO_END
        summary[name] = {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in keep},
        }
    if args.all:
        print(json.dumps(summary))
    else:
        print(json.dumps(summary[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
