"""Machine-speed calibration for the timed end-to-end metrics.

The machine's speed drifts over seconds to minutes: on the 2-core machine
the benchmark was tuned on, one CLI monitor run over 0.7M tokens took
between 0.68 and 1.43 s within 100 seconds.  Each timed pass therefore
interleaves :func:`calibrate` with its operations, and each operation's
time is multiplied by the :func:`local_factor` of the samples around it,
so that times read as seconds on a machine where one round of the loop
takes CAL_ROUND_S.

The loop does what vigil's hot paths do (split a line into fresh strings,
look each up in a dict, append to a list), on its own data.  A change to
vigil moves the operations and not the loop.  Short operations get short
samples, often; the monitor runs over a million tokens get long samples,
whose growing list tracks the memory-bound slowdowns that a short sample
misses (over 7-second blocks of those runs: spread 28 % raw, 12 % scaled
by short samples, 7 % by long ones).
"""

from __future__ import annotations

import gc
import statistics
import time

CAL_ROUNDS = 100
CAL_ROUND_S = 40e-6
CAL_EVERY_S = 0.1

_WORDS = [f"w{i:03d}" for i in range(64)]
_LINE = " ".join(_WORDS[(i * 37) % 64] for i in range(256))
_TABLE = {w: {v: _WORDS[(i * 7 + j) % 64] for j, v in enumerate(_WORDS)}
          for i, w in enumerate(_WORDS)}


def calibrate(rounds: int = CAL_ROUNDS) -> float:
    """Seconds for ``rounds`` rounds of table walking, with the garbage
    collector off so that vigil's heap cannot add a collection to it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        state, trail = _WORDS[0], []
        for _ in range(rounds):
            for token in _LINE.split():
                state = _TABLE[state][token]
                trail.append(state)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def factor(samples, rounds: int = CAL_ROUNDS) -> float:
    """Scale from measured seconds to reference seconds."""
    return rounds * CAL_ROUND_S / statistics.median(samples)


def local_factor(samples, start: float, end: float, rounds: int) -> float:
    """The scale for an operation that ran from ``start`` to ``end``, from
    the two (time, seconds) samples taken before it and the two after."""
    before = [s for t, s in samples if t <= start][-2:]
    after = [s for t, s in samples if t >= end][:2]
    return factor(before + after, rounds)
