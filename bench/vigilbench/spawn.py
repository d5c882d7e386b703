"""Runs one command and reports its own resource use::

    python -m vigilbench.spawn USAGE_JSON TIMEOUT_S COMMAND...

A child's ``ru_maxrss`` from ``wait4`` includes the peak RSS of the process
that started it: at exec, Linux records the old address space's
high-water mark, and with vfork that address space is the parent's.  The
benchmark's parent holds generated inputs and parsed outputs, so it starts
measured children through this small process, which waits for the command
with ``os.wait4``, kills it after TIMEOUT_S, and writes the command's exit
code, CPU seconds and peak RSS to USAGE_JSON.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading


def main(argv) -> int:
    usage_path, timeout, command = argv[0], float(argv[1]), argv[2:]
    proc = subprocess.Popen(command)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(usage_path, "w", encoding="utf-8") as handle:
        json.dump({"exit": proc.returncode, "cpu_s": usage.ru_utime + usage.ru_stime,
                   "maxrss_mb": usage.ru_maxrss / 1024}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
