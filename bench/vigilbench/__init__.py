"""Benchmark harness for vigil: seeded inputs, independent references,
timed passes in child processes, and a traced run for per-layer numbers.

Run it through ``bench/run.py``; see that file for the command line.
"""
