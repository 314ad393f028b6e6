"""Benchmark harness for freqtrack; run it with ``python3 perfbench/run.py``."""
