"""Benchmark of navlim's sweeps and dense bound; run `perfbench/run.py`."""
