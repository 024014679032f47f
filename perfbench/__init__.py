"""Benchmark for the tropcone library; run it through ``perfbench/run.py``."""
