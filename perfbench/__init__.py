"""Benchmark harness for the mapping engine and service (see run.py)."""
