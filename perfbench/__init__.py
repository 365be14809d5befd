"""Benchmark for the mebench pipeline; see README.md."""
