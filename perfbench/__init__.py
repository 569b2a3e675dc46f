"""Benchmark harness for stacksolver; see README.md in this directory."""
