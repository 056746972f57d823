"""Benchmark of the hadcl program: workloads, tracing and output checks.

Run it through perfbench/run.py; see README.md in this directory.
"""
