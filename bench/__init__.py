"""Benchmark harness for stopgo: closed-loop CLI workloads, timed end to end and per module.

Run from the root of a checkout: ``python3 -m bench --workload ensembles --seed 1``.
See ``bench/README.md``.
"""
