"""Steady end-to-end and per-layer benchmark of the DAIL-SQL reproduction.

Run ``python3 perfbench/run.py --help`` from the repository root; see
``perfbench/README.md`` for the workloads, metrics and traced run.
"""
