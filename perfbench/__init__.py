"""The Clarify benchmark: seeded workloads, output checks and a per-layer ledger.

Run one workload with ``python3 perfbench/run.py --workload <name>``; see
``perfbench/README.md`` for the workloads, metrics and layer table.
"""
