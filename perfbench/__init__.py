"""End-to-end benchmark of the kriging evaluator's real workloads.

Run it from the repository root::

    python3 perfbench/run.py --workload inloop-hevc --seed 1 --seconds 30 --trace 0

See ``perfbench/README.md`` for the workloads and the metrics.
"""
