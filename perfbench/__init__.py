"""The repository's benchmark: four workloads, one result line per run.

Run one workload from the repository root::

    python3 perfbench/run.py --workload dse --seed 1 --seconds 8 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and the layer
table.
"""
