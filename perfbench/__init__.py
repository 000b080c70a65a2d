"""Seeded end-to-end and per-layer benchmark of the DryBell reproduction.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; ``BENCHMARK.json`` lists the
workloads and metrics, and ``perfbench/layers.json`` records which
end-to-end metric each per-layer metric should move.
"""
