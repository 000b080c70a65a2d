"""Run one benchmark workload and print its metrics as JSON.

Usage, from the repository root::

    python3 perfbench/run.py --workload offline_mapreduce --seed 1 \\
        --seconds 20 --trace 0

The workload's inputs come from ``--seed``; the measured loop runs for
about ``--seconds``. With ``--trace 0`` the last line of standard output
holds every end-to-end metric of ``BENCHMARK.json``; with ``--trace 1``
it holds every per-layer metric instead: the counters and spans each
layer exposes, each layer's self time as a share of the measured wall
time, the share no layer covers, and the tracing overhead (one untraced
and one traced pass of ``--seconds / 2`` each). Spans are written to
``perfbench/out/``. Every output check that fails marks its operations
failed and sets ``"correct": false``. ``--workload all`` runs the four
workloads one after another, each in its own process.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import sys

#: Workload name -> module under ``perfbench``.
WORKLOADS = ("offline_mapreduce", "durable_stream", "serve_hot_swap", "vote_stream")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=(*WORKLOADS, "all")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _host() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _run_all(args: argparse.Namespace) -> int:
    """Run every workload in its own process, one after another."""
    import subprocess

    status = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        done = subprocess.run(
            [
                sys.executable, os.path.abspath(__file__),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ],
            check=False,
        )
        status = status or done.returncode
    return status


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(
            f"perfbench: no program source at {os.path.join(ROOT, 'src')}; "
            "run from a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    if args.workload == "all":
        return _run_all(args)
    # One BLAS thread: the load comes from the benchmark's own threads.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)

    from perfbench.common import LAYERS, Spans, self_times

    workload = importlib.import_module(f"perfbench.{args.workload}")
    print("host", json.dumps(_host(), sort_keys=True))
    inputs = workload.prepare(args.seed)

    if not args.trace:
        outcome = workload.measure(inputs, args.seed, args.seconds, Spans(False))
        wanted = spec["end_to_end"]
        values = outcome.metrics
    else:
        half = args.seconds / 2
        plain = workload.measure(inputs, args.seed, half, Spans(False))
        spans = Spans(True)
        outcome = workload.measure(inputs, args.seed, half, spans)
        outcome.attempted += plain.attempted
        outcome.failed += plain.failed
        outcome.checks += plain.checks
        spans.write(
            os.path.join(
                ROOT, "perfbench", "out",
                f"{args.workload}-seed{args.seed}.spans.jsonl",
            )
        )
        self_s, wall = self_times(spans.records)
        for layer, seconds in outcome.layer_self_s.items():
            self_s[layer] = self_s.get(layer, 0.0) + seconds
        wanted = spec["per_layer"]
        # Layers a workload does not run report zero.
        values = {m["name"]: 0.0 for m in wanted}
        values.update(outcome.layers)
        for layer in LAYERS:
            values[f"{layer}.self_share"] = self_s.get(layer, 0.0) / wall
        values["unaccounted_share"] = self_s.get("bench", 0.0) / wall
        values["trace_overhead_share"] = 1.0 - (
            outcome.metrics["throughput_eps"] / plain.metrics["throughput_eps"]
        )

    names = [m["name"] for m in wanted]
    if set(values) != set(names):
        raise KeyError(
            f"{args.workload} metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(names) - set(values))}, "
            f"unlisted {sorted(set(values) - set(names))}"
        )
    for m in wanted:
        print(f"{m['name']:<34} {values[m['name']]:>14.6g} {m['unit']}")
    for line in outcome.checks:
        print("CHECK FAILED:", line)
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0 and not outcome.checks,
                "attempted": int(outcome.attempted),
                "failed": int(outcome.failed),
                "metrics": {
                    m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                    for m in wanted
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
