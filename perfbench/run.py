"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --write-benchmark-json   # regenerate BENCHMARK.json
    python3 -m pytest perfbench -q                    # the benchmark's self-tests

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: every end-to-end metric with
``--trace 0``, every per-layer metric with ``--trace 1``.  The line
before it is ``{"info": ...}``, which records what was run (seed,
geometry, matrix sizes, technique and request mix, versions, ratio
bases, records digest).  Scratch files go to ``.bench_work/`` under
the repository root and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-benchmark-json", action="store_true")
    return parser.parse_args(argv)


def result_line(result, trace: bool) -> dict:
    """The final output line; every metric of the run's kind, with its unit."""
    from perfbench import spec

    rows = spec.PER_LAYER if trace else [row[:2] for row in spec.END_TO_END]
    units = dict(rows)
    if set(result.metrics) != set(units):
        raise ValueError(f"metric set mismatch: {sorted(set(result.metrics) ^ set(units))}")
    return {
        "correct": bool(result.correct),
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": {
            name: {"value": float(result.metrics[name]), "unit": unit} for name, unit in rows
        },
    }


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from perfbench import spec

    if args.write_benchmark_json:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w", encoding="utf-8") as handle:
            handle.write(spec.render_benchmark_json())
        return 0
    if args.workload not in spec.WORKLOADS:
        print(f"--workload must be one of {list(spec.WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        from perfbench.serving import run_serve
        from perfbench.sweeps import run_sweep
    except ImportError as exc:
        print(f"cannot import the program under test: {exc}", file=sys.stderr)
        return 2

    scratch = os.path.join(ROOT, ".bench_work")
    work = os.path.join(scratch, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    # Memo, serve store, run ledger and temporary files default to the
    # working directory, these variables or the system temp directory;
    # keep all of them inside the scratch directory.  The spawned server
    # imports the program from the same source tree.
    os.environ["REPRO_CACHE_DIR"] = os.path.join(work, "repro-cache")
    os.environ["REPRO_RUNS_DIR"] = os.path.join(work, "runs")
    os.environ["TMPDIR"] = work
    tempfile.tempdir = None  # re-read TMPDIR
    os.environ["PYTHONPATH"] = os.path.join(ROOT, "src")
    try:
        if args.workload == "serve-zipf":
            result = run_serve(args.seed, args.seconds, bool(args.trace), work)
        else:
            result = run_sweep(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run still uses it
    line = result_line(result, bool(args.trace))
    print(json.dumps({"info": result.info}, sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
