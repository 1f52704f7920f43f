"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload city_procs --seed 1 --seconds 30 --trace 0

The seed generates the inputs (city model and initial velocity field).
A warm-up operation runs first; then operations repeat until
``--seconds`` have passed.  Every operation's gathered fields are
checked against the single-domain phase-split reference, computed once
per run.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` untraced and traced operations
alternate and it carries the per-layer metrics.  The line before it is
a JSON context record: host fingerprint, operation counts, each
operation's per-rank kernels, and the first problems found.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
import traceback

import hostinfo
import layers
import workloads


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    return args


def attempt(inputs, ref, traced: bool):
    """One checked operation: (result, or None if it raised; problems)."""
    try:
        res = workloads.run_op(inputs, ref, traced=traced)
    except Exception:
        return None, [traceback.format_exc(limit=3)]
    finally:
        gc.collect()
    return res, res.problems


def run(args) -> tuple[dict, dict]:
    workload = workloads.WORKLOADS[args.workload]
    inputs = workloads.make_inputs(workload, args.seed)
    ref = workloads.reference_fields(inputs)
    host = hostinfo.fingerprint()
    copy_rates = []
    if args.trace:
        host["copy_array_bytes"] = hostinfo.COPY_ARRAY_BYTES
        copy_rates += hostinfo.copy_gbs()
    plain, traced, kernels, problems = [], [], [], []
    attempted = failed = leaked = 0
    deadline = None     # the first operation is an untimed warm-up
    while (deadline is None or time.perf_counter() < deadline
           or (args.trace and not (plain and traced) and failed < 3)):
        use_trace = bool(args.trace) and attempted % 2 == 0 and attempted > 0
        res, op_problems = attempt(inputs, ref, traced=use_trace)
        attempted += 1
        problems += op_problems
        leaked += res.leaked if res is not None else 0
        if op_problems:
            failed += 1
        elif deadline is not None:
            (traced if use_trace else plain).append(res)
            kernels.append(res.kernels)
        if deadline is None:
            deadline = time.perf_counter() + args.seconds
    if args.trace:
        copy_rates += hostinfo.copy_gbs()
        units = layers.PER_LAYER
        values = (layers.per_layer(workload, plain, traced, copy_rates,
                                   leaked)
                  if plain and traced else dict.fromkeys(units, 0.0))
    else:
        units = layers.END_TO_END
        values = (layers.end_to_end(plain, inputs.cells) if plain
                  else dict.fromkeys(units, 0.0))
    context = {
        "workload": workload.name, "seed": args.seed, "host": host,
        "cells": inputs.cells, "steps_per_op": workload.steps,
        "ops_untraced": len(plain), "ops_traced": len(traced),
        "step_samples": sum(len(op.step_s) for op in plain),
        "kernels_per_op": kernels,
        "kernel_flaps": sum(k != kernels[0] for k in kernels),
        "problems": problems[:5],
    }
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    return context, result


def main(argv=None) -> int:
    try:
        context, result = run(parse_args(argv))
    finally:
        hostinfo.stop_resource_tracker()
    print(json.dumps(context))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
