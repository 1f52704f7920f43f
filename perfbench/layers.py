"""End-to-end and per-layer metrics from the operations of one run.

End-to-end metrics come from untraced operations only.  The per-layer
attribution splits each traced steady step's wall time, as the
benchmark measured it around ``step(1)``, into parts taken from the
program's own spans; ``core.unattributed_ms`` is what the spans leave
over, so the parts always sum to the measured step.

Attribution by driver:

* serial cluster: ranks run one after another on the coordinator, so
  every rank's kernel spans are on the critical path.  The exchange
  runs on the overlap comm thread; only the part the executed overlap
  window did not hide is charged.  ``core.coordinator_ms`` is the step
  wall outside every rank phase span and the exposed exchange.
* processes cluster: per step, the rank with the longest phase spans
  (its busy time) is the critical path; ``core.pipe_rtt_ms`` is the
  step wall minus that busy time.
* single domain: the kernel spans alone.
"""

from __future__ import annotations

import statistics

from hostinfo import median

#: Span names of the collide kernels.  A fused or AA whole-step pass is
#: one ``solver.step`` span: it counts as collide, less the boundary
#: closure spans nested in it, which count as stream.
COLLIDE_SPANS = frozenset(("solver.collide", "solver.collide_boundary",
                           "solver.collide_inner", "solver.step"))
#: Streaming plus the boundary closure.
STREAM_SPANS = frozenset(("solver.stream", "solver.post_stream",
                          "solver.ghosts"))
#: A rank's driver-level phases: their union is the rank's busy time.
RANK_PHASES = frozenset(("cluster.collide", "cluster.collide_boundary",
                         "cluster.collide_inner", "cluster.finish",
                         "cluster.exchange"))

#: Parts of a step, in ms; with ``core.unattributed_ms`` they sum to the
#: measured step.
PARTS = ("lbm.collide_ms", "lbm.stream_ms", "core.exchange_ms",
         "core.pipe_rtt_ms", "core.coordinator_ms")

#: Computed DRAM bytes per cell update for D3Q19 float32 (76 B per
#: population set): one read and one write per pass; split runs a
#: collide and a stream pass, sparse adds its 8-byte gather index.
BYTES_PER_CELL = {"aa": 152, "fused": 152, "sparse": 456, "split": 304}
KERNELS = tuple(BYTES_PER_CELL)

END_TO_END = {"mlups": "Mcells/s", "step_ms_p50": "ms", "wall_s": "s",
              "setup_s": "s", "peak_rss_mb": "MiB"}

PER_LAYER = {
    "urban.voxelize_s": "s", "core.spawn_s": "s",
    "lbm.autotune_s": "s", "lbm.autotune_probes": "count",
    **{f"lbm.kernel.{k}_ranks": "count" for k in KERNELS},
    "lbm.collide_ms": "ms", "lbm.stream_ms": "ms",
    "lbm.bytes_per_cell": "computed-B/cell", "lbm.attained_gbs": "GB/s",
    "host.copy_gbs": "GB/s", "lbm.roofline_frac": "ratio",
    "core.exchange_ms": "ms", "core.halo_bytes_per_step": "B",
    "core.halo_msgs_per_step": "count", "core.overlap_window_ms": "ms",
    "core.pipe_rtt_ms": "ms", "core.imbalance": "ratio",
    "core.coordinator_ms": "ms", "core.unattributed_ms": "ms",
    "core.gather_s": "s", "step_ms_traced": "ms",
    "mem.coordinator_rss_mb": "MiB", "mem.workers_rss_mb": "MiB",
    "shm.leaked_segments": "count", "perf.trace_overhead": "ratio",
    "step_ms_p90": "ms",
}


def _sum(events, names, rank=None) -> float:
    return sum(e.duration_s for e in events
               if e.name in names and (rank is None or e.rank == rank))


def _collide(events, rank=None) -> float:
    """Collide spans' time, less the stream spans nested in them."""
    outer = [e for e in events
             if e.name in COLLIDE_SPANS and (rank is None or e.rank == rank)]
    nested = sum(e.duration_s for e in events if e.name in STREAM_SPANS
                 and any(o.rank == e.rank and o.t0 <= e.t0 and e.t1 <= o.t1
                         for o in outer))
    return sum(e.duration_s for e in outer) - nested


def attribute_step(driver: str, backend: str, step) -> dict[str, float]:
    """Split one traced step (a ``workloads.TracedStep``) into parts, in s."""
    parts = dict.fromkeys(PARTS, 0.0)
    events, wall = step.events, step.wall_s
    if driver == "single":
        parts["lbm.collide_ms"] = _collide(events)
        parts["lbm.stream_ms"] = _sum(events, STREAM_SPANS)
    elif backend == "processes":
        ranks = {e.rank for e in events if e.rank >= 0}
        busy = {r: _sum(events, RANK_PHASES, r) for r in ranks}
        slow = max(busy, key=busy.get)
        parts["lbm.collide_ms"] = _collide(events, slow)
        parts["lbm.stream_ms"] = _sum(events, STREAM_SPANS, slow)
        parts["core.exchange_ms"] = _sum(events, {"cluster.exchange"}, slow)
        parts["core.pipe_rtt_ms"] = wall - busy[slow]
    else:
        ranked = [e for e in events if e.rank >= 0]
        parts["lbm.collide_ms"] = _collide(ranked)
        parts["lbm.stream_ms"] = _sum(ranked, STREAM_SPANS)
        exchange = _sum(events, {"cluster.exchange"})
        parts["core.exchange_ms"] = exchange - min(
            exchange, step.timing.measured_window_s)
        parts["core.coordinator_ms"] = (
            wall - _sum(ranked, RANK_PHASES) - parts["core.exchange_ms"])
    return parts


def attribution(driver: str, backend: str, steps) -> dict[str, float]:
    """Mean per-step parts (ms) over ``steps``, plus the residual."""
    totals = dict.fromkeys(PARTS, 0.0)
    for step in steps:
        for name, value in attribute_step(driver, backend, step).items():
            totals[name] += value
    n = max(1, len(steps))
    out = {name: value * 1e3 / n for name, value in totals.items()}
    out["step_ms_traced"] = sum(s.wall_s for s in steps) * 1e3 / n
    out["core.unattributed_ms"] = out["step_ms_traced"] - sum(
        out[name] for name in PARTS)
    return out


def _steady_steps(ops) -> list[float]:
    return [dt for op in ops for dt in op.step_s]


def end_to_end(ops, cells: int) -> dict[str, float]:
    """The user-visible metrics over untraced operations."""
    step = median(_steady_steps(ops))
    return {
        "mlups": cells / step / 1e6 if step > 0 else 0.0,
        "step_ms_p50": step * 1e3,
        "wall_s": median([op.wall_s for op in ops]),
        "setup_s": median([op.setup_s for op in ops]),
        "peak_rss_mb": median([op.peak_rss_mb for op in ops]),
    }


def per_layer(workload, plain, traced, copy_rates,
              leaked: int) -> dict[str, float]:
    """Per-layer metrics: setup layers from untraced operations,
    attribution and tracing cost from traced ones.  ``leaked`` counts
    segments and workers left behind by every operation attempted."""
    steps = _steady_steps(plain)
    step_s = median(steps)
    p90 = (statistics.quantiles(steps, n=10)[-1] if len(steps) >= 2
           else step_s)
    last = plain[-1]
    cells = sum(last.rank_cells)
    bpc = sum(BYTES_PER_CELL.get(k, 0) * c
              for k, c in zip(last.kernels, last.rank_cells)) / max(1, cells)
    attained = bpc * cells / step_s / 1e9 if step_s > 0 else 0.0
    copy = median(copy_rates)
    traced_steps = [s for op in traced for s in op.traced]
    out = {
        "urban.voxelize_s": median([op.voxelize_s for op in plain]),
        "core.spawn_s": median([op.spawn_s for op in plain]),
        "lbm.autotune_s": median([op.first_step_s - median(op.step_s)
                                  for op in plain]),
        "lbm.autotune_probes": last.autotune_probes,
        **{f"lbm.kernel.{k}_ranks": last.kernels.count(k) for k in KERNELS},
        "lbm.bytes_per_cell": bpc,
        "lbm.attained_gbs": attained,
        "host.copy_gbs": copy,
        "lbm.roofline_frac": attained / copy if copy > 0 else 0.0,
        "core.halo_bytes_per_step": last.halo_bytes,
        "core.halo_msgs_per_step": last.halo_msgs,
        "core.overlap_window_ms": 1e3 * statistics.fmean(
            [getattr(s.timing, "measured_window_s", 0.0)
             for s in traced_steps] or [0.0]),
        "core.imbalance": median([op.imbalance for op in traced]),
        "core.gather_s": median([op.gather_s for op in plain]),
        "mem.coordinator_rss_mb": median([op.coordinator_rss_mb
                                          for op in plain]),
        "mem.workers_rss_mb": median([op.workers_rss_mb for op in plain]),
        "shm.leaked_segments": leaked,
        "step_ms_p90": p90 * 1e3,
    }
    out.update(attribution(workload.driver, workload.backend, traced_steps))
    traced_p50 = median(_steady_steps(traced))
    out["perf.trace_overhead"] = traced_p50 / step_s if step_s > 0 else 0.0
    return out

