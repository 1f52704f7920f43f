"""Workloads: seeded inputs, one timed operation, and the output check.

An *operation* is one time-to-solution run through the public API:
scenario and voxelize (city workloads), driver construction, initial
state load, the first (autotuning) step, ``steps - 1`` further steps
each timed on its own, and the gathered fields.  The driver is shut
down after the clock stops; a processes-backend operation is then
audited for leaked shared-memory segments and live workers.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import hostinfo

SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "repro" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no repro package under {SRC}; "
                     "run from the root of a repository checkout")
sys.path.insert(0, str(SRC))

from repro.core import ClusterConfig, CPUClusterLBM, leaked_segments  # noqa: E402
from repro.lbm import D3Q19, LBMSolver, clear_autotune_cache, equilibrium  # noqa: E402
from repro.perf.report import trace_imbalance_rows  # noqa: E402
from repro.perf.trace import Tracer  # noqa: E402
from repro.urban import DispersionScenario, times_square_like  # noqa: E402

#: Metres per lattice spacing of the city workloads: the 1.66 x 1.13 km
#: Times-Square-like city fits a 128 x 96 x 32 lattice.
RESOLUTION_M = 16.0
#: Relative amplitude of the seeded velocity perturbation.
PERTURBATION = 0.2
#: Amplitude of the all-fluid box's velocity field (lattice units).
BOX_SPEED = 0.02


@dataclass(frozen=True)
class Workload:
    name: str
    shape: tuple[int, int, int]
    #: "cluster" drives CPUClusterLBM, "single" drives LBMSolver.
    driver: str
    city: bool
    arrangement: tuple[int, int, int] = (1, 1, 1)
    backend: str = "serial"
    #: Steps per operation: the first is setup, the rest are timed.
    steps: int = 12


WORKLOADS = {
    "city_procs": Workload("city_procs", (128, 96, 32), "cluster", city=True,
                           arrangement=(2, 1, 1), backend="processes"),
    "fluid_serial": Workload("fluid_serial", (64, 64, 64), "cluster",
                             city=False, arrangement=(2, 2, 1)),
    "city_single": Workload("city_single", (128, 96, 32), "single",
                            city=True),
}


@dataclass
class Inputs:
    """Everything the seed determines; the program sees only these."""
    workload: Workload
    city: object | None
    tau: float
    wind: np.ndarray | None
    rho: np.ndarray
    u: np.ndarray

    @property
    def cells(self) -> int:
        return int(np.prod(self.workload.shape))


def _smooth_field(rng: np.random.Generator, shape, amplitude: float,
                  modes: int = 3) -> np.ndarray:
    """A (3,) + shape float32 velocity field of a few periodic sine modes."""
    grids = np.meshgrid(*(np.arange(n) / n for n in shape), indexing="ij")
    out = np.zeros((3,) + tuple(shape))
    for comp in range(3):
        for _ in range(modes):
            k = rng.integers(1, 4, size=3)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            arg = 2.0 * np.pi * sum(ki * g for ki, g in zip(k, grids)) + phase
            out[comp] += rng.uniform(-1.0, 1.0) * np.sin(arg)
    scale = amplitude / max(float(np.abs(out).max()), 1e-12)
    return (out * scale).astype(np.float32)


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """Seeded inputs: the city model and the initial velocity field."""
    rng = np.random.default_rng(seed)
    shape = workload.shape
    rho = np.ones(shape, dtype=np.float32)
    if workload.city:
        city = times_square_like(seed)
        scenario = DispersionScenario(shape=shape, resolution_m=RESOLUTION_M,
                                      city=city)
        wind = np.asarray(scenario.wind, dtype=np.float64)
        speed = float(np.linalg.norm(wind))
        u = (wind.astype(np.float32).reshape(3, 1, 1, 1)
             + _smooth_field(rng, shape, PERTURBATION * speed))
        return Inputs(workload, city, scenario.tau, wind, rho, u)
    u = _smooth_field(rng, shape, BOX_SPEED)
    return Inputs(workload, None, ClusterConfig.tau, None, rho, u)


def scenario_of(inputs: Inputs) -> DispersionScenario:
    return DispersionScenario(shape=inputs.workload.shape,
                              resolution_m=RESOLUTION_M, city=inputs.city)


@dataclass
class Reference:
    """The single-domain phase-split oracle after one operation's steps."""
    rho: np.ndarray
    u: np.ndarray
    fluid: np.ndarray


def reference_fields(inputs: Inputs) -> Reference:
    wl = inputs.workload
    if wl.city:
        solver = scenario_of(inputs).make_single_solver(kernel="split")
    else:
        solver = LBMSolver(wl.shape, inputs.tau, periodic=True, kernel="split")
    solver.initialize(rho=inputs.rho, u=inputs.u)
    solver.step(wl.steps)
    rho, u = solver.macroscopic()
    return Reference(rho, u, solver.fluid.copy())


def check_fields(inputs: Inputs, ref: Reference, rho, u) -> list[str]:
    """Problems with one operation's gathered fields (empty when correct)."""
    problems = []
    if not (np.isfinite(rho).all() and np.isfinite(u).all()):
        problems.append("non-finite gathered fields")
    if inputs.wind is not None:
        mean_u = u[:, ref.fluid].mean(axis=1, dtype=np.float64)
        wind = inputs.wind
        along = float(mean_u @ wind) / float(wind @ wind)
        cosine = float(mean_u @ wind) / max(
            float(np.linalg.norm(mean_u) * np.linalg.norm(wind)), 1e-30)
        if not (along > 0.5 and cosine > 0.9):
            problems.append(f"flow does not follow the wind "
                            f"(along={along:.3f}, cosine={cosine:.3f})")
    if not (np.array_equal(rho, ref.rho) and np.array_equal(u, ref.u)):
        problems.append("fields differ from the phase-split reference")
    return problems


@dataclass
class TracedStep:
    """One traced steady step: its wall time, new spans and timing."""
    wall_s: float
    events: list
    timing: object = None


@dataclass
class OpResult:
    setup_s: float = 0.0
    wall_s: float = 0.0
    voxelize_s: float = 0.0
    spawn_s: float = 0.0
    first_step_s: float = 0.0
    gather_s: float = 0.0
    step_s: list[float] = field(default_factory=list)
    traced: list[TracedStep] = field(default_factory=list)
    kernels: list[str] = field(default_factory=list)
    autotune_probes: int = 0
    rank_cells: list[int] = field(default_factory=list)
    halo_bytes: int = 0
    halo_msgs: int = 0
    #: Max-over-mean rank busy time over the traced steps (1 on one rank).
    imbalance: float = 1.0
    coordinator_rss_mb: float = 0.0
    workers_rss_mb: float = 0.0
    leaked: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def peak_rss_mb(self) -> float:
        return self.coordinator_rss_mb + self.workers_rss_mb


def _cluster_config(inputs: Inputs, scenario) -> ClusterConfig:
    wl = inputs.workload
    sub = tuple(s // a for s, a in zip(wl.shape, wl.arrangement))
    if scenario is None:
        return ClusterConfig(sub_shape=sub, arrangement=wl.arrangement,
                             backend=wl.backend)
    return ClusterConfig(sub_shape=sub, arrangement=wl.arrangement,
                         tau=scenario.tau, periodic=(False, False, False),
                         solid=scenario.solid, inlet=scenario.inlet,
                         outflow=scenario.outflow, backend=wl.backend)


def run_op(inputs: Inputs, ref: Reference, traced: bool = False) -> OpResult:
    """One operation, timed from scenario to gathered fields, then checked.

    With ``traced`` the driver's span tracer is on and every steady
    step's new spans are kept for attribution.  Raises whatever the
    program raises; the caller counts that as a failed operation.
    """
    wl = inputs.workload
    res = OpResult()
    clear_autotune_cache()
    hostinfo.reset_peak_rss()
    driver = tracer = None
    try:
        t0 = time.perf_counter()
        scenario = None
        if wl.city:
            scenario = scenario_of(inputs)
            scenario.solid
            res.voxelize_s = time.perf_counter() - t0
        if wl.driver == "single":
            driver = scenario.make_single_solver(kernel="auto")
            driver.initialize(rho=inputs.rho, u=inputs.u)
            if traced:
                tracer = driver.tracer = Tracer(rank=0)
        else:
            t_spawn = time.perf_counter()
            driver = CPUClusterLBM(_cluster_config(inputs, scenario))
            res.spawn_s = time.perf_counter() - t_spawn
            driver.load_global_distributions(
                equilibrium(D3Q19, inputs.rho, inputs.u))
            if traced:
                tracer = driver.enable_tracing()
        t_first = time.perf_counter()
        driver.step(1)
        now = time.perf_counter()
        res.first_step_s = now - t_first
        res.setup_s = now - t0
        for _ in range(wl.steps - 1):
            n_events = len(tracer.events) if traced else 0
            ts = time.perf_counter()
            timing = driver.step(1)
            dt = time.perf_counter() - ts
            res.step_s.append(dt)
            if traced:
                res.traced.append(
                    TracedStep(dt, tracer.events[n_events:], timing))
        t_gather = time.perf_counter()
        if wl.driver == "single":
            rho, u = driver.macroscopic()
        else:
            rho, u = driver.gather_macroscopic()
        now = time.perf_counter()
        res.gather_s = now - t_gather
        res.wall_s = now - t0
        _describe(res, driver)
        rows, summary = trace_imbalance_rows(
            [e for s in res.traced for e in s.events])
        if len(rows) > 1:
            res.imbalance = summary["max_over_mean"]
        workers = hostinfo.child_pids()
        res.coordinator_rss_mb = hostinfo.peak_rss_mb()
        res.workers_rss_mb = sum(hostinfo.peak_rss_mb(pid) for pid in workers)
    finally:
        if driver is not None and wl.driver == "cluster":
            driver.shutdown()
    if wl.backend == "processes":
        alive = sorted(set(workers) & set(hostinfo.child_pids()))
        segments = leaked_segments()
        res.leaked = len(segments) + len(alive)
        if res.leaked:
            res.problems.append(f"leaked after shutdown: segments={segments} "
                                f"live workers={alive}")
    res.problems.extend(check_fields(inputs, ref, rho, u))
    return res


def _describe(res: OpResult, driver) -> None:
    """Record the chosen kernels and halo volume from the public reports."""
    if isinstance(driver, LBMSolver):
        res.kernels = [driver.kernel_used]
        res.autotune_probes = len(driver.kernel_rates or {})
        res.rank_cells = [int(np.prod(driver.shape))]
        return
    rows = driver.kernel_report()
    res.kernels = [row["kernel"] for row in rows]
    res.autotune_probes = sum(len(row["rates"] or {}) for row in rows)
    res.rank_cells = [row["cells"] for row in rows]
    res.halo_bytes = sum(map(sum, driver.schedule.round_bytes()))
    res.halo_msgs = sum(map(sum, driver.schedule.round_messages()))
