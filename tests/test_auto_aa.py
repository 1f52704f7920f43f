"""Cluster-wide ``kernel="auto"`` resolution to the AA pipeline.

With no ``kernel`` argument, :class:`CPUClusterLBM` takes one kernel
decision for the whole cluster before any rank is built: every rank
runs the swap-free AA kernel when every rank is AA-eligible and none is
sparse-worthy.  These tests pin that the new default path is
bit-identical to the single-domain phase-split reference at every step
(both AA parities) on every backend and cut layout, that it reports
why it chose AA, that the odd-parity guards hold, and that everything
else (sparse-worthy ranks, GPU drivers, ``kernel="split"``) keeps its
per-rank behaviour and the executed overlap.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cluster_lbm import ClusterConfig, CPUClusterLBM, GPUClusterLBM
from repro.lbm import LBMSolver
from repro.lbm.boundaries import EquilibriumVelocityInlet, OutflowBoundary
from repro.lbm.lattice import D3Q19

SHAPE = (16, 12, 8)
ARR = (2, 2, 1)
SUB = tuple(s // a for s, a in zip(SHAPE, ARR))
INLET = (0, "low", (0.04, 0.0, 0.0), 1.0)
OUTFLOW = (0, "high")


def _city():
    """A low-rise city mask: every 2x2x1 rank stays below 25% solid."""
    from repro.urban.city import times_square_like
    from repro.urban.voxelize import voxelize_city
    return voxelize_city(times_square_like(seed=7), SHAPE,
                         resolution_m=48.0, ground_layers=1)


CITY = _city()
#: domain -> (cluster config kwargs, single-domain solver kwargs)
DOMAINS = {
    "periodic_box": ({}, {"periodic": True}),
    "bounded_city": ({"solid": CITY, "periodic": (False,) * 3,
                      "inlet": INLET, "outflow": OUTFLOW},
                     {"solid": CITY, "periodic": False,
                      "boundaries": True}),
}
CUTS = {
    "uniform": {},
    "weighted": {"decomposition": "weighted"},
    "explicit": {"cuts": ((6, 10), (5, 7), (8,))},
}


def _reference(solver_kw, seed=0):
    kw = dict(solver_kw)
    if kw.pop("boundaries", None):
        kw["boundaries"] = [EquilibriumVelocityInlet(D3Q19, *INLET),
                            OutflowBoundary(D3Q19, *OUTFLOW)]
    rng = np.random.default_rng(seed)
    u0 = (0.02 * rng.standard_normal((3,) + SHAPE)).astype(np.float32)
    solid = kw.get("solid")
    if solid is not None:
        u0[:, solid] = 0
    ref = LBMSolver(SHAPE, tau=0.7, kernel="split", **kw)
    ref.initialize(rho=np.ones(SHAPE, np.float32), u=u0)
    return ref


def _config(backend="serial", **kw):
    if backend == "threads":
        kw.setdefault("max_workers", 2)
    return ClusterConfig(sub_shape=SUB, arrangement=ARR, tau=0.7,
                         backend=backend, **kw)


class TestDefaultPathDifferential:
    @pytest.mark.parametrize("cuts", sorted(CUTS))
    @pytest.mark.parametrize("domain", sorted(DOMAINS))
    @pytest.mark.parametrize("backend", ["serial", "threads", "processes"])
    def test_every_step_matches_split_reference(self, backend, domain, cuts):
        cluster_kw, solver_kw = DOMAINS[domain]
        ref = _reference(solver_kw)
        cfg = _config(backend, **cluster_kw, **CUTS[cuts])
        with CPUClusterLBM(cfg) as cluster:
            assert cluster.kernel == "aa"
            cluster.load_global_distributions(ref.f.copy())
            for step in range(1, 6):     # both parities
                ref.step(1)
                cluster.step(1)
                assert np.array_equal(cluster.gather_distributions(),
                                      ref.f), (
                    f"{backend}/{domain}/{cuts}: diverged at step {step}")
            kinds = {row["kernel"] for row in cluster.kernel_report()}
        assert kinds == {"aa"}


class TestKernelReason:
    @pytest.mark.parametrize("backend", ["serial", "processes"])
    def test_report_says_auto_resolved_aa(self, backend):
        cluster_kw, _ = DOMAINS["bounded_city"]
        with CPUClusterLBM(_config(backend, **cluster_kw)) as cluster:
            cluster.step(1)
            rows = cluster.kernel_report()
        peak = max(row["solid_fraction"] for row in rows)
        for row in rows:
            assert row["kernel"] == "aa"
            assert row["reason"] == (
                f"auto: cluster-wide AA (all 4 ranks eligible, max rank "
                f"solid fraction {peak:.3f} < sparse probe floor 0.25)")
            assert row["rates"] is None      # no probe was run

    def test_layout_probe_reason_follows_the_resolution(self):
        with CPUClusterLBM(_config(layout="auto")) as cluster:
            cluster.step(1)
            rows = cluster.kernel_report()
        for row in rows:
            assert row["rates"] is not None
            head, probe = row["reason"].split("; ", 1)
            assert head.startswith("auto: cluster-wide AA")
            assert probe.startswith("measured:")

    def test_forced_aa_keeps_forced_reason(self):
        with CPUClusterLBM(_config(kernel="aa")) as cluster:
            cluster.step(1)
            reasons = {row["reason"] for row in cluster.kernel_report()}
        assert reasons == {"forced kernel='aa'"}

    def test_heuristic_reason_names_the_threshold(self):
        cfg = _config(autotune="heuristic", sparse_threshold=0.4)
        with CPUClusterLBM(cfg) as cluster:
            cluster.step(1)
            reasons = {row["reason"] for row in cluster.kernel_report()}
        assert reasons == {"auto: cluster-wide AA (all 4 ranks eligible, "
                           "max rank solid fraction 0.000 < "
                           "sparse_threshold 0.4)"}


class TestParityGuards:
    @pytest.mark.parametrize("backend", ["serial", "processes"])
    def test_odd_parity_guards_under_default_config(self, backend):
        cluster_kw, solver_kw = DOMAINS["bounded_city"]
        ref = _reference(solver_kw)
        f0 = ref.f.copy()
        with CPUClusterLBM(_config(backend, **cluster_kw)) as cluster:
            assert cluster.kernel == "aa"
            cluster.load_global_distributions(f0)
            cluster.step(1)
            ref.step(1)
            with pytest.raises(ValueError, match="odd AA parity"):
                cluster.load_global_distributions(f0)
            with pytest.raises(ValueError, match="odd AA parity"):
                cluster.rebalance(busy_s={r: 1.0 for r in range(4)})
            # The odd-parity gather is the canonical reconstruction.
            assert np.array_equal(cluster.gather_distributions(), ref.f)
            cluster.step(1)
            ref.step(1)
            assert np.array_equal(cluster.gather_distributions(), ref.f)
            cluster.load_global_distributions(f0)   # even: allowed again

    @pytest.mark.parametrize("backend", ["serial", "processes"])
    def test_rebalance_into_aa_needs_even_parity(self, backend):
        # Rank 0 is half solid, so the uniform-cut driver keeps per-rank
        # selection; the new cuts dilute it below the threshold, so the
        # successor resolves AA and could not load an odd-parity state.
        solid = np.zeros(SHAPE, bool)
        solid[:SUB[0], :SUB[1], :SUB[2] // 2] = True
        new_cuts = ((12, 4), (9, 3), (8,))
        ref = _reference({"solid": solid, "periodic": True})
        cfg = _config(backend, solid=solid, autotune="heuristic",
                      sparse_threshold=0.4)
        busy = {r: 1.0 for r in range(4)}
        cluster = CPUClusterLBM(cfg)
        try:
            assert cluster.kernel == "auto"
            cluster.rebalance_cuts = lambda busy_s=None: new_cuts
            cluster.load_global_distributions(ref.f.copy())
            cluster.step(1)
            ref.step(1)
            with pytest.raises(ValueError, match="odd AA parity"):
                cluster.rebalance(busy_s=busy)
            cluster.step(1)
            ref.step(1)
            successor, info = cluster.rebalance(busy_s=busy)
            cluster = successor
            assert info["changed"] and cluster.kernel == "aa"
            for step in range(3):            # both parities after the move
                cluster.step(1)
                ref.step(1)
                assert np.array_equal(cluster.gather_distributions(),
                                      ref.f), f"diverged at step {step}"
        finally:
            cluster.shutdown()


class TestOverlapSkipped:
    def test_aa_steps_run_sequentially(self):
        ref = _reference({"periodic": True})
        with CPUClusterLBM(_config()) as cluster:
            assert cluster.config.overlap
            cluster.load_global_distributions(ref.f.copy())
            timing = cluster.step(2)
            stats = cluster.counters.stats
            assert cluster._comm_executor is None
        assert timing.measured_exchange_s == 0.0
        assert timing.measured_window_s == 0.0
        assert stats["cluster.collide"].calls == 2
        assert "cluster.collide_boundary" not in stats

    def test_split_escape_keeps_executed_overlap(self):
        ref = _reference({"periodic": True})
        with CPUClusterLBM(_config(kernel="split")) as cluster:
            assert cluster.kernel == "split"
            cluster.load_global_distributions(ref.f.copy())
            timing = cluster.step(2)
            kinds = {row["kernel"] for row in cluster.kernel_report()}
        assert kinds == {"split"}
        assert timing.measured_exchange_s > 0.0


class TestControls:
    @staticmethod
    def _one_dense_rank(fraction):
        """All-fluid except a solid slab filling ``fraction`` of rank 0."""
        solid = np.zeros(SHAPE, bool)
        depth = int(round(fraction * SUB[2]))
        solid[:SUB[0], :SUB[1], :depth] = True
        return solid

    def test_sparse_worthy_rank_keeps_per_rank_selection(self):
        solid = self._one_dense_rank(0.5)
        ref = _reference({"solid": solid, "periodic": True})
        cfg = _config(solid=solid, autotune="heuristic")
        with CPUClusterLBM(cfg) as cluster:
            assert cluster.kernel == "auto"
            cluster.load_global_distributions(ref.f.copy())
            cluster.step(3)
            ref.step(3)
            assert np.array_equal(cluster.gather_distributions(), ref.f)
            kinds = {row["kernel"] for row in cluster.kernel_report()}
        assert kinds == {"sparse", "split"}

    def test_measured_rule_uses_sparse_probe_floor(self):
        # 25% solid on one rank: sparse-worthy for the measured
        # autotuner, but below the heuristic's 0.5 threshold.
        solid = self._one_dense_rank(0.25)
        with CPUClusterLBM(_config(solid=solid)) as measured:
            assert measured.kernel == "auto"
        cfg = _config(solid=solid, autotune="heuristic")
        with CPUClusterLBM(cfg) as heuristic:
            assert heuristic.kernel == "aa"

    def test_gpu_cluster_never_resolves_aa(self):
        ref = _reference({"periodic": True})
        with GPUClusterLBM(_config()) as cluster:
            assert cluster.kernel == "auto"
            cluster.load_global_distributions(ref.f.copy())
            timing = cluster.step(2)
            kinds = {row["kernel"] for row in cluster.kernel_report()}
        assert kinds == {"gpu"}
        assert timing.measured_exchange_s > 0.0

    def test_timing_only_keeps_auto(self):
        cfg = ClusterConfig(sub_shape=(8, 8, 8), arrangement=(2, 1, 1),
                            timing_only=True)
        with CPUClusterLBM(cfg) as cluster:
            assert cluster.kernel == "auto"
            cluster.step(1)

