"""Tests of the benchmark itself, on shrunken copies of its workloads.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

import layers
import run
import workloads


def test_manifest_matches_the_metrics_printed():
    manifest = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in manifest["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == layers.END_TO_END
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == layers.PER_LAYER


def tiny(name: str) -> workloads.Workload:
    """The named workload on a small lattice with few steps per operation."""
    wl = workloads.WORKLOADS[name]
    shape = (32, 24, 8) if wl.city else (16, 16, 8)
    return dataclasses.replace(wl, shape=shape, steps=4)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    a = workloads.make_inputs(tiny(name), 7)
    b = workloads.make_inputs(tiny(name), 7)
    assert np.array_equal(a.u, b.u) and np.array_equal(a.rho, b.rho)
    if a.city is not None:
        assert a.city.buildings == b.city.buildings
        assert np.array_equal(workloads.scenario_of(a).solid,
                              workloads.scenario_of(b).solid)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_new_seed_gives_different_inputs(name):
    a = workloads.make_inputs(tiny(name), 7)
    b = workloads.make_inputs(tiny(name), 8)
    assert not np.array_equal(a.u, b.u)
    if a.city is not None:
        assert a.city.buildings != b.city.buildings


def test_check_flags_fields_that_differ_from_the_reference():
    inputs = workloads.make_inputs(tiny("city_single"), 3)
    ref = workloads.reference_fields(inputs)
    assert workloads.check_fields(inputs, ref, ref.rho, ref.u) == []
    rho = ref.rho.copy()
    rho.flat[0] = np.nextafter(rho.flat[0], np.float32(2))
    assert workloads.check_fields(inputs, ref, rho, ref.u) == [
        "fields differ from the phase-split reference"]
    u = ref.u.copy()
    u[0, 0, 0, 0] = np.nan
    assert "non-finite gathered fields" in workloads.check_fields(
        inputs, ref, ref.rho, u)
    assert any("wind" in p for p in
               workloads.check_fields(inputs, ref, ref.rho, -ref.u))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_parts_sum_to_the_measured_step(name):
    wl = tiny(name)
    inputs = workloads.make_inputs(wl, 5)
    ref = workloads.reference_fields(inputs)
    res = workloads.run_op(inputs, ref, traced=True)
    assert res.problems == []
    assert len(res.traced) == wl.steps - 1
    parts = layers.attribution(wl.driver, wl.backend, res.traced)
    total = sum(parts[p] for p in layers.PARTS) + parts["core.unattributed_ms"]
    assert math.isclose(total, parts["step_ms_traced"], rel_tol=1e-9)
    mean_wall = 1e3 * sum(s.wall_s for s in res.traced) / len(res.traced)
    assert math.isclose(parts["step_ms_traced"], mean_wall, rel_tol=1e-9)
    assert parts["lbm.collide_ms"] > 0.0
    if wl.driver == "single":
        assert parts["core.exchange_ms"] == 0.0 and res.halo_bytes == 0


@pytest.mark.parametrize("trace", [0, 1])
def test_output_contract(monkeypatch, capsys, trace):
    monkeypatch.setitem(workloads.WORKLOADS, "city_procs", tiny("city_procs"))
    assert run.main(["--workload", "city_procs", "--seed", "1",
                     "--seconds", "0.1", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.splitlines()
    context, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    expected = layers.PER_LAYER if trace else layers.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert context["host"]["nproc"] >= 1
    assert context["kernels_per_op"][0] == ["split", "split"]
    assert ("copy_array_bytes" in context["host"]) == bool(trace)
    if trace:
        assert result["metrics"]["shm.leaked_segments"]["value"] == 0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())
