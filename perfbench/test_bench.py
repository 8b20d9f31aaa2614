"""Self-tests of the benchmark at a tiny size.

    PYTHONPATH=src python -m pytest -q perfbench

They check the benchmark, not the program: tracing must not change what
the program computes, and slowing one wrapped layer must move the
end-to-end figure the layer map in README.md predicts, on the workload
that runs the layer and on no other.
"""

from __future__ import annotations

import json
import statistics
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import WRAPPED, Tracer  # noqa: E402


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_outputs_are_bit_identical(name, tmp_path):
    wl = workloads.make(name, workloads.TINY)
    ctx = wl.setup(tmp_path / "setup", 5)
    _, plain, fp_plain = run.call(wl, ctx, 5, tmp_path / "plain")
    originals = [owner.__dict__[attr] for _, owner, attr, _ in WRAPPED]
    tracer = Tracer()
    _, traced, fp_traced = run.call(wl, ctx, 5, tmp_path / "traced", tracer)
    assert fp_traced == fp_plain
    assert (traced.items, traced.failed) == (plain.items, plain.failed)
    assert sum(tracer.calls.values()) > 0
    assert [owner.__dict__[attr] for _, owner, attr, _ in WRAPPED] == originals
    # The work counted without the tracer is what the tracer sees.
    layer = (None if name == "evaluate"
             else "target.potential_energy_batch.rows" if name.startswith("train")
             else "samplers.run_chains.chain_steps")
    if layer:
        assert traced.items == tracer.metrics()[layer][0] > 0


def test_work_count_adds_only_live_chains():
    owner = types.SimpleNamespace(step=lambda state: state)
    original = owner.step
    state = types.SimpleNamespace(alive=np.array([True, False, True, True]))
    with workloads.WorkCount(owner, "step", workloads._live_in_state) as count:
        owner.step(state)
        state.alive[0] = False
        owner.step(state)
    assert count.work == 5
    assert owner.step is original


def test_raised_sample_counts_the_steps_it_advanced(tmp_path):
    """With untrained networks all chains of this tiny run diverge at
    step 9 of 10; the stage raises, every chain fails, and the work is
    the steps the chains took before, not K*T and not 0."""
    wl = workloads.make("sample_amsghmc_window30", workloads.TINY)
    ctx = wl.setup(tmp_path / "setup", 0)
    tracer = Tracer()
    _, oc, _ = run.call(wl, ctx, 0, tmp_path / "out", tracer)
    k, t = workloads.TINY.k, workloads.TINY.diverging_am_steps
    assert "raised" in oc.info
    assert oc.failed == oc.attempted == k
    assert 0 < oc.items < k * t
    assert oc.items == tracer.metrics()["samplers.run_chains.chain_steps"][0]


def _rate(name, tmp_path, delays):
    """Median work per second over five traced calls after a warm-up."""
    wl = workloads.make(name, workloads.TINY)
    ctx = wl.setup(tmp_path / f"setup-{name}", 3)
    run.call(wl, ctx, 0, tmp_path / f"{name}-warm")
    rates = []
    tracer = Tracer(delays)
    for i in range(5):
        wall, oc, _ = run.call(wl, ctx, i, tmp_path / f"{name}-{bool(delays)}-{i}", tracer)
        rates.append(oc.items / wall)
    return statistics.median(rates), tracer


@pytest.mark.parametrize("layer, delay, slowed, bypassed", [
    ("target.potential_energy_batch", 0.02, "sample_sghmc", "evaluate"),
    ("evaluation.fit_cop", 0.3, "evaluate", "sample_sghmc"),
])
def test_delayed_layer_moves_only_its_workload(layer, delay, slowed, bypassed,
                                               tmp_path):
    base, _ = _rate(slowed, tmp_path, {})
    late, tracer = _rate(slowed, tmp_path, {layer: delay})
    assert tracer.calls[layer] > 0
    assert late < 0.5 * base

    base, _ = _rate(bypassed, tmp_path, {})
    late, tracer = _rate(bypassed, tmp_path, {layer: delay})
    # The bypassed workload never enters the layer; its rate may only
    # wander by timing noise, which at this size stays well inside 2x.
    assert tracer.calls[layer] == 0
    assert 0.5 < late / base < 2.0


def test_metric_names_match_benchmark_json(tmp_path):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.NAMES)
    per_layer = {k: u for k, (_, u) in Tracer().metrics().items()}
    assert per_layer == {m["name"]: m["unit"] for m in spec["per_layer"]}
    wl = workloads.make("evaluate", workloads.TINY)
    ctx = wl.setup(tmp_path / "setup", 1)
    measured = run.measure(wl, ctx, tmp_path, 1, 0.0, 0.1, run.HostSpeed())["metrics"]
    end_to_end = {k: u for k, (_, u) in measured.items()}
    assert end_to_end == {m["name"]: m["unit"] for m in spec["end_to_end"]}
