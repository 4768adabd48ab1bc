"""The benchmark's own test: a traced round of each workload at a tiny size.

A refactor that moves or renames a function the tracer hooks, or that stops a
layer from being reached, fails here instead of silently zeroing a metric.

    python3 -m pytest -q perfbench
"""

import importlib
import json
import sys

import pytest

import run
import tracer
from workloads import VERIFY_CHECKS, WORKLOADS

#: Per-layer metrics each workload must report as non-zero, beyond its layers' calls.
MUST_MOVE = {
    "verify-grid": [
        "model.check_probability_calls",
        "incentives.wtp_unique_ratio",
        "patterns.realized_unique_ratio",
        "oracle.pairs_evaluated_ratio",
        "cli.compute_s",
        *(f"oracle.grid_s.{check}" for check in VERIFY_CHECKS),
    ],
    "sets-sweep": ["incentives.wtp_unique_ratio", "config.render_s", "config.render_bytes"],
    "wtp-sweep": ["incentives.wtp_unique_ratio", "config.render_s", "config.render_bytes"],
    "point-queries": ["oracle.mc_s", "config.render_bytes", "cli.compute_s"],
}


@pytest.fixture(scope="module", autouse=True)
def work_dir():
    run.WORK.mkdir(exist_ok=True)


def test_hooked_names_resolve():
    sys.path.insert(0, str(run.SRC))
    try:
        hooked = [(layer, name) for name, (layer, _) in tracer.UNIQUE_KEYED.items()]
        hooked += [(layer, name) for name, layer in tracer.SPANNED.items()]
        hooked.append(tracer.PAIR_EVALUATOR)
        for layer, name in hooked:
            module = importlib.import_module(f"{tracer.PACKAGE}.{layer}")
            assert callable(getattr(module, name, None)), f"{layer}.{name}"
        cli = importlib.import_module(f"{tracer.PACKAGE}.cli")
        for workload in WORKLOADS.values():
            for call in workload.round("tiny", 1, run.WORK).calls:
                assert callable(getattr(cli, tracer.COMMAND_PREFIX + call.args[0]))
    finally:
        sys.path.remove(str(run.SRC))


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_tiny_round_reaches_every_layer(name):
    result = run.measure(WORKLOADS[name], seed=1, seconds=0, trace=True, size="tiny")
    assert result["failures"] == []
    assert result["problems"] == []
    metrics = {key: metric["value"] for key, metric in result["metrics"].items()}
    for layer in WORKLOADS[name].layers:
        assert metrics[f"{layer}.calls"] > 0, layer
        assert metrics[f"{layer}.self_s"] > 0, layer
    for key in MUST_MOVE[name]:
        assert metrics[key] > 0, key
    if name == "wtp-sweep":
        assert metrics["incentives.wtp_unique_ratio"] == 1.0


def test_untimed_tiny_round_reports_end_to_end_metrics():
    result = run.measure(WORKLOADS["verify-grid"], seed=1, seconds=0, trace=False, size="tiny")
    assert result["failures"] == []
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: workload.why for name, workload in WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
