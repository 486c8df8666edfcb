"""Every per-layer span metric of the benchmark names a traced function.

The benchmark's tracer wraps the public top-level functions of each
``reflexo.<layer>`` module; a metric ``<layer>.<function>.s`` or
``<layer>.<function>.calls`` whose function was deleted or renamed reads as
absent in a traced run.  This test catches that from ``BENCHMARK.json``
alone.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).parent.parent / "BENCHMARK.json"
SPAN_METRICS = [
    m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]
    if m["name"].count(".") == 2 and m["name"].endswith((".s", ".calls"))
]


@pytest.mark.parametrize("metric", SPAN_METRICS)
def test_metric_names_public_function(metric):
    # [TRIVIAL] <layer>.<function> is a public function defined at the top
    # level of reflexo.<layer>
    layer, name, _ = metric.split(".")
    module = importlib.import_module(f"reflexo.{layer}")
    fn = getattr(module, name, None)
    assert not name.startswith("_"), metric
    assert inspect.isfunction(fn), f"{metric}: no function {name} in {layer}"
    assert fn.__module__ == module.__name__, f"{metric}: {name} is imported"


def test_span_metrics_found():
    # [TRIVIAL] the parametrisation above is not vacuous
    assert len(SPAN_METRICS) >= 20
