"""What the benchmark in perfbench/ needs of the package, checked here.

perfbench traces the package by rebinding named entry points, and its
runner reads attributes of `stripcavity._kernels`. A change that renames or
deletes one of them would crash a benchmark run or leave a tracer layer
counting nothing; this module fails first, by name. It changes nothing under
perfbench/.
"""

import importlib
import importlib.util
import re
import sys
from pathlib import Path

import pytest

from stripcavity import _kernels
from stripcavity.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    """perfbench/tracer.py, loaded by path, with no bytecode written beside it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_resolves(tracer):
    for layer, (module_name, names) in tracer.LAYERS.items():
        module = importlib.import_module(module_name)
        entry_points = tracer._entry_points(module, names)
        assert entry_points, layer
        for name, fn in entry_points.items():
            assert callable(fn), f"{layer}: {module_name}.{name}"


def test_traced_run_counts_work(tracer, tmp_path):
    with tracer.Tracer() as trace:
        assert main(["design", "--cavity", "mlc", "--out", str(tmp_path / "design.csv")]) == 0
        assert main(["sweep", "--cavity", "ssc", "--range", "1:30", "--step", "1",
                     "--out", str(tmp_path / "sweep.csv")]) == 0
    summary = trace.summary()
    for counter in ("kernels.calls", "tmm.points", "stack.layers_built"):
        assert summary.get(counter, 0) > 0, counter


def test_runner_reads_existing_kernel_attributes():
    text = (PERFBENCH / "run.py").read_text()
    for name in sorted(set(re.findall(r"\b_kernels\.(\w+)", text))):
        assert hasattr(_kernels, name), f"perfbench/run.py reads _kernels.{name}"
