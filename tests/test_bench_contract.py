"""What the benchmark in perfbench/ needs of the package, checked here.

perfbench traces the package by rebinding named entry points, and its
runner reads attributes of `stripcavity._kernels`. A change that renames or
deletes one of them would crash a benchmark run or leave a tracer layer
counting nothing; this module fails first, by name. Its cold command times
the CLI's direct path, which reads a well-formed argv without argparse; a
workload argv that argparse had to parse would time the other path. This
module changes nothing under perfbench/.
"""

import importlib
import importlib.util
import re
import sys
from pathlib import Path

import pytest

from stripcavity import _kernels, cli
from stripcavity.cli import main
from stripcavity.design import DesignSpec, _stack_on, _wire
from stripcavity.materials import builtin_registry

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(monkeypatch, name):
    """perfbench/<name>.py, loaded by path, with no bytecode written beside it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tracer(monkeypatch):
    return _load(monkeypatch, "tracer")


def test_workload_commands_skip_argparse(monkeypatch):
    # the benchmark's cold command, and every command of a pass, is read
    # straight from the CLI's flag table
    workloads = _load(monkeypatch, "workloads")
    for workload in workloads.WORKLOADS.values():
        passes = workload.passes(seed=1)
        for _ in range(20):
            for command in next(passes):
                argv = command.argv("out.csv")
                assert cli._read(argv) is not None, argv


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
        design_points = trace.counters["kernels.layer_points"]
        assert main(["sweep", "--cavity", "ssc", "--range", "1:30", "--step", "1",
                     "--out", str(tmp_path / "sweep.csv")]) == 0
    summary = trace.summary()
    for counter in ("kernels.calls", "tmm.points", "stack.layers_built"):
        assert summary.get(counter, 0) > 0, counter
    # The tracer reads chain_sweep's layers and points from its arguments 0
    # and 3; a reordered signature would miscount them.
    spec, registry = DesignSpec(cavity="ssc"), builtin_registry()
    stack = _stack_on(spec, registry, _wire(spec, registry, 10.0), mirror_token="pec-surrogate")
    assert summary["kernels.layer_points"] - design_points == len(stack.layers) * 30


def test_runner_reads_existing_kernel_attributes():
    text = (PERFBENCH / "run.py").read_text()
    for name in sorted(set(re.findall(r"\b_kernels\.(\w+)", text))):
        assert hasattr(_kernels, name), f"perfbench/run.py reads _kernels.{name}"
