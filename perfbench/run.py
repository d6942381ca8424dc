"""Benchmark of the stripcavity CLI: one closed-loop client, three workloads.

    python3 perfbench/run.py --workload design-mix --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30

A run drives ``stripcavity.cli.main(argv)`` in this process: each pass is a
fixed list of commands, and the next pass starts only when the previous one
has returned. ``--trace 0`` measures the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics.
``--workload all`` runs every workload both ways, one process each, and
prints every metric with its unit. Every command's output goes through the
independent check in reference.py. The last line of standard output is one
JSON object: correct, attempted, failed and metrics. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_DIR = ".perfbench_tmp"

import reference  # noqa: E402  (sibling modules; run.py is started as a script)
from calibration import REFERENCE_S, calibrate  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Command, Workload  # noqa: E402

SETUP_SAMPLES = 15       # fresh interpreters per run, for setup_s and cold_cmd_ms
IMPORT_SAMPLES = 5       # `python -X importtime` runs per traced run
CHILD_TIMEOUT_S = 60
# Operands of one layer-point in the batched chain product: 8 complex
# multiplies and 4 adds read 16 and write 12 complex128 arrays of the sweep
# length. A model of the traffic, derived from array sizes, not a measurement.
BYTES_PER_LAYER_POINT = 28 * 16

END_TO_END_UNITS = {
    "setup_s": "s", "cold_cmd_ms": "ms", "pass_ms_p50": "ms", "pass_ms_tail": "ms",
    "rows_per_s": "rows/s", "peak_rss_mb": "MB", "ok_ratio": "ratio",
}
LAYERS = ("cli", "design", "analytic", "tmm", "kernels", "stack", "materials")
PER_LAYER_UNITS = {
    **{f"{layer}.{kind}": unit for layer in LAYERS
       for kind, unit in (("calls", "count"), ("busy_ms", "ms"), ("self_ms", "ms"))},
    "cli.rows": "count", "cli.bytes_out": "B",
    "tmm.points": "count", "tmm.sweeps_per_argmax": "ratio", "tmm.argmax_ms": "ms",
    "kernels.layer_points": "count", "kernels.ns_per_layer_point": "ns",
    "kernels.bytes_computed": "B",
    "stack.layers_built": "count",
    "import.numpy_ms": "ms", "import.yaml_ms": "ms", "import.stripcavity_ms": "ms",
    "tracing.overhead_pct": "%", "tracing.pass_ms": "ms", "tracing.spans": "count",
}
# What the traced run should show for each workload: (claim, left, right),
# holding when left > right; both sides are per-layer metric expressions.
STRESS = {
    "design-mix": ("tmm.argmax_absorptance takes more than half of a traced pass",
                   lambda m: m["tmm.argmax_ms"], lambda m: 0.5 * m["tracing.pass_ms"]),
    "sweep-large": ("cli plus design self time exceeds kernels busy time",
                    lambda m: m["cli.self_ms"] + m["design.self_ms"],
                    lambda m: m["kernels.busy_ms"]),
    "deep-reflector": ("kernels plus stack take more than half of a traced pass",
                       lambda m: m["kernels.busy_ms"] + m["stack.busy_ms"],
                       lambda m: 0.5 * m["tracing.pass_ms"]),
}


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _percentile(samples: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above it."""
    ordered = sorted(samples)
    rank = math.ceil(pct / 100.0 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def _speed(calibrations: list[float], i: int) -> float:
    """Scale for the timing taken between calibrations i and i + 1."""
    return 2.0 * REFERENCE_S / (calibrations[i] + calibrations[i + 1])


def _read_output(path: Path | None) -> str | None:
    """The file a command wrote with --out ("" if it wrote none)."""
    if path is None:
        return None
    return path.read_text() if path.exists() else ""


def _metrics(values: dict[str, float], units: dict[str, str]) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


class Bench:
    """One workload in one process: set-up probes, warm-up, measured passes."""

    def __init__(self, workload: Workload, seed: int, tmp: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.env = _child_env()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.rows = 0
        self.bytes_out = 0
        self.record: dict = {}
        self._checks = 0
        self._passes = workload.passes(seed)
        self.first_command = next(workload.passes(seed))[0]
        sys.path.insert(0, str(SRC))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            import stripcavity.cli
            from stripcavity import _kernels
        self.cli = stripcavity.cli
        self.record["import_warnings"] = sorted({str(w.message) for w in caught})
        self.record["numba_enabled"] = _kernels.NUMBA_ENABLED

    # -- commands ---------------------------------------------------------

    def _execute(self, cmd: Command, path: Path | None):
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(cmd.argv(str(path)))
        except Exception:  # a traceback is a failed command, not a failed run
            rc = None
            err.write(traceback.format_exc())
        return rc, out.getvalue(), err.getvalue()

    def _verify(self, cmd: Command, out: reference.Output) -> None:
        self.attempted += 1
        self._checks += 1
        result = reference.check(cmd, out, random.Random(self.seed * 1_000_003 + self._checks))
        if result.problems:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{' '.join(cmd.argv('OUT'))}: {result.problems[:3]}")
        self.rows += max(len(out.text.splitlines()) - 1, 0)
        self.bytes_out += len(out.text)

    def run_pass(self) -> tuple[float, list[tuple[Command, reference.Output]]]:
        """One closed-loop pass; only the commands themselves are timed."""
        commands = next(self._passes)
        paths = [self.tmp / f"out{i}.csv" if c.writes_file else None for i, c in enumerate(commands)]
        for path in filter(None, paths):
            path.unlink(missing_ok=True)
        start = time.perf_counter()
        raw = [self._execute(cmd, path) for cmd, path in zip(commands, paths)]
        elapsed = time.perf_counter() - start
        outputs = []
        for cmd, path, (rc, stdout, stderr) in zip(commands, paths, raw):
            out = reference.Output(rc, stdout, stderr, _read_output(path))
            self._verify(cmd, out)
            outputs.append((cmd, out))
        return elapsed, outputs

    def warm_up(self) -> None:
        """One pass untimed, with the checker's self-test on its outputs."""
        failures = []
        for cmd, out in self.run_pass()[1]:
            failures += reference.self_test(cmd, out, self.seed)
        self.record["checker_self_test"] = failures or "every corrupted row and dropped row caught"
        self.self_test_ok = not failures

    # -- fresh interpreters -------------------------------------------------

    def probe(self) -> tuple[float, float, float] | None:
        """(set-up seconds, cold command seconds, median calibration seconds)
        from one fresh interpreter."""
        cmd = self.first_command
        path = self.tmp / "probe.csv" if cmd.writes_file else None
        if path is not None:
            path.unlink(missing_ok=True)
        spawned = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), json.dumps(cmd.argv(str(path)))],
            env=self.env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        # proc.stderr holds the import-time numba UserWarning; only a failed
        # probe makes it part of the record.
        try:
            data = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, ValueError):
            data = None
        if proc.returncode != 0 or data is None:
            self._verify(cmd, reference.Output(None, proc.stdout, proc.stderr))
            return None
        self._verify(cmd, reference.Output(data["rc"], data["stdout"], data["stderr"],
                                           _read_output(path)))
        return data["ready"] - spawned, data["cold_s"], statistics.median(data["calibration"])

    def import_breakdown(self) -> dict[str, float]:
        """Median cumulative import times from `python -X importtime`."""
        samples = []
        for _ in range(IMPORT_SAMPLES):
            proc = subprocess.run(
                [sys.executable, "-X", "importtime", "-c", "import stripcavity.cli"],
                env=self.env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            )
            if proc.returncode != 0:
                raise RuntimeError(f"importing stripcavity.cli failed:\n{proc.stderr}")
            cumulative: dict[str, int] = {}
            for line in proc.stderr.splitlines():  # also carries the numba UserWarning
                if not line.startswith("import time:"):
                    continue
                fields = line[len("import time:"):].split("|")
                with contextlib.suppress(ValueError):
                    cumulative.setdefault(fields[2].strip(), int(fields[1]))
            numpy_us = cumulative.get("numpy", 0)
            yaml_us = cumulative.get("yaml", 0)
            package_us = max(us for name, us in cumulative.items()
                             if name == "stripcavity" or name.startswith("stripcavity."))
            samples.append({
                "import.numpy_ms": numpy_us / 1e3,
                "import.yaml_ms": yaml_us / 1e3,
                "import.stripcavity_ms": (package_us - numpy_us - yaml_us) / 1e3,
            })
        return {key: statistics.median(s[key] for s in samples) for key in samples[0]}

    # -- runs ---------------------------------------------------------------

    def run_plain(self, seconds: float) -> dict:
        """End-to-end metrics, every timing scaled to the reference machine
        speed: a pass by the calibrations just before and after it, a
        fresh-interpreter probe by the calibrations it ran itself."""
        probes = [p for p in (self.probe() for _ in range(SETUP_SAMPLES)) if p is not None]
        if not probes:
            raise RuntimeError(f"every set-up probe failed: {self.failures}")
        self.warm_up()
        times, rows = [], []
        cal = [calibrate()]
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            rows_before = self.rows
            times.append(self.run_pass()[0])
            rows.append(self.rows - rows_before)
            cal.append(calibrate())
        scaled = [t * _speed(cal, i) for i, t in enumerate(times)]
        tail, beyond = _percentile(scaled, self.workload.tail_pct)
        values = {
            "setup_s": statistics.median(ready * REFERENCE_S / c for ready, _, c in probes),
            "cold_cmd_ms": statistics.median(cold * REFERENCE_S / c for _, cold, c in probes) * 1e3,
            "pass_ms_p50": statistics.median(scaled) * 1e3,
            "pass_ms_tail": tail * 1e3,
            "rows_per_s": statistics.median(r / t for r, t in zip(rows, scaled)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ratio": 1.0 - self.failed / self.attempted,
        }
        self.record.update(
            passes=len(times), tail_percentile=self.workload.tail_pct, tail_passes_beyond=beyond,
            setup_samples=len(probes),
            calibration_ms={"setup": statistics.median(c for _, _, c in probes) * 1e3,
                            "passes": statistics.median(cal) * 1e3, "reference": REFERENCE_S * 1e3},
            unscaled={
                "setup_s": statistics.median(p[0] for p in probes),
                "cold_cmd_ms": statistics.median(p[1] for p in probes) * 1e3,
                "pass_ms_p50": statistics.median(times) * 1e3,
                "pass_ms_tail": _percentile(times, self.workload.tail_pct)[0] * 1e3,
                "rows_per_s": statistics.median(r / t for r, t in zip(rows, times)),
            },
        )
        return _metrics(values, END_TO_END_UNITS)

    def run_traced(self, seconds: float) -> dict:
        """Per-layer metrics from traced passes alternating with untraced ones."""
        imports = self.import_breakdown()
        self.warm_up()
        tracer = Tracer()
        plain, traced = [], []
        rows = bytes_out = 0
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            plain.append(self.run_pass()[0])
            rows_before, bytes_before = self.rows, self.bytes_out
            with tracer:
                traced.append(self.run_pass()[0])
            rows += self.rows - rows_before
            bytes_out += self.bytes_out - bytes_before
        n = len(traced)
        totals = tracer.summary()
        values = {key: totals[key] / n for key in PER_LAYER_UNITS if key in totals}
        layer_points = totals.get("kernels.layer_points", 0.0)
        argmax_calls = totals["tmm.argmax_calls"]
        values.update(imports)
        values.update({
            "cli.rows": rows / n,
            "cli.bytes_out": bytes_out / n,
            "tmm.points": totals.get("tmm.points", 0.0) / n,
            "tmm.sweeps_per_argmax": totals["tmm.argmax_sweeps"] / argmax_calls if argmax_calls else 0.0,
            "kernels.layer_points": layer_points / n,
            "kernels.ns_per_layer_point": totals["kernels.busy_ms"] * 1e6 / layer_points if layer_points else 0.0,
            "kernels.bytes_computed": layer_points * BYTES_PER_LAYER_POINT / n,
            "stack.layers_built": totals.get("stack.layers_built", 0.0) / n,
            "tracing.overhead_pct": (sum(traced) / sum(plain) - 1.0) * 100.0,
            "tracing.pass_ms": sum(traced) / n * 1e3,
            "tracing.spans": tracer.spans / n,
        })
        claim, left, right = STRESS[self.workload.name]
        self.record.update(
            passes_traced=n, passes_untraced=len(plain), import_samples=IMPORT_SAMPLES,
            stress={"claim": claim, "left": left(values), "right": right(values),
                    "holds": left(values) > right(values)},
        )
        return _metrics(values, PER_LAYER_UNITS)

    def provenance(self, seconds: float, trace: int) -> dict:
        cpu = next((line.split(":", 1)[1].strip() for line in _read_lines("/proc/cpuinfo")
                    if line.startswith("model name")), platform.processor() or "unknown")
        try:
            import numba  # noqa: F401
            numba_imports = True
        except ImportError:
            numba_imports = False
        import numpy

        digest = hashlib.sha256()
        for path in sorted((SRC / "stripcavity").glob("*.py")):
            digest.update(path.read_bytes())
        return {
            "workload": self.workload.name, "seed": self.seed, "seconds": seconds,
            "trace": trace, "cpu_model": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "numba_imports": numba_imports, "git_commit": _git_commit(),
            "src_sha256": digest.hexdigest()[:16],
            "attempted": self.attempted, "failed": self.failed, "failures": self.failures,
            **self.record,
        }


def _read_lines(path: str) -> list[str]:
    try:
        return Path(path).read_text().splitlines()
    except OSError:
        return []


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    return proc.stdout.strip() or None


def run_all(args) -> int:
    """Every workload, untraced then traced, one child process per run."""
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True,
            )
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            record = json.loads(lines[-2])["record"]
            ok = ok and result["correct"]
            print(f"== {name} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, entry in result["metrics"].items():
                print(f"   {metric:28s} {entry['value']:>16.6g} {entry['unit']}")
            if "stress" in record:
                stress = record["stress"]
                print(f"   stress: {stress['claim']}: {stress['holds']} "
                      f"({stress['left']:.4g} vs {stress['right']:.4g})")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "stripcavity" / "cli.py").is_file():
        print(f"error: no package sources at {SRC / 'stripcavity'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    # Calibrations, passes and probes share one CPU, so the calibration
    # sees the speed the measured code sees; children inherit the mask.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    tmp = ROOT / TMP_DIR / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(WORKLOADS[args.workload], args.seed, tmp)
        bench.record["pinned_cpu"] = cpu
        metrics = bench.run_traced(args.seconds) if args.trace else bench.run_plain(args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / TMP_DIR).rmdir()
    print(json.dumps({"record": bench.provenance(args.seconds, args.trace)}))
    print(json.dumps({
        "correct": bench.failed == 0 and bench.self_test_ok,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
