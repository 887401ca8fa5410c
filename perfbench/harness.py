"""Timing loop, host-speed calibration, correctness tally, latency percentiles and provenance."""

from __future__ import annotations

import gc
import hashlib
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from tracing import OP_SPAN, SETUP_SPAN, metric_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# In-process set-ups per untraced run; setup_s is their median.
SETUPS = 3
# No new pass starts after this, whatever the sample count, so a run ends in time.
HARD_STOP_S = 120.0
# The host's CPU speed drifts by tens of percent over minutes, which would
# swamp run-to-run comparisons.  Between timed calls (and between the batches
# of a survey) a fixed reference kernel runs for REF_SHARE of the time since
# it last ran; end-to-end times are rescaled to the host speed at which one
# kernel takes REF_NOMINAL_S.
REF_SHARE = 0.05
REF_NOMINAL_S = 0.0005

E2E_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

clock = time.perf_counter


def highest_percentile(n: int, candidates=(50, 90, 99, 99.9)):
    """Highest candidate percentile with at least ten of n samples beyond it, or None."""
    best = None
    for p in candidates:
        if n * (1000 - round(p * 10)) >= 10 * 1000:
            best = p
    return best


def reference_kernel() -> int:
    s = 0
    for i in range(5_000):
        s += i * i % 7
    return s


class Speedometer:
    """Host speed, from reference kernels run between pieces of timed work."""

    def __init__(self):
        self.kernels = 0
        self.seconds = 0.0  # spent in reference kernels; timed work excludes it
        self._last = clock()

    def checkpoint(self):
        """Run whole kernels (at least one) for REF_SHARE of the time since the last checkpoint."""
        t0 = clock()
        budget = REF_SHARE * (t0 - self._last)
        while True:
            reference_kernel()
            self.kernels += 1
            self._last = clock()
            if self._last - t0 >= budget:
                break
        self.seconds += self._last - t0

    @property
    def factor(self) -> float:
        """Above 1 when the host ran slower than nominal."""
        return self.seconds / self.kernels / REF_NOMINAL_S


class Tally:
    """Operations attempted and failed, time spent in calls, and latencies."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.work_s = 0.0
        self.latencies: list[np.ndarray] = []
        self.errors: list[str] = []

    @property
    def samples(self) -> int:
        return sum(len(x) for x in self.latencies)

    @property
    def ops_per_s(self) -> float:
        return (self.attempted - self.failed) / self.work_s

    def run(self, workload, items, tracer=None, speed=None):
        """Time and check each call; an exception fails every operation of its call."""
        call = workload.run if tracer is None else tracer.traced(OP_SPAN, workload.run)
        for item in items:
            n = workload.size(item)
            probed = speed.seconds if speed else 0.0
            t0 = clock()
            try:
                result = call(item)
                dt = clock() - t0 - ((speed.seconds if speed else 0.0) - probed)
                bad = workload.check(item, result)
                self.latencies.append(workload.latencies(item, result, dt))
            except Exception:
                dt = clock() - t0
                bad = n
                self.errors.append(traceback.format_exc())
            self.attempted += n
            self.failed += bad
            self.work_s += dt
            if speed is not None:
                speed.checkpoint()


def measure(workload, seconds: float, speed: Speedometer) -> tuple[Tally, int]:
    """Whole passes until ``seconds`` have passed and there are enough samples."""
    tally = Tally()
    start = clock()
    passes = 0
    while True:
        tally.run(workload, workload.items(passes), speed=speed)
        passes += 1
        elapsed = clock() - start
        if elapsed >= HARD_STOP_S or (
            elapsed >= seconds and tally.samples >= workload.min_samples
        ):
            return tally, passes


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(workload_cls, seed: int, seconds: float, import_s: float, setups: int = SETUPS):
    """End-to-end metrics for one workload; returns (result, record)."""
    durations = []
    for k in range(setups):
        if k:
            workload.close()
            workload = None
            gc.collect()  # free the previous set-up's tables before the next
        workload = workload_cls()
        t0 = clock()
        workload.setup(seed)
        durations.append(import_s + clock() - t0)
    speed = workload.speed = Speedometer()
    try:
        tally, passes = measure(workload, seconds, speed)
        summary = workload.summary()
    finally:
        workload.close()
    lat = np.concatenate(tally.latencies) if tally.latencies else np.empty(0)
    if lat.size < workload.min_samples or lat.size == 0:
        raise RuntimeError(f"only {lat.size} latency samples, need {workload.min_samples}")
    p50, p90 = np.percentile(lat, [50, 90]) * 1e3
    factor = speed.factor
    metrics = {
        "ops_per_s": tally.ops_per_s * factor,
        "op_p50_ms": float(p50) / factor,
        "op_p90_ms": float(p90) / factor,
        "setup_s": statistics.median(durations),
        "peak_rss_mib": peak_rss_mib(),
    }
    top = highest_percentile(lat.size)
    record = {
        "passes": passes,
        "timed_work_s": tally.work_s,
        "speed_factor": factor,
        "reference_kernels": speed.kernels,
        "raw": {"ops_per_s": tally.ops_per_s, "op_p50_ms": float(p50), "op_p90_ms": float(p90)},
        "latency_samples": int(lat.size),
        "highest_percentile": top,
        "highest_percentile_ms": float(np.percentile(lat, top) * 1e3) / factor if top else None,
        "setup_runs_s": durations,
        "import_s": import_s,
        "error_rate": tally.failed / tally.attempted,
        "errors": tally.errors[:3],
        "inputs": summary,
    }
    return _result(tally.attempted, tally.failed, metrics, E2E_UNITS), record


def run_traced(workload_cls, seed: int, tracer, spans_path: Path):
    """Per-layer metrics: a traced set-up, then one untraced and one traced pass.

    Both passes use the same inputs and are checked; their ops_per_s ratio
    is the tracing overhead.  Counts repeat exactly for a given seed.
    """
    workload = workload_cls()
    try:
        tracer.install()
        try:
            tracer.traced(SETUP_SPAN, workload.setup)(seed)
        finally:
            tracer.uninstall()
        plain = Tally()
        plain.run(workload, workload.items(0))
        traced = Tally()
        first = len(tracer)
        tracer.install()
        try:
            t0 = clock()
            traced.run(workload, workload.items(0), tracer)
            wall = clock() - t0
        finally:
            tracer.uninstall()
        summary = workload.summary()
    finally:
        workload.close()
    metrics = tracer.layer_metrics((first, len(tracer)), wall)
    metrics["trace.overhead"] = plain.ops_per_s / traced.ops_per_s if traced.ops_per_s else 0.0
    tracer.dump(spans_path)
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    record = {
        "untraced_ops_per_s": plain.ops_per_s,
        "traced_ops_per_s": traced.ops_per_s,
        "traced_wall_s": wall,
        "spans": len(tracer),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "error_rate": failed / attempted,
        "errors": (plain.errors + traced.errors)[:3],
        "inputs": summary,
    }
    units = {name: unit for name, unit, _ in metric_names()}
    return _result(attempted, failed, metrics, units), record


def _result(attempted: int, failed: int, metrics: dict, units: dict) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


# -- provenance ------------------------------------------------------------------


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "ppinv").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(seed: int) -> dict:
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "seed": seed,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "argv": sys.argv[1:],
    }
