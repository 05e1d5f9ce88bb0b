"""Shared pieces of the benchmark: checkout layout, statistics, metric
reports, host-speed reference, process memory and set-up launches."""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden" / "study_records.json"
#: Scratch space for trace stores and worker span spools; listed in the
#: root .gitignore and removed when a run ends.
SCRATCH = ROOT / ".perfbench"

#: Digest of the seed-0 generated universe (``Universe.digest()``).
SEED0_DIGEST = "3808728649c09ce989bac640d8f403c8"

#: Set-up is timed over this many fresh launches per run (median): one
#: interpreter start swings by tens of percent on a shared host.
SETUP_LAUNCHES = 5

#: Host-adjusted metrics are scaled to a host on which the reference loop
#: (:func:`host_calib_ms`) takes this long.  The shared 2-vCPU VM the
#: benchmark was built on flips between a fast state (~6-7 ms) and a slow
#: one (~10 ms) for seconds to minutes at a time, which moved raw study
#: throughput by 2x between runs of the same code.
CALIB_REF_MS = 7.0


class MissingProgram(RuntimeError):
    """The checkout does not hold the program the benchmark measures."""


def prepare_checkout() -> None:
    """Put ``src`` on the import path of this process and its children."""
    if not (SRC / "repro" / "__init__.py").is_file() or not GOLDEN.is_file():
        raise MissingProgram(
            f"no repro sources under {SRC} (run from the root of a checkout)"
        )
    sys.path.insert(0, str(SRC))
    parts = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(parts)
    SCRATCH.mkdir(exist_ok=True)


def cleanup_scratch() -> None:
    shutil.rmtree(SCRATCH, ignore_errors=True)


def universe_ref(seed: int) -> str:
    return f"mixed:{seed}:1000"


# ---------------------------------------------------------------------------
# statistics and reports
# ---------------------------------------------------------------------------
def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 for no samples)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, min(len(ordered), int(-(-q * len(ordered) // 100))))
    return float(ordered[rank - 1])


class Report:
    """Named metrics with unit and sample count, plus the op tally."""

    def __init__(self, workload: str):
        self.workload = workload
        self.metrics: dict[str, tuple[float, str, int]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def put(self, name: str, value: float, unit: str, samples: int = 1) -> None:
        self.metrics[name] = (float(value), unit, int(samples))

    def op(self, ok: bool, problem: str | None = None) -> None:
        """Tally one checked operation; a failed one keeps its reason."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if problem and len(self.problems) < 20:
                self.problems.append(problem)

    def print_lines(self) -> None:
        for problem in self.problems:
            print(f"[{self.workload}] FAILED: {problem}")
        for name in self.metrics:
            value, unit, samples = self.metrics[name]
            print(f"[{self.workload}] {name} = {value:.6g} {unit} (n={samples})")
        print(f"[{self.workload}] operations: attempted={self.attempted} failed={self.failed}")

    def result(self, names) -> dict:
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": self.metrics[name][0], "unit": self.metrics[name][1]}
                for name in names
            },
        }


# ---------------------------------------------------------------------------
# host speed and memory
# ---------------------------------------------------------------------------
def host_calib_ms() -> float:
    """Milliseconds for a fixed pure-Python loop: the host-speed reference
    timed between operations."""
    start = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i
    return (time.perf_counter() - start) * 1000.0


def host_factor(calib: list[float]) -> float:
    """How many times slower than the reference this run's host was: the
    median of the reference-loop samples over :data:`CALIB_REF_MS`.
    CPU-bound durations are divided by it and rates multiplied."""
    return median(calib) / CALIB_REF_MS


def put_adjusted(report: Report, name: str, raw: float, unit: str, samples: int,
                 factor: float, rate: bool) -> None:
    """Report ``name`` scaled to the reference host, and ``raw.<name>``."""
    report.put(name, raw * factor if rate else raw / factor, unit, samples)
    report.put(f"raw.{name}", raw, unit, samples)


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set of ``pid`` in MB (0 when it is gone)."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def group_pids(pgid: int) -> list[int]:
    """Live processes of process group ``pgid``."""
    out: list[int] = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(") ", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            out.append(int(entry))
    return out


def wait_gone(pids, timeout: float = 10.0) -> None:
    """Wait until none of ``pids`` exists any more (zombies count as gone
    once their parent has reaped them)."""
    deadline = time.monotonic() + timeout
    for pid in pids:
        while os.path.exists(f"/proc/{pid}") and time.monotonic() < deadline:
            try:
                with open(f"/proc/{pid}/stat") as fh:
                    if fh.read().split(") ", 1)[1].startswith("Z"):
                        break
            except OSError:
                break
            time.sleep(0.01)


# ---------------------------------------------------------------------------
# set-up launches
# ---------------------------------------------------------------------------
def launch_study_setup(ref: str) -> tuple[float, float, float, float]:
    """One fresh interpreter that imports the CLI and mounts ``ref``.

    Returns ``(total, import, universe, calib)``: seconds measured from
    just before the launch (the child stamps wall-clock time after each
    step) and the reference loop timed just before it.
    """
    calib = host_calib_ms()
    start = time.time()
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_child.py"), ref],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    ).stdout
    stamps = json.loads(out.strip().splitlines()[-1])
    return (
        stamps["universe_done"] - start,
        stamps["import_done"] - start,
        stamps["universe_done"] - stamps["import_done"],
        calib,
    )
