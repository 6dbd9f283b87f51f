"""Shared pieces of the benchmark: paths, child processes, statistics."""

from __future__ import annotations

import gc
import os
import signal
import statistics
import subprocess
import sys
import time

from typing import Any, Dict, List, Optional, Sequence, Tuple

#: The checkout the benchmark runs in (the directory above this one).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
SRC = os.path.join(ROOT, "src")
#: Scratch output of a run (databases, traces); ignored by git.
OUT = os.path.join(ROOT, ".perfbench_out")

#: Percentiles considered when reporting a tail, highest first.
PERCENTILES = (99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0)


def child_env(hash_seed: int) -> Dict[str, str]:
    """Environment of a program process: sources on the path, hash seed
    fixed so the run can be repeated."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = str(hash_seed)
    return env


def hash_seeds(seed: int) -> Tuple[int, int]:
    """The two hash seeds of a run: the measured one alternates with the
    workload seed, the other one re-checks deterministic counts."""
    first = 1 + seed % 2
    return first, 3 - first


def spawn(args: Sequence[str], hash_seed: int, **options) -> subprocess.Popen:
    """Start a program process in the checkout, in its own session so
    that it and its children can be stopped together."""
    return subprocess.Popen(
        list(args),
        cwd=ROOT,
        env=child_env(hash_seed),
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
        **options,
    )


def wait_line(process: subprocess.Popen, prefix: str) -> Tuple[str, float]:
    """Read the child's stdout until a line starting with ``prefix``;
    returns it and the clock time it arrived."""
    assert process.stdout is not None
    for line in process.stdout:
        if line.startswith(prefix):
            return line.strip(), time.perf_counter()
    raise RuntimeError(
        f"process {process.args!r} exited ({process.wait()}) before {prefix!r}"
    )


def peak_rss_mb(pid: int) -> Optional[float]:
    """High-water resident set of a live process, from ``/proc``."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        return None
    return None


def _rank(count: int, p: float) -> int:
    """1-based nearest rank of percentile ``p`` (to 0.1) among ``count``,
    in integers so 99.9% of 10000 is exactly rank 9990."""
    tenths = round(p * 10)
    return max(1, -(-tenths * count // 1000))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``p``
    percent of the values at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    return ordered[_rank(len(ordered), p) - 1]


def beyond(count: int, p: float) -> int:
    """How many of ``count`` samples lie beyond the nearest-rank ``p``."""
    return count - _rank(count, p)


def highest_percentile(count: int, minimum_beyond: int = 10) -> Optional[float]:
    """The highest reported percentile that still has at least
    ``minimum_beyond`` samples beyond it, or ``None``."""
    for p in PERCENTILES:
        if beyond(count, p) >= minimum_beyond:
            return p
    return None


#: What :func:`speed_probe` takes on the reference machine (a 2-vCPU
#: x86-64 KVM guest, Python 3.11).  Verification times are reported
#: scaled to it; never change it, or every scaled figure moves.
REFERENCE_PROBE_S = 0.0011


def _accumulate():
    total = 0
    while True:
        total += yield total


def speed_probe() -> float:
    """CPU seconds a fixed pure-Python loop takes now: tuple keys, dict
    updates, a sort and generator resumptions, the kinds of work the
    checker, the fingerprinter and the snapshot restore do.

    The loop never touches the program, so no change to the program can
    move it; only the machine's speed does.  It is timed in thread CPU
    time, so time spent waiting for a CPU another process holds does not
    count, and the collector is off while it runs, so the program's heap
    cannot bill it a collection.  (Its allocations still advance the
    collector's counters, so a program collection may come a little
    earlier or later than without it.)"""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.thread_time()
        counts: Dict[Tuple[int, int, str], int] = {}
        for index in range(1500):
            key = (index & 255, index >> 3, "x")
            counts[key] = counts.get(key, 0) + 1
        sorted(counts.items())
        for _ in range(20):
            accumulator = _accumulate()
            next(accumulator)
            for value in range(50):
                accumulator.send(value)
        return time.thread_time() - started
    finally:
        if enabled:
            gc.enable()


def probe_median(samples: int = 5) -> float:
    """Median of a few back-to-back speed probes."""
    return median([speed_probe() for _ in range(samples)])


def scaled(wall_s: float, probe_s: float) -> float:
    """``wall_s`` at the reference speed, given the speed probe time
    measured while it ran."""
    return wall_s * REFERENCE_PROBE_S / probe_s


class SpeedSampler:
    """Runs :func:`speed_probe` every ``interval`` seconds, in the
    measured process itself, while it works.

    On a shared machine the speed of this process's CPU drifts by tens
    of percent within seconds.  A ``SIGALRM`` handler runs
    :func:`speed_probe` between bytecodes of the main thread, so the
    probes sample the very CPU and the very moments the work ran on;
    the handler's own time is recorded so callers can subtract it.
    """

    def __init__(self, interval: float = 0.25):
        self.interval = interval
        self.samples: List[float] = []
        self.overhead_s = 0.0
        self._previous: Any = None

    def _handler(self, signum, frame) -> None:
        started = time.perf_counter()
        self.samples.append(speed_probe())
        self.overhead_s += time.perf_counter() - started

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> Tuple[int, float]:
        return len(self.samples), self.overhead_s

    def since(self, mark: Tuple[int, float], minimum: int = 5) -> Tuple[float, float]:
        """(median probe time, probe overhead seconds) since ``mark``;
        short stretches borrow the latest earlier probes up to
        ``minimum``, and a probe is taken if there is none at all."""
        count, overhead = mark
        start = max(0, min(count, len(self.samples) - minimum))
        window = self.samples[start:]
        if not window:
            window = [speed_probe()]
        return median(window), self.overhead_s - overhead


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


class Tally:
    """Operations attempted and failed, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def operation(self, label: str, problems: Sequence[str]) -> bool:
        """Count one operation; it failed if any problem was found."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {problem}" for problem in problems)
        return not problems

    def problem(self, label: str, problem: str) -> None:
        """A failed check that is not tied to one operation (a count that
        did not repeat, a cross-check that disagreed)."""
        self.operation(label, [problem])


def stop(process: subprocess.Popen, timeout: float = 15.0) -> int:
    """Stop a process started by :func:`spawn`, then anything left in its
    session, and reap it."""
    if process.poll() is None:
        process.terminate()
        try:
            process.wait(timeout)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    if process.stdout is not None:
        process.stdout.close()
    return process.returncode


PYTHON = sys.executable
