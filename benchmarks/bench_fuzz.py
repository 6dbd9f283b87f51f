"""Record fuzz-vs-exhaustive throughput.

Measures, on the ``agp-opacity`` reference workload (the same instance
``benchmarks/engine_timing.py`` times):

* the exhaustive engine's interleaving rate — maximal runs yielded per
  second of snapshot-mode exploration (no safety checking, matching
  engine_timing's "exploration phase" basis);
* the fuzzer's interleaving rate in its throughput profile (sampling
  only, no safety checking): seeded random walks restarting from
  coverage-corpus snapshots;
* for context, the fuzzer's rate with safety checking on (the verdict
  mode ``verify --backend fuzz`` uses).

Asserts the fuzzer samples at least ``MIN_FUZZ_SPEEDUP``× more
interleavings per second than exhaustive exploration and writes
everything to ``BENCH_fuzz.json`` at the repository root.  Verdict
agreement between the two backends is asserted by ``python -m repro
verify --tag small`` under each backend, not here.

Usage::

    PYTHONPATH=src python benchmarks/bench_fuzz.py [output.json]
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path

from repro.fuzz import FuzzDriver, fuzz_workload
from repro.scenarios import get_scenario
from repro.sim.explore import explore_histories

#: The fuzzer must sample interleavings at least this much faster than
#: exhaustive snapshot-mode exploration enumerates them.
MIN_FUZZ_SPEEDUP = 10.0

WORKLOAD = "agp-opacity"
FUZZ_ITERATIONS = 50_000
#: The throughput profile: mostly corpus restarts, deep restart points.
THROUGHPUT_PROFILE = {"explore_every": 64, "min_corpus_depth": 10}


def measure_exhaustive(workload, repetitions: int = 2):
    best = None
    runs = 0
    for _ in range(repetitions):
        start = time.perf_counter()
        runs = sum(1 for _ in explore_histories(
            workload.factory, workload.plan, mode="snapshot"
        ))
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return runs, best


def measure_fuzz_throughput(workload, repetitions: int = 2):
    best = None
    for _ in range(repetitions):
        driver = FuzzDriver(
            workload.factory, workload.plan, safety=None, seed=1,
            **THROUGHPUT_PROFILE,
        )
        report = driver.run(FUZZ_ITERATIONS)
        best = report if best is None or report.elapsed < best.elapsed else best
    return best


def main(output: Path) -> int:
    workload = get_scenario(WORKLOAD)
    record = {
        "benchmark": "fuzz vs exhaustive interleaving throughput",
        "python": platform.python_version(),
        "workload": WORKLOAD,
        "min_fuzz_speedup": MIN_FUZZ_SPEEDUP,
        "rate_basis": "interleavings/second, no safety checking on "
        "either side (the engine_timing 'exploration phase' basis)",
    }

    exhaustive_runs, exhaustive_seconds = measure_exhaustive(workload)
    exhaustive_rate = exhaustive_runs / exhaustive_seconds
    record["exhaustive"] = {
        "interleavings": exhaustive_runs,
        "seconds": round(exhaustive_seconds, 4),
        "interleavings_per_second": round(exhaustive_rate, 1),
    }
    print(
        f"exhaustive: {exhaustive_runs} interleavings in "
        f"{exhaustive_seconds:.3f}s = {exhaustive_rate:,.0f}/s"
    )

    throughput = measure_fuzz_throughput(workload)
    fuzz_rate = throughput.interleavings_per_second
    record["fuzz_throughput"] = {
        "profile": THROUGHPUT_PROFILE,
        "interleavings": throughput.interleavings,
        "seconds": round(throughput.elapsed, 4),
        "coverage": throughput.coverage,
        "corpus": throughput.corpus,
        "interleavings_per_second": round(fuzz_rate, 1),
    }
    speedup = fuzz_rate / exhaustive_rate
    record["fuzz_speedup"] = round(speedup, 2)
    print(
        f"fuzz (throughput): {throughput.interleavings} interleavings in "
        f"{throughput.elapsed:.3f}s = {fuzz_rate:,.0f}/s "
        f"({throughput.coverage} states covered) -> {speedup:.1f}x"
    )

    checked = fuzz_workload(workload, seed=1, iterations=10_000)
    record["fuzz_checked"] = {
        "interleavings": checked.interleavings,
        "seconds": round(checked.elapsed, 4),
        "histories_checked": checked.histories_checked,
        "interleavings_per_second": round(
            checked.interleavings_per_second, 1
        ),
        "holds": checked.holds,
    }
    print(
        f"fuzz (checked): {checked.interleavings_per_second:,.0f}/s, "
        f"{checked.histories_checked} distinct histories judged, "
        f"holds={checked.holds}"
    )

    output.write_text(json.dumps(record, indent=2) + "\n")
    print(f"-> {output}")
    if speedup < MIN_FUZZ_SPEEDUP:
        print(
            f"FAIL: fuzz speedup {speedup:.1f}x is below "
            f"{MIN_FUZZ_SPEEDUP}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    target = Path(sys.argv[1]) if len(sys.argv) > 1 else (
        Path(__file__).resolve().parent.parent / "BENCH_fuzz.json"
    )
    raise SystemExit(main(target))
