"""The verifier's benchmark: one command, three workloads, checked verdicts.

    python3 perfbench/run.py --workload proof|hunt|serve --seed N \\
        --seconds S --trace 0|1 [--hit-p99-limit-ms MS]

Run from the root of a checkout (the program's sources in ``src/``).
``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
runs the same harness untraced and then traced, and reports the
per-layer metrics.  Every verdict is checked; a wrong or unreproducible
one counts as a failed operation.

The last line of standard output is the result::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The line before it stamps the run (Python, CPUs, commit, seeds, tracing)
and carries the details behind the metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

from typing import Any, Dict, List, Optional, Tuple

from common import (
    HERE,
    OUT,
    PYTHON,
    ROOT,
    SRC,
    Tally,
    hash_seeds,
    median,
    probe_median,
    scaled,
    spawn,
    stop,
    wait_line,
)

WORKLOADS = ("proof", "hunt", "serve")

#: Set-up samples of a verification process per run.
SETUP_SAMPLES = 9


def stamp(args, hash_seed: int, other_seed: Optional[int]) -> Dict[str, Any]:
    """Where and how this result was measured."""
    digest = hashlib.sha256()
    for directory, subdirectories, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        subdirectories[:] = sorted(d for d in subdirectories if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        probe = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = probe.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "hash_seed": hash_seed,
        "recheck_hash_seed": other_seed,
        "trace": bool(args.trace),
        "seconds": args.seconds,
    }


# -- the proof and hunt workloads (verification in a worker process) --------


def run_worker(
    workload: str, mode: str, seed: int, seconds: float, hash_seed: int,
    trace_out: Optional[str] = None,
) -> Tuple[float, Dict[str, Any]]:
    """One worker process; returns its spawn-to-READY seconds and result."""
    import time

    args = [
        PYTHON, os.path.join(HERE, "worker.py"), "--workload", workload,
        "--mode", mode, "--seed", str(seed), "--seconds", repr(seconds),
    ]
    if trace_out:
        args += ["--trace-out", trace_out]
    started = time.perf_counter()
    process = spawn(args, hash_seed)
    try:
        _, ready = wait_line(process, "READY")
        assert process.stdout is not None
        lines = process.stdout.read().splitlines()
        code = process.wait()
    finally:
        stop(process)
    if code != 0:
        raise RuntimeError(f"worker {mode} exited with {code}")
    result = json.loads(lines[-1]) if lines else {}
    return ready - started, result


def load_expected() -> Dict[str, Dict[str, Any]]:
    with open(os.path.join(HERE, "expected.json")) as handle:
        return json.load(handle)


def check_records(
    records: List[Dict[str, Any]],
    expected: Dict[str, Dict[str, Any]],
    tally: Tally,
    reference: Optional[Dict[str, Dict[str, Any]]] = None,
    reference_name: str = "",
) -> Dict[str, Dict[str, Any]]:
    """Count every verdict as one operation and check it; returns the
    deterministic counts by label.

    A verdict fails when it is not the expected one, ran out of budget,
    or carries a counterexample or lasso that did not replay.  Counts
    must repeat exactly: across repetitions in this process, against
    ``expected.json``, and against ``reference`` (a process with the
    other hash seed)."""
    counts: Dict[str, Dict[str, Any]] = {}
    for record in records:
        label = record["label"]
        problems = []
        if not record["expected"]:
            problems.append(f"outcome {record['outcome']} is not the expected one")
        if record["outcome"] == "budget-exhausted":
            problems.append("budget exhausted")
        if record["counterexample"] and record["counterexample_replays"] is not True:
            problems.append("counterexample does not replay")
        if record["shrink_unfaithful"]:
            problems.append("shrunk counterexample is unfaithful")
        if record["lasso"] and record["lasso_replays"] is not True:
            problems.append("lasso does not replay")
        observed = dict(record["counts"], outcome=record["outcome"])
        if label in counts and counts[label] != observed:
            problems.append(f"counts {observed} differ from {counts[label]} earlier in the run")
        counts.setdefault(label, observed)
        if label in expected and expected[label] != observed:
            problems.append(f"counts {observed} differ from expected {expected[label]}")
        if reference is not None and label in reference and reference[label] != observed:
            problems.append(
                f"counts {observed} differ under {reference_name}: {reference[label]}"
            )
        tally.operation(label, problems)
    return counts


def _median_wall(
    records: List[Dict[str, Any]], category: Optional[str] = None
) -> Dict[str, float]:
    """Median scaled wall time per item of one category (of every item
    when ``category`` is None)."""
    walls: Dict[str, List[float]] = {}
    for record in records:
        if category is None or record["category"] == category:
            walls.setdefault(record["label"], []).append(
                scaled(record["wall_s"], record["probe_s"])
            )
    return {label: median(values) for label, values in walls.items()}


def work_s(records: List[Dict[str, Any]]) -> float:
    """One pass over the workload's items: per-item medians over the
    repetitions of one run, summed.  Wall times are scaled to the
    reference machine speed (``speed_probe``)."""
    return sum(_median_wall(records).values())


def breakdown(workload: str, records: List[Dict[str, Any]]) -> Dict[str, float]:
    """The parts of ``work_s`` the workload is about, per category."""
    if workload == "proof":
        return {
            "proof_none_s": sum(_median_wall(records, "proof_none").values()),
            "proof_dpor_s": sum(_median_wall(records, "proof_dpor").values()),
        }
    baseline = _median_wall(records, "baseline")
    interleavings = {
        record["label"]: record["counts"]["interleavings"]
        for record in records
        if record["category"] == "baseline"
    }
    return {
        "hunt_exhaustive_s": sum(_median_wall(records, "hunt_exhaustive").values()),
        "liveness_s": sum(_median_wall(records, "liveness").values()),
        "fuzz_interleavings_per_s": sum(interleavings.values()) / sum(baseline.values()),
    }


def _scaled_total(records: List[Dict[str, Any]]) -> float:
    return sum(scaled(record["wall_s"], record["probe_s"]) for record in records)


def run_verification(args, tally: Tally, report: Dict[str, Any]) -> Dict[str, float]:
    expected = load_expected()[args.workload]
    first, second = hash_seeds(args.seed)
    if args.trace:
        return run_traced(args, expected, first, second, tally, report)
    run_worker(args.workload, "setup", args.seed, 0.0, first)  # fills bytecode caches
    setup = []
    probe = probe_median()
    for index in range(SETUP_SAMPLES):
        mode = "measure" if index == SETUP_SAMPLES - 1 else "setup"
        ready, result = run_worker(args.workload, mode, args.seed, args.seconds, first)
        after = probe_median()
        setup.append(scaled(ready, (probe + after) / 2))
        probe = after
    records = result["records"]
    reference = None
    if args.workload == "hunt":
        # Fuzz counts depend on the seed, so expected.json cannot hold
        # them: re-run the fuzz verdicts under the other hash seed.
        _, recheck = run_worker(args.workload, "recheck", args.seed, 0.0, second)
        reference = check_records(recheck["records"], expected, tally)
    check_records(records, expected, tally, reference, f"PYTHONHASHSEED={second}")
    report["setup_samples"] = setup
    report["verdicts"] = len(records)
    report["wall_s"] = {
        category: sum(record["wall_s"] for record in records if record["category"] == category)
        for category in sorted({record["category"] for record in records})
    }
    report["probe_s"] = median([record["probe_s"] for record in records])
    report["breakdown"] = breakdown(args.workload, records)
    return {
        "work_s": work_s(records),
        "setup_s": median(setup),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def run_traced(args, expected, first, second, tally, report) -> Dict[str, float]:
    """One untraced and one traced pass (under the other hash seed, so
    their counts also prove hash-seed independence)."""
    os.makedirs(OUT, exist_ok=True)
    trace_out = os.path.join(OUT, f"{args.workload}-seed{args.seed}-spans.json")
    _, plain = run_worker(args.workload, "measure", args.seed, 0.0, first)
    _, traced = run_worker(args.workload, "trace", args.seed, 0.0, second, trace_out)
    reference = check_records(plain["records"], expected, tally)
    check_records(traced["records"], expected, tally, reference, f"PYTHONHASHSEED={first}")
    for name, program, wrapper in traced["crosscheck"]:
        if program != wrapper:
            tally.problem("crosscheck", f"{name}: program {program} != wrapper {wrapper}")
    report["crosscheck"] = traced["crosscheck"]
    # The speed probes ran inside the traced spans, so they count here.
    traced_wall = sum(
        record["wall_s"] + record["probe_overhead_s"] for record in traced["records"]
    )
    report["traced_wall_s"] = traced_wall
    report["spans"] = os.path.relpath(trace_out, ROOT)
    metrics = dict(traced["layers"])
    # The untraced pass's breakdown: unbounded, one pass per run.
    metrics.update(breakdown(args.workload, plain["records"]))
    metrics["obs.trace_overhead"] = _scaled_total(traced["records"]) / _scaled_total(
        plain["records"]
    ) - 1
    metrics["obs.unattributed_s"] = traced_wall - traced["self_s"]
    return metrics


# -- entry point --------------------------------------------------------------


def declared_units(kind: str) -> Dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {metric["name"]: metric["unit"] for metric in json.load(handle)[kind]}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="the verifier's benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--hit-p99-limit-ms", type=float, required=True,
        help="latency limit on hit p99 for the serve ladder",
    )
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    first, second = hash_seeds(args.seed)
    tally = Tally()
    report: Dict[str, Any] = {}
    if args.workload == "serve":
        import serve

        metrics = serve.run(
            args.seed, args.seconds, bool(args.trace), args.hit_p99_limit_ms,
            first, tally, report,
        )
    else:
        metrics = run_verification(args, tally, report)
    if args.trace:
        # Every per-layer metric on every workload: a layer a workload
        # bypasses reads 0, which is the prediction for that workload.
        units = declared_units("per_layer")
        values = {name: float(metrics.get(name, 0.0)) for name in units}
    else:
        # Every end-to-end metric on every workload; a missing one is a
        # defect of the benchmark, so it stops the run without a result.
        units = declared_units("end_to_end")
        values = {name: float(metrics[name]) for name in units}
    report["problems"] = tally.problems[:50]
    print(json.dumps({"stamp": stamp(args, first, second), "report": report}))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in values.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
