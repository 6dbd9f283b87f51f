"""The verification process of the ``proof`` and ``hunt`` workloads.

Run by ``run.py`` as a child process, with ``PYTHONPATH`` pointing at
the program's sources and ``PYTHONHASHSEED`` fixed::

    python3 perfbench/worker.py --workload proof --mode measure --seconds 30

It imports the program, builds its work list, prints ``READY`` (the
parent times spawn to ``READY`` as set-up), then, by ``--mode``:

``setup``    exits at once;
``measure``  runs every item once, then repeats the items that still
             fit into ``--seconds``, untraced;
``trace``    runs every item once with the layer wrappers installed and
             a ``repro.obs`` recorder active, for the per-layer metrics
             and the counter cross-check;
``recheck``  runs only the fuzz items once (their counts depend on the
             seed, so the parent compares them across hash seeds).

Each verdict is timed with a :class:`common.SpeedSampler` running, so
its record carries the wall time (probes excluded) and the machine's
speed while it ran.  The last line of standard output is one JSON
object with the results.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time

from typing import Any, Callable, Dict, List, Optional

from common import SpeedSampler

#: Verdict stats that are deterministic functions of the inputs (and the
#: fuzz seed); they must repeat exactly across runs and hash seeds.
DETERMINISTIC_STATS = (
    "runs_checked",
    "counterexample_length",
    "shrunk_from",
    "interleavings",
    "histories_checked",
    "coverage",
    "corpus",
    "violation_iteration",
    "runs",
    "configurations",
    "lassos",
    "horizon_runs",
    "finite_runs",
    "certainty",
    "lasso_stem",
    "lasso_cycle",
)


class Item:
    """One verify call of a workload."""

    def __init__(
        self,
        label: str,
        category: str,
        scenario: Callable[[], Any],
        backend: str,
        overrides: Dict[str, Any],
    ):
        self.label = label
        self.category = category
        self.scenario = scenario
        self.backend = backend
        self.overrides = overrides


def proof_items() -> List[Item]:
    from repro.scenarios import get_scenario

    scenario = get_scenario("agp-opacity-deep")
    return [
        Item(
            f"agp-opacity-deep/exhaustive/{reduction}",
            f"proof_{reduction}",
            lambda: scenario,
            "exhaustive",
            {"reduction": reduction},
        )
        for reduction in ("none", "dpor")
    ]


def hunt_items(seed: int) -> List[Item]:
    from repro.mutate.mutants import iter_mutants

    categories = {"exhaustive": "hunt_exhaustive", "fuzz": "hunt_fuzz", "liveness": "liveness"}
    items = []
    for mutant in iter_mutants():
        for backend in mutant.expected_killers:
            items.append(
                Item(
                    f"mutant:{mutant.mutant_id}/{backend}",
                    categories[backend],
                    mutant.scenario_factory,
                    backend,
                    {"seed": seed} if backend == "fuzz" else {},
                )
            )
        items.append(
            Item(
                f"mutant-baseline:{mutant.mutant_id}/fuzz",
                "baseline",
                mutant.baseline_factory,
                "fuzz",
                {"seed": seed},
            )
        )
    return items


def run_item(verify: Callable, item: Item, sampler: SpeedSampler) -> Dict[str, Any]:
    """One timed verify call and what the parent checks about it.  The
    wall time excludes the speed probes taken while it ran.

    A full collection first gives every call the same collector state:
    otherwise the garbage earlier calls left (which depends on the fuzz
    seed) decides when the collector runs inside this one, and with it
    the call's time and the process's peak resident set (the hunt's
    read 216 or 245 MB from run to run)."""
    gc.collect()
    mark = sampler.mark()
    started = time.perf_counter()
    verdict = verify(item.scenario(), backend=item.backend, **item.overrides)
    wall = time.perf_counter() - started
    probe, probe_overhead = sampler.since(mark)
    stats = verdict.stats
    return {
        "label": item.label,
        "category": item.category,
        "wall_s": wall - probe_overhead,
        "probe_s": probe,
        "probe_overhead_s": probe_overhead,
        "outcome": verdict.outcome,
        "expected": verdict.expected,
        "counterexample": verdict.counterexample is not None,
        "counterexample_replays": stats.get("counterexample_replays"),
        "shrink_unfaithful": bool(stats.get("shrink_unfaithful")),
        "lasso": verdict.lasso is not None,
        "lasso_replays": stats.get("lasso_replays"),
        "counts": {
            key: stats[key] for key in DETERMINISTIC_STATS if key in stats
        },
    }


def run_measure(verify: Callable, items: List[Item], seconds: float) -> List[Dict]:
    """Every item once, then round-robin repeats of the items whose
    last duration still fits before ``seconds`` have passed."""
    started = time.perf_counter()
    with SpeedSampler() as sampler:
        records = [run_item(verify, item, sampler) for item in items]
        last = {record["label"]: record["wall_s"] for record in records}
        progressed = True
        while progressed:
            progressed = False
            for item in items:
                remaining = seconds - (time.perf_counter() - started)
                if last[item.label] <= remaining:
                    record = run_item(verify, item, sampler)
                    last[item.label] = record["wall_s"]
                    records.append(record)
                    progressed = True
    return records


def run_traced(verify_module, items: List[Item]) -> Dict[str, Any]:
    """One traced pass: per-layer numbers plus the program's own counters."""
    import layers
    from repro.obs.recorder import recording
    from tracer import Tracer

    tracer = Tracer()
    layers.install_verify_layers(tracer)
    try:
        with recording(label="perfbench") as recorder:
            records = run_measure(verify_module.verify, items, 0.0)
    finally:
        tracer.unpatch()
    layer_totals = tracer.layer_totals()
    parents = tracer.parents
    checks_in_searches = sum(
        calls
        for (name, parent), calls in parents.items()
        if name == "objects.check_history"
        and parent in ("sim.explore.check_all_histories", "fuzz.driver.run")
    )
    return {
        "records": records,
        "self_s": tracer.self_seconds(),
        "hook_s": tracer.hook_s,
        "layers": layers.layer_metrics(tracer),
        "crosscheck": [
            ["safety/checks", recorder.counters.get("safety/checks", 0), checks_in_searches],
            [
                "kernel/decisions",
                recorder.counters.get("kernel/decisions", 0),
                layer_totals.get("engine.config.apply", {}).get("calls", 0),
            ],
            [
                "liveness/configurations",
                recorder.counters.get("liveness/configurations", 0),
                layers.liveness_configurations(tracer),
            ],
        ],
        "trace": tracer.document(),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("proof", "hunt"), required=True)
    parser.add_argument(
        "--mode", choices=("setup", "measure", "trace", "recheck"), required=True
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    import importlib

    verify_module = importlib.import_module("repro.scenarios.verify")
    items = proof_items() if args.workload == "proof" else hunt_items(args.seed)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0
    result: Dict[str, Any]
    if args.mode == "trace":
        result = run_traced(verify_module, items)
        if args.trace_out:
            with open(args.trace_out, "w") as handle:
                json.dump(result.pop("trace"), handle)
        else:
            result.pop("trace")
    else:
        if args.mode == "recheck":
            items = [item for item in items if item.backend == "fuzz"]
        result = {"records": run_measure(verify_module.verify, items, args.seconds)}
    # ru_maxrss is in KiB on Linux.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
