"""Randomized schedule/crash fuzzing over the simulation kernel.

The randomized counterpart of the exhaustive exploration engine: where
:mod:`repro.sim.explore` enumerates every schedule of an invocation
plan, this subsystem *samples* schedules, crash patterns, and swarm-
mutated schedulers at high rate, steered by a configuration-fingerprint
coverage map — opening the large-instance regime exhaustive search
cannot reach.  On the scenarios tagged ``small`` both ``verify``
backends must reach the declared verdict, which keeps the two layers
honest against each other.

Fuzz targets are the declarative scenarios of :mod:`repro.scenarios`
(one registry feeding both backends); this package stays *below* the
scenario layer and takes scenario objects as plain inputs.

* :mod:`repro.fuzz.driver` — :class:`FuzzDriver`: snapshot-restart
  sampling with swarm scheduler mutation, crash-point injection, and
  coverage-guided corpus restarts;
* :mod:`repro.fuzz.shrink` — ddmin minimization of violating schedules
  to locally minimal, replay-verified traces;
* :mod:`repro.fuzz.trace` — the JSON replay artifacts (schedule
  counterexamples and the liveness backend's lasso certificates),
  replayed through the plain :mod:`repro.sim.runtime` (independent of
  the engine).
"""

from repro.fuzz.driver import FuzzDriver, FuzzReport, FuzzViolation, fuzz_workload
from repro.fuzz.shrink import ShrinkResult, shrink_schedule
from repro.fuzz.trace import (
    LassoTrace,
    ReplayResult,
    ReplayTrace,
    decisions_to_labels,
    labels_to_decisions,
    load_trace,
    replay_schedule,
    save_trace,
    schedule_to_decisions,
)

__all__ = [
    "FuzzDriver",
    "FuzzReport",
    "FuzzViolation",
    "LassoTrace",
    "ReplayResult",
    "ReplayTrace",
    "ShrinkResult",
    "decisions_to_labels",
    "fuzz_workload",
    "labels_to_decisions",
    "load_trace",
    "replay_schedule",
    "save_trace",
    "schedule_to_decisions",
    "shrink_schedule",
]
