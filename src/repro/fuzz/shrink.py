"""Delta-debugging shrinker for violating schedules.

A fuzzer-found counterexample is typically long and noisy — dozens of
steps of which only a handful matter.  :func:`shrink_schedule` minimizes
it with the classic ddmin loop (remove ever-smaller chunks while the
violation persists) followed by a one-at-a-time sweep, yielding a
**locally minimal** schedule: removing any single remaining step either
makes the schedule invalid or makes the violation disappear.

A candidate is *interesting* iff it replays **validly** on a fresh
runtime (no stepping of idle processes, no invoking past the plan — the
replay layer rejects such candidates instead of patching them up) *and*
the replayed history still fails the safety property.  Replays go
through :func:`repro.fuzz.trace.replay_schedule`, i.e. the plain
simulation runtime, never the snapshot engine — a shrunk trace is
evidence independent of the machinery that found it.

The whole procedure is deterministic: candidate order is a pure
function of the input schedule, and replays are deterministic by the
kernel's determinism contract.  Equal inputs shrink to equal outputs,
which the regression tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.core.properties import SafetyProperty
from repro.fuzz.trace import replay_schedule
from repro.obs.recorder import active as _obs_active
from repro.sim.explore import Choice, InvocationPlan
from repro.util.ddmin import ddmin
from repro.util.errors import UsageError


@dataclass
class ShrinkResult:
    """A minimized schedule plus shrink statistics."""

    schedule: Tuple[Choice, ...]
    original_length: int
    candidates_tried: int
    replays: int

    @property
    def removed(self) -> int:
        return self.original_length - len(self.schedule)


def shrink_schedule(
    factory,
    plan: InvocationPlan,
    schedule: Sequence[Choice],
    safety: SafetyProperty,
    max_replays: int = 10_000,
) -> ShrinkResult:
    """Minimize a violating schedule to a locally minimal one.

    Raises :class:`~repro.util.errors.UsageError` if the input schedule
    does not itself replay to a violation (shrinking needs a true
    starting witness).  ``max_replays`` bounds the work on pathological
    inputs; the partially shrunk (still violating) schedule is returned
    when the budget runs out.
    """
    stats = {"replays": 0, "candidates": 0}
    cache: Dict[Tuple[Choice, ...], bool] = {}

    def interesting(candidate: Tuple[Choice, ...]) -> bool:
        stats["candidates"] += 1
        if candidate in cache:
            return cache[candidate]
        if stats["replays"] >= max_replays:
            return False  # budget exhausted: reject, keep current witness
        stats["replays"] += 1
        result = replay_schedule(factory, plan, candidate, safety)
        cache[candidate] = result.violates
        return result.violates

    current = tuple(schedule)
    if not interesting(current):
        raise UsageError(
            "cannot shrink: the input schedule does not replay to a "
            "safety violation"
        )

    # Phase 1: ddmin — remove chunks, halving the chunk size on failure.
    current = ddmin(current, interesting)

    # Phase 2: one-at-a-time sweep to a fixpoint (local minimality).
    changed = True
    while changed:
        changed = False
        for index in range(len(current)):
            candidate = current[:index] + current[index + 1:]
            if interesting(candidate):
                current = candidate
                changed = True
                break

    rec = _obs_active()
    if rec is not None:
        rec.count("shrink/candidates", stats["candidates"])
        rec.count("shrink/replays", stats["replays"])
        rec.count("shrink/removed_steps", len(schedule) - len(current))
    return ShrinkResult(
        schedule=current,
        original_length=len(schedule),
        candidates_tried=stats["candidates"],
        replays=stats["replays"],
    )
