"""Replay and ddmin-style minimization of lasso certificates.

A starvation proof found by the liveness search is a decision sequence
``stem · cycle`` whose end state equals its cycle-start state — so the
run extends to ``stem · cycle^ω``.  This module makes that evidence
independent of the search machinery:

* :func:`replay_lasso` re-executes the decisions on a fresh *plain*
  runtime (:class:`~repro.sim.runtime.Runtime` — never the snapshot
  engine) and re-checks the certificate's claims: the state repetition
  under the certificate's fingerprint kind, and the run statistics the
  liveness verdict is recomputed from.
* :func:`shrink_lasso` minimizes a replaying certificate, analogous to
  the ddmin schedule shrinker (:mod:`repro.fuzz.shrink`): first the
  cycle is reduced to its true period (a strided detector may report a
  multiple of it), then the stem is shrunk chunk-wise by the shared
  :func:`~repro.util.ddmin.ddmin` loop.  A
  candidate is *interesting* iff it replays validly, still closes the
  cycle (or, for finite certificates, still completes fairly), and the
  liveness property still fails on the replayed run's summary.

Certificate kinds mirror :class:`~repro.sim.record.LassoCertificate`
plus one: ``"exact"`` compares full kernel state, ``"abstract"``
compares the implementation's liveness abstraction, and ``"finite"``
(empty cycle) certifies a complete fair finite execution instead of an
infinite one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, Optional, Sequence, Tuple

from repro.core.object_type import ProgressMode
from repro.core.properties import LivenessProperty
from repro.sim.drivers import Decision, ScriptedDriver
from repro.sim.record import LassoCertificate, RunResult
from repro.sim.runtime import (
    Runtime,
    abstract_state_fingerprint,
    kernel_state_fingerprint,
)
from repro.util.ddmin import ddmin
from repro.util.errors import SimulationError

#: The certificate kinds replay knows how to re-check.
CERTIFICATE_KINDS = ("exact", "abstract", "finite")


@dataclass
class LassoReplayResult:
    """Outcome of replaying ``stem · cycle`` on a plain runtime."""

    valid: bool
    #: State repetition re-verified under the certificate's kind
    #: (``False`` for finite certificates, which have no cycle).
    repeats: bool
    #: The replayed run with a synthetic certificate attached when the
    #: cycle closed (``None`` when the replay was invalid).
    result: Optional[RunResult] = None
    error: Optional[str] = None

    def certifies(self, kind: str) -> bool:
        """Whether the replay re-established the certificate's claim:
        a closing cycle for lasso kinds, a complete fair finite run for
        ``"finite"``."""
        if not self.valid or self.result is None:
            return False
        if kind == "finite":
            return self.result.fairness_complete
        return self.repeats


def _state_fingerprint(runtime: Runtime, kind: str) -> Optional[Hashable]:
    """The replay-side repetition key for one certificate kind — the
    same shared definitions the search observed, so a genuine
    engine-found lasso always re-certifies here."""
    if kind == "exact":
        return kernel_state_fingerprint(runtime)
    if kind == "abstract":
        return abstract_state_fingerprint(runtime)
    return None  # finite: no repetition claim


def replay_lasso(
    factory,
    stem: Sequence[Decision],
    cycle: Sequence[Decision],
    kind: str = "exact",
) -> LassoReplayResult:
    """Re-execute ``stem`` then ``cycle`` from scratch; re-check the
    certificate.

    Invalid decision sequences (stepping an idle process, …) yield
    ``valid=False`` rather than raising — the shrinker treats
    invalidity as "candidate rejected", exactly like the schedule
    shrinker does.
    """
    if kind not in CERTIFICATE_KINDS:
        raise ValueError(
            f"certificate kind must be one of {CERTIFICATE_KINDS}, got {kind!r}"
        )
    implementation = factory()
    runtime = Runtime(
        implementation,
        ScriptedDriver([], name="lasso-replay"),
        max_steps=len(stem) + len(cycle) + 1,
        detect_lasso=False,
    )
    try:
        for decision in stem:
            runtime.apply_decision(decision)
        cycle_entry = _state_fingerprint(runtime, kind)
        for decision in cycle:
            runtime.apply_decision(decision)
        cycle_exit = _state_fingerprint(runtime, kind)
    except SimulationError as exc:
        return LassoReplayResult(valid=False, repeats=False, error=str(exc))
    repeats = bool(cycle) and cycle_entry is not None and cycle_entry == cycle_exit
    complete = not any(state.pending for state in runtime.processes)
    for state in runtime.processes:
        runtime.stats[state.pid].pending_at_end = state.pending
    result = RunResult(
        history=runtime.view.history,
        n_processes=implementation.n_processes,
        total_steps=runtime.step_count,
        stop_reason="lasso" if repeats else "replay",
        fairness_complete=not cycle and complete,
        stats=runtime.stats,
        lasso=LassoCertificate(
            cycle_start=len(stem),
            cycle_end=len(stem) + len(cycle),
            fingerprint_kind=kind,
        )
        if repeats
        else None,
        driver_name="lasso-replay",
        implementation_name=implementation.name,
    )
    return LassoReplayResult(valid=True, repeats=repeats, result=result)


def certifies_starvation(
    factory,
    stem: Sequence[Decision],
    cycle: Sequence[Decision],
    kind: str,
    liveness: LivenessProperty,
    progress_mode: ProgressMode,
    starving: Sequence[int] = (),
) -> bool:
    """THE acceptance predicate for a starvation certificate.

    True iff the decisions replay validly on a plain runtime, the
    certificate's repetition/completeness claim re-establishes under
    ``kind``, every process in ``starving`` is still starved, and the
    liveness property still fails on the replayed run's summary.
    Shared by the shrinker's candidate filter and the verify backend's
    final ``lasso_replays`` check, so the two can never drift apart.
    """
    replay = replay_lasso(factory, stem, cycle, kind)
    if not replay.certifies(kind):
        return False
    summary = replay.result.summary(progress_mode)
    if not frozenset(starving) <= (summary.correct - summary.progressors):
        return False
    return not liveness.evaluate(summary).holds


@dataclass
class ShrunkLasso:
    """A minimized certificate plus shrink statistics."""

    stem: Tuple[Decision, ...]
    cycle: Tuple[Decision, ...]
    original_stem_length: int
    original_cycle_length: int
    replays: int
    #: ``False`` when the *input* certificate failed
    #: :func:`certifies_starvation` — the caller keeps the original and
    #: must surface the failure loudly.  ``True`` means the returned
    #: ``stem``/``cycle`` *passed* that predicate (every kept candidate
    #: was replay-verified, and replays are deterministic), so callers
    #: need not re-verify.
    faithful: bool = True


def _divisors(n: int):
    for d in range(1, n):
        if n % d == 0:
            yield d


def shrink_lasso(
    factory,
    stem: Sequence[Decision],
    cycle: Sequence[Decision],
    kind: str,
    liveness: LivenessProperty,
    progress_mode: ProgressMode,
    starving: Sequence[int] = (),
    max_replays: int = 2_000,
) -> ShrunkLasso:
    """Minimize a certificate while it keeps certifying the violation.

    Phase 1 reduces the cycle to its shortest period (divisor probing —
    the stride-soundness complement: a strided detector reports some
    multiple of the true period).  Phase 2 ddmin-shrinks the stem with
    the cycle fixed.  A candidate must keep every process in
    ``starving`` starved (not just *some* process — otherwise ddmin
    could drop a victim's invocations entirely and the minimized
    certificate would witness a different starving set than it
    records).  Deterministic: candidate order is a pure function of the
    input, replays are deterministic by the kernel contract.
    """
    stats = {"replays": 0}

    def interesting(candidate_stem, candidate_cycle) -> bool:
        if stats["replays"] >= max_replays:
            return False  # budget exhausted: keep the current witness
        stats["replays"] += 1
        return certifies_starvation(
            factory, candidate_stem, candidate_cycle, kind, liveness,
            progress_mode, starving,
        )

    current_stem = tuple(stem)
    current_cycle = tuple(cycle)
    if not interesting(current_stem, current_cycle):
        return ShrunkLasso(
            stem=current_stem,
            cycle=current_cycle,
            original_stem_length=len(stem),
            original_cycle_length=len(cycle),
            replays=stats["replays"],
            faithful=False,
        )

    # Phase 1: cycle period reduction (smallest divisor first).
    reduced = True
    while reduced and len(current_cycle) > 1:
        reduced = False
        for period in _divisors(len(current_cycle)):
            if interesting(current_stem, current_cycle[:period]):
                current_cycle = current_cycle[:period]
                reduced = True
                break

    # Phase 2: ddmin on the stem, cycle fixed.
    current_stem = ddmin(
        current_stem, lambda candidate: interesting(candidate, current_cycle)
    )

    return ShrunkLasso(
        stem=current_stem,
        cycle=current_cycle,
        original_stem_length=len(stem),
        original_cycle_length=len(cycle),
        replays=stats["replays"],
    )
