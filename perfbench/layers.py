"""Which program functions the traced run wraps, and what it reads off them.

Every wrapper is installed from here, around the public boundary of one
layer; the program itself is not edited.  Methods are patched on their
class.  Functions another module imported by value (``from x import f``)
are patched in the module that calls them, because patching ``x.f``
would not change the name the caller already holds.

Names are ``<package>.<module>.<function>`` of the layer that owns the
time.  Hot calls (kernel steps, fingerprints, snapshots, sleep sets,
explorer resumptions) are aggregated per request; the rest keep one
span per call.
"""

from __future__ import annotations

import importlib

from typing import Any, Dict, List, Tuple

from tracer import Frame, Tracer


def _module(name: str):
    return importlib.import_module(name)


# -- hooks: read counts off arguments and results, outside the timing ------


def _fingerprint_hook(tracer: Tracer, frame: Frame, args, kwargs, result) -> None:
    seen = tracer.state.setdefault("fingerprints", {})
    bucket = seen.get(frame.request)
    if bucket is None:
        bucket = seen[frame.request] = set()
    bucket.add(hash(result))


def _restore_hook(tracer: Tracer, frame: Frame, args, kwargs, result) -> None:
    snapshot = args[1]
    steps = 0
    for process in snapshot.processes:
        if process.frame is not None:
            steps += len(process.frame[1])
    tracer.counts["engine.config.restore_from.frame_steps"] += steps


def _check_hook(tracer: Tracer, frame: Frame, args, kwargs, result) -> None:
    events = args[1].events
    tracer.counts["objects.check_history.events"] += len(events)
    histories = tracer.state.setdefault("histories", {})
    histories.setdefault(frame.request, []).append(events)


def _runs_checked_hook(tracer: Tracer, frame: Frame, args, kwargs, result) -> None:
    tracer.counts["scenarios.verify.runs_checked"] += result.runs_checked


def _fuzz_hook(tracer: Tracer, frame: Frame, args, kwargs, result) -> None:
    tracer.counts["fuzz.driver.interleavings"] += result.interleavings
    tracer.counts["fuzz.driver.histories_checked"] += result.histories_checked


def _liveness_hook(tracer: Tracer, frame: Frame, args, kwargs, result) -> None:
    tracer.state.setdefault("liveness_searches", []).append(args[0])


def _cache_get_hook(tracer: Tracer, frame: Frame, args, kwargs, result) -> None:
    if result is not None:
        tracer.counts["service.cache.hit"] += 1
        tracer.state.setdefault("cache_hit_spans", []).append(frame.span_id)


# -- installation ----------------------------------------------------------


def install_verify_layers(tracer: Tracer) -> None:
    """Wrap every verification layer (the ``proof`` and ``hunt`` process)."""
    from repro.core.properties import SafetyProperty
    from repro.engine.config import KernelConfig
    from repro.engine.dpor import SleepSets
    from repro.engine.explorer import KernelExplorer
    from repro.fuzz.driver import FuzzDriver
    from repro.sim.liveness_search import LivenessSearch
    from repro.sim.runtime import Runtime

    verify_module = _module("repro.scenarios.verify")
    shrink_module = _module("repro.fuzz.shrink")

    tracer.patch(verify_module, "verify", "scenarios.verify", root=True)
    tracer.patch(
        verify_module, "check_all_histories", "sim.explore.check_all_histories",
        hook=_runs_checked_hook,
    )
    tracer.patch(
        verify_module, "shrink_schedule", "fuzz.shrink.shrink_schedule"
    )
    tracer.patch(verify_module, "replay_schedule", "fuzz.trace.replay_schedule")
    tracer.patch(shrink_module, "replay_schedule", "fuzz.trace.replay_schedule")
    tracer.patch(verify_module, "shrink_lasso", "sim.lasso_shrink.shrink_lasso")
    tracer.patch(FuzzDriver, "run", "fuzz.driver.run", hook=_fuzz_hook)
    tracer.patch(
        LivenessSearch, "runs", "sim.liveness_search.runs", hook=_liveness_hook
    )
    tracer.patch(
        KernelExplorer, "run", "engine.explorer", record=False, iterator=True
    )
    tracer.patch(
        KernelConfig, "fingerprint", "engine.config.fingerprint",
        record=False, hook=_fingerprint_hook,
    )
    tracer.patch(
        KernelConfig, "kernel_fingerprint", "engine.config.kernel_fingerprint",
        record=False,
    )
    tracer.patch(KernelConfig, "capture", "engine.config.capture", record=False)
    tracer.patch(
        KernelConfig, "restore_from", "engine.config.restore_from",
        record=False, hook=_restore_hook,
    )
    tracer.patch(KernelConfig, "apply", "engine.config.apply", record=False)
    tracer.patch(
        Runtime, "apply_decision", "sim.runtime.apply_decision", record=False
    )
    for method in ("child_sleep", "note_expansion", "revisit_sleep"):
        tracer.patch(SleepSets, method, "engine.dpor", record=False)
    for checker in _safety_classes(SafetyProperty):
        tracer.patch(
            checker, "check_history", "objects.check_history",
            reentrant=False, hook=_check_hook,
        )


def install_service_layers(tracer: Tracer) -> None:
    """Wrap the service layers (the ``serve`` server process)."""
    from repro.service.app import ServiceApp
    from repro.service.cache import VerdictCache

    tracer.patch(ServiceApp, "handle", "service.app.handle", root=True)
    tracer.patch(VerdictCache, "get", "service.cache.get", hook=_cache_get_hook)
    tracer.patch(_module("repro.service.app"), "cache_key", "service.keys.cache_key")


def _safety_classes(base: type) -> List[type]:
    """Every loaded safety-property class defining its own checker."""
    # Import the checker modules so their classes exist before patching.
    for name in (
        "repro.objects.consensus",
        "repro.objects.counterexample_s",
        "repro.objects.linearizability",
        "repro.objects.mutex",
        "repro.objects.opacity",
        "repro.objects.sequential_consistency",
        "repro.objects.set_agreement",
    ):
        _module(name)
    found: List[type] = []
    pending = [base]
    while pending:
        cls = pending.pop()
        for sub in cls.__subclasses__():
            pending.append(sub)
            if "check_history" in sub.__dict__:
                found.append(sub)
    return sorted(set(found), key=lambda cls: (cls.__module__, cls.__qualname__))


# -- derived per-layer numbers ---------------------------------------------


def distinct_prefix_counts(tracer: Tracer) -> Tuple[int, int]:
    """(distinct response-prefixes, response-prefixes) of every checked
    history, with distinctness taken within one verify call."""
    from repro.core.events import Response

    distinct = prefixes = 0
    for histories in tracer.state.get("histories", {}).values():
        seen = set()
        for events in histories:
            for index, event in enumerate(events):
                if isinstance(event, Response):
                    prefixes += 1
                    seen.add(events[: index + 1])
        distinct += len(seen)
    return distinct, prefixes


def distinct_fingerprint_count(tracer: Tracer) -> int:
    """Distinct configuration fingerprints, within one verify call."""
    return sum(len(seen) for seen in tracer.state.get("fingerprints", {}).values())


def liveness_configurations(tracer: Tracer) -> int:
    return sum(
        search.configurations
        for search in tracer.state.get("liveness_searches", [])
    )


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """The per-layer metrics of one traced verification process."""
    layers = tracer.layer_totals()

    def get(name: str, field: str) -> float:
        return layers.get(name, {}).get(field, 0)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    distinct, prefixes = distinct_prefix_counts(tracer)
    counts = tracer.counts
    metrics = {
        "engine.config.fingerprint.calls": get("engine.config.fingerprint", "calls"),
        "engine.config.fingerprint.s": get("engine.config.fingerprint", "s"),
        "engine.explorer.self_s": get("engine.explorer", "self_s"),
        "engine.explorer.dedup_ratio": ratio(
            distinct_fingerprint_count(tracer),
            get("engine.config.fingerprint", "calls"),
        ),
        "engine.config.kernel_fingerprint.calls": get(
            "engine.config.kernel_fingerprint", "calls"
        ),
        "engine.config.kernel_fingerprint.s": get(
            "engine.config.kernel_fingerprint", "s"
        ),
        "engine.config.capture.calls": get("engine.config.capture", "calls"),
        "engine.config.capture.s": get("engine.config.capture", "s"),
        "engine.config.restore_from.calls": get("engine.config.restore_from", "calls"),
        "engine.config.restore_from.s": get("engine.config.restore_from", "s"),
        "engine.config.restore_from.frame_steps": counts[
            "engine.config.restore_from.frame_steps"
        ],
        "engine.dpor.calls": get("engine.dpor", "calls"),
        "engine.dpor.s": get("engine.dpor", "s"),
        "scenarios.verify.runs_checked": counts["scenarios.verify.runs_checked"],
        "scenarios.verify.self_s": get("scenarios.verify", "self_s"),
        "sim.runtime.apply_decision.calls": get("sim.runtime.apply_decision", "calls"),
        "sim.runtime.apply_decision.s": get("sim.runtime.apply_decision", "s"),
        "objects.check_history.calls": get("objects.check_history", "calls"),
        "objects.check_history.s": get("objects.check_history", "s"),
        "objects.check_history.events": counts["objects.check_history.events"],
        "objects.check_history.distinct_prefix_ratio": ratio(distinct, prefixes),
        "fuzz.driver.run.s": get("fuzz.driver.run", "s"),
        "fuzz.driver.histories_checked_ratio": ratio(
            counts["fuzz.driver.histories_checked"],
            counts["fuzz.driver.interleavings"],
        ),
        "fuzz.shrink.shrink_schedule.calls": get("fuzz.shrink.shrink_schedule", "calls"),
        "fuzz.shrink.shrink_schedule.s": get("fuzz.shrink.shrink_schedule", "s"),
        "fuzz.trace.replay_schedule.calls": get("fuzz.trace.replay_schedule", "calls"),
        "fuzz.trace.replay_schedule.s": get("fuzz.trace.replay_schedule", "s"),
        "sim.liveness_search.runs.self_s": get("sim.liveness_search.runs", "self_s"),
        "sim.liveness_search.configurations": liveness_configurations(tracer),
        "sim.lasso_shrink.shrink_lasso.s": get("sim.lasso_shrink.shrink_lasso", "s"),
    }
    return {name: float(value) for name, value in metrics.items()}


def service_metrics(document: Dict[str, Any], requests: set) -> Dict[str, float]:
    """The per-layer metrics of a traced service process, over the HTTP
    requests (root span request ids) in ``requests``."""
    spans = [span for span in document["spans"] if span[5] in requests]
    children: Dict[int, float] = {}
    for _span_id, _name, start, end, parent, _request in spans:
        children[parent] = children.get(parent, 0.0) + (end - start)
    layers: Dict[str, Dict[str, float]] = {}
    for span_id, name, start, end, _parent, _request in spans:
        entry = layers.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - children.get(span_id, 0.0)

    def get(name: str, field: str) -> float:
        return float(layers.get(name, {}).get(field, 0))

    hit_spans = set(document.get("cache_hit_spans", ()))
    gets = [span for span in spans if span[1] == "service.cache.get"]
    hits = sum(1 for span in gets if span[0] in hit_spans)
    return {
        "service.app.handle.calls": get("service.app.handle", "calls"),
        "service.app.handle.s": get("service.app.handle", "s"),
        "service.app.handle.self_s": get("service.app.handle", "self_s"),
        "service.cache.get.calls": get("service.cache.get", "calls"),
        "service.cache.get.s": get("service.cache.get", "s"),
        "service.cache.get.self_s": get("service.cache.get", "self_s"),
        "service.cache.hit_ratio": hits / len(gets) if gets else 0.0,
        "service.keys.cache_key.s": get("service.keys.cache_key", "s"),
        "service.keys.cache_key.self_s": get("service.keys.cache_key", "self_s"),
    }
