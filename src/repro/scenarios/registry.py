"""The process-global scenario registry.

One mapping ``id -> Scenario`` feeds every consumer: the verify facade,
campaign grid cells (which reference scenarios by id), and the
``scenarios list`` / ``verify`` / ``replay`` CLI.  Lookups fail
uniformly with :class:`~repro.util.errors.UsageError` plus a
did-you-mean suggestion (exit code 2 at the CLI) — never a bare
``KeyError``.

The registry is populated at import time by
:mod:`repro.scenarios.catalog`; libraries and tests may
:func:`register` additional scenarios (e.g. parametrized families) at
runtime.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Union

from repro.scenarios.scenario import Scenario
from repro.util.errors import UsageError, unknown_choice

_SCENARIOS: Dict[str, Scenario] = {}


def register(scenario: Scenario, replace: bool = False) -> Scenario:
    """Add a scenario to the global registry (returned for chaining).

    Duplicate ids raise :class:`UsageError` unless ``replace=True`` —
    an accidental redefinition should fail loudly, a deliberate
    override (tests, notebooks) should be easy.
    """
    if not replace and scenario.scenario_id in _SCENARIOS:
        raise UsageError(
            f"scenario {scenario.scenario_id!r} is already registered; "
            "pass replace=True to override it"
        )
    _SCENARIOS[scenario.scenario_id] = scenario
    return scenario


def unregister(scenario_id: str) -> None:
    """Remove a scenario (primarily for test isolation)."""
    _SCENARIOS.pop(scenario_id, None)


def get_scenario(scenario_id: Union[str, Scenario]) -> Scenario:
    """Look up a scenario by id (a ``Scenario`` passes through).

    Ids of the form ``family:key=value,...`` whose family is registered
    fall back to :func:`repro.scenarios.families.materialize` — a
    sampling budget may have kept the instance out of the registered
    slice, but every in-grid id stays addressable.  Other unknown ids
    raise :class:`~repro.util.errors.UsageError` with a did-you-mean
    suggestion and the known ids.
    """
    if isinstance(scenario_id, Scenario):
        return scenario_id
    try:
        return _SCENARIOS[scenario_id]
    except KeyError:
        pass
    if isinstance(scenario_id, str) and ":" in scenario_id:
        # Imported lazily: families itself registers scenarios at import.
        from repro.scenarios import families

        if scenario_id.partition(":")[0] in families.family_ids():
            return families.materialize(scenario_id)
    raise unknown_choice("scenario", scenario_id, _SCENARIOS)


def iter_scenarios(
    tags: Optional[Union[str, Iterable[str]]] = None
) -> List[Scenario]:
    """Registered scenarios in id order, optionally tag-filtered.

    ``tags`` is a single tag or an iterable; a scenario matches when it
    carries *every* requested tag (AND semantics —
    ``iter_scenarios(tags=("tm", "small"))`` is the exhaustible TM
    slice).
    """
    scenarios = [_SCENARIOS[key] for key in sorted(_SCENARIOS)]
    if tags is None:
        return scenarios
    return [scenario for scenario in scenarios if scenario.has_tags(tags)]


def scenario_ids() -> List[str]:
    """The sorted registered ids."""
    return sorted(_SCENARIOS)
