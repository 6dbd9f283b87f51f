"""The unified exploration engine.

One subsystem for every exhaustive search the repository performs:

* :mod:`repro.engine.frontier` — the generic deduplicated
  :class:`~repro.engine.frontier.GraphSearch`, breadth- or depth-first
  over one ``deque`` frontier;
* :mod:`repro.engine.config` — snapshot/restore of kernel
  configurations, replacing per-node O(depth) replay with incremental
  restore (replay remains available behind the same interface);
* :mod:`repro.engine.explorer` — :class:`KernelExplorer`, the
  configuration-graph search used by history exploration and the
  valency search, with a parity mode asserting snapshot ≡ replay.

The engine only searches: independent plays (the experiment batteries)
run directly through :func:`repro.sim.runtime.play`.

See ``docs/architecture.md`` for the determinism/fingerprint contract
all of this rests on.
"""

from repro.engine.config import (
    ImplementationFactory,
    KernelConfig,
    KernelSnapshot,
    ProcessSnapshot,
)
from repro.engine.explorer import (
    ConfigVisit,
    EngineParityError,
    KernelExplorer,
)
from repro.engine.frontier import GraphSearch, SearchBudgetExceeded, Visit

__all__ = [
    "ConfigVisit",
    "EngineParityError",
    "GraphSearch",
    "ImplementationFactory",
    "KernelConfig",
    "KernelExplorer",
    "KernelSnapshot",
    "ProcessSnapshot",
    "SearchBudgetExceeded",
    "Visit",
]
