"""The chunk-halving ddmin loop shared by the witness shrinkers.

Both :func:`repro.fuzz.shrink.shrink_schedule` (violating schedules)
and :func:`repro.sim.lasso_shrink.shrink_lasso` (lasso stems) minimize
a sequence the same way; each supplies its own ``interesting``
predicate (replay plus property re-check) and budget.
"""

from __future__ import annotations

from typing import Callable, Sequence, Tuple, TypeVar

T = TypeVar("T")


def ddmin(
    items: Sequence[T], interesting: Callable[[Tuple[T, ...]], bool]
) -> Tuple[T, ...]:
    """Remove ever-smaller chunks while ``interesting`` keeps holding.

    Starting at half the length, each round tries dropping every
    ``chunk``-sized slice left to right; a kept removal re-tests the
    same start (the next chunk slid into place), and a round that
    removes nothing halves the chunk.  Returns when a chunk-1 round
    removes nothing.  Candidate order is a pure function of ``items``
    and the predicate's answers, so equal inputs shrink equally.
    """
    current = tuple(items)
    chunk = max(len(current) // 2, 1)
    while True:
        shrunk = False
        start = 0
        while start < len(current):
            candidate = current[:start] + current[start + chunk:]
            if interesting(candidate):
                current = candidate
                shrunk = True
            else:
                start += chunk
        if not shrunk:
            if chunk == 1:
                return current
            chunk = max(chunk // 2, 1)
