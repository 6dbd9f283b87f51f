"""Tests for the unified exploration engine (:mod:`repro.engine`).

The engine's load-bearing promises, in test form:

* snapshot/restore is *exact* — snapshot-mode and replay-mode
  exploration produce identical history sets and identical fingerprint
  sets on the seed workloads, and the valency search returns identical
  verdicts in both modes;
* the generic frontier search honours its strategy, budget, and depth
  contracts, and rejects strategies other than ``bfs``/``dfs``.
"""

import pytest

from repro.adversaries.valency import find_nondeciding_schedule
from repro.algorithms.consensus import (
    CasConsensus,
    CommitAdoptConsensus,
    StubbornConsensus,
    TasConsensus,
)
from repro.algorithms.tm import AgpTransactionalMemory, I12TransactionalMemory
from repro.base_objects.base import ObjectPool
from repro.base_objects.register import AtomicRegister
from repro.engine import (
    EngineParityError,
    GraphSearch,
    KernelConfig,
    KernelExplorer,
    SearchBudgetExceeded,
)
from repro.sim import explore_histories
from repro.sim.drivers import InvokeDecision, StepDecision
from repro.sim.explore import plan_successors

PROPOSE_PLAN = {0: [("propose", (0,))], 1: [("propose", (1,))]}
TM_PLAN = {
    0: [("start", ()), ("write", (0, 1)), ("tryC", ())],
    1: [("start", ()), ("read", (0,)), ("tryC", ())],
}

#: A small explicit graph: edges as {node: [(label, child), ...]}.
DIAMOND = {
    "a": [("l", "b"), ("r", "c")],
    "b": [("d", "d")],
    "c": [("d", "d")],
    "d": [("back", "a")],
}


def diamond_expand(node):
    return DIAMOND.get(node, [])


class TestGraphSearch:
    def test_bfs_visits_shortest_first(self):
        search = GraphSearch(strategy="bfs")
        visits = list(search.run(["a"], diamond_expand))
        assert [v.node for v in visits] == ["a", "b", "c", "d"]
        assert search.depths["d"] == 2

    def test_dfs_expands_newest_first(self):
        # Visits are discovery-ordered in every strategy; the strategy
        # shows in *which parent* discovers shared children.  BFS
        # expands b before c (FIFO), DFS expands c first (LIFO).
        bfs = GraphSearch(strategy="bfs")
        list(bfs.run(["a"], diamond_expand))
        assert bfs.parents["d"][0] == "b"
        dfs = GraphSearch(strategy="dfs")
        list(dfs.run(["a"], diamond_expand))
        assert dfs.parents["d"][0] == "c"

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="astar"):
            GraphSearch(strategy="astar")
        explorer = KernelExplorer(
            lambda: CasConsensus(2),
            plan_successors(PROPOSE_PLAN),
            strategy="astar",
        )
        with pytest.raises(ValueError, match="astar"):
            next(explorer.run())

    def test_path_reconstruction(self):
        search = GraphSearch(strategy="bfs")
        list(search.run(["a"], diamond_expand))
        assert search.path_keys("d") in (("a", "b", "d"), ("a", "c", "d"))
        assert len(search.path_labels("d")) == 2

    def test_budget_raise(self):
        search = GraphSearch(strategy="bfs", max_nodes=2)
        with pytest.raises(SearchBudgetExceeded):
            list(search.run(["a"], diamond_expand))

    def test_budget_stop(self):
        search = GraphSearch(strategy="bfs", max_nodes=2, on_budget="stop")
        visits = list(search.run(["a"], diamond_expand))
        assert len(visits) == 2

    def test_max_depth_limits_expansion(self):
        search = GraphSearch(strategy="bfs", max_depth=1)
        visited = {v.node for v in search.run(["a"], diamond_expand)}
        assert visited == {"a", "b", "c"}  # d is at depth 2

    def test_record_edges_includes_cycle_closers(self):
        search = GraphSearch(strategy="bfs", record_edges=True)
        list(search.run(["a"], diamond_expand))
        assert search.edges["d"] == {"back": "a"}  # edge into a visited node


class TestSnapshotRestore:
    def test_roundtrip_mid_flight_operations(self):
        factory = lambda: I12TransactionalMemory(2, variables=(0,))
        config = KernelConfig.initial(factory)
        config.apply(InvokeDecision(0, "start"))
        config.apply(StepDecision(0))
        config.apply(InvokeDecision(1, "start"))
        config.apply(StepDecision(1))
        snapshot = config.capture()
        restored = KernelConfig.from_snapshot(factory, snapshot)
        assert restored.fingerprint() == config.fingerprint()
        # Divergence after restore would show up within a few steps.
        for pid in (0, 1, 0, 1):
            if config.is_pending(pid):
                config.apply(StepDecision(pid))
                restored.apply(StepDecision(pid))
                assert restored.fingerprint() == config.fingerprint()

    def test_one_snapshot_seeds_many_restores(self):
        factory = lambda: CasConsensus(2)
        config = KernelConfig.initial(factory)
        config.apply(InvokeDecision(0, "propose", (0,)))
        config.apply(InvokeDecision(1, "propose", (1,)))
        snapshot = config.capture()
        a = KernelConfig.from_snapshot(factory, snapshot)
        b = KernelConfig.from_snapshot(factory, snapshot)
        a.apply(StepDecision(0))
        b.apply(StepDecision(1))
        # The two restores diverged independently; the snapshot did not.
        assert a.fingerprint() != b.fingerprint()
        c = KernelConfig.from_snapshot(factory, snapshot)
        assert c.fingerprint() == config.fingerprint()

    def test_pool_capture_is_copy_on_write(self):
        pool = ObjectPool([AtomicRegister("a", 0), AtomicRegister("b", 0)])
        first = pool.capture()
        pool.apply("a", "write", (1,))
        second = pool.capture()
        assert second["b"] is first["b"]  # untouched state is shared
        assert second["a"] is not first["a"]

    def test_pool_restore_rejects_mismatched_names(self):
        from repro.util.errors import SimulationError

        pool = ObjectPool([AtomicRegister("a", 0)])
        with pytest.raises(SimulationError):
            pool.restore({"other": None})


class TestEngineParity:
    """Snapshot-mode and replay-mode exploration are indistinguishable."""

    WORKLOADS = [
        ("cas", lambda: CasConsensus(2), PROPOSE_PLAN),
        ("tas", lambda: TasConsensus(2), PROPOSE_PLAN),
        ("stubborn", lambda: StubbornConsensus(2), PROPOSE_PLAN),
        ("agp", lambda: AgpTransactionalMemory(2, variables=(0,)), TM_PLAN),
        ("i12", lambda: I12TransactionalMemory(2, variables=(0,)), TM_PLAN),
    ]

    @pytest.mark.parametrize("name,factory,plan", WORKLOADS,
                             ids=[w[0] for w in WORKLOADS])
    def test_identical_history_sets(self, name, factory, plan):
        snapshot_runs = list(explore_histories(factory, plan, mode="snapshot"))
        replay_runs = list(explore_histories(factory, plan, mode="replay"))
        assert {r.history for r in snapshot_runs} == {
            r.history for r in replay_runs
        }
        assert {r.schedule for r in snapshot_runs} == {
            r.schedule for r in replay_runs
        }
        assert sum(r.complete for r in snapshot_runs) == sum(
            r.complete for r in replay_runs
        )

    def test_parity_mode_runs_clean(self):
        runs = list(
            explore_histories(
                lambda: AgpTransactionalMemory(2, variables=(0,)),
                TM_PLAN,
                mode="parity",
            )
        )
        assert len(runs) == len({r.history for r in runs})

    def test_parity_error_is_assertion(self):
        assert issubclass(EngineParityError, AssertionError)

    def test_valency_verdicts_match(self):
        for mode in ("snapshot", "replay"):
            witness = find_nondeciding_schedule(
                lambda: CommitAdoptConsensus(2), proposals=(0, 1),
                max_configs=3_000, mode=mode,
            )
            assert witness is not None, f"{mode}: CIL witness not found"
            control = find_nondeciding_schedule(
                lambda: CasConsensus(2), proposals=(0, 1),
                max_configs=3_000, mode=mode,
            )
            assert control is None, f"{mode}: CAS consensus misclassified"

    def test_valency_parity_mode(self):
        witness = find_nondeciding_schedule(
            lambda: CommitAdoptConsensus(2), proposals=(0, 1),
            max_configs=3_000, mode="parity",
        )
        assert witness is not None

