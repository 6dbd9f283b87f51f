"""Tests for the randomized schedule/crash fuzzer (repro.fuzz)."""

import json
from dataclasses import replace

import pytest

from repro.__main__ import main
from repro.core.events import Crash
from repro.fuzz import (
    FuzzDriver,
    ReplayTrace,
    fuzz_workload,
    load_trace,
    replay_schedule,
    save_trace,
    schedule_to_decisions,
)
from repro.scenarios import get_scenario, iter_scenarios, verify
from repro.sim.drivers import CrashDecision, InvokeDecision, StepDecision
from repro.util.errors import UsageError

SAT = get_scenario("cas-consensus")
VIOL = get_scenario("stubborn-consensus")
TM = get_scenario("agp-opacity")


class TestWorkloadRegistry:
    def test_registry_spans_expectations(self):
        expectations = {s.expect_violation for s in iter_scenarios()}
        assert expectations == {True, False}

    def test_unknown_workload_raises_usage_error(self):
        with pytest.raises(UsageError):
            get_scenario("no-such-workload")


class TestFuzzDriver:
    def test_satisfying_workload_finds_no_violation(self):
        report = fuzz_workload(SAT, seed=7, iterations=500)
        assert report.holds
        assert report.interleavings == 500
        assert report.coverage > 0

    def test_violating_workload_found_and_genuine(self):
        report = fuzz_workload(VIOL, seed=7, iterations=500)
        assert not report.holds
        violation = report.violation
        # The violating history really fails the checker...
        assert not VIOL.safety_factory().check_history(violation.history).holds
        # ...and the schedule replays to the same verdict on a fresh
        # runtime, independent of the snapshot machinery.
        replay = replay_schedule(
            VIOL.factory, VIOL.plan, violation.schedule, VIOL.safety_factory()
        )
        assert replay.violates
        assert replay.history == violation.history

    def test_equal_seeds_reproduce_everything(self):
        a = fuzz_workload(VIOL, seed=42, iterations=300)
        b = fuzz_workload(VIOL, seed=42, iterations=300)
        assert a.violation.schedule == b.violation.schedule
        assert a.violation.iteration == b.violation.iteration
        c = fuzz_workload(SAT, seed=42, iterations=300)
        d = fuzz_workload(SAT, seed=42, iterations=300)
        assert (c.coverage, c.corpus, c.histories_checked) == (
            d.coverage,
            d.corpus,
            d.histories_checked,
        )

    def test_different_seeds_diverge(self):
        a = fuzz_workload(SAT, seed=1, iterations=200)
        b = fuzz_workload(SAT, seed=2, iterations=200)
        # Coverage trajectories are seed-dependent (equality would mean
        # the seed is ignored somewhere).
        assert (a.coverage, a.corpus) != (b.coverage, b.corpus)

    def test_explicit_crash_spec_injects_crashes(self):
        driver = FuzzDriver(
            TM.factory,
            TM.plan,
            safety=TM.safety_factory(),
            seed=3,
            crash="p0@5",
            explore_every=1,  # every walk uses the crash plan
        )
        report = driver.run(50)
        assert report.holds  # AGP stays opaque under crashes
        # The sampled space genuinely contains crash events.
        crashed = any(
            isinstance(event, Crash) for key in driver._checked for event in key
        )
        assert crashed

    def test_walks_respect_depth_bound(self):
        driver = FuzzDriver(
            VIOL.factory, VIOL.plan, safety=VIOL.safety_factory(),
            seed=0, max_depth=3,
        )
        report = driver.run(100)
        # Depth 3 cannot complete both proposals, so no violation fits.
        assert report.holds

    def test_throughput_mode_skips_checking(self):
        driver = FuzzDriver(VIOL.factory, VIOL.plan, safety=None, seed=0)
        report = driver.run(200)
        assert report.holds and report.histories_checked == 0


class TestTraces:
    def test_schedule_to_decisions_tracks_invocation_cursor(self):
        decisions = schedule_to_decisions(
            SAT.plan, [("invoke", 0), ("step", 0), ("invoke", 1), ("crash", 1)]
        )
        assert decisions == [
            InvokeDecision(0, "propose", (0,)),
            StepDecision(0),
            InvokeDecision(1, "propose", (1,)),
            CrashDecision(1),
        ]

    def test_over_invoking_is_invalid_not_fatal(self):
        result = replay_schedule(
            SAT.factory, SAT.plan, [("invoke", 0), ("invoke", 0)]
        )
        assert not result.valid

    def test_trace_round_trip(self, tmp_path):
        trace = ReplayTrace(
            plan=TM.plan,
            schedule=(("invoke", 0), ("step", 0)),
            workload=TM.name,
            implementation="agp-tm",
            safety="opacity",
            holds=False,
            reason="because",
            seed=9,
        )
        path = str(tmp_path / "trace.json")
        save_trace(path, trace)
        loaded = load_trace(path)
        assert loaded.plan == TM.plan  # args re-tupled exactly
        assert loaded.schedule == trace.schedule
        assert loaded.workload == TM.name
        assert loaded.holds is False
        assert loaded.seed == 9

    def test_bad_trace_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(UsageError):
            load_trace(str(path))


class TestFuzzCli:
    """Fuzzing from the command line is ``verify --backend fuzz``; its
    counterexamples re-judge through ``replay``."""

    def test_list_workloads(self, capsys):
        assert main(["scenarios", "list", "--tag", "small"]) == 0
        out = capsys.readouterr().out
        assert "agp-opacity" in out and "stubborn-consensus" in out
        assert "satisfying" in out and "violating" in out

    def test_expected_verdicts_exit_zero(self, capsys):
        argv = ["verify", "cas-consensus", "stubborn-consensus",
                "--backend", "fuzz", "--set", "seed=3",
                "--set", "iterations=300"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.count("-> expected") == 2
        assert "counterexample" in out and "replay violates" in out

    def test_oracle_pair_agrees(self, tmp_path):
        outcomes = {}
        for backend, knobs in (
            ("exhaustive", []),
            ("fuzz", ["--set", "seed=2025", "--set", "crash_probability=0"]),
        ):
            path = str(tmp_path / f"{backend}.json")
            argv = ["verify", "cas-consensus", "stubborn-consensus",
                    "--backend", backend, "--out", path] + knobs
            assert main(argv) == 0
            with open(path) as handle:
                outcomes[backend] = [d["outcome"] for d in json.load(handle)]
        assert outcomes["exhaustive"] == outcomes["fuzz"] == [
            "holds", "violated",
        ]

    def test_artifact_written_and_replayable(self, tmp_path, capsys):
        path = str(tmp_path / "verdict.json")
        argv = ["verify", "stubborn-consensus", "--backend", "fuzz",
                "--set", "seed=3", "--set", "iterations=300", "--out", path]
        assert main(argv) == 0
        with open(path) as handle:
            document = json.load(handle)
        trace = ReplayTrace.from_document(document["counterexample"])
        assert trace.holds is False and trace.workload == "stubborn-consensus"
        capsys.readouterr()
        assert main(["replay", path]) == 0
        assert "violated" in capsys.readouterr().out

    def test_bare_trace_replays(self, tmp_path, capsys):
        verdict = verify("stubborn-consensus", backend="fuzz", seed=3,
                         iterations=300)
        path = str(tmp_path / "trace.json")
        save_trace(path, verdict.counterexample)
        assert main(["replay", path]) == 0
        assert "stubborn-consensus: replayed" in capsys.readouterr().out

    def test_replay_disagreeing_with_the_record_exits_one(
        self, tmp_path, capsys
    ):
        verdict = verify("stubborn-consensus", backend="fuzz", seed=3,
                         iterations=300)
        path = str(tmp_path / "trace.json")
        save_trace(path, replace(verdict.counterexample, holds=True))
        assert main(["replay", path]) == 1
        assert "MISMATCH" in capsys.readouterr().err

    def test_replay_without_counterexample_exits_two(self, tmp_path, capsys):
        path = str(tmp_path / "verdict.json")
        assert main(["verify", "cas-consensus", "--out", path]) == 0
        assert main(["replay", path]) == 2
        assert "no counterexample" in capsys.readouterr().err

    def test_replay_of_unknown_scenario_exits_two(self, tmp_path):
        path = str(tmp_path / "trace.json")
        save_trace(path, ReplayTrace(plan=SAT.plan, schedule=(),
                                     workload="no-such-scenario"))
        assert main(["replay", path]) == 2

    def test_unknown_workload_is_usage_error(self):
        assert main(["verify", "nope", "--backend", "fuzz"]) == 2

    def test_fuzz_subcommand_is_gone(self):
        with pytest.raises(SystemExit) as exit_info:
            main(["fuzz", "cas-consensus"])
        assert exit_info.value.code == 2
