"""Self-tests of the benchmark's own machinery.

    python3 -m pytest perfbench/tests -q

They cover what the numbers rest on: self time under nested, iterator
and ``async`` wrappers; the tail-percentile rule; open-loop latency
timed from the due time, with generator lag; failure counting; and the
arithmetic and inputs of the end-to-end figures.
"""

from __future__ import annotations

import asyncio
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

import loadgen  # noqa: E402
import run  # noqa: E402
import serve  # noqa: E402
from common import (  # noqa: E402
    SpeedSampler,
    Tally,
    beyond,
    highest_percentile,
    percentile,
    scaled,
)
from tracer import Tracer  # noqa: E402


class FakeClock:
    """A clock the traced functions advance by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _layers(tracer):
    return {
        name: (entry["calls"], round(entry["s"], 9), round(entry["self_s"], 9))
        for name, entry in tracer.layer_totals().items()
    }


# -- self time ----------------------------------------------------------------


def test_self_time_subtracts_nested_spans_and_aggregates():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.advance(0.5)

    def middle():
        clock.advance(1.0)
        leaf()
        leaf()

    def outer():
        clock.advance(2.0)
        middle()
        clock.advance(0.25)

    leaf = tracer.wrap(leaf, "leaf", record=False)
    middle = tracer.wrap(middle, "middle")
    outer = tracer.wrap(outer, "outer", root=True)
    outer()

    assert _layers(tracer) == {
        "outer": (1, 4.25, 2.25),
        "middle": (1, 2.0, 1.0),
        "leaf": (2, 1.0, 1.0),
    }
    # The self times add up to the outermost span: nothing is lost.
    assert tracer.self_seconds() == 4.25
    # Aggregated calls keep no span records; the others keep one each,
    # linked to their parent and sharing the root's request id.
    names = {span[1]: span for span in tracer.spans}
    assert set(names) == {"outer", "middle"}
    assert names["middle"][4] == names["outer"][0]
    assert names["middle"][5] == names["outer"][5] == 1


def test_hook_time_is_excluded_from_every_span():
    clock = FakeClock()
    tracer = Tracer(clock)

    def slow_hook(tracer_, frame, args, kwargs, result):
        clock.advance(3.0)

    inner = tracer.wrap(lambda: clock.advance(1.0), "inner", hook=slow_hook)

    def outer():
        inner()

    tracer.wrap(outer, "outer")()
    assert _layers(tracer) == {"outer": (1, 4.0, 0.0), "inner": (1, 1.0, 1.0)}
    assert tracer.hook_s == 3.0


def test_iterator_resumptions_are_segments_and_consumer_time_is_not():
    clock = FakeClock()
    tracer = Tracer(clock)

    def produce():
        for value in range(3):
            clock.advance(1.0)
            yield value

    produce = tracer.wrap(produce, "producer", record=False)

    def consume():
        total = 0
        for value in produce():
            clock.advance(10.0)  # consumer work between resumptions
            total += value
        return total

    assert tracer.wrap(consume, "consumer")() == 3
    layers = _layers(tracer)
    # Four resumptions (three values and the final StopIteration) plus
    # the call that built the generator.
    assert layers["producer"] == (5, 3.0, 3.0)
    assert layers["consumer"] == (1, 33.0, 30.0)


def test_non_reentrant_layer_counts_the_outer_call_only():
    clock = FakeClock()
    tracer = Tracer(clock)

    def check(depth):
        clock.advance(1.0)
        if depth:
            check(depth - 1)

    check = tracer.wrap(check, "check", reentrant=False)
    check(2)
    assert _layers(tracer) == {"check": (1, 3.0, 3.0)}


def test_async_spans_keep_their_own_stacks_and_requests():
    clock = FakeClock()
    tracer = Tracer(clock)

    async def lookup():
        clock.advance(0.5)

    lookup = tracer.wrap(lookup, "lookup")

    async def handle(pause):
        clock.advance(1.0)
        await asyncio.sleep(pause)  # let the other request run
        await lookup()

    handle = tracer.wrap(handle, "handle", root=True)

    async def main():
        await asyncio.gather(handle(0.01), handle(0.0))

    asyncio.run(main())
    layers = _layers(tracer)
    assert layers["lookup"] == (2, 1.0, 1.0)
    # Each handle span is parented to nothing and each lookup to its
    # own handle, although the two requests interleaved.
    handles = {span[5]: span for span in tracer.spans if span[1] == "handle"}
    lookups = [span for span in tracer.spans if span[1] == "lookup"]
    assert sorted(handles) == [1, 2]
    for span in lookups:
        assert span[4] == handles[span[5]][0]
    assert all(span[4] == 0 for span in handles.values())


def test_patch_wraps_class_attributes_and_unpatch_restores_them():
    class Counter:
        def __init__(self):
            self.calls = 0

        def bump(self, by=1):
            self.calls += by
            return self.calls

    original = Counter.__dict__["bump"]
    tracer = Tracer()
    tracer.patch(Counter, "bump", "counter.bump", record=False)
    counter = Counter()
    bound = counter.bump  # looked up before the call, as hot loops do
    assert bound(2) == 2 and counter.bump() == 3
    assert tracer.layer_totals()["counter.bump"]["calls"] == 2
    tracer.unpatch()
    assert Counter.__dict__["bump"] is original


# -- speed scaling --------------------------------------------------------------


def test_speed_sampler_probes_during_work_and_reports_its_own_time():
    with SpeedSampler(interval=0.01) as sampler:
        mark = sampler.mark()
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            sum(range(1000))
        probe, overhead = sampler.since(mark)
    assert len(sampler.samples) >= 5
    assert 0 < overhead < 0.3
    assert min(sampler.samples) <= probe <= max(sampler.samples)
    # Work taking twice as long while the probe also takes twice as long
    # scales to the same time.
    assert scaled(2.0, 2 * probe) == scaled(1.0, probe)


# -- the tail-percentile rule ---------------------------------------------------


def test_highest_percentile_keeps_ten_samples_beyond():
    assert highest_percentile(10_000) == 99.9
    assert highest_percentile(1_000) == 99.0
    assert highest_percentile(999) == 95.0
    assert highest_percentile(200) == 95.0
    assert highest_percentile(20) == 50.0
    assert highest_percentile(19) is None
    for count in (20, 199, 1000, 5000):
        assert beyond(count, highest_percentile(count)) >= 10


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50.0) == 50
    assert percentile(values, 99.0) == 99
    assert percentile(values, 99.9) == 100
    assert percentile([float("inf"), 1.0], 50.0) == 1.0


# -- open-loop latency ------------------------------------------------------------


def _stalling_server(stall_first: float, block_second: float):
    """A one-route HTTP server; the first request sleeps (yielding the
    loop), the second blocks the loop."""
    seen = []

    async def handler(reader, writer):
        while True:
            try:
                await reader.readuntil(b"\r\n\r\n")
            except asyncio.IncompleteReadError:
                break
            seen.append(time.perf_counter())
            if len(seen) == 1:
                await asyncio.sleep(stall_first)
            elif len(seen) == 2:
                time.sleep(block_second)
            writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}")
            await writer.drain()
        writer.close()

    return handler


def test_open_loop_latency_counts_the_queue_and_generator_lag():
    async def main():
        server = await asyncio.start_server(
            _stalling_server(0.2, 0.1), "127.0.0.1", 0
        )
        port = server.sockets[0].getsockname()[1]
        payload = loadgen.encode("GET", "/")
        schedule = [
            loadgen.Request("hit", offset, payload)
            for offset in (0.0, 0.01, 0.25, 0.26, 0.27)
        ]
        async with server:
            done = await loadgen.run_schedule(
                "127.0.0.1", port, schedule, connections=1
            )
        return schedule, done

    schedule, done = asyncio.run(main())
    assert len(done) == 5 and all(request.ok for request in done)
    first, second, third = schedule[:3]
    # The second request waited behind the stalled first one: timed from
    # its due time it is slow, although the server answered it at once
    # after it was sent.
    assert second.latency >= 0.18
    assert second.done - second.sent < second.latency
    # The server blocked the event loop (client and server share it
    # here) for 0.1 s while the third request was due: the generator
    # enqueued it late, and that lag is reported, not hidden.
    assert third.lag >= 0.04
    assert max(request.lag for request in schedule[3:]) >= 0.0
    assert loadgen.outstanding_at(schedule, second.due) == 2


def test_failed_request_counts_as_missing_the_limit():
    ok = loadgen.Request("hit", 0.0, b"")
    ok.status, ok.due, ok.done = 200, 1.0, 1.001
    failed = loadgen.Request("hit", 0.0, b"")
    failed.error, failed.due, failed.done = "TimeoutError", 1.0, 1.0005
    hits = [ok] * 98 + [failed] * 2
    result = serve.rung_result(hits, 100.0, 0.01)
    assert failed.latency == float("inf")
    assert not result["passed"]


# -- failure counting ---------------------------------------------------------------


def _record(label, **changes):
    record = {
        "label": label,
        "category": "hunt_exhaustive",
        "wall_s": 1.0,
        "outcome": "violated",
        "expected": True,
        "counterexample": True,
        "counterexample_replays": True,
        "shrink_unfaithful": False,
        "lasso": False,
        "lasso_replays": None,
        "counts": {"runs_checked": 10, "counterexample_length": 8},
    }
    record.update(changes)
    return record


def test_failure_counting_of_verdicts():
    tally = Tally()
    expected = {"b": {"runs_checked": 10, "counterexample_length": 8, "outcome": "violated"}}
    records = [
        _record("a"),
        _record("a", counts={"runs_checked": 11, "counterexample_length": 8}),
        _record("b", counterexample_replays=False),
        _record("c", expected=False),
        _record("d", outcome="budget-exhausted", expected=False, counterexample=False),
        _record("e", lasso=True, lasso_replays=False, counterexample=False),
        _record("f"),
    ]
    reference = {"f": {"runs_checked": 9, "counterexample_length": 8, "outcome": "violated"}}
    run.check_records(records, expected, tally, reference, "other hash seed")
    assert tally.attempted == 7
    # Every record but the first fails, each for its own reason, once.
    assert tally.failed == 6
    joined = "\n".join(tally.problems)
    for reason in (
        "earlier in the run", "does not replay", "not the expected one",
        "budget exhausted", "lasso does not replay", "under other hash seed",
    ):
        assert reason in joined


def test_failure_counting_of_hits():
    stored = {"k1": '{"outcome":"holds"}'}
    good = loadgen.Request("hit", 0.0, b"", "s1")
    good.status = 200
    good.body = b'{"cached":true,"status":"done","key":"k1","scenario":"s1","verdict":{"outcome":"holds"}}'
    wrong = loadgen.Request("hit", 0.0, b"", "s1")
    wrong.status = 200
    wrong.body = b'{"cached":true,"status":"done","key":"k1","scenario":"s1","verdict":{"outcome":"violated"}}'
    refused = loadgen.Request("hit", 0.0, b"", "s1")
    refused.status = 503
    tally = Tally()
    serve.check_hits([good, good, wrong, refused], stored, tally)
    assert (tally.attempted, tally.failed) == (4, 2)


def test_work_s_sums_per_item_medians_at_the_reference_speed():
    from common import REFERENCE_PROBE_S

    def timed(label, category, wall, probe=REFERENCE_PROBE_S, interleavings=0):
        return {"label": label, "category": category, "wall_s": wall, "probe_s": probe,
                "counts": {"interleavings": interleavings}}

    records = [
        timed("none", "proof_none", 10.0),
        timed("dpor", "proof_dpor", 2.0),
        timed("dpor", "proof_dpor", 3.0, probe=2 * REFERENCE_PROBE_S),  # 1.5 s scaled
        timed("dpor", "proof_dpor", 1.0),
    ]
    assert abs(run.work_s(records) - 11.5) < 1e-9
    assert run.breakdown("proof", records) == {"proof_none_s": 10.0, "proof_dpor_s": 1.5}
    hunt = [
        timed("m/exhaustive", "hunt_exhaustive", 4.0),
        timed("m/liveness", "liveness", 6.0),
        timed("m/fuzz", "hunt_fuzz", 0.5),
        timed("m-baseline/fuzz", "baseline", 2.0, interleavings=1000),
    ]
    assert abs(run.work_s(hunt) - 12.5) < 1e-9
    assert run.breakdown("hunt", hunt) == {
        "hunt_exhaustive_s": 4.0, "liveness_s": 6.0, "fuzz_interleavings_per_s": 500.0,
    }


def test_every_workload_reports_every_declared_end_to_end_metric():
    # Each untraced workload returns these three; run.main reads every
    # declared metric from them and stops without a result if one is
    # missing, so the manifest must declare exactly these.
    assert set(run.declared_units("end_to_end")) == {"setup_s", "peak_rss_mb", "work_s"}


def test_closed_loop_pass_is_due_at_once_and_seeded():
    import random

    first = serve.back_to_back(50, ["a", "b", "c"], random.Random(7))
    again = serve.back_to_back(50, ["a", "b", "c"], random.Random(7))
    assert len(first) == 50
    assert all(request.kind == "hit" and request.offset == 0.0 for request in first)
    assert [request.tag for request in first] == [request.tag for request in again]
    assert {request.tag for request in first} == {"a", "b", "c"}
