"""The ``serve`` workload: the HTTP service under open-loop load.

Both kinds of run start ``python -m repro serve --workers 1`` on a fresh
cache database, warm the hit set (the ``small``-tagged scenarios under
``backend=auto``, untimed) and read the stored documents back, then
send an open-loop schedule at ``FIXED_RATE`` requests/s: cache hits
drawn with the seed, and every ``COLD_EVERY``-th request a cold fuzz
submit with a fresh seed, polled until done.

An untraced run first times several server starts (set-up) and runs
the schedule; then ``hitloop.py`` sends closed-loop passes of
back-to-back hits through the program's service in one process, on the
same database.  It reports ``setup_s``, ``peak_rss_mb`` (the server's)
and ``work_s`` (the median pass in CPU seconds at the reference speed),
and checks every request.  A traced run reports the latency and
capacity figures, which swing too much between runs on a shared
machine to carry a bound (``hit_p50_ms``, ``hit_p99_ms``,
``cold_p50_s`` and the ladder's ``hit_max_rps``), measured on an
untraced server, and then repeats the schedule on a traced server
sharing the database, for the per-layer numbers.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import random
import selectors
import shutil
import sqlite3
import time

from typing import Any, Dict, Iterator, List, Optional, Tuple

import layers
import loadgen
from common import (
    HERE,
    OUT,
    PYTHON,
    Tally,
    highest_percentile,
    median,
    peak_rss_mb,
    percentile,
    probe_median,
    scaled,
    spawn,
    stop,
    wait_line,
)

#: Offered rate of the fixed-rate phase (requests/s).
FIXED_RATE = 500.0
#: Share of ``--seconds`` the fixed-rate schedule lasts.
FIXED_SHARE = 0.5
#: Every n-th request of the fixed-rate phase is a cold submit.
COLD_EVERY = 250
#: The cold submits: fuzz on a small scenario, a fresh seed each time.
COLD_SCENARIO = "cas-consensus"
#: Seconds between polls of a submitted cold job.
POLL_INTERVAL = 0.01
#: Share of ``--seconds`` the untraced run's fixed-rate schedule lasts.
UNTRACED_FIXED_SHARE = 0.15
#: Cache hits per closed-loop pass of ``hitloop.py`` (``work_s``).
PASS_HITS = 500
#: Share of ``--seconds`` the untraced run spends on closed-loop passes.
PASS_SHARE = 0.55
#: Offered rates of the capacity ladder (requests/s), tried in order.
LADDER = (1000.0, 3000.0, 9000.0, 27000.0)
#: Seconds per ladder rung; a rung also lasts at least three windows.
RUNG_SECONDS = 1.5
#: Hits per window: a run's latency figures are medians over windows,
#: and a ladder rung passes when most of its windows pass, so that one
#: stall of the shared machine cannot decide a whole run.
WINDOW_HITS = 1000
#: A request not answered within this many seconds fails.
REQUEST_TIMEOUT = 10.0
#: Timed set-up samples per run (each a fresh server and database).
SETUP_SAMPLES = 9
#: Hits sent before a timed schedule, so connections and caches are warm.
WARMUP_HITS = 500


def _run(coroutine, limit: float):
    """Run a coroutine on a select()-based loop: its sleeps have
    microsecond resolution, where epoll rounds them up to 1 ms."""
    loop = asyncio.SelectorEventLoop(selectors.SelectSelector())
    try:
        return loop.run_until_complete(asyncio.wait_for(coroutine, limit))
    finally:
        loop.close()


def _verify_payload(scenario: str, backend: str = "auto", overrides=None) -> bytes:
    document: Dict[str, Any] = {"scenario": scenario, "backend": backend}
    if overrides:
        document["overrides"] = overrides
    return loadgen.encode("POST", "/v1/verify", json.dumps(document).encode())


class Server:
    """One ``repro serve`` process on its own cache database."""

    def __init__(self, db: str, hash_seed: int, trace_out: Optional[str] = None):
        command = ["serve", "--workers", "1", "--port", "0", "--cache-db", db]
        if trace_out is None:
            args = [PYTHON, "-m", "repro", *command]
        else:
            args = [PYTHON, os.path.join(HERE, "serve_boot.py"), trace_out, *command]
        self.db = db
        self.trace_out = trace_out
        # The server's own log (shutdown noise included) goes to a file
        # next to its database, not into the benchmark's output.
        with open(db + ".log", "w") as log:
            self.process = spawn(args, hash_seed, stderr=log)
        try:
            line, _ = wait_line(self.process, "repro-serve listening on")
        except RuntimeError:
            stop(self.process)
            raise
        self.port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])

    def get(self, path: str) -> Tuple[int, bytes]:
        async def once():
            reader, writer = await asyncio.open_connection("127.0.0.1", self.port)
            try:
                return await loadgen.exchange(reader, writer, loadgen.encode("GET", path))
            finally:
                writer.close()

        return _run(once(), REQUEST_TIMEOUT)

    def run(self, schedule: List[loadgen.Request]) -> Tuple[List[loadgen.Request], "ColdTracker"]:
        """Run one open-loop schedule against this server."""
        tracker = ColdTracker()
        finished = _run(
            loadgen.run_schedule(
                "127.0.0.1", self.port, schedule,
                timeout=REQUEST_TIMEOUT, follow_up=tracker.follow_up,
            ),
            len(schedule) / 100 + 300.0,
        )
        return finished, tracker

    def close(self) -> Tuple[Optional[float], Optional[Dict[str, Any]]]:
        """Stop the server; returns its peak RSS (MB) and, when traced,
        the trace it wrote on exit."""
        rss = peak_rss_mb(self.process.pid)
        stop(self.process)
        trace = None
        if self.trace_out is not None and os.path.exists(self.trace_out):
            with open(self.trace_out) as handle:
                trace = json.load(handle)
        return rss, trace


def stored_documents(db: str) -> Dict[str, str]:
    """Canonical verdict documents in a cache database, by cache key."""
    connection = sqlite3.connect(f"file:{db}?mode=ro", uri=True)
    try:
        rows = connection.execute("SELECT key, document FROM verdicts").fetchall()
    finally:
        connection.close()
    return dict(rows)


class ColdTracker:
    """Follows each cold submit through its polls to the final verdict."""

    def __init__(self):
        self.done: List[Tuple[loadgen.Request, float, Dict[str, Any]]] = []
        self.failed: List[Tuple[loadgen.Request, str]] = []

    def follow_up(self, request: loadgen.Request):
        if request.kind not in ("cold", "poll"):
            return None
        submit = request if request.kind == "cold" else request.tag
        if not request.ok:
            self.failed.append((submit, request.error or f"HTTP {request.status}"))
            return None
        document = json.loads(request.body)
        status = document.get("status")
        if status == "pending":
            path = f"/v1/verify/{document['id']}"
            return POLL_INTERVAL, loadgen.Request(
                "poll", 0.0, loadgen.encode("GET", path), submit
            )
        if status == "done":
            self.done.append((submit, request.done, document))
        else:
            self.failed.append((submit, f"job {status}: {document.get('error')}"))
        return None

    def check(self, submitted: int, tally: Tally) -> List[float]:
        """Each cold submit must end in a done, expected ``holds`` verdict;
        returns submit-to-done seconds, timed from the due time."""
        latencies = []
        for submit, reason in self.failed:
            tally.operation(f"cold {submit.tag}", [reason])
        for submit, finished, document in self.done:
            verdict = document.get("verdict") or {}
            problems = []
            if not verdict.get("expected"):
                problems.append("verdict not expected")
            if verdict.get("outcome") != "holds":
                problems.append(f"outcome {verdict.get('outcome')}")
            if tally.operation(f"cold {submit.tag}", problems):
                latencies.append(finished - submit.due)
        missing = submitted - len(self.done) - len(self.failed)
        if missing:
            tally.problem("cold", f"{missing} submits never finished")
        return latencies


def hit_set() -> List[str]:
    from repro.scenarios import iter_scenarios

    return [scenario.scenario_id for scenario in iter_scenarios(tags="small")]


def build_schedule(
    rate: float,
    seconds: float,
    scenarios: List[str],
    rng: random.Random,
    cold_seeds: Optional[Iterator[int]] = None,
) -> List[loadgen.Request]:
    """Hits drawn with ``rng`` at a fixed rate; with ``cold_seeds``,
    every ``COLD_EVERY``-th request is a cold submit instead."""
    schedule = []
    count = max(int(rate * seconds), 1)
    for index, offset in enumerate(loadgen.open_loop_offsets(rate, count)):
        if cold_seeds is not None and index % COLD_EVERY == COLD_EVERY // 2:
            seed = next(cold_seeds)
            payload = _verify_payload(COLD_SCENARIO, "fuzz", {"seed": seed})
            schedule.append(loadgen.Request("cold", offset, payload, seed))
        else:
            scenario = rng.choice(scenarios)
            schedule.append(
                loadgen.Request("hit", offset, _verify_payload(scenario), scenario)
            )
    return schedule


def back_to_back(count: int, scenarios: List[str], rng: random.Random) -> List[loadgen.Request]:
    """``count`` hits drawn with ``rng``, all due at once: the connections
    send each as soon as the previous reply arrived (a closed loop)."""
    return [
        loadgen.Request("hit", 0.0, _verify_payload(scenario), scenario)
        for scenario in (rng.choice(scenarios) for _ in range(count))
    ]


def hit_loop(db: str, seed: int, seconds: float, hash_seed: int,
             tally: Tally) -> Tuple[List[float], List[float]]:
    """Closed-loop hit passes through the program's service in one
    process (``hitloop.py``) on the warmed database; returns each pass's
    wall seconds and its scaled CPU seconds, and counts every hit."""
    args = [PYTHON, os.path.join(HERE, "hitloop.py"), "--db", db,
            "--seed", str(seed), "--seconds", repr(seconds)]
    process = spawn(args, hash_seed)
    try:
        assert process.stdout is not None
        lines = process.stdout.read().splitlines()
        code = process.wait()
    finally:
        stop(process)
    if code != 0 or not lines:
        raise RuntimeError(f"hitloop.py exited with {code}")
    result = json.loads(lines[-1])
    tally.attempted += result["attempted"]
    tally.failed += result["failed"]
    tally.problems.extend(result["problems"])
    return result["walls"], result["cpus"]


def warm(server: Server, scenarios: List[str], tally: Tally) -> Dict[str, str]:
    """Submit the hit set, wait for every verdict, and return the stored
    documents by cache key."""
    schedule = [
        loadgen.Request("cold", 0.0, _verify_payload(scenario), scenario)
        for scenario in scenarios
    ]
    _, tracker = server.run(schedule)
    for submit, reason in tracker.failed:
        tally.operation(f"warm {submit.tag}", [reason])
    for submit, _, document in tracker.done:
        expected = (document.get("verdict") or {}).get("expected")
        tally.operation(f"warm {submit.tag}", [] if expected else ["verdict not expected"])
    return stored_documents(server.db)


def check_hits(requests: List[loadgen.Request], stored: Dict[str, str], tally: Tally) -> None:
    """Every hit must be a 200 cache hit for its scenario whose verdict is
    byte-identical (canonical JSON) to the stored document of its key."""
    from repro.util.hashing import canonical_json

    verdicts: Dict[Tuple[str, bytes], List[str]] = {}
    for request in requests:
        if request.kind != "hit":
            continue
        if not request.ok:
            tally.operation(f"hit {request.tag}", [request.error or f"HTTP {request.status}"])
            continue
        key = (request.tag, request.body)
        problems = verdicts.get(key)
        if problems is None:
            document = json.loads(request.body)
            problems = []
            if not document.get("cached") or document.get("status") != "done":
                problems.append("not answered from the cache")
            if document.get("scenario") != request.tag:
                problems.append(f"answered for {document.get('scenario')!r}")
            if canonical_json(document.get("verdict")) != stored.get(document.get("key")):
                problems.append("verdict differs from the stored document")
            verdicts[key] = problems
        tally.operation(f"hit {request.tag}", problems)


def hit_latencies(requests: List[loadgen.Request]) -> List[float]:
    """Due-to-reply seconds of the hits; a failed hit is infinite."""
    return [request.latency for request in requests if request.kind == "hit"]


def windows(requests: List[loadgen.Request]) -> List[List[loadgen.Request]]:
    """The hits in due order, cut into windows of ``WINDOW_HITS``; a
    short tail joins the last window."""
    hits = sorted((r for r in requests if r.kind == "hit"), key=lambda r: r.due)
    cuts = [hits[i:i + WINDOW_HITS] for i in range(0, len(hits), WINDOW_HITS)]
    if len(cuts) > 1 and len(cuts[-1]) < WINDOW_HITS:
        cuts[-2].extend(cuts.pop())
    return cuts


def window_passes(hits: List[loadgen.Request], rate: float, limit_s: float) -> bool:
    """Hit p99 within ``limit_s`` (failures count as misses), and no more
    requests outstanding when the last one was due than the limit lets
    be in flight."""
    p99 = percentile(hit_latencies(hits), 99.0)
    backlog = loadgen.outstanding_at(hits, max(request.due for request in hits))
    return p99 <= limit_s and backlog <= 2 + rate * limit_s


def rung_result(requests: List[loadgen.Request], rate: float, limit_s: float) -> Dict[str, Any]:
    """Whether a ladder rung met the limit: most of its windows did.
    ``throughput`` is the hit rate the rung sustained."""
    cuts = windows(requests)
    passed = sum(1 for cut in cuts if window_passes(cut, rate, limit_s))
    hits = [request for cut in cuts for request in cut]
    first_due = min(request.due for request in hits)
    last_done = max(request.done for request in hits)
    return {
        "rate": rate,
        "passed": 2 * passed > len(cuts),
        "windows_passed": [passed, len(cuts)],
        "p99_ms": _ms(percentile(hit_latencies(hits), 99.0)),
        "throughput": len(hits) / (last_done - first_due),
    }


def _ms(seconds: float) -> float:
    """Milliseconds for the report; a failed request reads as the
    request timeout (JSON has no infinity)."""
    return min(seconds, REQUEST_TIMEOUT) * 1000


def _fixed_phase(server, scenarios, rng, seconds, cold_seeds, stored, tally, report):
    server.run(build_schedule(FIXED_RATE, WARMUP_HITS / FIXED_RATE, scenarios, rng))
    schedule = build_schedule(FIXED_RATE, seconds, scenarios, rng, cold_seeds)
    requests, tracker = server.run(schedule)
    check_hits(requests, stored, tally)
    colds = tracker.check(sum(1 for r in schedule if r.kind == "cold"), tally)
    cuts = windows(requests)
    tail = highest_percentile(min(map(len, cuts))) if cuts else None
    if tail is None or tail < 99.0:
        tally.problem("fixed rate", "fewer than 10 hits beyond p99 in a window")
    report.append({"rate": FIXED_RATE, "hits": sum(map(len, cuts)), "windows": len(cuts),
                   "colds": len(colds)})
    return requests, tracker


def run(seed: int, seconds: float, trace: bool, limit_ms: float, hash_seed: int,
        tally: Tally, report: Dict[str, Any]) -> Dict[str, float]:
    directory = os.path.join(OUT, f"serve-{os.getpid()}")
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    try:
        if trace:
            return _traced(directory, seed, seconds, limit_ms / 1000, hash_seed, tally, report)
        return _untraced(directory, seed, seconds, hash_seed, tally, report)
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def measure_setup(directory: str, hash_seed: int) -> List[float]:
    """Spawn-to-healthy seconds of fresh servers on fresh databases,
    scaled to the reference speed by probes taken around each start; the
    first, untimed start fills the bytecode caches."""
    samples = []
    probe = probe_median()
    for index in range(SETUP_SAMPLES + 1):
        started = time.perf_counter()
        server = Server(os.path.join(directory, f"setup-{index}.db"), hash_seed)
        try:
            status, _ = server.get("/v1/healthz")
            elapsed = time.perf_counter() - started
        finally:
            server.close()
        if status != 200:
            raise RuntimeError(f"/v1/healthz answered {status}")
        after = probe_median()
        if index:
            samples.append(scaled(elapsed, (probe + after) / 2))
        probe = after
    return samples


def _seeds(seed: int) -> Iterator[int]:
    """Fuzz seeds for cold submits, unique within and across runs."""
    return (seed * 1_000_000 + index for index in itertools.count(1))


def _untraced(directory, seed, seconds, hash_seed, tally, report):
    rng = random.Random(seed)
    scenarios = hit_set()
    setup = measure_setup(directory, hash_seed)
    report["setup_samples"] = setup
    report["phases"] = []
    server = Server(os.path.join(directory, "verdicts.db"), hash_seed)
    try:
        stored = warm(server, scenarios, tally)
        requests, _ = _fixed_phase(
            server, scenarios, rng, seconds * UNTRACED_FIXED_SHARE, _seeds(seed),
            stored, tally, report["phases"],
        )
    finally:
        rss, _ = server.close()
    walls, cpus = hit_loop(server.db, seed, seconds * PASS_SHARE, hash_seed, tally)
    report["hit_p50_ms"] = _ms(percentile(hit_latencies(requests), 50.0))
    report["passes"] = len(walls)
    report["pass_wall_s"] = median(walls)
    if rss is None:
        raise RuntimeError("the server's peak RSS could not be read")
    return {"work_s": median(cpus), "setup_s": median(setup), "peak_rss_mb": rss}


def ladder(server, scenarios, rng, limit_s, stored, tally, report) -> float:
    """The hit throughput sustained at the highest ladder rate that met
    the limit, trying the rates in order until one does not."""
    rungs = []
    for rate in LADDER:
        duration = max(RUNG_SECONDS, 3 * WINDOW_HITS / rate)
        requests, _ = server.run(build_schedule(rate, duration, scenarios, rng))
        check_hits(requests, stored, tally)
        rungs.append(rung_result(requests, rate, limit_s))
        if not rungs[-1]["passed"]:
            break
    report["ladder"] = rungs
    passed = [rung for rung in rungs if rung["passed"]]
    if not passed:
        tally.problem("ladder", "no rate met the hit p99 limit")
        return 0.0
    return passed[-1]["throughput"]


def _traced(directory, seed, seconds, limit_s, hash_seed, tally, report):
    """The fixed-rate schedule and the ladder on an untraced server, then
    the fixed-rate schedule on a traced one sharing the warmed database."""
    rng = random.Random(seed)
    scenarios = hit_set()
    seeds = _seeds(seed)
    db = os.path.join(directory, "verdicts.db")
    report["phases"] = []
    server = Server(db, hash_seed)
    try:
        stored = warm(server, scenarios, tally)
        plain, plain_colds = _fixed_phase(
            server, scenarios, rng, seconds * FIXED_SHARE, seeds, stored, tally,
            report["phases"],
        )
        max_rps = ladder(server, scenarios, rng, limit_s, stored, tally, report)
    finally:
        server.close()
    server = Server(db, hash_seed, trace_out=os.path.join(directory, "server-trace.json"))
    try:
        traced, tracker = _fixed_phase(
            server, scenarios, rng, seconds * FIXED_SHARE, seeds, stored, tally,
            report["phases"],
        )
        status, body = server.get("/v1/metrics")
    finally:
        _, document = server.close()
    if document is None or status != 200:
        tally.problem("trace", "the traced server wrote no trace or no metrics")
        return {}
    counters = json.loads(body).get("counters", {})
    metrics = _service_layers(document, counters, plain, traced, tracker, tally, report)
    colds = [finished - submit.due for submit, finished, _ in plain_colds.done]
    metrics.update(
        {
            "hit_p50_ms": _ms(percentile(hit_latencies(plain), 50.0)),
            "hit_p99_ms": _ms(percentile(hit_latencies(plain), 99.0)),
            "hit_max_rps": max_rps,
            "cold_p50_s": median(colds) if colds else REQUEST_TIMEOUT,
        }
    )
    return metrics


def _service_layers(document, counters, plain, traced, tracker, tally, report):
    """Per-layer numbers of the traced fixed-rate schedule.

    The client's send-to-reply time of each request splits into the
    server's ``handle`` span (itself split into layer self times) and
    the HTTP layer (framing, sockets, the event loop: the rest)."""
    first = min(request.sent for request in traced)
    last = max(request.done for request in traced)
    handles = [
        span for span in document["spans"]
        if span[1] == "service.app.handle" and first <= span[2] <= last
    ]
    requests = {span[5] for span in handles}
    metrics = layers.service_metrics(document, requests)
    # Cross-check the wrappers against the program's own counters: one
    # handle per HTTP request, and the same cache hits.
    handle_calls = sum(
        calls for name, _request, calls, _total, _self in document["totals"]
        if name == "service.app.handle"
    )
    wrapper_hits = document["counts"].get("service.cache.hit", 0)
    crosscheck = [
        ["client requests", len(traced), len(handles)],
        ["service/requests", counters.get("service/requests", 0), handle_calls],
        ["cache/hit", counters.get("cache/hit", 0), wrapper_hits],
    ]
    report["crosscheck"] = crosscheck
    for name, program, wrapper in crosscheck:
        if program != wrapper:
            tally.problem("crosscheck", f"{name}: program {program} != wrapper {wrapper}")
    wall = sum(request.done - request.sent for request in traced)
    handle_s = sum(span[3] - span[2] for span in handles)
    layer_self = sum(
        metrics[name] for name in (
            "service.app.handle.self_s", "service.cache.get.self_s",
            "service.keys.cache_key.self_s",
        )
    )
    waits = [
        finished - submit.due - document_["verdict"]["stats"]["elapsed"]
        for submit, finished, document_ in tracker.done
    ]
    service = [r.done - r.sent for r in traced if r.kind == "hit" and r.ok]
    baseline = [r.done - r.sent for r in plain if r.kind == "hit" and r.ok]
    metrics.update(
        {
            "service.http.self_s": wall - handle_s,
            "service.cold.wait_s": median(waits) if waits else 0.0,
            "service.generator.lag_ms": _ms(
                percentile([r.lag for r in traced if r.kind != "poll"], 99.0)
            ),
            "obs.trace_overhead": median(service) / median(baseline) - 1,
            # The HTTP layer is the remainder of the client's time, so
            # only time inside handle spans can go unattributed.
            "obs.unattributed_s": handle_s - layer_self,
        }
    )
    report["traced_wall_s"] = wall
    return metrics
