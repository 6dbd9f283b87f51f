"""Closed-loop cache hits through the program's HTTP service, in one
process: the ``work_s`` of the ``serve`` workload.

    python3 perfbench/hitloop.py --db PATH --seed N --seconds S

``serve.py`` runs it, with ``PYTHONPATH`` pointing at the program's
sources and ``PYTHONHASHSEED`` fixed, on the cache database its server
warmed, once that server has stopped.  It starts the program's asyncio
service (``repro.service.server.start_service``) on a loopback port and
the benchmark's client on the same event loop, then sends passes of
``serve.PASS_HITS`` back-to-back hits on two connections until
``--seconds`` have passed, checking every reply.

One thread runs both ends, so a pass never waits for another process
to be scheduled, and its CPU time is the service's work plus the
client's fixed share.  Each pass is timed in thread CPU time, which
leaves out the waits for the disk (every hit updates its row's hit
counter, and WAL checkpoints fsync), minus the speed probes taken while
it ran, and scaled to the reference speed like the ``proof`` and
``hunt`` verdicts.  The last line of standard output is one JSON
object with the results.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import sys
import time

from typing import Any, Dict, List, Optional

import loadgen
import serve
from common import SpeedSampler, Tally, scaled


async def passes(
    db: str, seed: int, seconds: float, tally: Tally
) -> Dict[str, List[float]]:
    from repro.service.app import ServiceApp
    from repro.service.server import start_service

    rng = random.Random(seed)
    scenarios = serve.hit_set()
    stored = serve.stored_documents(db)
    app = ServiceApp(cache_path=db, workers=1)
    server = await start_service(app, host="127.0.0.1", port=0)
    port = server.sockets[0].getsockname()[1]
    walls: List[float] = []
    cpus: List[float] = []
    try:
        # Untimed: connections, the cache's statements and the code
        # paths of every hit-set document warm up.
        await loadgen.run_schedule(
            "127.0.0.1", port, serve.back_to_back(serve.PASS_HITS, scenarios, rng)
        )
        started = time.perf_counter()
        with SpeedSampler() as sampler:
            while not walls or time.perf_counter() - started < seconds:
                schedule = serve.back_to_back(serve.PASS_HITS, scenarios, rng)
                mark = sampler.mark()
                begun, cpu = time.perf_counter(), time.thread_time()
                requests = await loadgen.run_schedule(
                    "127.0.0.1", port, schedule, timeout=serve.REQUEST_TIMEOUT
                )
                wall, cpu = time.perf_counter() - begun, time.thread_time() - cpu
                probe, overhead = sampler.since(mark)
                serve.check_hits(requests, stored, tally)
                walls.append(wall - overhead)
                cpus.append(scaled(cpu - overhead, probe))
    finally:
        server.close()
        await server.wait_closed()
        app.close()
    return {"walls": walls, "cpus": cpus}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--db", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    tally = Tally()
    result: Dict[str, Any] = asyncio.run(passes(args.db, args.seed, args.seconds, tally))
    result.update(
        attempted=tally.attempted, failed=tally.failed, problems=tally.problems[:50]
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
