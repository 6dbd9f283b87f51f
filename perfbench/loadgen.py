"""Open-loop HTTP load: requests are sent on a schedule, not on replies.

Independent users do not wait for each other, so the schedule fixes
when each request is *due*; a stalled server makes later requests wait
in the client queue, and that wait counts.  Each request is therefore
timed from its due time, and the generator's own lateness (enqueue time
minus due time) is reported separately, so a late generator cannot hide
a slow server.

At most ``connections`` keep-alive connections carry the requests; a
due request waits for a free one.  A reply may schedule a follow-up
request (a poll of a submitted job), which joins the same queue.
"""

from __future__ import annotations

import asyncio
import time

from typing import Callable, List, Optional, Tuple


class Request:
    """One HTTP request of a schedule and its timings (clock seconds)."""

    __slots__ = (
        "kind", "offset", "payload", "tag",
        "due", "enqueued", "sent", "done", "status", "body", "error",
    )

    def __init__(self, kind: str, offset: float, payload: bytes, tag=None):
        self.kind = kind
        self.offset = offset  # seconds after the schedule start
        self.payload = payload  # the encoded request
        self.tag = tag
        self.due = self.enqueued = self.sent = self.done = 0.0
        self.status = 0
        self.body = b""
        self.error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None and 200 <= self.status < 300

    @property
    def latency(self) -> float:
        """Seconds from due time to reply; infinite when failed."""
        return self.done - self.due if self.ok else float("inf")

    @property
    def lag(self) -> float:
        """Seconds the generator enqueued the request late."""
        return self.enqueued - self.due


def encode(method: str, path: str, body: bytes = b"") -> bytes:
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: localhost\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


async def exchange(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter, payload: bytes
) -> Tuple[int, bytes]:
    """Send one encoded request on a keep-alive connection; read the reply."""
    writer.write(payload)
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    body = await reader.readexactly(length) if length else b""
    return status, body


#: ``follow_up(request) -> (delay seconds, request) | None``, called on
#: every reply; the returned request is enqueued after the delay.
FollowUp = Callable[[Request], Optional[Tuple[float, Request]]]


async def run_schedule(
    host: str,
    port: int,
    schedule: List[Request],
    connections: int = 2,
    timeout: float = 10.0,
    follow_up: Optional[FollowUp] = None,
    clock: Callable[[], float] = time.perf_counter,
) -> List[Request]:
    """Run one open-loop schedule; returns every request made, follow-ups
    included, in completion order."""
    queue: asyncio.Queue = asyncio.Queue()
    finished: List[Request] = []
    pending_follow_ups: List[asyncio.Task] = []
    start = clock() + 0.05

    async def generate() -> None:
        for request in schedule:
            request.due = start + request.offset
            delay = request.due - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            request.enqueued = clock()
            queue.put_nowait(request)

    async def later(delay: float, request: Request) -> None:
        await asyncio.sleep(delay)
        request.due = request.enqueued = clock()
        queue.put_nowait(request)

    async def connection() -> None:
        reader = writer = None
        try:
            while True:
                request = await queue.get()
                if request is None:
                    return
                request.sent = clock()
                try:
                    if writer is None:
                        reader, writer = await asyncio.open_connection(host, port)
                    request.status, request.body = await asyncio.wait_for(
                        exchange(reader, writer, request.payload), timeout
                    )
                except (
                    asyncio.TimeoutError,
                    asyncio.IncompleteReadError,
                    asyncio.LimitOverrunError,
                    OSError,
                    ValueError,
                ) as exc:
                    request.error = f"{type(exc).__name__}: {exc}"
                    if writer is not None:
                        writer.close()
                    reader = writer = None
                request.done = clock()
                finished.append(request)
                if follow_up is not None:
                    nxt = follow_up(request)
                    if nxt is not None:
                        pending_follow_ups.append(
                            asyncio.ensure_future(later(*nxt))
                        )
                queue.task_done()
        finally:
            if writer is not None:
                writer.close()

    workers = [asyncio.ensure_future(connection()) for _ in range(connections)]
    await generate()
    # Follow-ups can spawn follow-ups: wait until none is outstanding.
    while True:
        await queue.join()
        waiting = [task for task in pending_follow_ups if not task.done()]
        if not waiting:
            break
        await asyncio.gather(*waiting)
    for task in pending_follow_ups:
        task.result()
    for _ in workers:
        queue.put_nowait(None)
    await asyncio.gather(*workers)
    return finished


def open_loop_offsets(rate: float, count: int) -> List[float]:
    """Due offsets of ``count`` requests at a fixed rate (requests/s)."""
    return [index / rate for index in range(count)]


def outstanding_at(requests: List[Request], moment: float) -> int:
    """Requests due by ``moment`` whose reply had not arrived by then."""
    return sum(
        1
        for request in requests
        if request.due <= moment and (not request.ok or request.done > moment)
    )
