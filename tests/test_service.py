"""Tests for the service layer: verdict cache, verify() memoization,
the HTTP application, and the asyncio server.

The load-bearing contract everywhere is byte-identity: a cache hit is
exactly the document the cold run produced — same canonical JSON, same
round-tripped :class:`Verdict` — and ``verify(cache="off")`` is exactly
the pre-cache facade.
"""

import asyncio
import json

import pytest

from repro.obs.recorder import Recorder, recording
from repro.scenarios import get_scenario, verify
from repro.service import (
    VerdictCache,
    artifact_hash,
    cache_key,
    check_cache_mode,
    default_cache_path,
)
from repro.service.app import ServiceApp
from repro.service.server import start_service
from repro.util.errors import UsageError

#: Exhaustible in a few milliseconds — cheap enough to run cold in
#: every test that needs a real verdict.
FAST = "consensus-grid:impl=cas,n=2,proposals=alt"
#: Fast *violating* scenario: its verdict embeds a counterexample
#: artifact, exercising the content-addressed artifact table.
VIOLATING = "inventing-consensus"


@pytest.fixture(autouse=True)
def _clean_cache_env(monkeypatch):
    """Isolate every test from ambient cache configuration."""
    for name in ("REPRO_VERIFY_CACHE", "REPRO_CACHE_DB", "REPRO_CACHE_EPOCH"):
        monkeypatch.delenv(name, raising=False)


@pytest.fixture
def db(tmp_path):
    return str(tmp_path / "verdicts.db")


class TestCacheModeAndPath:
    def test_modes(self):
        for mode in ("off", "read", "readwrite"):
            assert check_cache_mode(mode) == mode
        with pytest.raises(UsageError):
            check_cache_mode("write")

    def test_default_path_resolution(self, monkeypatch):
        assert default_cache_path("x.db") == "x.db"
        assert default_cache_path(None) == "verdicts.db"
        monkeypatch.setenv("REPRO_CACHE_DB", "/tmp/env.db")
        assert default_cache_path(None) == "/tmp/env.db"
        assert default_cache_path("x.db") == "x.db"


class TestVerdictCache:
    def test_put_get_round_trip(self, db):
        document = {"scenario": "s", "backend": "fuzz", "outcome": "holds"}
        with VerdictCache.open(db) as cache:
            assert cache.get("k") is None
            cache.put("k", document)
            assert cache.get("k") == document
        # Durable across connections.
        with VerdictCache.open(db) as cache:
            assert cache.get("k") == document

    def test_artifacts_content_addressed(self, db):
        witness = {"schema": "repro-replay", "events": [[0, "propose", [1]]]}
        document = {
            "scenario": "s",
            "backend": "exhaustive",
            "outcome": "violated",
            "counterexample": witness,
        }
        with VerdictCache.open(db) as cache:
            cache.put("k", document)
            digest = artifact_hash(witness)
            assert cache.artifact(digest) == witness
            assert cache.artifact_hashes("k") == [digest]
            assert cache.artifact("0" * 64) is None
            assert cache.stats()["artifacts"] == 1

    def test_put_is_idempotent(self, db):
        document = {"scenario": "s", "backend": "fuzz", "outcome": "holds"}
        with VerdictCache.open(db) as cache:
            cache.put("k", document)
            cache.put("k", document)
            assert cache.stats()["verdicts"] == 1

    def test_obs_counters(self, db):
        with VerdictCache.open(db) as cache:
            with recording(Recorder()) as recorder:
                cache.get("missing")
                cache.put("k", {"scenario": "s", "backend": "fuzz"})
                cache.get("k")
            assert recorder.counters["cache/miss"] == 1
            assert recorder.counters["cache/store"] == 1
            assert recorder.counters["cache/hit"] == 1

    def test_gc_evicts_stale_code(self, db):
        with VerdictCache.open(db) as cache:
            cache.put("old", {"scenario": "s", "backend": "fuzz"}, code="0.9")
            cache.put("new", {"scenario": "s", "backend": "fuzz"})
            assert cache.gc() == 1
            assert cache.get("old") is None
            assert cache.get("new") is not None

    def test_gc_drops_unreferenced_artifacts(self, db):
        witness = {"events": [[0, "w", [1]]]}
        stale = {
            "scenario": "s",
            "backend": "exhaustive",
            "counterexample": witness,
        }
        with VerdictCache.open(db) as cache:
            cache.put("old", stale, code="0.9")
            cache.gc()
            assert cache.artifact(artifact_hash(witness)) is None


class TestVerifyCaching:
    def test_cold_then_hit_byte_identical(self, db):
        cold = verify(FAST, cache="readwrite", cache_path=db)
        hit = verify(FAST, cache="readwrite", cache_path=db)
        assert not cold.cached
        assert hit.cached
        assert cold.cache_key == hit.cache_key
        assert hit.to_document() == cold.to_document()
        assert json.dumps(
            hit.to_document(), sort_keys=True
        ) == json.dumps(cold.to_document(), sort_keys=True)

    def test_off_is_byte_identical_to_default(self, db):
        default = verify(FAST).to_document()
        off_verdict = verify(FAST, cache="off", cache_path=db)
        off = off_verdict.to_document()
        # Wall-clock elapsed is the one legitimately run-varying stat;
        # everything else must be byte-identical to the cache-less path.
        default["stats"].pop("elapsed", None)
        off["stats"].pop("elapsed", None)
        assert default == off
        assert not off_verdict.cached and off_verdict.cache_key is None

    def test_read_mode_never_stores(self, db):
        first = verify(FAST, cache="read", cache_path=db)
        second = verify(FAST, cache="read", cache_path=db)
        assert not first.cached and not second.cached
        with VerdictCache.open(db) as cache:
            assert cache.stats()["verdicts"] == 0

    def test_read_mode_serves_existing(self, db):
        verify(FAST, cache="readwrite", cache_path=db)
        hit = verify(FAST, cache="read", cache_path=db)
        assert hit.cached

    def test_violating_hit_replays_counterexample(self, db):
        cold = verify(VIOLATING, cache="readwrite", cache_path=db)
        hit = verify(VIOLATING, cache="readwrite", cache_path=db)
        assert hit.cached and hit.outcome == "violated"
        assert hit.counterexample is not None
        assert (
            hit.counterexample.to_document()
            == cold.counterexample.to_document()
        )

    def test_env_defaults(self, db, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY_CACHE", "readwrite")
        monkeypatch.setenv("REPRO_CACHE_DB", db)
        verify(FAST)
        assert verify(FAST).cached

    def test_epoch_invalidates(self, db, monkeypatch):
        verify(FAST, cache="readwrite", cache_path=db)
        monkeypatch.setenv("REPRO_CACHE_EPOCH", "bumped")
        miss = verify(FAST, cache="readwrite", cache_path=db)
        assert not miss.cached
        # The stale pre-epoch entry is gc-able, the new one survives.
        with VerdictCache.open(db) as cache:
            assert cache.stats()["verdicts"] == 2
            assert cache.gc() == 1
            assert cache.stats()["verdicts"] == 1

    def test_overrides_key_the_cache(self, db):
        base = verify(FAST, cache="readwrite", cache_path=db)
        other = verify(
            FAST, cache="readwrite", cache_path=db, max_configurations=9999
        )
        assert base.cache_key != other.cache_key
        assert not other.cached

    def test_bad_mode_rejected(self, db):
        with pytest.raises(UsageError):
            verify(FAST, cache="sideways", cache_path=db)


def _run(coroutine):
    return asyncio.run(coroutine)


class TestServiceApp:
    def test_submit_poll_then_inline_hit(self, db):
        async def scenario():
            app = ServiceApp(cache_path=db, workers=1)
            app.start()
            try:
                status, doc = await app.handle(
                    "POST",
                    "/v1/verify",
                    {"scenario": FAST, "backend": "exhaustive"},
                )
                assert status == 202 and doc["status"] == "pending"
                request_id, key = doc["id"], doc["key"]
                while True:
                    status, doc = await app.handle(
                        "GET", f"/v1/verify/{request_id}", None
                    )
                    if doc["status"] != "pending":
                        break
                    await asyncio.sleep(0.05)
                assert status == 200 and doc["status"] == "done"
                assert doc["backend"] == "exhaustive"
                cold = doc["verdict"]

                status, doc = await app.handle(
                    "POST",
                    "/v1/verify",
                    {"scenario": FAST, "backend": "exhaustive"},
                )
                assert status == 200 and doc["cached"] is True
                assert doc["key"] == key
                assert doc["verdict"] == cold

                status, doc = await app.handle(
                    "GET", f"/v1/verdicts/{key}", None
                )
                assert status == 200 and doc == cold
            finally:
                app.close()

        _run(scenario())

    def test_artifact_route(self, db):
        async def scenario():
            app = ServiceApp(cache_path=db, workers=1)
            app.start()
            try:
                status, doc = await app.handle(
                    "POST", "/v1/verify", {"scenario": VIOLATING}
                )
                request_id = doc["id"]
                while True:
                    status, doc = await app.handle(
                        "GET", f"/v1/verify/{request_id}", None
                    )
                    if doc["status"] != "pending":
                        break
                    await asyncio.sleep(0.05)
                witness = doc["verdict"]["counterexample"]
                status, fetched = await app.handle(
                    "GET", f"/v1/artifacts/{artifact_hash(witness)}", None
                )
                assert status == 200 and fetched == witness
            finally:
                app.close()

        _run(scenario())

    def test_errors_and_metrics(self, db):
        async def scenario():
            app = ServiceApp(cache_path=db, workers=1)
            app.start()
            try:
                assert (await app.handle("POST", "/v1/verify", None))[0] == 400
                assert (
                    await app.handle("POST", "/v1/verify", {"nope": 1})
                )[0] == 400
                assert (
                    await app.handle(
                        "POST", "/v1/verify", {"scenario": "no-such"}
                    )
                )[0] == 400
                assert (
                    await app.handle(
                        "POST",
                        "/v1/verify",
                        {"scenario": FAST, "overrides": []},
                    )
                )[0] == 400
                status, reply = await app.handle(
                    "POST",
                    "/v1/verify",
                    {"scenario": FAST, "overrides": {"bogus": 1}},
                )
                assert status == 400 and "bogus" in reply["error"]
                status, reply = await app.handle(
                    "POST", "/v1/verify", {"scenario": FAST, "backend": "fuz"}
                )
                assert status == 400 and "did you mean" in reply["error"]
                assert app.jobs == {}
                assert (await app.handle("GET", "/v1/verify/nope", None))[
                    0
                ] == 404
                assert (
                    await app.handle("GET", "/v1/verdicts/" + "0" * 64, None)
                )[0] == 404
                assert (await app.handle("GET", "/nope", None))[0] == 404
                status, metrics = await app.handle("GET", "/v1/metrics", None)
                assert status == 200
                assert metrics["schema"] == "repro-metrics"
                counters = metrics["counters"]
                assert counters["service/requests"] >= 7
                status, health = await app.handle("GET", "/v1/healthz", None)
                assert status == 200 and health["ok"] is True
            finally:
                app.close()

        _run(scenario())

    def test_auto_backend_resolves_before_keying(self, db):
        async def scenario():
            app = ServiceApp(cache_path=db, workers=1)
            app.start()
            try:
                # seed is fuzz-only; auto resolves the small scenario
                # to exhaustive and must drop it, matching verify()'s
                # key exactly.
                status, doc = await app.handle(
                    "POST",
                    "/v1/verify",
                    {"scenario": VIOLATING, "overrides": {"seed": 7}},
                )
                assert doc["backend"] == "exhaustive"
                assert doc["key"] == cache_key(
                    get_scenario(VIOLATING), "exhaustive", {}
                )
            finally:
                app.close()

        _run(scenario())


async def _http(reader, writer, method, path, body=None):
    """One keep-alive HTTP exchange against the test server."""
    payload = b""
    if body is not None:
        payload = json.dumps(body).encode("utf-8")
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        "Host: test\r\n"
        f"Content-Length: {len(payload)}\r\n"
        "\r\n"
    ).encode("latin-1")
    writer.write(head + payload)
    await writer.drain()
    status_line = await reader.readline()
    status = int(status_line.split()[1])
    length = None
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    raw = await reader.readexactly(length)
    return status, raw


class TestHttpServer:
    def test_end_to_end_over_tcp(self, db):
        async def scenario():
            app = ServiceApp(cache_path=db, workers=1)
            server = await start_service(app, host="127.0.0.1", port=0)
            host, port = server.sockets[0].getsockname()[:2]
            try:
                reader, writer = await asyncio.open_connection(host, port)
                status, raw = await _http(reader, writer, "GET", "/v1/healthz")
                assert status == 200 and json.loads(raw)["ok"] is True

                status, raw = await _http(
                    reader, writer, "POST", "/v1/verify",
                    {"scenario": FAST, "backend": "exhaustive"},
                )
                assert status == 202
                request_id = json.loads(raw)["id"]
                while True:
                    status, raw = await _http(
                        reader, writer, "GET", f"/v1/verify/{request_id}"
                    )
                    if json.loads(raw)["status"] != "pending":
                        break
                    await asyncio.sleep(0.05)
                assert json.loads(raw)["status"] == "done"

                # Two inline hits over the wire are byte-identical.
                status, first = await _http(
                    reader, writer, "POST", "/v1/verify",
                    {"scenario": FAST, "backend": "exhaustive"},
                )
                assert status == 200
                status, second = await _http(
                    reader, writer, "POST", "/v1/verify",
                    {"scenario": FAST, "backend": "exhaustive"},
                )
                assert status == 200
                assert first == second
                writer.close()
                await writer.wait_closed()
            finally:
                server.close()
                await server.wait_closed()
                app.close()

        _run(scenario())

    def test_malformed_framing_is_400(self, db):
        async def scenario():
            app = ServiceApp(cache_path=db, workers=1)
            server = await start_service(app, host="127.0.0.1", port=0)
            host, port = server.sockets[0].getsockname()[:2]
            try:
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"NOT-HTTP\r\n\r\n")
                await writer.drain()
                status_line = await reader.readline()
                assert b"400" in status_line
                writer.close()
            finally:
                server.close()
                await server.wait_closed()
                app.close()

        _run(scenario())


class TestCli:
    def test_verify_cache_flag(self, db, capsys):
        from repro.__main__ import main

        assert main(["verify", FAST, "--cache", "readwrite",
                     "--cache-db", db]) == 0
        assert main(["verify", FAST, "--cache", "readwrite",
                     "--cache-db", db]) == 0
        out = capsys.readouterr().out
        assert "cache hit" in out

    def test_cache_stats_and_gc(self, db, capsys):
        from repro.__main__ import main

        verify(FAST, cache="readwrite", cache_path=db)
        assert main(["cache", "stats", "--cache-db", db]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["verdicts"] == 1
        assert main(["cache", "gc", "--cache-db", db]) == 0
        assert "evicted 0" in capsys.readouterr().out

    def test_cache_stats_missing_file(self, tmp_path, capsys):
        from repro.__main__ import main

        missing = str(tmp_path / "nope.db")
        assert main(["cache", "stats", "--cache-db", missing]) == 1
        assert main(["cache", "gc", "--cache-db", missing]) == 0
