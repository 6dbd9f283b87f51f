"""Both SQLite stores open through :func:`repro.util.sqlite_store.open_store`
and reject files that are not theirs the same way."""

from __future__ import annotations

import re
import sqlite3

import pytest

from repro.campaign import CampaignSpec, CampaignStore
from repro.service import VerdictCache
from repro.util.errors import UsageError


def _create_campaign(path: str) -> None:
    CampaignStore.create(path, CampaignSpec.from_cli(["thm44"], [])).close()


def _create_cache(path: str) -> None:
    VerdictCache(path).close()


#: store -> (opener, creator of a valid store file, what errors call it)
STORES = {
    "campaign": (CampaignStore.open, _create_campaign, "campaign store"),
    "cache": (VerdictCache, _create_cache, "verdict cache"),
}


@pytest.mark.parametrize("case", ["not-sqlite", "wrong-version"])
@pytest.mark.parametrize("store", sorted(STORES))
def test_store_open_rejected(tmp_path, store, case):
    opener, create, kind = STORES[store]
    path = str(tmp_path / "store.db")
    if case == "not-sqlite":
        (tmp_path / "store.db").write_text("this is not a sqlite database at all")
        expected = f"{path!r} is not a {kind}: "
    else:
        create(path)
        conn = sqlite3.connect(path)
        with conn:
            conn.execute(
                "UPDATE meta SET value = '999' WHERE key = 'schema_version'"
            )
        conn.close()
        expected = (
            f"{path!r} is not a {kind} (schema version '999', expected 1)"
        )
    with pytest.raises(UsageError, match=re.escape(expected)):
        opener(path)
