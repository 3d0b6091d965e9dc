from __future__ import annotations

import json
import sqlite3
from dataclasses import astuple

import pytest

from iotgraph.cvestore import _SCHEMA, CveStore, StoreError, tokenize

from conftest import FEED_PATH, FIXTURE_NAMES, load_fixture_config

# The store layout written before the tokens table was indexed by CVE id.
OLD_SCHEMA = """
CREATE TABLE records (
    cve_id TEXT PRIMARY KEY,
    description TEXT NOT NULL,
    attack_vector TEXT NOT NULL,
    conf_impact TEXT NOT NULL,
    integ_impact TEXT NOT NULL,
    avail_impact TEXT NOT NULL,
    impact_score REAL NOT NULL,
    exploitability_score REAL NOT NULL,
    year INTEGER NOT NULL
);
CREATE TABLE tokens (
    token TEXT NOT NULL,
    cve_id TEXT NOT NULL,
    PRIMARY KEY (token, cve_id)
) WITHOUT ROWID;
CREATE INDEX tokens_by_token ON tokens (token);
"""


def write_feed(path, items):
    doc = {"CVE_data_type": "CVE", "CVE_data_format": "MITRE", "CVE_Items": items}
    path.write_text(json.dumps(doc))
    return path


def item(cve_id, desc, vector="NETWORK", c="HIGH", i="HIGH", a="HIGH", v2=False):
    entry = {
        "cve": {
            "CVE_data_meta": {"ID": cve_id},
            "description": {"description_data": [{"lang": "en", "value": desc}]},
        }
    }
    if v2:
        entry["impact"] = {
            "baseMetricV2": {
                "cvssV2": {
                    "accessVector": vector,
                    "confidentialityImpact": c,
                    "integrityImpact": i,
                    "availabilityImpact": a,
                },
                "impactScore": 6.4,
                "exploitabilityScore": 10.0,
            }
        }
    else:
        entry["impact"] = {
            "baseMetricV3": {
                "cvssV3": {
                    "attackVector": vector,
                    "confidentialityImpact": c,
                    "integrityImpact": i,
                    "availabilityImpact": a,
                },
                "impactScore": 5.9,
                "exploitabilityScore": 3.9,
            }
        }
    return entry


def test_bundled_feed_ingests_completely(store):
    assert store.count() == 20


def test_get_returns_parsed_record(store):
    rec = store.get("CVE-2020-8864")
    assert rec.attack_vector == "adjacent"
    assert rec.conf_impact == "high"
    assert rec.year == 2020
    assert "HNAP" in rec.description


def test_search_requires_every_token(store):
    assert {r.cve_id for r in store.search("D-Link Router")} == {"CVE-2020-8864"}
    assert {r.cve_id for r in store.search("D-Link Camera")} == {"CVE-2019-10999"}


def test_search_results_ordered_by_cve_id(store):
    ids = [r.cve_id for r in store.search("Smartthings Hub")]
    assert ids == sorted(ids)
    assert ids == ["CVE-2018-3904", "CVE-2018-3917", "CVE-2018-3919", "CVE-2018-3925"]


def test_search_does_not_stem(store):
    assert store.search("Routers") == []


def test_search_drops_marketing_tokens(store):
    with_noise = store.search("Smart White Mini D-Link Router")
    assert {r.cve_id for r in with_noise} == {"CVE-2020-8864"}


def test_search_empty_after_stopwords(store):
    assert store.search("Smart Device") == []


def test_open_existing_requires_file(tmp_path):
    with pytest.raises(StoreError):
        CveStore.open_existing(tmp_path / "missing.db")


def test_open_existing_reads_back(tmp_path):
    s = CveStore(tmp_path / "s.db")
    s.ingest_feed(str(FEED_PATH))
    again = CveStore.open_existing(tmp_path / "s.db")
    assert again.count() == 20


def test_open_existing_is_read_only(tmp_path):
    s = CveStore(tmp_path / "s.db")
    s.ingest_feed(str(FEED_PATH))
    s.close()
    with CveStore.open_existing(tmp_path / "s.db") as again:
        with pytest.raises(sqlite3.OperationalError, match="readonly"):
            again.add(again.get("CVE-2020-8864"))
        assert again.count() == 20


def test_open_existing_needs_the_store_tables(tmp_path):
    empty = tmp_path / "empty.db"
    empty.touch()
    with pytest.raises(StoreError, match="no records and tokens tables"):
        CveStore.open_existing(empty)
    assert empty.stat().st_size == 0


def test_ingest_skips_items_without_cvss(tmp_path):
    feed = write_feed(
        tmp_path / "feed.json",
        [
            item("CVE-2021-0001", "a router bug"),
            {
                "cve": {
                    "CVE_data_meta": {"ID": "CVE-2021-0002"},
                    "description": {"description_data": [{"lang": "en", "value": "no scores"}]},
                }
            },
        ],
    )
    s = CveStore(tmp_path / "s.db")
    added, skipped = s.ingest_feed(str(feed))
    assert (added, skipped) == (1, 1)


def test_ingest_parses_v2_fallback(tmp_path):
    feed = write_feed(
        tmp_path / "feed.json",
        [item("CVE-2014-0003", "an old camera bug", vector="ADJACENT_NETWORK",
              c="PARTIAL", i="NONE", a="COMPLETE", v2=True)],
    )
    s = CveStore(tmp_path / "s.db")
    assert s.ingest_feed(str(feed)) == (1, 0)
    rec = s.get("CVE-2014-0003")
    assert rec.attack_vector == "adjacent"
    assert rec.conf_impact == "low"
    assert rec.integ_impact == "none"
    assert rec.avail_impact == "high"


def test_ingest_rejects_malformed_feed(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    s = CveStore(tmp_path / "s.db")
    with pytest.raises(StoreError):
        s.ingest_feed(str(bad))
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    with pytest.raises(StoreError):
        s.ingest_feed(str(empty))


def test_ingest_rejects_feed_that_is_not_an_object(tmp_path):
    feed = tmp_path / "list.json"
    feed.write_text(json.dumps([item("CVE-2021-0001", "a router bug")]))
    with pytest.raises(StoreError, match="top level must be an object"):
        CveStore(tmp_path / "s.db").ingest_feed(str(feed))


@pytest.mark.parametrize(
    "v2, path, value",
    [
        (False, ("impact",), 5),
        (False, ("cve", "description"), 5),
        (False, ("cve", "description", "description_data", 0, "value"), 5),
        (False, ("impact", "baseMetricV3", "cvssV3", "attackVector"), 5),
        (True, ("impact", "baseMetricV2", "cvssV2", "integrityImpact"), ["NONE"]),
    ],
)
def test_ingest_skips_mistyped_items_and_keeps_the_rest(tmp_path, v2, path, value):
    bad = item("CVE-2021-0002", "a camera bug", v2=v2)
    target = bad
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    feed = write_feed(
        tmp_path / "feed.json",
        [item("CVE-2021-0001", "a router bug"), bad, item("CVE-2021-0003", "a lock bug")],
    )
    s = CveStore(tmp_path / "s.db")
    assert s.ingest_feed(str(feed)) == (2, 1)
    assert [r.cve_id for r in s.all_records()] == ["CVE-2021-0001", "CVE-2021-0003"]


def test_reingest_same_feed_updates_not_duplicates(tmp_path):
    s = CveStore(tmp_path / "s.db")
    s.ingest_feed(str(FEED_PATH))
    s.ingest_feed(str(FEED_PATH))
    assert s.count() == 20


def test_all_records_enumerates(store):
    recs = store.all_records()
    assert len(recs) == 20
    assert all(r.cve_id.startswith("CVE-") for r in recs)


def fixture_device_names() -> list[str]:
    return sorted({d.name for name in FIXTURE_NAMES for d in load_fixture_config(name).devices})


def answers(store: CveStore) -> tuple:
    """Every record, and the search results of every fixture device name."""

    return store.all_records(), [store.search(name) for name in fixture_device_names()]


def indexes(path) -> set[str]:
    conn = sqlite3.connect(path)
    try:
        rows = conn.execute("SELECT name FROM sqlite_master WHERE type = 'index'").fetchall()
    finally:
        conn.close()
    return {name for (name,) in rows}


def test_feed_repeating_an_id_keeps_its_last_record(tmp_path):
    feed = write_feed(
        tmp_path / "feed.json",
        [
            item("CVE-2021-0001", "a thermostat bug"),
            item("CVE-2021-0002", "a router bug"),
            item("CVE-2021-0001", "a camera bug", vector="LOCAL"),
        ],
    )
    s = CveStore(tmp_path / "s.db")
    assert s.ingest_feed(str(feed)) == (3, 0)
    assert s.count() == 2
    assert s.get("CVE-2021-0001").description == "a camera bug"
    assert s.get("CVE-2021-0001").attack_vector == "local"
    assert s.search("Thermostat") == []
    assert [r.cve_id for r in s.search("Camera")] == ["CVE-2021-0001"]


def test_reingest_of_edited_feed_drops_old_tokens(tmp_path):
    s = CveStore(tmp_path / "s.db")
    feed = tmp_path / "feed.json"
    write_feed(feed, [item("CVE-2021-0001", "a thermostat bug"), item("CVE-2021-0002", "a lock bug")])
    s.ingest_feed(str(feed))
    write_feed(feed, [item("CVE-2021-0001", "a camera bug")])
    assert s.ingest_feed(str(feed)) == (1, 0)
    assert s.search("Thermostat") == []
    assert [r.cve_id for r in s.search("Camera")] == ["CVE-2021-0001"]
    assert [r.cve_id for r in s.search("Lock")] == ["CVE-2021-0002"]


def test_bulk_ingest_matches_adding_records_one_by_one(tmp_path, store):
    one_by_one = CveStore(tmp_path / "s.db")
    for record in store.all_records():
        one_by_one.add(record)
    assert answers(one_by_one) == answers(store)
    assert any(answers(store)[1])


def test_ingest_commits_once_per_feed(tmp_path):
    items = [item(f"CVE-2021-{i:04d}", f"model{i} router bug") for i in range(64)]
    feed = write_feed(tmp_path / "feed.json", items)
    s = CveStore(tmp_path / "s.db")
    statements = []
    s._conn.set_trace_callback(statements.append)
    assert s.ingest_feed(str(feed)) == (64, 0)
    s._conn.set_trace_callback(None)
    assert [st for st in statements if st.upper().startswith("COMMIT")] == ["COMMIT"]
    assert s.count() == 64


def test_failed_ingest_leaves_the_store_unchanged(tmp_path):
    path = tmp_path / "s.db"
    s = CveStore(path)
    s.ingest_feed(str(FEED_PATH))
    before = answers(s)
    s._conn.execute(
        "CREATE TRIGGER refuse BEFORE INSERT ON tokens WHEN NEW.cve_id = 'CVE-2021-0002' "
        "BEGIN SELECT RAISE(ABORT, 'refused'); END"
    )
    feed = write_feed(
        tmp_path / "feed.json",
        [
            item("CVE-2020-8864", "a thermostat bug"),
            item("CVE-2021-0001", "a camera bug"),
            item("CVE-2021-0002", "a lock bug"),
        ],
    )
    with pytest.raises(StoreError, match="refused"):
        s.ingest_feed(str(feed))
    assert answers(s) == before
    assert s.get("CVE-2021-0001") is None
    s.close()
    with CveStore.open_existing(path) as again:
        assert answers(again) == before


def test_store_with_the_old_index_is_searchable_and_migrates(tmp_path, store):
    path = tmp_path / "old.db"
    conn = sqlite3.connect(path)
    conn.executescript(OLD_SCHEMA)
    records = store.all_records()
    with conn:
        conn.executemany("INSERT INTO records VALUES (?,?,?,?,?,?,?,?,?)", map(astuple, records))
        conn.executemany(
            "INSERT INTO tokens VALUES (?, ?)",
            [(token, r.cve_id) for r in records for token in tokenize(r.description)],
        )
    conn.close()
    expected = answers(store)
    with CveStore.open_existing(path) as old:
        assert answers(old) == expected
    assert indexes(path) == {"sqlite_autoindex_records_1", "tokens_by_token"}
    with CveStore(path) as migrated:
        assert migrated.ingest_feed(str(FEED_PATH)) == (20, 0)
        assert answers(migrated) == expected
    assert indexes(path) == {"sqlite_autoindex_records_1", "tokens_by_cve"}
    with CveStore.open_existing(path) as again:
        assert answers(again) == expected


def test_schema_runs_in_one_transaction_and_migrates_an_old_store(tmp_path, store):
    path = tmp_path / "old.db"
    conn = sqlite3.connect(path)
    conn.executescript(OLD_SCHEMA)
    with conn:
        conn.executemany("INSERT INTO records VALUES (?,?,?,?,?,?,?,?,?)", map(astuple, store.all_records()))
    statements = []
    conn.set_trace_callback(statements.append)
    conn.executescript(_SCHEMA)
    conn.close()
    verbs = [st.split(None, 1)[0].rstrip(";").upper() for st in statements]
    assert verbs[0] == "BEGIN" and verbs[-1] == "COMMIT"
    assert verbs.count("BEGIN") == verbs.count("COMMIT") == 1
    assert indexes(path) == {"sqlite_autoindex_records_1", "tokens_by_cve"}

    def layout():
        conn = sqlite3.connect(path)
        try:
            return conn.execute("SELECT type, name, sql FROM sqlite_master ORDER BY name").fetchall()
        finally:
            conn.close()

    before = layout()
    for _ in range(2):
        with CveStore(path) as again:
            assert again.all_records() == store.all_records()
        assert layout() == before
