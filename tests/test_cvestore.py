from __future__ import annotations

import json
import logging
import re
import sqlite3
from copy import deepcopy
from dataclasses import astuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iotgraph.cvestore import (
    _IMPACT_LEVELS,
    _SCHEMA,
    _V2_IMPACT,
    _VECTORS,
    CveRecord,
    CveStore,
    StoreError,
    _english_description,
    _KEYWORD,
    NOISE_TOKENS,
    _record_from_item,
    keyword_set,
    tokenize,
)

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


# Words of the bundled feed's products, noise words that a search drops,
# and words that no record holds.
NAME_WORDS = (
    "hue", "bridge", "d-link", "router", "camera", "smartthings", "hub", "arlo",
    "august", "echo", "speaker", "Smart", "White", "mini", "2", "device",
    "zzyzx", "qwerty", "routers",
)


class Warnings(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.sampled_from(NAME_WORDS), max_size=4).map(" ".join), max_size=12))
def test_search_names_matches_every_record_scanned_in_python(store, names):
    records = [(set(tokenize(r.description)), r) for r in store.all_records()]
    expected = []
    for name in names:
        keywords = keyword_set(name)
        hits = (r for tokens, r in records if keywords and tokens.issuperset(keywords))
        expected.append(tuple(sorted(hits, key=lambda r: r.cve_id)))
    warnings = Warnings()
    logger = logging.getLogger("iotgraph.cvestore")
    logger.addHandler(warnings)
    try:
        found = store.search_names(names)
    finally:
        logger.removeHandler(warnings)
    assert found == expected
    assert warnings.messages == [
        f"device name {name!r} has no searchable keywords" for name in names if not keyword_set(name)
    ]
    assert [list(f) for f in found] == [store.search(name) for name in names]
    # Names with the same keyword set share one tuple, and each record is one object.
    by_keywords = {}
    for name, records_found in zip(names, found):
        assert by_keywords.setdefault(keyword_set(name), records_found) is records_found
    assert len({id(r) for f in found for r in f}) == len({r.cve_id for f in found for r in f})


# Any text, and text built from name words, digits, separators and
# characters that change under lower() (the Kelvin sign becomes "k", dotted
# capital I becomes "i" and a combining dot).
name_texts = st.one_of(
    st.text(),
    st.lists(st.sampled_from((*NAME_WORDS, "42", "x2", "2x", "\u212a", "\u0130", "é", "-", " ")))
    .map("".join),
)


@settings(max_examples=300)
@given(name_texts)
def test_keyword_set_is_the_name_tokens_less_noise_and_digits(name):
    expected = {t for t in tokenize(name) if t not in NOISE_TOKENS and not t.isdigit()}
    assert keyword_set(name) == expected


def test_a_long_run_of_digits_is_read_in_linear_time(store):
    # A keyword match starts only where a token does. Tried at every digit of
    # a run with no letter after it, each try would scan the rest of the run:
    # the name below would then take some 20 s per read instead of
    # milliseconds.
    text = "a1b 22c 33"
    assert [k for k in range(len(text)) if _KEYWORD.match(text, k)] == [0, 4]
    name = "cam " + "7" * 50_000
    assert keyword_set(name) == {"cam"}
    assert store.search_names([name]) == [tuple(store.search("cam"))]


def test_open_existing_requires_file(tmp_path):
    with pytest.raises(StoreError):
        CveStore.open_existing(tmp_path / "missing.db")


def test_open_existing_reads_back(tmp_path):
    with CveStore(tmp_path / "s.db") as s:
        s.ingest_feed(str(FEED_PATH))
    with CveStore.open_existing(tmp_path / "s.db") as again:
        assert again.count() == 20


def test_open_existing_is_read_only(tmp_path):
    with CveStore(tmp_path / "s.db") as s:
        s.ingest_feed(str(FEED_PATH))
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
    with CveStore(tmp_path / "s.db") as s:
        assert s.ingest_feed(str(feed)) == (1, 1)


def test_ingest_parses_v2_fallback(tmp_path):
    feed = write_feed(
        tmp_path / "feed.json",
        [item("CVE-2014-0003", "an old camera bug", vector="ADJACENT_NETWORK",
              c="PARTIAL", i="NONE", a="COMPLETE", v2=True)],
    )
    with CveStore(tmp_path / "s.db") as s:
        assert s.ingest_feed(str(feed)) == (1, 0)
        rec = s.get("CVE-2014-0003")
    assert rec.attack_vector == "adjacent"
    assert rec.conf_impact == "low"
    assert rec.integ_impact == "none"
    assert rec.avail_impact == "high"


def test_ingest_rejects_malformed_feed(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    with CveStore(tmp_path / "s.db") as s:
        with pytest.raises(StoreError):
            s.ingest_feed(str(bad))
        with pytest.raises(StoreError):
            s.ingest_feed(str(empty))


def test_ingest_rejects_feed_that_is_not_an_object(tmp_path):
    feed = tmp_path / "list.json"
    feed.write_text(json.dumps([item("CVE-2021-0001", "a router bug")]))
    with CveStore(tmp_path / "s.db") as s:
        with pytest.raises(StoreError, match="top level must be an object"):
            s.ingest_feed(str(feed))


@pytest.mark.parametrize(
    "v2, path, value",
    [
        (False, ("impact",), 5),
        (False, ("cve", "description"), 5),
        (False, ("cve", "description", "description_data", 0, "value"), 5),
        (False, ("impact", "baseMetricV3", "cvssV3", "attackVector"), 5),
        (True, ("impact", "baseMetricV2", "cvssV2", "integrityImpact"), ["NONE"]),
        # A regular expression's ``$`` also matches before a final newline.
        (False, ("cve", "CVE_data_meta", "ID"), "CVE-2021-0002\n"),
        # ``\d`` also matches digits outside ASCII, such as Arabic-Indic ones.
        (False, ("cve", "CVE_data_meta", "ID"), "CVE-\u0662\u0660\u0662\u0661-0002"),
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
    with CveStore(tmp_path / "s.db") as s:
        assert s.ingest_feed(str(feed)) == (2, 1)
        assert [r.cve_id for r in s.all_records()] == ["CVE-2021-0001", "CVE-2021-0003"]


def test_reingest_same_feed_updates_not_duplicates(tmp_path):
    with CveStore(tmp_path / "s.db") as s:
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
    with CveStore(tmp_path / "s.db") as s:
        assert s.ingest_feed(str(feed)) == (3, 0)
        assert s.count() == 2
        assert s.get("CVE-2021-0001").description == "a camera bug"
        assert s.get("CVE-2021-0001").attack_vector == "local"
        assert s.search("Thermostat") == []
        assert [r.cve_id for r in s.search("Camera")] == ["CVE-2021-0001"]


def test_reingest_of_edited_feed_drops_old_tokens(tmp_path):
    feed = tmp_path / "feed.json"
    with CveStore(tmp_path / "s.db") as s:
        write_feed(feed, [item("CVE-2021-0001", "a thermostat bug"), item("CVE-2021-0002", "a lock bug")])
        s.ingest_feed(str(feed))
        write_feed(feed, [item("CVE-2021-0001", "a camera bug")])
        assert s.ingest_feed(str(feed)) == (1, 0)
        assert s.search("Thermostat") == []
        assert [r.cve_id for r in s.search("Camera")] == ["CVE-2021-0001"]
        assert [r.cve_id for r in s.search("Lock")] == ["CVE-2021-0002"]


def test_bulk_ingest_matches_adding_records_one_by_one(tmp_path, store):
    with CveStore(tmp_path / "s.db") as one_by_one:
        for record in store.all_records():
            one_by_one.add(record)
        assert answers(one_by_one) == answers(store)
    assert any(answers(store)[1])


def test_ingest_commits_once_per_feed(tmp_path):
    items = [item(f"CVE-2021-{i:04d}", f"model{i} router bug") for i in range(64)]
    feed = write_feed(tmp_path / "feed.json", items)
    statements = []
    with CveStore(tmp_path / "s.db") as s:
        s._conn.set_trace_callback(statements.append)
        assert s.ingest_feed(str(feed)) == (64, 0)
        s._conn.set_trace_callback(None)
        assert [st for st in statements if st.upper().startswith("COMMIT")] == ["COMMIT"]
        assert s.count() == 64


def test_failed_ingest_leaves_the_store_unchanged(tmp_path):
    path = tmp_path / "s.db"
    feed = write_feed(
        tmp_path / "feed.json",
        [
            item("CVE-2020-8864", "a thermostat bug"),
            item("CVE-2021-0001", "a camera bug"),
            item("CVE-2021-0002", "a lock bug"),
        ],
    )
    with CveStore(path) as s:
        s.ingest_feed(str(FEED_PATH))
        before = answers(s)
        s._conn.execute(
            "CREATE TRIGGER refuse BEFORE INSERT ON tokens WHEN NEW.cve_id = 'CVE-2021-0002' "
            "BEGIN SELECT RAISE(ABORT, 'refused'); END"
        )
        with pytest.raises(StoreError, match="refused"):
            s.ingest_feed(str(feed))
        assert answers(s) == before
        assert s.get("CVE-2021-0001") is None
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


def test_score_too_large_for_a_float_is_skipped(tmp_path):
    huge = item("CVE-2021-0001", "a router bug")
    # JSON integers have no limit, and 10**400 has no float.
    huge["impact"]["baseMetricV3"]["impactScore"] = 10**400
    feed = write_feed(tmp_path / "feed.json", [huge, item("CVE-2021-0002", "a lock bug")])
    with CveStore(tmp_path / "s.db") as s:
        assert s.ingest_feed(str(feed)) == (1, 1)
        assert [r.cve_id for r in s.all_records()] == ["CVE-2021-0002"]


# The reader as it was when each CVSS version had a branch of its own and
# the reader checked the vector and the levels before ``CveRecord`` did.
# Kept to check that the one-table reader reads every item the same way.
_KEPT_CVE_YEAR = re.compile(r"^CVE-(\d{4})-\d+$")


def _kept_record_from_item(item):
    try:
        return _kept_parse_item(item)
    except (AttributeError, KeyError, TypeError, ValueError, StoreError):
        return None


def _kept_parse_item(item):
    cve_id = item["cve"]["CVE_data_meta"]["ID"]
    m = _KEPT_CVE_YEAR.match(cve_id)
    if not m:
        return None
    description = _english_description(item["cve"])
    impact = item.get("impact", {})
    if "baseMetricV3" in impact:
        metric = impact["baseMetricV3"]
        cvss = metric.get("cvssV3", {})
        vector = cvss.get("attackVector", "").lower()
        if vector == "adjacent_network":
            vector = "adjacent"
        levels = [
            cvss.get("confidentialityImpact", "").lower(),
            cvss.get("integrityImpact", "").lower(),
            cvss.get("availabilityImpact", "").lower(),
        ]
    elif "baseMetricV2" in impact:
        metric = impact["baseMetricV2"]
        cvss = metric.get("cvssV2", {})
        vector = cvss.get("accessVector", "").lower()
        if vector == "adjacent_network":
            vector = "adjacent"
        levels = [
            _V2_IMPACT.get(cvss.get("confidentialityImpact", ""), ""),
            _V2_IMPACT.get(cvss.get("integrityImpact", ""), ""),
            _V2_IMPACT.get(cvss.get("availabilityImpact", ""), ""),
        ]
    else:
        return None
    if vector not in _VECTORS or any(level not in _IMPACT_LEVELS for level in levels):
        return None
    return CveRecord(
        cve_id=cve_id,
        description=description,
        attack_vector=vector,
        conf_impact=levels[0],
        integ_impact=levels[1],
        avail_impact=levels[2],
        impact_score=float(metric.get("impactScore", 0.0)),
        exploitability_score=float(metric.get("exploitabilityScore", 0.0)),
        year=int(m.group(1)),
    )


MISSING = object()
# Fresh copies: a later corruption may write into a container put in place.
WRONG_TYPES = st.sampled_from([None, 5, 2.5, True, [], ["HIGH"], {}, {"cvssV3": {}}]).map(deepcopy)
VECTORS = st.sampled_from(["NETWORK", "ADJACENT_NETWORK", "ADJACENT", "LOCAL", "PHYSICAL"]).flatmap(
    lambda v: st.sampled_from([v, v.lower(), v.title()])
)
V3_LEVELS = st.sampled_from(["NONE", "LOW", "HIGH", "none", "Low", "high"])
V2_LEVELS = st.sampled_from(["NONE", "PARTIAL", "COMPLETE"])
SCORES = st.one_of(
    st.floats(allow_nan=False),
    st.integers(-(10**6), 10**6),
    st.sampled_from(["5.9", " 3 ", "1e3", "inf"]),
)
# What a corruption puts in place of a value: vectors and levels of the
# other version or of neither, text that is no number, and wrong JSON types.
REPLACEMENTS = st.one_of(
    st.just(MISSING),
    WRONG_TYPES,
    VECTORS,
    V3_LEVELS,
    V2_LEVELS,
    st.sampled_from(["", "BOGUS", "ADJACENT-NETWORK", "adjacent_network_network", "MEDIUM", "5,9"]),
    st.text(max_size=4),
)


def _cvss_block(version):
    metric_key, cvss_key, vector_key, levels = {
        3: ("baseMetricV3", "cvssV3", "attackVector", V3_LEVELS),
        2: ("baseMetricV2", "cvssV2", "accessVector", V2_LEVELS),
    }[version]
    cvss = st.fixed_dictionaries(
        {
            vector_key: VECTORS,
            "confidentialityImpact": levels,
            "integrityImpact": levels,
            "availabilityImpact": levels,
        }
    )
    metric = st.fixed_dictionaries(
        {cvss_key: cvss}, optional={"impactScore": SCORES, "exploitabilityScore": SCORES}
    )
    return st.tuples(st.just(metric_key), metric)


# An item with a well-formed id, descriptions in English, in French or none
# (text or of the wrong type), and v3 metrics, v2 metrics, both or neither.
BASE_ITEMS = st.fixed_dictionaries(
    {
        "cve": st.fixed_dictionaries(
            {
                "CVE_data_meta": st.builds(
                    lambda year, number: {"ID": f"CVE-{year}-{number:04d}"},
                    st.integers(1999, 2030),
                    st.integers(0, 10**7),
                ),
            },
            optional={
                "description": st.fixed_dictionaries(
                    {},
                    optional={
                        "description_data": st.lists(
                            st.fixed_dictionaries(
                                {
                                    "lang": st.sampled_from(["en", "fr"]),
                                    "value": st.one_of(st.text(max_size=8), WRONG_TYPES),
                                }
                            ),
                            max_size=3,
                        )
                    },
                )
            },
        ),
        # Both key orders: v3 wins either way.
        "impact": st.sampled_from([(3,), (2,), (3, 2), (2, 3), ()]).flatmap(
            lambda versions: st.tuples(*map(_cvss_block, versions)).map(dict)
        ),
    }
)


def _paths(node, path=()):
    """The key path of every value under ``node``, containers included."""

    keys = node if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else ()
    for key in keys:
        yield path + (key,)
        yield from _paths(node[key], path + (key,))


@st.composite
def feed_items(draw):
    """A base item with up to three values replaced or removed."""

    feed_item = draw(BASE_ITEMS)
    for _ in range(draw(st.integers(0, 3))):
        # The id stays well-formed: the one-table reader matches whole ids.
        paths = [p for p in _paths(feed_item) if p[-1] != "ID"]
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = feed_item
        for key in path[:-1]:
            parent = parent[key]
        value = draw(REPLACEMENTS)
        if value is MISSING:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return feed_item


@settings(max_examples=500, deadline=None)
@given(feed_items())
def test_one_table_reader_matches_the_kept_two_branch_reader(feed_item):
    assert _record_from_item(feed_item) == _kept_record_from_item(feed_item)
