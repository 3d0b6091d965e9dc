"""Local vulnerability store.

Ingests NVD JSON feeds (format 1.1, optionally gzipped) into a SQLite
database and answers device-name searches. A search tokenizes the device
name, drops marketing noise (colors, sizes, the word "smart", bare numbers),
and returns the records whose description contains every remaining keyword
as a whole token. Each feed item is read once, from its CVSS v3 block if it
has one and from its v2 block otherwise, through one table of the two
versions' keys. Items without CVSS metrics are skipped at ingest time because
the downstream exploit classifier needs the subscores; so are items whose id
is not a whole ``CVE-YYYY-N`` string of ASCII digits, items with a field of
the wrong JSON type, and items with a vector or impact level ``CveRecord``
refuses.

The ``tokens`` table has two indexes: its primary key ``(token, cve_id)``
serves the keyword lookups of a search, and ``tokens_by_cve`` the delete of
a replaced record's tokens.
"""

from __future__ import annotations

import gzip
import json
import logging
import re
import sqlite3
import zlib
from collections.abc import Callable, Collection, Sequence
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path

log = logging.getLogger(__name__)


class StoreError(RuntimeError):
    """Store file missing or feed malformed."""


# Tokens that match far too many records to identify a product.
GENERIC_TOKENS = frozenset({"smart", "wifi", "device", "the", "a"})
COLOR_TOKENS = frozenset({"white", "black", "red", "green", "blue", "yellow", "gray", "grey"})
SIZE_TOKENS = frozenset({"mini", "small", "large", "big"})

NOISE_TOKENS = GENERIC_TOKENS | COLOR_TOKENS | SIZE_TOKENS

_WORD = re.compile(r"[a-z0-9]+")
# A ``_WORD`` token with a letter in it: digit-only tokens never match. A
# match starts only where a token does, so a run of digits costs linear time.
_KEYWORD = re.compile(r"(?<![a-z0-9])[a-z0-9]*[a-z][a-z0-9]*")
_CVE_ID = re.compile(r"CVE-([0-9]{4})-[0-9]+")

_IMPACT_LEVELS = ("none", "low", "high")
_V2_IMPACT = {"NONE": "none", "PARTIAL": "low", "COMPLETE": "high"}
_VECTORS = ("network", "adjacent", "local", "physical")

# The CVSS blocks a feed item may carry, newest first: the metric key, the
# key of its cvss object, the key of the attack vector there, and how an
# impact value becomes a level. ``CveRecord`` refuses any other level.
_CVSS = (
    ("baseMetricV3", "cvssV3", "attackVector", str.lower),
    ("baseMetricV2", "cvssV2", "accessVector", _V2_IMPACT.get),
)


def tokenize(text: str) -> list[str]:
    """Lowercase alphanumeric tokens, in order, without duplicates."""

    seen: dict[str, None] = {}
    for token in _WORD.findall(text.lower()):
        seen.setdefault(token, None)
    return list(seen)


def keyword_set(device_name: str) -> frozenset[str]:
    """Search keywords for a device name: its tokens with a letter in them,
    with noise words removed."""

    return frozenset(_KEYWORD.findall(device_name.lower())) - NOISE_TOKENS


@dataclass(frozen=True)
class CveRecord:
    """One CVE with the CVSS fields the exploit classifier consumes."""

    cve_id: str
    description: str
    attack_vector: str
    conf_impact: str
    integ_impact: str
    avail_impact: str
    impact_score: float
    exploitability_score: float
    year: int

    def __post_init__(self) -> None:
        if not isinstance(self.description, str):
            raise StoreError(f"{self.cve_id}: description is not text")
        if self.attack_vector not in _VECTORS:
            raise StoreError(f"{self.cve_id}: bad attack vector {self.attack_vector!r}")
        for name in ("conf_impact", "integ_impact", "avail_impact"):
            if getattr(self, name) not in _IMPACT_LEVELS:
                raise StoreError(f"{self.cve_id}: bad {name} {getattr(self, name)!r}")


# One transaction: as separate autocommit statements, each DDL statement
# would pay a commit of its own.
_SCHEMA = """
BEGIN;
CREATE TABLE IF NOT EXISTS records (
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
CREATE TABLE IF NOT EXISTS tokens (
    token TEXT NOT NULL,
    cve_id TEXT NOT NULL,
    PRIMARY KEY (token, cve_id)
) WITHOUT ROWID;
DROP INDEX IF EXISTS tokens_by_token;
CREATE INDEX IF NOT EXISTS tokens_by_cve ON tokens (cve_id);
COMMIT;
"""

_COLUMNS = (
    "cve_id, description, attack_vector, conf_impact, integ_impact, avail_impact, "
    "impact_score, exploitability_score, year"
)
_row = attrgetter(*_COLUMNS.split(", "))


def _connect(path: str | Path, database: str, first: Callable, uri: bool = False) -> tuple:
    """A connection to ``database`` and what ``first`` returns run on it.

    A directory fails to connect, and a file that is not an SQLite database
    fails on ``first``: each raises ``StoreError`` naming the store ``path``.
    """

    try:
        conn = sqlite3.connect(database, uri=uri)
    except sqlite3.DatabaseError as exc:
        raise StoreError(f"cannot open vulnerability store {path}: {exc}") from None
    try:
        return conn, first(conn)
    except sqlite3.DatabaseError as exc:
        conn.close()
        raise StoreError(f"cannot open vulnerability store {path}: {exc}") from None


class CveStore:
    """SQLite-backed CVE records with a whole-token inverted index."""

    def __init__(self, path: str | Path = ":memory:"):
        self.path = str(path)
        self._conn, _ = _connect(path, self.path, lambda c: c.executescript(_SCHEMA))

    def __enter__(self) -> "CveStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def close(self) -> None:
        self._conn.close()

    @staticmethod
    def open_existing(path: str | Path) -> "CveStore":
        """Open a store that ``ingest`` built, read-only: the file is not written.

        A missing path, a file SQLite cannot read, and a database without
        the store's tables all raise ``StoreError``.
        """

        if not Path(path).exists():
            raise StoreError(f"vulnerability store not found: {path}")
        uri = Path(path).resolve().as_uri() + "?mode=ro"
        tables = "SELECT name FROM sqlite_master WHERE type = 'table'"
        conn, rows = _connect(path, uri, lambda c: c.execute(tables).fetchall(), uri=True)
        if not {"records", "tokens"} <= {name for (name,) in rows}:
            conn.close()
            raise StoreError(
                f"{path} is not a vulnerability store: it has no records and tokens tables"
            )
        store = CveStore.__new__(CveStore)
        store.path, store._conn = str(path), conn
        return store

    def count(self) -> int:
        return self._conn.execute("SELECT COUNT(*) FROM records").fetchone()[0]

    def add(self, record: CveRecord) -> None:
        """Insert or replace one record and reindex its description tokens."""

        self._write([record])

    def _write(self, records: Collection[CveRecord]) -> None:
        """Insert or replace records with distinct ids, all in one transaction."""

        with self._conn:
            self._conn.executemany(
                "DELETE FROM tokens WHERE cve_id = ?", [(r.cve_id,) for r in records]
            )
            self._conn.executemany(
                f"INSERT OR REPLACE INTO records ({_COLUMNS}) VALUES (?,?,?,?,?,?,?,?,?)",
                map(_row, records),
            )
            self._conn.executemany(
                "INSERT OR IGNORE INTO tokens (token, cve_id) VALUES (?, ?)",
                [(token, r.cve_id) for r in records for token in tokenize(r.description)],
            )

    def get(self, cve_id: str) -> CveRecord | None:
        row = self._conn.execute(
            f"SELECT {_COLUMNS} FROM records WHERE cve_id = ?", (cve_id,)
        ).fetchone()
        return CveRecord(*row) if row else None

    def all_records(self) -> list[CveRecord]:
        rows = self._conn.execute(f"SELECT {_COLUMNS} FROM records ORDER BY cve_id").fetchall()
        return [CveRecord(*row) for row in rows]

    def search(self, device_name: str) -> list[CveRecord]:
        """Records whose description contains every keyword of the name.

        Matching is exact per whole token; there is no stemming, so a
        record mentioning "locks" does not match the keyword "lock".
        """

        return list(self.search_names([device_name])[0])

    def search_names(self, device_names: Sequence[str]) -> list[tuple[CveRecord, ...]]:
        """The records of each name, as ``search`` finds them, in one round trip.

        Each name is tokenized once, and a name with no keywords warns and
        finds nothing. Two statements serve every other name: one reads the
        token postings of all the keywords, and after the intersection per
        distinct keyword set, one reads the records of all the hits. Each
        record is built once, and names with the same keywords share one
        tuple. Both lists pass as one JSON parameter, so no home is too
        large for SQLite's limit on bound variables.
        """

        keyword_sets = []
        for name in device_names:
            keywords = keyword_set(name)
            if not keywords:
                log.warning("device name %r has no searchable keywords", name)
            keyword_sets.append(keywords)
        distinct = set(keyword_sets) - {frozenset()}
        if not distinct:
            return [()] * len(keyword_sets)
        postings: dict[str, set[str]] = {}
        for token, cve_id in self._conn.execute(
            "SELECT token, cve_id FROM tokens WHERE token IN (SELECT value FROM json_each(?))",
            (json.dumps(sorted(frozenset().union(*distinct))),),
        ):
            postings.setdefault(token, set()).add(cve_id)
        hits = {
            keywords: set.intersection(*(postings.get(token, set()) for token in keywords))
            for keywords in distinct
        }
        wanted = sorted(set().union(*hits.values()))
        rows = self._conn.execute(
            f"SELECT {_COLUMNS} FROM records WHERE cve_id IN (SELECT value FROM json_each(?))",
            (json.dumps(wanted),),
        )
        records = {row[0]: CveRecord(*row) for row in rows}
        found = {keywords: tuple(records[i] for i in sorted(ids)) for keywords, ids in hits.items()}
        found[frozenset()] = ()
        return [found[keywords] for keywords in keyword_sets]

    def ingest_feed(self, feed_path: str | Path) -> tuple[int, int]:
        """Load an NVD 1.1 JSON feed. Returns (ingested, skipped) counts.

        Re-ingesting a feed is idempotent: records are replaced, not
        duplicated, and a CVE id repeated in the feed keeps its last record.
        Items without CVSS metrics, or with a field of the wrong JSON type,
        are skipped. The records are written in one transaction: if the write
        fails, ``StoreError`` is raised and the store is left as it was.
        """

        added = skipped = 0
        latest: dict[str, CveRecord] = {}
        for item in _read_feed_items(feed_path):
            record = _record_from_item(item)
            if record is None:
                skipped += 1
                continue
            latest[record.cve_id] = record
            added += 1
        try:
            self._write(latest.values())
        except sqlite3.DatabaseError as exc:
            raise StoreError(f"cannot write to vulnerability store {self.path}: {exc}") from None
        return added, skipped


def _read_feed_items(feed_path: str | Path) -> list[dict]:
    path = Path(feed_path)
    if not path.exists():
        raise StoreError(f"feed file not found: {path}")
    try:
        blob = path.read_bytes()
        doc = json.loads(gzip.decompress(blob) if blob[:2] == b"\x1f\x8b" else blob)
    except (OSError, EOFError, zlib.error, ValueError) as exc:
        # A directory or unreadable file, a truncated or corrupt gzip, bytes
        # that are not UTF-8, or text that is not JSON.
        raise StoreError(f"cannot read feed {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise StoreError(f"feed {path}: top level must be an object")
    items = doc.get("CVE_Items")
    if not isinstance(items, list):
        raise StoreError(f"feed {path} has no CVE_Items array")
    return items


def _english_description(cve: dict) -> str:
    for entry in cve.get("description", {}).get("description_data", []):
        if entry.get("lang") == "en":
            return entry.get("value", "")
    return ""


def _record_from_item(item: object) -> CveRecord | None:
    """The record of one feed item, or None if the item is unusable.

    Feed items are untyped JSON: a missing id or CVSS block, a field of the
    wrong type (a number where an object or a string belongs, say), a score
    too large for a float, or a value ``CveRecord`` refuses makes the item
    unusable. The first block of ``_CVSS`` the item has is the one read, so
    an item with v3 metrics never falls back to v2.
    """

    try:
        cve = item["cve"]
        cve_id = cve["CVE_data_meta"]["ID"]
        m = _CVE_ID.fullmatch(cve_id)
        if not m:
            return None
        impact = item.get("impact", {})
        for metric_key, cvss_key, vector_key, level in _CVSS:
            if metric_key in impact:
                metric = impact[metric_key]
                cvss = metric[cvss_key]
                vector = cvss[vector_key].lower()
                return CveRecord(
                    cve_id=cve_id,
                    description=_english_description(cve),
                    attack_vector="adjacent" if vector == "adjacent_network" else vector,
                    conf_impact=level(cvss["confidentialityImpact"]),
                    integ_impact=level(cvss["integrityImpact"]),
                    avail_impact=level(cvss["availabilityImpact"]),
                    impact_score=float(metric.get("impactScore", 0.0)),
                    exploitability_score=float(metric.get("exploitabilityScore", 0.0)),
                    year=int(m.group(1)),
                )
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError, StoreError):
        pass
    return None
