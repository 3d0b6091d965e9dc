"""Workload set-up: a configuration file and an ingested CVE store per seed.

Set-up is what a user does once before analysing: write the deployment
description and build the on-disk store from a feed. ``build`` does exactly
that into a fresh directory and returns what one operation needs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from iotgraph.cvestore import CveStore
from iotgraph.synth import synth_document

from perfbench.feed import synth_feed

# One of every catalog product: the device set, and so the attack structure,
# does not change with the seed (see feed.feed_items for the feed side).
EVIDENCE_DEVICES = 64
EVIDENCE_CVES_PER_PRODUCT = 1

LARGE_HOME_DEVICES = 1280


@dataclass(frozen=True)
class Workload:
    store: Path
    config: Path


def build(name: str, seed: int, directory: Path) -> Workload:
    """Generate the workload's inputs from ``seed`` and ingest its feed."""

    directory.mkdir(parents=True)
    feed = directory / "feed.json"
    if name == "home-large":
        bundled = resources.files("iotgraph") / "fixtures" / "mini_feed.json"
        feed.write_text(bundled.read_text())
        doc = synth_document(LARGE_HOME_DEVICES, seed)
    elif name == "evidence-dense":
        feed.write_text(synth_feed(EVIDENCE_CVES_PER_PRODUCT, seed))
        doc = synth_document(EVIDENCE_DEVICES, seed)
    else:
        raise ValueError(f"unknown workload {name!r}")
    config = directory / "home.json"
    config.write_text(json.dumps(doc, indent=2) + "\n")
    store = directory / "store.db"
    with CveStore(store) as db:
        _, skipped = db.ingest_feed(feed)
    if skipped:
        raise RuntimeError(f"{name}: {skipped} feed records skipped at ingest")
    return Workload(store=store, config=config)
